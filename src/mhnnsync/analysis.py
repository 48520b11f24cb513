"""Trajectory analysis: gap measurement, guarantee verification, ensembles, sweeps.

The synchronization degree (a sup/limsup over initial states and time) is
replaced by a finite surrogate: the maximum recorded pairwise gap over the
final tail fraction of the horizon, maximized over a seeded ensemble of
initial states. No completeness claim is made for the sup; ensemble size and
sampling radius are reported alongside the estimate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import constants as cst
from .integrate import (SERIES_CHUNK_BYTES, BlowUpError, IntegratorConfig, Trajectory,
                        integrate)
from .model import (HebbianParams, MhnnParams, ParameterError, as_integer, as_real, in_range,
                    make_hebbian_rhs, make_mhnn_rhs)

Params = Union[MhnnParams, HebbianParams]


class UndefinedFitError(RuntimeError):
    """Too few usable points to fit a decay rate."""


@dataclass
class EnsembleSpec:
    """Seeded ensemble of initial states sampled uniformly in a ball of given radius."""

    count: int = 10
    radius: float = 5.0
    seed: int = 0
    tail_fraction: float = 0.2

    def validate(self) -> None:
        """Checks every field; count and seed are kept as ints, radius and
        tail_fraction as floats."""
        self.count = as_integer(self.count, "ensemble.count")
        if not (self.count >= 1):
            raise ParameterError("ensemble.count", "ensemble count must be >= 1")
        self.radius = as_real(self.radius, "ensemble.radius")
        if not (0 < self.radius < math.inf):
            raise ParameterError("ensemble.radius", "sampling radius must be positive and finite")
        self.seed = as_integer(self.seed, "ensemble.seed")
        if not (self.seed >= 0):
            raise ParameterError("ensemble.seed", "seed must be a nonnegative integer")
        self.tail_fraction = as_real(self.tail_fraction, "ensemble.tail_fraction")
        if not (0 < self.tail_fraction < 1):
            raise ParameterError("ensemble.tail_fraction", "tail_fraction must lie in (0, 1)")


@dataclass
class EnvelopeViolation:
    trajectory: int
    time: float
    measured: float
    bound: float
    check: str       # "dissipative" | "gap" | "weight"


@dataclass
class SyncReport:
    """What was checked on a seeded ensemble at coupling ``p_used``. ``verdict`` is
    "pass" when ``deg_estimate`` < ``epsilon`` and no envelope was violated, else
    "fail", or "error" for a sweep value whose run blew up: only that report has
    ``deg_estimate`` None, and no entry times or violations. ``fitted_rate`` is
    None also when no member's gap has enough points to fit."""

    deg_estimate: float | None
    epsilon: float
    p_used: float
    p_star: float
    entry_times: list
    violations: list
    fitted_rate: float | None
    rate_theory: float
    verdict: str     # "pass" | "fail" | "error"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def sample_initial_states(ens: EnsembleSpec, dim: int) -> np.ndarray:
    """(count, dim) points uniform in the ball of radius ens.radius.

    Uses the Philox counter-based generator so the sequence is fully specified
    by the seed and portable across platforms.
    """
    ens.validate()
    rng = np.random.Generator(np.random.Philox(ens.seed))
    direction = rng.standard_normal((ens.count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = ens.radius * rng.random(ens.count) ** (1.0 / dim)
    return direction * radii[:, None]


def pairwise_gap_series(traj: Trajectory) -> np.ndarray:
    """max_{i<j} |u_i(t) - u_j(t)| at each recorded time."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    u = traj.states[..., :traj.m] if traj.m else traj.states
    # a running max/min over the node columns: numpy reduces slowly over a
    # short last axis, and the values are those of u.max(-1) - u.min(-1)
    hi = u[..., 0].copy()
    lo = hi.copy()
    for i in range(1, u.shape[-1]):
        np.maximum(hi, u[..., i], out=hi)
        np.minimum(lo, u[..., i], out=lo)
    return hi - lo


def estimate_sync_degree(trajs: Sequence[Trajectory], tail_fraction: float = 0.2) -> float:
    """Finite-horizon limsup surrogate: max tail gap over the ensemble."""
    if not trajs:
        raise ValueError("empty ensemble")
    deg = 0.0
    for traj in trajs:
        gaps = pairwise_gap_series(traj)
        tail = traj.times >= (1.0 - tail_fraction) * traj.times[-1]
        deg = max(deg, float(gaps[tail].max()))
    return deg


def fit_decay_rate(times: np.ndarray, gaps: np.ndarray, floor: float = 0.0) -> float:
    """Least-squares decay rate of ln(gap) on the pre-plateau segment.

    Uses points from the start of the series until the gap first drops below
    max(2*floor, 1e-9), and fits ln(gap - floor) so a residual plateau does not
    bias the slope. Returns the decay rate (positive = decaying).
    """
    times = np.asarray(times, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    cutoff = max(2.0 * floor, 1e-9)
    below = np.nonzero(gaps < cutoff)[0]
    end = below[0] if below.size else len(gaps)
    t, g = times[:end], gaps[:end] - floor
    usable = g > 0
    if usable.sum() < 5:
        raise UndefinedFitError(f"only {int(usable.sum())} usable points before the gap "
                                f"reached {cutoff:g}; need at least 5")
    # the centred least-squares slope sum (t - t_mean)(y - y_mean) / sum (t - t_mean)^2
    t, y = t[usable], np.log(g[usable])
    t = t - t.mean()
    spread = np.dot(t, t)
    if not (spread > 0):
        raise UndefinedFitError("the usable points share one time")
    return float(-np.dot(t, y - y.mean()) / spread)


def _make_rhs(p: Params):
    if isinstance(p, HebbianParams):
        return make_hebbian_rhs(p)
    return make_mhnn_rhs(p)


def _validate_one(p: Params) -> None:
    """p.validate(), refusing a P array: only ``sweep_coupling`` stacks the ensemble on its axis."""
    p.validate()
    if np.ndim(p.P):
        raise ParameterError("P", "a P array is for sweep_coupling only; give one coupling strength")


def _p_column(p: Params, p_values: Sequence[float]) -> Params:
    """p with P the sorted ``p_values`` as a (len(p_values), 1, 1) lockstep column.

    Not validated here: ``p.validate()`` checks every entry of the column.
    """
    return dataclasses.replace(p, P=np.array([float(P) for P in sorted(p_values)])[:, None, None])


def _initial_states(p: Params, ens: EnsembleSpec) -> np.ndarray:
    """(count, dim) seeded initial states; Hebbian members all start from the weights p.w0."""
    ball = sample_initial_states(ens, p.m + 1)
    if isinstance(p, HebbianParams):
        w0 = np.broadcast_to(p.w0.reshape(1, -1), (ens.count, p.m * p.m))
        return np.concatenate([ball, w0], axis=1)
    return ball


def integrate_ensemble(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec) -> Trajectory:
    """Batched trajectory for a seeded ensemble of initial states, every state kept whole.

    For the Hebbian model the (u, rho) block is sampled in the ball and every
    member starts from the same initial weight matrix p.w0. ``integrate``
    holds the ensemble node-major for the run; the trajectory has the
    logical (n_recorded, count, dim) shape.
    """
    _validate_one(p)
    ens.validate()
    return integrate(_make_rhs(p), _initial_states(p, ens), cfg, m=p.m)


def default_horizon(p: Params, ens: EnsembleSpec) -> float:
    """max(5*T_B(radius^2), 20/rate(P)): transient decayed by at least e^-20."""
    _validate_one(p)
    ens.validate()
    return _horizon(cst._derive(p), p.P, ens)


def _horizon(d: cst._Derivation, P, ens: EnsembleSpec) -> float:
    """default_horizon of the parameter set derived as ``d``, at the smallest entry of P."""
    L = in_range("ensemble.radius", lambda: ens.radius**2, "radius^2")
    try:
        T_B = cst.absorb_time(d.dc, L)
    except ParameterError as exc:       # name the field that L comes from
        if exc.field != "L":
            raise
        raise ParameterError("ensemble.radius",
                             f"at L = radius^2 = {L:g}, {str(exc).removeprefix('L: ')}") from None
    return max(5.0 * T_B, 20.0 / d.rate(float(np.min(P))), 1.0)


def default_dt(p: Params, dc: cst.DerivedConstants) -> float:
    """Step size scaled to the stiffest linear rate of p, whose constants are ``dc``.

    The base rates (decay, memristive term at the dissipative bound) are
    resolved at 1e-3/rate; the coupling rate m*P only needs accuracy-level
    resolution since it is strongly contracting, so it is resolved at
    5e-2/rate, at the largest P of a lockstep column. A rate that overflows
    raises ParameterError naming its term, or P for m*P.
    """
    eta_max, Q = float(np.max(p.eta)), dc.names()[3]
    memristive = in_range(f"k_max*eta_max*{Q}", lambda: p.k_max * eta_max * dc.bound)
    base = max(float(np.max(p.a)), p.b, memristive)
    return min(1e-3 / base, 5e-2 / in_range("P", lambda: base + p.m * float(np.max(p.P)), "m*P"))


def _tolerance(bound) -> np.ndarray:
    return 1e-6 * (1.0 + np.asarray(bound))


def verify_guarantees(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                      epsilon: float) -> SyncReport:
    """Integrate a seeded ensemble and check every provable bound on it.

    Checks per trajectory: the dissipative envelope at every recorded time,
    the gap envelope from one sample past ball entry, and (Hebbian only) the
    weight ultimate bound. Envelope violations are reported, not raised.

    A Hebbian run keeps two numbers per member of each recorded state, its
    ||g||^2 and its pairwise gap; the weights are checked as each state is
    recorded and then dropped. This is the lockstep run of a column of one P
    (see ``_verify_runs``).
    """
    _validate_one(p)
    d = cst._derive(p)
    return _verify_runs(_p_column(p, [p.P]), cfg, ens, epsilon, d.p_star(epsilon), d)[0]


def _verify_runs(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                 epsilon: float, p_star: float, d: cst._Derivation) -> list:
    """verify_guarantees at every P of p's (len(P), 1, 1) lockstep column, from one run.

    The ensemble is stacked on a leading P axis, a (len(P), count, dim)
    state, which ``integrate`` holds node-major, so the hook sees
    Fortran-ordered states. The field computes each member from its own
    state alone, so each P block is bitwise its own single run.

    Every block is checked from two series per member, ||g||^2 and the
    pairwise gap. For Hebbian parameters the record hook checks the weights
    of every block at once and keeps these two series, with the bits of
    ``norm_sq_series`` and ``pairwise_gap_series``. An mHNN state is (u, rho)
    only, so it is kept whole and reduced by those two after the run, one
    block at a time.
    Returns one report per P, in the column's order.
    """
    P = p.P.ravel().tolist()
    y0 = np.stack([_initial_states(p, ens)] * len(P))
    record = _hebbian_record(p, d, y0.shape) if isinstance(p, HebbianParams) else None
    batch = integrate(_make_rhs(p), y0, cfg, m=p.m, record=record)

    def series(i: int) -> tuple:
        # one P block at a time: only that block's series are held beside the record
        if record is not None:
            return batch.states[:, i, :, 0], batch.states[:, i, :, 1]
        block = Trajectory(times=batch.times, states=batch.states[:, i], m=p.m)
        return block.norm_sq_series(), pairwise_gap_series(block)

    return [_check_series(P_i, batch.times, *series(i), ens, epsilon, p_star, d,
                          record.violations(batch.times, i) if record else {})
            for i, P_i in enumerate(P)]


def _hebbian_record(p: HebbianParams, d: cst._Derivation, shape: tuple):
    """The record hook of a Hebbian lockstep run of (len(P), count, dim) ``shape``,
    which checks the weights itself.

    The hook returns ||g||^2 and the pairwise gap of every member, with the
    bits of ``norm_sq_series`` and ``pairwise_gap_series``, in a (len(P),
    count, 2) buffer of its own that the record copies. It checks each weight
    against the ultimate bound w0^2 + margin, elementwise as w^2 - limit > 0.
    The stepper hands it the Fortran-ordered logical view of its node-major
    block, so the transpose gives the weights as node-major (m*m, count,
    len(P)) rows: they are squared there against the limit tiled to those
    rows, which is the same for every P block (only P differs). Its scratch
    is allocated once. ``record.violations(times, block)`` lists what it
    found in one P block.
    """
    m, lead = p.m, shape[:-1]
    bound = (p.w0**2 + d.weight_margin).ravel()       # row-major, as the state
    excess = np.empty((m * m,) + lead[::-1])          # the shape of the weight rows
    limit = np.broadcast_to((bound + _tolerance(bound))[:, None, None], excess.shape).copy()
    found = []          # (record, (k, member, block), w^2) of each record with a violation
    records = 0
    sq, hi, lo = np.empty(lead + (m + 1,)), np.empty(lead), np.empty(lead)
    series = np.empty((2,) + lead)        # ||g||^2 and the gap, each reduced into a contiguous row
    norm, gap = series
    kept = np.moveaxis(series, 0, -1)
    weights, state, nodes = slice(m + 1, None), (..., slice(m + 1)), (..., slice(m))
    square, subtract, nonzero = np.square, np.subtract, np.nonzero
    add_reduce, max_reduce, min_reduce = np.add.reduce, np.maximum.reduce, np.minimum.reduce

    def record(y):
        nonlocal records
        w = y.T[weights]
        square(w, excess)
        subtract(excess, limit, excess)
        if max_reduce(excess, None) > 0:              # np.nonzero costs more than max
            at = nonzero(excess > 0)
            found.append((records, at, square(w[at])))
        records += 1
        # numpy sums a contiguous last axis pairwise but the node axis of
        # this node-major state term by term, which differs from 9 terms on:
        # the squares are taken in C order, as in norm_sq_series
        square(y[state], sq)
        add_reduce(sq, -1, None, norm)
        # the values of pairwise_gap_series, whose column loop is slower
        # here: the nodes are this state's slow axis
        u = y[nodes]
        max_reduce(u, -1, None, hi)
        min_reduce(u, -1, None, lo)
        subtract(hi, lo, gap)
        return kept

    def violations(times: np.ndarray, block: int) -> dict:
        """{member: its weight violations in P block ``block``, ordered by (t, wi, wj)}."""
        out: dict = {}
        for i, (k, member, blocks), w_sq in found:
            mine = blocks == block
            for j, kj, wj in zip(member[mine], k[mine], w_sq[mine]):
                out.setdefault(int(j), []).append(EnvelopeViolation(
                    int(j), float(times[i]), float(wj), float(bound[kj]), "weight"))
        return out

    record.violations = violations
    return record


def _check_series(P: float, times: np.ndarray, norm_sq: np.ndarray, gaps: np.ndarray,
                  ens: EnsembleSpec, epsilon: float, p_star: float, d: cst._Derivation,
                  weight_bad: dict) -> SyncReport:
    """The checks of verify_guarantees at coupling P on an ensemble's (n, count)
    series of ||g||^2 and pairwise gap at ``times``, with the Hebbian weight
    violations already found record by record, as {member: its violations}.

    The members are checked a chunk at a time, of about SERIES_CHUNK_BYTES
    per series, so the check's temporaries stay near a few chunks whatever
    the ensemble's size. Every check is elementwise or per member, so the
    report does not depend on the chunking.
    """
    dc = d.dc
    rate_theory = d.rate(P)
    residual = d.residual(P)
    rows = np.arange(len(times))[:, None]
    tail = times >= (1.0 - ens.tail_fraction) * times[-1]

    entry_times: list = []
    violations: list = []
    fitted: list = []
    tail_max: list = []
    width = max(1, SERIES_CHUNK_BYTES // max(1, norm_sq[:, :1].nbytes))     # members per chunk
    for start in range(0, ens.count, width):
        norm_c, gaps_c = norm_sq[:, start:start + width], gaps[:, start:start + width]
        gap_sq = gaps_c**2
        # Each check is evaluated for every member of the chunk at once; only
        # flagged members are revisited below for their violation records.
        # (i) dissipative envelope from each member's initial squared norm
        env = cst.dissipative_envelope(dc, times[:, None], norm_c[0])
        dissipative_bad = norm_c > env + _tolerance(env)
        # (ii) gap envelope from each member's first recorded sample inside
        # the ball; rows up to entry are clipped to t = 0 and masked out
        inside = norm_c < dc.bound
        entered = inside.any(axis=0)
        entry = inside.argmax(axis=0)
        since = np.maximum(times[:, None] - times[entry], 0.0)
        genv = cst.envelope_at_rate(rate_theory, residual, since,
                                    gap_sq[entry, np.arange(len(entry))])
        gap_bad = (gap_sq > genv + _tolerance(genv)) & (rows > entry) & entered
        flagged = dissipative_bad.any(axis=0) | gap_bad.any(axis=0)

        for c in range(len(entry)):
            j = start + c
            if entered[c]:
                e = int(entry[c])
                entry_times.append(float(times[e]))
                try:
                    fitted.append(fit_decay_rate(times[e:], gaps_c[e:, c], floor=residual))
                except UndefinedFitError:
                    pass
            else:
                entry_times.append(None)
            if not (flagged[c] or j in weight_bad):
                continue
            for i in np.nonzero(dissipative_bad[:, c])[0]:
                violations.append(EnvelopeViolation(j, float(times[i]), float(norm_c[i, c]),
                                                    float(env[i, c]), "dissipative"))
            for i in np.nonzero(gap_bad[:, c])[0]:
                violations.append(EnvelopeViolation(j, float(times[i]), float(gap_sq[i, c]),
                                                    float(genv[i, c]), "gap"))
            violations.extend(weight_bad.get(j, ()))
        # estimate_sync_degree over the members, from the gaps at hand
        tail_max.append(gaps_c[tail].max())

    deg = float(np.max(tail_max))
    fitted_rate = float(np.median(fitted)) if fitted else None
    verdict = "pass" if (deg < epsilon and not violations) else "fail"
    return SyncReport(deg_estimate=deg, epsilon=epsilon, p_used=P, p_star=p_star,
                      entry_times=entry_times, violations=violations,
                      fitted_rate=fitted_rate, rate_theory=rate_theory, verdict=verdict)


def sweep_coupling(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                   p_values: Sequence[float], epsilon: float) -> list:
    """verify_guarantees per coupling value with a shared seed: one SyncReport
    per value, ordered by P.

    Every coupling value is validated, as one lockstep column, before
    anything is integrated. A fixed-step sweep integrates all of them in one
    lockstep run (see ``_verify_runs``). If that run blows up, and for the
    adaptive method, whose step sizes depend on the whole batch, each value
    runs on its own, as a column of one P, and one that blows up gets a
    report with verdict "error" (see ``SyncReport``).
    """
    if len(p_values) == 0:
        raise ParameterError("p_values", "sweep requires at least one coupling value")
    swept = _p_column(p, p_values)
    swept.validate()
    d = cst._derive(swept)
    p_star = d.p_star(epsilon)
    if cfg.method == "rk4-fixed":
        try:
            return _verify_runs(swept, cfg, ens, epsilon, p_star, d)
        except BlowUpError:
            pass
    reports = []
    for P in swept.P.ravel().tolist():
        try:
            reports += _verify_runs(_p_column(p, [P]), cfg, ens, epsilon, p_star, d)
        except BlowUpError:
            reports.append(SyncReport(deg_estimate=None, epsilon=epsilon, p_used=P,
                                      p_star=p_star, entry_times=[], violations=[],
                                      fitted_rate=None, rate_theory=d.rate(P), verdict="error"))
    return reports
