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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import constants as cst
from .integrate import BlowUpError, IntegratorConfig, Trajectory, integrate
from .model import (HebbianParams, MhnnParams, ParameterError, as_integer, make_hebbian_rhs,
                    make_mhnn_rhs)

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
        """Checks every field; count and seed are kept as ints."""
        self.count = as_integer(self.count, "ensemble.count")
        if not (self.count >= 1):
            raise ParameterError("ensemble.count", "ensemble count must be >= 1")
        if not (0 < self.radius < math.inf):
            raise ParameterError("ensemble.radius", "sampling radius must be positive and finite")
        self.seed = as_integer(self.seed, "ensemble.seed")
        if not (self.seed >= 0):
            raise ParameterError("ensemble.seed", "seed must be a nonnegative integer")
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
    deg_estimate: float
    epsilon: float
    p_used: float
    p_star: float
    entry_times: list
    violations: list
    fitted_rate: Optional[float]
    rate_theory: float
    verdict: str     # "pass" | "fail"

    def to_dict(self) -> dict:
        return {
            "deg_estimate": self.deg_estimate,
            "epsilon": self.epsilon,
            "p_used": self.p_used,
            "p_star": self.p_star,
            "entry_times": self.entry_times,
            "violations": [dataclasses.asdict(v) for v in self.violations],
            "fitted_rate": self.fitted_rate,
            "rate_theory": self.rate_theory,
            "verdict": self.verdict,
        }


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


def _initial_states(p: Params, ens: EnsembleSpec) -> np.ndarray:
    """(count, dim) seeded initial states; Hebbian members all start from the weights p.w0."""
    ball = sample_initial_states(ens, p.m + 1)
    if isinstance(p, HebbianParams):
        w0 = np.broadcast_to(p.w0.reshape(1, -1), (ens.count, p.m * p.m))
        return np.concatenate([ball, w0], axis=1)
    return ball


def integrate_ensemble(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec, *,
                       record=None) -> Trajectory:
    """Batched trajectory for a seeded ensemble of initial states.

    For the Hebbian model the (u, rho) block is sampled in the ball and every
    member starts from the same initial weight matrix p.w0. ``record`` is
    passed on to ``integrate``; a run with a record hook keeps what the hook
    returns, so its trajectory is marked as holding no weights. ``integrate``
    holds the ensemble node-major for the run; the hook and the record see
    the logical (count, dim) shape.
    """
    p.validate()
    ens.validate()
    return integrate(_make_rhs(p), _initial_states(p, ens), cfg,
                     params_digest=p.digest(), m=p.m,
                     has_weights=isinstance(p, HebbianParams) and record is None,
                     record=record)


def default_horizon(p: Params, ens: EnsembleSpec) -> float:
    """max(5*T_B(radius^2), 20/rate(P)): transient decayed by at least e^-20."""
    return _horizon(cst._derive(p), p.P, ens)


def _horizon(d: cst._Derivation, P: float, ens: EnsembleSpec) -> float:
    """default_horizon at coupling P of the parameter set derived as ``d``."""
    t_absorb = cst.absorb_time(d.dc, ens.radius**2) if ens.radius > 0 else 0.0
    return max(5.0 * t_absorb, 20.0 / d.rate(P), 1.0)


def _tolerance(bound) -> np.ndarray:
    return 1e-6 * (1.0 + np.asarray(bound))


class _WeightCheck:
    """The Hebbian weight ultimate bound, checked elementwise as w^2 - limit > 0.

    Called with the recorded weights in time order: a (count, m*m) block for
    one record or a (n_rec, count, m*m) block for several. Keeps the record
    index, member, flat weight index wi*m + wj and w^2 of every violation, so
    the weights themselves need not be kept.
    """

    def __init__(self, p: HebbianParams, d: cst._Derivation):
        self.bound = (p.w0**2 + d.weight_margin).ravel()   # row-major, as the state
        self.limit = self.bound + _tolerance(self.bound)
        self.records = 0
        self.found = []

    def __call__(self, w: np.ndarray) -> None:
        # flat (n_rec, count, m*m): a (..., m, m) view makes numpy's loops
        # several times slower on these small blocks
        w = w.reshape(-1, *w.shape[-2:])
        excess = np.square(w)
        np.subtract(excess, self.limit, out=excess)
        if excess.max() > 0:                      # np.nonzero costs more than max
            rec, member, k = np.nonzero(excess > 0)
            self.found.append((rec + self.records, member, k, np.square(w[rec, member, k])))
        self.records += len(w)

    def violations(self, times: np.ndarray) -> dict:
        """{member: its weight violations, ordered by (t, wi, wj)}."""
        out: dict = {}
        for found in self.found:
            for i, j, k, w_sq in zip(*found):
                out.setdefault(int(j), []).append(EnvelopeViolation(
                    int(j), float(times[i]), float(w_sq), float(self.bound[k]), "weight"))
        return out


def verify_guarantees(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                      epsilon: float) -> SyncReport:
    """Integrate a seeded ensemble and check every provable bound on it.

    Checks per trajectory: the dissipative envelope at every recorded time,
    the gap envelope from one sample past ball entry, and (Hebbian only) the
    weight ultimate bound. Envelope violations are reported, not raised.

    A Hebbian run keeps two numbers per member of each recorded state, its
    ||g||^2 and its pairwise gap; the weights are checked as each state is
    recorded and then dropped.
    """
    p.validate()
    d = cst._derive(p)
    return _verify_runs([p], cfg, ens, epsilon, d.p_star(epsilon), d)[0]


def _verify_runs(swept: list, cfg: IntegratorConfig, ens: EnsembleSpec,
                 epsilon: float, p_star: float, d: cst._Derivation) -> list:
    """verify_guarantees for parameter sets that differ only in P, from one run.

    One parameter set runs as a (count, dim) ensemble. Several run in
    lockstep: the ensemble is stacked on a leading P axis, a (len(swept),
    count, dim) state, and the RHS takes a (len(swept), 1, 1) column of P.
    ``integrate`` holds either node-major, so the hook sees Fortran-ordered
    states. The field computes each member from its own state alone, so each
    block is bitwise its own single run.

    Every block is checked from two series per member, ||g||^2 and the
    pairwise gap. For Hebbian parameters the record hook checks each block's
    weights and keeps these two series, with the bits of ``norm_sq_series``
    and ``pairwise_gap_series``. An mHNN state is (u, rho) only, so it is
    kept whole and reduced by those two after the run. Returns one report
    per parameter set, in the order of ``swept``.
    """
    first = swept[0]
    y0 = _initial_states(first, ens)
    if len(swept) > 1:
        y0 = np.stack([y0] * len(swept))
        first = dataclasses.replace(first, P=np.array([q.P for q in swept])[:, None, None])
    record, checks = None, [None] * len(swept)
    if isinstance(first, HebbianParams):
        checks = [_WeightCheck(q, d) for q in swept]
        m = first.m

        def record(y):
            for check, w in zip(checks, y[..., m + 1:].reshape(-1, ens.count, m * m)):
                check(w)
            kept = np.empty(y.shape[:-1] + (2,))
            # the bits of norm_sq_series on the C-ordered record: numpy sums a
            # contiguous last axis pairwise but the node axis of this
            # node-major state term by term, which differs from 9 terms on
            kept[..., 0] = np.sum(np.square(y[..., :m + 1], order="C"), axis=-1)
            # the values of pairwise_gap_series, whose column loop is slower
            # here: the nodes are this state's slow axis
            u = y[..., :m]
            np.subtract(np.maximum.reduce(u, axis=-1), np.minimum.reduce(u, axis=-1),
                        out=kept[..., 1])
            return kept

    batch = integrate(_make_rhs(first), y0, cfg, m=first.m, record=record)
    if record is None:
        series = batch.norm_sq_series(), pairwise_gap_series(batch)
    else:
        series = np.moveaxis(batch.states, -1, 0)
    norm_sq, gaps = (s.reshape(len(batch), len(swept), ens.count) for s in series)
    return [_check_series(q, batch.times, norm_sq[:, i], gaps[:, i],
                          ens, epsilon, p_star, d, check)
            for i, (q, check) in enumerate(zip(swept, checks))]


def _check_ensemble(p: Params, batch: Trajectory, ens: EnsembleSpec, epsilon: float,
                    p_star: float, d: cst._Derivation,
                    weights: Optional[_WeightCheck] = None) -> SyncReport:
    """The checks of verify_guarantees on the recorded ensemble ``batch`` of p, derived as ``d``.

    For Hebbian p, ``weights`` is a weight check already fed with every
    recorded state of ``batch``. Without it the weights are read from
    ``batch``, which must then hold full states. verify does not reach
    this; the tests use it as the full-record reference.
    """
    if isinstance(p, HebbianParams) and weights is None:
        # one record at a time, as verify feeds it: a whole-batch call
        # would build an (n, count, m*m) square beside the record
        weights = _WeightCheck(p, d)
        for y in batch.states:
            weights(y[..., p.m + 1:])
    return _check_series(p, batch.times, batch.norm_sq_series(), pairwise_gap_series(batch),
                         ens, epsilon, p_star, d, weights)


def _check_series(p: Params, times: np.ndarray, norm_sq: np.ndarray, gaps: np.ndarray,
                  ens: EnsembleSpec, epsilon: float, p_star: float, d: cst._Derivation,
                  weights: Optional[_WeightCheck]) -> SyncReport:
    """The checks of verify_guarantees on an ensemble's (n, count) series of
    ||g||^2 and pairwise gap at ``times``, plus, when given, the weight check
    fed with every recorded state."""
    dc = d.dc
    rate_theory = d.rate(p.P)
    residual = d.residual(p.P)

    gap_sq = gaps**2
    rows = np.arange(len(times))[:, None]
    members = np.arange(ens.count)

    # Each check is evaluated for every member at once; only flagged members
    # are revisited below for their violation records.
    # (i) dissipative envelope from each member's initial squared norm
    env = cst.dissipative_envelope(dc, times[:, None], norm_sq[0])
    dissipative_bad = norm_sq > env + _tolerance(env)
    # (ii) gap envelope from each member's first recorded sample inside the ball;
    # rows up to entry are clipped to t = 0 and masked out
    inside = norm_sq < dc.bound
    entered = inside.any(axis=0)
    entry = inside.argmax(axis=0)
    since = np.maximum(times[:, None] - times[entry], 0.0)
    genv = cst.envelope_at_rate(rate_theory, residual, since, gap_sq[entry, members])
    gap_bad = (gap_sq > genv + _tolerance(genv)) & (rows > entry) & entered
    flagged = dissipative_bad.any(axis=0) | gap_bad.any(axis=0)
    # (iii) Hebbian weight ultimate bound
    weight_bad = weights.violations(times) if weights is not None else {}
    flagged[list(weight_bad)] = True

    entry_times: list = []
    violations: list = []
    fitted: list = []
    for j in range(ens.count):
        if entered[j]:
            e = int(entry[j])
            entry_times.append(float(times[e]))
            try:
                fitted.append(fit_decay_rate(times[e:], gaps[e:, j], floor=residual))
            except UndefinedFitError:
                pass
        else:
            entry_times.append(None)
        if not flagged[j]:
            continue
        for i in np.nonzero(dissipative_bad[:, j])[0]:
            violations.append(EnvelopeViolation(j, float(times[i]), float(norm_sq[i, j]),
                                                float(env[i, j]), "dissipative"))
        for i in np.nonzero(gap_bad[:, j])[0]:
            violations.append(EnvelopeViolation(j, float(times[i]), float(gap_sq[i, j]),
                                                float(genv[i, j]), "gap"))
        violations.extend(weight_bad.get(j, ()))

    # estimate_sync_degree over the members, from the gaps at hand
    tail = times >= (1.0 - ens.tail_fraction) * times[-1]
    deg = float(gaps[tail].max())
    fitted_rate = float(np.median(fitted)) if fitted else None
    verdict = "pass" if (deg < epsilon and not violations) else "fail"
    return SyncReport(deg_estimate=deg, epsilon=epsilon, p_used=p.P, p_star=p_star,
                      entry_times=entry_times, violations=violations,
                      fitted_rate=fitted_rate, rate_theory=rate_theory, verdict=verdict)


@dataclass
class SweepRow:
    P: float
    deg_estimate: Optional[float]
    p_star: float
    rate_theory: float
    rate_fitted: Optional[float]
    verdict: str     # "pass" | "fail" | "error"


def sweep_coupling(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                   p_values: Sequence[float], epsilon: float) -> list:
    """verify_guarantees per coupling value with a shared seed, rows ordered by P.

    Every coupling value is validated before anything is integrated. A
    fixed-step sweep integrates all of them in one lockstep run (see
    ``_verify_runs``). If that run blows up, and for the adaptive method,
    whose step sizes depend on the whole batch, each value runs on its own and
    one that blows up gets an "error" row.
    """
    if len(p_values) == 0:
        raise ParameterError("p_values", "sweep requires at least one coupling value")
    swept = [dataclasses.replace(p, P=float(P)) for P in sorted(p_values)]
    for q in swept:
        q.validate()
    d = cst._derive(swept[0])
    p_star = d.p_star(epsilon)
    if cfg.method == "rk4-fixed" and len(swept) > 1:
        try:
            return [_sweep_row(rep) for rep in _verify_runs(swept, cfg, ens, epsilon, p_star, d)]
        except BlowUpError:
            pass
    rows = []
    for q in swept:
        try:
            rows.append(_sweep_row(_verify_runs([q], cfg, ens, epsilon, p_star, d)[0]))
        except BlowUpError:
            rows.append(SweepRow(P=q.P, deg_estimate=None, p_star=p_star,
                                 rate_theory=d.rate(q.P), rate_fitted=None, verdict="error"))
    return rows


def _sweep_row(rep: SyncReport) -> SweepRow:
    return SweepRow(P=rep.p_used, deg_estimate=rep.deg_estimate, p_star=rep.p_star,
                    rate_theory=rep.rate_theory, rate_fitted=rep.fitted_rate,
                    verdict=rep.verdict)
