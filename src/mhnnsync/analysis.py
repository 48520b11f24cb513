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
from .model import HebbianParams, MhnnParams, ParameterError, make_hebbian_rhs, make_mhnn_rhs

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
        if not (self.count >= 1):
            raise ParameterError("ensemble.count", "ensemble count must be >= 1")
        if not (self.radius > 0):
            raise ParameterError("ensemble.radius", "sampling radius must be positive")
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
    return u.max(axis=-1) - u.min(axis=-1)


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
    slope = np.polyfit(t[usable], np.log(g[usable]), 1)[0]
    return float(-slope)


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


def integrate_ensemble(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec) -> Trajectory:
    """Batched trajectory for a seeded ensemble of initial states.

    For the Hebbian model the (u, rho) block is sampled in the ball and every
    member starts from the same initial weight matrix p.w0.
    """
    p.validate()
    ens.validate()
    return integrate(_make_rhs(p), _initial_states(p, ens), cfg, params_digest=p.digest(),
                     m=p.m, has_weights=isinstance(p, HebbianParams))


def default_horizon(p: Params, ens: EnsembleSpec) -> float:
    """max(5*T_B(radius^2), 20/rate(P)): transient decayed by at least e^-20."""
    d = cst._derive(p)
    t_absorb = cst.absorb_time(d.dc, ens.radius**2) if ens.radius > 0 else 0.0
    return max(5.0 * t_absorb, 20.0 / d.rate(p.P), 1.0)


def _tolerance(bound) -> np.ndarray:
    return 1e-6 * (1.0 + np.asarray(bound))


def verify_guarantees(p: Params, cfg: IntegratorConfig, ens: EnsembleSpec,
                      epsilon: float) -> SyncReport:
    """Integrate a seeded ensemble and check every provable bound on it.

    Checks per trajectory: the dissipative envelope at every recorded time,
    the gap envelope from one sample past ball entry, and (Hebbian only) the
    weight ultimate bound. Envelope violations are reported, not raised.
    """
    d = cst._derive(p)
    p_star = d.p_star(epsilon)
    return _check_ensemble(p, integrate_ensemble(p, cfg, ens), ens, epsilon, p_star, d)


def _check_ensemble(p: Params, batch: Trajectory, ens: EnsembleSpec, epsilon: float,
                    p_star: float, d: cst._Derivation) -> SyncReport:
    """The checks of verify_guarantees on the recorded ensemble ``batch`` of p, derived as ``d``."""
    dc = d.dc
    rate_theory = d.rate(p.P)
    residual = d.residual(p.P)
    hebbian = isinstance(p, HebbianParams)

    times = batch.times
    norm_sq = batch.norm_sq_series()           # (n, count)
    gaps = pairwise_gap_series(batch)          # (n, count)

    entry_times: list = []
    violations: list = []
    fitted: list = []
    if hebbian:
        weight_bound = p.w0**2 + d.weight_margin

    for j in range(ens.count):
        ns = norm_sq[:, j]
        # (i) dissipative envelope from the initial squared norm
        env = cst.dissipative_envelope(dc, times, ns[0])
        bad = np.nonzero(ns > env + _tolerance(env))[0]
        for i in bad:
            violations.append(EnvelopeViolation(j, float(times[i]), float(ns[i]),
                                                float(env[i]), "dissipative"))
        # (ii) gap envelope from the first recorded sample inside the ball
        inside = np.nonzero(ns < dc.bound)[0]
        if inside.size:
            e = int(inside[0])
            entry_times.append(float(times[e]))
            genv = cst.envelope_at_rate(rate_theory, residual, times[e:] - times[e],
                                        gaps[e, j]**2)
            bad = np.nonzero(gaps[e + 1:, j]**2 > genv[1:] + _tolerance(genv[1:]))[0]
            for i in bad:
                violations.append(EnvelopeViolation(j, float(times[e + 1 + i]),
                                                    float(gaps[e + 1 + i, j]**2),
                                                    float(genv[1 + i]), "gap"))
            try:
                fitted.append(fit_decay_rate(times[e:], gaps[e:, j], floor=residual))
            except UndefinedFitError:
                pass
        else:
            entry_times.append(None)
        # (iii) Hebbian weight ultimate bound, elementwise
        if hebbian:
            w_sq = batch.states[:, j, p.m + 1:].reshape(-1, p.m, p.m)**2
            excess = w_sq - (weight_bound + _tolerance(weight_bound))
            bad_t, bi, bj = np.nonzero(excess > 0)
            for i, wi, wj in zip(bad_t, bi, bj):
                violations.append(EnvelopeViolation(j, float(times[i]), float(w_sq[i, wi, wj]),
                                                    float(weight_bound[wi, wj]), "weight"))

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
    ``_verify_lockstep``). If that run blows up, and for the adaptive method,
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
    if cfg.method == "rk4-fixed":
        try:
            return [_sweep_row(rep)
                    for rep in _verify_lockstep(swept, cfg, ens, epsilon, p_star, d)]
        except BlowUpError:
            pass
    rows = []
    for q in swept:
        try:
            rows.append(_sweep_row(_check_ensemble(q, integrate_ensemble(q, cfg, ens), ens,
                                                   epsilon, p_star, d)))
        except BlowUpError:
            rows.append(SweepRow(P=q.P, deg_estimate=None, p_star=p_star,
                                 rate_theory=d.rate(q.P), rate_fitted=None, verdict="error"))
    return rows


def _sweep_row(rep: SyncReport) -> SweepRow:
    return SweepRow(P=rep.p_used, deg_estimate=rep.deg_estimate, p_star=rep.p_star,
                    rate_theory=rep.rate_theory, rate_fitted=rep.fitted_rate,
                    verdict=rep.verdict)


def _verify_lockstep(swept: list, cfg: IntegratorConfig, ens: EnsembleSpec,
                     epsilon: float, p_star: float, d: cst._Derivation) -> list:
    """verify_guarantees for parameter sets that differ only in P, from one RK4 run.

    The ensemble is stacked on a leading P axis, a (len(swept), count, dim)
    state, and the RHS takes a (len(swept), 1, 1) column of P. Each block then
    goes through the same BLAS calls, of the same shape, as its own
    verify_guarantees run, so its report is bitwise the same. A flat
    (len(swept) * count, dim) batch would not be: OpenBLAS blocks the rows of
    a matrix product differently by batch size and position.
    """
    first = swept[0]
    column = np.array([q.P for q in swept])[:, None, None]
    y0 = _initial_states(first, ens)
    batch = integrate(_make_rhs(dataclasses.replace(first, P=column)),
                      np.stack([y0] * len(swept)), cfg,
                      m=first.m, has_weights=isinstance(first, HebbianParams))
    return [_check_ensemble(q, dataclasses.replace(batch, states=batch.states[:, i],
                                                   params_digest=q.digest()),
                            ens, epsilon, p_star, d)
            for i, q in enumerate(swept)]
