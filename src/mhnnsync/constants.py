"""Closed-form dissipativity constants, synchronization thresholds, rates, and envelopes.

Everything here is evaluated exactly in double precision from a parameter set;
no simulation is involved. Free-index coefficients in the source formulas
(gamma_i, k_i) are replaced by their maxima, which only enlarges the bounds and
keeps every inequality valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .model import HebbianParams, MhnnParams, ParameterError

Params = Union[MhnnParams, HebbianParams]


@dataclass(frozen=True)
class Extremes:
    """Brute-force extremal statistics of a parameter set.

    Starred quantities are maxima of pairwise differences and control the
    heterogeneity terms of the synchronization threshold.
    """

    a_min: float
    W_max: float
    J_max: float
    gamma_max: float
    a_star: float
    W_star: float
    eta_star: float
    J_star: float
    W0_star: float = 0.0


@dataclass(frozen=True)
class DerivedConstants:
    """Dissipativity constants of one model.

    For the mHNN the fields are (C1, C2, mu, Q); for the Hebbian model they
    are (C3, C4, sigma, G). ``bound`` is the squared-norm ultimate bound of
    the absorbing ball.
    """

    model: str            # "mhnn" | "hebbian"
    scale: float          # C1 or C3
    forcing: float        # C2 or C4
    diss_rate: float      # mu or sigma
    bound: float          # Q or G
    b: float              # memristor decay, kept for envelope/absorb-time evaluation

    def names(self) -> tuple[str, str, str, str]:
        if self.model == "mhnn":
            return ("C1", "C2", "mu", "Q")
        return ("C3", "C4", "sigma", "G")


def derive_extremes(p: Params) -> Extremes:
    """Extremal statistics over all index pairs (vectorized, equals brute force)."""
    a, J, eta, gamma = p.a, p.J, p.eta, p.gamma
    if isinstance(p, HebbianParams):
        w = p.w0
        W0_star = float(np.max(np.abs(w[:, None, :] - w[None, :, :])))
        W_max = float(np.max(np.abs(w)))
        W_star = W0_star
    else:
        w = p.w
        W_max = float(np.max(np.abs(w)))
        W_star = float(np.max(np.abs(w[:, None, :] - w[None, :, :])))
        W0_star = 0.0
    return Extremes(
        a_min=float(a.min()),
        W_max=W_max,
        J_max=float(np.max(np.abs(J))),
        gamma_max=float(np.max(np.abs(gamma))),
        a_star=float(np.max(np.abs(a[:, None] - a[None, :]))),
        W_star=W_star,
        eta_star=float(np.max(np.abs(eta[:, None] - eta[None, :]))),
        J_star=float(np.max(np.abs(J[:, None] - J[None, :]))),
        W0_star=W0_star,
    )


def _hebbian_weight_margin(p: HebbianParams) -> float:
    """lambda_max^2 beta^4 / c_min^2 — additive part of the weight ultimate bound."""
    lam_max = float(np.max(np.abs(p.lam)))
    c_min = float(p.c.min())
    beta = p.beta_max
    return lam_max**2 * beta**4 / c_min**2


def derive_constants(p: Params) -> DerivedConstants:
    """Scaling constant, forcing constant, dissipation rate, and ultimate bound."""
    ex = derive_extremes(p)
    m, b, beta = p.m, p.b, p.beta_max
    if isinstance(p, MhnnParams):
        gap = ex.a_min - p.k
        if gap <= 0:
            raise ParameterError("a", f"assumption 'a_i > k' violated: a_min = {ex.a_min} <= k = {p.k}")
        weight = m * ex.gamma_max**2 / b + b
        scale = weight / gap
        forcing = weight * m * (m * ex.W_max * beta + ex.J_max)**2 / gap**2
        model = "mhnn"
    else:
        gap = ex.a_min - 0.5 * p.k_max * p.eta_min**2
        if gap <= 0:
            raise ParameterError(
                "a", f"assumption 'a > (1/2) k eta^2' violated: "
                     f"a_min = {ex.a_min} <= (1/2) k_max eta_min^2 = {0.5 * p.k_max * p.eta_min**2}")
        weight = m * ex.gamma_max**2 / b + 0.5 * b
        scale = weight / gap
        S = math.sqrt(1.0 + _hebbian_weight_margin(p))
        forcing = weight * (ex.J_max + m * beta * S)**2 / gap**2
        model = "hebbian"
    # mu = b*min(1/scale, 1) written as b/max(scale, 1): same value, and the
    # Q = 1 + forcing*max(scale,1)/(b*min(scale,1)) form avoids a rounding
    # detour through 1/scale
    diss_rate = b / max(scale, 1.0)
    bound = 1.0 + forcing * max(scale, 1.0) / (b * min(scale, 1.0))
    return DerivedConstants(model=model, scale=scale, forcing=forcing,
                            diss_rate=diss_rate, bound=bound, b=b)


def absorb_time(dc: DerivedConstants, L: float) -> float:
    """Time after which every trajectory started with ||g0||^2 <= L stays inside the ball."""
    if not (L > 0):
        raise ParameterError("L", "initial squared-norm bound L must be positive")
    ratio = L * max(dc.scale, 1.0) / min(dc.scale, 1.0)
    return max(0.0, math.log(ratio)) / dc.diss_rate


def dissipative_envelope(dc: DerivedConstants, t: float, g0_norm_sq: float):
    """Upper bound on ||g(t)||^2 given ||g(0)||^2; decays to bound - 1 as t -> inf."""
    ratio = max(dc.scale, 1.0) / min(dc.scale, 1.0)
    return ratio * np.exp(-dc.diss_rate * np.asarray(t, dtype=float)) * g0_norm_sq + (dc.bound - 1.0)


def _weak_B(p: MhnnParams, dc: DerivedConstants) -> float:
    """1 + exp(r(sqrt(Q) + |V|)) — worst-case reciprocal of the sigmoid sum / m."""
    return 1.0 + math.exp(p.r * (math.sqrt(dc.bound) + abs(p.V)))


def _mhnn_N(p: MhnnParams, dc: DerivedConstants) -> float:
    ex = derive_extremes(p)
    Q = dc.bound
    return (p.m * ex.W_star * p.beta_max + ex.a_star * math.sqrt(Q)
            + p.k * ex.eta_star * Q**1.5 + ex.J_star)


def _hebbian_N(p: HebbianParams, dc: DerivedConstants) -> float:
    ex = derive_extremes(p)
    G = dc.bound
    S = math.sqrt(1.0 + _hebbian_weight_margin(p))
    return (ex.a_star * math.sqrt(G) + p.k_max * ex.eta_star * G**1.5
            + 2.0 * p.m * p.beta_max * S + ex.J_star)


def sync_rate(p: Params, dc: DerivedConstants, P: float) -> float:
    """Guaranteed exponential convergence rate of the squared gap at coupling P."""
    ex = derive_extremes(p)
    if isinstance(p, HebbianParams):
        return ex.a_min - 0.5 * p.k_max * p.eta_min + p.m * P
    if p.coupling_kind == "linear":
        return ex.a_min - p.k + P
    return ex.a_min - p.k + p.m * P / _weak_B(p, dc)


def gap_residual(p: Params, dc: DerivedConstants, P: float) -> float:
    """Asymptotic gap bound R at coupling P; R < epsilon whenever P > p_star(epsilon)."""
    if isinstance(p, HebbianParams):
        return _hebbian_N(p, dc) / sync_rate(p, dc, P)
    ex = derive_extremes(p)
    N = _mhnn_N(p, dc)
    if p.coupling_kind == "linear":
        return N / (ex.a_min - p.k + p.m * P)
    B = _weak_B(p, dc)
    return N * B / ((ex.a_min - p.k) * B + p.m * P)


@dataclass(frozen=True)
class Threshold:
    """Coupling threshold for a prescribed gap, with the rate and residual maps."""

    p_star: float
    rate_at: Callable[[float], float]
    residual_at: Callable[[float], float]


def threshold(p: Params, epsilon: float) -> Threshold:
    """Coupling threshold p_star(epsilon): P > p_star guarantees tail gap < epsilon."""
    if not (epsilon > 0):
        raise ParameterError("epsilon", "prescribed gap epsilon must be positive")
    dc = derive_constants(p)
    if isinstance(p, HebbianParams):
        numerator = _hebbian_N(p, dc)
    else:
        numerator = _mhnn_N(p, dc)
        if p.coupling_kind == "weak-sigmoidal":
            numerator *= _weak_B(p, dc)
    p_star = numerator / (p.m * epsilon)
    return Threshold(
        p_star=p_star,
        rate_at=lambda P: sync_rate(p, dc, P),
        residual_at=lambda P: gap_residual(p, dc, P),
    )


def gap_envelope(p: Params, dc: DerivedConstants, P: float,
                 t_since_entry, gap_at_entry_sq: float):
    """Upper bound on the squared pairwise gap, t_since_entry after ball entry."""
    return envelope_at_rate(sync_rate(p, dc, P), gap_residual(p, dc, P),
                            t_since_entry, gap_at_entry_sq)


def envelope_at_rate(mu: float, R: float, t_since_entry, gap_at_entry_sq: float):
    """The gap envelope for a sync rate mu and residual R already evaluated at P."""
    t = np.asarray(t_since_entry, dtype=float)
    return np.exp(-mu * t) * gap_at_entry_sq + R**2
