"""Closed-form dissipativity constants, synchronization thresholds, rates, and envelopes.

Everything here is evaluated exactly in double precision from a parameter set;
no simulation is involved. Free-index coefficients in the source formulas
(gamma_i, k_i) are replaced by their maxima, which only enlarges the bounds and
keeps every inequality valid.

The constants are derived once per parameter set, by ``_derive``: extremes,
dissipativity constants, the heterogeneity term N and the weak-coupling term B.
Only the sync rate and the gap residual depend on the coupling strength P, as
closed forms in P evaluated from that one derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
    hebbian = isinstance(p, HebbianParams)
    w = p.w0 if hebbian else p.w
    W_star = float(np.max(np.abs(w[:, None, :] - w[None, :, :])))
    return Extremes(
        a_min=float(a.min()),
        W_max=float(np.max(np.abs(w))),
        J_max=float(np.max(np.abs(J))),
        gamma_max=float(np.max(np.abs(gamma))),
        a_star=float(np.max(np.abs(a[:, None] - a[None, :]))),
        W_star=W_star,
        eta_star=float(np.max(np.abs(eta[:, None] - eta[None, :]))),
        J_star=float(np.max(np.abs(J[:, None] - J[None, :]))),
        W0_star=W_star if hebbian else 0.0,
    )


def _hebbian_weight_margin(p: HebbianParams) -> float:
    """lambda_max^2 beta^4 / c_min^2 — additive part of the weight ultimate bound."""
    lam_max = float(np.max(np.abs(p.lam)))
    c_min = float(p.c.min())
    beta = p.beta_max
    return lam_max**2 * beta**4 / c_min**2


def derive_constants(p: Params) -> DerivedConstants:
    """Scaling constant, forcing constant, dissipation rate, and ultimate bound."""
    return _dissipation(p, derive_extremes(p))


def _dissipation(p: Params, ex: Extremes) -> DerivedConstants:
    m, b, beta = p.m, p.b, p.beta_max
    if isinstance(p, MhnnParams):
        gap = ex.a_min - p.k
        if gap <= 0:
            raise ParameterError("a", f"assumption 'a_i > k' violated: a_min = {ex.a_min} <= k = {p.k}")
        weight = m * ex.gamma_max**2 / b + b
        forcing = weight * m * (m * ex.W_max * beta + ex.J_max)**2 / gap**2
        model = "mhnn"
    else:
        gap = ex.a_min - 0.5 * p.k_max * p.eta_min**2
        if gap <= 0:
            raise ParameterError(
                "a", f"assumption 'a > (1/2) k eta^2' violated: "
                     f"a_min = {ex.a_min} <= (1/2) k_max eta_min^2 = {0.5 * p.k_max * p.eta_min**2}")
        weight = m * ex.gamma_max**2 / b + 0.5 * b
        S = math.sqrt(1.0 + _hebbian_weight_margin(p))
        forcing = weight * (ex.J_max + m * beta * S)**2 / gap**2
        model = "hebbian"
    scale = weight / gap
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


@dataclass(frozen=True)
class _Derivation:
    """The closed forms of one parameter set that do not depend on P.

    rate(P) = decay + gain*P/B and residual(P) = numerator/(decay*B + m*P),
    with numerator = N*B. B is the weak-coupling sigmoid term, else 1.0; gain
    is 1 for linear mHNN coupling, else m. Multiplying or dividing by 1.0 is
    exact, so each form is bitwise the per-model formula.
    """

    dc: DerivedConstants
    weight_margin: float  # Hebbian weight-bound margin, 0.0 for the mHNN
    m: int
    decay: float
    gain: int
    B: float
    numerator: float

    def rate(self, P: float) -> float:
        return self.decay + self.gain * P / self.B

    def residual(self, P: float) -> float:
        return self.numerator / (self.decay * self.B + self.m * P)

    def p_star(self, epsilon: float) -> float:
        if not (epsilon > 0):
            raise ParameterError("epsilon", "prescribed gap epsilon must be positive")
        return self.numerator / (self.m * epsilon)


def _derive(p: Params, dc: Optional[DerivedConstants] = None) -> _Derivation:
    """The one derivation for p; ``dc`` stands in for derive_constants(p) when given."""
    ex = derive_extremes(p)
    if dc is None:
        dc = _dissipation(p, ex)
    m, beta, bound = p.m, p.beta_max, dc.bound
    if isinstance(p, HebbianParams):
        margin = _hebbian_weight_margin(p)
        N = (ex.a_star * math.sqrt(bound) + p.k_max * ex.eta_star * bound**1.5
             + 2.0 * m * beta * math.sqrt(1.0 + margin) + ex.J_star)
        return _Derivation(dc, margin, m, decay=ex.a_min - 0.5 * p.k_max * p.eta_min,
                           gain=m, B=1.0, numerator=N)
    N = (m * ex.W_star * beta + ex.a_star * math.sqrt(bound)
         + p.k * ex.eta_star * bound**1.5 + ex.J_star)
    if p.coupling_kind == "linear":
        return _Derivation(dc, 0.0, m, decay=ex.a_min - p.k, gain=1, B=1.0, numerator=N)
    # 1 + exp(r(sqrt(Q) + |V|)): worst-case reciprocal of the sigmoid sum / m
    exponent = p.r * (math.sqrt(bound) + abs(p.V))
    try:
        B = 1.0 + math.exp(exponent)
    except OverflowError:
        raise ParameterError(
            "r", f"r(sqrt(Q) + |V|) = {exponent:.6g} exceeds the exp range, so the "
                 "weak-coupling threshold overflows; reduce r or |V|") from None
    return _Derivation(dc, 0.0, m, decay=ex.a_min - p.k, gain=m, B=B, numerator=N * B)


def sync_rate(p: Params, dc: DerivedConstants, P: float) -> float:
    """Guaranteed exponential convergence rate of the squared gap at coupling P."""
    return _derive(p, dc).rate(P)


def gap_residual(p: Params, dc: DerivedConstants, P: float) -> float:
    """Asymptotic gap bound R at coupling P; R < epsilon whenever P > p_star(epsilon)."""
    return _derive(p, dc).residual(P)


@dataclass(frozen=True)
class Threshold:
    """Coupling threshold for a prescribed gap, with the rate and residual maps."""

    p_star: float
    rate_at: Callable[[float], float]
    residual_at: Callable[[float], float]


def threshold(p: Params, epsilon: float) -> Threshold:
    """Coupling threshold p_star(epsilon): P > p_star guarantees tail gap < epsilon."""
    d = _derive(p)
    return Threshold(p_star=d.p_star(epsilon), rate_at=d.rate, residual_at=d.residual)


def gap_envelope(p: Params, dc: DerivedConstants, P: float,
                 t_since_entry, gap_at_entry_sq: float):
    """Upper bound on the squared pairwise gap, t_since_entry after ball entry."""
    d = _derive(p, dc)
    return envelope_at_rate(d.rate(P), d.residual(P), t_since_entry, gap_at_entry_sq)


def envelope_at_rate(mu: float, R: float, t_since_entry, gap_at_entry_sq: float):
    """The gap envelope for a sync rate mu and residual R already evaluated at P."""
    t = np.asarray(t_since_entry, dtype=float)
    return np.exp(-mu * t) * gap_at_entry_sq + R**2
