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

from .model import HebbianParams, MhnnParams, ParameterError, in_range

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

    _NAMES = {"mhnn": ("C1", "C2", "mu", "Q"), "hebbian": ("C3", "C4", "sigma", "G")}

    def names(self) -> tuple[str, str, str, str]:
        return self._NAMES[self.model]


def derive_extremes(p: Params) -> Extremes:
    """Extremal statistics; each starred max_ij |x_i - x_j| is max - min, per column for w.

    A rounded difference grows with x_i and falls with x_j, so on finite input
    this is bitwise the maximum over all index pairs, with no m^3 temporary.
    """
    a, J, eta, gamma = p.a, p.J, p.eta, p.gamma
    hebbian = isinstance(p, HebbianParams)
    w = p.w0 if hebbian else p.w
    W_star = float(np.max(np.ptp(w, axis=0)))
    return Extremes(
        a_min=float(a.min()),
        W_max=float(np.max(np.abs(w))),
        J_max=float(np.max(np.abs(J))),
        gamma_max=float(np.max(np.abs(gamma))),
        a_star=float(np.ptp(a)),
        W_star=W_star,
        eta_star=float(np.ptp(eta)),
        J_star=float(np.ptp(J)),
        W0_star=W_star if hebbian else 0.0,
    )


def _hebbian_weight_margin(p: HebbianParams) -> float:
    """lambda_max^2 beta^4 / c_min^2 — additive part of the weight ultimate bound."""
    lam_max, c_min, beta = float(np.max(np.abs(p.lam))), float(p.c.min()), p.beta_max
    return in_range("weight_margin", lambda: lam_max**2 * beta**4 / c_min**2)


def derive_constants(p: Params) -> DerivedConstants:
    """Scaling constant, forcing constant, dissipation rate, and ultimate bound."""
    return _dissipation(p, derive_extremes(p))


def _dissipation(p: Params, ex: Extremes) -> DerivedConstants:
    """The constants of p, each positive and finite (the forcing constant may be
    0), else ParameterError naming the first that leaves the double range."""
    m, b, beta = p.m, p.b, p.beta_max
    gap, _ = p.assumption_margins()
    model = "mhnn" if isinstance(p, MhnnParams) else "hebbian"
    names = DerivedConstants._NAMES[model]
    C1, C2, _, Q = names
    if model == "mhnn":
        weight = in_range(C1, lambda: m * ex.gamma_max**2 / b + b)
        forcing = in_range(C2, lambda: weight * m * (m * ex.W_max * beta + ex.J_max)**2 / gap**2)
    else:
        weight = in_range(C1, lambda: m * ex.gamma_max**2 / b + 0.5 * b)
        S = math.sqrt(1.0 + _hebbian_weight_margin(p))
        forcing = in_range(C2, lambda: weight * (ex.J_max + m * beta * S)**2 / gap**2)
    scale = weight / gap
    # mu = b*min(1/scale, 1) written as b/max(scale, 1): same value, and the
    # Q = 1 + forcing*max(scale,1)/(b*min(scale,1)) form avoids a rounding
    # detour through 1/scale
    diss_rate = b / max(scale, 1.0)
    bound = in_range(Q, lambda: 1.0 + forcing * max(scale, 1.0) / (b * min(scale, 1.0)))
    # a float product or quotient overflows to inf, or underflows to 0, without raising
    for name, value in zip(names, (scale, forcing, diss_rate, bound)):
        if not (0 < value < math.inf or (name == C2 and value == 0)):
            raise ParameterError(name, f"{name} leaves the double range")
    return DerivedConstants(model=model, scale=scale, forcing=forcing,
                            diss_rate=diss_rate, bound=bound)


def absorb_time(dc: DerivedConstants, L: float) -> float:
    """Time after which every trajectory started with ||g0||^2 <= L stays inside the ball."""
    if not (L > 0):
        raise ParameterError("L", "initial squared-norm bound L must be positive")
    ratio = L * max(dc.scale, 1.0) / min(dc.scale, 1.0)
    return in_range(dc.names()[2], lambda: max(0.0, math.log(ratio)) / dc.diss_rate, "T_B")


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
    exact, so each form is bitwise the per-model formula. ``N_terms`` names
    the terms of the heterogeneity term N, in the order they are added.
    """

    dc: DerivedConstants
    weight_margin: float  # Hebbian weight-bound margin, 0.0 for the mHNN
    m: int
    decay: float
    gain: int
    B: float
    N: float
    N_terms: dict
    numerator: float

    def rate(self, P: float) -> float:
        return self.decay + self.gain * P / self.B

    def residual(self, P: float) -> float:
        return self.numerator / (self.decay * self.B + self.m * P)

    def p_star(self, epsilon: float) -> float:
        if not (0 < epsilon < math.inf):
            raise ParameterError("epsilon", "prescribed gap epsilon must be positive and finite")
        p_star = self.numerator / (self.m * epsilon)
        if not math.isfinite(p_star):
            raise ParameterError(
                "epsilon", f"p_star = N*B/(m*epsilon) overflows at epsilon = {epsilon:g}; "
                           "raise epsilon" + (" or reduce r" if self.B != 1.0 else ""))
        return p_star


def _derive(p: Params, dc: Optional[DerivedConstants] = None) -> _Derivation:
    """The one derivation for p; ``dc`` stands in for derive_constants(p) when given."""
    ex = derive_extremes(p)
    if dc is None:
        dc = _dissipation(p, ex)
    m, beta, bound, Q = p.m, p.beta_max, dc.bound, dc.names()[3]
    _, decay = p.assumption_margins()
    bound15 = in_range(Q, lambda: bound**1.5, f"{Q}^1.5")
    if isinstance(p, HebbianParams):
        margin = _hebbian_weight_margin(p)
        terms = {"a_star*sqrt(G)": ex.a_star * math.sqrt(bound),
                 "k_max*eta_star*G^1.5": p.k_max * ex.eta_star * bound15,
                 "2*m*beta_max*sqrt(1+weight_margin)": 2.0 * m * beta * math.sqrt(1.0 + margin),
                 "J_star": ex.J_star}
        N = sum(terms.values())
        return _Derivation(dc, margin, m, decay=decay, gain=m, B=1.0, N=N, N_terms=terms,
                           numerator=N)
    terms = {"m*W_star*beta_max": m * ex.W_star * beta,
             "a_star*sqrt(Q)": ex.a_star * math.sqrt(bound),
             "k*eta_star*Q^1.5": p.k * ex.eta_star * bound15,
             "J_star": ex.J_star}
    N = sum(terms.values())
    if p.coupling_kind == "linear":
        return _Derivation(dc, 0.0, m, decay=decay, gain=1, B=1.0, N=N, N_terms=terms,
                           numerator=N)
    # 1 + exp(r(sqrt(Q) + |V|)): worst-case reciprocal of the sigmoid sum / m
    exponent = p.r * (math.sqrt(bound) + abs(p.V))
    try:
        B = 1.0 + math.exp(exponent)
    except OverflowError:
        raise ParameterError(
            "r", f"r(sqrt(Q) + |V|) = {exponent:.6g} exceeds the exp range, so the "
                 "weak-coupling threshold overflows; reduce r or |V|") from None
    return _Derivation(dc, 0.0, m, decay=decay, gain=m, B=B, N=N, N_terms=terms,
                       numerator=N * B)


def sync_rate(p: Params, dc: DerivedConstants, P: float) -> float:
    """Guaranteed exponential convergence rate of the squared gap at coupling P."""
    return _derive(p, dc).rate(P)


@dataclass(frozen=True)
class Threshold:
    """Coupling threshold for a prescribed gap, with the rate and residual maps.

    p_star = N*B/(m*epsilon): N is the sum of the named ``N_terms``, added in
    their order, and B the weak-coupling sigmoid term, 1.0 without it.
    """

    p_star: float
    rate_at: Callable[[float], float]
    residual_at: Callable[[float], float]
    N: float
    N_terms: dict
    B: float


def threshold(p: Params, epsilon: float) -> Threshold:
    """Coupling threshold p_star(epsilon): P > p_star guarantees tail gap < epsilon."""
    d = _derive(p)
    return Threshold(p_star=d.p_star(epsilon), rate_at=d.rate, residual_at=d.residual,
                     N=d.N, N_terms=d.N_terms, B=d.B)


def envelope_at_rate(mu: float, R: float, t_since_entry, gap_at_entry_sq: float):
    """The gap envelope for a sync rate mu and residual R already evaluated at P."""
    t = np.asarray(t_since_entry, dtype=float)
    return np.exp(-mu * t) * gap_at_entry_sq + R**2
