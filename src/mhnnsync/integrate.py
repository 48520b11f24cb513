"""Fixed-step RK4 and embedded adaptive RK45 time stepping with recorded trajectories.

Both steppers accept batched states of shape (*batch, dim) and integrate
every member in lockstep. RK4 takes the same steps for every batch and its
stage arithmetic is elementwise, so a member's result depends only on how the
right-hand side treats it; DP5 sizes its steps from the error over the whole
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkState, ParameterError

BLOWUP_LIMIT = 1e12

METHODS = ("rk4-fixed", "rk45-adaptive")


class BlowUpError(RuntimeError):
    """A non-finite or overflowing state was encountered during integration."""

    def __init__(self, t: float):
        super().__init__(f"non-finite or |component| > {BLOWUP_LIMIT:g} state at t = {t:.6g}; "
                         "check parameter assumptions or reduce dt")
        self.t = t


@dataclass
class IntegratorConfig:
    method: str = "rk4-fixed"
    dt: float = 1e-3
    t_end: float = 10.0
    record_stride: int = 1
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ParameterError("integrator.method",
                                 f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (self.dt > 0):
            raise ParameterError("integrator.dt", "step size dt must be positive")
        if not (self.t_end > self.dt):
            raise ParameterError("integrator.t_end", "t_end must exceed dt")
        if not (self.record_stride >= 1):
            raise ParameterError("integrator.record_stride", "record_stride must be >= 1")
        for name in ("abs_tol", "rel_tol"):
            tol = getattr(self, name)
            if not (0 < tol < 1):
                raise ParameterError(f"integrator.{name}", "tolerance must lie in (0, 1)")


@dataclass
class Trajectory:
    """Recorded time series: times[i] pairs with states[i] (flat state vectors).

    ``states`` has shape (n_recorded, dim), or (n_recorded, *batch, dim) for
    batched runs. For network states the flat layout is (u_1..u_m, rho) with
    the row-major weight matrix appended for the Hebbian model.
    """

    times: np.ndarray
    states: np.ndarray
    params_digest: str = ""
    m: int = 0
    has_weights: bool = False

    def __len__(self) -> int:
        return len(self.times)

    @property
    def batch_size(self) -> int:
        """Trajectories recorded: the product of the axes between time and state."""
        return int(np.prod(self.states.shape[1:-1]))

    def member(self, j: int) -> "Trajectory":
        """Single-trajectory view of member j of a batched run."""
        states = self.states[:, j, :] if self.states.ndim == 3 else self.states
        return Trajectory(times=self.times, states=states, params_digest=self.params_digest,
                          m=self.m, has_weights=self.has_weights)

    def norm_sq_series(self) -> np.ndarray:
        """||g(t)||^2 over the recorded samples (weights excluded)."""
        n = self.m + 1 if self.m else self.states.shape[-1]
        return np.sum(self.states[..., :n]**2, axis=-1)


def _check_finite(y: np.ndarray, t: float) -> None:
    if not np.all(np.abs(y) <= BLOWUP_LIMIT):
        raise BlowUpError(t)


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(rhs, y, h):
    ks = [rhs(y)]
    for i in range(1, 7):
        yi = y
        for aij, kj in zip(_DP_A[i], ks):
            yi = yi + h * aij * kj
        ks.append(rhs(yi))
    y5 = y
    y4 = y
    for b5, b4, kj in zip(_DP_B5, _DP_B4, ks):
        if b5:
            y5 = y5 + h * b5 * kj
        if b4:
            y4 = y4 + h * b4 * kj
    return y5, y5 - y4


def _integrate_rk4(rhs, y0, cfg):
    dt, t_end, stride = cfg.dt, cfg.t_end, cfg.record_stride
    n = max(1, int(np.ceil(t_end / dt - 1e-12)))
    times = [0.0]
    states = [y0]
    y = y0
    for i in range(1, n + 1):
        t_next = i * dt if i < n else t_end
        h = dt if i < n else t_end - (n - 1) * dt
        y = _rk4_step(rhs, y, h)
        _check_finite(y, t_next)
        if i % stride == 0 or i == n:
            times.append(t_next)
            states.append(y)
    return np.array(times), np.stack(states)


def _integrate_rk45(rhs, y0, cfg):
    t, y = 0.0, y0
    h = min(cfg.dt, cfg.t_end)
    times = [0.0]
    states = [y0]
    accepted = 0
    while t < cfg.t_end - 1e-14 * cfg.t_end:
        h = min(h, cfg.t_end - t)
        y_new, err = _dp_step(rhs, y, h)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale)**2)))
        if err_norm <= 1.0:
            t += h
            y = y_new
            _check_finite(y, t)
            accepted += 1
            at_end = t >= cfg.t_end - 1e-14 * cfg.t_end
            if accepted % cfg.record_stride == 0 or at_end:
                times.append(cfg.t_end if at_end else t)
                states.append(y)
        factor = 0.9 * (err_norm + 1e-16)**-0.2
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14 * cfg.t_end:
            raise BlowUpError(t)
    return np.array(times), np.stack(states)


def integrate(rhs, s0, cfg: IntegratorConfig, *, params_digest: str = "",
              m: int = 0, has_weights: bool = False) -> Trajectory:
    """Integrate y' = rhs(y) from s0 (NetworkState or flat array) up to cfg.t_end.

    Records the initial state, every record_stride-th accepted step, and the
    final state at exactly t_end. Raises BlowUpError on non-finite states.
    """
    cfg.validate()
    if isinstance(s0, NetworkState):
        m = m or len(s0.u)
        has_weights = s0.weights is not None
        y0 = s0.to_vector()
    else:
        y0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if cfg.method == "rk4-fixed":
        times, states = _integrate_rk4(rhs, y0, cfg)
    else:
        times, states = _integrate_rk45(rhs, y0, cfg)
    return Trajectory(times=times, states=states, params_digest=params_digest,
                      m=m, has_weights=has_weights)


def default_dt(p, dc=None) -> float:
    """Step size scaled to the stiffest linear rate.

    The base rates (decay, memristive term) are resolved at 1e-3/rate; the
    coupling rate m*P only needs accuracy-level resolution since it is
    strongly contracting, so it is resolved at 5e-2/rate.
    """
    eta_max = float(np.max(p.eta))
    base = max(float(np.max(p.a)), p.b, p.k_max * eta_max * (dc.bound if dc else 1.0))
    return min(1e-3 / base, 5e-2 / (base + p.m * p.P))
