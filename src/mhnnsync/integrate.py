"""Fixed-step RK4 and embedded adaptive RK45 time stepping with recorded trajectories.

Both steppers integrate batched states of shape (*batch, dim) in lockstep,
on the node-major (dim, members) block of y0 (``model.node_major``: a view of
a Fortran-ordered y0, else a copy), framed once per run. A field from
``model`` evaluates it through its block evaluator, bound once per run; any
other right-hand side, like a record hook, is called on its logical view. RK4
takes the same steps for every batch and its stage arithmetic is elementwise,
so a member's result depends only on how the right-hand side treats it. DP5
sizes its steps from the error over the whole batch, squared into a C-ordered
buffer and summed in logical order, so a node-major (Fortran-ordered)
ensemble takes the steps of the same ensemble stored member-major.

DP5 (Dormand-Prince 5(4)) is FSAL, "first same as last": its seventh stage is
evaluated at the new solution and serves as the next step's first stage, also
after a rejected step. A run calls the RHS once to start and then 6 times per
attempted step, accepted or rejected. It steps a copy of y0 in two state
buffers that swap on every accepted step, and its stage arithmetic writes
into buffers allocated once per run. A run that attempts MAX_ADAPTIVE_ATTEMPTS
steps without reaching t_end ends in AttemptLimitError, a BlowUpError: a
stiff system can otherwise need some 10^8 attempts, hours of work.

Each recorded state (the initial one, every record_stride-th accepted step
and the last) passes through a record hook, and the trajectory keeps what the
hook returns: by default the state itself, or a reduction such as the two
numbers per member that verify_guarantees keeps of a Hebbian ensemble. Both
steppers copy each kept value into one record, allocated from the first: RK4's
at its final size, DP5's grown by doubling and trimmed at the end.

Both steppers filter out numpy's overflow and invalid-value warnings: every
accepted state is checked, so a diverging run ends in BlowUpError or
StepSizeUnderflowError with nothing printed. Unlike a numpy errstate context,
which slows every ufunc call, the filter costs nothing until a warning fires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ParameterError, as_integer, logical, node_major

BLOWUP_LIMIT = 1e12

# The most steps a fixed-step run may take; IntegratorConfig.validate rejects more.
MAX_FIXED_STEPS = 10**8

# The most steps, accepted or rejected, an rk45-adaptive run may attempt.
MAX_ADAPTIVE_ATTEMPTS = 10**6

# The records a DP5 run has room for before it first doubles them.
DP5_RECORD_CAPACITY = 64

METHODS = ("rk4-fixed", "rk45-adaptive")


class BlowUpError(RuntimeError):
    """A non-finite or overflowing state was encountered during integration."""

    def __init__(self, t: float):
        super().__init__(f"non-finite or |component| > {BLOWUP_LIMIT:g} state at t = {t:.6g}; "
                         "check parameter assumptions or reduce dt")
        self.t = t


class StepSizeUnderflowError(BlowUpError):
    """The adaptive step size fell below 1e-14 * t_end before a step met the tolerance."""

    def __init__(self, t: float, h: float):
        RuntimeError.__init__(self, f"adaptive step size h = {h:.3g} fell below 1e-14 * t_end "
                                    f"at t = {t:.6g}; the problem is too stiff for the "
                                    "tolerances, or the state is blowing up")
        self.t = t
        self.h = h


class AttemptLimitError(BlowUpError):
    """An adaptive run attempted MAX_ADAPTIVE_ATTEMPTS steps without reaching t_end."""

    def __init__(self, t: float, h: float, attempts: int):
        RuntimeError.__init__(self, f"rk45-adaptive attempted {attempts} steps and reached only "
                                    f"t = {t:.6g}, at step size h = {h:.3g}; the problem is "
                                    "too stiff for the tolerances, or t_end is too long")
        self.t = t
        self.h = h
        self.attempts = attempts


@dataclass
class IntegratorConfig:
    method: str = "rk4-fixed"
    dt: float = 1e-3
    t_end: float = 10.0
    record_stride: int = 1
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def validate(self) -> None:
        """Checks every field; record_stride is kept as an int."""
        if self.method not in METHODS:
            raise ParameterError("integrator.method",
                                 f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (self.dt > 0):
            raise ParameterError("integrator.dt", "step size dt must be positive")
        if not (self.dt < self.t_end < math.inf):
            raise ParameterError("integrator.t_end", "t_end must be finite and exceed dt")
        if self.method == "rk4-fixed" and _fixed_steps(self) > MAX_FIXED_STEPS:
            raise ParameterError("integrator.dt",
                                 f"rk4-fixed would take {_fixed_steps(self):.3g} steps to "
                                 f"t_end = {self.t_end:g} at dt = {self.dt:g}, more than "
                                 f"{MAX_FIXED_STEPS:.0e}; raise dt")
        self.record_stride = as_integer(self.record_stride, "integrator.record_stride")
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
    the row-major weight matrix appended for the Hebbian model. A run with a
    record hook holds what the hook kept, such as two numbers per member.
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
        """Single-trajectory view of member j of a batched run, its batch axes flattened."""
        states = self.states.reshape((len(self.times), self.batch_size, -1))[:, j]
        return Trajectory(times=self.times, states=states, params_digest=self.params_digest,
                          m=self.m, has_weights=self.has_weights)

    def norm_sq_series(self) -> np.ndarray:
        """||g(t)||^2 over the recorded samples (weights excluded)."""
        n = self.m + 1 if self.m else self.states.shape[-1]
        return np.sum(self.states[..., :n]**2, axis=-1)


def _check_finite(y: np.ndarray, t: float) -> None:
    # a NaN propagates through max and min, so it fails the test as well
    if not (y.max() <= BLOWUP_LIMIT and y.min() >= -BLOWUP_LIMIT):
        raise BlowUpError(t)


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau. Row i of _DP_A builds the input of stage i + 2
# from the stages before it. The last row is the 5th-order weights, so stage 7
# is evaluated at the new solution and is the next step's stage 1 (FSAL).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _combine(out, y, h, coeffs, ks, term):
    """out = y + (h*c_1)*k_1 + (h*c_2)*k_2 + ..., added left to right; zero c_j are skipped."""
    base = y
    for c, k in zip(coeffs, ks):
        if c:
            np.multiply(k, h * c, out=term)
            np.add(base, term, out=out)
            base = out


def _fixed_steps(cfg) -> float:
    """Steps of a fixed-step run, as a float so that a tiny dt cannot overflow it."""
    return max(1.0, float(np.ceil(cfg.t_end / cfg.dt - 1e-12)))


class _Record:
    """Times and kept values, copied into arrays allocated from the first kept value.

    A run that outgrows them doubles both in place, and ``arrays`` trims them
    to length. No view of them exists before then, so ``ndarray.resize`` may
    skip its reference check.
    """

    def __init__(self, first, capacity: int):
        first = np.asarray(first)
        self.times, self.n = np.zeros(capacity), 1
        self.states = np.empty((capacity,) + first.shape, dtype=first.dtype)
        self.states[0] = first

    def add(self, t: float, kept) -> None:
        if self.n == len(self.times):
            self.resize(2 * self.n)
        self.times[self.n], self.states[self.n] = t, kept
        self.n += 1

    def arrays(self) -> tuple:
        self.resize(self.n)
        return self.times, self.states

    def resize(self, n: int) -> None:
        for a in (self.times, self.states):
            a.resize((n,) + a.shape[1:], refcheck=False)


def _integrate_rk4(rhs, y0, shape, cfg, record):
    """The record is allocated at its final size: the step count is known."""
    dt, t_end, stride = cfg.dt, cfg.t_end, cfg.record_stride
    n = int(_fixed_steps(cfg))
    rec = _Record(record(logical(y0, shape)), 1 + n // stride + (n % stride != 0))
    y = y0
    for i in range(1, n + 1):
        t_next = i * dt if i < n else t_end
        h = dt if i < n else t_end - (n - 1) * dt
        y = _rk4_step(rhs, y, h)
        _check_finite(y, t_next)
        if i % stride == 0 or i == n:
            rec.add(t_next, record(logical(y, shape)))
    return rec.arrays()


def _integrate_rk45(rhs, y0, shape, cfg, record):
    t_end, stride = cfg.t_end, cfg.record_stride
    t_stop = t_end - 1e-14 * t_end
    t, h, y = 0.0, min(cfg.dt, t_end), y0.copy()    # y0 may view the caller's array
    rec = _Record(record(logical(y, shape)), DP5_RECORD_CAPACITY)
    ks = [rhs(y)] + [None] * 6
    y_new, stage, term, abs_new = (np.empty_like(y0) for _ in range(4))
    sq = np.empty(shape)    # C-ordered: the error sum runs in logical order
    abs_y = np.abs(y0)
    accepted, attempts, max_attempts = 0, 0, MAX_ADAPTIVE_ATTEMPTS
    while t < t_stop:
        if attempts == max_attempts:
            raise AttemptLimitError(t, h, attempts)
        attempts += 1
        h = min(h, t_end - t)
        for i, row in enumerate(_DP_A, 1):
            out = y_new if i == 6 else stage
            _combine(out, y, h, row, ks, term)
            ks[i] = rhs(out)
        err = stage
        _combine(err, y, h, _DP_B4, ks, term)
        np.subtract(y_new, err, out=err)
        np.abs(y_new, out=abs_new)
        scale = term
        np.maximum(abs_y, abs_new, out=scale)
        np.multiply(scale, cfg.rel_tol, out=scale)
        np.add(scale, cfg.abs_tol, out=scale)
        np.divide(err, scale, out=err)
        np.square(logical(err, shape), out=sq)
        err_norm = math.sqrt(np.add.reduce(sq, axis=None) / sq.size)
        if err_norm <= 1.0:
            t += h
            y, y_new = y_new, y
            abs_y, abs_new = abs_new, abs_y
            if not abs_y.max() <= BLOWUP_LIMIT:
                raise BlowUpError(t)
            ks[0] = ks[6]
            accepted += 1
            at_end = t >= t_stop
            if accepted % stride == 0 or at_end:
                rec.add(t_end if at_end else t, record(logical(y, shape)))
        factor = 0.9 * (err_norm + 1e-16)**-0.2
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14 * t_end:
            raise StepSizeUnderflowError(t, h)
    return rec.arrays()


def _block_field(rhs, shape: tuple):
    """rhs as a map from node-major block to new node-major block, for states of ``shape``.

    A field from ``model`` is bound once through ``rhs.block``, which returns a
    new block per call; any other callable's result is copied into a new block.
    """
    if hasattr(rhs, "block"):
        return rhs.block(shape[:-1])
    return lambda Y: node_major(np.array(rhs(logical(Y, shape)), dtype=float, order="F"))


def integrate(rhs, s0, cfg: IntegratorConfig, *, params_digest: str = "",
              m: int = 0, has_weights: bool = False, record=None) -> Trajectory:
    """Integrate y' = rhs(y) from the flat or batched state array s0 up to cfg.t_end.

    Records the initial state, every record_stride-th accepted step, and the
    final state at exactly t_end. ``record``, called on each of these states
    in time order, returns what the trajectory keeps of it; by default the
    state itself. Raises BlowUpError on non-finite states.
    """
    cfg.validate()
    y0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if record is None:
        record = lambda y: y
    stepper = _integrate_rk4 if cfg.method == "rk4-fixed" else _integrate_rk45
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered", RuntimeWarning)
        times, states = stepper(_block_field(rhs, y0.shape), node_major(y0), y0.shape, cfg,
                                record)
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
