"""Fixed-step RK4 and embedded adaptive RK45 time stepping with recorded trajectories.

Both steppers integrate batched states of shape (*batch, dim) in lockstep,
on the node-major (dim, members) block of y0 (``model.node_major``: a view of
a Fortran-ordered y0, else a copy), framed once per run. Every buffer a run
steps in is a block allocated once per run, and the right-hand side writes
into them through evaluators bound once per (state, derivative) buffer pair:
a field from ``model`` through its binder ``rhs.block(lead)``, which makes
its views and scratch rows once, and any other right-hand side through an
adapter that calls it on the state's logical view and copies its result in. A
record hook is called on the logical view of the state, made once per state
buffer.
Each scalar a stepper passes to numpy is a 0-d array made once per run, or
refreshed in place, because numpy dispatches a Python number more slowly
than a 0-d array; the ufuncs are bound to locals. RK4 takes the same steps for
every batch and its stage arithmetic is elementwise, so a member's result
depends only on how the right-hand side treats it. DP5 sizes its steps from
the error over the whole batch, squared into a C-ordered buffer and summed in
logical order, so a node-major (Fortran-ordered) ensemble takes the steps of
the same ensemble stored member-major.

RK4 steps a copy of y0 in place, with four stage blocks, a stage input and
one scratch block; it keeps the operation order of the textbook step, so its
bits are those of y + (h/6)*(k1 + 2*k2 + 2*k3 + k4) with fresh arrays. Its
h/2, h, h/6 and 2 are 0-d arrays, refilled only for a shortened last step.
Its finite check after each step is one dot product of a flat view of the
state with itself: a sum of squares at most BLOWUP_LIMIT**2/2 bounds every
|y_i| by BLOWUP_LIMIT/sqrt(2), so the state passes. A larger sum, NaN or inf
falls back to the exact test, ``_check_finite``, so a run raises BlowUpError
at the same step and t as with the exact test alone. DP5 checks with one
maximum over the |y| that its error scale takes anyway.

DP5 (Dormand-Prince 5(4)) is FSAL, "first same as last": its seventh stage is
evaluated at the new solution and serves as the next step's first stage, also
after a rejected step. A run calls the RHS once to start and then 6 times per
attempted step, accepted or rejected. It steps a copy of y0 in two state
buffers that swap on every accepted step, together with the first and last
stage blocks, the evaluators bound to them and the state's logical view, and
its stage arithmetic writes into buffers allocated once per run. Each
attempt writes h times the 26 nonzero tableau entries into one buffer with
one multiply, and every stage input reads 0-d views of it. A run that attempts
MAX_ADAPTIVE_ATTEMPTS steps without reaching t_end ends in AttemptLimitError,
a BlowUpError: a stiff system can otherwise need some 10^8 attempts, hours of
work.

Each recorded state (the initial one, every record_stride-th accepted step
and the last) passes through a record hook, and the trajectory keeps what the
hook returns: by default the state itself, or a reduction such as the two
numbers per member that verify_guarantees keeps of a Hebbian ensemble. Both
steppers copy each kept value into one record, allocated from the first: RK4's
at its final size, DP5's grown by half and trimmed at the end.

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

from .model import ParameterError, as_integer, as_real, c_dot, logical, node_major

BLOWUP_LIMIT = 1e12

# The most steps a fixed-step run may take; IntegratorConfig.validate rejects more.
MAX_FIXED_STEPS = 10**8

# The most steps, accepted or rejected, an rk45-adaptive run may attempt.
MAX_ADAPTIVE_ATTEMPTS = 10**6

# The records a DP5 run has room for before it first grows them.
DP5_RECORD_CAPACITY = 64

# The bytes of the squares that Trajectory.norm_sq_series holds at once.
SERIES_CHUNK_BYTES = 2**20

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
        """Checks every field; record_stride is kept as an int, dt, t_end and
        the tolerances as floats."""
        if self.method not in METHODS:
            raise ParameterError("integrator.method",
                                 f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("dt", "t_end", "abs_tol", "rel_tol"):
            setattr(self, name, as_real(getattr(self, name), f"integrator.{name}"))
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
    m: int = 0

    def __len__(self) -> int:
        return len(self.times)

    @property
    def batch_size(self) -> int:
        """Trajectories recorded: the product of the axes between time and state."""
        return int(np.prod(self.states.shape[1:-1]))

    def member(self, j: int) -> "Trajectory":
        """Single-trajectory view of member j of a batched run, its batch axes flattened."""
        states = self.states.reshape((len(self.times), self.batch_size, -1))[:, j]
        return Trajectory(times=self.times, states=states, m=self.m)

    def norm_sq_series(self) -> np.ndarray:
        """||g(t)||^2 over the recorded samples (weights excluded).

        The squares are taken a chunk of records at a time, so the temporary
        stays near SERIES_CHUNK_BYTES whatever the record's length; each row
        is summed on its own, so the values are those of one whole-record sum.
        """
        n = self.m + 1 if self.m else self.states.shape[-1]
        u_rho = self.states[..., :n]
        out = np.empty(u_rho.shape[:-1])
        rows = max(1, SERIES_CHUNK_BYTES // max(1, u_rho[:1].nbytes))
        for i in range(0, len(u_rho), rows):
            np.sum(np.square(u_rho[i:i + rows]), axis=-1, out=out[i:i + rows])
        return out


# A sum of squares at most this large bounds every |y_i| by BLOWUP_LIMIT/sqrt(2).
_SAFE_NORM_SQ = 0.5 * BLOWUP_LIMIT**2


def _check_finite(y: np.ndarray, t: float) -> None:
    # a NaN propagates through max and min, so it fails the test as well
    if not (np.maximum.reduce(y, None) <= BLOWUP_LIMIT
            and np.minimum.reduce(y, None) >= -BLOWUP_LIMIT):
        raise BlowUpError(t)


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


def _fixed_steps(cfg) -> float:
    """Steps of a fixed-step run, as a float so that a tiny dt cannot overflow it."""
    return max(1.0, float(np.ceil(cfg.t_end / cfg.dt - 1e-12)))


class _Record:
    """Times and kept values, copied into arrays allocated from the first kept value.

    A run that outgrows them grows both in place by half, and at least one
    row, so that they never hold more than max(capacity, ceil(1.5*n)) rows
    for n kept values; ``arrays`` trims them to length. No view of them
    exists before then, so ``ndarray.resize`` may skip its reference check.
    """

    def __init__(self, first, capacity: int):
        first = np.asarray(first)
        self.times, self.n = np.zeros(capacity), 1
        self.states = np.empty((capacity,) + first.shape, dtype=first.dtype)
        self.states[0] = first

    def add(self, t: float, kept) -> None:
        if self.n == len(self.times):
            self.resize(self.n + max(1, self.n // 2))
        self.times[self.n], self.states[self.n] = t, kept
        self.n += 1

    def arrays(self) -> tuple:
        self.resize(self.n)
        return self.times, self.states

    def resize(self, n: int) -> None:
        for a in (self.times, self.states):
            a.resize((n,) + a.shape[1:], refcheck=False)


def _integrate_rk4(bind, y0, shape, cfg, record):
    """The record is allocated at its final size: the step count is known.

    Each step is the classic RK4 step y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4),
    with stage inputs y + (h/2)*k1, y + (h/2)*k2 and y + h*k3, in that order
    of operations, written into blocks allocated once per run: y (a copy of
    y0) is updated in place. The scalars h/2, h, h/6 and 2 are 0-d arrays,
    refilled only for a shortened last step.
    """
    dt, t_end, stride = cfg.dt, cfg.t_end, cfg.record_stride
    n = int(_fixed_steps(cfg))
    y = y0.copy()                    # y0 may view the caller's array
    view, flat, safe = logical(y, shape), y.reshape(-1), _SAFE_NORM_SQ
    k1, k2, k3, k4, stage, term = (np.empty_like(y) for _ in range(6))
    eval_k1, eval_k2, eval_k3, eval_k4 = (bind(y, k1), bind(stage, k2), bind(stage, k3),
                                          bind(stage, k4))
    half, full, sixth, two = (np.array(c, dtype=float) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    multiply, add, dot = np.multiply, np.add, c_dot
    rec = _Record(record(view), 1 + n // stride + (n % stride != 0))
    for i in range(1, n + 1):
        if i < n:
            t_next = i * dt
        else:
            t_next, h = t_end, t_end - (n - 1) * dt
            half[()], full[()], sixth[()] = 0.5 * h, h, h / 6.0
        eval_k1()
        multiply(k1, half, term)
        add(y, term, stage)
        eval_k2()
        multiply(k2, half, term)
        add(y, term, stage)
        eval_k3()
        multiply(k3, full, term)
        add(y, term, stage)
        eval_k4()
        multiply(k2, two, term)
        add(k1, term, k1)
        multiply(k3, two, term)
        add(k1, term, k1)
        add(k1, k4, k1)
        multiply(k1, sixth, k1)
        add(y, k1, y)
        if not dot(flat, flat) <= safe:     # a large state, NaN or inf: the exact test
            _check_finite(y, t_next)
        if i % stride == 0 or i == n:
            rec.add(t_next, record(view))
    return rec.arrays()


def _integrate_rk45(bind, y0, shape, cfg, record):
    """Each attempt first writes h*c for the 26 nonzero tableau entries into
    one buffer, with one multiply. A per-row plan pairs each stage block with
    a 0-d view of its entry, so each stage input is y + (h*c_1)*k_1 +
    (h*c_2)*k_2 + ..., added left to right with the zero c_j skipped, and the
    error block likewise with the 4th-order weights. There is one plan for
    each of the two buffer arrangements that an accepted step swaps between.
    """
    t_end, stride = cfg.t_end, cfg.record_stride
    t_stop = t_end - 1e-14 * t_end
    t, h = 0.0, min(cfg.dt, t_end)
    coef = np.array([c for row in (*_DP_A, _DP_B4) for c in row if c])
    hc = np.empty_like(coef)
    stage, term, sq = np.empty_like(y0), np.empty_like(y0), np.empty(shape)
    err, err_view = stage, logical(stage, shape)    # the error is summed in logical order
    mid = [np.empty_like(y0) for _ in range(5)]     # stages 2-6 evaluate stage
    mid_evals = [bind(stage, k) for k in mid]
    rel_tol, abs_tol = np.array(cfg.rel_tol, dtype=float), np.array(cfg.abs_tol, dtype=float)

    def plan(y, y_new, k1, k7, abs_y, abs_new, last):
        # ``last`` evaluates y_new into k7; an accepted step swaps y with
        # y_new, k1 with k7 and abs_y with abs_new, that is, the two plans
        ks, hcs = (k1, *mid, k7), iter(hc[j, ...] for j in range(len(hc)))
        rows = [[(k, next(hcs)) for k, c in zip(ks, row) if c] for row in (*_DP_A, _DP_B4)]
        stages = list(zip([stage] * 5 + [y_new], rows, mid_evals + [last]))
        return y, y_new, abs_y, abs_new, logical(y, shape), stages, rows[-1]

    y_a, y_b = y0.copy(), np.empty_like(y0)     # y0 may view the caller's array
    k_a, k_b = np.empty_like(y0), np.empty_like(y0)
    abs_a, abs_b = np.abs(y0), np.empty_like(y0)
    first = bind(y_a, k_a)            # the other plan's last stage gives the first stage
    plans = [plan(y_a, y_b, k_a, k_b, abs_a, abs_b, bind(y_b, k_b)),
             plan(y_b, y_a, k_b, k_a, abs_b, abs_a, first)]
    first()
    y, y_new, abs_y, abs_new, view, stages, error = plans[0]
    rec = _Record(record(view), DP5_RECORD_CAPACITY)
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    absolute, maximum, square = np.absolute, np.maximum, np.square
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    accepted, attempts, max_attempts = 0, 0, MAX_ADAPTIVE_ATTEMPTS
    while t < t_stop:
        if attempts == max_attempts:
            raise AttemptLimitError(t, h, attempts)
        attempts += 1
        h = min(h, t_end - t)
        multiply(coef, h, hc)
        for out, terms, evaluate in stages:
            base = y
            for k, c in terms:
                multiply(k, c, term)
                add(base, term, out)
                base = out
            evaluate()
        base = y
        for k, c in error:
            multiply(k, c, term)
            add(base, term, err)
            base = err
        subtract(y_new, err, err)
        absolute(y_new, abs_new)
        scale = term
        maximum(abs_y, abs_new, out=scale)
        multiply(scale, rel_tol, scale)
        add(scale, abs_tol, scale)
        divide(err, scale, err)
        square(err_view, sq)
        err_norm = math.sqrt(add_reduce(sq, None) / sq.size)
        if err_norm <= 1.0:
            t += h
            plans.reverse()
            y, y_new, abs_y, abs_new, view, stages, error = plans[0]
            if not max_reduce(abs_y, None) <= BLOWUP_LIMIT:
                raise BlowUpError(t)
            accepted += 1
            at_end = t >= t_stop
            if accepted % stride == 0 or at_end:
                rec.add(t_end if at_end else t, record(view))
        factor = 0.9 * (err_norm + 1e-16)**-0.2
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14 * t_end:
            raise StepSizeUnderflowError(t, h)
    return rec.arrays()


def _block_field(rhs, shape: tuple):
    """rhs as a binder on the node-major blocks of states of ``shape``.

    ``bind(Y, dY)`` returns an evaluator that writes rhs at Y into dY. A field
    from ``model`` is bound through ``rhs.block``, once per run; any other
    callable is called on Y's logical view and its result copied into dY's.
    """
    if hasattr(rhs, "block"):
        return rhs.block(shape[:-1])

    def bind(Y: np.ndarray, dY: np.ndarray):
        y, dy = logical(Y, shape), logical(dY, shape)

        def evaluate():
            dy[...] = rhs(y)
        return evaluate
    return bind


def integrate(rhs, s0, cfg: IntegratorConfig, *, m: int = 0, record=None) -> Trajectory:
    """Integrate y' = rhs(y) from the flat or batched state array s0 up to cfg.t_end.

    Records the initial state, every record_stride-th accepted step, and the
    final state at exactly t_end. ``record``, called on each of these states
    in time order, returns what the trajectory keeps of it; by default the
    state itself. The state it is given views the stepper's buffer, which
    the next step overwrites, and what it returns is copied into the record.
    Raises BlowUpError on non-finite states.
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
    return Trajectory(times=times, states=states, m=m)

