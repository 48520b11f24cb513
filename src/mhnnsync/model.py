"""Network models: parameter types, activations and the two vector fields, one entry point each.

Two coupled systems are implemented:

* the memristive Hopfield network (mHNN): m membrane potentials u_i plus a
  shared memductance state rho, with static synaptic weights and either a
  weak sigmoidal or a linear (diffusive) interneuron coupling;
* its Hebbian extension, where the synaptic weight matrix w(t) evolves by
  dw_ij/dt = -c_ij w_ij + lambda_ij f_i(u_i) f_j(u_j) and the memristor uses
  the Strukov-Williams window rho*(eta - rho).

All functions here are pure; parameter objects are treated as immutable after
``validate()``.

States have shape (..., dim), the components on the last axis. Both fields
evaluate on a node-major (dim, members) block, where u, rho and the Hebbian
weights are contiguous rows of one value per member. ``node_major`` frames a
state as that block and ``logical`` undoes it; for a Fortran-ordered (count,
dim) ensemble or (len(P), count, dim) lockstep stack the block is a view.
``rhs.block(lead)``, made once per batch shape, binds a (state, derivative)
pair of blocks: it makes every view and scratch row once, and the evaluator
it returns writes f(Y) into dY with numpy calls on those views alone.
``integrate`` binds each of its buffer pairs once per run; the public
``rhs(y)`` binds each call's frame of y through the same binder. A member's
derivative never depends on the batch around it: sums over nodes run
elementwise (numpy's C einsum kernel, ``np.add.reduce``), not through BLAS,
and a lone member runs as a two-member block. Per-call numpy overhead, not
arithmetic, sets the cost. So a field is one einsum of a constant matrix
against a stacked block, into which the rows that are not linear in the
state (the activation, rho^2*u, weak coupling's P*S*u) are written first;
only the Hebbian field's own terms (its window, W f, dW) follow it. einsum
is called without numpy's Python wrapper and copyto without its
``__array_function__`` dispatch, every scalar operand is a 0-d array made
once, coefficients are tiled to rows once per batch shape, and no ufunc
takes a row broadcast down a block, which costs about twice a same-shape
call and allocates an iterator buffer: rho and weak coupling's node sum are
copied down first. P is one rule for one value and a lockstep column alike:
each member's P copied down an (m, members) block.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

# numpy's C einsum kernel. np.einsum without optimize calls exactly this
# function, so the bits are the same; calling it directly skips a Python
# wrapper.
try:
    from numpy._core.multiarray import c_einsum
except ImportError:                # numpy < 2
    from numpy.core.multiarray import c_einsum

# numpy's C copyto and dot, which np.copyto and np.dot call after their
# __array_function__ dispatch: the same bits, without the dispatcher.
try:
    from numpy._core._multiarray_umath import copyto as c_copyto, dot as c_dot
except ImportError:                # numpy < 2
    from numpy.core._multiarray_umath import copyto as c_copyto, dot as c_dot

ACTIVATION_KINDS = ("tanh-scaled", "logistic-centered", "sine-clamped")
COUPLING_KINDS = ("weak-sigmoidal", "linear")

# Every activation kind is beta*tanh(scale*s) or, for sine-clamped, beta*sin(s).
# logistic-centered 2/(1+e^-s) - 1 equals tanh(s/2), its overflow-safe form.
_TANH_SCALE = {"tanh-scaled": 1.0, "logistic-centered": 0.5}


class ParameterError(ValueError):
    """A parameter set violates a model invariant.

    ``field`` carries the offending field path for CLI error reporting.
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


def as_integer(value, path: str) -> int:
    """value as an int, else ParameterError naming ``path``.

    A boolean, text, None or a number with a fractional part is rejected
    rather than read or truncated; an integral float such as 10.0 is kept.
    """
    if what := _not_numbers(value):
        raise ParameterError(path, f"expected an integer, got {what}")
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ParameterError(path, f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(path, f"expected an integer, got {value!r} ({exc})") from None


def as_real(value, path: str) -> float:
    """value as a Python float, else ParameterError naming ``path``.

    A boolean, text and None are rejected (see ``_not_numbers``), and so is
    an array of one or more dimensions, which float() would read if it had
    one entry.
    """
    if what := _not_numbers(value):
        raise ParameterError(path, f"expected a real number, got {what}")
    if isinstance(value, np.ndarray) and value.ndim:
        raise ParameterError(path, f"expected a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(path, f"expected a real number, got {value!r} ({exc})") from None


def in_range(name: str, form, what: str = "") -> float:
    """form(), else ParameterError naming ``name`` when ``what`` (by default ``name``)
    leaves the double range: it overflows, or divides by a value that underflowed to 0."""
    try:
        return form()
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(name, f"{what or name} leaves the double range") from None


@dataclass(frozen=True)
class ActivationSpec:
    """A bounded activation: |f(s)| <= beta for all real s."""

    kind: str
    beta: float = 1.0

    def validate(self, path: str = "activation") -> None:
        if self.kind not in ACTIVATION_KINDS:
            raise ParameterError(f"{path}.kind",
                                 f"unknown kind {self.kind!r}, expected one of {ACTIVATION_KINDS}")
        if not (0 < as_real(self.beta, f"{path}.beta") < math.inf):
            raise ParameterError(f"{path}.beta", "bound beta must be positive and finite")


def _row_slices(rows: list) -> list:
    """The sorted row indices ``rows`` as one slice per contiguous run."""
    runs = []
    for i in rows:
        if runs and runs[-1].stop == i:
            runs[-1] = slice(runs[-1].start, i + 1)
        else:
            runs.append(slice(i, i + 1))
    return runs


def _activation_kernel(activations, members: int):
    """A binder of g(u) = (g_j(u_j))_j, each activation without its beta, on
    node-major (m, members) blocks, one spec per node; the caller applies beta.

    ``bind(u, out)`` returns an evaluator that writes g(u) into out, reading
    u's current contents. The per-node scale is tiled to rows of ``members``
    entries, cheaper than broadcasting an (m, 1) column against rows this
    short. tanh(scale*u) fills every row, then ``np.sin`` overwrites the
    sine-clamped rows, which ``bind`` views as (u, out) slice pairs, one per
    contiguous run. With no logistic-centered node tanh takes u itself:
    1.0*u == u, so the bits are the same.
    """
    for act in activations:
        if act.kind not in ACTIVATION_KINDS:
            raise ParameterError("activation.kind", f"unknown kind {act.kind!r}")
    scales = [_TANH_SCALE.get(act.kind, 1.0) for act in activations]
    sine = _row_slices([i for i, act in enumerate(activations) if act.kind == "sine-clamped"])
    scaled = any(c != 1.0 for c in scales)
    scale = np.repeat(np.array(scales)[:, None], members, axis=1)

    def bind(u: np.ndarray, out: np.ndarray):
        multiply, tanh, sin = np.multiply, np.tanh, np.sin
        pairs = tuple((u[rows], out[rows]) for rows in sine)

        def g():
            if scaled:
                multiply(scale, u, out)
                tanh(out, out)
            else:
                tanh(u, out)
            for u_rows, out_rows in pairs:
                sin(u_rows, out_rows)
        return g

    return bind


def _sigmoid(s, r, V, out):
    """A binder of weak coupling's sigmoid 1/(1 + exp(-r(s - V))), in (0, 1).

    Returns an evaluator that writes the sigmoid of s's current contents into
    out and returns out. 1/(1 + e^-z) = (1 + tanh(z/2))/2, which cannot
    overflow. V, 0.5*r and 0.5 are 0-d arrays made here; r > 0 is checked by
    ``MhnnParams.validate``, not here.
    """
    V, half_r, half = (np.array(c, dtype=float) for c in (V, np.multiply(0.5, r), 0.5))
    subtract, multiply, tanh, add = np.subtract, np.multiply, np.tanh, np.add

    def sigmoid():
        subtract(s, V, out)
        multiply(out, half_r, out)
        tanh(out, out)
        multiply(out, half, out)
        add(out, half, out)
        return out
    return sigmoid


def _not_numbers(x) -> Optional[str]:
    """The first boolean, text or None in x, a number, an array (of objects
    too) or nested lists of them, as a phrase, or None when there is none.

    numpy and float() would read a boolean as 0.0 or 1.0, parse text such as
    "1.0" and read None, JSON's null, as NaN; each is refused instead.
    """
    kind = x.dtype.kind if isinstance(x, np.ndarray) else None
    if kind == "O":
        return _not_numbers(x.tolist())
    if isinstance(x, (list, tuple)):
        return next(filter(None, map(_not_numbers, x)), None)
    if x is None:
        return "null (None), a missing value"
    if isinstance(x, (bool, np.bool_)) or kind == "b":
        return f"the boolean {x!r}"
    if isinstance(x, (str, bytes)) or kind in ("U", "S"):
        return f"the text {x!r}"
    return None


def _as_floats(x, path: str) -> np.ndarray:
    """x as a float array of any shape.

    A boolean, text or None anywhere in x is rejected, as ``as_real``
    rejects one (see ``_not_numbers``).
    """
    if what := _not_numbers(x):
        raise ParameterError(path, f"expected numbers, got {what}")
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(path, f"expected numbers, got {x!r} ({exc})") from None


def _as_array(x, shape: tuple, path: str) -> np.ndarray:
    """x as a float array of the given vector or matrix shape; a scalar fills it."""
    arr = _as_floats(x, path)
    if arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        expected = f"length-{shape[0]} vector" if len(shape) == 1 else "{}x{} matrix".format(*shape)
        raise ParameterError(path, f"expected {expected}, got shape {arr.shape}")
    return arr


def _memory_bytes() -> Optional[int]:
    """The machine's physical memory as ``os.sysconf`` reports it, or None where it cannot."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class _NetworkParams:
    """What MhnnParams and HebbianParams share; no fields, so each keeps its field order.

    A subclass names its vectors, its (field, config path) matrices and its
    scalars, which __post_init__ coerces, and adds ``_validate_model`` and
    ``assumption_margins``. Before it fills anything to length m, it raises
    ParameterError, naming m, unless m >= 2, and MemoryError, naming m, when
    the vectors (8*m bytes each) and the matrices (8*m^2 bytes each) would
    not fit in the machine's memory. Each scalar and each activation's beta
    becomes a Python float, and P too unless it is a lockstep array, which
    becomes a float array: 1, 1.0 and np.float64(1.0) give one digest, and a
    boolean raises ParameterError naming its field.
    """

    _UNHASHED = ("activations",)
    _SCALARS = ("b",)

    def __post_init__(self):
        self.m = as_integer(self.m, "m")
        if self.m < 2:
            raise ParameterError("m", "node count must satisfy m >= 2")
        m, memory = self.m, _memory_bytes()
        need = 8 * (len(self._VECTORS) * m + len(self._MATRICES) * m * m)
        if memory is not None and need > memory:
            raise MemoryError(f"m = {self.m}: the parameters need {need:.3g} bytes, more than "
                              f"the {memory:.3g} bytes of memory")
        for name in self._VECTORS:
            setattr(self, name, _as_array(getattr(self, name), (self.m,), name))
        for name, path in self._MATRICES:
            setattr(self, name, _as_array(getattr(self, name), (self.m, self.m), path))
        for name in self._SCALARS:
            setattr(self, name, as_real(getattr(self, name), name))
        P = _as_floats(self.P, "P")
        self.P = P if P.ndim else float(P)
        if not self.activations:
            self.activations = tuple(ActivationSpec("tanh-scaled", 1.0) for _ in range(self.m))
        # a list, not a generator: with a generator here, the resident set of
        # 900 in-process linear-sweep ops grew by 0.25-0.4 MiB, with a list it
        # stayed flat (CPython 3.11)
        self.activations = tuple([
            act if type(act.beta) is float
            else ActivationSpec(act.kind, as_real(act.beta, f"activations[{i}].beta"))
            for i, act in enumerate(self.activations)])

    @property
    def beta_max(self) -> float:
        return max(a.beta for a in self.activations)

    @property
    def k_max(self) -> float:
        return float(np.max(self.k))

    def validate(self) -> None:
        paths = dict(self._MATRICES)
        for name in (*self._VECTORS, *paths, *self._SCALARS):
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(paths.get(name, name), "must be finite, not inf or nan")
        if len(self.activations) != self.m:
            raise ParameterError("activations",
                                 f"expected {self.m} activation specs, got {len(self.activations)}")
        for i, act in enumerate(self.activations):
            act.validate(f"activations[{i}]")
        if not (self.b > 0):
            raise ParameterError("b", "memristor decay b must be positive")
        if not np.all(self.eta > 0):
            raise ParameterError("eta", "all window curvatures eta_i must be positive")
        if not np.all(np.isfinite(self.P) & (self.P >= 0)):     # every entry of a lockstep P
            raise ParameterError("P", "coupling strength P must be nonnegative and finite")
        self._validate_model()

    def digest(self) -> str:
        """Fields in declaration order, then the activation specs."""
        h = hashlib.sha256()
        parts = [getattr(self, f.name) for f in fields(self) if f.name not in self._UNHASHED]
        for part in parts + [[(s.kind, s.beta) for s in self.activations]]:
            h.update(repr(part.tolist() if isinstance(part, np.ndarray) else part).encode())
        return h.hexdigest()[:16]


@dataclass
class MhnnParams(_NetworkParams):
    """Full parameter set of the memristive Hopfield network."""

    m: int
    a: np.ndarray                # per-node self-decay, a_i > k
    b: float                     # memristor decay
    k: float                     # memristive coupling strength
    eta: np.ndarray              # per-node window curvature
    w: np.ndarray                # static synaptic weights, m x m
    J: np.ndarray                # input currents
    gamma: np.ndarray            # memristor drive coefficients
    P: float = 0.0               # network coupling strength
    r: float = 1.0               # sigmoid slope, read under weak coupling only
    V: float = 0.0               # bursting switch, read under weak coupling only
    activations: tuple = ()      # one ActivationSpec per node
    coupling_kind: str = "weak-sigmoidal"

    _VECTORS = ("a", "eta", "J", "gamma")
    _MATRICES = (("w", "w"),)
    _SCALARS = ("b", "k", "r", "V")

    @property
    def dim(self) -> int:
        return self.m + 1

    def assumption_margins(self) -> tuple[float, float]:
        """(dissipation gap, sync decay), both a_min - k; ParameterError naming
        ``a`` unless they are positive."""
        gap = float(self.a.min()) - self.k
        if not (gap > 0):
            raise ParameterError(
                "a", f"assumption 'a_i > k' violated: min a_i = {self.a.min()} <= k = {self.k}")
        return gap, gap

    def _validate_model(self) -> None:
        if not (self.r > 0):
            raise ParameterError("r", "sigmoid slope r must be positive")
        if not (self.k > 0):
            raise ParameterError("k", "memristive coupling strength k must be positive")
        self.assumption_margins()
        if self.coupling_kind not in COUPLING_KINDS:
            raise ParameterError("coupling_kind",
                                 f"unknown coupling {self.coupling_kind!r}, expected one of {COUPLING_KINDS}")


@dataclass
class HebbianParams(_NetworkParams):
    """Parameter set of the Hebbian-learning extension (Strukov-Williams window)."""

    m: int
    a: np.ndarray
    b: float
    k: np.ndarray                # per-node memristive strength k_i
    eta: np.ndarray
    J: np.ndarray
    gamma: np.ndarray
    c: np.ndarray                # weight decay matrix, all c_ij > 0
    lam: np.ndarray              # Hebbian coefficient matrix
    w0: np.ndarray               # initial connectivity, entries in {0, 1}
    P: float = 0.0
    activations: tuple = ()
    coupling_kind: str = "linear"

    _VECTORS = ("a", "k", "eta", "J", "gamma")
    _MATRICES = (("c", "c"), ("lam", "lambda"), ("w0", "w0"))
    _UNHASHED = ("activations", "coupling_kind")

    @property
    def dim(self) -> int:
        return self.m + 1 + self.m * self.m

    @property
    def eta_min(self) -> float:
        return float(self.eta.min())

    def assumption_margins(self) -> tuple[float, float]:
        """(dissipation gap a_min - k_max eta_min^2/2, sync decay a_min - k_max eta_min/2).

        ParameterError naming ``a`` unless both are positive: strictly stronger
        than a > k*eta^2/2 alone, so that both the dissipation denominator
        (eta^2) and the sync rate (eta) stay positive.
        """
        a_min, half_k, eta = float(self.a.min()), 0.5 * self.k_max, self.eta_min
        eta_sq = in_range("eta", lambda: eta**2, "eta_min^2")
        gap, decay = a_min - half_k * eta_sq, a_min - half_k * eta
        if not (gap > 0 and decay > 0):
            raise ParameterError(
                "a",
                "assumption 'a > (1/2) k eta^2' violated: min a_i = "
                f"{self.a.min()} <= (1/2) k_max max(eta_min, eta_min^2) = "
                f"{half_k * max(eta, eta_sq)}")
        return gap, decay

    def _validate_model(self) -> None:
        if not np.all(self.k > 0):
            raise ParameterError("k", "all memristive strengths k_i must be positive")
        self.assumption_margins()
        if not np.all(self.c > 0):
            raise ParameterError("c", "all weight decays c_ij must be positive")
        if not np.all((self.w0 == 0) | (self.w0 == 1)):
            raise ParameterError("w0", "initial weights must have entries in {0, 1}")
        if self.coupling_kind != "linear":
            raise ParameterError("coupling_kind", "hebbian model uses linear coupling only")


def node_major(y: np.ndarray) -> np.ndarray:
    """The (..., dim) state y as a C-contiguous node-major (dim, members) block.

    Its rows hold one node's value per member, the members in Fortran order.
    For Fortran-ordered float y the block is the view
    ``y.reshape((-1, dim), order="F").T``; other y is copied in Fortran order
    first, with bitwise the same values.
    """
    y = np.asfortranarray(y, dtype=float)
    return y.reshape((-1, y.shape[-1]), order="F").T


def logical(Y: np.ndarray, shape: tuple) -> np.ndarray:
    """The node-major block Y as a state of the given (..., dim) shape: a
    Fortran-ordered view of a C-contiguous Y, the inverse of ``node_major``."""
    return Y.T.reshape(shape, order="F")


def _node_major_field(p, u_coef: np.ndarray, columns: list, terms=None, static=None):
    """The vector field of p on (..., dim) batches, evaluated on a (dim, members) block.

    ``rhs(y)`` frames y as its ``node_major`` block and returns the result in
    y's shape: a view in y's layout for Fortran-ordered y, a C-ordered copy
    otherwise. It binds each call's block with ``rhs.block(lead)``, the
    binder on the C-contiguous blocks of a lead + (dim,) batch, made once per
    batch shape. The binder tiles the model's ``columns`` and the activation
    to rows of one entry per member, and P, a float or a (len(P), 1, 1)
    lockstep column alike, to an (m, members) block, each member's P in
    member order copied down its column.
    ``rhs.block(lead)(Y, dY)`` makes the views and scratch rows once and
    returns an evaluator that writes f(Y) into dY and returns dY: numpy calls
    with ``out`` alone, each operand the shape of its output or 0-d, so rho
    is copied down an (m, members) block R first. numpy sums over the nodes
    of one column in kernels of its own, so a lone member (a lead of (), (1,)
    or (1, 1)) runs in both columns of a two-member block, and column 0, the
    bits of its row in any batch, is copied to dY. Binding a state block of
    other than p.dim rows raises ParameterError naming ``state``; a bound
    call checks nothing.

    du and drho are one einsum of a constant (m+1, K) matrix M, summed over
    its columns left to right, against Z = [P*u; g; rho^2*u; P*S*u; u; rho;
    1], whose ones row is set at bind time. M's columns [L | W | diag(c) | -I
    | diag(u_coef) | (0; -b) | (J; 0)], gamma below diag(u_coef), give du =
    P*L u + W g + c*rho^2*u - P*S*u + u_coef*u + J and drho = gamma.u -
    b*rho. L = 11^T - m*I, the all-to-all Laplacian, is there under linear
    coupling only, -I against P*S*u under weak coupling only, and W and c
    only for ``static`` = (W, c): the mHNN's static weights with column j
    scaled by beta_j, against the activation g(u) without beta, and its
    window's -k*eta against rho^2*u, taken as (rho*u)*rho. L comes first, so
    on a synchronized state its partial sum is exactly zero for m <= 3 and
    the coupled field is the uncoupled one bitwise. Weak coupling copies S =
    sum_j sigma(u_j) down its rows of Z, multiplies them by the P block and
    then by u: S*P equals P*S exactly. An inf component meets M's zeros and
    gives NaN, which still ends a run in BlowUpError. Without ``static``,
    ``terms(dY, Y, R, *rows)`` returns the block g for the activation and
    the model's evaluator, which runs after the einsum, adds its own terms
    to du and writes any weight derivatives into dY[m+1:]. Both couplings
    follow p.coupling_kind alone.
    """
    m, P = p.m, p.P
    coupled = bool(np.any(P != 0.0))
    weak = coupled and p.coupling_kind != "linear"
    linear = coupled and p.coupling_kind == "linear"
    top = [np.ones((m, m)) - m * np.eye(m)] if linear else []
    top += [static[0], np.diag(static[1])] if static else []
    top += [-np.eye(m)] * weak + [np.diag(u_coef), np.zeros((m, 1)), p.J[:, None]]
    M = np.pad(np.hstack(top), ((0, 1), (0, 0)))
    M[m, -m - 2:-1] = np.append(p.gamma, -p.b)

    def check_width(Y: np.ndarray) -> None:
        # else rows of dY go unwritten, or a reshape or broadcast fails unnamed
        if Y.shape[0] != p.dim:
            raise ParameterError("state", f"expected {p.dim} components per state, "
                                          f"got {Y.shape[0]}")

    def members(lead: tuple):
        n = math.prod(lead)
        # each member's P, in member order, copied down an (m, members) block
        P_n = np.repeat(np.broadcast_to(P, lead + (1,)).reshape((1, n), order="F"), m, axis=0)
        bind_activation = _activation_kernel(p.activations, n)
        rows = [np.repeat(np.reshape(v, (-1, 1)), n, axis=1) for v in columns]

        def bind(Y: np.ndarray, dY: np.ndarray):
            check_width(Y)
            if not (Y.flags.c_contiguous and dY.flags.c_contiguous):
                raise ValueError("a field binds C-contiguous blocks, whose rows reshape to views")
            u, rho, u_rho, du_rho = Y[:m], Y[m], Y[:m + 1], dY[:m + 1]
            Z, R = np.ones((M.shape[1], n)), np.empty((m, n))
            # P*u under linear coupling only, P*S*u under weak coupling only
            Pu, PSu, Zu_rho = Z[:m], Z[-2 * m - 2:-m - 2], Z[-m - 2:-1]
            if static:          # g(u) and rho^2*u are rows of Z
                (g, q), term = Z[m * linear:][:2 * m].reshape(2, m, n), None
            else:
                (g, term), q = terms(dY, Y, R, *rows), None
            activation = bind_activation(u, g)
            sigmoid = _sigmoid(u, p.r, p.V, np.empty((m, n))) if weak else None
            total = np.empty(n) if weak else None        # the node sum S of sigma(u)
            multiply, copyto, add_reduce, einsum = np.multiply, c_copyto, np.add.reduce, c_einsum

            def evaluate() -> np.ndarray:
                copyto(R, rho)
                copyto(Zu_rho, u_rho)
                if linear:
                    multiply(P_n, u, Pu)
                activation()
                if q is not None:
                    multiply(R, u, q)
                    multiply(q, R, q)
                if weak:
                    add_reduce(sigmoid(), 0, None, total)
                    copyto(PSu, total)
                    multiply(PSu, P_n, PSu)
                    multiply(PSu, u, PSu)
                einsum("ij,jn->in", M, Z, out=du_rho)
                if term is not None:
                    term()
                return dY
            return evaluate

        return bind

    # not recursive, so that a field is freed when its last reference goes,
    # not at the next full collection
    def block(lead: tuple):
        if math.prod(lead) != 1:
            return members(lead)
        pair = members(lead[:-1] + (2,))

        def bind_lone(Y: np.ndarray, dY: np.ndarray):
            check_width(Y)
            Y2, dY2 = np.empty((p.dim, 2)), np.empty((p.dim, 2))
            evaluate, column = pair(Y2, dY2), dY2[:, :1]

            def lone() -> np.ndarray:
                Y2[:] = Y
                evaluate()
                dY[:] = column
                return dY
            return lone
        return bind_lone

    bound = functools.lru_cache(maxsize=1)(block)     # the last batch shape only

    def rhs(y: np.ndarray) -> np.ndarray:
        Y = node_major(y)
        dy = logical(bound(y.shape[:-1])(Y, np.empty(Y.shape))(), y.shape)
        return dy if y.flags.f_contiguous else np.ascontiguousarray(dy)

    rhs.block = block
    return rhs


def make_mhnn_rhs(p: MhnnParams):
    """Vector-field closure for the mHNN; flat state y = (u, rho).

    Accepts batched states of shape (..., m+1) in either layout and returns
    that shape (see ``_node_major_field``). All of it is the einsum: W with
    column j scaled by beta_j against g(u), and the window k*(1 - eta*rho^2)
    as k in the u coefficient k - a and -k*eta against rho^2*u.
    """
    W = p.w * [act.beta for act in p.activations]
    return _node_major_field(p, p.k - p.a, [], static=(W, -p.k * p.eta))


def make_hebbian_rhs(p: HebbianParams):
    """Vector-field closure for the Hebbian model; flat state y = (u, rho, w row-major).

    Accepts batched states of shape (..., dim) in either layout and returns
    that shape (see ``_node_major_field``). W is read from the state, so
    after the einsum du adds the Strukov-Williams window k*rho*(eta - rho),
    in a block s, times u, and W f per member, f being g times beta in place.
    dw_ij = -c_ij w_ij + lambda_ij f_i f_j, -c_ij w_ij in a block of its own.
    """
    m = p.m

    def terms(dY, Y, R, k, eta, lam, negc, beta):
        u, du, W, dW = Y[:m], dY[:m], Y[m + 1:], dY[m + 1:]
        s, (f, wf) = np.empty(u.shape), np.empty((2,) + u.shape)
        W3, dW3, cW = W.reshape(m, m, -1), dW.reshape(m, m, -1), np.empty(W.shape)
        add, multiply, subtract, einsum = np.add, np.multiply, np.subtract, c_einsum

        def evaluate():
            multiply(f, beta, f)
            subtract(eta, R, s)
            multiply(s, R, s)
            multiply(s, k, s)
            einsum("ijn,jn->in", W3, f, out=wf)
            # the outer product f_i f_j, without the broadcast ufunc's buffers
            einsum("in,jn->ijn", f, f, out=dW3)
            multiply(dW, lam, dW)
            multiply(negc, W, cW)
            add(dW, cW, dW)
            multiply(s, u, s)
            add(du, s, du)
            add(du, wf, du)
        return f, evaluate

    beta = [act.beta for act in p.activations]
    return _node_major_field(p, -p.a, [p.k, p.eta, p.lam, -p.c, beta], terms)
