"""Network models: parameter/state types, activations, memristor windows, ODE right-hand sides.

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
weights are contiguous rows of one value per member rather than strided
columns. ``node_major`` frames a state as that block and ``logical`` undoes
it: node-major means Fortran-ordered, for a (count, dim) ensemble and a
(len(P), count, dim) lockstep stack alike, so for such a state the block is
a view. ``integrate`` holds the state as this block for a whole run and
calls a field's block evaluator, ``rhs.block(lead)``, bound to the batch
once, which takes and returns blocks without framing them. The public
``rhs(y)`` frames each call's y and its result, copying input of any other
layout in and out, with bitwise the same values. Sums over nodes run
elementwise (numpy's C einsum kernel, ``np.add.reduce``), not through BLAS,
whose row blocking would make a member's last bits depend on the batch
around it.
Per-call numpy overhead, not arithmetic, sets the cost, so coefficients are
tiled to rows once per batch shape, the decay, the window and weak coupling
share one u coefficient, and einsum is called without numpy's Python
wrapper.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

# numpy's C einsum kernel. np.einsum without optimize calls exactly this
# function, so the bits are the same; calling it directly skips a Python
# wrapper that cost about 1.1 us per call (2-vCPU x86_64, numpy 2.4).
try:
    from numpy._core.multiarray import c_einsum
except ImportError:                # numpy < 2
    try:
        from numpy.core.multiarray import c_einsum
    except ImportError:
        c_einsum = np.einsum

ACTIVATION_KINDS = ("tanh-scaled", "logistic-centered", "sine-clamped")
WINDOW_KINDS = ("quadratic", "strukov-williams")
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

    A boolean or a number with a fractional part is rejected rather than
    truncated; an integral float such as 10.0 is kept.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ParameterError(path, f"expected an integer, got the boolean {value!r}")
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ParameterError(path, f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(path, f"expected an integer, got {value!r} ({exc})") from None


@dataclass(frozen=True)
class ActivationSpec:
    """A bounded activation: |f(s)| <= beta for all real s."""

    kind: str
    beta: float = 1.0

    def validate(self, path: str = "activation") -> None:
        if self.kind not in ACTIVATION_KINDS:
            raise ParameterError(f"{path}.kind",
                                 f"unknown kind {self.kind!r}, expected one of {ACTIVATION_KINDS}")
        if not (self.beta > 0):
            raise ParameterError(f"{path}.beta", "bound beta must be positive")

    def __call__(self, s):
        return activation_eval(self.kind, self.beta, s)


def activation_eval(kind: str, beta: float, s):
    """Evaluate one activation family at s (scalar or array)."""
    s = np.asarray(s, dtype=float)
    out = _activation_kernel((ActivationSpec(kind, beta),), s.size)(s.reshape(1, -1))
    return out.reshape(s.shape) if s.ndim else float(out[0, 0])


def _activation_kernel(activations, members: int):
    """f(u) = (beta_j g_j(u_j))_j on a node-major (m, members) block u, one spec per node.

    The per-node scale, beta and sine mask are tiled to rows of ``members``
    entries: broadcasting an (m, 1) column against a block with rows this
    short costs more than the arithmetic. tanh(scale*u) is evaluated in place
    for all nodes, then one masked ``np.sin`` overwrites the sine-clamped
    nodes and beta multiplies in place: four numpy calls, no fancy-index
    gather or scatter. The scale 1.0 keeps tanh-scaled bitwise tanh(u), since
    1.0*u == u.
    """
    for act in activations:
        if act.kind not in ACTIVATION_KINDS:
            raise ParameterError("activation.kind", f"unknown kind {act.kind!r}")
    scale = np.array([_TANH_SCALE.get(act.kind, 1.0) for act in activations])
    sine = np.array([act.kind == "sine-clamped" for act in activations])
    betas = np.array([act.beta for act in activations], dtype=float)
    scale, sine, betas = (np.repeat(v[:, None], members, axis=1) for v in (scale, sine, betas))
    any_sine = bool(sine.any())

    def f(u: np.ndarray) -> np.ndarray:
        out = np.multiply(scale, u)
        np.tanh(out, out=out)
        if any_sine:
            np.sin(u, out=out, where=sine)
        out *= betas
        return out

    return f


def _sigmoid(s, r, V):
    """The sigmoid of sigmoid_gamma without its check on r.

    1/(1 + e^-z) = (1 + tanh(z/2))/2, which cannot overflow.
    """
    return 0.5 + 0.5 * np.tanh((0.5 * r) * (s - V))


def sigmoid_gamma(s, r: float, V: float):
    """Interneuron sigmoid 1/(1 + exp(-r(s - V))), overflow-safe, values in (0, 1)."""
    if not np.all(np.asarray(r) > 0):
        raise ParameterError("r", "sigmoid slope r must be positive")
    out = _sigmoid(np.asarray(s, dtype=float), r, V)
    return out if out.ndim else float(out)


_WINDOWS = {
    "quadratic": lambda rho, eta: 1.0 - eta * rho**2,
    "strukov-williams": lambda rho, eta: rho * (eta - rho),
}


def window_eval(kind: str, rho, eta: float):
    """Memristor window: 'quadratic' 1 - eta*rho^2 or 'strukov-williams' rho*(eta - rho)."""
    if not (eta > 0):
        raise ParameterError("eta", "window curvature eta must be positive")
    rho = np.asarray(rho, dtype=float)
    if kind not in _WINDOWS:
        raise ParameterError("window.kind",
                             f"unknown kind {kind!r}, expected one of {WINDOW_KINDS}")
    out = _WINDOWS[kind](rho, eta)
    return out if out.ndim else float(out)


def _as_array(x, shape: tuple, path: str) -> np.ndarray:
    """x as a float array of the given vector or matrix shape; a scalar fills it."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(path, f"expected numbers, got {x!r} ({exc})") from None
    if arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        expected = f"length-{shape[0]} vector" if len(shape) == 1 else "{}x{} matrix".format(*shape)
        raise ParameterError(path, f"expected {expected}, got shape {arr.shape}")
    return arr


class _NetworkParams:
    """What MhnnParams and HebbianParams share; no fields, so each keeps its field order.

    A subclass names its vectors and its (field, config path) matrices, which
    __post_init__ coerces (``P`` is left as given), and adds ``_validate_model``.
    """

    _UNHASHED = ("activations",)

    def __post_init__(self):
        self.m = int(self.m)
        for name in self._VECTORS:
            setattr(self, name, _as_array(getattr(self, name), (self.m,), name))
        for name, path in self._MATRICES:
            setattr(self, name, _as_array(getattr(self, name), (self.m, self.m), path))
        if not self.activations:
            self.activations = tuple(ActivationSpec("tanh-scaled", 1.0) for _ in range(self.m))
        self.activations = tuple(self.activations)

    @property
    def beta_max(self) -> float:
        return max(a.beta for a in self.activations)

    @property
    def k_max(self) -> float:
        return float(np.max(self.k))

    def validate(self) -> None:
        if self.m < 2:
            raise ParameterError("m", "node count must satisfy m >= 2")
        if len(self.activations) != self.m:
            raise ParameterError("activations",
                                 f"expected {self.m} activation specs, got {len(self.activations)}")
        for i, act in enumerate(self.activations):
            act.validate(f"activations[{i}]")
        if not (self.b > 0):
            raise ParameterError("b", "memristor decay b must be positive")
        if not np.all(self.eta > 0):
            raise ParameterError("eta", "all window curvatures eta_i must be positive")
        if not (self.r > 0):
            raise ParameterError("r", "sigmoid slope r must be positive")
        if not (0 <= self.P < math.inf):
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
    r: float = 1.0               # sigmoid slope
    V: float = 0.0               # bursting switch
    activations: tuple = ()      # one ActivationSpec per node
    coupling_kind: str = "weak-sigmoidal"

    _VECTORS = ("a", "eta", "J", "gamma")
    _MATRICES = (("w", "w"),)

    @property
    def dim(self) -> int:
        return self.m + 1

    def _validate_model(self) -> None:
        if not (self.k > 0):
            raise ParameterError("k", "memristive coupling strength k must be positive")
        if not np.all(self.a > self.k):
            raise ParameterError(
                "a", f"assumption 'a_i > k' violated: min a_i = {self.a.min()} <= k = {self.k}")
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
    r: float = 1.0
    V: float = 0.0
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

    def _validate_model(self) -> None:
        if not np.all(self.k > 0):
            raise ParameterError("k", "all memristive strengths k_i must be positive")
        # strictly stronger than a > k*eta^2/2 alone so that both the
        # dissipation denominator (eta^2) and the sync rate (eta) stay positive
        bar = 0.5 * self.k_max * max(self.eta_min, self.eta_min**2)
        if not (self.a.min() > bar):
            raise ParameterError(
                "a",
                "assumption 'a > (1/2) k eta^2' violated: "
                f"min a_i = {self.a.min()} <= (1/2) k_max max(eta_min, eta_min^2) = {bar}")
        if not np.all(self.c > 0):
            raise ParameterError("c", "all weight decays c_ij must be positive")
        if not np.all((self.w0 == 0) | (self.w0 == 1)):
            raise ParameterError("w0", "initial weights must have entries in {0, 1}")
        if self.coupling_kind != "linear":
            raise ParameterError("coupling_kind", "hebbian model uses linear coupling only")


@dataclass
class NetworkState:
    """State g = (u_1..u_m, rho), with an optional weight matrix for the Hebbian model.

    The squared norm deliberately excludes the weights: ||g||^2 = sum u_i^2 + rho^2.
    """

    u: np.ndarray
    rho: float
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.rho = float(self.rho)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)

    def norm_sq(self) -> float:
        return float(np.sum(self.u**2) + self.rho**2)

    def to_vector(self) -> np.ndarray:
        parts = [self.u, [self.rho]]
        if self.weights is not None:
            parts.append(self.weights.ravel())
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

    @staticmethod
    def from_vector(y: np.ndarray, m: int, has_weights: bool = False) -> "NetworkState":
        y = np.asarray(y, dtype=float)
        w = y[m + 1:].reshape(m, m) if has_weights else None
        return NetworkState(u=y[:m].copy(), rho=float(y[m]), weights=w)


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


def _node_major_field(p, u_coef: np.ndarray, columns: list, terms):
    """The vector field of p on (..., dim) batches, evaluated on a (dim, members) block.

    The returned ``rhs(y)`` frames y as its ``node_major`` block and returns
    the result in y's shape: a view in y's layout for Fortran-ordered y, a
    C-ordered copy otherwise. ``rhs.block(lead)`` gives the field on the
    C-contiguous blocks of a lead + (dim,) batch, for a caller that keeps the
    state node-major: it tiles J, the model's ``columns``, P (a row in the
    same member order for a lockstep column of P), the u coefficient
    ``u_coef``, the activation and a scratch block s to rows of one entry per
    member once, and each call returns a new (dim, members) block. ``rhs``
    binds it once per batch shape.

    ``terms(s, dY, Y, f, *rows)`` writes the window's share of the u
    coefficient into s, W f into dY[:m] and any weight derivatives into
    dY[m+1:]. The block adds du += c*u + J, with c = s + u coefficient (less
    P*sum_j sigma(u_j) under weak coupling), then under linear coupling
    P*(sum(u) - m*u), which vanishes exactly on a synchronized state, and sets
    drho = gamma.u - b*rho. Both branches follow p.coupling_kind alone.
    """
    m = p.m
    gamma, b, P, r, V = p.gamma, p.b, p.P, p.r, p.V
    coupled = bool(np.any(P != 0.0))
    weak = coupled and p.coupling_kind != "linear"
    linear = coupled and p.coupling_kind == "linear"
    columns = [np.reshape(v, (-1, 1)) for v in [p.J] + columns]

    def block(lead: tuple):
        n = math.prod(lead)
        P_row = np.broadcast_to(P, lead + (1,)).reshape(n, order="F") if np.ndim(P) else P
        coef = np.repeat(u_coef[:, None], n, axis=1)
        activation = _activation_kernel(p.activations, n)
        scratch = np.empty((m, n))
        J, *rows = [np.repeat(col, n, axis=1) for col in columns]

        def field(Y: np.ndarray) -> np.ndarray:
            s, u, rho = scratch, Y[:m], Y[m]
            f = activation(u)
            dY = np.empty_like(Y)
            terms(s, dY, Y, f, *rows)
            s += coef
            if weak:
                s -= P_row * np.add.reduce(_sigmoid(u, r, V), axis=0)
            s *= u
            du = dY[:m]
            du += s
            du += J
            if linear:
                # P*(sum(u) - m*u) in the scratch block, bitwise
                np.multiply(u, -m, out=s)
                s += np.add.reduce(u, axis=0)
                s *= P_row
                du += s
            # drho is not one einsum over (u, rho) with -b appended: for a single
            # member einsum runs a lane-split dot product, which rounds m + 1
            # terms differently from m terms less b*rho
            drho = dY[m]
            c_einsum("in,i->n", u, gamma, out=drho)
            drho -= b * rho
            return dY

        return field

    bound: dict = {}

    def rhs(y: np.ndarray) -> np.ndarray:
        field = bound.get(y.shape[:-1])
        if field is None:
            bound.clear()          # keep the last batch shape only
            field = bound[y.shape[:-1]] = block(y.shape[:-1])
        dy = logical(field(node_major(y)), y.shape)
        return dy if y.flags.f_contiguous else np.ascontiguousarray(dy)

    rhs.block = block
    return rhs


def make_mhnn_rhs(p: MhnnParams):
    """Vector-field closure for the mHNN; flat state y = (u, rho).

    Accepts batched states of shape (..., m+1) in either layout and returns
    that shape (see ``_node_major_field``). The quadratic window
    k*(1 - eta*rho^2) enters as -k*eta*rho^2 in the scratch block and k in
    the u coefficient k - a.
    """
    m, w = p.m, p.w

    def terms(s, dY, Y, f, neg_keta):
        np.multiply(neg_keta, Y[m], out=s)
        s *= Y[m]
        c_einsum("ij,jn->in", w, f, out=dY[:m])

    return _node_major_field(p, p.k - p.a, [-p.k * p.eta], terms)


def make_hebbian_rhs(p: HebbianParams):
    """Vector-field closure for the Hebbian model; flat state y = (u, rho, w row-major).

    Accepts batched states of shape (..., dim) in either layout and returns
    that shape (see ``_node_major_field``). The weights are read from the
    state: the Strukov-Williams window k*rho*(eta - rho) goes to the scratch
    block, and dw_ij = -c_ij w_ij + lambda_ij f_i f_j.
    """
    m = p.m

    def terms(s, dY, Y, f, k, eta, lam, negc):
        rho, W = Y[m], Y[m + 1:]
        np.subtract(eta, rho, out=s)
        s *= rho
        s *= k
        c_einsum("ijn,jn->in", W.reshape(m, m, -1), f, out=dY[:m])
        dW = dY[m + 1:]
        np.multiply(f[:, None], f[None, :], out=dW.reshape(m, m, -1))
        dW *= lam
        dW += negc * W

    return _node_major_field(p, -p.a, [p.k, p.eta, p.lam, -p.c], terms)


def mhnn_rhs(p: MhnnParams, s: NetworkState) -> NetworkState:
    """Time derivative of the mHNN at state s."""
    if s.weights is not None:
        raise ParameterError("state.weights", "mHNN state carries no weight matrix")
    if s.u.shape != (p.m,):
        raise ParameterError("state.u", f"expected {p.m} potentials, got shape {s.u.shape}")
    dy = make_mhnn_rhs(p)(s.to_vector())
    return NetworkState.from_vector(dy, p.m)


def hebbian_rhs(p: HebbianParams, s: NetworkState) -> NetworkState:
    """Time derivative of the Hebbian model at state s (weights required)."""
    if s.weights is None:
        raise ParameterError("state.weights", "hebbian state requires a weight matrix")
    if s.u.shape != (p.m,) or s.weights.shape != (p.m, p.m):
        raise ParameterError("state", f"state dimensions do not match m = {p.m}")
    dy = make_hebbian_rhs(p)(s.to_vector())
    return NetworkState.from_vector(dy, p.m, has_weights=True)
