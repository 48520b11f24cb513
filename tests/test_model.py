import dataclasses
import functools
import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhnnsync import (
    ActivationSpec,
    EnsembleSpec,
    HebbianParams,
    IntegratorConfig,
    MhnnParams,
    ParameterError,
    Trajectory,
    integrate,
    integrate_ensemble,
)
from mhnnsync.model import _activation_kernel, _sigmoid, make_hebbian_rhs, make_mhnn_rhs
from mhnnsync import analysis as analysis_module, constants as constants_module
from mhnnsync import model as model_module

from draws import draw_hebbian, draw_mhnn

# the module; the package's name ``integrate`` is the function
integrate_module = importlib.import_module("mhnnsync.integrate")


def mk_mhnn(**kw):
    base = dict(m=2, a=[2.0, 2.0], b=1.0, k=1.0, eta=[1.0, 1.0],
                w=np.zeros((2, 2)), J=[0.0, 0.0], gamma=[1.0, 1.0])
    base.update(kw)
    return MhnnParams(**base)


def mk_hebbian(**kw):
    base = dict(m=2, a=[2.0, 2.0], b=1.0, k=[1.0, 1.0], eta=[1.0, 1.0],
                J=[0.0, 0.0], gamma=[1.0, 1.0], c=np.ones((2, 2)),
                lam=np.ones((2, 2)), w0=np.ones((2, 2)))
    base.update(kw)
    return HebbianParams(**base)


class TestSigmoidGamma:
    """Weak coupling's sigmoid, through the binder that the field evaluates."""

    def test_half_at_switch_point(self):
        for r, V in [(1.0, 0.0), (5.0, -2.0), (0.3, 7.5)]:
            assert _sigmoid(np.float64(V), r, V, np.empty(()))() == 0.5

    def test_saturation(self):
        s = np.array([1000.0, -1000.0])
        assert _sigmoid(s, 1.0, 0.0, np.empty(2))() == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_hand_value_ln3(self):
        # 1/(1 + e^{-ln 3}) = 3/4
        assert _sigmoid(np.log(3.0), 1.0, 0.0, np.empty(()))() == pytest.approx(0.75, rel=1e-14)

    def test_overflow_safe(self):
        with np.errstate(over="raise"):
            assert np.array_equal(_sigmoid(np.array([1e8, -1e8]), 50.0, 0.0, np.empty(2))(),
                                  [1.0, 0.0])

    def test_range_and_monotone_large_sample(self):
        # [0,1] range on 10^6 random triples (exact 0/1 only from saturation);
        # strictly interior for moderate arguments; monotone in s
        rng = np.random.default_rng(42)
        s = rng.uniform(-1e3, 1e3, 10**6)
        r = rng.uniform(1e-3, 10.0, 10**6)
        V = rng.uniform(-1e2, 1e2, 10**6)
        vals = _sigmoid(s, r, V, np.empty(10**6))()
        assert np.all(vals >= 0) and np.all(vals <= 1)
        moderate = np.abs(r * (s - V)) < 30
        assert np.all(vals[moderate] > 0) and np.all(vals[moderate] < 1)
        s_sorted = np.sort(rng.uniform(-20, 20, 10**4))
        mono = _sigmoid(s_sorted, 0.7, 1.3, np.empty(10**4))()
        assert np.all(np.diff(mono) > 0)


class TestActivations:
    """Each kind through the kernel that the fields bind, times its beta."""

    @pytest.mark.parametrize("kind", ["tanh-scaled", "logistic-centered", "sine-clamped"])
    def test_bounded_everywhere(self, kind):
        rng = np.random.default_rng(3)
        s = rng.uniform(-1e6, 1e6, (1, 10**5))
        beta, g = 1.7, np.empty(s.shape)
        _activation_kernel((ActivationSpec(kind, beta),), s.size)(s, g)()
        assert np.all(np.abs(beta * g) <= beta + 1e-12)

    def test_logistic_centering(self):
        # beta*(2/(1+e^-s) - 1) evaluated against the raw expression
        s = np.linspace(-20, 20, 401)[None]
        raw = 0.9 * (2.0 / (1.0 + np.exp(-s)) - 1.0)
        g = np.empty(s.shape)
        _activation_kernel((ActivationSpec("logistic-centered", 0.9),), s.size)(s, g)()
        assert 0.9 * g == pytest.approx(raw, abs=1e-14)

    @pytest.mark.parametrize("kind, shape", [("tanh-scaled", np.tanh),
                                             ("logistic-centered", lambda s: np.tanh(0.5 * s)),
                                             ("sine-clamped", np.sin)])
    def test_closed_form(self, kind, shape):
        s = np.append(np.linspace(-20, 20, 401), 1.3)[None]
        g = np.empty(s.shape)
        _activation_kernel((ActivationSpec(kind, 0.8),), s.size)(s, g)()
        assert np.array_equal(0.8 * g, 0.8 * shape(s))

    def test_odd_at_origin(self):
        kinds = ("tanh-scaled", "logistic-centered", "sine-clamped")
        s, g = np.zeros((3, 1)), np.empty((3, 1))
        _activation_kernel(tuple(ActivationSpec(kind, 2.0) for kind in kinds), 1)(s, g)()
        assert np.array_equal(2.0 * g, np.zeros((3, 1)))

    def test_activation_spec_validation(self):
        with pytest.raises(ParameterError):
            ActivationSpec("relu", 1.0).validate()
        with pytest.raises(ParameterError):
            ActivationSpec("tanh-scaled", 0.0).validate()


class TestMhnnRhs:
    def test_origin_reduces_to_input_currents(self):
        p = mk_mhnn(J=[0.3, -0.8], w=np.full((2, 2), 0.5), P=2.0)
        d = make_mhnn_rhs(p)(np.zeros(3))
        assert d[:2] == pytest.approx([0.3, -0.8])
        assert d[2] == 0.0

    def test_hand_substitution(self):
        # du_1 = -2*1 + 1*(1-0)*1 = -1, du_2 = -2*(-1) + 1*(-1) = 1
        p = mk_mhnn()
        d = make_mhnn_rhs(p)(np.array([1.0, -1.0, 0.0]))
        assert d[:2] == pytest.approx([-1.0, 1.0])
        assert d[2] == pytest.approx(0.0)

    @pytest.mark.parametrize("m, P", [
        *(pytest.param(m, 4.0, id=str(m)) for m in (2, 3)),
        *(pytest.param(m, np.array([0.5, 4.0])[:, None, None], id=f"{m}-lockstep")
          for m in (2, 3)),
    ])
    def test_linear_coupling_zero_mode(self, m, P):
        # the Laplacian's columns come first in the field's matrix, and their
        # partial sum is exactly zero on a synchronized state for m <= 3, so
        # the coupled field is bitwise the uncoupled one
        p = mk_mhnn(m=m, a=[2] * m, eta=[1] * m, w=np.full((m, m), 0.3),
                    J=[0.2] * m, gamma=[1] * m, P=P, coupling_kind="linear")
        y = np.zeros((2, 3, m + 1))
        y[..., :m] = np.random.default_rng(140 + m).normal(size=(2, 3, 1))
        y[..., m] = 0.1
        if np.ndim(P) == 0:
            base = make_mhnn_rhs(dataclasses.replace(p, P=0.0))(y[0, 0])
            coupled = make_mhnn_rhs(p)(y[0, 0])
            assert np.array_equal(coupled[:m], base[:m])
        assert np.array_equal(make_mhnn_rhs(p)(y), make_mhnn_rhs(dataclasses.replace(p, P=0.0))(y))

    def test_dimension_mismatch(self):
        # three potentials, or (u, rho) with a weight matrix appended
        rhs = make_mhnn_rhs(mk_mhnn())
        with pytest.raises(ParameterError):
            rhs(np.array([1.0, 2.0, 3.0, 0.0]))
        with pytest.raises(ParameterError):
            rhs(np.concatenate([[1.0, 2.0, 0.0], np.zeros(4)]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = draw_mhnn(rng, 5)
        u = rng.normal(size=5)
        rho = 0.4
        perm = rng.permutation(5)
        d = make_mhnn_rhs(p)(np.append(u, rho))
        p_perm = MhnnParams(
            m=5, a=p.a[perm], b=p.b, k=p.k, eta=p.eta[perm],
            w=p.w[np.ix_(perm, perm)], J=p.J[perm], gamma=p.gamma[perm],
            P=p.P, r=p.r, V=p.V,
            activations=tuple(p.activations[i] for i in perm),
            coupling_kind=p.coupling_kind)
        out = make_mhnn_rhs(p_perm)(np.append(u[perm], rho))
        assert out[:5] == pytest.approx(d[:5][perm], rel=1e-12)
        assert out[5] == pytest.approx(d[5], rel=1e-12)

    @pytest.mark.parametrize("coupling", ["weak-sigmoidal", "linear"])
    def test_mixed_kinds_match_node_by_node(self, coupling):
        # every activation kind, each node with its own beta, on a (count, dim)
        # batch: the batched field is the one built node by node, one weight
        # at a time, from np.tanh and np.sin
        kinds = ("sine-clamped", "tanh-scaled", "logistic-centered", "sine-clamped",
                 "logistic-centered", "tanh-scaled")
        rng = np.random.default_rng(31)
        m = len(kinds)
        acts = tuple(ActivationSpec(kind, float(beta))
                     for kind, beta in zip(kinds, rng.uniform(0.5, 1.5, m)))
        p = dataclasses.replace(draw_mhnn(rng, m, coupling=coupling), activations=acts, P=0.7)
        y = rng.normal(scale=3.0, size=(7, p.dim))
        assert_close(make_mhnn_rhs(p)(y), mhnn_node_by_node(p, y))


class TestHebbianRhs:
    """The field on (u, rho, w row-major) vectors, at m = 2."""

    def test_origin(self):
        p = mk_hebbian(J=[0.4, -0.1])
        d = make_hebbian_rhs(p)(np.zeros(7))
        assert d[:2] == pytest.approx([0.4, -0.1])
        assert d[2] == 0.0
        assert d[3:].reshape(2, 2) == pytest.approx(np.zeros((2, 2)))

    def test_memristive_term_vanishes_at_eta(self):
        p = mk_hebbian(eta=[0.8, 0.8], lam=np.zeros((2, 2)), c=np.ones((2, 2)))
        u = np.array([1.3, -0.5])
        d = make_hebbian_rhs(p)(np.concatenate([u, [0.8], np.zeros(4)]))
        # rho*(eta - rho) = 0, so du reduces to -a u + J
        assert d[:2] == pytest.approx(-p.a * u + p.J)

    def test_pure_weight_decay(self):
        p = mk_hebbian(lam=np.zeros((2, 2)))
        d = make_hebbian_rhs(p)(np.concatenate([np.zeros(3), np.ones(4)]))
        assert d[3:].reshape(2, 2) == pytest.approx(-np.ones((2, 2)))

    def test_missing_weights(self):
        with pytest.raises(ParameterError):
            make_hebbian_rhs(mk_hebbian())(np.zeros(3))


SHAPES = {"tanh-scaled": np.tanh, "logistic-centered": lambda s: np.tanh(0.5 * s),
          "sine-clamped": np.sin}


def reference_activation(p, u):
    """f of a (count, m) block, node by node from np.tanh and np.sin, not the package."""
    return np.column_stack([act.beta * SHAPES[act.kind](u[:, j])
                            for j, act in enumerate(p.activations)])


def mhnn_node_by_node(p, y):
    """The mHNN field of a (count, dim) batch at scalar p.P, node by node and
    one weight at a time, with the sigmoid in its exponential form."""
    m = p.m
    u, rho = y[:, :m], y[:, m]
    f = reference_activation(p, u)
    node_sum = sum(u[:, j] for j in range(m))
    sigmoid_sum = sum(1.0 / (1.0 + np.exp(-p.r * (u[:, j] - p.V))) for j in range(m))
    coupling = [p.P * (m * u[:, i] - node_sum) if p.coupling_kind == "linear"
                else p.P * u[:, i] * sigmoid_sum for i in range(m)]
    du = np.column_stack([
        -p.a[i] * u[:, i] + sum(p.w[i, j] * f[:, j] for j in range(m))
        + p.k * (1.0 - p.eta[i] * rho**2) * u[:, i] + p.J[i] - coupling[i]
        for i in range(m)])
    drho = sum(p.gamma[i] * u[:, i] for i in range(m)) - p.b * rho
    return np.column_stack([du, drho])


def hebbian_node_by_node(p, y):
    """The Hebbian field of a (count, dim) batch at scalar p.P, node by node
    and one weight at a time."""
    m = p.m
    u, rho = y[:, :m], y[:, m]
    W = y[:, m + 1:].reshape(-1, m, m)
    f = reference_activation(p, u)
    node_sum = sum(u[:, j] for j in range(m))
    du = np.column_stack([
        -p.a[i] * u[:, i] + sum(W[:, i, j] * f[:, j] for j in range(m))
        + p.k[i] * rho * (p.eta[i] - rho) * u[:, i] + p.J[i]
        - p.P * (m * u[:, i] - node_sum)
        for i in range(m)])
    drho = sum(p.gamma[i] * u[:, i] for i in range(m)) - p.b * rho
    dW = np.stack([np.column_stack([-p.c[i, j] * W[:, i, j] + p.lam[i, j] * f[:, i] * f[:, j]
                                    for j in range(m)]) for i in range(m)], axis=1)
    return np.column_stack([du, drho, dW.reshape(len(y), m * m)])


def assert_close(got, expected):
    # relative to the largest component, since single components may cancel
    np.testing.assert_allclose(got, expected, rtol=1e-14,
                               atol=1e-14 * np.abs(expected).max())


class TestHebbianBatch:
    KINDS = ("sine-clamped", "tanh-scaled", "logistic-centered")

    def mixed(self, m, seed):
        rng = np.random.default_rng(seed)
        acts = tuple(ActivationSpec(self.KINDS[j % 3], float(beta))
                     for j, beta in enumerate(rng.uniform(0.5, 1.5, m)))
        return rng, dataclasses.replace(draw_hebbian(rng, m), activations=acts, P=0.7)

    @pytest.mark.parametrize("m", [3, 6])
    def test_batch_matches_node_by_node(self, m):
        rng, p = self.mixed(m, 50 + m)
        y = rng.normal(scale=3.0, size=(7, p.dim))
        assert_close(make_hebbian_rhs(p)(y), hebbian_node_by_node(p, y))

    @pytest.mark.parametrize("m", [3, 6])
    def test_lockstep_batch_matches_node_by_node(self, m):
        # a (3, 10, dim) batch with one coupling strength per block
        rng, p = self.mixed(m, 60 + m)
        P = np.array([0.0, 0.7, 25.0])
        y = rng.normal(scale=3.0, size=(3, 10, p.dim))
        got = make_hebbian_rhs(dataclasses.replace(p, P=P[:, None, None]))(y)
        assert got.shape == y.shape
        for block, P_i in enumerate(P):
            assert_close(got[block], hebbian_node_by_node(dataclasses.replace(p, P=P_i), y[block]))

    @pytest.mark.parametrize("m", [3, 6])
    def test_single_state_matches_node_by_node(self, m):
        rng, p = self.mixed(m, 70 + m)
        y = rng.normal(scale=3.0, size=p.dim)
        got = make_hebbian_rhs(p)(y)
        assert got.shape == (p.dim,)
        assert_close(got, hebbian_node_by_node(p, y[None])[0])

    @pytest.mark.parametrize("m", [3, 6, 8])
    def test_rows_independent_of_batch(self, m):
        # a 10-row batch placed at every offset of a 40-row batch: each row of
        # the field, and of a 200-step RK4 run at three offsets, is bitwise its
        # value in the 10-row batch alone. Four gamma vectors are tried, three of
        # them large: whether a BLAS product's blocking shows in a row depends on
        # the data, and a last-bit change of u.gamma is lost in drho when the
        # product is small next to b*rho
        rng, p = self.mixed(m, 80 + m)
        y = rng.normal(size=(10, p.dim))
        others = rng.normal(size=(40, p.dim))
        stacked = []
        for offset in range(31):
            stacked.append(others.copy())
            stacked[offset][offset:offset + 10] = y
        cfg = IntegratorConfig(method="rk4-fixed", dt=1e-3, t_end=0.2)
        for draw in range(4):
            gamma = p.gamma if draw == 0 else rng.normal(scale=3.0, size=m)
            rhs = make_hebbian_rhs(dataclasses.replace(p, gamma=gamma))
            alone = rhs(y)
            for offset, big in enumerate(stacked):
                assert np.array_equal(rhs(big)[offset:offset + 10], alone), (draw, offset)
            run = integrate(rhs, y, cfg)
            assert run.states.shape == (201, 10, p.dim)
            for offset in (0, 13, 30):
                states = integrate(rhs, stacked[offset], cfg).states
                assert np.array_equal(states[:, offset:offset + 10], run.states), (draw, offset)


def node_major(y):
    """y, same shape and values, stored node-major: Fortran-ordered."""
    return np.asfortranarray(y)


def components_outermost(y):
    """y with the components outermost but the members C-ordered: neither C- nor
    F-contiguous for a lockstep stack, so the fields copy it in."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(y, -1, 0)), 0, -1)


class TestHebbianLayout:
    """The Hebbian field gives the same bits on member-major and node-major input,
    and its output keeps the input's layout."""

    @pytest.mark.parametrize("n", [2, 7, 128])
    @pytest.mark.parametrize("m", [3, 6, 8])
    def test_same_values_in_both_layouts(self, m, n):
        rng, p = TestHebbianBatch().mixed(m, 90 + m)
        y = rng.normal(scale=3.0, size=(n, p.dim))
        rhs = make_hebbian_rhs(p)
        y_nm = np.asfortranarray(y)
        assert y_nm.flags.f_contiguous and not y_nm.flags.c_contiguous
        got_c, got_nm = rhs(y), rhs(y_nm)
        assert np.array_equal(got_nm, got_c)
        assert got_c.flags.c_contiguous
        assert got_nm.flags.f_contiguous and not got_nm.flags.c_contiguous
        assert np.array_equal(y_nm, y)          # the input is read, not written

    @pytest.mark.parametrize("m", [3, 6])
    def test_lockstep_batch_in_every_layout(self, m):
        # a (3, 10, dim) batch with one coupling strength per block, member-major,
        # node-major and with the components outermost (which the field copies)
        rng, p = TestHebbianBatch().mixed(m, 100 + m)
        y = rng.normal(scale=3.0, size=(3, 10, p.dim))
        rhs = make_hebbian_rhs(dataclasses.replace(p, P=np.array([0.0, 0.7, 25.0])[:, None, None]))
        want = rhs(y)
        assert want.flags.c_contiguous
        got = rhs(node_major(y))
        assert np.array_equal(got, want)
        assert np.shares_memory(node_major(got), got)   # still node-major, no copy made
        other = components_outermost(y)
        assert not (other.flags.c_contiguous or other.flags.f_contiguous)
        got_other = rhs(other)
        assert np.array_equal(got_other, want)
        assert got_other.flags.c_contiguous


class TestHebbianFieldProperty:
    """The Hebbian field against the node-by-node reference, over node
    counts, batch sizes, activation mixes and the three forms of P."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(m=st.integers(2, 8), n=st.sampled_from([1, 2, 7, 33]),
           P_form=st.sampled_from(["zero", "scalar", "column"]),
           draw=st.integers(0, 2**16), data=st.data())
    def test_matches_node_by_node_in_both_layouts(self, m, n, P_form, draw, data):
        acts = tuple(ActivationSpec(kind, beta) for kind, beta in data.draw(st.lists(
            st.tuples(st.sampled_from(TestHebbianBatch.KINDS), st.floats(0.25, 2.0)),
            min_size=m, max_size=m)))
        rng = np.random.default_rng(draw)
        p = dataclasses.replace(draw_hebbian(rng, m), activations=acts)
        if P_form == "column":
            P = np.array([0.0, 0.7, 25.0])
            y = rng.normal(scale=3.0, size=(3, n, p.dim))
            rhs = make_hebbian_rhs(dataclasses.replace(p, P=P[:, None, None]))
            got = rhs(y)
            for block, P_i in enumerate(P):
                assert_close(got[block],
                             hebbian_node_by_node(dataclasses.replace(p, P=P_i), y[block]))
            assert np.array_equal(rhs(node_major(y)), got)
        else:
            p = dataclasses.replace(p, P=0.0 if P_form == "zero" else float(rng.uniform(0.1, 50)))
            y = rng.normal(scale=3.0, size=(n, p.dim))
            rhs = make_hebbian_rhs(p)
            got = rhs(y)
            assert_close(got, hebbian_node_by_node(p, y))
            assert np.array_equal(rhs(np.asfortranarray(y)), got)


COUPLINGS = ("weak-sigmoidal", "linear")


def mixed_mhnn(m, seed, coupling):
    """An mHNN draw with every activation kind and P = 0.7, and the generator after it."""
    rng = np.random.default_rng(seed)
    acts = tuple(ActivationSpec(TestHebbianBatch.KINDS[j % 3], float(beta))
                 for j, beta in enumerate(rng.uniform(0.5, 1.5, m)))
    return rng, dataclasses.replace(draw_mhnn(rng, m, coupling=coupling), activations=acts, P=0.7)


class TestMhnnBatch:
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("m", [3, 8, 12])
    def test_rows_independent_of_batch(self, m, coupling):
        # a 10-row batch placed at every offset of a 40-row batch: each row of
        # the field, and of a 200-step RK4 run at three offsets, is bitwise its
        # value in the 10-row batch alone, for the drawn weights and three
        # larger w and gamma draws (a last-bit change of W f or u.gamma can be
        # lost next to the other terms when the product is small)
        rng, p = mixed_mhnn(m, 120 + m, coupling)
        y = rng.normal(scale=3.0, size=(10, p.dim))
        others = rng.normal(scale=3.0, size=(40, p.dim))
        stacked = []
        for offset in range(31):
            stacked.append(others.copy())
            stacked[offset][offset:offset + 10] = y
        cfg = IntegratorConfig(method="rk4-fixed", dt=1e-3, t_end=0.2)
        for draw in range(4):
            q = p if draw == 0 else dataclasses.replace(
                p, w=rng.normal(scale=3.0, size=(m, m)), gamma=rng.normal(scale=3.0, size=m))
            rhs = make_mhnn_rhs(q)
            alone = rhs(y)
            for offset, big in enumerate(stacked):
                assert np.array_equal(rhs(big)[offset:offset + 10], alone), (draw, offset)
            run = integrate(rhs, y, cfg)
            for offset in (0, 13, 30):
                states = integrate(rhs, stacked[offset], cfg).states
                assert np.array_equal(states[:, offset:offset + 10], run.states), (draw, offset)


class TestMhnnLayout:
    """The mHNN field gives the same bits on member-major and node-major input,
    and its output keeps the input's layout."""

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [2, 7, 128])
    @pytest.mark.parametrize("m", [3, 8])
    def test_same_values_in_both_layouts(self, m, n, coupling):
        rng, p = mixed_mhnn(m, 130 + m, coupling)
        y = rng.normal(scale=3.0, size=(n, p.dim))
        rhs = make_mhnn_rhs(p)
        y_nm = np.asfortranarray(y)
        got_c, got_nm = rhs(y), rhs(y_nm)
        assert np.array_equal(got_nm, got_c)
        assert got_c.flags.c_contiguous
        assert got_nm.flags.f_contiguous and not got_nm.flags.c_contiguous
        assert np.array_equal(y_nm, y)          # the input is read, not written

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("m", [3, 8])
    def test_lockstep_batch_in_every_layout(self, m, coupling):
        rng, p = mixed_mhnn(m, 140 + m, coupling)
        P = np.array([0.0, 0.7, 25.0])
        y = rng.normal(scale=3.0, size=(3, 10, p.dim))
        rhs = make_mhnn_rhs(dataclasses.replace(p, P=P[:, None, None]))
        want = rhs(y)
        assert want.flags.c_contiguous
        got = rhs(node_major(y))
        assert np.array_equal(got, want)
        assert np.shares_memory(node_major(got), got)   # still node-major, no copy made
        other = components_outermost(y)
        assert not (other.flags.c_contiguous or other.flags.f_contiguous)
        got_other = rhs(other)
        assert np.array_equal(got_other, want)
        assert got_other.flags.c_contiguous
        for block, P_i in enumerate(P):
            assert_close(want[block], mhnn_node_by_node(dataclasses.replace(p, P=P_i), y[block]))


class TestMhnnFieldProperty:
    """The mHNN field against the node-by-node reference, over couplings, node
    counts, batch sizes, activation mixes and the three forms of P."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(coupling=st.sampled_from(COUPLINGS), m=st.integers(2, 12),
           n=st.sampled_from([1, 2, 7, 33]), P_form=st.sampled_from(["zero", "scalar", "column"]),
           draw=st.integers(0, 2**16), data=st.data())
    def test_matches_node_by_node_in_both_layouts(self, coupling, m, n, P_form, draw, data):
        acts = tuple(ActivationSpec(kind, beta) for kind, beta in data.draw(st.lists(
            st.tuples(st.sampled_from(TestHebbianBatch.KINDS), st.floats(0.25, 2.0)),
            min_size=m, max_size=m)))
        rng = np.random.default_rng(draw)
        p = dataclasses.replace(draw_mhnn(rng, m, coupling=coupling), activations=acts)
        if P_form == "column":
            P = np.array([0.0, 0.7, 25.0])
            y = rng.normal(scale=3.0, size=(3, n, p.dim))
            rhs = make_mhnn_rhs(dataclasses.replace(p, P=P[:, None, None]))
            got = rhs(y)
            for block, P_i in enumerate(P):
                assert_close(got[block],
                             mhnn_node_by_node(dataclasses.replace(p, P=P_i), y[block]))
            assert np.array_equal(rhs(node_major(y)), got)
        else:
            p = dataclasses.replace(p, P=0.0 if P_form == "zero" else float(rng.uniform(0.1, 50)))
            y = rng.normal(scale=3.0, size=(n, p.dim))
            rhs = make_mhnn_rhs(p)
            got = rhs(y)
            assert_close(got, mhnn_node_by_node(p, y))
            assert np.array_equal(rhs(np.asfortranarray(y)), got)


class TestValidation:
    @pytest.mark.parametrize("call, field", [
        (lambda: mk_mhnn(b=0.0).validate(), "b"),
        (lambda: mk_mhnn(eta=[1.0, 0.0]).validate(), "eta"),
        (lambda: mk_mhnn(r=0.0).validate(), "r"),
        (lambda: mk_mhnn(k=0.0).validate(), "k"),
        (lambda: mk_mhnn(coupling_kind="diffusive").validate(), "coupling_kind"),
        (lambda: mk_hebbian(k=[1.0, 0.0]).validate(), "k"),
        (lambda: mk_hebbian(c=[[1.0, 0.0], [1.0, 1.0]]).validate(), "c"),
        (lambda: mk_hebbian(coupling_kind="weak-sigmoidal").validate(), "coupling_kind"),
        (lambda: mk_mhnn(activations=(ActivationSpec("tanh-scaled"),)).validate(),
         "activations"),
        # three potentials, rho and a 2x2 weight matrix
        (lambda: make_hebbian_rhs(mk_hebbian())(np.zeros(3 + 1 + 4)), "state"),
    ], ids=["b", "eta", "r", "mhnn-k", "mhnn-coupling", "hebbian-k", "hebbian-c",
            "hebbian-coupling", "activation-count", "hebbian-state"])
    def test_documented_error_names_its_field(self, call, field):
        with pytest.raises(ParameterError) as err:
            call()
        assert err.value.field == field

    def test_assumption_boundary(self):
        with pytest.raises(ParameterError, match="a_i > k"):
            mk_mhnn(k=2.0).validate()

    def test_m_too_small(self):
        with pytest.raises(ParameterError):
            p = MhnnParams(m=1, a=[2.0], b=1.0, k=1.0, eta=[1.0], w=[[0.0]],
                           J=[0.0], gamma=[0.0])
            p.validate()

    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    @pytest.mark.parametrize("m", [-2, 0, 1])
    def test_m_below_two_rejected_at_construction(self, make, m):
        # named, before numpy is asked for a vector of negative length
        with pytest.raises(ParameterError) as err:
            make(m=m)
        assert err.value.field == "m"
        assert "m >= 2" in str(err.value)

    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    @pytest.mark.parametrize("m", [2.7, True, "2"])
    def test_non_integer_m_rejected(self, make, m):
        # rejected, not truncated, as the CLI rejects "m": 2.7
        with pytest.raises(ParameterError) as err:
            make(m=m).validate()
        assert err.value.field == "m"

    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    def test_integral_m_kept_as_int(self, make):
        assert type(make(m=2.0).m) is int

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ParameterError):
            MhnnParams(m=3, a=[1.0, 2.0], b=1.0, k=0.5, eta=[1, 1, 1],
                       w=np.zeros((3, 3)), J=[0, 0, 0], gamma=[0, 0, 0])

    @pytest.mark.parametrize("make, field, path, value", [
        (mk_mhnn, "J", "J", [np.inf, 1.0]),
        (mk_mhnn, "w", "w", [[0.0, np.nan], [0.0, 0.0]]),
        (mk_mhnn, "b", "b", np.inf),
        (mk_mhnn, "V", "V", -np.inf),
        (mk_hebbian, "lam", "lambda", [[1.0, np.inf], [1.0, 1.0]]),
        (mk_hebbian, "k", "k", [np.inf, 1.0]),
    ])
    def test_non_finite_entry_rejected(self, make, field, path, value):
        with pytest.raises(ParameterError) as exc:
            make(**{field: value}).validate()
        assert exc.value.field == path

    @pytest.mark.parametrize("make, field, path, value", [
        (mk_mhnn, "a", "a", [True, True]),
        (mk_mhnn, "eta", "eta", True),
        (mk_mhnn, "w", "w", [[0.0, False], [0.0, 0.0]]),
        (mk_hebbian, "k", "k", [1.0, np.True_]),
        (mk_hebbian, "w0", "w0", np.ones((2, 2), dtype=bool)),
    ])
    def test_boolean_entry_rejected(self, make, field, path, value):
        # read as 1.0 or 0.0 before, so [True, True] passed for a vector of ones
        with pytest.raises(ParameterError, match="boolean") as exc:
            make(**{field: value})
        assert exc.value.field == path

    @pytest.mark.parametrize("make, field, path, value, want", [
        (mk_mhnn, "a", "a", ["2.0", "2.0"], "text"),
        (mk_mhnn, "eta", "eta", "1.0", "text"),
        (mk_mhnn, "w", "w", [[0.0, "0"], [0.0, 0.0]], "text"),
        (mk_hebbian, "k", "k", np.array(["1", "1"]), "text"),
        (mk_mhnn, "a", "a", None, "missing"),
        (mk_mhnn, "P", "P", None, "missing"),
        (mk_mhnn, "J", "J", [0.0, None], "missing"),
        (mk_hebbian, "lam", "lambda", None, "missing"),
        (mk_mhnn, "a", "a", np.array([None, 2.0], dtype=object), "missing"),
        (mk_mhnn, "a", "a", np.array(["2.0", 2.0], dtype=object), "text"),
    ])
    def test_text_or_null_entry_rejected(self, make, field, path, value, want):
        # text was parsed, so ["2.0", "2.0"] passed for a vector, and None was
        # read as NaN, then refused as "must be finite"
        with pytest.raises(ParameterError, match=want) as exc:
            make(**{field: value})
        assert exc.value.field == path

    SCALARS = ([(mk_mhnn, f) for f in ("b", "k", "P", "r", "V")]
               + [(mk_hebbian, f) for f in ("b", "P")])

    @pytest.mark.parametrize("value", [True, np.False_])
    @pytest.mark.parametrize("make, field", SCALARS)
    def test_boolean_scalar_rejected(self, make, field, value):
        # read as 1.0 or 0.0 before, with a digest of its own
        with pytest.raises(ParameterError, match="boolean") as exc:
            make(**{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("make, field", SCALARS)
    def test_non_number_scalar_rejected(self, make, field):
        # an array P is a lockstep column; text is not parsed, even "1.0"
        for value in ("x", "1.0", b"1.0", None) + (
                () if field == "P" else ([1.0, 2.0], np.array([1.0]))):
            with pytest.raises(ParameterError) as exc:
                make(**{field: value})
            assert exc.value.field == field

    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    def test_scalars_are_floats_with_one_digest(self, make):
        names = ("b", "P") + (("r", "V", "k") if make is mk_mhnn else ())
        want = make(**dict(zip(names, (1.0, 3.0, 2.0, 0.0, 0.5))))
        for values in [(1, 3, 2, 0, 0.5), (np.float64(1.0), np.array(3.0), np.int64(2),
                                          np.float32(0.0), np.float64(0.5))]:
            p = make(**dict(zip(names, values)))
            assert [type(getattr(p, name)) for name in names] == [float] * len(names)
            assert p.digest() == want.digest()

    def test_lockstep_P_is_a_float_array(self):
        p = mk_mhnn(P=np.array([0, 1, 25])[:, None, None])
        assert p.P.dtype == float and p.P.shape == (3, 1, 1)
        with pytest.raises(ParameterError, match="boolean") as exc:
            mk_mhnn(P=np.array([True, False])[:, None, None])
        assert exc.value.field == "P"

    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    def test_lockstep_P_validates_every_entry(self, make):
        # a lockstep column was compared as one truth value before, so
        # validate() raised numpy's "truth value ... ambiguous" ValueError
        make(P=np.array([0.5, 2.0])[:, None, None]).validate()
        make(P=np.array([0.0, 0.0])[:, None, None]).validate()
        for bad in (-0.5, np.nan, np.inf):
            p = make(P=np.array([0.5, bad, 2.0])[:, None, None])
            with pytest.raises(ParameterError, match="nonnegative and finite") as exc:
                p.validate()
            assert exc.value.field == "P"
            with pytest.raises(ParameterError) as exc:
                integrate_ensemble(p, IntegratorConfig(method="rk4-fixed", dt=0.01, t_end=0.1),
                                   EnsembleSpec(count=2, radius=1.0, seed=0))
            assert exc.value.field == "P"

    def test_activation_bound_is_a_float(self):
        want = mk_mhnn(activations=(ActivationSpec("tanh-scaled", 1.0),
                                    ActivationSpec("sine-clamped", 2.0)))
        p = mk_mhnn(activations=(ActivationSpec("tanh-scaled", 1),
                                 ActivationSpec("sine-clamped", np.float64(2.0))))
        assert [type(a.beta) for a in p.activations] == [float, float]
        assert p.digest() == want.digest()
        with pytest.raises(ParameterError, match="boolean") as exc:
            mk_mhnn(activations=(ActivationSpec("tanh-scaled", 1.0),
                                 ActivationSpec("tanh-scaled", True)))
        assert exc.value.field == "activations[1].beta"
        with pytest.raises(ParameterError, match="boolean") as exc:
            ActivationSpec("tanh-scaled", True).validate()
        assert exc.value.field == "activation.beta"

    def test_infinite_activation_bound_rejected(self):
        with pytest.raises(ParameterError) as exc:
            mk_mhnn(activations=(ActivationSpec("tanh-scaled", np.inf),) * 2).validate()
        assert exc.value.field == "activations[0].beta"

    def test_hebbian_assumption(self):
        with pytest.raises(ParameterError, match="eta"):
            mk_hebbian(a=[0.4, 0.4]).validate()

    def test_hebbian_w0_binary(self):
        with pytest.raises(ParameterError):
            mk_hebbian(w0=np.full((2, 2), 0.5)).validate()

    def test_norm_excludes_weights(self):
        # a Hebbian state (u, rho, w row-major) whose weights are all 100
        traj = Trajectory(times=np.zeros(1), states=np.array([[3.0, 4.0, 0.0] + [100.0] * 4]),
                          m=2)
        assert np.array_equal(traj.norm_sq_series(), [25.0])


def perturbed(p, name: str):
    """p with field ``name`` moved to another valid value."""
    value = getattr(p, name)
    if name == "activations":
        value = (ActivationSpec(value[0].kind, 0.5 * value[0].beta),) + value[1:]
    elif name == "coupling_kind":
        value = "linear"
    elif name == "w0":
        value = 1.0 - value
    else:
        value = 1.1 * value + 0.01
    return dataclasses.replace(p, **{name: value})


def what_is_read(p) -> list:
    """Everything computed from p: the field at fixed states, the derivation,
    the extremes and the initial states, as bytes or reprs."""
    p.validate()
    d = constants_module._derive(p)
    make = make_hebbian_rhs if isinstance(p, HebbianParams) else make_mhnn_rhs
    y = np.random.default_rng(3).standard_normal((4, p.dim))
    states = analysis_module._initial_states(p, EnsembleSpec(count=3, radius=2.0, seed=0))
    return [make(p)(y).tobytes(), repr(d.dc), repr(d.N_terms), repr(d.B),
            repr(constants_module.derive_extremes(p)), states.tobytes()]


READ_FIELDS = ([("mhnn", f.name) for f in dataclasses.fields(MhnnParams) if f.name != "m"]
               + [("hebbian", f.name) for f in dataclasses.fields(HebbianParams)
                  if f.name not in ("m", "coupling_kind")])


class TestEveryFieldRead:
    """Every parameter field changes something that is computed from it: a
    field that nothing reads is a setting that only looks like one. The mHNN
    is weakly coupled, the only coupling that reads r and V; m is left out,
    as the shapes follow it, and so is the Hebbian coupling_kind, which has
    one legal value."""

    @pytest.mark.parametrize("model, name", READ_FIELDS, ids=[f"{m}-{n}" for m, n in READ_FIELDS])
    def test_perturbing_the_field_changes_a_result(self, model, name):
        rng = np.random.default_rng(8)
        p = draw_hebbian(rng, 3) if model == "hebbian" else draw_mhnn(rng, 3)
        p = dataclasses.replace(p, P=0.7)
        assert what_is_read(perturbed(p, name)) != what_is_read(p)


class TestParameterMemory:
    """A parameter set whose vectors (8*m bytes each) and matrices (8*m^2
    bytes each) exceed the machine's memory raises MemoryError, naming m,
    before anything is filled to length m."""

    SCALARS = {mk_mhnn: dict(a=2.0, eta=1.0, J=0.0, gamma=1.0, w=0.0),
               mk_hebbian: dict(a=2.0, k=1.0, eta=1.0, J=0.0, gamma=1.0, c=1.0, lam=1.0,
                                w0=1.0)}

    @pytest.mark.parametrize("make, m", [
        (mk_mhnn, 10**9),          # the four vectors alone take 32 GB
        (mk_mhnn, 12_000),         # w takes 1.15 GB, the vectors 0.4 MB
        (mk_hebbian, 10**9),
        (mk_hebbian, 7_000),       # c, lambda and w0 take 1.18 GB
    ])
    def test_too_large_m_raises_before_allocating(self, make, m, monkeypatch):
        monkeypatch.setattr(model_module, "_memory_bytes", lambda: 2**30)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=f"^m = {m}: "):
                make(m=m, **self.SCALARS[make])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("memory", [2**30, None])
    @pytest.mark.parametrize("make", [mk_mhnn, mk_hebbian])
    def test_fitting_m_is_built(self, make, memory, monkeypatch):
        # 240 kB of Hebbian matrices at m = 100; no bound where the probe cannot tell
        monkeypatch.setattr(model_module, "_memory_bytes", lambda: memory)
        p = make(m=100, **self.SCALARS[make])
        assert p.a.shape == (100,) and p.eta.shape == (100,)

    def test_probe_reports_memory(self):
        assert model_module._memory_bytes() > 0


def drawn_field(model, m, seed):
    """The generator, a draw with every activation kind and P = 0.7, and the
    field factory, for the Hebbian model or an mHNN coupling."""
    if model == "hebbian":
        rng, p = TestHebbianBatch().mixed(m, seed)
        return rng, p, make_hebbian_rhs
    rng, p = mixed_mhnn(m, seed, model)
    return rng, p, make_mhnn_rhs


class TestBlockEvaluator:
    """rhs.block(lead), the field's binder on the node-major blocks that
    integrate steps, gives bitwise the values of the public rhs(y)."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 10)],
                             ids=["single", "one-member", "batch", "lockstep"])
    @pytest.mark.parametrize("m", [3, 9])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_block_equals_rhs(self, model, m, lead, order):
        rng, p, make = drawn_field(model, m, 200 + m)
        if len(lead) == 2:
            p = dataclasses.replace(p, P=np.array([0.0, 0.7, 25.0])[:, None, None])
        y = np.asarray(rng.normal(scale=3.0, size=lead + (p.dim,)), order=order)
        rhs = make(p)
        want = rhs(y)
        Y = model_module.node_major(y)
        assert Y.flags.c_contiguous and Y.shape == (p.dim, max(1, y.size // p.dim))
        bind = rhs.block(lead)
        got = bind(Y, np.empty(Y.shape))()
        assert got.shape == Y.shape
        assert np.array_equal(model_module.logical(got, y.shape), want)
        # a second binding of the same state gives the same bits in its own block
        again = bind(Y, np.empty(Y.shape))()
        assert np.array_equal(again, got)
        assert not np.shares_memory(again, got) and not np.shares_memory(got, Y)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 10)], ids=["single", "batch", "lockstep"])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_bound_evaluator_writes_its_block(self, model, lead):
        rng, p, make = drawn_field(model, 4, 250)
        if len(lead) == 2:
            p = dataclasses.replace(p, P=np.array([0.0, 0.7, 25.0])[:, None, None])
        bind = make(p).block(lead)
        Y = model_module.node_major(rng.normal(scale=3.0, size=lead + (p.dim,)))
        dY = np.full(Y.shape, np.nan)
        given = Y.copy()
        evaluate = bind(Y, dY)
        assert np.isnan(dY).all()                 # binding evaluates nothing
        assert evaluate() is dY
        assert np.array_equal(Y, given)           # only dY is written
        assert np.array_equal(dY, bind(Y, np.empty(Y.shape))())
        # the views follow Y's buffer: new contents give their own derivative
        Y[...] = rng.normal(scale=3.0, size=Y.shape)
        evaluate()
        assert np.array_equal(dY, bind(Y, np.empty(Y.shape))())

    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_bound_evaluator_allocates_no_block(self, model):
        # a ufunc over a row broadcast down the block iterates through a buffer
        # of at most 8192 elements (64 kB), whatever the batch; at 2048 members
        # an (m, members) block is larger, so a block-sized temporary shows
        rng, p, make = drawn_field(model, 6, 260)
        Y = model_module.node_major(rng.normal(scale=3.0, size=(2048, p.dim)))
        evaluate = make(p).block((2048,))(Y, np.empty(Y.shape))
        evaluate()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * p.m * 2048


class TestBoundEvaluatorMemory:
    """A bound call allocates nothing that grows with the batch: no ufunc takes
    a row broadcast down a block, which makes numpy allocate an iterator buffer
    of up to 8192 elements on every call, 7.3 kB at 128 members and 66.7 kB at
    2048 over 100 calls."""

    @staticmethod
    def peak(model, P_form, members):
        rng, p, make = drawn_field(model, 6, 270)
        lead = (members,)
        if P_form == "lockstep":
            p = dataclasses.replace(p, P=np.array([0.7, 25.0])[:, None, None])
            lead = (2, members // 2)
        Y = model_module.node_major(rng.normal(scale=3.0, size=lead + (p.dim,)))
        evaluate = make(p).block(lead)(Y, np.empty(Y.shape))
        evaluate()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                evaluate()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("P_form", ["scalar", "lockstep"])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_peak_is_small_and_independent_of_the_batch(self, model, P_form):
        small, large = self.peak(model, P_form, 128), self.peak(model, P_form, 2048)
        assert large <= small < 2048, (small, large)

    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_a_field_is_freed_by_its_last_reference(self, model):
        # no reference cycle keeps a field and its blocks until the next full
        # collection, which an ensemble run per P would pile up
        rng, p, make = drawn_field(model, 6, 271)
        rhs = make(p)
        y = rng.normal(size=(5, p.dim))
        rhs(y), rhs(y[0])
        field = weakref.ref(rhs.block)
        gc.disable()
        try:
            del rhs
            assert field() is None
        finally:
            gc.enable()


def node_sum(rows):
    """The sum of the rows, one after another: the fields' order over nodes and
    over the columns of their constant matrix."""
    return functools.reduce(np.add, rows)


def field_oracle(p, y):
    """The field of either model at the (..., dim) batch y, transcribed from
    the operation order that model._node_major_field and the models' terms
    document, with plain numpy: broadcasting on node-major (dim, members)
    arrays, a left-to-right sum over the columns of the constant matrix M
    against the stacked rows Z = [P*u; g; (rho*u)*rho; (P*S)*u; u; rho; 1]
    for the mHNN, with W's column j scaled by beta_j, and Z = [P*u; (P*S)*u;
    u; rho; 1] for the Hebbian field, which then adds s*u and W f by
    np.einsum, which the field takes with numpy's C einsum; no bound
    evaluator."""
    m, lead = p.m, y.shape[:-1]
    Y = np.ascontiguousarray(y.reshape(-1, p.dim).T)
    P = np.broadcast_to(p.P, lead + (1,)).reshape(-1) if np.ndim(p.P) else p.P
    u, rho = Y[:m], Y[m]
    # beta*tanh(scale*u), or beta*sin(u) on the sine-clamped nodes
    scale = np.array([{"tanh-scaled": 1.0, "logistic-centered": 0.5}.get(a.kind, 1.0)
                      for a in p.activations])[:, None]
    sine = np.array([a.kind == "sine-clamped" for a in p.activations])[:, None]
    beta = np.array([a.beta for a in p.activations])[:, None]
    g = np.where(sine, np.sin(u), np.tanh(scale * u))
    f = g * beta
    coupled = np.any(p.P != 0.0)
    linear = coupled and p.coupling_kind == "linear"
    # (M column, Z row) pairs: the Laplacian L = 11^T - m*I against P*u under
    # linear coupling, the mHNN's W*beta against g and -k*eta against
    # rho^2*u, -1 against P*S*u under weak coupling, then u's coefficients
    # with gamma below, -b against rho and J against ones
    pairs = []
    if linear:
        L = np.ones((m, m)) - m * np.eye(m)
        pairs += [(np.append(L[:, j], 0.0), P * u[j]) for j in range(m)]
    if isinstance(p, HebbianParams):
        W = Y[m + 1:].reshape(m, m, -1)
        s = (p.eta[:, None] - rho) * rho * p.k[:, None]
        dW = f[:, None] * f[None, :] * p.lam[..., None] + (-p.c)[..., None] * W
        u_coef = -p.a
    else:
        pairs += [(np.append(p.w[:, j] * beta[j], 0.0), g[j]) for j in range(m)]
        window = np.diag(-p.k * p.eta)
        pairs += [(np.append(window[:, j], 0.0), rho * u[j] * rho) for j in range(m)]
        dW = np.empty((0, Y.shape[1]))
        u_coef = p.k - p.a
    if coupled and p.coupling_kind != "linear":
        sigmoid = np.tanh((u - p.V) * (0.5 * p.r)) * 0.5 + 0.5
        PS = P * node_sum(sigmoid)
        pairs += [(np.append(-np.eye(m)[:, j], 0.0), PS * u[j]) for j in range(m)]
    pairs += [(np.append(np.diag(u_coef)[:, j], p.gamma[j]), u[j]) for j in range(m)]
    pairs += [(np.append(np.zeros(m), -p.b), rho), (np.append(p.J, 0.0), np.ones_like(rho))]
    du_rho = node_sum([column[:, None] * row for column, row in pairs])
    du = du_rho[:m]
    if isinstance(p, HebbianParams):
        du = du + s * u + np.einsum("ijn,jn->in", W, f)
    dY = np.concatenate([du, du_rho[m:], dW.reshape(-1, Y.shape[1])])
    return dY.T.reshape(y.shape)


class TestFieldOracle:
    """Each field is bitwise the plain-numpy transcription of its documented
    operation order above. The stepper tests compare steppers that call the
    same fields, so they cannot see a field whose bits drift; this can."""

    @pytest.mark.parametrize("P_form", ["scalar", "column"])
    @pytest.mark.parametrize("m", [3, 9])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_field_is_the_oracle_bitwise(self, model, m, P_form):
        rng, p, make = drawn_field(model, m, 500 + m)
        lead = (7,)
        if P_form == "column":
            p = dataclasses.replace(p, P=np.array([0.0, 0.7, 25.0])[:, None, None])
            lead = (3, 7)
        for draw in range(3):
            y = rng.normal(scale=3.0, size=lead + (p.dim,))
            want = field_oracle(p, y)
            assert np.array_equal(make(p)(y), want), draw
            assert np.array_equal(make(p)(np.asfortranarray(y)), want), draw


# sine-clamped rows as s, tanh-scaled as t, logistic-centered as l
SINE_LAYOUTS = {
    "none": "tltltlt",
    "one": "tltsltl",
    "two-apart": "tsltlst",
    "run": "tlssslt",
    "uneven": "stsltls",
    "all": "sssssss",
    "all-tanh": "ttttttt",
    "sine-no-logistic": "ttsttst",
}


class TestSineLayouts:
    """The activation binds its sine-clamped rows as slices, one per
    contiguous run, and takes tanh of u itself when no node is
    logistic-centered. Every layout gives the oracle's bits, on a batch, a
    lockstep P and a lone member."""

    KINDS = {"s": "sine-clamped", "t": "tanh-scaled", "l": "logistic-centered"}

    @pytest.mark.parametrize("rows, want", [
        ([], []),
        ([3], [slice(3, 4)]),
        ([1, 5], [slice(1, 2), slice(5, 6)]),
        ([2, 3, 4], [slice(2, 5)]),
        ([0, 3, 6], [slice(0, 1), slice(3, 4), slice(6, 7)]),
        ([0, 2, 6], [slice(0, 1), slice(2, 3), slice(6, 7)]),
        ([0, 1, 5], [slice(0, 2), slice(5, 6)]),
        ([0, 1, 3, 4], [slice(0, 2), slice(3, 5)]),
        (list(range(7)), [slice(0, 7)]),
    ])
    def test_rows_are_few_slices(self, rows, want):
        assert model_module._row_slices(rows) == want

    @pytest.mark.parametrize("layout", SINE_LAYOUTS)
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_field_is_the_oracle_bitwise(self, model, layout):
        rng, p, make = drawn_field(model, 7, 600)
        acts = tuple(ActivationSpec(self.KINDS[c], float(beta))
                     for c, beta in zip(SINE_LAYOUTS[layout], rng.uniform(0.5, 1.5, p.m)))
        p = dataclasses.replace(p, activations=acts)
        lockstep = dataclasses.replace(p, P=np.array([0.0, 0.7, 25.0])[:, None, None])
        rhs, rhs_lockstep = make(p), make(lockstep)
        for draw in range(2):
            y = rng.normal(scale=3.0, size=(5, p.dim))
            want = field_oracle(p, y)
            assert np.array_equal(rhs(y), want), draw
            for i in range(5):
                assert np.array_equal(rhs(y[i]), want[i]), (draw, i)
            ys = rng.normal(scale=3.0, size=(3, 5, p.dim))
            assert np.array_equal(rhs_lockstep(ys), field_oracle(lockstep, ys)), draw


class TestLoneMember:
    """A lone member runs as a two-member block, so its derivative is bitwise its
    row in a batch of five: as a single state, as a one-member batch and through
    the field's binder on a (1, 1) lockstep lead."""

    @pytest.mark.parametrize("m", [2, 3, 6, 8, 9, 12])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_lone_rows_equal_batch_rows(self, model, m):
        # three large gamma draws besides the drawn one: a last-bit change of
        # the drho sum is lost next to b*rho when gamma.u is small
        rng, p, make = drawn_field(model, m, 400 + m)
        for draw in range(4):
            q = p if draw == 0 else dataclasses.replace(p, gamma=rng.normal(scale=3.0, size=m))
            y = rng.normal(scale=3.0, size=(5, p.dim))
            rhs = make(q)
            want = rhs(y)
            lockstep = make(dataclasses.replace(q, P=np.full((1, 1, 1), q.P))).block((1, 1))
            for i in range(5):
                assert np.array_equal(rhs(y[i]), want[i]), (draw, i)
                assert np.array_equal(rhs(y[i:i + 1]), want[i:i + 1]), (draw, i)
                Y = model_module.node_major(y[i].reshape(1, 1, -1))
                got = lockstep(Y, np.empty(Y.shape))()
                assert got.shape == (p.dim, 1)
                assert np.array_equal(got[:, 0], want[i]), (draw, i)


class TestStateWidth:
    """A state of the wrong width raises ParameterError naming ``state`` when
    the field binds it: before, an mHNN batch one component too wide came
    back with a column never written, and other widths failed in a reshape
    or broadcast that did not say why."""

    @pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 5)],
                             ids=["single", "one-member", "batch", "lockstep"])
    @pytest.mark.parametrize("extra", [-1, 1, 4])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_rhs_names_the_state(self, model, extra, lead):
        rng, p, make = drawn_field(model, 2, 700)
        width = p.dim + extra
        with pytest.raises(ParameterError, match=f"expected {p.dim} components per state, "
                                                 f"got {width}") as exc:
            make(p)(rng.normal(size=lead + (width,)))
        assert exc.value.field == "state"

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["lone", "members"])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_binding_checks_before_any_call(self, model, lead):
        rng, p, make = drawn_field(model, 3, 701)
        bind = make(p).block(lead)
        for width in (p.dim - 1, p.dim + 1):
            Y = model_module.node_major(rng.normal(size=lead + (width,)))
            with pytest.raises(ParameterError) as exc:
                bind(Y, np.empty(Y.shape))
            assert exc.value.field == "state"

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("model", ["hebbian", *COUPLINGS])
    def test_integrate_names_the_state(self, model, method):
        # an mHNN run from (5, 4) starts at m = 2 stepped a column never written
        rng, p, make = drawn_field(model, 2, 702)
        cfg = IntegratorConfig(method=method, dt=1e-2, t_end=0.1)
        for width in (p.dim - 1, p.dim + 1):
            with pytest.raises(ParameterError) as exc:
                integrate(make(p), rng.normal(size=(5, width)), cfg)
            assert exc.value.field == "state"


class TestEinsumBinding:
    """The field's einsum is numpy's C kernel, which np.einsum calls without
    optimize: the same bits on every subscript the fields use."""

    def test_binding_is_the_c_kernel(self):
        assert model_module.c_einsum is not np.einsum
        assert type(model_module.c_einsum).__name__ == "builtin_function_or_method"

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("m", [3, 9])
    def test_subscripts_match_np_einsum(self, m, n):
        rng = np.random.default_rng(300 + 10 * m + n)
        w, f = rng.normal(size=(m, m)), rng.normal(size=(m, n))
        W, gamma = rng.normal(size=(m, m, n)), rng.normal(size=m)
        for subscripts, operands in [("ij,jn->in", (w, f)), ("ijn,jn->in", (W, f)),
                                     ("in,i->n", (f, gamma))]:
            want = np.einsum(subscripts, *operands)
            got = np.empty_like(want)
            model_module.c_einsum(subscripts, *operands, out=got)
            assert np.array_equal(got, want), subscripts

    @pytest.mark.parametrize("n", [2, 3, 7, 30, 128])
    @pytest.mark.parametrize("m", range(2, 13))
    def test_wide_product_is_the_column_sum(self, m, n):
        # the fields' (m+1, K) matrix against K stacked rows, K up to 4m + 2:
        # one product per entry, summed over the columns left to right; a
        # one-member block (n = 1) sums in a kernel of its own, and no field
        # binds one
        rng = np.random.default_rng(330 + 20 * m + n)
        for K in range(1, 4 * m + 3):
            M, Z = rng.normal(size=(m + 1, K)), rng.normal(scale=3.0, size=(K, n))
            got = np.empty((m + 1, n))
            model_module.c_einsum("ij,jn->in", M, Z, out=got)
            assert np.array_equal(got, node_sum([M[:, j:j + 1] * Z[j] for j in range(K)])), K
            assert np.array_equal(got, np.einsum("ij,jn->in", M, Z)), K

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("m", [3, 9])
    def test_outer_product_is_the_broadcast_product(self, m, n):
        # the Hebbian f_i f_j: one product per entry, as the broadcast multiply takes it
        f = np.random.default_rng(310 + 10 * m + n).normal(size=(m, n))
        got = np.empty((m, m, n))
        model_module.c_einsum("in,jn->ijn", f, f, out=got)
        assert np.array_equal(got, np.einsum("in,jn->ijn", f, f))
        assert np.array_equal(got, f[:, None] * f[None, :])


class TestCopytoDotBinding:
    """The fields' copyto and RK4's dot are numpy's C functions, which np.copyto
    and np.dot call after their __array_function__ dispatch: the same bits."""

    def test_bindings_are_the_c_functions(self):
        for bound, wrapper in [(model_module.c_copyto, np.copyto), (model_module.c_dot, np.dot)]:
            assert bound is not wrapper
            assert type(bound).__name__ == "builtin_function_or_method"
        assert integrate_module.c_dot is model_module.c_dot

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("m", [3, 9])
    def test_same_bits_as_the_wrappers(self, m, n):
        rng = np.random.default_rng(320 + 10 * m + n)
        row = rng.normal(size=n)
        got, want = np.full((m, n), np.nan), np.full((m, n), np.nan)
        model_module.c_copyto(got, row)
        np.copyto(want, row)
        assert np.array_equal(got, want) and np.array_equal(got, np.tile(row, (m, 1)))
        flat = rng.normal(scale=1e3, size=m * n)
        assert model_module.c_dot(flat, flat) == np.dot(flat, flat)
        flat[-1] = np.nan
        assert np.isnan(model_module.c_dot(flat, flat))
