import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhnnsync import (
    ActivationSpec,
    HebbianParams,
    IntegratorConfig,
    MhnnParams,
    NetworkState,
    ParameterError,
    hebbian_rhs,
    integrate,
    mhnn_rhs,
    sigmoid_gamma,
    window_eval,
)
from mhnnsync.model import activation_eval, make_hebbian_rhs, make_mhnn_rhs

from draws import draw_hebbian, draw_mhnn


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
    def test_half_at_switch_point(self):
        for r, V in [(1.0, 0.0), (5.0, -2.0), (0.3, 7.5)]:
            assert sigmoid_gamma(V, r, V) == 0.5

    def test_saturation(self):
        assert sigmoid_gamma(1000.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid_gamma(-1000.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_ln3(self):
        # 1/(1 + e^{-ln 3}) = 3/4
        assert sigmoid_gamma(np.log(3.0), 1.0, 0.0) == pytest.approx(0.75, rel=1e-14)

    def test_overflow_safe(self):
        with np.errstate(over="raise"):
            assert sigmoid_gamma(1e8, 50.0, 0.0) == 1.0
            assert sigmoid_gamma(-1e8, 50.0, 0.0) == 0.0

    def test_range_and_monotone_large_sample(self):
        # [0,1] range on 10^6 random triples (exact 0/1 only from saturation);
        # strictly interior for moderate arguments; monotone in s
        rng = np.random.default_rng(42)
        s = rng.uniform(-1e3, 1e3, 10**6)
        r = rng.uniform(1e-3, 10.0, 10**6)
        V = rng.uniform(-1e2, 1e2, 10**6)
        vals = sigmoid_gamma(s, r, V)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        moderate = np.abs(r * (s - V)) < 30
        assert np.all(vals[moderate] > 0) and np.all(vals[moderate] < 1)
        s_sorted = np.sort(rng.uniform(-20, 20, 10**4))
        mono = sigmoid_gamma(s_sorted, 0.7, 1.3)
        assert np.all(np.diff(mono) > 0)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ParameterError):
            sigmoid_gamma(0.0, 0.0, 0.0)


class TestWindow:
    def test_quadratic_at_zero(self):
        assert window_eval("quadratic", 0.0, 3.7) == 1.0

    def test_strukov_williams_root(self):
        assert window_eval("strukov-williams", 2.0, 2.0) == 0.0

    def test_quadratic_hand_value(self):
        assert window_eval("quadratic", 2.0, 0.5) == -1.0

    @given(st.floats(-50, 50), st.floats(0.01, 10))
    def test_strukov_williams_identity(self, rho, eta):
        assert window_eval("strukov-williams", rho, eta) == pytest.approx(
            rho * eta - rho * rho, rel=1e-12, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            window_eval("jogelkar", 0.5, 1.0)


class TestActivations:
    @pytest.mark.parametrize("kind", ["tanh-scaled", "logistic-centered", "sine-clamped"])
    def test_bounded_everywhere(self, kind):
        rng = np.random.default_rng(3)
        s = rng.uniform(-1e6, 1e6, 10**5)
        beta = 1.7
        vals = activation_eval(kind, beta, s)
        assert np.all(np.abs(vals) <= beta + 1e-12)

    def test_logistic_centering(self):
        # beta*(2/(1+e^-s) - 1) evaluated against the raw expression
        s = np.linspace(-20, 20, 401)
        raw = 0.9 * (2.0 / (1.0 + np.exp(-s)) - 1.0)
        assert activation_eval("logistic-centered", 0.9, s) == pytest.approx(raw, abs=1e-14)

    @pytest.mark.parametrize("kind, shape", [("tanh-scaled", np.tanh),
                                             ("logistic-centered", lambda s: np.tanh(0.5 * s)),
                                             ("sine-clamped", np.sin)])
    def test_closed_form(self, kind, shape):
        s = np.linspace(-20, 20, 401)
        assert np.array_equal(activation_eval(kind, 0.8, s), 0.8 * shape(s))
        assert activation_eval(kind, 0.8, 1.3) == 0.8 * shape(1.3)

    def test_odd_at_origin(self):
        for kind in ("tanh-scaled", "logistic-centered", "sine-clamped"):
            assert activation_eval(kind, 2.0, 0.0) == 0.0

    def test_activation_spec_validation(self):
        with pytest.raises(ParameterError):
            ActivationSpec("relu", 1.0).validate()
        with pytest.raises(ParameterError):
            ActivationSpec("tanh-scaled", 0.0).validate()


class TestMhnnRhs:
    def test_origin_reduces_to_input_currents(self):
        p = mk_mhnn(J=[0.3, -0.8], w=np.full((2, 2), 0.5), P=2.0)
        d = mhnn_rhs(p, NetworkState(u=[0.0, 0.0], rho=0.0))
        assert d.u == pytest.approx([0.3, -0.8])
        assert d.rho == 0.0

    def test_hand_substitution(self):
        # du_1 = -2*1 + 1*(1-0)*1 = -1, du_2 = -2*(-1) + 1*(-1) = 1
        p = mk_mhnn()
        d = mhnn_rhs(p, NetworkState(u=[1.0, -1.0], rho=0.0))
        assert d.u == pytest.approx([-1.0, 1.0])
        assert d.rho == pytest.approx(0.0)

    def test_linear_coupling_zero_mode(self):
        p = mk_mhnn(m=3, a=[2, 2, 2], eta=[1, 1, 1], w=np.zeros((3, 3)),
                    J=[0, 0, 0], gamma=[1, 1, 1], P=4.0, coupling_kind="linear")
        u = np.full(3, 0.37)
        base = mhnn_rhs(dataclasses.replace(p, P=0.0), NetworkState(u=u, rho=0.1))
        coupled = mhnn_rhs(p, NetworkState(u=u, rho=0.1))
        assert coupled.u == pytest.approx(base.u, abs=0.0)

    def test_dimension_mismatch(self):
        p = mk_mhnn()
        with pytest.raises(ParameterError):
            mhnn_rhs(p, NetworkState(u=[1.0, 2.0, 3.0], rho=0.0))
        with pytest.raises(ParameterError):
            mhnn_rhs(p, NetworkState(u=[1.0, 2.0], rho=0.0, weights=np.zeros((2, 2))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = draw_mhnn(rng, 5)
        u = rng.normal(size=5)
        rho = 0.4
        perm = rng.permutation(5)
        d = mhnn_rhs(p, NetworkState(u=u, rho=rho))
        p_perm = MhnnParams(
            m=5, a=p.a[perm], b=p.b, k=p.k, eta=p.eta[perm],
            w=p.w[np.ix_(perm, perm)], J=p.J[perm], gamma=p.gamma[perm],
            P=p.P, r=p.r, V=p.V,
            activations=tuple(p.activations[i] for i in perm),
            coupling_kind=p.coupling_kind)
        out = mhnn_rhs(p_perm, NetworkState(u=u[perm], rho=rho))
        assert out.u == pytest.approx(d.u[perm], rel=1e-12)
        assert out.rho == pytest.approx(d.rho, rel=1e-12)

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
    def test_origin(self):
        p = mk_hebbian(J=[0.4, -0.1])
        s = NetworkState(u=[0.0, 0.0], rho=0.0, weights=np.zeros((2, 2)))
        d = hebbian_rhs(p, s)
        assert d.u == pytest.approx([0.4, -0.1])
        assert d.rho == 0.0
        assert d.weights == pytest.approx(np.zeros((2, 2)))

    def test_memristive_term_vanishes_at_eta(self):
        p = mk_hebbian(eta=[0.8, 0.8], lam=np.zeros((2, 2)), c=np.ones((2, 2)))
        u = np.array([1.3, -0.5])
        s = NetworkState(u=u, rho=0.8, weights=np.zeros((2, 2)))
        d = hebbian_rhs(p, s)
        # rho*(eta - rho) = 0, so du reduces to -a u + J
        assert d.u == pytest.approx(-p.a * u + p.J)

    def test_pure_weight_decay(self):
        p = mk_hebbian(lam=np.zeros((2, 2)))
        s = NetworkState(u=[0.0, 0.0], rho=0.0, weights=np.ones((2, 2)))
        d = hebbian_rhs(p, s)
        assert d.weights == pytest.approx(-np.ones((2, 2)))

    def test_missing_weights(self):
        with pytest.raises(ParameterError):
            hebbian_rhs(mk_hebbian(), NetworkState(u=[0.0, 0.0], rho=0.0))


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
    def test_assumption_boundary(self):
        with pytest.raises(ParameterError, match="a_i > k"):
            mk_mhnn(k=2.0).validate()

    def test_m_too_small(self):
        p = MhnnParams(m=1, a=[2.0], b=1.0, k=1.0, eta=[1.0], w=[[0.0]],
                       J=[0.0], gamma=[0.0])
        with pytest.raises(ParameterError):
            p.validate()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ParameterError):
            MhnnParams(m=3, a=[1.0, 2.0], b=1.0, k=0.5, eta=[1, 1, 1],
                       w=np.zeros((3, 3)), J=[0, 0, 0], gamma=[0, 0, 0])

    def test_hebbian_assumption(self):
        with pytest.raises(ParameterError, match="eta"):
            mk_hebbian(a=[0.4, 0.4]).validate()

    def test_hebbian_w0_binary(self):
        with pytest.raises(ParameterError):
            mk_hebbian(w0=np.full((2, 2), 0.5)).validate()

    def test_norm_excludes_weights(self):
        s = NetworkState(u=[3.0, 4.0], rho=0.0, weights=np.full((2, 2), 100.0))
        assert s.norm_sq() == 25.0

    def test_state_vector_round_trip(self):
        s = NetworkState(u=[1.0, 2.0], rho=-0.5, weights=np.arange(4.0).reshape(2, 2))
        back = NetworkState.from_vector(s.to_vector(), 2, has_weights=True)
        assert back.u == pytest.approx(s.u)
        assert back.rho == s.rho
        assert back.weights == pytest.approx(s.weights)
