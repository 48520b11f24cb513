import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mhnnsync import (
    HebbianParams,
    MhnnParams,
    ParameterError,
    absorb_time,
    derive_constants,
    derive_extremes,
    dissipative_envelope,
    sync_rate,
    threshold,
)
from mhnnsync.constants import envelope_at_rate

from draws import draw_hebbian, draw_mhnn


def mk_mhnn(**kw):
    base = dict(m=2, a=[2.0, 2.0], b=1.0, k=1.0, eta=[1.0, 1.0],
                w=np.zeros((2, 2)), J=[1.0, 1.0], gamma=[1.0, 1.0])
    base.update(kw)
    return MhnnParams(**base)


def mk_hebbian(**kw):
    base = dict(m=2, a=[2.0, 2.0], b=1.0, k=[1.0, 1.0], eta=[1.0, 1.0],
                J=[1.0, 1.0], gamma=[1.0, 1.0], c=np.ones((2, 2)),
                lam=np.ones((2, 2)), w0=np.ones((2, 2)))
    base.update(kw)
    return HebbianParams(**base)


def brute_force_extremes(p):
    """Independent O(m^3) enumeration of every extremal statistic."""
    m = p.m
    w = p.w0 if isinstance(p, HebbianParams) else p.w
    a_star = w_star = eta_star = j_star = 0.0
    for i in range(m):
        for j in range(m):
            a_star = max(a_star, abs(p.a[i] - p.a[j]))
            eta_star = max(eta_star, abs(p.eta[i] - p.eta[j]))
            j_star = max(j_star, abs(p.J[i] - p.J[j]))
            for ell in range(m):
                w_star = max(w_star, abs(w[i, ell] - w[j, ell]))
    return dict(a_min=min(p.a), W_max=max(abs(w[i, j]) for i in range(m) for j in range(m)),
                J_max=max(abs(x) for x in p.J), gamma_max=max(abs(x) for x in p.gamma),
                a_star=a_star, W_star=w_star, eta_star=eta_star, J_star=j_star)


class TestExtremes:
    def test_homogeneous(self):
        ex = derive_extremes(mk_mhnn())
        assert ex.a_star == 0 and ex.W_star == 0 and ex.J_star == 0
        assert ex.gamma_max == 1.0

    def test_two_element(self):
        ex = derive_extremes(mk_mhnn(a=[1.0, 3.0], k=0.5))
        assert ex.a_min == 1.0 and ex.a_star == 2.0

    def test_w_star_hand_case(self):
        ex = derive_extremes(mk_mhnn(w=[[0.0, 1.0], [2.0, 0.0]]))
        assert ex.W_max == 2.0 and ex.W_star == 2.0

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            p = draw_mhnn(rng, m)
            ex = derive_extremes(p)
            for name, val in brute_force_extremes(p).items():
                assert getattr(ex, name) == pytest.approx(val, abs=0.0), name

    def test_no_cubic_temporary(self):
        # each starred value is a max - min: at m = 200 the pairwise
        # differences of w would take 61 MiB; |w| for W_max is the one
        # m x m temporary
        p = draw_mhnn(np.random.default_rng(200), 200)
        derive_extremes(p)
        tracemalloc.start()
        try:
            derive_extremes(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 200 * 200

    def test_hebbian_w0_star(self):
        p = mk_hebbian(w0=np.array([[1.0, 0.0], [0.0, 1.0]]))
        ex = derive_extremes(p)
        assert ex.W0_star == 1.0


class TestDerivedConstants:
    def test_mhnn_hand_case(self):
        dc = derive_constants(mk_mhnn())
        assert dc.scale == 3.0
        assert dc.forcing == 6.0
        assert dc.diss_rate == 1.0 / 3.0
        assert dc.bound == 19.0
        assert dc.names() == ("C1", "C2", "mu", "Q")

    def test_hebbian_hand_case(self):
        dc = derive_constants(mk_hebbian())
        assert dc.scale == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert dc.diss_rate == pytest.approx(0.6, rel=1e-15)
        # C4 = 2.5 (1 + 2 sqrt(2))^2 / 2.25, G = 1 + C4/0.6
        c4 = 2.5 * (1.0 + 2.0 * math.sqrt(2.0))**2 / 2.25
        assert dc.forcing == pytest.approx(c4, rel=1e-12)
        assert dc.bound == pytest.approx(1.0 + c4 / 0.6, rel=1e-12)

    def test_pole_and_rejection(self):
        base = derive_constants(mk_mhnn(k=1.0)).scale
        closer = derive_constants(mk_mhnn(k=1.9)).scale
        assert closer > base
        with pytest.raises(ParameterError, match="a_i > k"):
            derive_constants(mk_mhnn(k=2.0))
        with pytest.raises(ParameterError):
            derive_constants(mk_hebbian(a=[0.4, 0.4], k=[1.0, 1.0]))

    @pytest.mark.xfail(strict=True, reason="the Hebbian bar on a uses eta_min, where the "
                                           "window peaks at k eta_max^2 / 4")
    def test_hebbian_bar_uses_largest_eta(self):
        # this set passes today with G = 174.08, yet a DP5 run from
        # (0, 0, 0.1, rho = 1.5, w = 0) drives ||g||^2 to 4.0e19 by t = 10
        p = HebbianParams(m=3, a=0.3, b=0.2, k=2, eta=(0.2, 1, 3), c=1,
                          J=0, gamma=0, lam=0, w0=0)
        with pytest.raises(ParameterError) as err:
            p.validate()
        assert err.value.field == "a"

    def test_bounds_exceed_one_on_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            assert derive_constants(draw_mhnn(rng, 3)).bound > 1.0
            assert derive_constants(draw_hebbian(rng, 3)).bound > 1.0


class TestAssumptionMargins:
    """One rule per model for validate, the dissipation gap and the sync decay."""

    def test_margins_are_the_derivation_inputs(self):
        rng = np.random.default_rng(5)
        for p in (draw_mhnn(rng, 3), draw_mhnn(rng, 4, coupling="linear"), draw_hebbian(rng, 3)):
            gap, decay = p.assumption_margins()
            assert sync_rate(p, derive_constants(p), 0.0) == decay
            a_min = float(p.a.min())
            if isinstance(p, MhnnParams):
                assert gap == decay == a_min - p.k
            else:
                assert gap == a_min - 0.5 * p.k_max * p.eta_min**2
                assert decay == a_min - 0.5 * p.k_max * p.eta_min

    @pytest.mark.parametrize("a, eta", [
        (0.45, 0.9),    # gap 0.045 > 0, decay 0
        (0.65, 1.2),    # gap -0.07, decay 0.05 > 0
    ])
    def test_hebbian_rejects_either_margin(self, a, eta):
        p = mk_hebbian(a=[a, a], eta=[eta, eta])
        for call in (p.validate, p.assumption_margins, lambda: derive_constants(p),
                     lambda: threshold(p, 0.1)):
            with pytest.raises(ParameterError, match="eta") as err:
                call()
            assert err.value.field == "a"

    def test_mhnn_boundary(self):
        assert mk_mhnn(k=np.nextafter(2.0, 0.0)).assumption_margins()[0] > 0
        for call in (mk_mhnn(k=2.0).validate, lambda: derive_constants(mk_mhnn(k=2.0))):
            with pytest.raises(ParameterError, match="a_i > k") as err:
                call()
            assert err.value.field == "a"


class TestAbsorbTime:
    def test_clamped_to_zero(self):
        dc = derive_constants(mk_mhnn())
        assert absorb_time(dc, 1.0 / 3.0) == 0.0

    def test_hand_value(self):
        dc = derive_constants(mk_mhnn())
        assert absorb_time(dc, 1.0) == pytest.approx(3.0 * math.log(3.0), rel=1e-14)

    def test_unit_ratio(self):
        dc = dataclasses.replace(derive_constants(mk_mhnn()), scale=1.0)
        assert absorb_time(dc, 1.0) == 0.0


    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ParameterError) as err:
            absorb_time(derive_constants(mk_mhnn()), 0.0)
        assert err.value.field == "L"


class TestThreshold:
    def test_homogeneous_network_needs_no_coupling(self):
        for eps in (1.0, 0.01):
            assert threshold(mk_mhnn(), eps).p_star == 0.0

    def test_hand_value_weak(self):
        # J* = 1 is the only heterogeneity; Q = 19, B = 1 + e^{0.1 sqrt(19)}
        p = mk_mhnn(J=[1.0, 0.0], r=0.1)
        assert derive_constants(p).bound == 19.0
        expected = (1.0 + math.exp(0.1 * math.sqrt(19.0))) / 2.0
        thr = threshold(p, 1.0)
        assert thr.p_star == pytest.approx(expected, rel=1e-14)
        assert thr.p_star == pytest.approx(1.2731692623868032, rel=1e-12)

    def test_epsilon_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = draw_mhnn(rng, 3)
            ref = threshold(p, 1.0).p_star
            for eps in (1.0, 0.1, 0.01):
                assert threshold(p, eps).p_star * eps == pytest.approx(ref, rel=1e-12)

    def test_rate_affine_increasing(self):
        rng = np.random.default_rng(8)
        for coupling in ("weak-sigmoidal", "linear"):
            p = draw_mhnn(rng, 3, coupling=coupling)
            dc = derive_constants(p)
            rates = [sync_rate(p, dc, P) for P in (0.0, 1.0, 2.0, 5.0)]
            assert all(b > a for a, b in zip(rates, rates[1:]))
            slope1 = rates[1] - rates[0]
            assert rates[2] - rates[1] == pytest.approx(slope1, rel=1e-12)

    def test_residual_below_epsilon_at_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            kind = ("weak-sigmoidal", "linear")[int(rng.integers(2))]
            p = draw_mhnn(rng, m, coupling=kind)
            hp = draw_hebbian(rng, m)
            for q, eps in ((p, 0.5), (p, 0.05), (hp, 0.1)):
                thr = threshold(q, eps)
                if thr.p_star > 0:
                    assert thr.residual_at(thr.p_star) < eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            threshold(mk_mhnn(), 0.0)

    @pytest.mark.parametrize("model, keys", [
        ("weak-sigmoidal", ["m*W_star*beta_max", "a_star*sqrt(Q)", "k*eta_star*Q^1.5", "J_star"]),
        ("linear", ["m*W_star*beta_max", "a_star*sqrt(Q)", "k*eta_star*Q^1.5", "J_star"]),
        ("hebbian", ["a_star*sqrt(G)", "k_max*eta_star*G^1.5",
                     "2*m*beta_max*sqrt(1+weight_margin)", "J_star"]),
    ])
    def test_breakdown_terms_sum_to_N(self, model, keys):
        # p_star = N*B/(m*epsilon), with N the terms added in their order, bitwise
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            p = draw_hebbian(rng, m) if model == "hebbian" else draw_mhnn(rng, m, coupling=model)
            thr = threshold(p, 0.1)
            assert list(thr.N_terms) == keys
            assert all(v >= 0.0 for v in thr.N_terms.values())
            total = 0.0
            for v in thr.N_terms.values():
                total = total + v
            assert total == thr.N
            assert thr.N * thr.B / (m * 0.1) == thr.p_star
            if model == "weak-sigmoidal":
                Q = derive_constants(p).bound
                assert thr.B == 1.0 + math.exp(p.r * (math.sqrt(Q) + abs(p.V)))
            else:
                assert thr.B == 1.0

    def test_breakdown_hand_values(self):
        # test_hand_value_weak's case: J* = 1 is the only heterogeneity, Q = 19
        thr = threshold(mk_mhnn(J=[1.0, 0.0], r=0.1), 1.0)
        assert thr.N_terms == {"m*W_star*beta_max": 0.0, "a_star*sqrt(Q)": 0.0,
                               "k*eta_star*Q^1.5": 0.0, "J_star": 1.0}
        assert thr.N == 1.0 and thr.B == 1.0 + math.exp(0.1 * math.sqrt(19.0))

    @pytest.mark.parametrize("model", ["mhnn", "hebbian"])
    def test_rejects_infinite_epsilon(self, model):
        # p_star = N*B/(m*epsilon) would be 0.0 at epsilon = inf: a vacuous guarantee
        p = mk_mhnn() if model == "mhnn" else draw_hebbian(np.random.default_rng(3), 3)
        with pytest.raises(ParameterError) as err:
            threshold(p, math.inf)
        assert err.value.field == "epsilon"


class TestEnvelopes:
    def test_dissipative_t_zero_unit_scale(self):
        dc = dataclasses.replace(derive_constants(mk_mhnn()), scale=1.0)
        g0 = 7.0
        assert dissipative_envelope(dc, 0.0, g0) == pytest.approx(g0 + dc.bound - 1.0)

    def test_dissipative_hand_value(self):
        # C1=3, mu=1/3, C2=6: at t = 3 ln 3 the transient factor is exactly 1/3
        dc = derive_constants(mk_mhnn())
        val = dissipative_envelope(dc, 3.0 * math.log(3.0), 1.0)
        assert val == pytest.approx(19.0, rel=1e-14)

    def test_dissipative_monotone_with_limit(self):
        dc = derive_constants(mk_mhnn(a=[2.5, 3.0], k=0.4, gamma=[0.2, -0.1]))
        t = np.linspace(0.0, 200.0, 500)
        env = dissipative_envelope(dc, t, 40.0)
        assert np.all(np.diff(env) <= 0)
        assert env[-1] == pytest.approx(dc.bound - 1.0, rel=1e-12)

    def test_gap_envelope_homogeneous(self):
        p = mk_mhnn(P=1.0)
        dc = derive_constants(p)
        mu = sync_rate(p, dc, 1.0)
        t = 0.7
        thr = threshold(p, 0.1)
        assert thr.residual_at(1.0) == 0.0
        assert envelope_at_rate(thr.rate_at(1.0), thr.residual_at(1.0), t, 4.0) == pytest.approx(
            math.exp(-mu * t) * 4.0)

    def test_gap_envelope_at_zero(self):
        p = mk_mhnn(J=[1.0, 0.0], P=2.0)
        thr = threshold(p, 0.1)
        R = thr.residual_at(2.0)
        assert envelope_at_rate(thr.rate_at(2.0), R, 0.0, 9.0) == pytest.approx(9.0 + R**2)
