import dataclasses
import tracemalloc

import numpy as np
import pytest

from mhnnsync import (
    BlowUpError,
    EnsembleSpec,
    IntegratorConfig,
    MhnnParams,
    ParameterError,
    Trajectory,
    UndefinedFitError,
    estimate_sync_degree,
    fit_decay_rate,
    pairwise_gap_series,
    sweep_coupling,
    threshold,
    verify_guarantees,
)
from mhnnsync import analysis
from mhnnsync.analysis import integrate_ensemble, sample_initial_states

from draws import draw_hebbian, draw_mhnn


def count_derivations(monkeypatch) -> list:
    """One entry per derive_extremes call from here on."""
    calls = []
    derive_real = analysis.cst.derive_extremes
    monkeypatch.setattr(analysis.cst, "derive_extremes",
                        lambda q: calls.append(1) or derive_real(q))
    return calls


def make_traj(times, u, m):
    states = np.column_stack([u, np.zeros(len(times))])
    return Trajectory(times=np.asarray(times, float), states=states, m=m)


class TestGapSeries:
    def test_three_nodes(self):
        traj = make_traj([0.0], np.array([[1.0, 4.0, 2.0]]), 3)
        assert pairwise_gap_series(traj) == pytest.approx([3.0])

    def test_equal_nodes(self):
        traj = make_traj([0.0, 1.0], np.array([[0.7, 0.7], [0.2, 0.2]]), 2)
        assert pairwise_gap_series(traj) == pytest.approx([0.0, 0.0])

    def test_symmetric_pair(self):
        traj = make_traj([0.0], np.array([[0.5, -0.5]]), 2)
        assert pairwise_gap_series(traj) == pytest.approx([1.0])

    @pytest.mark.parametrize("m", [2, 3, 6, 9])
    def test_batched_record_matches_max_minus_min(self, m):
        # a (n_rec, count, m+1) record: the gap is bitwise max - min over the nodes
        rng = np.random.default_rng(m)
        states = rng.normal(size=(40, 7, m + 1))
        traj = Trajectory(times=np.arange(40.0), states=states, m=m)
        u = states[..., :m]
        assert np.array_equal(pairwise_gap_series(traj), u.max(axis=-1) - u.min(axis=-1))


class TestSyncDegree:
    def test_constant_gap(self):
        times = np.linspace(0, 10, 101)
        u = np.column_stack([np.zeros(101), np.full(101, 0.3)])
        deg = estimate_sync_degree([make_traj(times, u, 2)], 0.2)
        assert deg == pytest.approx(0.3)

    def test_decoupled_equilibria(self):
        # two near-linear decoupled nodes: u_i -> J_i/a_i, tail gap -> 1
        p = MhnnParams(m=2, a=[1.0, 1.0], b=1.0, k=1e-9, eta=[1.0, 1.0],
                       w=np.zeros((2, 2)), J=[1.0, 2.0], gamma=[0.0, 0.0], P=0.0)
        cfg = IntegratorConfig(dt=1e-2, t_end=30.0, record_stride=10)
        ens = EnsembleSpec(count=2, radius=1.0, seed=4)
        batch = integrate_ensemble(p, cfg, ens)
        deg = estimate_sync_degree([batch.member(j) for j in range(2)], 0.2)
        assert deg == pytest.approx(1.0, abs=1e-6)

    def test_empty_ensemble(self):
        with pytest.raises(ValueError):
            estimate_sync_degree([], 0.2)


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0, 4, 400)
        assert fit_decay_rate(t, np.exp(-2.0 * t), 0.0) == pytest.approx(2.0, rel=0.01)

    def test_plateau(self):
        t = np.linspace(0, 5, 2000)
        gap = 0.5 * np.exp(-3.0 * t) + 0.01
        assert fit_decay_rate(t, gap, floor=0.01) == pytest.approx(3.0, rel=0.10)

    def test_constant_at_floor(self):
        t = np.linspace(0, 1, 100)
        with pytest.raises(UndefinedFitError):
            fit_decay_rate(t, np.full(100, 0.01), floor=0.01)

    def test_too_few_points(self):
        with pytest.raises(UndefinedFitError):
            fit_decay_rate(np.array([0, 1, 2.0]), np.array([1.0, 0.5, 0.2]), 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_polyfit(self, seed):
        # the closed-form slope against numpy's least-squares line fit
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 6.0, 300))
        gap = 0.02 + 2.0 * np.exp(-rng.uniform(0.5, 4.0) * t + rng.normal(scale=0.05, size=300))
        floor = 0.01
        end = np.nonzero(gap < 2 * floor)[0]
        end = end[0] if end.size else len(t)
        g = gap[:end] - floor
        keep = g > 0
        slope = np.polyfit(t[:end][keep], np.log(g[keep]), 1)[0]
        assert fit_decay_rate(t, gap, floor) == pytest.approx(-slope, rel=1e-12)

    def test_points_at_one_time(self):
        with pytest.raises(UndefinedFitError):
            fit_decay_rate(np.zeros(6), np.linspace(1.0, 0.5, 6), 0.0)


class TestSampling:
    def test_seed_reproducible(self):
        ens = EnsembleSpec(count=50, radius=3.0, seed=99)
        a = sample_initial_states(ens, 4)
        b = sample_initial_states(ens, 4)
        assert np.array_equal(a, b)

    def test_within_radius(self):
        ens = EnsembleSpec(count=500, radius=2.5, seed=1)
        pts = sample_initial_states(ens, 6)
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.5)


class TestEnsembleIntegerFields:
    """count and seed are integers: a fraction or a boolean is rejected with
    the field's path, not truncated or left to numpy, and an integral float is
    kept as an int."""

    @pytest.mark.parametrize("field", ["count", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, np.True_, "x", None])
    def test_non_integer_rejected(self, field, value):
        ens = EnsembleSpec(**{field: value})
        with pytest.raises(ParameterError) as err:
            ens.validate()
        assert err.value.field == f"ensemble.{field}"
        with pytest.raises(ParameterError):
            sample_initial_states(ens, 3)

    def test_integral_floats_kept_as_ints(self):
        ens = EnsembleSpec(count=4.0, radius=2.0, seed=9.0)
        got = sample_initial_states(ens, 3)
        assert type(ens.count) is int and type(ens.seed) is int
        want = sample_initial_states(EnsembleSpec(count=4, radius=2.0, seed=9), 3)
        assert np.array_equal(got, want)


class TestVerify:
    def test_homogeneous_passes(self):
        rng = np.random.default_rng(2)
        p = dataclasses.replace(draw_mhnn(rng, 3, homogeneous=True), P=0.0)
        cfg = IntegratorConfig(dt=2e-3, t_end=10.0, record_stride=5)
        ens = EnsembleSpec(count=3, radius=2.0, seed=5)
        rep = verify_guarantees(p, cfg, ens, epsilon=0.5)
        assert rep.verdict == "pass"
        assert not rep.violations
        assert rep.p_star == 0.0

    def test_seeded_determinism(self):
        rng = np.random.default_rng(6)
        p = dataclasses.replace(draw_mhnn(rng, 2), P=2.0)
        cfg = IntegratorConfig(dt=2e-3, t_end=8.0, record_stride=4)
        ens = EnsembleSpec(count=3, radius=4.0, seed=11)
        a = verify_guarantees(p, cfg, ens, 0.3)
        b = verify_guarantees(p, cfg, ens, 0.3)
        assert a.to_dict() == b.to_dict()

    def test_hebbian_weight_decay_without_learning(self):
        rng = np.random.default_rng(12)
        p = dataclasses.replace(draw_hebbian(rng, 2), lam=np.zeros((2, 2)), P=1.0)
        cfg = IntegratorConfig(dt=2e-3, t_end=8.0, record_stride=4)
        ens = EnsembleSpec(count=2, radius=2.0, seed=8)
        batch = integrate_ensemble(p, cfg, ens)
        w_sq = batch.states[..., p.m + 1:]**2
        # lambda = 0: every squared weight decays monotonically and stays below w0^2
        assert np.all(np.diff(w_sq.sum(axis=-1), axis=0) <= 1e-12)
        assert np.all(w_sq <= p.w0.ravel()**2 + 1e-12)
        rep = verify_guarantees(p, cfg, ens, 0.5)
        assert not [v for v in rep.violations if v.check == "weight"]

    def test_constants_derived_once_per_call(self, monkeypatch):
        # the envelope's rate and residual do not depend on the member, so the
        # closed-form work of a verify call must not grow with the ensemble
        rng = np.random.default_rng(13)
        p = dataclasses.replace(draw_hebbian(rng, 2), P=1.0)
        cfg = IntegratorConfig(dt=2e-3, t_end=2.0, record_stride=4)
        calls = count_derivations(monkeypatch)
        counts = []
        for count in (2, 6):
            calls.clear()
            verify_guarantees(p, cfg, EnsembleSpec(count=count, radius=2.0, seed=8), 0.5)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("model", ["weak-sigmoidal", "linear", "hebbian"])
    def test_threshold_maps_share_one_derivation(self, monkeypatch, model):
        rng = np.random.default_rng(18)
        p = draw_hebbian(rng, 3) if model == "hebbian" else draw_mhnn(rng, 3, coupling=model)
        calls = count_derivations(monkeypatch)
        thr = threshold(p, 0.3)
        thr.rate_at(thr.p_star)
        thr.residual_at(thr.p_star)
        assert len(calls) == 1


def _check_ensemble_per_member(p, batch, ens, epsilon, p_star, d):
    """The checks of verify_guarantees as one loop over the members, kept as the
    reference for the member-vectorized analysis._check_ensemble."""
    cst = analysis.cst
    dc = d.dc
    rate_theory = d.rate(p.P)
    residual = d.residual(p.P)
    hebbian = isinstance(p, analysis.HebbianParams)

    times = batch.times
    norm_sq = batch.norm_sq_series()           # (n, count)
    gaps = pairwise_gap_series(batch)          # (n, count)

    entry_times: list = []
    violations: list = []
    fitted: list = []
    if hebbian:
        weight_bound = p.w0**2 + d.weight_margin

    for j in range(ens.count):
        ns = norm_sq[:, j]
        # (i) dissipative envelope from the initial squared norm
        env = cst.dissipative_envelope(dc, times, ns[0])
        bad = np.nonzero(ns > env + analysis._tolerance(env))[0]
        for i in bad:
            violations.append(analysis.EnvelopeViolation(j, float(times[i]), float(ns[i]),
                                                         float(env[i]), "dissipative"))
        # (ii) gap envelope from the first recorded sample inside the ball
        inside = np.nonzero(ns < dc.bound)[0]
        if inside.size:
            e = int(inside[0])
            entry_times.append(float(times[e]))
            genv = cst.envelope_at_rate(rate_theory, residual, times[e:] - times[e],
                                        gaps[e, j]**2)
            bad = np.nonzero(gaps[e + 1:, j]**2 > genv[1:] + analysis._tolerance(genv[1:]))[0]
            for i in bad:
                violations.append(analysis.EnvelopeViolation(j, float(times[e + 1 + i]),
                                                             float(gaps[e + 1 + i, j]**2),
                                                             float(genv[1 + i]), "gap"))
            try:
                fitted.append(fit_decay_rate(times[e:], gaps[e:, j], floor=residual))
            except UndefinedFitError:
                pass
        else:
            entry_times.append(None)
        # (iii) Hebbian weight ultimate bound, elementwise
        if hebbian:
            w_sq = batch.states[:, j, p.m + 1:].reshape(-1, p.m, p.m)**2
            excess = w_sq - (weight_bound + analysis._tolerance(weight_bound))
            bad_t, bi, bj = np.nonzero(excess > 0)
            for i, wi, wj in zip(bad_t, bi, bj):
                violations.append(analysis.EnvelopeViolation(j, float(times[i]),
                                                             float(w_sq[i, wi, wj]),
                                                             float(weight_bound[wi, wj]),
                                                             "weight"))

    tail = times >= (1.0 - ens.tail_fraction) * times[-1]
    deg = float(gaps[tail].max())
    fitted_rate = float(np.median(fitted)) if fitted else None
    verdict = "pass" if (deg < epsilon and not violations) else "fail"
    return analysis.SyncReport(deg_estimate=deg, epsilon=epsilon, p_used=p.P, p_star=p_star,
                               entry_times=entry_times, violations=violations,
                               fitted_rate=fitted_rate, rate_theory=rate_theory,
                               verdict=verdict)


class TestVectorizedChecks:
    """analysis._check_ensemble against the per-member loop above."""

    def perturbed_batch(self, p, ens, d):
        """A recorded ensemble in which members 1 and 4 break every check, member 2
        only the weight bound (Hebbian) or the gap envelope (mHNN), and member 5
        never enters the absorbing ball."""
        cfg = IntegratorConfig(dt=2e-3, t_end=3.0, record_stride=5)
        batch = integrate_ensemble(p, cfg, ens)
        states = batch.states.copy()
        n, m = len(batch.times), p.m
        big = 1e3 * (1.0 + np.sqrt(d.dc.bound))
        for j in (1, 4):
            rows = [n // 2, n // 2 + 3, n - 1]
            states[rows, j, 0] = big
            states[rows, j, 1] = -big
            if p.m + 1 < states.shape[-1]:
                states[[n // 3, n - 2], j, m + 1 + 2] = big
        if p.m + 1 < states.shape[-1]:
            states[n // 4, 2, m + 1:] = -big
        else:
            states[n // 4, 2, 0] += 1.0
        states[:, 5, 0] = np.sqrt(d.dc.bound) + 1.0
        return dataclasses.replace(batch, states=states)

    @pytest.mark.parametrize("model", ["hebbian", "weak-sigmoidal"])
    def test_same_report_as_per_member_loop(self, model):
        rng = np.random.default_rng(40)
        p = draw_hebbian(rng, 3) if model == "hebbian" else draw_mhnn(rng, 3)
        p = dataclasses.replace(p, P=1.0)
        ens = EnsembleSpec(count=6, radius=3.0, seed=12)
        d = analysis.cst._derive(p)
        p_star = d.p_star(0.2)
        batch = self.perturbed_batch(p, ens, d)
        got = analysis._check_ensemble(p, batch, ens, 0.2, p_star, d)
        want = _check_ensemble_per_member(p, batch, ens, 0.2, p_star, d)
        assert got.violations == want.violations
        assert got.to_dict() == want.to_dict()
        checks = {j: {v.check for v in got.violations if v.trajectory == j} for j in (1, 4)}
        expected = {"dissipative", "gap"} | ({"weight"} if model == "hebbian" else set())
        assert checks == {1: expected, 4: expected}
        assert {v.trajectory for v in got.violations} == {1, 2, 4, 5}
        # outside the ball throughout: no entry time, so no gap check
        assert got.entry_times[5] is None
        assert {v.check for v in got.violations if v.trajectory == 5} == {"dissipative"}

    def test_weight_check_fed_record_by_record(self):
        # verify feeds the weight check one recorded state at a time; the
        # whole-batch feed of _check_ensemble must find the same violations
        rng = np.random.default_rng(40)
        p = dataclasses.replace(draw_hebbian(rng, 3), P=1.0)
        ens = EnsembleSpec(count=6, radius=3.0, seed=12)
        d = analysis.cst._derive(p)
        batch = self.perturbed_batch(p, ens, d)
        whole = analysis._WeightCheck(p, d)
        whole(batch.states[..., p.m + 1:])
        stream = analysis._WeightCheck(p, d)
        for y in batch.states:
            stream(y[:, p.m + 1:])
        assert stream.records == whole.records == len(batch)
        got = stream.violations(batch.times)
        assert sorted(got) == [1, 2, 4]
        assert got == whole.violations(batch.times)
        # and a compact record with the fed check gives the full record's report
        compact = dataclasses.replace(batch, states=batch.states[..., :p.m + 1].copy(),
                                      has_weights=False)
        p_star = d.p_star(0.2)
        rep = analysis._check_ensemble(p, compact, ens, 0.2, p_star, d, stream)
        want = _check_ensemble_per_member(p, batch, ens, 0.2, p_star, d)
        assert rep.violations == want.violations
        assert rep.to_dict() == want.to_dict()

    @pytest.mark.parametrize("model", ["hebbian", "linear"])
    def test_same_report_unperturbed(self, model):
        rng = np.random.default_rng(41)
        p = draw_hebbian(rng, 4) if model == "hebbian" else draw_mhnn(rng, 4, coupling=model)
        p = dataclasses.replace(p, P=0.5)
        ens = EnsembleSpec(count=5, radius=6.0, seed=2)
        d = analysis.cst._derive(p)
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=4.0, record_stride=2)
        batch = integrate_ensemble(p, cfg, ens)
        got = analysis._check_ensemble(p, batch, ens, 0.3, d.p_star(0.3), d)
        want = _check_ensemble_per_member(p, batch, ens, 0.3, d.p_star(0.3), d)
        assert got.to_dict() == want.to_dict()


class TestCompactRecord:
    """A Hebbian verify keeps two numbers per member per recorded step, ||g||^2 and the
    pairwise gap, and checks the weights as they are recorded."""

    @staticmethod
    def assert_series_kept(kept, full):
        """``kept`` holds, bitwise, the two series the checks read from the full record."""
        assert kept.shape == full.states.shape[:-1] + (2,)
        assert np.array_equal(kept[..., 0], full.norm_sq_series())
        assert np.array_equal(kept[..., 1], pairwise_gap_series(full))

    @staticmethod
    def lower_weight_margin(monkeypatch, p, weights):
        """The proven weight bound holds on these runs; lower its margin so that
        about 1 % of ``weights`` break it and every check path reports them."""
        w0_sq = p.w0.ravel()**2
        margin = float(np.quantile(weights**2 - w0_sq, 0.99))
        derive_real = analysis.cst._derive
        monkeypatch.setattr(analysis.cst, "_derive", lambda q: dataclasses.replace(
            derive_real(q), weight_margin=margin))

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(method="rk4-fixed", dt=5e-3, t_end=2.0),
        IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=2.0, abs_tol=1e-7, rel_tol=1e-7),
    ], ids=["rk4-fixed", "rk45-adaptive"])
    def test_same_report_as_full_record(self, monkeypatch, cfg, stride):
        rng = np.random.default_rng(43)
        p = dataclasses.replace(draw_hebbian(rng, 3), P=1.0)
        cfg = dataclasses.replace(cfg, record_stride=stride)
        ens = EnsembleSpec(count=4, radius=3.0, seed=5)
        full = integrate_ensemble(p, cfg, ens)
        self.lower_weight_margin(monkeypatch, p, full.states[..., p.m + 1:])
        runs = TestSweep.record_integrations(monkeypatch)
        rep = verify_guarantees(p, cfg, ens, 0.3)
        assert len(runs) == 1
        self.assert_series_kept(runs[0].states, full)
        assert np.array_equal(runs[0].times, full.times)
        d = analysis.cst._derive(p)
        want = analysis._check_ensemble(p, full, ens, 0.3, d.p_star(0.3), d)
        assert rep.to_dict() == want.to_dict()
        assert any(v.check == "weight" for v in rep.violations)

    def test_mhnn_verify_keeps_full_states(self, monkeypatch):
        rng = np.random.default_rng(44)
        p = dataclasses.replace(draw_mhnn(rng, 3), P=1.0)
        runs = TestSweep.record_integrations(monkeypatch)
        verify_guarantees(p, IntegratorConfig(dt=5e-3, t_end=1.0), EnsembleSpec(count=2), 0.3)
        assert runs[0].states.shape[1:] == (2, p.dim)


class TestNodeMajorEnsemble:
    """integrate_ensemble stores a Hebbian ensemble node-major. The trajectory keeps
    its logical (n_rec, count, dim) shape and, under RK4, the member-major bits."""

    EPS = 0.3

    @staticmethod
    def case():
        rng = np.random.default_rng(47)
        p = dataclasses.replace(draw_hebbian(rng, 4), P=1.0)
        return p, EnsembleSpec(count=6, radius=3.0, seed=8)

    @staticmethod
    def member_major(p, ens, cfg):
        """The same ensemble integrated from the C-ordered initial block."""
        return analysis.integrate(analysis.make_hebbian_rhs(p), analysis._initial_states(p, ens),
                                  cfg, m=p.m, has_weights=True)

    def test_rk4_bitwise_the_member_major_run(self, monkeypatch):
        p, ens = self.case()
        cfg = IntegratorConfig(method="rk4-fixed", dt=5e-3, t_end=1.0, record_stride=3)
        want = self.member_major(p, ens, cfg)
        layouts = set()
        make_real = analysis.make_hebbian_rhs

        def spied(q):
            rhs = make_real(q)
            return lambda y: layouts.add((y.shape, y.flags.f_contiguous)) or rhs(y)

        monkeypatch.setattr(analysis, "make_hebbian_rhs", spied)
        got = integrate_ensemble(p, cfg, ens)
        assert layouts == {((ens.count, p.dim), True)}
        assert got.states.shape == (len(want), ens.count, p.dim)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)

    def test_rk45_close_to_the_member_major_run(self):
        # the node-major run against the member-major one within a tolerance;
        # test_rk45_bitwise_the_member_major_run requires the same bits
        p, ens = self.case()
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=3.0,
                               abs_tol=1e-8, rel_tol=1e-8)
        want = self.member_major(p, ens, cfg)
        got = integrate_ensemble(p, cfg, ens)
        assert got.states.shape == want.states.shape
        np.testing.assert_allclose(got.times, want.times, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.states, want.states, rtol=0, atol=1e-9)
        d = analysis.cst._derive(p)
        ref = analysis._check_ensemble(p, want, ens, self.EPS, d.p_star(self.EPS), d)
        rep = verify_guarantees(p, cfg, ens, self.EPS)
        assert (rep.verdict, len(rep.violations)) == (ref.verdict, len(ref.violations))
        assert [t is None for t in rep.entry_times] == [t is None for t in ref.entry_times]
        assert rep.deg_estimate == pytest.approx(ref.deg_estimate, rel=1e-9)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_rk45_bitwise_the_member_major_run(self, tol):
        # DP5's error norm sums a C-ordered copy of the scaled error, so the
        # node-major run takes the member-major run's steps, and its report is equal
        p, ens = self.case()
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=3.0,
                               abs_tol=tol, rel_tol=tol)
        want = self.member_major(p, ens, cfg)
        got = integrate_ensemble(p, cfg, ens)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)
        d = analysis.cst._derive(p)
        ref = analysis._check_ensemble(p, want, ens, self.EPS, d.p_star(self.EPS), d)
        assert verify_guarantees(p, cfg, ens, self.EPS).to_dict() == ref.to_dict()

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_record_hook_sees_member_states(self, method):
        p, ens = self.case()
        cfg = IntegratorConfig(method=method, dt=1e-2, t_end=0.5, record_stride=2)
        seen = []

        def keep_u(y):
            seen.append(y.shape)
            return y[..., :p.m].copy()

        traj = integrate_ensemble(p, cfg, ens, record=keep_u)
        assert set(seen) == {(ens.count, p.dim)}
        assert traj.states.shape == (len(seen), ens.count, p.m)


class TestNodeMajorMhnnEnsemble:
    """integrate_ensemble stores an mHNN ensemble node-major too, and the
    lockstep sweep stacks its start node-major, with the member-major bits."""

    @staticmethod
    def spy_layouts(monkeypatch) -> set:
        """(shape, whether node-major) of every state the mHNN field sees from here on."""
        layouts = set()
        make_real = analysis.make_mhnn_rhs

        def spied(q):
            rhs = make_real(q)
            return lambda y: layouts.add((y.shape, y.flags.f_contiguous)) or rhs(y)

        monkeypatch.setattr(analysis, "make_mhnn_rhs", spied)
        return layouts

    @pytest.mark.parametrize("coupling", ["weak-sigmoidal", "linear"])
    def test_rk4_bitwise_the_member_major_run(self, monkeypatch, coupling):
        rng = np.random.default_rng(48)
        p = dataclasses.replace(draw_mhnn(rng, 8, coupling=coupling), P=1.0)
        ens = EnsembleSpec(count=6, radius=3.0, seed=8)
        cfg = IntegratorConfig(method="rk4-fixed", dt=5e-3, t_end=1.0, record_stride=3)
        want = analysis.integrate(analysis.make_mhnn_rhs(p), analysis._initial_states(p, ens),
                                  cfg, m=p.m)
        layouts = self.spy_layouts(monkeypatch)
        got = integrate_ensemble(p, cfg, ens)
        assert layouts == {((ens.count, p.dim), True)}
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("coupling", ["weak-sigmoidal", "linear"])
    def test_rk45_report_bitwise_the_member_major_run(self, coupling):
        # the record is C-ordered: at m = 8 a norm summed in a node-major
        # record's memory order differs in the last bits from the C-ordered sum
        rng = np.random.default_rng(50)
        p = dataclasses.replace(draw_mhnn(rng, 8, coupling=coupling), P=1.0)
        ens = EnsembleSpec(count=6, radius=3.0, seed=2)
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=2.0,
                               abs_tol=1e-8, rel_tol=1e-8)
        want = analysis.integrate(analysis.make_mhnn_rhs(p), analysis._initial_states(p, ens),
                                  cfg, m=p.m)
        got = integrate_ensemble(p, cfg, ens)
        assert got.states.flags.c_contiguous
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.norm_sq_series(), want.norm_sq_series())
        d = analysis.cst._derive(p)
        ref = analysis._check_ensemble(p, want, ens, 0.3, d.p_star(0.3), d)
        assert verify_guarantees(p, cfg, ens, 0.3).to_dict() == ref.to_dict()

    def test_lockstep_start_is_node_major(self, monkeypatch):
        rng = np.random.default_rng(49)
        p = draw_mhnn(rng, 3, coupling="linear")
        ens = EnsembleSpec(count=4, radius=2.0, seed=5)
        layouts = self.spy_layouts(monkeypatch)
        sweep_coupling(p, IntegratorConfig(dt=2e-3, t_end=0.1), ens, [0.0, 1.0, 2.0], 0.3)
        assert layouts == {((3, ens.count, p.dim), True)}


class TestLockstepLayout:
    """A lockstep RK4 sweep hands the field node-major states only, and gets
    node-major results back: no state is copied in or out of the field."""

    @pytest.mark.parametrize("model", ["weak-sigmoidal", "linear", "hebbian"])
    def test_every_state_is_fortran_ordered(self, monkeypatch, model):
        rng = np.random.default_rng(51)
        if model == "hebbian":
            p, name = draw_hebbian(rng, 3), "make_hebbian_rhs"
        else:
            p, name = draw_mhnn(rng, 3, coupling=model), "make_mhnn_rhs"
        ens = EnsembleSpec(count=4, radius=2.0, seed=5)
        seen = []
        make_real = getattr(analysis, name)

        def spied(q):
            rhs = make_real(q)

            def field(y):
                dy = rhs(y)
                seen.append((y.shape, y.flags.f_contiguous, dy.flags.f_contiguous))
                return dy
            return field

        monkeypatch.setattr(analysis, name, spied)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.1, record_stride=3)
        rows = sweep_coupling(p, cfg, ens, [0.0, 1.0, 2.0], 0.3)
        assert len(rows) == 3
        assert len(seen) == 4 * 50                  # four calls per step, one lockstep run
        assert set(seen) == {((3, ens.count, p.dim), True, True)}


class TestSweep:
    def test_rows_and_determinism(self):
        rng = np.random.default_rng(14)
        p = draw_mhnn(rng, 2, coupling="linear")
        eps = 0.3
        p_star = threshold(p, eps).p_star
        cfg = IntegratorConfig(dt=2e-3, t_end=10.0, record_stride=5)
        ens = EnsembleSpec(count=2, radius=2.0, seed=3)
        rows = sweep_coupling(p, cfg, ens, [2 * p_star, 0.0, 0.0], eps)
        assert [row.P for row in rows] == sorted([0.0, 0.0, 2 * p_star])
        assert rows[0] == rows[1]
        assert rows[-1].deg_estimate < eps
        assert rows[-1].verdict == "pass"

    @staticmethod
    def record_integrations(monkeypatch) -> list:
        """Every trajectory that analysis.integrate returns from here on."""
        runs = []
        integrate_real = analysis.integrate

        def recorded(*args, **kwargs):
            runs.append(integrate_real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(analysis, "integrate", recorded)
        return runs

    @staticmethod
    def assert_rows_match_verifies(rows, p, cfg, ens, p_values, eps):
        assert [row.P for row in rows] == sorted(p_values)
        for row in rows:
            rep = verify_guarantees(dataclasses.replace(p, P=row.P), cfg, ens, eps).to_dict()
            assert (row.deg_estimate, row.p_star, row.rate_theory, row.rate_fitted,
                    row.verdict) == (rep["deg_estimate"], rep["p_star"], rep["rate_theory"],
                                     rep["fitted_rate"], rep["verdict"])

    @pytest.mark.parametrize("count", [10, 1])
    @pytest.mark.parametrize("model, m", [("weak-sigmoidal", 8), ("linear", 2),
                                          ("linear", 8), ("hebbian", 3)])
    def test_lockstep_rows_equal_single_verifies(self, monkeypatch, model, m, count):
        # at m = 8 a flat (len(P) * count, dim) batch would change the BLAS row
        # blocking of the RHS matrix products, and with it the last bits
        rng = np.random.default_rng(21 + m)
        p = draw_hebbian(rng, m) if model == "hebbian" else draw_mhnn(rng, m, coupling=model)
        eps = 0.3
        p_star = threshold(p, eps).p_star
        p_values = [2 * p_star, 0.0, 0.5 * p_star, 2 * p_star]
        cfg = IntegratorConfig(dt=2e-3, t_end=2.0, record_stride=2)
        ens = EnsembleSpec(count=count, radius=2.0, seed=9)
        runs = self.record_integrations(monkeypatch)
        rows = sweep_coupling(p, cfg, ens, p_values, eps)
        assert len(runs) == 1
        # a Hebbian run keeps ||g||^2 and the gap: its weights are checked as recorded
        states = runs[0].states
        for i, P in enumerate(sorted(p_values)):
            single = integrate_ensemble(dataclasses.replace(p, P=P), cfg, ens)
            if model == "hebbian":
                TestCompactRecord.assert_series_kept(states[:, i], single)
            else:
                assert np.array_equal(states[:, i], single.states)
        self.assert_rows_match_verifies(rows, p, cfg, ens, p_values, eps)

    def test_one_derivation_for_every_p(self, monkeypatch):
        # the constants do not depend on P, so a sweep derives them once
        rng = np.random.default_rng(19)
        p = draw_mhnn(rng, 2, coupling="linear")
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0, record_stride=2)
        ens = EnsembleSpec(count=2, radius=2.0, seed=2)
        calls = count_derivations(monkeypatch)
        counts = []
        for p_values in ([1.0], [0.0, 1.0, 2.0]):
            calls.clear()
            sweep_coupling(p, cfg, ens, p_values, 0.3)
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_blow_up_gets_an_error_row(self):
        rng = np.random.default_rng(15)
        p = draw_mhnn(rng, 3, coupling="linear")
        eps = 0.3
        cfg = IntegratorConfig(dt=2e-3, t_end=2.0, record_stride=2)
        ens = EnsembleSpec(count=3, radius=2.0, seed=4)
        unstable = 2000.0              # m * P * dt = 12, beyond RK4's stability interval
        with pytest.raises(BlowUpError):
            verify_guarantees(dataclasses.replace(p, P=unstable), cfg, ens, eps)
        rows = sweep_coupling(p, cfg, ens, [unstable, 1.0, 0.0], eps)
        assert rows[-1].P == unstable
        assert rows[-1].verdict == "error"
        assert rows[-1].deg_estimate is None and rows[-1].rate_fitted is None
        assert rows[-1].p_star == threshold(p, eps).p_star
        self.assert_rows_match_verifies(rows[:-1], p, cfg, ens, [1.0, 0.0], eps)

    def test_negative_p_rejected_before_integrating(self, monkeypatch):
        rng = np.random.default_rng(16)
        p = draw_mhnn(rng, 2, coupling="linear")
        runs = self.record_integrations(monkeypatch)
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0)
        for method in ("rk4-fixed", "rk45-adaptive"):
            with pytest.raises(ParameterError) as err:
                sweep_coupling(p, dataclasses.replace(cfg, method=method),
                               EnsembleSpec(count=2, seed=1), [1.0, 3.0, -0.5], 0.3)
            assert err.value.field == "P"
        assert runs == []

    def test_adaptive_sweep_runs_per_p(self, monkeypatch):
        rng = np.random.default_rng(17)
        p = draw_mhnn(rng, 3, coupling="linear")
        eps = 0.3
        p_values = [1.0, 0.0, 1.0]
        cfg = IntegratorConfig(method="rk45-adaptive", dt=1e-2, t_end=2.0,
                               abs_tol=1e-6, rel_tol=1e-6)
        ens = EnsembleSpec(count=3, radius=2.0, seed=6)
        runs = self.record_integrations(monkeypatch)
        rows = sweep_coupling(p, cfg, ens, p_values, eps)
        assert [run.states.shape[1:] for run in runs] == [(ens.count, p.dim)] * len(p_values)
        self.assert_rows_match_verifies(rows, p, cfg, ens, p_values, eps)


class TestVerifyRuns:
    """verify and both sweeps run and check through analysis._verify_runs: a Hebbian
    run keeps ||g||^2 and the pairwise gap per member and checks each P block's
    weights as they are recorded."""

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_hebbian_sweeps_keep_two_series(self, monkeypatch, method):
        rng = np.random.default_rng(52)
        p = draw_hebbian(rng, 3)
        cfg = IntegratorConfig(method=method, dt=1e-2, t_end=1.0, record_stride=2,
                               abs_tol=1e-6, rel_tol=1e-6)
        ens = EnsembleSpec(count=3, radius=2.0, seed=7)
        p_values = [0.0, 1.0, 2.0]
        full = [integrate_ensemble(dataclasses.replace(p, P=P), cfg, ens) for P in p_values]
        runs = TestSweep.record_integrations(monkeypatch)
        sweep_coupling(p, cfg, ens, p_values, 0.3)
        if method == "rk4-fixed":
            assert len(runs) == 1
            kept = [runs[0].states[:, i] for i in range(len(p_values))]
        else:
            assert len(runs) == len(p_values)
            kept = [run.states for run in runs]
        for series, run in zip(kept, full):
            TestCompactRecord.assert_series_kept(series, run)
        assert not any(run.has_weights for run in runs)

    def test_lockstep_blocks_equal_verifies_with_weight_violations(self, monkeypatch):
        rng = np.random.default_rng(53)
        p = draw_hebbian(rng, 3)
        cfg = IntegratorConfig(dt=5e-3, t_end=2.0, record_stride=3)
        ens = EnsembleSpec(count=4, radius=3.0, seed=5)
        swept = [dataclasses.replace(p, P=P) for P in (0.0, 0.5, 2.0)]
        full = [integrate_ensemble(q, cfg, ens) for q in swept]
        TestCompactRecord.lower_weight_margin(
            monkeypatch, p, np.stack([run.states[..., p.m + 1:] for run in full]))
        d = analysis.cst._derive(p)
        p_star = d.p_star(0.3)
        reps = analysis._verify_runs(swept, cfg, ens, 0.3, p_star, d)
        assert len(reps) == len(swept)
        with_weights = 0
        for q, run, rep in zip(swept, full, reps):
            assert rep.to_dict() == verify_guarantees(q, cfg, ens, 0.3).to_dict()
            # and the reference that reads the weights from the full record
            assert rep.to_dict() == analysis._check_ensemble(q, run, ens, 0.3, p_star,
                                                             d).to_dict()
            with_weights += any(v.check == "weight" for v in rep.violations)
        assert with_weights >= 2


class TestWideHebbianRecord:
    """At m = 9 the kept ||g||^2 sums 10 squares. numpy sums a contiguous last axis
    pairwise but the node axis of a node-major state term by term, and from 9 terms
    on the two orders differ in the last bits."""

    EPS = 0.3

    def test_verify_and_lockstep_sweep_equal_full_record(self, monkeypatch):
        rng = np.random.default_rng(58)
        p = draw_hebbian(rng, 9)
        ens = EnsembleSpec(count=4, radius=3.0, seed=6)
        d = analysis.cst._derive(p)
        p_star = d.p_star(self.EPS)
        swept = [dataclasses.replace(p, P=P) for P in (0.0, 2 * p_star)]
        rk4 = IntegratorConfig(dt=5e-3, t_end=1.0)
        rk45 = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0,
                                abs_tol=1e-7, rel_tol=1e-7)
        # a dissipative envelope of half each member's initial ||g||^2, so that the
        # reports list ||g||^2 values
        monkeypatch.setattr(analysis.cst, "dissipative_envelope",
                            lambda dc, t, g0: 0.0 * t + 0.5 * g0)
        full = {(cfg.method, q.P): integrate_ensemble(q, cfg, ens)
                for cfg in (rk4, rk45) for q in swept}
        runs = TestSweep.record_integrations(monkeypatch)
        lockstep = analysis._verify_runs(swept, rk4, ens, self.EPS, p_star, d)
        TestCompactRecord.assert_series_kept(runs[0].states[:, 1], full["rk4-fixed", 2 * p_star])
        for i, q in enumerate(swept):
            want = analysis._check_ensemble(q, full["rk4-fixed", q.P], ens, self.EPS,
                                            p_star, d).to_dict()
            assert any(v["check"] == "dissipative" for v in want["violations"])
            assert lockstep[i].to_dict() == want
        for cfg in (rk4, rk45):
            for q in swept:
                runs.clear()
                rep = verify_guarantees(q, cfg, ens, self.EPS)
                TestCompactRecord.assert_series_kept(runs[0].states, full[cfg.method, q.P])
                want = analysis._check_ensemble(q, full[cfg.method, q.P], ens, self.EPS,
                                                p_star, d)
                assert rep.to_dict() == want.to_dict()


class TestHebbianVerifyMemory:
    """A Hebbian verify keeps two doubles per member per record, so its peak memory
    per record and member does not grow with m."""

    @staticmethod
    def peak_doubles_per_record_member(m):
        rng = np.random.default_rng(60)
        p = draw_hebbian(rng, m)
        p = dataclasses.replace(p, P=2 * analysis.cst._derive(p).p_star(0.3))
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)           # 1,001 records
        ens = EnsembleSpec(count=32, radius=3.0, seed=1)
        verify_guarantees(p, cfg, ens, 0.3)   # warm-up: first calls allocate caches
        tracemalloc.start()
        try:
            verify_guarantees(p, cfg, ens, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 8 / 1001 / ens.count

    def test_peak_does_not_grow_with_m(self):
        narrow = self.peak_doubles_per_record_member(4)
        wide = self.peak_doubles_per_record_member(9)
        assert wide < 10
        assert abs(wide - narrow) <= 0.05 * narrow
