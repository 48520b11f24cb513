import dataclasses

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

    @pytest.mark.parametrize("model, m", [("weak-sigmoidal", 8), ("linear", 2),
                                          ("linear", 8), ("hebbian", 3)])
    def test_lockstep_rows_equal_single_verifies(self, monkeypatch, model, m):
        # at m = 8 a flat (len(P) * count, dim) batch would change the BLAS row
        # blocking of the RHS matrix products, and with it the last bits
        rng = np.random.default_rng(21 + m)
        p = draw_hebbian(rng, m) if model == "hebbian" else draw_mhnn(rng, m, coupling=model)
        eps = 0.3
        p_star = threshold(p, eps).p_star
        p_values = [2 * p_star, 0.0, 0.5 * p_star, 2 * p_star]
        cfg = IntegratorConfig(dt=2e-3, t_end=2.0, record_stride=2)
        ens = EnsembleSpec(count=10, radius=2.0, seed=9)
        runs = self.record_integrations(monkeypatch)
        rows = sweep_coupling(p, cfg, ens, p_values, eps)
        assert len(runs) == 1
        states = runs[0].states.reshape(len(runs[0]), len(p_values), ens.count, p.dim)
        for i, P in enumerate(sorted(p_values)):
            single = integrate_ensemble(dataclasses.replace(p, P=P), cfg, ens)
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
