import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from mhnnsync import (
    AttemptLimitError,
    BlowUpError,
    EnsembleSpec,
    IntegratorConfig,
    MhnnParams,
    ParameterError,
    StepSizeUnderflowError,
    derive_constants,
    dissipative_envelope,
    integrate,
    threshold,
)
from mhnnsync.analysis import _initial_states, integrate_ensemble
from mhnnsync.integrate import (DP5_RECORD_CAPACITY, MAX_ADAPTIVE_ATTEMPTS, MAX_FIXED_STEPS,
                                _check_finite, _rk4_step)
from mhnnsync.model import make_hebbian_rhs, make_mhnn_rhs

from draws import draw_hebbian, draw_mhnn

# the module; the package's name ``integrate`` is the function
integrate_module = importlib.import_module("mhnnsync.integrate")


def linear_decay(y):
    return -y


class TestRk4:
    def test_constant_solution(self):
        cfg = IntegratorConfig(dt=0.1, t_end=2.0)
        traj = integrate(lambda y: np.zeros_like(y), np.array([1.5, -2.0]), cfg)
        assert np.all(traj.states == np.array([1.5, -2.0]))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2.0

    def test_linear_decay_accuracy(self):
        cfg = IntegratorConfig(dt=0.01, t_end=1.0)
        traj = integrate(linear_decay, np.array([1.0]), cfg)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_empirical_order_four(self):
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate(linear_decay, np.array([1.0]), IntegratorConfig(dt=dt, t_end=1.0))
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        order = math.log2(errs[0] / errs[1])
        assert 3.8 <= order <= 4.2

    def test_record_stride_and_final_time(self):
        cfg = IntegratorConfig(dt=0.1, t_end=0.95, record_stride=3)
        traj = integrate(linear_decay, np.array([1.0]), cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 0.95
        assert np.all(np.diff(traj.times) > 0)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        p = draw_mhnn(rng, 3)
        rhs = make_mhnn_rhs(p)
        y0 = rng.normal(size=4)
        cfg = IntegratorConfig(dt=1e-3, t_end=2.0)
        a = integrate(rhs, y0, cfg)
        b = integrate(rhs, y0, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("stride", [1, 3, 4, 10, 12])
    def test_record_matches_step_by_step(self, stride):
        # the record is allocated up front from the step count; it must hold the
        # states of a plain loop, the last one at t_end whatever the stride
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, record_stride=stride)
        rhs = lambda y: -y + 0.3 * y[..., ::-1]
        y = np.arange(12.0).reshape(4, 3)
        times, states = [0.0], [y[..., :2]]
        for i in range(1, 11):
            y = _rk4_step(rhs, y, 0.1 if i < 10 else 1.0 - 9 * 0.1)
            if i % stride == 0 or i == 10:
                times.append(i * 0.1 if i < 10 else 1.0)
                states.append(y[..., :2])
        traj = integrate(rhs, np.arange(12.0).reshape(4, 3), cfg, record=lambda y: y[..., :2])
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, np.stack(states))

    def test_blow_up_reports_time(self):
        cfg = IntegratorConfig(dt=0.5, t_end=50.0)
        with pytest.raises(BlowUpError) as exc:
            integrate(lambda y: 5.0 * y, np.array([1.0]), cfg)
        assert 0 < exc.value.t <= 50.0


class TestRk45:
    def test_linear_decay_accuracy(self):
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0,
                               abs_tol=1e-10, rel_tol=1e-10)
        traj = integrate(linear_decay, np.array([1.0]), cfg)
        assert traj.times[-1] == 1.0
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-8

    def test_adapts_to_stiff_transient(self):
        # fast transient then slow drift; the controller must survive both
        def rhs(y):
            return np.array([-50.0 * (y[0] - math.cos(y[1])), 0.1])
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.5, t_end=5.0,
                               abs_tol=1e-8, rel_tol=1e-8)
        traj = integrate(rhs, np.array([10.0, 0.0]), cfg)
        assert traj.states[-1, 0] == pytest.approx(math.cos(traj.states[-1, 1]), abs=1e-3)


# The DP5 stepper as it was before FSAL and buffered stages: seven RHS calls
# per attempted step, every stage a fresh array. Kept as the reference that
# the current stepper must reproduce bitwise.
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


def counting(rhs):
    """rhs plus a list that gets one entry per call."""
    calls = []
    return (lambda y: calls.append(1) or rhs(y)), calls


def dp5_batch(model):
    """RHS and a seeded (7, dim) initial batch of a Hebbian m = 4 or weak mHNN m = 3 draw."""
    rng = np.random.default_rng(31)
    if model == "hebbian":
        p = dataclasses.replace(draw_hebbian(rng, 4), P=1.5)
        rhs = make_hebbian_rhs(p)
    else:
        p = dataclasses.replace(draw_mhnn(rng, 3), P=1.5)
        rhs = make_mhnn_rhs(p)
    return rhs, _initial_states(p, EnsembleSpec(count=7, radius=5.0, seed=3))


class TestDp5MatchesReference:
    """The FSAL, buffered DP5 stepper against the seven-call stepper above."""

    @pytest.mark.parametrize("model", ["hebbian", "weak-sigmoidal"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_bitwise_equal_with_rejections(self, model, stride):
        rhs, y0 = dp5_batch(model)
        # dt = 0.5 is far too large for tol 1e-9, so the first attempts are rejected
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.5, t_end=2.0, record_stride=stride)
        ref_rhs, ref_calls = counting(rhs)
        ref_times, ref_states = _integrate_rk45(ref_rhs, y0, cfg)
        new_rhs, new_calls = counting(rhs)
        traj = integrate(new_rhs, y0, cfg)
        assert np.array_equal(traj.times, ref_times)
        assert np.array_equal(traj.states, ref_states)
        assert len(ref_calls) % 7 == 0
        attempts = len(ref_calls) // 7
        if stride == 1:
            assert attempts > len(ref_times) - 1      # at least one step was rejected
        # FSAL: one call to start, then six per attempted step
        assert len(new_calls) == 6 * attempts + 1

    def test_single_state(self):
        rhs, y0 = dp5_batch("weak-sigmoidal")
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.3, t_end=3.0, record_stride=4,
                               abs_tol=1e-7, rel_tol=1e-7)
        traj = integrate(rhs, y0[2], cfg)
        ref_times, ref_states = _integrate_rk45(rhs, y0[2], cfg)
        assert np.array_equal(traj.times, ref_times)
        assert np.array_equal(traj.states, ref_states)

    def test_rhs_returning_its_argument(self):
        # y' = y through an RHS that hands back its input array: the stepper's
        # reused stage buffers must not change it
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0, record_stride=2)
        y0 = np.array([1.0, -0.5, 2.0])
        aliased = integrate(lambda y: y, y0, cfg)
        fresh = integrate(lambda y: 1.0 * y, y0, cfg)
        assert np.array_equal(aliased.states, fresh.states)
        assert np.array_equal(aliased.times, fresh.times)
        assert np.array_equal(y0, [1.0, -0.5, 2.0])


class TestRecord:
    """Both steppers copy what they keep into one record: RK4's allocated at
    its final size, DP5's doubled in place as it fills and trimmed at the end."""

    @pytest.mark.parametrize("model", ["hebbian", "weak-sigmoidal"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_grown_record_matches_reference(self, model, stride, monkeypatch):
        # from room for 2 records the run's record doubles at least three times
        monkeypatch.setattr(integrate_module, "DP5_RECORD_CAPACITY", 2)
        rhs, y0 = dp5_batch(model)
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.5, t_end=2.0, record_stride=stride)
        ref_times, ref_states = _integrate_rk45(rhs, y0, cfg)
        assert len(ref_times) > 8
        traj = integrate(rhs, y0, cfg)
        assert np.array_equal(traj.times, ref_times)
        assert np.array_equal(traj.states, ref_states)
        assert traj.states.flags.c_contiguous

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    @pytest.mark.parametrize("model", ["hebbian", "weak-sigmoidal"])
    def test_fortran_start_is_not_written(self, method, model):
        # node_major views a Fortran-ordered start, which DP5 must not step in place
        rhs, y0 = dp5_batch(model)
        y0 = np.asfortranarray(y0)
        given = y0.copy(order="K")
        cfg = IntegratorConfig(method=method, dt=1e-2, t_end=0.5, record_stride=3)
        traj = integrate(rhs, y0, cfg)
        assert np.array_equal(y0, given)
        assert not np.shares_memory(traj.states, y0)
        assert np.array_equal(traj.states[0], given)

    def test_rk45_ensemble_holds_its_record_once(self):
        # a Hebbian m = 6 ensemble of 128 members at 1.01 p_star takes 340
        # accepted steps, so its record doubles from DP5_RECORD_CAPACITY three
        # times; a record built as a list and then copied peaks above 2x
        rng = np.random.default_rng(0)
        p = draw_hebbian(rng, 6)
        p = dataclasses.replace(p, P=1.01 * threshold(p, 0.1).p_star)
        cfg = IntegratorConfig(method="rk45-adaptive", dt=1e-2, t_end=5.0,
                               abs_tol=1e-8, rel_tol=1e-8)
        ens = EnsembleSpec(count=128, radius=5.0, seed=1)
        tracemalloc.start()
        try:
            traj = integrate_ensemble(p, cfg, ens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) > 4 * DP5_RECORD_CAPACITY
        assert peak <= 1.8 * (traj.times.nbytes + traj.states.nbytes)
        ref_times, ref_states = _integrate_rk45(make_hebbian_rhs(p), _initial_states(p, ens), cfg)
        assert np.array_equal(traj.times, ref_times)
        assert np.array_equal(traj.states, ref_states)


class TestTrajectoryMember:
    def test_member_of_two_batch_axes(self):
        y0 = np.arange(24.0).reshape(2, 3, 4)
        traj = integrate(linear_decay, y0, IntegratorConfig(dt=0.1, t_end=0.3))
        assert traj.batch_size == 6
        for j in range(6):
            member = traj.member(j)
            assert member.states.shape == (len(traj), 4)
            assert np.array_equal(member.states, traj.states[:, j // 3, j % 3])

    def test_member_of_one_state(self):
        traj = integrate(linear_decay, np.array([1.0, 2.0]), IntegratorConfig(dt=0.1, t_end=0.3))
        assert np.array_equal(traj.member(0).states, traj.states)


class TestRecordHook:
    """integrate keeps what its record hook returns for each recorded state."""

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(method="rk4-fixed", dt=1e-2, t_end=2.0),
        IntegratorConfig(method="rk45-adaptive", dt=0.5, t_end=2.0),
    ], ids=["rk4-fixed", "rk45-adaptive"])
    def test_copying_hook_keeps_columns(self, cfg, stride):
        rhs, y0 = dp5_batch("hebbian")
        cfg = dataclasses.replace(cfg, record_stride=stride)
        full = integrate(rhs, y0, cfg)
        seen = []

        def keep_u_rho(y):
            seen.append(y.copy())
            return y[..., :5].copy()

        part = integrate(rhs, y0, cfg, record=keep_u_rho)
        assert np.array_equal(part.times, full.times)
        assert np.array_equal(part.states, full.states[..., :5])
        # the hook sees every recorded state, whole, in time order
        assert np.array_equal(np.stack(seen), full.states)

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_hook_keeping_a_view(self, method):
        # a kept view of a state's buffer stops DP5 from reusing that buffer
        rhs, y0 = dp5_batch("weak-sigmoidal")
        cfg = IntegratorConfig(method=method, dt=1e-2, t_end=1.0, record_stride=2)
        full = integrate(rhs, y0, cfg)
        part = integrate(rhs, y0, cfg, record=lambda y: y[..., 1:])
        assert np.array_equal(part.states, full.states[..., 1:])


class TestStepSizeUnderflow:
    def test_stiff_decay_names_step_size(self):
        # the state only decays, so it stays finite; the step size underflows
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0)
        with pytest.raises(StepSizeUnderflowError) as exc:
            integrate(lambda y: -1e16 * y, np.array([1.0, 2.0]), cfg)
        assert isinstance(exc.value, BlowUpError)
        message = str(exc.value)
        assert "step size h = " in message and "at t = 0;" in message
        assert "non-finite" not in message
        assert exc.value.t == 0.0
        assert 0 < exc.value.h < 1e-14

    def test_blow_up_keeps_its_message(self):
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=50.0,
                               abs_tol=1e-3, rel_tol=1e-3)
        with pytest.raises(BlowUpError) as exc:
            integrate(lambda y: 5.0 * y, np.array([1.0]), cfg)
        assert not isinstance(exc.value, StepSizeUnderflowError)
        assert "non-finite" in str(exc.value)


LIMIT = integrate_module.BLOWUP_LIMIT
BEYOND = np.nextafter(LIMIT, np.inf)
METHODS = ("rk4-fixed", "rk45-adaptive")


class TestBlowUpLimit:
    """Both finite checks, RK4's after every step and DP5's on every accepted
    state, keep |y| = BLOWUP_LIMIT and reject anything beyond it, NaN included."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("value, ok", [(LIMIT, True), (-LIMIT, True), (BEYOND, False),
                                           (-BEYOND, False), (np.nan, False), (np.inf, False),
                                           (-np.inf, False)])
    def test_check_finite(self, value, ok, order):
        y = np.zeros((3, 4), order=order)
        y[1, 2] = value
        if ok:
            _check_finite(y, 0.5)
        else:
            with pytest.raises(BlowUpError) as exc:
                _check_finite(y, 0.5)
            assert exc.value.t == 0.5

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [LIMIT, -LIMIT])
    def test_state_at_the_limit_runs_to_the_end(self, method, value):
        # y' = 0 keeps every state at y0
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=0.5)
        traj = integrate(np.zeros_like, np.array([value, 0.5]), cfg)
        assert traj.times[-1] == 0.5
        assert np.all(traj.states == [value, 0.5])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [BEYOND, -BEYOND])
    def test_state_beyond_the_limit_raises_on_the_first_step(self, method, value):
        # DP5 accepts the exact zero-error step, so its accept check raises
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=0.5)
        with pytest.raises(BlowUpError) as exc:
            integrate(np.zeros_like, np.array([value, 0.5]), cfg)
        assert type(exc.value) is BlowUpError
        assert exc.value.t == 0.1

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_raises(self, method, value):
        # a DP5 error estimate of inf - inf or NaN rejects every step, so the
        # step size underflows, itself a BlowUpError
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=0.5)
        with pytest.raises(BlowUpError):
            integrate(np.zeros_like, np.array([value, 0.5]), cfg)


class TestAttemptLimit:
    def test_stiff_decay_stops_at_the_limit(self, monkeypatch):
        # y' = -1e6 y needs about 3e5 stable DP5 steps to reach t = 1
        assert MAX_ADAPTIVE_ATTEMPTS == 10**6
        monkeypatch.setattr(integrate_module, "MAX_ADAPTIVE_ATTEMPTS", 200)
        calls = []
        with pytest.raises(AttemptLimitError) as exc:
            integrate(lambda y: calls.append(1) or -1e6 * y, np.array([1.0, 2.0]),
                      IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0))
        assert isinstance(exc.value, BlowUpError)
        assert exc.value.attempts == 200
        assert len(calls) == 6 * 200 + 1
        assert 0 < exc.value.t < 1e-3 and 0 < exc.value.h < 1e-5
        message = str(exc.value)
        assert message.startswith("rk45-adaptive attempted 200 steps and reached only t = ")
        assert f"h = {exc.value.h:.3g}" in message

    def test_run_within_the_limit_completes(self, monkeypatch):
        cfg = IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=1.0, record_stride=1)
        calls = []
        traj = integrate(lambda y: calls.append(1) or -y, np.array([1.0]), cfg)
        attempts = (len(calls) - 1) // 6
        monkeypatch.setattr(integrate_module, "MAX_ADAPTIVE_ATTEMPTS", attempts)
        again = integrate(linear_decay, np.array([1.0]), cfg)
        assert np.array_equal(again.states, traj.states)
        monkeypatch.setattr(integrate_module, "MAX_ADAPTIVE_ATTEMPTS", attempts - 1)
        with pytest.raises(AttemptLimitError):
            integrate(linear_decay, np.array([1.0]), cfg)


class TestScipyOracle:
    """End states against scipy's DOP853, an integrator written apart from this package."""

    @pytest.mark.parametrize("model", ["weak-sigmoidal", "linear", "hebbian"])
    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=2.0, abs_tol=1e-10, rel_tol=1e-10),
        IntegratorConfig(method="rk4-fixed", dt=1e-3, t_end=2.0),
    ], ids=["rk45-adaptive", "rk4-fixed"])
    def test_end_state_matches_dop853(self, model, cfg):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(50)
        p = draw_hebbian(rng, 3) if model == "hebbian" else draw_mhnn(rng, 3, coupling=model)
        p = dataclasses.replace(p, P=0.7)
        rhs = make_hebbian_rhs(p) if model == "hebbian" else make_mhnn_rhs(p)
        y0 = _initial_states(p, EnsembleSpec(count=1, radius=4.0, seed=9))[0]
        sol = scipy_integrate.solve_ivp(lambda t, y: rhs(y), (0.0, cfg.t_end), y0,
                                        method="DOP853", rtol=1e-11, atol=1e-11)
        assert sol.success
        end = integrate(rhs, y0, cfg).states[-1]
        # measured: <= 6.7e-11 for rk45 at tol 1e-10, <= 1.4e-12 for rk4 at dt 1e-3
        assert np.max(np.abs(end - sol.y[:, -1])) < 1e-9

    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(method="rk45-adaptive", dt=0.1, t_end=2.0, abs_tol=1e-10, rel_tol=1e-10),
        IntegratorConfig(method="rk4-fixed", dt=1e-3, t_end=2.0),
    ], ids=["rk45-adaptive", "rk4-fixed"])
    def test_hebbian_ensemble_matches_dop853(self, cfg):
        # integrate_ensemble stores a Hebbian ensemble node-major, so this run
        # takes the field's in-place path; each member is checked on its own
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(51)
        p = dataclasses.replace(draw_hebbian(rng, 3), P=0.7)
        ens = EnsembleSpec(count=4, radius=4.0, seed=10)
        rhs = make_hebbian_rhs(p)
        end = integrate_ensemble(p, cfg, ens).states[-1]
        for y0, got in zip(_initial_states(p, ens), end):
            sol = scipy_integrate.solve_ivp(lambda t, y: rhs(y), (0.0, cfg.t_end), y0,
                                            method="DOP853", rtol=1e-11, atol=1e-11)
            assert sol.success
            assert np.max(np.abs(got - sol.y[:, -1])) < 1e-9


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(method="euler").validate()

    def test_dt_must_be_below_t_end(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(dt=2.0, t_end=1.0).validate()

    def test_tolerances_in_unit_interval(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(abs_tol=2.0).validate()

    def test_fixed_step_count_is_bounded(self):
        with pytest.raises(ParameterError) as err:
            IntegratorConfig(dt=2.5e-162, t_end=3.0).validate()
        assert err.value.field == "integrator.dt"
        assert "1.2e+162 steps" in str(err.value)
        # a dt so small that t_end/dt overflows is rejected the same way
        with pytest.raises(ParameterError, match="inf steps"):
            IntegratorConfig(dt=1e-320, t_end=10.0).validate()
        with pytest.raises(ParameterError, match="1e\\+09 steps"):
            IntegratorConfig(dt=1e-9, t_end=1.0).validate()
        IntegratorConfig(dt=2e-8, t_end=1.0).validate()
        assert MAX_FIXED_STEPS == 10**8
        # the adaptive method sizes its own steps, so dt is only its first try
        IntegratorConfig(method="rk45-adaptive", dt=1e-9, t_end=1.0).validate()


class TestDissipativeEnvelopeHolds:
    def test_trajectory_below_envelope(self):
        # operationalizes the solution bound: recorded norm never exceeds the
        # envelope once dt <= 1e-3/max(a_i, b)
        rng = np.random.default_rng(21)
        p = dataclasses.replace(draw_mhnn(rng, 3), P=0.3)
        dc = derive_constants(p)
        dt = 1e-3 / max(p.a.max(), p.b)
        cfg = IntegratorConfig(dt=dt, t_end=4.0, record_stride=5)
        ens = EnsembleSpec(count=4, radius=6.0, seed=77)
        batch = integrate_ensemble(p, cfg, ens)
        norms = batch.norm_sq_series()
        for j in range(ens.count):
            env = dissipative_envelope(dc, batch.times, norms[0, j])
            assert np.all(norms[:, j] <= env + 1e-6 * (1.0 + env))


class TestIntegerFields:
    """record_stride is an integer: a fraction or a boolean is rejected, not
    truncated, and an integral float is kept as an int."""

    @pytest.mark.parametrize("value", [2.5, True, np.True_, "x", None, math.inf])
    def test_non_integer_record_stride_rejected(self, value):
        with pytest.raises(ParameterError) as err:
            IntegratorConfig(record_stride=value).validate()
        assert err.value.field == "integrator.record_stride"

    @pytest.mark.parametrize("method", METHODS)
    def test_integral_record_stride_kept_as_int(self, method):
        cfg = IntegratorConfig(method=method, dt=0.1, t_end=2.0, record_stride=3.0)
        got = integrate(linear_decay, np.array([1.0, -2.0]), cfg)
        assert type(cfg.record_stride) is int
        want = integrate(linear_decay, np.array([1.0, -2.0]),
                         dataclasses.replace(cfg, record_stride=3))
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states, want.states)


class BlockOnly:
    """A field's block evaluator with a (..., dim) entry point that must not be used."""

    def __init__(self, rhs):
        self.block = rhs.block

    def __call__(self, y):
        raise AssertionError("integrate called the (..., dim) entry point")


class TestBlockAdapter:
    """integrate steps a node-major block: a field through its block evaluator,
    bound once per run, and any other callable through one adapter that frames
    its result. Both give the same times and records, bit for bit."""

    @staticmethod
    def case(model, start):
        rng = np.random.default_rng(71)
        if model == "hebbian":
            p = dataclasses.replace(draw_hebbian(rng, 4), P=1.5)
            make = make_hebbian_rhs
        else:
            p = dataclasses.replace(draw_mhnn(rng, 3, coupling=model), P=1.5)
            make = make_mhnn_rhs
        y0 = _initial_states(p, EnsembleSpec(count=5, radius=4.0, seed=6))
        if start.startswith("lockstep"):
            p = dataclasses.replace(p, P=np.array([0.0, 1.5, 6.0])[:, None, None])
            y0 = np.stack([y0] * 3)
        if start == "single":
            y0 = y0[1]
        elif start.endswith("F"):
            y0 = np.asfortranarray(y0)
        return make(p), y0

    @pytest.mark.parametrize("start", ["C", "F", "lockstep-C", "lockstep-F", "single"])
    @pytest.mark.parametrize("model", ["hebbian", "weak-sigmoidal", "linear"])
    @pytest.mark.parametrize("cfg", [
        IntegratorConfig(method="rk4-fixed", dt=1e-2, t_end=0.5, record_stride=3),
        IntegratorConfig(method="rk45-adaptive", dt=0.5, t_end=2.0, record_stride=2),
    ], ids=METHODS)
    def test_field_and_wrapped_field_agree(self, cfg, model, start):
        rhs, y0 = self.case(model, start)
        given = y0.copy(order="K")
        binds = []
        block = rhs.block
        rhs.block = lambda lead: binds.append(lead) or block(lead)
        direct = integrate(rhs, y0, cfg)
        assert binds == [y0.shape[:-1]]           # bound once per run
        assert np.array_equal(integrate(BlockOnly(rhs), y0, cfg).states, direct.states)
        wrapped = integrate(lambda y: rhs(y), y0, cfg)
        assert np.array_equal(wrapped.times, direct.times)
        assert np.array_equal(wrapped.states, direct.states)
        assert direct.states.shape == (len(direct.times),) + y0.shape
        assert np.array_equal(y0, given)          # the start is read, not written
