import dataclasses
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mhnnsync import analysis, cli

from test_analysis import count_derivations


def mhnn_config(**overrides):
    cfg = {
        "model": "mhnn",
        "m": 2,
        "a": [2.0, 2.0],
        "b": 1.0,
        "k": 1.0,
        "eta": [1.0, 1.0],
        "w": [[0.0, 0.0], [0.0, 0.0]],
        "J": [1.0, 1.0],
        "gamma": [1.0, 1.0],
        "P": 0.5,
        "r": 0.5,
        "V": 0.0,
        "coupling": "weak",
        "integrator": {"dt": 2e-3, "t_end": 6.0, "record_stride": 4},
        "ensemble": {"count": 2, "radius": 2.0, "seed": 7},
        "epsilon": 0.5,
    }
    cfg.update(overrides)
    return cfg


def hebbian_config(**overrides):
    cfg = {
        "model": "hebbian",
        "m": 2,
        "a": [2.0, 2.0],
        "b": 1.0,
        "k": [1.0, 1.0],
        "eta": [1.0, 1.0],
        "c": [[1.0, 1.0], [1.0, 1.0]],
        "lambda": [[1.0, 1.0], [1.0, 1.0]],
        "w0": [[1.0, 1.0], [1.0, 1.0]],
        "J": [1.0, 1.0],
        "gamma": [1.0, 1.0],
        "P": 1.0,
        "integrator": {"dt": 2e-3, "t_end": 6.0, "record_stride": 4},
        "ensemble": {"count": 2, "radius": 2.0, "seed": 7},
        "epsilon": 0.5,
    }
    cfg.update(overrides)
    return cfg


def write(tmp_path, cfg, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


class TestConstantsCommand:
    def test_mhnn_hand_values(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "out.json"
        assert run(["constants", "--config", cfg_path, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["C1"] == 3.0
        assert data["C2"] == 6.0
        assert data["mu"] == 1.0 / 3.0
        assert data["Q"] == 19.0

    def test_hebbian_keys(self, tmp_path):
        cfg_path = write(tmp_path, hebbian_config())
        out = tmp_path / "out.json"
        assert run(["constants", "--config", cfg_path, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"C3", "C4", "sigma", "G"}
        assert data["C3"] == pytest.approx(5.0 / 3.0)


class TestThresholdCommand:
    def test_epsilon_halving_doubles_p_star(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config(J=[1.0, 0.0]))
        outs = []
        for eps in ("0.5", "0.25"):
            out = tmp_path / f"thr{eps}.json"
            assert run(["threshold", "--config", cfg_path, "--epsilon", eps,
                        "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text())["p_star"])
        assert outs[1] == pytest.approx(2.0 * outs[0], rel=1e-14)

    @pytest.mark.parametrize("config", [mhnn_config(J=[1.0, 0.0], a=[2.0, 2.2]),
                                        mhnn_config(coupling="linear", J=[1.0, 0.0]),
                                        hebbian_config(J=[1.0, 0.0], eta=[1.0, 0.8])],
                             ids=["weak", "linear", "hebbian"])
    def test_prints_the_breakdown_of_p_star(self, tmp_path, config):
        out = tmp_path / "thr.json"
        assert run(["threshold", "--config", write(tmp_path, config), "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"model", "epsilon", "p_star", "N", "N_terms", "B", "p_used",
                             "rate_theory", "residual"}
        bound = "G" if config["model"] == "hebbian" else "Q"
        assert len(data["N_terms"]) == 4 and f"a_star*sqrt({bound})" in data["N_terms"]
        total = 0.0
        for term in data["N_terms"].values():
            total = total + term
        assert total == data["N"] > 0.0
        assert data["B"] > 1.0 if config.get("coupling") == "weak" else data["B"] == 1.0
        assert data["N"] * data["B"] / (2 * data["epsilon"]) == data["p_star"]


class TestValidationExits:
    def test_assumption_boundary_exit_3(self, tmp_path, capsys):
        cfg_path = write(tmp_path, mhnn_config(k=2.0))
        assert run(["constants", "--config", cfg_path]) == 3
        assert "a_i > k" in capsys.readouterr().err

    def test_dimension_error_exit_3(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config(m=3))
        assert run(["constants", "--config", cfg_path]) == 3

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["constants", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["constants", "--config", str(tmp_path / "nope.json")]) == 2

    def test_negative_m_exit_3(self, tmp_path, capsys):
        # named before numpy is asked for a vector of negative length
        assert run(["constants", "--config", write(tmp_path, mhnn_config(m=-3))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("mhnnsync: config validation error: m: "
                                "node count must satisfy m >= 2\n")

    @pytest.mark.parametrize("overrides, field", [
        ({"m": "two"}, "m"),
        ({"ensemble": {"count": "x"}}, "ensemble.count"),
        ({"activations": ["tanh"]}, "activations[0]"),
        ({"m": "2"}, "m"),
        ({"ensemble": {"count": "3"}}, "ensemble.count"),
        ({"a": ["2.0", "2.0"]}, "a"),
        ({"integrator": []}, "integrator"),
        ({"activations": {}}, "activations"),
        ({"coupling": "diffusive"}, "coupling"),
        ({"k": [1.0, 1.0]}, "k"),
        ({"model": "hopfield"}, "model"),
    ])
    def test_malformed_field_exit_3(self, tmp_path, capsys, overrides, field):
        cfg_path = write(tmp_path, mhnn_config(**overrides))
        assert run(["verify", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"config validation error: {field}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["threshold", "verify"])
    @pytest.mark.parametrize("overrides, field", [
        ({"P": [1.0, 2.0]}, "P"),
        ({"P": [0.5]}, "P"),
        ({"integrator": {"dt": None, "t_end": 6.0}}, "integrator.dt"),
        ({"integrator": {"dt": 2e-3, "t_end": None}}, "integrator.t_end"),
        ({"integrator": {"dt": None}}, "integrator.dt"),
        ({"integrator": {"t_end": None}}, "integrator.t_end"),
        ({"b": "1.0"}, "b"),
        ({"epsilon": "0.5"}, "epsilon"),
        ({"P": None}, "P"),
    ])
    def test_non_scalar_real_field_exit_3(self, tmp_path, capsys, command, overrides, field):
        # a config's P is one real number: a list is not read as a lockstep P,
        # and a null dt or t_end is rejected rather than read as the default
        cfg_path = write(tmp_path, mhnn_config(**overrides))
        assert run([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config validation error: {field}: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["threshold", "verify"])
    @pytest.mark.parametrize("field", ["a", "w", "gamma"])
    def test_null_is_a_missing_value_exit_3(self, tmp_path, capsys, command, field):
        # read as NaN before, and refused as "must be finite, not inf or nan"
        cfg_path = write(tmp_path, mhnn_config(**{field: None}))
        assert run([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"mhnnsync: config validation error: {field}: "
                                "expected numbers, got null (None), a missing value\n")

    @pytest.mark.parametrize("overrides, field", [
        ({"m": 2.6}, "m"),
        ({"m": True}, "m"),
        ({"ensemble": {"count": 2.9}}, "ensemble.count"),
        ({"ensemble": {"count": True}}, "ensemble.count"),
        ({"ensemble": {"count": 2, "seed": True}}, "ensemble.seed"),
        ({"ensemble": {"count": 2, "seed": 7.5}}, "ensemble.seed"),
        ({"integrator": {"dt": 2e-3, "t_end": 6.0, "record_stride": 1.7}},
         "integrator.record_stride"),
        ({"integrator": {"dt": 2e-3, "t_end": 6.0, "record_stride": False}},
         "integrator.record_stride"),
    ])
    def test_non_integer_field_exit_3(self, tmp_path, capsys, overrides, field):
        # a fraction or a boolean in an integer field is rejected, not truncated
        cfg_path = write(tmp_path, mhnn_config(**overrides))
        assert run(["verify", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"config validation error: {field}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["threshold", "verify"])
    @pytest.mark.parametrize("overrides, field", [
        ({"b": True}, "b"),
        ({"P": True}, "P"),
        ({"epsilon": True}, "epsilon"),
        ({"ensemble": {"count": 2, "radius": True, "seed": 7}}, "ensemble.radius"),
        ({"a": [True, True]}, "a"),
        ({"k": False}, "k"),
        ({"r": True}, "r"),
        ({"w": [[0.0, True], [0.0, 0.0]]}, "w"),
        ({"integrator": {"dt": True, "t_end": 6.0}}, "integrator.dt"),
        ({"activations": [{"kind": "tanh-scaled", "beta": True}, {"kind": "tanh-scaled"}]},
         "activations[0].beta"),
    ])
    def test_boolean_in_real_field_exit_3(self, tmp_path, capsys, command, overrides, field):
        # a JSON boolean used to be read as 1.0 or 0.0: "b": true exited 0
        cfg_path = write(tmp_path, mhnn_config(**overrides))
        assert run([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config validation error: {field}: " in captured.err
        assert "boolean" in captured.err
        assert "Traceback" not in captured.err

    def test_integral_numbers_accepted_as_integers(self, tmp_path):
        cfg = mhnn_config(m=2.0, ensemble={"count": 10.0, "radius": 2.0, "seed": 7.0},
                          integrator={"dt": 2e-3, "t_end": 6.0, "record_stride": 4.0})
        run_cfg = cli.load_config(write(tmp_path, cfg))
        got = (run_cfg.parameters.m, run_cfg.ensemble.count, run_cfg.ensemble.seed,
               run_cfg.integrator.record_stride)
        assert got == (2, 10, 7, 4)
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("command", ["constants", "threshold", "verify", "sweep"])
    def test_weak_threshold_overflow_exit_3(self, tmp_path, capsys, command):
        # r(sqrt(Q) + |V|) lies far beyond the exp range of the weak-coupling term
        cfg_path = write(tmp_path, mhnn_config(k=0.5, r=1000.0))
        extra = ["--p-values", "1,2"] if command == "sweep" else []
        assert run([command, "--config", cfg_path] + extra) == 3
        err = capsys.readouterr().err
        assert "config validation error: r: " in err
        assert "Traceback" not in err

    def test_p_star_overflow_exit_3(self, tmp_path, capsys):
        # B = 1 + exp(r sqrt(Q)) is finite at r = 415, but p_star = N*B/(m*epsilon)
        # overflows at epsilon = 1e-3
        cfg = mhnn_config(k=0.5, J=[1.0, 0.0], gamma=[0.1, 0.1], r=415.0, P=0.0,
                          w=[[0.0, 0.1], [0.1, 0.0]])
        del cfg["integrator"]
        cfg_path = write(tmp_path, cfg)
        assert run(["threshold", "--config", cfg_path, "--epsilon", "1e-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: epsilon: p_star = " in captured.err
        assert captured.err.endswith("; raise epsilon or reduce r\n")
        assert "Traceback" not in captured.err
        assert run(["threshold", "--config", cfg_path, "--epsilon", "1e3"]) == 0
        # under linear coupling B = 1 and r is not read, so r is not named
        linear = write(tmp_path, mhnn_config(coupling="linear", J=[1.0, 0.0]), "linear.json")
        capsys.readouterr()
        assert run(["threshold", "--config", linear, "--epsilon", "1e-320"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mhnnsync: validation error: epsilon: p_star = ")
        assert captured.err.endswith("; raise epsilon\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "simulate", "sweep"])
    @pytest.mark.parametrize("ensemble, override, field", [
        ('{"count": 2, "radius": 2.0, "seed": -1}', [], "ensemble.seed"),
        ('{"count": 2, "radius": 2.0, "seed": 7}', ["--seed", "-5"], "ensemble.seed"),
        ('{"count": 2, "radius": 1e400, "seed": 7}', [], "ensemble.radius"),
    ], ids=["seed", "seed-override", "radius"])
    def test_bad_ensemble_exit_3(self, tmp_path, capsys, command, ensemble, override, field):
        # a negative seed used to end in numpy's ValueError (exit 1), and an
        # infinite radius (1e400 reads as inf) in non-finite states (exit 4)
        text = json.dumps(mhnn_config(ensemble="ENSEMBLE")).replace('"ENSEMBLE"', ensemble)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        extra = ["--p-values", "1,2"] if command == "sweep" else []
        assert run([command, "--config", str(cfg_path)] + override + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config validation error: {field}: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["threshold", "simulate", "verify", "sweep"])
    @pytest.mark.parametrize("key, value, field", [
        ("integrator", '{"method": "rk45-adaptive", "dt": 1e-3, "t_end": 1e400}',
         "integrator.t_end"),
        ("integrator", '{"dt": 2e-3, "t_end": 1e400}', "integrator.t_end"),
        ("P", "1e400", "P"),
    ], ids=["t_end-rk45", "t_end-rk4", "P"])
    def test_infinite_field_exit_3(self, tmp_path, capsys, command, key, value, field):
        # JSON reads 1e400 as inf: an infinite rk45 t_end used to stop at a NaN
        # time before the first step, and an infinite P printed "Infinity"
        text = json.dumps(mhnn_config(**{key: "VALUE"})).replace('"VALUE"', value)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        extra = ["--p-values", "1,2"] if command == "sweep" else []
        assert run([command, "--config", str(cfg_path)] + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config validation error: {field}: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["constants", "threshold", "verify"])
    @pytest.mark.parametrize("config, key, value, field", [
        (mhnn_config, "J", "[1e400, 1.0]", "J"),
        (mhnn_config, "w", "[[0.0, 0.0], [-1e400, 0.0]]", "w"),
        (mhnn_config, "b", "1e400", "b"),
        (hebbian_config, "lambda", "[[1.0, 1e400], [1.0, 1.0]]", "lambda"),
        (mhnn_config, "activations",
         '[{"kind": "tanh-scaled", "beta": 1e400}, {"kind": "tanh-scaled"}]',
         "activations[0].beta"),
    ], ids=["vector", "matrix", "scalar", "hebbian-matrix", "beta"])
    def test_infinite_parameter_exit_3(self, tmp_path, capsys, command, config, key, value,
                                       field):
        # JSON reads 1e400 as inf: an infinite entry used to print "Infinity"
        # constants, or fail later naming epsilon
        text = json.dumps(config(**{key: "VALUE"})).replace('"VALUE"', value)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        assert run([command, "--config", str(cfg_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config validation error: {field}: " in captured.err
        assert "Traceback" not in captured.err

    def test_infinite_sweep_value_exit_3(self, tmp_path, capsys):
        cfg_path = write(tmp_path, mhnn_config())
        assert run(["sweep", "--config", cfg_path, "--p-values", "0.5,inf"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: P: " in captured.err
        assert "Traceback" not in captured.err

    def test_infinite_sweep_value_with_default_dt_exit_3(self, tmp_path, capsys):
        # validated before the default dt is sized at the largest value
        cfg = mhnn_config(coupling="linear")
        del cfg["integrator"]
        assert run(["sweep", "--config", write(tmp_path, cfg), "--p-values", "0.5,inf"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: P: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, value, override", [
        pytest.param(command, "1e400", [], id=f"{command}-config")
        for command in ("constants", "threshold", "verify", "sweep")
    ] + [
        pytest.param(command, "0.5", ["--epsilon", "inf"], id=f"{command}-override")
        for command in ("threshold", "verify", "sweep")
    ])
    def test_infinite_epsilon_exit_3(self, tmp_path, capsys, command, value, override):
        # an infinite epsilon (JSON reads 1e400 as inf) used to exit 0 with
        # "epsilon": Infinity, which is not JSON, and a vacuous p_star of 0.0
        text = json.dumps(mhnn_config(epsilon="VALUE")).replace('"VALUE"', value)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        extra = ["--p-values", "1,2"] if command == "sweep" else []
        assert run([command, "--config", str(cfg_path)] + override + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config validation error: epsilon: " in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_subcommand_exit_64(self, capsys):
        assert run(["frobnicate", "--config", "x.json"]) == 64

    def test_no_subcommand_exit_64(self, capsys):
        assert run([]) == 64
        assert "usage: mhnnsync" in capsys.readouterr().err

    @pytest.mark.parametrize("config, extra, field", [
        ({key: value for key, value in mhnn_config().items() if key != "b"}, [], "b"),
        ([mhnn_config()], [], "<root>"),
        (mhnn_config(), ["--p-values", "1,x"], "p_values"),
        (mhnn_config(), ["--p-values", ""], "p_values"),
    ], ids=["missing-b", "root-list", "p-values-text", "p-values-empty"])
    def test_documented_error_exit_3(self, tmp_path, capsys, config, extra, field):
        command = "sweep" if extra else "verify"
        assert run([command, "--config", write(tmp_path, config)] + extra) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"validation error: {field}: " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("coupling", ["weak", "weak-sigmoidal", "bogus", ["linear"]],
                             ids=["weak", "weak-sigmoidal", "bogus", "list"])
    def test_hebbian_coupling_other_than_linear_exit_3(self, tmp_path, capsys, coupling):
        # read for the mHNN only before: a Hebbian config ran linear coupling and exited 0
        cfg_path = write(tmp_path, hebbian_config(coupling=coupling))
        assert run(["threshold", "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config validation error: coupling: " in captured.err

    def test_hebbian_linear_coupling_as_without_coupling(self, tmp_path, capsys):
        outputs = []
        for cfg in (hebbian_config(), hebbian_config(coupling="linear")):
            assert run(["threshold", "--config", write(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    @pytest.mark.parametrize("command", ["constants", "threshold", "simulate", "verify"])
    def test_hebbian_ignores_the_sigmoid_keys(self, tmp_path, capsys, command):
        # the Hebbian model has no sigmoid, so, like "w", "r" and "V" are not
        # read: they were validated before, so these values exited 3
        outputs = []
        for cfg in (hebbian_config(), hebbian_config(r=-1, V=True)):
            assert run([command, "--config", write(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out != ""

    # closed forms that overflow in double precision, or divide by a square
    # that underflows, though every parameter is finite
    OVERFLOWS = {
        "gamma": (mhnn_config, {"gamma": [1e160, 1.0]}, "C1"),
        "w": (mhnn_config, {"w": [[1e200, 0.0], [0.0, 0.0]]}, "C2"),
        "J": (mhnn_config, {"J": [1e200, 1.0]}, "C2"),
        "a": (mhnn_config, {"a": [1e200, 1e200]}, "C2"),
        "b": (mhnn_config, {"b": 1e-300}, "mu"),
        "hebbian-c": (hebbian_config, {"c": [[1e-200, 1.0], [1.0, 1.0]]}, "weight_margin"),
        "hebbian-eta": (hebbian_config, {"eta": [1e200, 1e200]}, "eta"),
        "radius": (mhnn_config, {"ensemble": {"count": 2, "radius": 1e200}}, "ensemble.radius"),
    }

    @pytest.mark.parametrize("command", ["constants", "threshold", "simulate", "verify"])
    @pytest.mark.parametrize("probe", OVERFLOWS)
    def test_overflowing_closed_form_exit_3(self, tmp_path, capsys, probe, command):
        # each raised OverflowError or ZeroDivisionError, a traceback and exit 1
        make, overrides, field = self.OVERFLOWS[probe]
        # the default dt and t_end derive the constants and the horizon on loading
        cfg_path = write(tmp_path, make(integrator={"record_stride": 4}, **overrides))
        assert run([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mhnnsync: config validation error: {field}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["constants", "threshold", "verify"])
    @pytest.mark.parametrize("overrides, field", [
        ({"gamma": [1e100, 1.0]}, "Q"),
        ({"b": 1e-300}, "mu"),
    ], ids=["gamma", "b"])
    def test_constant_out_of_range_exit_3(self, tmp_path, capsys, command, overrides, field):
        # a float product overflowed to inf, or the rate underflowed to 0,
        # without raising: constants printed "Q": Infinity and exited 0, and
        # threshold and verify blamed epsilon. Linear coupling with dt and
        # t_end given derives nothing on loading
        cfg_path = write(tmp_path, mhnn_config(coupling="linear", **overrides))
        assert run([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mhnnsync: validation error: {field}: {field} leaves the double range\n"
        assert "Traceback" not in captured.err


class TestBlowUpExit:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_step_size_underflow_exit_4(self, tmp_path, capsys):
        # coupling so strong that no DP5 step above 1e-14 * t_end is stable
        cfg = mhnn_config(P=1e16, integrator={"method": "rk45-adaptive", "dt": 1e-3,
                                              "t_end": 1.0})
        assert run(["verify", "--config", write(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert "adaptive step size h = " in err
        assert "Traceback" not in err

    def test_trial_stage_overflow_prints_no_warning(self, tmp_path, capsys):
        # rejected trial stages overflow on the way to the step-size underflow
        cfg = mhnn_config(P=1e16, integrator={"method": "rk45-adaptive", "dt": 1e-3,
                                              "t_end": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--config", write(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: adaptive step size h = ")
        assert err.count("\n") == 1

    def test_rk4_overflow_prints_no_warning(self, tmp_path, capsys):
        # the first RK4 stage at P = 1e80 overflows inside the field
        cfg = mhnn_config(P=1e80, integrator={"method": "rk4-fixed", "dt": 1e-3, "t_end": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--config", write(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: non-finite or |component| > ")
        assert err.count("\n") == 1

    def test_attempt_limit_exit_4(self, tmp_path, capsys, monkeypatch):
        # a budget of 5 attempts ends this 6-time-unit Hebbian verify early
        monkeypatch.setattr(importlib.import_module("mhnnsync.integrate"),
                            "MAX_ADAPTIVE_ATTEMPTS", 5)
        cfg = hebbian_config(integrator={"method": "rk45-adaptive", "dt": 1e-3, "t_end": 6.0})
        assert run(["verify", "--config", write(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: rk45-adaptive attempted 5 steps and reached only t = ")
        assert err.count("\n") == 1


class TestOutOfMemoryExit:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_ensemble_too_large_exit_71(self, tmp_path, capsys, command):
        # 10^13 members of dim 3 need 218 TiB, so the allocator fails at once
        cfg = mhnn_config(ensemble={"count": 10**13, "radius": 2.0, "seed": 7})
        assert run([command, "--config", write(tmp_path, cfg)]) == 71
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: out of memory: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config", [mhnn_config, hebbian_config])
    def test_huge_m_exit_71(self, tmp_path, capsys, monkeypatch, config):
        # scalar vectors and matrices, and the Hebbian default w0: m is bounded
        # by the memory probe before anything is filled to length m
        monkeypatch.setattr(importlib.import_module("mhnnsync.model"), "_memory_bytes",
                            lambda: 2**30)
        cfg = config(m=10**9)
        for key in ("a", "k", "eta", "w", "c", "lambda", "J", "gamma"):
            if key in cfg:
                cfg[key] = 1.0
        cfg.pop("w0", None)
        assert run(["constants", "--config", write(tmp_path, cfg)]) == 71
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: out of memory: m = 1000000000: ")
        assert err.count("\n") == 1

    def test_config_load_out_of_memory_exit_71(self, tmp_path, capsys, monkeypatch):
        def load_config(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_config", load_config)
        assert run(["constants", "--config", write(tmp_path, mhnn_config())]) == 71
        assert capsys.readouterr().err == "mhnnsync: out of memory: allocation failed\n"


class TestOutputPath:
    """An --output that cannot be written exits 73 before anything is computed."""

    @pytest.mark.parametrize("command", ["constants", "threshold", "simulate", "verify",
                                         "sweep"])
    @pytest.mark.parametrize("target, reason", [("no/such/dir/x.json", "no such directory"),
                                                (".", "is a directory")],
                             ids=["missing-dir", "directory"])
    def test_unwritable_output_exit_73(self, tmp_path, capsys, monkeypatch, command,
                                       target, reason):
        cfg_path = write(tmp_path, hebbian_config())
        out = str(tmp_path / target)
        runs = []
        monkeypatch.setattr(cli.analysis, "integrate", lambda *a, **k: runs.append(a))
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: runs.append(a))
        extra = ["--p-values", "1,2"] if command == "sweep" else []
        assert run([command, "--config", cfg_path, "--output", out] + extra) == 73
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mhnnsync: cannot write output {out}: {reason}\n"
        assert runs == []

    def test_existing_output_kept_until_written(self, tmp_path):
        # the check neither truncates nor creates the file: a run that fails
        # before writing leaves an existing file as it was and makes no new one
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "sweep.csv"
        out.write_text("kept\n")
        assert run(["sweep", "--config", cfg_path, "--p-values", "0.5,inf",
                    "--output", str(out)]) == 3
        assert out.read_text() == "kept\n"
        fresh = tmp_path / "fresh.csv"
        assert run(["sweep", "--config", cfg_path, "--p-values", "0.5,inf",
                    "--output", str(fresh)]) == 3
        assert not fresh.exists()
        assert run(["sweep", "--config", cfg_path, "--p-values", "0.5",
                    "--output", str(out)]) == 0
        assert out.read_text().startswith("P,deg_estimate,")


class TestStepLimit:
    def test_extreme_coupling_default_dt_exits_3(self, tmp_path):
        # the default dt at P = 1e160 is ~2.5e-162, so rk4-fixed would take
        # over 1e162 steps; the step limit rejects the config before integrating
        cfg = mhnn_config(P=1e160, coupling="linear")
        del cfg["integrator"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "mhnnsync.cli", "verify",
                               "--config", write(tmp_path, cfg)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        assert proc.stderr.startswith("mhnnsync: config validation error: integrator.dt: "
                                      "rk4-fixed would take ")
        assert "steps" in proc.stderr and "Traceback" not in proc.stderr


class TestLoadConfigDerivations:
    @pytest.mark.parametrize("config", [mhnn_config(coupling="linear"), hebbian_config()])
    def test_none_when_dt_and_t_end_given(self, tmp_path, monkeypatch, config):
        calls = count_derivations(monkeypatch)
        run_cfg = cli.load_config(write(tmp_path, config))
        assert len(calls) == 0
        assert (run_cfg.integrator.dt, run_cfg.integrator.t_end) == (2e-3, 6.0)

    @pytest.mark.parametrize("config", [mhnn_config(), mhnn_config(coupling="linear"),
                                        hebbian_config()])
    def test_one_when_both_absent(self, tmp_path, monkeypatch, config):
        config = {key: value for key, value in config.items() if key != "integrator"}
        calls = count_derivations(monkeypatch)
        run_cfg = cli.load_config(write(tmp_path, config))
        assert len(calls) == 1
        p, ens = run_cfg.parameters, run_cfg.ensemble
        assert run_cfg.integrator.dt == cli.default_dt(p, cli.cst.derive_constants(p))
        assert run_cfg.integrator.t_end == cli.analysis.default_horizon(p, ens)

    def test_one_under_weak_coupling(self, tmp_path, monkeypatch):
        # the derivation also checks that the weak-coupling term does not overflow
        calls = count_derivations(monkeypatch)
        cli.load_config(write(tmp_path, mhnn_config()))
        assert len(calls) == 1


class TestSimulateCommand:
    def test_mhnn_csv_header(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u1,u2,rho"
        widths = {len(line.split(",")) for line in lines}
        assert widths == {4}
        assert lines[1].split(",")[0] == "0.0"

    def test_hebbian_csv_header(self, tmp_path):
        cfg_path = write(tmp_path, hebbian_config())
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u1,u2,rho,w11,w12,w21,w22"
        assert {len(line.split(",")) for line in lines} == {8}

    def test_csv_values_round_trip(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "traj.csv"
        run(["simulate", "--config", cfg_path, "--output", str(out)])
        lines = out.read_text().splitlines()[1:]
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines])
        assert np.all(np.isfinite(parsed))


    @pytest.mark.parametrize("model", ["weak-sigmoidal", "linear", "hebbian"])
    def test_trajectory_is_member_0_of_the_ensemble(self, tmp_path, model):
        # a lone state runs as a two-member block, so under rk4-fixed the run
        # that simulate makes is bitwise member 0 of the seeded ensemble
        integrator = {"method": "rk4-fixed", "dt": 1e-3, "t_end": 0.5}
        ensemble = {"count": 5, "radius": 3.0, "seed": 11}
        for draw in range(3):
            rng = np.random.default_rng(70 + draw)
            m = 6 if model == "hebbian" else 4
            cfg = {"m": m, "a": rng.uniform(1.8, 2.2, m).tolist(), "b": 1.0,
                   "eta": rng.uniform(0.8, 1.0, m).tolist(),
                   "J": rng.uniform(-0.3, 0.3, m).tolist(),
                   "gamma": rng.normal(scale=3.0, size=m).tolist(), "P": 0.7, "r": 0.1,
                   "integrator": integrator, "ensemble": ensemble}
            if model == "hebbian":
                cfg.update(model="hebbian", k=[0.15] * m,
                           c=rng.uniform(0.8, 1.2, (m, m)).tolist(),
                           **{"lambda": rng.uniform(-0.3, 0.3, (m, m)).tolist()})
            else:
                cfg.update(model="mhnn", k=0.2, w=rng.normal(scale=3.0, size=(m, m)).tolist(),
                           coupling="weak" if model == "weak-sigmoidal" else "linear")
            cfg_path = write(tmp_path, cfg)
            out = tmp_path / "traj.csv"
            assert run(["simulate", "--config", cfg_path, "--output", str(out)]) == 0
            rows = np.array([[float(x) for x in line.split(",")]
                             for line in out.read_text().splitlines()[1:]])
            run_cfg = cli.load_config(cfg_path)
            batch = analysis.integrate_ensemble(run_cfg.parameters, run_cfg.integrator,
                                                run_cfg.ensemble)
            assert np.array_equal(rows[:, 0], batch.times)
            assert np.array_equal(rows[:, 1:], batch.states[:, 0]), draw


class TestVerifyCommand:
    def test_report_round_trip_and_exit(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "rep.json"
        code = run(["verify", "--config", cfg_path, "--output", str(out)])
        data = json.loads(out.read_text())
        assert set(data) == {"deg_estimate", "epsilon", "p_used", "p_star", "entry_times",
                             "violations", "fitted_rate", "rate_theory", "verdict"}
        assert code == (0 if data["verdict"] == "pass" else 1)
        # emitted floats reload exactly
        assert json.loads(json.dumps(data)) == data

    def test_seed_override_changes_report(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--config", cfg_path, "--output", str(a)])
        run(["verify", "--config", cfg_path, "--seed", "12345", "--output", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["p_star"] == db["p_star"]
        assert da["deg_estimate"] != db["deg_estimate"]


class TestSweepCommand:
    def test_csv_shape(self, tmp_path):
        cfg_path = write(tmp_path, mhnn_config())
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg_path, "--p-values", "0,1.0,1.0",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P,deg_estimate,p_star,rate_theory,rate_fitted,verdict"
        assert len(lines) == 4
        assert {len(line.split(",")) for line in lines} == {6}
        assert lines[2] == lines[3]

    @staticmethod
    def linear_m3_config():
        # a slow network, so that the coupling rate m*P sets the default dt
        return mhnn_config(m=3, a=[2.0, 2.1, 2.0], k=0.1, eta=[1.0, 1.0, 1.0],
                           J=[0.1, 0.0, -0.1], gamma=[0.1, 0.1, 0.1],
                           w=[[0.0, 0.3, 0.0], [0.2, 0.0, 0.1], [0.0, 0.4, 0.0]],
                           coupling="linear", integrator={"t_end": 0.2})

    def test_default_dt_sized_at_largest_p(self, tmp_path):
        # sized at the config's P = 0.5, the step (4.76e-4) is unstable at
        # P = 2000 and that row blew up; sized at P = 2000 (8.33e-6) every row runs
        cfg_path = write(tmp_path, self.linear_m3_config())
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg_path, "--p-values", "0,2000",
                    "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(float(row[0]), row[-1] != "error") for row in rows] == [(0.0, True),
                                                                          (2000.0, True)]

    def test_defaults_sized_at_extreme_p_values(self, tmp_path):
        cfg = self.linear_m3_config()
        del cfg["integrator"]
        run_cfg = cli.load_config(write(tmp_path, cfg), p_values=[3.0, 40.0, 0.5])
        p, ens = run_cfg.parameters, run_cfg.ensemble
        d = cli.cst._derive(p)
        assert run_cfg.integrator.dt == cli.default_dt(dataclasses.replace(p, P=40.0), d.dc)
        assert run_cfg.integrator.t_end == cli.analysis._horizon(d, 0.5, ens)
        assert run_cfg.integrator.dt < cli.load_config(write(tmp_path, cfg)).integrator.dt


class TestDefaults:
    def test_minimal_config_loads_with_defaults(self, tmp_path):
        cfg = mhnn_config()
        for key in ("integrator", "ensemble", "epsilon", "coupling", "P", "r", "V"):
            cfg.pop(key)
        run_cfg = cli.load_config(write(tmp_path, cfg))
        assert run_cfg.integrator.method == "rk4-fixed"
        assert run_cfg.integrator.t_end > run_cfg.integrator.dt
        assert run_cfg.ensemble.count >= 1
        assert run_cfg.epsilon > 0


class TestParserCache:
    def test_built_once_and_same_output_as_fresh_processes(self, tmp_path, capsys):
        # the parser is cached per process; parsing one subcommand must not
        # change what the next call parses or prints
        cfg_path = write(tmp_path, mhnn_config())
        calls = [["constants", "--config", cfg_path], ["threshold", "--config", cfg_path],
                 ["frobnicate", "--config", cfg_path], ["threshold", "--config", cfg_path,
                                                         "--epsilon", "0.25"]]
        cli._build_parser.cache_clear()
        in_process = []
        for args in calls:
            code = run(args)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for args, got in zip(calls, in_process):
            proc = subprocess.run([sys.executable, "-m", "mhnnsync.cli"] + args,
                                  capture_output=True, text=True, timeout=60, env=env)
            assert got == (proc.returncode, proc.stdout, proc.stderr), args


class TestModuleEntryPoint:
    def test_python_m_mhnnsync_runs_the_cli(self, tmp_path, capsys):
        cfg_path = write(tmp_path, mhnn_config())
        assert run(["threshold", "--config", cfg_path]) == 0
        want = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "mhnnsync", "threshold", "--config", cfg_path],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == want and "p_star" in json.loads(want)
