import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mhnnsync import cli

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

    @pytest.mark.parametrize("overrides, field", [
        ({"m": "two"}, "m"),
        ({"ensemble": {"count": "x"}}, "ensemble.count"),
        ({"activations": ["tanh"]}, "activations[0]"),
    ])
    def test_malformed_field_exit_3(self, tmp_path, capsys, overrides, field):
        cfg_path = write(tmp_path, mhnn_config(**overrides))
        assert run(["verify", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"config validation error: {field}: " in err
        assert "Traceback" not in err

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
        assert "Traceback" not in captured.err
        assert run(["threshold", "--config", cfg_path, "--epsilon", "1e3"]) == 0

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

    def test_infinite_sweep_value_exit_3(self, tmp_path, capsys):
        cfg_path = write(tmp_path, mhnn_config())
        assert run(["sweep", "--config", cfg_path, "--p-values", "0.5,inf"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: P: " in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_subcommand_exit_64(self, capsys):
        assert run(["frobnicate", "--config", "x.json"]) == 64


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

    def test_attempt_limit_exit_4(self, tmp_path, capsys, monkeypatch):
        # a budget of 5 attempts ends this 6-time-unit Hebbian verify early
        monkeypatch.setattr(importlib.import_module("mhnnsync.integrate"),
                            "MAX_ADAPTIVE_ATTEMPTS", 5)
        cfg = hebbian_config(integrator={"method": "rk45-adaptive", "dt": 1e-3, "t_end": 6.0})
        assert run(["verify", "--config", write(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("mhnnsync: rk45-adaptive attempted 5 steps and reached only t = ")
        assert err.count("\n") == 1


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
