"""One op per workload, built from a catalogue case, and its correctness check.

Importing this module imports the package under test, so the measuring
process imports it inside the timed set-up. Each op looks its entry point up
on the package module at call time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os

import numpy as np
from mhnnsync import analysis, cli
from mhnnsync import constants as cst
from mhnnsync.analysis import EnsembleSpec
from mhnnsync.integrate import IntegratorConfig
from mhnnsync.model import ActivationSpec, HebbianParams, MhnnParams

import workloads

# The library's own envelope tolerance (analysis._tolerance): a number passes
# when it is within 1e-6*(1+|reference|) of the reference.
REL_TOL = 1e-6


def build_params(spec: dict, P: float = 0.0):
    """Parameter object from a catalogue draw, validated."""
    fields = dict(spec)
    model = fields.pop("model")
    fields["activations"] = tuple(ActivationSpec(kind, beta) for kind, beta in fields["activations"])
    p = (HebbianParams if model == "hebbian" else MhnnParams)(P=P, **fields)
    p.validate()
    return p


def _tuned_dt(p, P: float) -> float:
    """Explicit-stability step of the acceptance tests: 5e-2 / (stiffness + m*P)."""
    dc = cst.derive_constants(p)
    stiffness = max(p.a.max(), p.b) + float(np.max(p.k * p.eta)) * dc.bound
    return float(min(5e-3, 5e-2 / (stiffness + p.m * P)))


def derive_inputs(workload: str, case: dict) -> dict:
    """Inputs computed from a draw with the package; pinned in reference.json."""
    if workload == "threshold-scan":
        return {}
    size = workloads.SIZES[workload]
    base = build_params(case["params"])
    p_star = cst.threshold(base, case["epsilon"]).p_star
    integrator = {"method": size["method"], "record_stride": size["record_stride"]}
    if workload == "weak-threshold":
        P = 1.01 * p_star
        dt = _tuned_dt(base, P)
        integrator.update(dt=dt, t_end=size["steps_per_op"] * dt)
        return {"P": P, "integrator": integrator}
    if workload == "hebbian-ensemble":
        integrator.update(dt=1e-3, t_end=size["t_end"], abs_tol=size["tol"], rel_tol=size["tol"])
        return {"P": 1.01 * p_star, "integrator": integrator}
    p_values = [f * p_star for f in size["p_over_p_star"]]
    dt = _tuned_dt(base, max(p_values))
    integrator.update(dt=dt, t_end=size["steps_per_p"] * dt)
    return {"p_values": p_values, "integrator": integrator}


class VerifyOp:
    """One verify_guarantees call on a seeded ensemble."""

    def __init__(self, case: dict, inputs: dict):
        self.p = build_params(case["params"], inputs["P"])
        self.cfg = IntegratorConfig(**inputs["integrator"])
        self.cfg.validate()
        self.ens = EnsembleSpec(**case["ensemble"])
        self.ens.validate()
        self.epsilon = case["epsilon"]

    def run(self):
        return analysis.verify_guarantees(self.p, self.cfg, self.ens, self.epsilon)

    def summary(self, rep) -> dict:
        return {"verdict": rep.verdict, "deg_estimate": rep.deg_estimate,
                "p_star": rep.p_star, "violations": len(rep.violations)}


class ThresholdOp:
    """threshold(p, eps) plus its rate and residual at p_star."""

    def __init__(self, case: dict, inputs: dict):
        self.p = build_params(case["params"])
        self.epsilon = case["epsilon"]

    def run(self):
        thr = cst.threshold(self.p, self.epsilon)
        return thr.p_star, thr.rate_at(thr.p_star), thr.residual_at(thr.p_star)

    def summary(self, out) -> dict:
        return dict(zip(("p_star", "rate", "residual"), out))


class SweepOp:
    """One in-process ``mhnnsync sweep`` on a generated linear mHNN config."""

    def __init__(self, case: dict, inputs: dict, workdir: str):
        params = dict(case["params"])
        config = {key: params[key] for key in ("m", "a", "b", "k", "eta", "w", "J", "gamma", "r", "V")}
        config.update(model="mhnn", coupling=params["coupling_kind"],
                      activations=[{"kind": k, "beta": b} for k, b in params["activations"]],
                      integrator=inputs["integrator"], epsilon=case["epsilon"])
        config_path = os.path.join(workdir, case["id"] + ".json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        cli.load_config(config_path)
        self.output = os.path.join(workdir, case["id"] + ".csv")
        self.argv = ["sweep", "--config", config_path, "--output", self.output,
                     "--p-values", ",".join(repr(P) for P in inputs["p_values"])]

    def run(self):
        return cli.main(self.argv)

    def summary(self, code) -> dict:
        with open(self.output, "rb") as fh:
            text = fh.read()
        rows = [[cell if cell in ("pass", "fail", "error") else (float(cell) if cell else None)
                 for cell in line.split(",")]
                for line in text.decode().splitlines()[1:]]
        return {"exit": code, "csv_sha256": hashlib.sha256(text).hexdigest(), "rows": rows}


def build(workload: str, case: dict, inputs: dict, workdir: str):
    if workload == "threshold-scan":
        op = ThresholdOp(case, inputs)
    elif workload == "linear-sweep":
        op = SweepOp(case, inputs, workdir)
    else:
        op = VerifyOp(case, inputs)
    op.case_id = case["id"]
    return op


def is_real(x) -> bool:
    """A real number, numpy scalars included; bools are verdict-like, not numbers."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


def _mismatch(got, ref) -> bool:
    if type(ref) is float:
        return not (is_real(got) and abs(float(got) - ref) <= REL_TOL * (1.0 + abs(ref)))
    return got != ref


def check(summary: dict, expect: dict) -> list:
    """Names of the fields that depart from the reference; empty when the op is correct.

    Verdicts, counts and exit codes must match exactly, numbers within
    REL_TOL*(1+|x|). A sweep passes outright when its CSV is byte-identical,
    otherwise row by row.
    """
    bad = []
    for key, ref in expect.items():
        got = summary.get(key)
        if key == "csv_sha256":
            continue
        if key == "rows":
            if got == ref or summary.get("csv_sha256") == expect["csv_sha256"]:
                continue
            if len(got) != len(ref) or any(len(g) != len(r) or any(map(_mismatch, g, r))
                                           for g, r in zip(got, ref)):
                bad.append(key)
        elif _mismatch(got, ref):
            bad.append(key)
    return bad
