"""Workload catalogue: parameter draws, per-case inputs and the per-seed op list.

Every workload has a fixed catalogue of cases. A case is a parameter draw plus
the op settings that go with it (epsilon, ensemble). The draw ranges are those
of the package's property tests, copied here so that edits to the tests cannot
move the benchmark. ``reference.json`` pins, per case, the inputs derived from
the draw at the reference commit (coupling strength, integrator block) and the
outputs the op must reproduce.

``--seed`` picks which draws of the catalogue a run uses, a fixed number per
group (model, coupling, node count), so every run covers the same mix of sizes
and only the draws within a group change.

Only numpy is imported here; the package under test is never imported.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

WORKLOADS = ("weak-threshold", "hebbian-ensemble", "linear-sweep", "threshold-scan")

KINDS = ("tanh-scaled", "logistic-centered", "sine-clamped")

CATALOG_SEED = 20250629

# Shape of each workload: the catalogue groups, draws per group, draws a run
# picks per group, and the op settings. Recorded in every result file.
#
# weak-threshold runs at the stiffness-tuned dt of acceptance test 4 for a
# budget of steps_per_op steps instead of the dissipative horizon (~15-25 time
# units, up to 36k steps), so that one run holds enough ops for a tail
# percentile. The coupling transient still decays by ~30 e-folds within the
# budget. linear-sweep does the same per P value.
#
# tail_percentile is fixed per workload so that a faster or slower change is
# compared at the same percentile; at the reference commit a run has at least
# ten ops beyond it. calibration sets the steps of the calibration kernel run
# after every op (about a tenth of an op), and cal_ref_s is its time on an
# idle host, the rounded minimum of repeated runs on the reference machine
# (2-vCPU x86_64 VM, Python 3.11, numpy 2.4); see calibration.py.
SIZES = {
    "weak-threshold": {
        "model": "mhnn", "coupling": "weak-sigmoidal", "m": [2, 3, 4, 5],
        "epsilon": [0.5, 0.05], "draws_per_group": 4, "picks_per_group": 1,
        "ensemble_count": 3, "method": "rk4-fixed", "steps_per_op": 1200,
        "record_stride": 1, "tail_percentile": 90,
        "calibration": {"small_steps": 1200, "big_steps": 0}, "cal_ref_s": 0.023,
    },
    "hebbian-ensemble": {
        "model": "hebbian", "coupling": "linear", "m": [6], "epsilon": [0.1],
        "draws_per_group": 8, "picks_per_group": 4, "ensemble_count": 128,
        "method": "rk45-adaptive", "tol": 1e-8, "t_end": 5.0, "record_stride": 1,
        "tail_percentile": 85,
        "calibration": {"small_steps": 300, "big_steps": 300}, "cal_ref_s": 0.043,
    },
    "linear-sweep": {
        "model": "mhnn", "coupling": "linear", "m": [2, 3, 4, 5], "epsilon": [0.5],
        "draws_per_group": 4, "picks_per_group": 1,
        "ensemble": "cli default: 10 members, radius 5, seed 0",
        "method": "rk4-fixed", "steps_per_p": 500,
        "p_over_p_star": [0.5, 1.01, 2.0], "record_stride": 1, "tail_percentile": 90,
        "calibration": {"small_steps": 1500, "big_steps": 0}, "cal_ref_s": 0.029,
    },
    "threshold-scan": {
        "model": ["mhnn-weak", "mhnn-linear", "hebbian"], "m": [2, 3, 5, 8, 12, 20],
        "epsilon": [1.0, 0.1, 0.01], "draws_per_group": 4, "picks_per_group": 1,
        "tail_percentile": 99.9,
        "calibration": {"small_steps": 2, "big_steps": 0}, "cal_ref_s": 0.00004,
    },
}


def _activations(rng, m):
    return [[KINDS[int(rng.integers(len(KINDS)))], float(rng.uniform(0.5, 1.0))]
            for _ in range(m)]


def draw_mhnn(rng, m: int, coupling: str) -> dict:
    """A valid mHNN parameter set (min a > max k by construction), as plain JSON data."""
    return {
        "model": "mhnn", "m": m,
        "a": rng.uniform(1.8, 2.2, m).tolist(),
        "b": float(rng.uniform(0.8, 1.2)),
        "k": float(rng.uniform(0.1, 0.3)),
        "eta": rng.uniform(0.9, 1.1, m).tolist(),
        "w": rng.uniform(-0.1, 0.1, (m, m)).tolist(),
        "J": rng.uniform(-0.3, 0.3, m).tolist(),
        "gamma": (rng.uniform(-0.3, 0.3, m) / np.sqrt(m)).tolist(),
        "r": float(rng.uniform(0.1, 0.3)),
        "V": float(rng.uniform(-0.3, 0.3)),
        "activations": _activations(rng, m),
        "coupling_kind": coupling,
    }


def draw_hebbian(rng, m: int) -> dict:
    """A valid Hebbian parameter set, as plain JSON data."""
    return {
        "model": "hebbian", "m": m,
        "a": rng.uniform(1.8, 2.2, m).tolist(),
        "b": float(rng.uniform(0.8, 1.2)),
        "k": rng.uniform(0.1, 0.2, m).tolist(),
        "eta": rng.uniform(0.8, 1.0, m).tolist(),
        "J": rng.uniform(-0.3, 0.3, m).tolist(),
        "gamma": (rng.uniform(-0.3, 0.3, m) / np.sqrt(m)).tolist(),
        "c": rng.uniform(0.8, 1.2, (m, m)).tolist(),
        "lam": rng.uniform(-0.3, 0.3, (m, m)).tolist(),
        "w0": rng.integers(0, 2, (m, m)).astype(float).tolist(),
        "activations": _activations(rng, m),
        "coupling_kind": "linear",
    }


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def _rng(workload: str, group: int, draw: int):
    return np.random.default_rng([CATALOG_SEED, WORKLOADS.index(workload), group, draw])


def catalogue(workload: str) -> list:
    """Every case of a workload, in a fixed order.

    Each case is {"id", "group", "draw", "params", "epsilon", ...}; cases that
    share (group, draw) share the parameter draw.
    """
    size = SIZES[workload]
    cases = []
    if workload == "threshold-scan":
        groups = [(kind, m) for kind in size["model"] for m in size["m"]]
    else:
        groups = [(size["model"], m) for m in size["m"]]
    for g, (kind, m) in enumerate(groups):
        for d in range(size["draws_per_group"]):
            rng = _rng(workload, g, d)
            if kind == "hebbian":
                params = draw_hebbian(rng, m)
            else:
                coupling = size.get("coupling") or ("linear" if kind == "mhnn-linear"
                                                     else "weak-sigmoidal")
                params = draw_mhnn(rng, m, coupling)
            for eps in size["epsilon"]:
                case = {"id": f"{kind}-m{m}-d{d}-eps{eps}", "group": g, "draw": d,
                        "params": params, "epsilon": eps}
                if "ensemble_count" in size:
                    case["ensemble"] = {"count": size["ensemble_count"], "radius": 5.0,
                                        "seed": 500 + 10 * g + d}
                cases.append(case)
    return cases


def select(workload: str, seed: int) -> list:
    """The cases one run cycles through: ``picks_per_group`` draws per group, chosen by seed."""
    size = SIZES[workload]
    rng = random.Random(seed)
    cases = catalogue(workload)
    chosen = []
    for g in sorted({c["group"] for c in cases}):
        draws = rng.sample(range(size["draws_per_group"]), size["picks_per_group"])
        for d in draws:
            chosen += [c for c in cases if c["group"] == g and c["draw"] == d]
    return chosen
