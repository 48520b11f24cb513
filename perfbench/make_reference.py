"""Regenerate reference.json: pinned inputs and expected outputs of every catalogue case.

    python3 perfbench/make_reference.py

Run it from the repository root at the commit whose outputs are the
reference. It derives each case's inputs (coupling strength, integrator
block) with the package, runs the op once and stores the summary the
benchmark compares against. A case whose op raises or yields a non-finite
number stops the script: every workload must be one on which no op fails.
"""

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def finite(summary: dict) -> bool:
    """Every number in a summary is finite; a reference must never hold inf or nan."""
    values = [summary.get(k) for k in ("deg_estimate", "p_star", "rate", "residual")]
    values += [x for row in summary.get("rows", []) for x in row]
    return all(math.isfinite(x) for x in values if ops.is_real(x))


def main() -> None:
    cases = {}
    os.makedirs(run.RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as workdir:
        for workload in workloads.WORKLOADS:
            cases[workload] = {}
            for case in workloads.catalogue(workload):
                inputs = ops.derive_inputs(workload, case)
                op = ops.build(workload, case, inputs, workdir)
                summary = op.summary(op.run())
                if not finite(summary) or summary.get("exit", 0) != 0:
                    raise SystemExit(f"{workload} {case['id']}: unusable reference {summary}")
                cases[workload][case["id"]] = {"spec": workloads.spec_digest(case["params"]),
                                               "inputs": inputs, "expect": summary}
                print(workload, case["id"], summary.get("verdict", ""), flush=True)
    meta = {"git_sha": run.git_sha(ROOT), "source_sha256": run.source_digest(ROOT),
            "numpy": np.__version__, "python": sys.version.split()[0]}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"meta": meta, "cases": cases}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
