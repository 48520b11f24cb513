"""Benchmark of the mhnnsync verification pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. One client runs ops back to back (closed loop)
in a fresh worker process with BLAS threads pinned to 1. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A result file with provenance goes to perfbench/results/, and
the traced run also writes its spans there. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

import workloads  # noqa: E402

BLAS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Set-up is also timed in fresh set-up-only processes, this many before the
# measuring process and this many after it, so the median spans the run.
SETUP_PROBES = (2, 3)
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
                    "peak_rss_mib": "MiB"}
# Per-layer counts that repeat exactly for the same seed; the first two are
# computed from array shapes rather than measured.
COMPUTED = ("integrate.record_mib", "analysis.records_checked")
EXACT = COMPUTED + ("model.rhs_calls", "integrate.calls", "integrate.steps",
                    "integrate.rejected_steps", "integrate.accept_ratio",
                    "analysis.verify_calls", "analysis.violations",
                    "constants.derive_extremes_calls", "constants.derive_constants_calls",
                    "cli.output_bytes")


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over the package sources, standing in for the SHA outside a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "mhnnsync")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def load_cases(workload: str, seed: int) -> tuple:
    """The run's cases with their pinned inputs and expected outputs, and the reference's meta."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    meta, reference = reference["meta"], reference["cases"][workload]
    cases = workloads.select(workload, seed)
    for case in cases:
        entry = reference.get(case["id"])
        if entry is None or entry["spec"] != workloads.spec_digest(case["params"]):
            sys.exit(f"perfbench: case {case['id']} does not match reference.json; "
                     "regenerate it with perfbench/make_reference.py")
        case["inputs"], case["expect"] = entry["inputs"], entry["expect"]
    # Verify ops run strongest coupling first. Stronger coupling takes more steps,
    # so the first op has the largest record array; glibc raises its mmap
    # threshold to the largest block freed so far, so the first pass then
    # allocates like every later one. In seed order, hebbian-ensemble's peak RSS
    # flipped between 69 and 81 MiB from seed to seed.
    if all("P" in case["inputs"] for case in cases):
        cases.sort(key=lambda case: -case["inputs"]["P"])
    return cases, meta


def run_worker(job: dict, timeout: float) -> dict:
    """Run worker.py on a job in a fresh interpreter; return its result."""
    tag = f"{job['workload']}-{os.getpid()}-{job['mode']}"
    job_path = os.path.join(RESULTS, f"job-{tag}.json")
    job = dict(job, results_dir=RESULTS, result_path=os.path.join(RESULTS, f"out-{tag}.json"))
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               **BLAS_ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              env=env, timeout=timeout, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        with open(job["result_path"]) as fh:
            return json.load(fh)
    finally:
        for path in (job_path, job["result_path"]):
            if os.path.exists(path):
                os.remove(path)


def end_to_end(res: dict, setups: list, size: dict) -> tuple:
    """End-to-end metrics, every time scaled to the idle-host speed of the calibration kernel.

    An op's time is multiplied by cal_ref_s over the mean of the kernel passes
    just before and just after it, a set-up's time by cal_ref_s over the kernel
    time in its process.
    """
    ref, cal = size["cal_ref_s"], res["cal_s"]
    scaled = sorted(t * 2 * ref / (cal[i] + cal[i + 1])
                    for i, t in enumerate(res["times"])) or [0.0]
    n = len(scaled)                          # no op passed: the run is reported incorrect
    # nearest rank of the workload's fixed tail percentile
    k = min(max(math.ceil(size["tail_percentile"] / 100 * n) - 1, 0), n - 1)
    tail = {"percentile": size["tail_percentile"], "n": n, "beyond": n - 1 - k}
    metrics = {
        "setup_s": statistics.median(s * ref / c for s, c in setups),
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": scaled[k],
        "ops_per_s": len(res["times"]) / sum(scaled),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    wall = {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_s_p50": statistics.median(res["times"] or [0.0]),
        "ops_per_s": len(res["times"]) / sum(res["times"]) if res["times"] else 0.0,
        "host_slowdown": statistics.median(cal) / ref,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, tail, wall


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "mhnnsync")):
        print(f"perfbench: no package sources under {ROOT}/src/mhnnsync", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    cases, reference = load_cases(workload, seed)
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(traced)}")
    size = workloads.SIZES[workload]
    job = {"workload": workload, "cases": cases, "seconds": seconds,
           "calibration": size["calibration"], "spans_path": stem + "-spans.jsonl"}

    def setup_probe():
        out = run_worker(dict(job, mode="setup"), 60)
        return out["setup_s"], out["setup_cal_s"]

    before, after = SETUP_PROBES if not traced else (0, 0)
    setups = [setup_probe() for _ in range(before)]
    res = run_worker(dict(job, mode="traced" if traced else "untraced"), 150)
    setups.append((res["setup_s"], res["setup_cal_s"]))
    setups += [setup_probe() for _ in range(after)]
    failures = res["failures"]
    attempted = res["attempted"]

    print(f"workload {workload} seed {seed}: {len(cases)} ops per pass, closed loop, "
          f"1 client, {seconds:g} s")
    if traced:
        metrics = res["metrics"]
        for name, (value, unit) in metrics.items():
            label = "computed" if name in COMPUTED else "exact" if name in EXACT else "measured"
            print(f"metric {name} = {value:.6g} {unit} [{label}]")
        print(f"trace: {res['traced_ops']} traced ops, {res['spans']} spans; overhead "
              f"{metrics['op.trace_overhead_s'][0]:.6g} s per op at the median")
        extra = {"traced_ops": res["traced_ops"], "spans": res["spans"]}
    else:
        metrics, tail, wall = end_to_end(res, setups, size)
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(f"op_s_tail is p{tail['percentile']:g} of {tail['n']} ops "
              f"({tail['beyond']} beyond); setup_s is the median of {len(setups)} set-ups")
        print(f"times are scaled to the calibration kernel's idle-host speed; unscaled: "
              f"setup {wall['setup_s']:.6g} s, op p50 {wall['op_s_p50']:.6g} s, "
              f"{wall['ops_per_s']:.6g} ops/s; host slowdown {wall['host_slowdown']:.4g}x")
        extra = {"tail": tail, "unscaled": wall, "setup_samples": setups,
                 "times": res["times"], "cal_s": res["cal_s"]}
    print(f"failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for line in failures[:10]:
        print(f"FAILED {line}")

    size = dict(size, ops_per_pass=len(cases), cases=[c["id"] for c in cases])
    provenance = {
        "git_sha": git_sha(ROOT), "source_sha256": source_digest(ROOT),
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "blas_threads": BLAS_ENV,
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "size": size, "reference": reference,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics, "attempted": attempted,
                   "failed": len(failures), "failures": failures, **extra}, fh, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def smoke() -> int:
    """Run every workload, untraced and traced, at the shortest run length.

    Asserts that each run is correct and prints exactly the metrics
    BENCHMARK.json names, each on its own line with its unit.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                                   workload, "--seed", "1", "--seconds", "1", "--trace",
                                   str(trace)], capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            errors = []
            if proc.returncode != 0 or not lines:
                errors.append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                result = json.loads(lines[-1])
                want = {m["name"]: m["unit"] for m in listed}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    errors.append(f"metrics {got} != {want}")
                if not result["correct"] or result["failed"]:
                    errors.append("incorrect output")
                errors += [f"{name} not printed with its unit {unit}"
                           for name, unit in want.items()
                           if not any(line.startswith(f"metric {name} = ")
                                      and line.split()[4] == unit for line in lines)]
            print(f"smoke {workload} trace {trace}: {'FAILED' if errors else 'ok'}", flush=True)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            failed = failed or bool(errors)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the printed metrics")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
