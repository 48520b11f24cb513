"""Measuring process for one run: set-up, closed-loop op timing, correctness, tracing.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1:

    python3 perfbench/worker.py JOB.json

JOB.json holds the workload, the cases with their pinned inputs and expected
outputs, the mode ("setup", "untraced" or "traced"), the run length, the
calibration kernel's size and the path of the result file to write. Nothing
heavier than the standard library is imported before the set-up clock starts.
"""

import json
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

# A run times at least this many ops, however short --seconds is.
MIN_OPS = 11
# Spans kept in memory by a traced run before it stops at the next pass boundary.
SPAN_CAP = 50_000


def _attempt(ops, op, expect, failures, tracer=None, index=0):
    """Run one op; return its seconds, or None if it raised or departs from the reference."""
    try:
        if tracer is None:
            t0 = perf_counter()
            out = op.run()
            elapsed = perf_counter() - t0
        else:
            with tracer.op(index) as rec:
                out = op.run()
            elapsed = rec[4] - rec[3]
        bad = ops.check(op.summary(out), expect)
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        failures.append(f"{op.case_id}: {exc!r}")
        return None
    if bad:
        failures.append(f"{op.case_id}: departs from reference in {', '.join(bad)}")
        return None
    return elapsed


def untraced(ops, built, expects, seconds, cal):
    """Closed loop with a calibration kernel pass between ops.

    cal_s[i] and cal_s[i + 1] are the kernel passes just before and just after times[i].
    """
    failures = []
    # one untimed warm-up op lets numpy's lazy set-up finish; it is still checked
    _attempt(ops, built[0], expects[0], failures)
    attempted, times, cal_s = 1, [], [cal.run()]
    start = perf_counter()
    deadline = start + seconds
    while attempted - 1 < MIN_OPS or perf_counter() < deadline:
        i = (attempted - 1) % len(built)
        elapsed = _attempt(ops, built[i], expects[i], failures)
        attempted += 1
        if elapsed is not None:
            times.append(elapsed)
            cal_s.append(cal.run())
    return {"attempted": attempted, "failures": failures, "times": times, "cal_s": cal_s}


def traced(ops, built, expects, seconds, spans_path):
    """Whole passes over the op list; each op runs once untraced and once traced."""
    import tracing
    tracer = tracing.Tracer()
    failures, plain, spanned = [], [], []
    start = perf_counter()
    passes = 0
    # whole passes only, so counts per op repeat exactly; another pass starts
    # only if one more pass of the average length still fits in the run
    while passes == 0 or ((perf_counter() - start) * (passes + 1) / passes <= seconds
                          and len(tracer.spans) < SPAN_CAP):
        for i, (op, expect) in enumerate(zip(built, expects)):
            # alternate which side runs first, so neither inherits the other's warm state
            for side in ((0, 1) if (passes + i) % 2 == 0 else (1, 0)):
                if side:
                    spanned.append(_attempt(ops, op, expect, failures, tracer,
                                            passes * len(built) + i))
                else:
                    plain.append(_attempt(ops, op, expect, failures))
        passes += 1
    n_ops = passes * len(built)
    metrics = tracer.metrics(n_ops)
    traced_p50 = statistics.median([x for x in spanned if x is not None] or [0.0])
    plain_p50 = statistics.median([x for x in plain if x is not None] or [0.0])
    metrics["op.traced_s_p50"] = (traced_p50, "s")
    metrics["op.untraced_s_p50"] = (plain_p50, "s")
    metrics["op.trace_overhead_s"] = (traced_p50 - plain_p50, "s")
    tracer.dump(spans_path, start)
    return {"attempted": 2 * n_ops, "failures": failures, "metrics": metrics,
            "traced_ops": n_ops, "spans": len(tracer.spans)}


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    workdir = tempfile.mkdtemp(prefix="work-", dir=job["results_dir"])
    try:
        t0 = perf_counter()
        import ops
        built = [ops.build(job["workload"], case, case["inputs"], workdir)
                 for case in job["cases"]]
        result = {"setup_s": perf_counter() - t0}
        from calibration import Calibration
        cal = Calibration(**job["calibration"])
        # the kernel time that scales this process's set-up: median of three passes
        result["setup_cal_s"] = statistics.median(cal.run() for _ in range(3))
        expects = [case["expect"] for case in job["cases"]]
        if job["mode"] == "untraced":
            result.update(untraced(ops, built, expects, job["seconds"], cal))
        elif job["mode"] == "traced":
            result.update(traced(ops, built, expects, job["seconds"], job["spans_path"]))
        import numpy
        result["numpy"] = numpy.__version__
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
