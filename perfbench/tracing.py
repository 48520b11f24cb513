"""Span tracer for the traced run: rebinds package names, keeps spans in memory.

A span is [name, parent index, op index, start, end, attrs]. RHS calls are too
many to keep one span each (thousands per op), so they are aggregated per
enclosing span: calls, busy seconds and members evaluated. A layer's self time
is its spans' durations minus their direct children, RHS busy time included;
the RHS busy time itself is the model layer's self time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from time import perf_counter

import mhnnsync.analysis
import mhnnsync.cli
import mhnnsync.constants

LAYERS = ("model", "integrate", "analysis", "constants", "cli")

# The DP5 stepper evaluates the RHS 7 times per attempted step.
DP5_STAGES = 7


def _rk4_steps(cfg) -> int:
    return max(1, math.ceil(cfg.t_end / cfg.dt - 1e-12))


def _integrate_attrs(args, traj) -> dict:
    cfg = args[2]
    if cfg.method == "rk4-fixed":
        steps = _rk4_steps(cfg)
    elif cfg.record_stride == 1:
        steps = len(traj.times) - 1        # every accepted step is recorded
    else:
        raise ValueError("accepted DP5 steps are only countable at record_stride 1")
    return {"method": cfg.method, "steps": steps,
            "record_bytes": traj.times.nbytes + traj.states.nbytes,
            "samples": len(traj.times) * traj.batch_size}


def _output_bytes(args, code) -> dict:
    argv = args[0]
    return {"output_bytes": os.path.getsize(argv[argv.index("--output") + 1])}


class Tracer:
    def __init__(self):
        self.spans = []
        self.rhs = {}          # enclosing span index -> [calls, busy_s, members]
        self._stack = [-1]
        self._op = -1
        self._patches = self._build_patches()

    def _wrap(self, name, fn, attrs=None, result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1], self._op, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, out)
            return result(out) if result is not None else out
        return traced

    def _wrap_rhs(self, rhs):
        agg, stack = self.rhs, self._stack

        def traced_rhs(y):
            t0 = perf_counter()
            out = rhs(y)
            busy = perf_counter() - t0
            a = agg.get(stack[-1])
            if a is None:
                a = agg[stack[-1]] = [0, 0.0, 0]
            a[0] += 1
            a[1] += busy
            a[2] += y.shape[0] if y.ndim == 2 else 1
            return out
        return traced_rhs

    def _build_patches(self):
        an, cst, cli = mhnnsync.analysis, mhnnsync.constants, mhnnsync.cli
        wrap = self._wrap

        def rhs_factory(make):
            return lambda p: self._wrap_rhs(make(p))

        def threshold_result(thr):
            return dataclasses.replace(
                thr, rate_at=wrap("constants.rate_at", thr.rate_at),
                residual_at=wrap("constants.residual_at", thr.residual_at))

        return [
            (an, "integrate", wrap("integrate.integrate", an.integrate, _integrate_attrs)),
            (an, "make_mhnn_rhs", rhs_factory(an.make_mhnn_rhs)),
            (an, "make_hebbian_rhs", rhs_factory(an.make_hebbian_rhs)),
            (an, "verify_guarantees",
             wrap("analysis.verify_guarantees", an.verify_guarantees,
                  lambda args, rep: {"violations": len(rep.violations)})),
            (cst, "derive_extremes", wrap("constants.derive_extremes", cst.derive_extremes)),
            (cst, "derive_constants", wrap("constants.derive_constants", cst.derive_constants)),
            (cst, "threshold", wrap("constants.threshold", cst.threshold,
                                    result=threshold_result)),
            (cli, "load_config", wrap("cli.load_config", cli.load_config)),
            (cli, "main", wrap("cli.main", cli.main, _output_bytes)),
        ]

    @contextmanager
    def op(self, index: int):
        """Trace one op: rebind every name, record a root span, restore the names."""
        originals = [(mod, name, getattr(mod, name)) for mod, name, _ in self._patches]
        for mod, name, traced in self._patches:
            setattr(mod, name, traced)
        self._op = index
        rec = ["op", -1, index, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            for mod, name, fn in originals:
                setattr(mod, name, fn)

    def metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics over every traced op, with units.

        Counts repeat exactly for the same inputs. ``integrate.record_mib`` and
        ``analysis.records_checked`` are computed from array shapes.
        """
        spans, rhs = self.spans, self.rhs
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        for sid, (_, busy, _) in rhs.items():
            child[sid] += busy
        self_s = {layer: 0.0 for layer in LAYERS + ("op",)}
        count = {}
        attr = {}
        load_config_s = op_s = 0.0
        for i, (name, _, _, start, end, attrs) in enumerate(spans):
            self_s[name.split(".")[0]] += end - start - child[i]
            count[name] = count.get(name, 0) + 1
            if name == "op":
                op_s += end - start
            if name == "cli.load_config":
                load_config_s += end - start
            for key in ("record_bytes", "samples", "violations", "output_bytes"):
                if attrs and key in attrs:
                    attr[key] = attr.get(key, 0) + attrs[key]
        calls = sum(a[0] for a in rhs.values())
        busy = sum(a[1] for a in rhs.values())
        members = sum(a[2] for a in rhs.values())
        self_s["model"] += busy
        steps = attempts = 0
        for i, (name, *_, attrs) in enumerate(spans):
            if name == "integrate.integrate":
                steps += attrs["steps"]
                attempts += (attrs["steps"] if attrs["method"] == "rk4-fixed"
                             else rhs[i][0] // DP5_STAGES)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "model.rhs_calls": (calls / n_ops, "count"),
            "model.rhs_busy_s": (busy / n_ops, "s"),
            "model.rhs_us_per_call": (ratio(busy, calls) * 1e6, "us"),
            "model.rhs_ns_per_member": (ratio(busy, members) * 1e9, "ns"),
            "integrate.calls": (count.get("integrate.integrate", 0) / n_ops, "count"),
            "integrate.steps": (steps / n_ops, "count"),
            "integrate.rejected_steps": ((attempts - steps) / n_ops, "count"),
            "integrate.accept_ratio": (ratio(steps, attempts), "ratio"),
            "integrate.self_s": (self_s["integrate"] / n_ops, "s"),
            "integrate.overhead_us_per_step": (ratio(self_s["integrate"], steps) * 1e6, "us"),
            "integrate.record_mib": (attr.get("record_bytes", 0) / n_ops / 2**20, "MiB"),
            "analysis.verify_calls": (count.get("analysis.verify_guarantees", 0) / n_ops, "count"),
            "analysis.verify_self_s": (self_s["analysis"] / n_ops, "s"),
            "analysis.records_checked": (attr.get("samples", 0) / n_ops, "count"),
            "analysis.violations": (attr.get("violations", 0) / n_ops, "count"),
            "constants.derive_extremes_calls":
                (count.get("constants.derive_extremes", 0) / n_ops, "count"),
            "constants.derive_constants_calls":
                (count.get("constants.derive_constants", 0) / n_ops, "count"),
            "constants.self_s": (self_s["constants"] / n_ops, "s"),
            "cli.load_config_s": (load_config_s / n_ops, "s"),
            "cli.self_s": (self_s["cli"] / n_ops, "s"),
            "cli.output_bytes": (attr.get("output_bytes", 0) / n_ops, "bytes"),
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = (ratio(self_s[layer], op_s), "ratio")
        out["op.unattributed_share"] = (ratio(self_s["op"], op_s), "ratio")
        return out

    def dump(self, path: str, t0: float) -> None:
        """Write every span as one JSON line; RHS aggregates follow as 'model.rhs' records."""
        with open(path, "w") as fh:
            for i, (name, parent, op, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "op": op,
                                     "start": start - t0, "end": end - t0,
                                     **(attrs or {})}) + "\n")
            for parent, (calls, busy, members) in self.rhs.items():
                fh.write(json.dumps({"name": "model.rhs", "parent": parent,
                                     "op": self.spans[parent][2], "calls": calls,
                                     "busy_s": busy, "members": members}) + "\n")
