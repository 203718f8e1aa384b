"""One workload process: set up, say READY, run whole cycles, report as JSON.

    python bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--probe]

A single client runs one operation at a time (closed loop). Each operation
is timed alone; its checks run afterwards, outside the timed region. With
--probe the process exits right after READY, so the caller can time set-up
on its own. With --trace 1 the run is split: half untraced (the baseline
for the tracing overhead), half with spans at the module boundaries.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from spans import Tracer, merge_summaries, summarize  # noqa: E402


def _out_bytes(op, ctx) -> int:
    argv = op.get("argv", ())
    if "--out" not in argv:
        return 0
    path = os.path.join(ctx.tmp, argv[argv.index("--out") + 1])
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_phase(ctx, gen, seconds: float, tracer=None):
    """Run whole cycles until `seconds` have passed; one record per operation."""
    records = []
    summary = {}
    deadline = time.perf_counter() + seconds
    while True:
        ops = next(gen)
        if ctx.workload == "cli":
            wl.start_cycle(ctx)
        results = []
        for op in ops:
            if tracer is not None:
                tracer.op = len(records) + len(results)
            t0 = time.perf_counter()
            try:
                res = wl.run_op(op, ctx)
            except Exception as exc:  # a raising operation is a failed operation
                res = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            if ctx.workload == "cli" and tracer is not None:
                spans_file = os.path.join(ctx.tmp, "spans.json")
                if os.path.exists(spans_file):
                    with open(spans_file) as fh:
                        merge_summaries(summary, json.load(fh))
                    os.remove(spans_file)
            wl.between_ops(op, ctx)
            results.append(res)
            records.append({"name": op["name"], "time_s": elapsed, "work": op["work"],
                            "known_defect": wl.known_defect(op),
                            "record_bytes": _out_bytes(op, ctx)})
        for rec, failed in zip(records[-len(ops):], wl.check_cycle(ops, results, ctx)):
            rec["failures"] = failed
        if time.perf_counter() >= deadline:
            break
    if tracer is not None and ctx.workload != "cli":
        summary = summarize([s for s in tracer.spans if s[5] is not None])
    return records, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ctrlwalk as cw

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bench-", dir=scratch)
    try:
        ctx = wl.Context(cw, args.workload, ROOT, tmp)
        gen = wl.cycles(args.workload, args.seed)
        print("READY", flush=True)
        if args.probe:
            return 0

        span = args.seconds / 2 if args.trace else args.seconds
        untraced, _ = run_phase(ctx, gen, span)
        result = {"untraced": untraced}
        if args.trace:
            tracer = Tracer()
            tracer.install(cw)
            ctx.tracer = tracer
            try:
                traced, summary = run_phase(ctx, gen, span, tracer)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            result["traced"] = traced
            result["summary"] = summary

        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
