"""ctrlwalk benchmark: one seeded workload per run, closed loop, checked outputs.

    python3 bench/run.py --workload {exact,extremal,mc,cli} --seed N \
        --seconds T --trace {0,1}

Run from the repository root (the package is imported from ./src). The
workload runs in a fresh worker process; set-up time is also taken from two
extra fresh processes that stop at READY. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Everything above it is a readable report with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from spans import layer_metrics, median, parse_importtime, tail_percentile  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TIME_LIMIT_S = 160  # whole run, leaving room for the import profile and report


def _worker_cmd(args, probe: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--probe"] if probe else cmd


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args, probe: bool, timeout: float):
    """(seconds from spawn to READY, parsed RESULT or None) for one worker."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, probe), cwd=ROOT, env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (not probe and result is None):
        raise RuntimeError(f"worker exited with {proc.returncode} (probe={probe})")
    return ready, result


def import_profile():
    """Median of each import.* metric over fresh `python -X importtime` runs."""
    runs = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ctrlwalk"],
                              cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60, check=True)
        runs.append(parse_importtime(done.stderr))
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KMG")) * mult
    return sizes


def _command_output(cmd, env=None):
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str) -> dict:
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    caches = _cache_sizes()
    nproc = _command_output(["nproc"])
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "nproc": int(nproc) if nproc else None,
        "git_revision": _command_output(["git", "rev-parse", "HEAD"], env=git_env),
        "l2_bytes": caches.get(2),
        "llc_bytes": caches[max(caches)] if caches else None,
        "working_set_bytes_computed": wl.working_set_bytes(workload),
    }


def end_to_end(records, setup_s: float, peak_rss_kib: int) -> dict:
    times = [r["time_s"] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (median(times), "s"),
        "work_per_s": (median([r["work"] / r["time_s"] for r in records]), "work/s"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB"),
    }


def per_layer(result, imports: dict) -> dict:
    traced = result["traced"]
    m = layer_metrics(result["summary"], len(traced))
    m["cli.record_bytes"] = sum(r["record_bytes"] for r in traced) / len(traced)
    m.update(imports)
    base = median([r["time_s"] for r in result["untraced"]])
    m["trace.overhead_frac"] = median([r["time_s"] for r in traced]) / base - 1.0
    units = {"calls": "count", "self_s": "s", "cells": "count", "cells_per_s": "cells/s",
             "useful_cell_frac": "ratio", "bytes_computed": "B", "draws": "count",
             "draws_per_s": "draws/s", "trial_steps": "count", "record_bytes": "B",
             "total_s": "s", "scipy_s": "s", "numpy_s": "s", "overhead_frac": "ratio"}
    return {k: (v, units[k.rsplit(".", 1)[-1]]) for k, v in m.items()}


def report(args, env, records, metrics):
    """Readable lines above the result: metrics by name and unit, failures by name."""
    unit = wl.WORK_UNITS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    print("environment " + json.dumps(env))
    times = [r["time_s"] for r in records]
    tail = tail_percentile(times)
    tail_txt = f", p{tail[0]:g} {tail[1]:.4f} s" if tail else ", no percentile has 10 samples beyond"
    print(f"  operations: {len(times)} timed{tail_txt}; work unit: {unit}")
    for name, (value, u) in metrics.items():
        print(f"  {name:40s} {value:.6g} {u}")
    failed = [r for r in records if r["failures"]]
    print(f"  {'fail_frac':40s} {len(failed) / len(records):.6g} ratio "
          f"({len(failed)} of {len(records)})")
    for r in failed:
        tag = f" [known defect {r['known_defect']}]" if r["known_defect"] else ""
        print(f"    FAILED {r['name']}{tag}: {'; '.join(r['failures'])}")
    for kind in sorted({r["known_defect"] for r in failed if r["known_defect"]}):
        print(f"    known defect {kind}: {wl.KNOWN_DEFECTS[kind]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctrlwalk", "__init__.py")):
        print("error: src/ctrlwalk not found next to bench/; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        setups = [run_worker(args, True, 60)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, result = run_worker(args, False, deadline - time.perf_counter())
        imports = import_profile() if args.trace else None
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    records = result["untraced"] + result.get("traced", [])
    e2e = end_to_end(result["untraced"], median(setups), result["peak_rss_kib"])
    metrics = per_layer(result, imports) if args.trace else e2e
    env = environment(args.workload)
    report(args, env, records, {**e2e, **metrics})

    failed = [r for r in records if r["failures"]]
    out = {
        "correct": all(r["known_defect"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
