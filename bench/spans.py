"""Span recording at ctrlwalk's module boundaries, and the arithmetic on spans.

A boundary is a name one ctrlwalk module imports from another (for example
``dp.step_distribution``). ``Tracer.install`` replaces such names with
wrappers that record one span per call: name, start, end, parent span and
operation id, plus work counts taken from the call's arguments. Spans stay in
memory until the run ends. Nothing in the package itself is edited; a
boundary a later version no longer has is skipped and reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import re
import time
import types

import numpy as np

# module -> names imported from a sibling module, as listed by the benchmark
BOUNDARIES = {
    "dp": ("step_distribution", "control_grid", "reset_hit_flags", "evolve"),
    "montecarlo": ("step_uniforms", "trial_keys", "control_values", "run_batch"),
    "analysis": (
        "solve_extremal",
        "hit_probability",
        "estimate_hit",
        "fit_exponent",
        "control_grid",
        "step_distribution",
    ),
}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def sibling_imports(module) -> tuple:
    """Names in module bound to functions of another module of its package."""
    package = module.__name__.rsplit(".", 1)[0] + "."
    return tuple(
        attr for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__.startswith(package) and value.__module__ != module.__name__
    )


def span_name(fn) -> str:
    """Layer-qualified name: the defining module's last component + function."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# ---------------------------------------------------------------------------
# work counts taken at the boundary, from arguments and results only


def _count_step_distribution(args, kwargs, result):
    d, row = args[0], args[1]
    return {
        "cells": int(d.mass.size),
        "bytes": int(d.mass.nbytes + row.u.nbytes + result.mass.nbytes),
    }


def light_cone_cells(n: int, lo: int, hi: int) -> int:
    """Cells of the (n, 2n+1) backward sweep that lie in the target's light cone.

    Row t (0 <= t < n) can only be nonzero at sites within n - t of [lo, hi];
    the sweep computes every site of [-n, n] on every row.
    """
    r = np.arange(1, n + 1, dtype=np.int64)  # r = n - t
    a = np.maximum(lo - r, -n)
    b = np.minimum(hi + r, n)
    return int(np.clip(b - a + 1, 0, None).sum())


def _target_bounds(target):
    if target is None:
        return 0, 0
    if isinstance(target, int):
        return target, target
    return int(target[0]), int(target[1])


def _count_solve_extremal(args, kwargs, result):
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    target = args[3] if len(args) > 3 else kwargs.get("target")
    lo, hi = _target_bounds(target)
    return {"cells": n * (2 * n + 1), "useful_cells": light_cone_cells(n, lo, hi)}


def _count_step_uniforms(args, kwargs, result):
    return {"draws": int(args[0].size)}


def _count_run_batch(args, kwargs, result):
    return {"trial_steps": int(result.trials) * int(result.n)}


COUNTERS = {
    "lattice.step_distribution": _count_step_distribution,
    "dp.solve_extremal": _count_solve_extremal,
    "rng.step_uniforms": _count_step_uniforms,
    "montecarlo.run_batch": _count_run_batch,
}


# ---------------------------------------------------------------------------
# recording


class Tracer:
    """In-memory span recorder. One instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, start, end, parent, op, error, counts)
        self._stack = []
        self._next = 0
        self.op = None
        self._restore = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; returns fn's result."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        counter = COUNTERS.get(name)
        error = False
        result = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            error = True
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            counts = counter(args, kwargs, result) if counter and not error else None
            self.spans.append((sid, name, start, end, parent, self.op, error, counts))

    def wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, package, boundaries=BOUNDARIES):
        """Replace each listed boundary name with a traced wrapper.

        boundaries maps a module of the package to names it imports; names
        or modules the package no longer has are skipped.
        """
        for mod, names in boundaries.items():
            try:
                m = importlib.import_module(f"{package.__name__}.{mod}")
            except ImportError:
                continue
            for attr in names:
                fn = getattr(m, attr, None)
                if fn is not None:
                    self._restore.append((m, attr, fn))
                    setattr(m, attr, self.wrap(fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans):
    """Span id -> duration minus the part of it covered by direct children."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if a >= b:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """Per span name: calls, errors, self_s and summed work counts."""
    st = self_times(spans)
    out = {}
    for s in spans:
        agg = out.setdefault(s[1], {"calls": 0, "errors": 0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["errors"] += int(s[6])
        agg["self_s"] += st[s[0]]
        for k, v in (s[7] or {}).items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out


def merge_summaries(into: dict, part: dict) -> None:
    """Add the summary `part` (as returned by summarize) into `into`."""
    for name, agg in part.items():
        cur = into.setdefault(name, {"calls": 0, "errors": 0, "self_s": 0.0, "counts": {}})
        cur["calls"] += agg["calls"]
        cur["errors"] += agg["errors"]
        cur["self_s"] += agg["self_s"]
        for k, v in agg["counts"].items():
            cur["counts"][k] = cur["counts"].get(k, 0) + v


def _get(summary, name):
    return summary.get(name, {"calls": 0, "errors": 0, "self_s": 0.0, "counts": {}})


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary, ops: int) -> dict:
    """Per-layer metrics, each a mean per operation unless it is a ratio.

    A boundary with no spans reads as zero calls and zero time.
    """
    ops = max(int(ops), 1)
    m = {}

    def per_op(name, field):
        return _get(summary, name)[field] / ops

    def count(name, key):
        return _get(summary, name)["counts"].get(key, 0)

    m["cli.run_command.self_s"] = per_op("cli.run_command", "self_s")
    m["analysis.exponent_sweep.self_s"] = per_op("analysis.exponent_sweep", "self_s")
    m["analysis.fit_exponent.self_s"] = per_op("analysis.fit_exponent", "self_s")
    m["dp.evolve.calls"] = per_op("dp.evolve", "calls")
    m["dp.evolve.self_s"] = per_op("dp.evolve", "self_s")

    se = _get(summary, "dp.solve_extremal")
    m["dp.solve_extremal.calls"] = se["calls"] / ops
    m["dp.solve_extremal.self_s"] = se["self_s"] / ops
    m["dp.solve_extremal.cells"] = count("dp.solve_extremal", "cells") / ops
    m["dp.cells_per_s"] = _ratio(count("dp.solve_extremal", "cells"), se["self_s"])
    m["dp.useful_cell_frac"] = _ratio(
        count("dp.solve_extremal", "useful_cells"), count("dp.solve_extremal", "cells")
    )

    sd = _get(summary, "lattice.step_distribution")
    m["lattice.step_distribution.calls"] = sd["calls"] / ops
    m["lattice.step_distribution.self_s"] = sd["self_s"] / ops
    m["lattice.step_distribution.cells"] = count("lattice.step_distribution", "cells") / ops
    m["lattice.cells_per_s"] = _ratio(count("lattice.step_distribution", "cells"), sd["self_s"])
    m["lattice.bytes_computed"] = count("lattice.step_distribution", "bytes") / ops
    m["lattice.reset_hit_flags.self_s"] = per_op("lattice.reset_hit_flags", "self_s")

    m["policies.control_grid.calls"] = per_op("policies.control_grid", "calls")
    m["policies.control_grid.self_s"] = per_op("policies.control_grid", "self_s")
    m["policies.control_values.calls"] = per_op("policies.control_values", "calls")
    m["policies.control_values.self_s"] = per_op("policies.control_values", "self_s")

    su = _get(summary, "rng.step_uniforms")
    m["rng.step_uniforms.calls"] = su["calls"] / ops
    m["rng.step_uniforms.self_s"] = su["self_s"] / ops
    m["rng.draws"] = count("rng.step_uniforms", "draws") / ops
    m["rng.draws_per_s"] = _ratio(count("rng.step_uniforms", "draws"), su["self_s"])
    m["rng.trial_keys.self_s"] = per_op("rng.trial_keys", "self_s")

    m["montecarlo.run_batch.self_s"] = per_op("montecarlo.run_batch", "self_s")
    m["montecarlo.trial_steps"] = count("montecarlo.run_batch", "trial_steps") / ops
    m["montecarlo.barrier_diagnostics.self_s"] = per_op("montecarlo.barrier_diagnostics", "self_s")
    m["montecarlo.estimate_hit.self_s"] = per_op("montecarlo.estimate_hit", "self_s")
    return m


# ---------------------------------------------------------------------------
# timing statistics


def median(values):
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    k = len(v) // 2
    return v[k] if len(v) % 2 else 0.5 * (v[k - 1] + v[k])


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(values, min_beyond: int = 10):
    """(p, value) for the highest percentile with >= min_beyond samples above it.

    The value is the nearest-rank percentile; None when no listed percentile
    has enough samples beyond it.
    """
    v = sorted(values)
    n = len(v)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100 - 1e-9))
        if n - rank >= min_beyond:
            return p, v[rank - 1]
    return None


# ---------------------------------------------------------------------------
# python -X importtime


def parse_importtime(text: str) -> dict:
    """Seconds from ``-X importtime`` output.

    total_s is the cumulative time of the top-level ``ctrlwalk`` import;
    scipy_s and numpy_s sum the self time of every module in those packages.
    """
    total_us = 0
    scipy_us = 0
    numpy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # header line
        name = parts[2].strip()
        if name == "ctrlwalk":
            total_us = cum_us
        root = name.split(".", 1)[0]
        if root == "scipy":
            scipy_us += self_us
        elif root == "numpy":
            numpy_us += self_us
    return {
        "import.total_s": total_us * 1e-6,
        "import.scipy_s": scipy_us * 1e-6,
        "import.numpy_s": numpy_us * 1e-6,
    }
