"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import types
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    layer_metrics,
    light_cone_cells,
    merge_summaries,
    parse_importtime,
    self_times,
    sibling_imports,
    summarize,
    tail_percentile,
    valid_metric_name,
)


def span(sid, name, start, end, parent=None, op=0, counts=None):
    return (sid, name, start, end, parent, op, False, counts)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 4.0, parent=0),
        span(2, "c", 2.0, 3.0, parent=1),  # grandchild: counted against b, not a
        span(3, "b", 5.0, 6.5, parent=0),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.5)


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", -1.0, 2.0, parent=0),  # starts before the parent
        span(2, "c", 1.0, 3.0, parent=0),  # overlaps b
        span(3, "d", 9.0, 12.0, parent=0),  # ends after the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_summarize_adds_calls_self_time_and_counts():
    spans = [
        span(0, "x", 0.0, 4.0),
        span(1, "y", 0.0, 1.0, parent=0, counts={"cells": 5}),
        span(2, "y", 2.0, 3.0, parent=0, counts={"cells": 7}),
    ]
    s = summarize(spans)
    assert s["x"]["calls"] == 1 and s["x"]["self_s"] == pytest.approx(2.0)
    assert s["y"]["calls"] == 2 and s["y"]["counts"]["cells"] == 12


def test_merge_summaries_adds_per_name():
    a = summarize([span(0, "x", 0.0, 1.0, counts={"cells": 2})])
    merge_summaries(a, summarize([span(0, "x", 0.0, 2.0, counts={"cells": 3}),
                                  span(1, "y", 0.0, 1.0)]))
    assert a["x"]["calls"] == 2 and a["x"]["self_s"] == pytest.approx(3.0)
    assert a["x"]["counts"]["cells"] == 5 and a["y"]["calls"] == 1


def test_tracer_records_nesting_and_errors():
    clock = iter(range(100)).__next__
    tr = Tracer(clock=lambda: float(clock()))
    tr.op = 7

    def inner():
        return 3

    def outer():
        return tr.span("m.inner", inner) + 1

    def boom():
        raise ValueError("no")

    assert tr.span("m.outer", outer) == 4
    with pytest.raises(ValueError):
        tr.span("m.boom", boom)
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["m.inner"][4] == by_name["m.outer"][0]
    assert by_name["m.outer"][4] is None and by_name["m.outer"][5] == 7
    assert by_name["m.boom"][6] is True
    assert summarize(tr.spans)["m.boom"]["errors"] == 1


# ---------------------------------------------------------------------------
# percentile rule and metric names


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    got = tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(1 for i in range(n) if i > value) >= 10


def test_tail_percentile_takes_nearest_rank():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)


def test_metric_name_rule():
    for good in ("op_s", "dp.cells_per_s", "import.total_s", "a-b.c_9", "9lives"):
        assert valid_metric_name(good)
    for bad in ("", "op s", "cells/s", "_lead", ".lead", "x" * 65, "pé"):
        assert not valid_metric_name(bad)


def test_every_declared_and_emitted_metric_name_is_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(valid_metric_name(n) for n in declared)
    emitted = set(layer_metrics({}, 1)) | {
        "cli.record_bytes", "import.total_s", "import.scipy_s", "import.numpy_s",
        "trace.overhead_frac",
    }
    assert emitted == {m["name"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# missing boundaries


def test_missing_boundary_reads_as_zero_calls():
    m = layer_metrics({}, 3)
    assert m["lattice.step_distribution.calls"] == 0
    assert m["rng.draws_per_s"] == 0.0
    assert m["dp.useful_cell_frac"] == 0.0


def test_install_skips_absent_boundaries():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.dp")

    def evolve():
        return 1

    evolve.__module__ = "fakepkg.lattice"
    mod.evolve = evolve
    sys.modules["fakepkg"], sys.modules["fakepkg.dp"] = pkg, mod
    try:
        tr = Tracer()
        tr.install(pkg, boundaries={"dp": ("evolve", "step_distribution"), "gone": ("x",)})
        assert mod.evolve() == 1
        tr.uninstall()
        assert mod.evolve is evolve
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.dp"]
    assert [s[1] for s in tr.spans] == ["lattice.evolve"]


def test_sibling_imports_lists_cross_module_functions_only():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ctrlwalk import cli

    names = set(sibling_imports(cli))
    assert {"evolve", "solve_extremal", "estimate_hit", "exponent_sweep"} <= names
    assert "run_command" not in names  # defined in cli itself
    assert "ChainSpec" not in names  # a class, not a call boundary


# ---------------------------------------------------------------------------
# inputs


def _first_cycles(workload, seed, k=3):
    gen = wl.cycles(workload, seed)
    return [next(gen) for _ in range(k)]


def _composition(cycle):
    return Counter(
        (op["op"], op.get("policy_kind"), op.get("policy"), op.get("target_kind"),
         op.get("role"), op.get("expect"))
        for op in cycle
    )


@pytest.mark.parametrize("workload", sorted(wl.CYCLES))
def test_same_seed_same_inputs(workload):
    assert _first_cycles(workload, 11) == _first_cycles(workload, 11)


@pytest.mark.parametrize("workload", sorted(wl.CYCLES))
def test_other_seed_other_values_same_composition(workload):
    a, b = _first_cycles(workload, 11), _first_cycles(workload, 12)
    assert a != b
    for ca, cb in zip(a, b):
        assert _composition(ca) == _composition(cb)
        assert sum(op["work"] for op in ca) == sum(op["work"] for op in cb)


def test_mc_alternates_operation_kinds():
    for cycle in _first_cycles("mc", 3):
        kinds = [op["op"] for op in cycle]
        assert kinds == ["estimate_hit", "barrier_diagnostics"] * (len(kinds) // 2)


def test_extremal_q_and_objective_mix_is_fixed():
    def mix(cycle):
        slots = [op for op in cycle if op["op"] == "sweep" or op["role"] == "first"]
        return (Counter(op["q"] for op in slots),
                Counter(op["objective"] for op in slots if op["op"] == "solve"))

    first = mix(_first_cycles("extremal", 1)[0])
    for cycle in _first_cycles("extremal", 9):
        assert mix(cycle) == first


def test_extremal_keeps_left_of_window_targets():
    for cycle in _first_cycles("extremal", 5):
        left = [op for op in cycle if op.get("target_kind") == "left-of-window"]
        assert len(left) == 1
        assert left[0]["target"][1] < -left[0]["n"]


# ---------------------------------------------------------------------------
# oracles and counts


@pytest.mark.parametrize("u", [0.0, 0.3, 0.9])
def test_trinomial_matches_two_step_closed_form(u):
    a = (1.0 - u) / 2
    assert wl.trinomial_return(2, u) == pytest.approx(u * u + 2 * a * a, rel=1e-14)


def test_light_cone_matches_brute_force():
    n = 7
    for lo, hi in [(0, 0), (-3, 2), (5, 9), (-20, -10), (8, 8)]:
        brute = sum(
            1 for t in range(n) for x in range(-n, n + 1)
            if lo - (n - t) <= x <= hi + (n - t)
        )
        assert light_cone_cells(n, lo, hi) == brute


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy._core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        700 |     scipy.special",
        "import time:       300 |       1000 |   scipy.stats",
        "import time:        20 |       1170 | ctrlwalk",
    ])
    got = parse_importtime(text)
    assert got["import.total_s"] == pytest.approx(1170e-6)
    assert got["import.scipy_s"] == pytest.approx(1000e-6)
    assert got["import.numpy_s"] == pytest.approx(150e-6)
