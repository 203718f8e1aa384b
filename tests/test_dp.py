"""Exact evolution driver and the extremal dynamic program."""

import io
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlwalk import (
    CONSTANT,
    FAST_UNTIL_ZERO,
    FLOAT,
    MAX,
    MIN,
    RATIONAL,
    SCHEDULE,
    AdmissibilityError,
    InvariantError,
    ParameterError,
    PolicySpec,
    ScheduleSegment,
    as_target,
    bang_bang_table_policy,
    boundary_to_csv,
    constant_policy,
    estimate_hit,
    evolve,
    evolve_trace,
    exponent_sweep,
    extract_region,
    fast_until_zero_policy,
    flag_reset_times,
    hit_probability,
    interval_mass,
    mirror_symmetric,
    multiscale_localization_schedule,
    multiscale_qto1_schedule,
    point_mass,
    policy_from_json,
    policy_to_json,
    reset_hit_flags,
    run_batch,
    sample_path,
    schedule_policy,
    solve_extremal,
    sweep_policy,
    two_zone_policy,
    value_table_to_csv,
)
from ctrlwalk import dp, lattice, montecarlo
from ctrlwalk.dp import _backward, _forward, _optimal_curve
from ctrlwalk.policies import _stay_region, rule_change_times
from ctrlwalk.lattice import RATIONAL_MAX_STEPS
from reference import ControlRow, control_grid, path_law, step_distribution, trinomial_return
from sweep_pins import SWEEP_PINS


def grid_optimum(q, n, objective, grid=None, target=(0, 0)):
    """Independent oracle: backward induction with u restricted to a grid.

    Plain-python dict recursion, no shared code with the solver. With the
    stay weight affine in u the restricted optimum at grid {0, ..., q}
    equals the unrestricted one.
    """
    if grid is None:
        grid = [0.0, q / 4, q / 2, 3 * q / 4, q]
    pick = max if objective == MAX else min
    v = {x: 1.0 if target[0] <= x <= target[1] else 0.0 for x in range(-n - 1, n + 2)}
    for t in range(n - 1, -1, -1):
        nv = {}
        for x in range(-t - 1, t + 2):
            nb = v.get(x - 1, 0.0) + v.get(x + 1, 0.0)
            nv[x] = pick(u * v.get(x, 0.0) + (1.0 - u) * 0.5 * nb for u in grid)
        v = {x: nv.get(x, 0.0) for x in range(-n - 1, n + 2)}
    return v[0]


def per_cell_trace(policy, n, start, mode=FLOAT, live=None):
    """Reference evolution: a control_grid row and a step_distribution per step."""
    d = point_mass(start, mode=mode)
    yield d
    resets = flag_reset_times(policy)
    for t in range(n):
        if t in resets:
            d = reset_hit_flags(d)
        u = control_grid(policy, t, d.offset, d.width, mode)
        frozen = None if live is None else (d.sites < live[0]) | (d.sites > live[1])
        d = step_distribution(d, ControlRow(t, d.offset, u, policy.q_cap), frozen)
        yield d


def full_window_solve(q_cap, n, objective, target, radius=None):
    """Reference backward sweep over every site of [-r, r] at every step; r =
    radius, n by default (a smaller one counts leaving [-r, r] as a miss).

    The same operation order as the solver, with no light cone and no
    support pruning: returns v0, all values and the cap rows as run-length
    intervals found site by site.
    """
    lo, hi = target
    r = radius or n
    width = 2 * r + 1
    vnext = np.zeros(width)
    if max(lo, -r) <= min(hi, r):
        vnext[max(lo, -r) + r : min(hi, r) + r + 1] = 1.0
    values = np.zeros((n + 1, width))
    values[n] = vnext
    scale = (1.0 - q_cap) * 0.5
    pad = np.zeros(width + 2)
    rows = [()] * n
    for t in range(n - 1, -1, -1):
        pad[1:-1] = vnext
        nb = pad[:-2] + pad[2:]  # V(x-1) + V(x+1), fixed order
        v0 = nb * 0.5
        vq = nb * scale + vnext * q_cap
        mask = (vq > v0) if objective == MAX else (vq < v0)
        vnext = np.where(mask, vq, v0)
        runs = []
        for j in range(width):
            if mask[j] and runs and runs[-1][1] == j - r - 1:
                runs[-1][1] = j - r
            elif mask[j]:
                runs.append([j - r, j - r])
        rows[t] = tuple((a, b) for a, b in runs)
        values[t] = vnext
    return vnext, values, tuple(rows)


def int_ends(rows):
    """Whether every interval end is a Python int, as the region records print them."""
    return all(type(end) is int for row in rows for iv in row for end in iv)


def mirrored_row(draw, reach=50):
    """Sorted disjoint intervals of a stay set S with S = -S."""
    runs = draw(st.lists(st.tuples(st.integers(0, reach), st.integers(1, 6)), max_size=4))
    half = set().union(*(range(a, a + w) for a, w in runs))
    row = []
    for x in sorted(half | {-x for x in half}):
        if row and row[-1][1] == x - 1:
            row[-1][1] = x
        else:
            row.append([x, x])
    return [tuple(iv) for iv in row]


def site_rows(draw, lo=-50, hi=50, max_intervals=4):
    """Sorted disjoint inclusive intervals, single sites included."""
    ends = sorted(draw(st.sets(st.integers(lo, hi), max_size=2 * max_intervals)))
    ends = ends[: len(ends) // 2 * 2]
    return [(a, b - draw(st.booleans())) for a, b in zip(ends[::2], ends[1::2])]


@st.composite
def evolution_cases(draw):
    """(policy, n, start, mode, live) covering every policy kind."""
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99))
    n = draw(st.integers(0, 40))
    start = draw(st.integers(-45, 45))
    mode = draw(st.sampled_from([FLOAT, RATIONAL]))
    live = draw(st.none() | st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(sorted))

    def simple():
        kind = draw(st.sampled_from([CONSTANT, "two-zone", "fast-until-zero"]))
        if kind == CONSTANT:
            return constant_policy(q, draw(st.sampled_from([0.0, q]) | st.floats(0.0, q)))
        if kind == "two-zone":
            return two_zone_policy(q, draw(st.integers(0, 12)))
        return fast_until_zero_policy(q)

    def schedule(end, depth):
        # breakpoints in (0, end) put fast-until-zero segments, and so flag
        # resets, in the middle of the run; an inner schedule restates times
        # from 0 and may run past its segment's end
        cuts = sorted(draw(st.sets(st.integers(1, end - 1), max_size=3))) if end > 1 else []
        bounds = [0, *cuts, end]
        segments = [
            ScheduleSegment(a, b, schedule(b + draw(st.integers(0, 2)), depth - 1)
                            if depth and draw(st.booleans()) else simple())
            for a, b in zip(bounds, bounds[1:])
        ]
        return schedule_policy(q, segments)

    kind = draw(st.sampled_from(["simple", "schedule", "bang-bang"]))
    if kind == "simple":
        policy = simple()
    elif kind == "bang-bang":
        n = max(n, 1)
        policy = bang_bang_table_policy(q, n, [site_rows(draw) for _ in range(n)])
    else:
        n = max(n, 1)
        policy = schedule(n, 1)
    return policy, n, start, mode, live


@st.composite
def dominance_cases(draw):
    """(policy, n, start, target) over every builder: the constant, two-zone,
    fast-until-zero, nested schedule and bang-bang table kinds of
    evolution_cases, and both multiscale schedules run to their horizon or
    next to a breakpoint. Starts reach past [-n, n]; the target lies inside,
    straddles or misses the window around the start."""
    if draw(st.booleans()):
        policy, n, start, _, _ = draw(evolution_cases())
        n = max(n, 1)
    else:
        kind = draw(st.sampled_from(["schedule-localization", "schedule-qto1"]))
        q, horizon = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99)), draw(st.integers(16, 48))
        policy = sweep_policy(kind, q, horizon, {"K0": 1, "A": draw(st.integers(1, 4))})
        n = draw(st.sampled_from(sorted({horizon} | {
            min(max(seg.t_start + d, 1), horizon) for seg in policy.params["segments"] for d in (-1, 0, 1)
        })))
        start = draw(st.integers(-n - 10, n + 10))
    lo = start + draw(st.integers(-n - 10, n + 10))
    return policy, n, start, (lo, lo + draw(st.just(0) | st.integers(0, 2 * n + 20)))


@st.composite
def dp_cases(draw):
    """(q, n, objective, target) with targets at every place against [-n, n]."""
    q = draw(st.sampled_from([0.0, 0.5, 0.9, 0.95]) | st.floats(0.0, 0.99))
    n = draw(st.integers(1, 60))
    objective = draw(st.sampled_from([MAX, MIN]))
    inside, gap = st.integers(-n, n), st.integers(1, 20)
    kind = draw(st.sampled_from(
        ["site", "interval", "straddle", "partly-outside", "left", "right", "wider"]
    ))
    if kind == "site":
        return q, n, objective, draw(inside)
    if kind == "interval":
        lo = draw(inside)
        return q, n, objective, (lo, draw(st.integers(lo, n)))
    if kind == "straddle":
        return q, n, objective, (-draw(st.integers(1, n)), draw(st.integers(1, n)))
    if kind == "partly-outside":
        lo, hi = draw(inside), n + draw(gap)
        return q, n, objective, (lo, hi) if draw(st.booleans()) else (-hi, -lo)
    if kind == "left":
        hi = -n - draw(gap)
        return q, n, objective, (hi - draw(st.integers(0, 20)), hi)
    if kind == "right":
        lo = n + draw(gap)
        return q, n, objective, (lo, lo + draw(st.integers(0, 20)))
    return q, n, objective, (-n - draw(st.integers(0, 20)), n + draw(gap))


@st.composite
def site_law_cases(draw):
    """(policy, n, start, target) for every sweep kind and a bang-bang table.

    n is the policy's horizon or next to one of its segment starts, where
    flag resets fall; starts reach past the window and targets off it.
    """
    q = draw(st.sampled_from([0.0, 0.5, 0.9, 0.95]) | st.floats(0.0, 0.99))
    kind = draw(st.sampled_from([
        "constant", "two-zone", "fast-until-zero", "schedule-localization", "schedule-qto1",
        "bang-bang",
    ]))
    if kind == "bang-bang":
        horizon = draw(st.integers(1, 80))
        objective, site = draw(st.sampled_from([MAX, MIN])), draw(st.integers(-5, 5))
        policy = solve_extremal(q, horizon, objective, site, keep_values=False)[1].as_policy()
    else:
        horizon = draw(st.integers(64 if kind == "schedule-localization" else 5, 300))
        params = {"K0": draw(st.integers(1, 2)), "A": draw(st.integers(1, 4))}
        policy = sweep_policy(kind, q, horizon, params)
    cuts = {horizon} | {
        min(max(seg.t_start + d, 0), horizon)
        for seg in policy.params.get("segments", ()) for d in (-1, 0, 1)
    }
    n = draw(st.sampled_from(sorted(cuts)))
    near, far = st.integers(-n, n), st.integers(n + 1, 2 * n + 40)
    start = draw(st.sampled_from([st.just(0), near, near, far, far.map(operator.neg)]).flatmap(
        lambda s: s))
    lo = start + draw(st.integers(-n, n) | st.integers(-n - 40, n + 40))
    width = draw(st.just(0) | st.integers(0, 2 * n + 80))
    target = draw(st.sampled_from([None, lo, (lo, lo + width)]))
    return policy, n, start, target


@st.composite
def folded_cases(draw):
    """(policy, n, mode, live, target) where the forward pass folds: a
    mirror-symmetric policy without flag resets, run from 0 under no live
    window or a symmetric one. n takes 0, 1, the horizon and the steps
    around schedule breakpoints; live windows reach past the walk's window."""
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99))
    kind = draw(st.sampled_from(
        ["constant", "fast-until-zero", "two-zone", "schedule-localization", "bang-bang", "solved"]
    ))
    if kind == "bang-bang":
        horizon = draw(st.integers(1, 40))
        policy = bang_bang_table_policy(q, horizon, [mirrored_row(draw) for _ in range(horizon)])
    elif kind == "solved":  # a solve at a symmetric target replays as a symmetric table
        horizon, h = draw(st.integers(1, 40)), draw(st.integers(0, 45))
        objective = draw(st.sampled_from([MAX, MIN]))
        policy = solve_extremal(q, horizon, objective, (-h, h), keep_values=False)[1].as_policy()
    elif kind == "two-zone":
        horizon, policy = 120, two_zone_policy(q, draw(st.integers(0, 12)))
    else:
        horizon = draw(st.integers(64, 200)) if kind == "schedule-localization" else 120
        policy = sweep_policy(kind, q, horizon, {"K0": draw(st.integers(1, 2))} if
                              kind == "schedule-localization" else {})
    cuts = {0, 1, horizon} | {
        min(max(seg.t_start + d, 0), horizon)
        for seg in policy.params.get("segments", ()) for d in (-1, 0, 1)
    }
    n = draw(st.sampled_from(sorted(cuts)) | st.integers(0, horizon))
    mode = draw(st.sampled_from([FLOAT, RATIONAL])) if n <= 24 else FLOAT
    live = draw(st.none() | st.integers(0, n + 5).map(lambda h: (-h, h)))
    lo = draw(st.integers(-n - 3, n + 3))
    target = (lo, lo + draw(st.integers(0, 2 * n + 6)))
    return policy, n, mode, live, target


class TestSiteLawOneRow:
    """One flag row from start 0 without flag resets; hit_probability reads evolve."""

    # an off-zero start: summing the flag rows before each step, not after
    # the last, moves this value by 2.1e-15
    @example((sweep_policy("two-zone", 0.9, 4096, {}), 4096, 7, (0, 100000)))
    @given(site_law_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_two_row_law(self, case):
        policy, n, start, target = case
        got = hit_probability(policy, n, start, target)
        want = float(interval_mass(evolve(policy, n, start), *as_target(target)))
        assert got.hex() == want.hex()
        rows = 2 if start != 0 or flag_reset_times(policy) else 1
        assert next(_forward(policy, n, start, FLOAT, None)).shape == (rows, 1)

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("policy, n", [
        (constant_policy(0.5, 0.5), -1),
        (fast_until_zero_policy(0.5), -1),
        (schedule_policy(0.5, multiscale_qto1_schedule(0.5, 2, 10)), 11),
        (schedule_policy(0.5, [ScheduleSegment(0, 10, two_zone_policy(0.5, 2))]), 11),
        (PolicySpec(CONSTANT, 0.5, {"u_value": 0.7}), 3),
        (PolicySpec(CONSTANT, 0.5, {"u_value": float("nan")}), 3),
        (PolicySpec(FAST_UNTIL_ZERO, 1.5, {}), 3),
    ])
    def test_raises_what_evolve_raises(self, policy, n, start):
        raised = []
        for run in (lambda: evolve(policy, n, start), lambda: hit_probability(policy, n, start)):
            with pytest.raises((ParameterError, AdmissibilityError)) as info:
                run()
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_final_law_checked(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TOTAL_TOL", -1.0)
        for policy in (constant_policy(0.5, 0.5), fast_until_zero_policy(0.5)):
            with pytest.raises(InvariantError):
                hit_probability(policy, 2)


class TestSolverAgainstFullWindow:
    @given(dp_cases())
    @settings(max_examples=200, deadline=None)
    def test_values_and_rows_match_bitwise(self, case):
        q, n, objective, target = case
        v0, values, rows = full_window_solve(q, n, objective, as_target(target))
        table, bb = solve_extremal(q, n, objective, target=target)
        assert table.v0.tobytes() == v0.tobytes()
        assert table.values.tobytes() == values.tobytes()
        assert bb.rows == rows and int_ends(bb.rows)
        lean, lean_bb = solve_extremal(q, n, objective, target=target, keep_values=False)
        assert lean.v0.tobytes() == v0.tobytes() and lean_bb == bb

    @staticmethod
    def inside_cone(row, lo, hi, gap):
        """Whether the row's nonzero sites (row[j] is site j - r) lie more than
        gap sites inside the light cone [lo, hi] on one side: the sweep then
        skips cells of the cone."""
        r = len(row) // 2
        nz = np.flatnonzero(row) - r
        lo, hi = max(lo, -r), min(hi, r)
        return nz.size == 0 or nz[0] - lo > gap or hi - nz[-1] > gap

    # underflow to +0.0 leaves V_t's nonzero support strictly inside the cone:
    # min solves (a parity comb of zeros, and every site zero from some t on
    # at q = 0.9), max solves past n = 1075 (2^-k underflows), targets off the
    # window (no support at all) and folded targets (-h, h)
    @pytest.mark.parametrize("q, n, objective, target", [
        (0.9, 600, MIN, 0),
        (0.95, 500, MIN, (3, 9)),
        (0.5, 1300, MAX, (2, 30)),
        (0.9, 300, MAX, (400, 420)),
        (0.5, 200, MIN, (-500, -301)),
        (0.9, 600, MIN, (-7, 7)),
        (0.0, 1300, MAX, (-3, 3)),
    ])
    def test_pruned_solves_match_bitwise(self, q, n, objective, target):
        lo, hi = as_target(target)
        v0, values, rows = full_window_solve(q, n, objective, (lo, hi))
        assert self.inside_cone(values[0], lo - n, hi + n, dp._EPOCH)
        table, bb = solve_extremal(q, n, objective, target=target)
        assert table.v0.tobytes() == v0.tobytes()
        assert table.values.tobytes() == values.tobytes()
        assert bb.rows == rows

    @pytest.mark.parametrize("q, big, radius", [(0.9, 900, 500), (0.95, 700, 350)])
    def test_pruned_truncated_curve_pass_matches_bitwise(self, q, big, radius):
        # the pass _optimal_curve runs: target (0, 0), folded, no masks
        _, values, _ = full_window_solve(q, big, MIN, (0, 0), radius)
        assert self.inside_cone(values[0], -big, big, dp._EPOCH)
        for t, v in _backward(q, big, MIN, 0, 0, radius):
            assert v[radius:].tobytes() == values[t, radius:].tobytes()

    # epochs of _EPOCH = 64 steps: one short epoch, exactly one, one plus a
    # step, two plus a step; a folded target, one across 0, one off the window
    @pytest.mark.parametrize("n, epochs", [
        (1, [(0, 1)]), (63, [(0, 63)]), (64, [(0, 64)]), (65, [(0, 1), (1, 64)]),
        (129, [(0, 1), (1, 64), (65, 64)]),
    ])
    @pytest.mark.parametrize("target", ["centre", "across", "off"])
    @pytest.mark.parametrize("objective", [MAX, MIN])
    def test_epoch_edges_match_bitwise(self, n, epochs, target, objective):
        target = {"centre": (0, 0), "across": (-3, 5), "off": (n + 2, n + 4)}[target]
        v0, values, rows = full_window_solve(0.9, n, objective, target)
        table, bb = solve_extremal(0.9, n, objective, target=target)
        assert table.v0.tobytes() == v0.tobytes()
        assert table.values.tobytes() == values.tobytes()
        assert bb.rows == rows and int_ends(bb.rows)
        assert [(t, steps) for t, steps, *_ in bb.masks] == epochs

    @given(dp_cases())
    @settings(max_examples=200, deadline=None)
    def test_value_matches_dict_oracle_and_replay(self, case):
        q, n, objective, target = case
        table, bb = solve_extremal(q, n, objective, target=target, keep_values=False)
        value = table.value(0, 0)
        assert abs(grid_optimum(q, n, objective, target=as_target(target)) - value) <= 1e-12
        assert abs(hit_probability(bb.as_policy(), n, target=target) - value) <= 1e-12

    @given(
        st.sampled_from([0.0, 0.5, 0.95]) | st.floats(0.0, 0.99),
        st.integers(1, 60),
        st.sampled_from([MAX, MIN]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_curve_equals_per_n_solves(self, q, big, objective):
        curve = _optimal_curve(q, range(1, big + 1), objective)
        assert sorted(curve) == list(range(1, big + 1))
        for m, (p, _) in curve.items():
            assert p == solve_extremal(q, m, objective, keep_values=False)[0].value(0, 0)

    @given(st.floats(0.01, 0.99), st.integers(6, 60), st.data())
    @settings(max_examples=40, deadline=None)
    def test_optimal_sweep_records_equal_per_n_solves(self, q, big, data):
        # the min objective reaches p = 0 at odd horizons, which no fit takes
        for objective, step in ((MAX, 1), (MIN, 2)):
            top = big // step
            picks = data.draw(st.sets(st.integers(1, top), min_size=1, max_size=6))
            grid = [step * m for m in sorted(picks | {1, 2, top})]
            records, _ = exponent_sweep(
                "optimal", q, grid, params={"objective": objective}, min_n=1
            )
            assert [r["n"] for r in records] == grid
            for r in records:
                want = solve_extremal(q, r["n"], objective, keep_values=False)[0].value(0, 0)
                assert r["p"] == want


class TestDominance:
    """Every policy lies between the extremal solves, read in translated form:
    P_start(S_n in T) under any capped control is bounded by the solves for
    the target T - start, read at site 0."""

    @given(dominance_cases())
    @settings(max_examples=300, deadline=None)
    def test_policy_lies_between_extremal_solves(self, case):
        policy, n, start, (lo, hi) = case
        p = hit_probability(policy, n, start, (lo, hi))
        low, high = (solve_extremal(policy.q_cap, n, objective, (lo - start, hi - start),
                                    keep_values=False)[0].value(0, 0) for objective in (MIN, MAX))
        assert low <= p * (1 + 1e-12) and p <= high * (1 + 1e-12)


class TestEvolveAgainstPerCellOracle:
    @given(evolution_cases())
    @settings(max_examples=150, deadline=None)
    def test_laws_match_bitwise(self, case):
        policy, n, start, mode, live = case
        # collected first: a yielded law must not change under later steps
        got = list(evolve_trace(policy, n, start, mode, live))
        want = list(per_cell_trace(policy, n, start, mode, live))
        final = evolve(policy, n, start, mode, live)
        assert len(got) == len(want) == n + 1
        for g, w in zip([*got, final], [*want, want[-1]]):
            assert (g.time, g.offset, g.mode) == (w.time, w.offset, w.mode)
            if mode == RATIONAL:
                assert g.mass.shape == w.mass.shape and (g.mass == w.mass).all()
            else:
                assert g.mass.tobytes() == w.mass.tobytes()

    def test_flag_reset_schedule_crosses_reset(self):
        segs = multiscale_qto1_schedule(0.9, 2, 40)
        p = schedule_policy(0.9, segs)
        assert flag_reset_times(p)
        for start in (0, 3, -7):
            got = evolve(p, 40, start)
            want = list(per_cell_trace(p, 40, start))[-1]
            assert got.mass.tobytes() == want.mass.tobytes()


@st.composite
def flat_schedules(draw):
    """(q, hz, segments, single): a flat segment list over [0, hz) from a
    multiscale builder or built by hand from constant, two-zone,
    fast-until-zero and bang-bang table pieces; single is one policy ruling
    [0, hz): the one piece's policy, or the list as a schedule."""
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99))
    kind = draw(st.sampled_from(["schedule-localization", "schedule-qto1", "pieces", "pieces"]))
    if kind != "pieces":
        hz = draw(st.integers(64, 100) if kind == "schedule-localization" else st.integers(5, 60))
        params = {"K0": draw(st.integers(1, 2)), "A": draw(st.integers(1, 4))}
        segments = list(sweep_policy(kind, q, hz, params).params["segments"])
        return q, hz, segments, schedule_policy(q, segments)
    hz = draw(st.integers(1, 40))
    bounds = [0, *sorted(draw(st.sets(st.integers(1, hz - 1), max_size=3))), hz] if hz > 1 else [0, 1]

    def piece(a, b):
        kind = draw(st.sampled_from([CONSTANT, "two-zone", FAST_UNTIL_ZERO, "bang-bang"]))
        if kind == CONSTANT:
            return constant_policy(q, draw(st.sampled_from([0.0, q]) | st.floats(0.0, q)))
        if kind == "two-zone":
            return two_zone_policy(q, draw(st.integers(0, 6)))
        if kind == FAST_UNTIL_ZERO:
            return fast_until_zero_policy(q)
        # a table reads absolute times: rows before its segment are never read
        return bang_bang_table_policy(q, b, [()] * a + [site_rows(draw, -8, 8) for _ in range(a, b)])

    segments = [ScheduleSegment(a, b, piece(a, b)) for a, b in zip(bounds, bounds[1:])]
    single = segments[0].inner_policy if len(segments) == 1 else schedule_policy(q, segments)
    return q, hz, segments, single


def assert_same_walk(got, want, n, start):
    """Two policies give the same resets, rule changes, law and samples, bitwise."""
    assert flag_reset_times(got) == flag_reset_times(want)
    assert rule_change_times(got, 0, n) == rule_change_times(want, 0, n)
    a, b = evolve(got, n, start), evolve(want, n, start)
    assert (a.offset, a.mass.tobytes()) == (b.offset, b.mass.tobytes())
    batch = [run_batch(p, n, start, trials=200, seed=17).final for p in (got, want)]
    assert batch[0].tobytes() == batch[1].tobytes()
    paths = [sample_path(p, n, start, seed=5, trial=3)[0] for p in (got, want)]
    assert np.array_equal(*paths)


class TestNestedSchedulesEqualFlat:
    """A schedule nested in a segment rules that segment as the flat list would."""

    @given(flat_schedules(), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_one_segment_wrapper_is_the_policy(self, case, start):
        q, hz, _, single = case
        assert_same_walk(schedule_policy(q, [ScheduleSegment(0, hz, single)]), single, hz, start)

    @given(flat_schedules().filter(lambda case: case[1] > 1), st.integers(-6, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_two_wrapped_halves_equal_the_split_list(self, case, start, data):
        q, hz, segments, _ = case
        c = data.draw(st.integers(1, hz - 1), label="cut")
        inner = schedule_policy(q, segments)
        wrapped = schedule_policy(q, [ScheduleSegment(0, c, inner), ScheduleSegment(c, hz, inner)])
        split = [part for s in segments for part in (
            (ScheduleSegment(s.t_start, c, s.inner_policy), ScheduleSegment(c, s.t_end, s.inner_policy))
            if s.t_start < c < s.t_end else (s,))]
        assert_same_walk(wrapped, schedule_policy(q, split), hz, start)

    def test_wrapped_qto1_keeps_its_resets(self):
        p = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 256))
        wrapped = schedule_policy(0.9, [ScheduleSegment(0, 256, p)])
        assert flag_reset_times(wrapped) == flag_reset_times(p) == (172, 236, 252)
        assert hit_probability(wrapped, 256) == hit_probability(p, 256)
        assert round(hit_probability(wrapped, 256), 5) == 0.29558
        assert estimate_hit(wrapped, 256, trials=4000, seed=3) == estimate_hit(p, 256, trials=4000, seed=3)


def random_policy(rng, q, hz, depth=2):
    """A random leaf of any kind, or a schedule of up to 4 segments nesting
    them to the given depth, ruling at least [0, hz). A table or nested
    schedule reaches at least the end of its segment."""
    kind = rng.choice(["constant", "two-zone", "fast-until-zero", "table", "schedule"][: 4 + (depth > 0)])
    if kind == "constant":
        return constant_policy(q, rng.choice([0.0, q / 2, q]))
    if kind == "two-zone":
        return two_zone_policy(q, rng.randint(0, 3))
    if kind == "fast-until-zero":
        return fast_until_zero_policy(q)
    if kind == "table":
        ends = [sorted(rng.sample(range(-4, 5), 2 * rng.randint(0, 2))) for _ in range(hz)]
        return bang_bang_table_policy(q, hz, [list(zip(e[::2], e[1::2])) for e in ends])
    cuts = [0, *sorted(rng.sample(range(1, hz), min(hz - 1, rng.randint(0, 3)))), hz + rng.randint(0, 2)]
    return schedule_policy(q, [ScheduleSegment(a, b, random_policy(rng, q, b, depth - 1))
                               for a, b in zip(cuts, cuts[1:])])


class TestEvolveAgainstPathOracle:
    """evolve against reference.path_law, a sum over all 3^n paths that reads
    each policy kind from its definition and shares no code with the engines."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_nested_schedules(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            n, start, q = rng.randint(1, 7), rng.randint(-3, 3), rng.choice([0.3, 0.5, 0.9])
            policy = random_policy(rng, q, n)
            law = evolve(policy, n, start)
            want = path_law(policy, n, start)
            sites = range(law.offset, law.offset + law.width)
            assert set(want) <= set(sites)
            assert max(abs(float(law.mass_at(x)) - want.get(x, 0.0)) for x in sites) <= 1e-13, policy

    def test_nested_fast_until_zero_measured_from_its_takeover(self):
        # the inner schedule's second segment takes over at 2 inside the outer segment [2, 4)
        inner = schedule_policy(0.5, [ScheduleSegment(0, 1, constant_policy(0.5, 0.0)),
                                      ScheduleSegment(1, 4, fast_until_zero_policy(0.5))])
        policy = schedule_policy(0.5, [ScheduleSegment(0, 2, constant_policy(0.5, 0.0)),
                                       ScheduleSegment(2, 4, inner)])
        law, want = evolve(policy, 4, 0), path_law(policy, 4, 0)
        assert all(abs(float(law.mass_at(x)) - p) <= 1e-15 for x, p in want.items())


class TestMirrorFold:
    """Both kernels fold a mirror-symmetric run onto sites x >= 0; the
    folded path must equal the per-cell and whole-window oracles bitwise."""

    @given(folded_cases())
    @settings(max_examples=200, deadline=None)
    def test_forward_matches_per_cell_oracle(self, case):
        policy, n, mode, live, target = case
        assert mirror_symmetric(policy) and not flag_reset_times(policy)
        shapes = [m.shape for m in _forward(policy, n, 0, mode, live)]
        assert shapes == [(1, t + 1) for t in range(n + 1)]  # folded at every step
        got = list(evolve_trace(policy, n, 0, mode, live))
        want = list(per_cell_trace(policy, n, 0, mode, live))
        final = evolve(policy, n, 0, mode, live)
        for g, w in zip([*got, final], [*want, want[-1]]):
            assert (g.time, g.offset, g.mode) == (w.time, w.offset, w.mode)
            if mode == RATIONAL:
                assert g.mass.shape == w.mass.shape and (g.mass == w.mass).all()
            else:
                assert g.mass.tobytes() == w.mass.tobytes()
        if mode == FLOAT and live is None:
            want_p = float(interval_mass(want[-1], *target))
            assert hit_probability(policy, n, 0, target).hex() == want_p.hex()

    @given(
        st.sampled_from([0.0, 0.5, 0.9, 0.95]) | st.floats(0.0, 0.99),
        st.integers(1, 60),
        st.sampled_from([MAX, MIN]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_backward_matches_full_window(self, q, n, objective, data):
        h = data.draw(st.integers(0, n + 20))  # h > n: the target covers the window
        v0, values, rows = full_window_solve(q, n, objective, (-h, h))
        table, bb = solve_extremal(q, n, objective, target=(-h, h))
        assert table.v0.tobytes() == v0.tobytes()
        assert table.values.tobytes() == values.tobytes()
        assert bb.rows == rows and int_ends(bb.rows)
        lean, lean_bb = solve_extremal(q, n, objective, target=(-h, h), keep_values=False)
        assert lean.v0.tobytes() == v0.tobytes() and lean_bb == bb

    @given(
        st.sampled_from([0.0, 0.5, 0.95]) | st.floats(0.0, 0.99),
        st.integers(1, 30),
        st.sampled_from([MAX, MIN]),
    )
    @settings(max_examples=30, deadline=None)
    def test_optimal_curve_matches_full_window(self, q, big, objective):
        curve = _optimal_curve(q, range(1, big + 1), objective)
        for m, (p, _) in curve.items():
            assert p == full_window_solve(q, m, objective, (0, 0))[0][m]


class TestMirrorFoldGuard:
    """Which runs fold: the second _forward view is (1, 2) when folded, and a
    folded _backward epoch sweeps from site 0 and hands over a mirrored mask
    block."""

    @staticmethod
    def second_view(policy, n, start=0, live=None):
        views = _forward(policy, n, start, FLOAT, live)
        next(views)
        return next(views).shape

    @pytest.mark.parametrize("kind", ["constant", "fast-until-zero", "two-zone",
                                      "schedule-localization"])
    def test_exact_workload_kinds_fold(self, kind):
        policy = sweep_policy(kind, 0.9, 512, {})
        assert mirror_symmetric(policy)
        assert self.second_view(policy, 512) == (1, 2)
        assert self.second_view(policy, 512, live=(-3, 3)) == (1, 2)

    def test_asymmetric_runs_do_not_fold(self):
        lazy = constant_policy(0.5, 0.5)
        assert self.second_view(lazy, 4, start=3) == (2, 3)
        assert self.second_view(lazy, 4, start=0, live=(-2, 3)) == (1, 3)
        table = bang_bang_table_policy(0.5, 2, [((0, 1),), ()])
        assert not mirror_symmetric(table) and self.second_view(table, 2) == (1, 3)
        resetting = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 2, 40))
        assert mirror_symmetric(resetting) and flag_reset_times(resetting)
        assert self.second_view(resetting, 40) == (2, 3)

    # n = 100: the first epoch runs steps 36..99 and sweeps 64 sites past the
    # target on each side, clipped to [-100, 100]
    @pytest.mark.parametrize("target, offset, width, folded", [
        pytest.param((0, 0), -64, 129, True, id="origin"),
        pytest.param((-3, 3), -67, 135, True, id="symmetric"),
        pytest.param((-50, 50), -100, 201, True, id="symmetric-clipped"),
        pytest.param((-1, 2), -65, 132, False, id="across"),
        pytest.param((2, 2), -62, 129, False, id="one-site"),
    ])
    def test_backward_folds_symmetric_targets(self, target, offset, width, folded):
        blocks = []
        steps = _backward(0.5, 100, MAX, *target, masks=blocks)
        first = next(steps)[1].copy()
        for t, v in steps:
            if t == 36:  # a folded sweep leaves sites x < -1 as they started
                assert (v[:99] == first[:99]).all() == folded
        assert blocks[0][:4] == (36, 64, offset, width)


def spy(monkeypatch, name):
    """The positional arguments of every call to dp.<name> from now on."""
    calls, real = [], getattr(dp, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dp, name, spied)
    return calls


def first_radius(kind, q, n):
    """ceil(min(sqrt(2nL), L/3 + sqrt(L^2/9 + 2LV))), L = ln(2/2^-70): the first
    radius of the pass to n, whose steps with u = q at every site and in every
    row add 1 - q to V and the others 1. A fast-until-zero run from 0 has only
    flagged mass, so it stays everywhere; a two-zone rule holds only in its band."""
    if kind in ("constant", "fast-until-zero"):
        v = n * (1 - q)
    elif kind == "schedule-localization":  # a constant-lazy phase, then two-zone ones
        v = sum((s.t_end - s.t_start) * (1 - q if s.inner_policy.kind == CONSTANT else 1)
                for s in sweep_policy(kind, q, n, {}).params["segments"])
    else:
        v = n
    ln = math.log(2 / 2.0**-70)
    return math.ceil(min(math.sqrt(2 * n * ln), ln / 3 + math.sqrt(ln * ln / 9 + 2 * ln * v)))


class TestTruncatedCurves:
    """The curve passes absorb paths beyond a radius R sized for a 2^-70 tail:
    Azuma's for the optimal curve (R = 635 at N = 4096), the smaller of
    Azuma's and Freedman's for a forward pass, whose policy bounds the summed
    step variances. A point is kept only with a certified error bound, and
    every kept point equals the untruncated one bitwise. One core is
    reported, so every pass runs in this process, where the spies see it."""

    GRID = [512, 1024, 2048, 4096]

    @pytest.fixture(autouse=True)
    def one_core(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_core_count", lambda: 1)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("kind", ["constant", "fast-until-zero", "two-zone",
                                      "schedule-localization"])
    def test_forward_curve_equals_untruncated_pass(self, monkeypatch, kind, q):
        passes = spy(monkeypatch, "_forward")
        records, _ = exponent_sweep(kind, q, self.GRID)
        ns = self.GRID[-1:] if kind in ("constant", "fast-until-zero") else self.GRID
        want = [(n, (-first_radius(kind, q, n), first_radius(kind, q, n))) for n in ns]
        assert sorted((args[1], args[4]) for args in passes) == want  # each certified at once
        for r in records:
            want = hit_probability(sweep_policy(kind, q, r["n"], {}), r["n"])  # one whole pass per n
            assert r["p"].hex() == want.hex()
            assert 0.0 <= r["error_bound"] <= dp._CERT * r["p"]

    @pytest.mark.parametrize("policy, v", [
        (constant_policy(0.9, 0.5), 5.0), (fast_until_zero_policy(0.9), 10 * (1 - 0.9)),  # one row
        (two_zone_policy(0.9, 3), 10.0),
        (schedule_policy(0.9, [ScheduleSegment(0, 4, constant_policy(0.9, 0.5)),  # then two rows
                               ScheduleSegment(4, 10, fast_until_zero_policy(0.9))]), 8.0),
        (bang_bang_table_policy(0.9, 10, [()] * 10), 10.0),
    ])
    def test_step_variance(self, policy, v):
        assert dp._step_variance(policy, 10) == v

    @pytest.mark.parametrize("kind, params, radius", [
        ("constant", {}, 301), ("fast-until-zero", {}, 301), ("two-zone", {"band": 45}, 898)])
    def test_first_radius_at_8192(self, monkeypatch, kind, params, radius):
        passes = spy(monkeypatch, "_forward")
        exponent_sweep(kind, 0.9, [2048, 4096, 8192], params=params)
        assert [args[4] for args in passes] == [(-radius, radius)]

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95])
    def test_optimal_curve_equals_per_n_solves(self, monkeypatch, q):
        passes = spy(monkeypatch, "_backward")
        curve = _optimal_curve(q, self.GRID, MAX)
        assert [args[5] for args in passes] == [635]
        for m, (p, bound) in curve.items():
            assert p == solve_extremal(q, m, MAX, keep_values=False)[0].value(0, 0)
            assert bound == (0.0 if m <= 635 else 2 * math.exp(-(635**2) / (2 * m)))
            assert bound <= dp._CERT * p

    def test_min_curve_falls_back_to_untruncated_pass(self, monkeypatch):
        passes = spy(monkeypatch, "_backward")
        curve = _optimal_curve(0.9, self.GRID, MIN)
        assert [args[5] for args in passes] == [635, None]  # p = 0 cannot be certified
        for m, (p, bound) in curve.items():
            assert p == solve_extremal(0.9, m, MIN, keep_values=False)[0].value(0, 0)
            assert bound == 0.0

    def test_failed_certificate_reads_points_again(self, monkeypatch):
        monkeypatch.setattr(dp, "_EPS", 0.5)  # far too narrow at N = 4096: R = 76 (V = 2048), 107
        forward, backward = spy(monkeypatch, "_forward"), spy(monkeypatch, "_backward")
        records, _ = exponent_sweep("constant", 0.5, self.GRID)
        curve = _optimal_curve(0.9, self.GRID, MAX)
        radii = [args[4] and args[4][1] for args in forward], [args[5] for args in backward]
        for (first, wider), narrow in zip(radii, (76, 107)):  # one narrow pass, then a wider one
            assert first == narrow and wider > narrow
        for r in records:
            want = hit_probability(constant_policy(0.5, 0.5), r["n"])
            assert r["p"].hex() == want.hex() and r["error_bound"] <= dp._CERT * r["p"]
        for m, (p, bound) in curve.items():
            assert p == solve_extremal(0.9, m, MAX, keep_values=False)[0].value(0, 0)
            assert bound <= dp._CERT * p

    def test_short_passes_are_untruncated(self, monkeypatch):
        passes = spy(monkeypatch, "_forward")
        records, _ = exponent_sweep("two-zone", 0.9, [16, 32, 64], min_n=16, params={"band": 4})
        assert [args[4] for args in passes] == [None]  # R = 77 > 64 (Azuma's: V = N)
        assert [r["error_bound"] for r in records] == [0.0] * 3


class TestKeptChecks:
    ENGINES = {
        FLOAT: lambda p: evolve(p, 3, mode=FLOAT),
        RATIONAL: lambda p: evolve(p, 3, mode=RATIONAL),
        "run_batch": lambda p: run_batch(p, 3, trials=4, seed=1),
        "sample_path": lambda p: sample_path(p, 3, seed=1),
        "estimate_hit": lambda p: estimate_hit(p, 4, trials=10, seed=1),
    }

    @pytest.mark.parametrize("u", [0.7, float("nan")])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_inadmissible_control_raises(self, u, engine):
        # built by hand: constant_policy would refuse these values
        p = PolicySpec(CONSTANT, 0.5, {"u_value": u})
        with pytest.raises(AdmissibilityError, match="escapes \\[0, 0.5\\] at step 0"):
            self.ENGINES[engine](p)

    def test_conservation_checked_every_step(self, monkeypatch):
        p = constant_policy(0.5, 0.5)
        evolve(p, 5)
        monkeypatch.setattr(lattice, "_STEP_TOL", -1.0)
        with pytest.raises(InvariantError):
            evolve(p, 1)
        assert evolve(p, 0).mass.tolist() == [[0.0], [1.0]]

    def test_total_mass_checked(self, monkeypatch):
        monkeypatch.setattr(lattice, "_TOTAL_TOL", -1.0)
        with pytest.raises(InvariantError):
            evolve(two_zone_policy(0.5, 1), 2, start=4)


class TestStepLoop:
    """The forward step loop: one multiply per term, a mass check in Python
    floats (Fractions in RATIONAL mode), and laws handed out only at the
    times a caller reads, all bitwise the every-step kernel's."""

    @pytest.mark.parametrize("kind, q, grid", list(SWEEP_PINS))
    def test_sweep_matches_pins(self, kind, q, grid):
        records, _ = exponent_sweep(kind, q, list(grid))
        got = [(r["p"].hex(), r["error_bound"].hex()) for r in records]
        assert got == SWEEP_PINS[kind, q, grid]

    @staticmethod
    def assert_reads_match(policy, n, start, mode, live, reads):
        reads = {t for t in reads if t <= n}
        got = [v.copy() for v in _forward(policy, n, start, mode, live, reads)]
        want = [v.copy() for t, v in enumerate(_forward(policy, n, start, mode, live)) if t in reads]
        assert [g.shape for g in got] == [w.shape for w in want] and len(got) == len(reads)
        for g, w in zip(got, want):
            assert (g == w).all() if mode == RATIONAL else g.tobytes() == w.tobytes()
        return got

    # one row unfolded under a live window; two rows from an off-zero start;
    # flag resets mid-run in RATIONAL mode, with a live window
    @example((constant_policy(0.9, 0.5), 40, 0, FLOAT, (-5, 12)), {0, 11, 12, 13, 40})
    @example((two_zone_policy(0.9, 3), 40, 4, FLOAT, (-10, 30)), {40})
    @example((schedule_policy(0.9, [ScheduleSegment(0, 10, two_zone_policy(0.9, 2)),
                                    ScheduleSegment(10, 30, fast_until_zero_policy(0.9))]),
              30, 0, RATIONAL, (-6, 9)), {0, 9, 10, 11, 30})
    @given(evolution_cases(), st.sets(st.integers(0, 40)))
    @settings(max_examples=60, deadline=None)
    def test_read_times_match_every_step(self, case, reads):
        self.assert_reads_match(*case, reads)

    @given(folded_cases(), st.sets(st.integers(0, 200)) | st.just(set(range(0, 201, 3))))
    @settings(max_examples=100, deadline=None)
    def test_folded_read_times_match_every_step(self, case, reads):
        policy, n, mode, live, _ = case
        got = self.assert_reads_match(policy, n, 0, mode, live, reads)
        assert all(v.shape == (1, t + 1) for t, v in zip(sorted(t for t in reads if t <= n), got))

    # The neighbour share 1/2 raised by delta (and with it two-zone's u = q =
    # 0.5 on its band): the step the mass check names was read off the
    # kernel that checked the mass in numpy scalars. A drift
    # of 2^-50 per step crosses the total tolerance (1e-12) after hundreds of
    # steps, one of 2^-44 the step tolerance (1e-14) at step 0.
    @pytest.mark.parametrize("policy, delta, start, live, n, step", [
        (constant_policy(0.5, 0.3), 2.0**-50, 0, None, 4000, 857),
        (constant_policy(0.5, 0.3), 2.0**-50, 3, None, 4000, 858),
        (constant_policy(0.5, 0.3), 2.0**-50, 0, (-40, 40), 6000, 920),
        (constant_policy(0.5, 0.3), 2.0**-50, 0, (-40, 60), 6000, 888),
        (two_zone_policy(0.5, 3), 2.0**-50, 0, None, 4000, 678),
        (two_zone_policy(0.5, 3), 2.0**-50, 3, None, 4000, 669),
        (two_zone_policy(0.5, 3), 2.0**-50, 0, (-40, 40), 6000, 733),
        (two_zone_policy(0.5, 3), 2.0**-50, 0, (-40, 60), 6000, 704),
        (constant_policy(0.5, 0.3), 2.0**-44, 0, None, 100, 0),
        (two_zone_policy(0.5, 3), 2.0**-44, 3, None, 100, 0),
        (constant_policy(0.5, 0.3), float("nan"), 0, None, 100, 0),
        (constant_policy(0.5, 0.3), Fraction(1, 2**80), 0, None, 20, 0),
        (two_zone_policy(0.5, 3), Fraction(1, 2**80), 3, None, 20, 0),
    ])
    def test_sabotaged_factor_names_the_step(self, monkeypatch, policy, delta, start, live, n, step):
        real = dp._as_mode_value
        monkeypatch.setattr(dp, "_as_mode_value",
                            lambda v, mode: real(v, mode) + delta if v == 0.5 else real(v, mode))
        mode = RATIONAL if isinstance(delta, Fraction) else FLOAT
        with pytest.raises(InvariantError, match=f"^total mass .* after step {step}, "):
            evolve(policy, n, start, mode, live)

    def test_step_buffers_bounded(self):
        # a whole-window two-row run: the broadcast multiply of both terms
        # allocated iteration buffers on every step, and peaked at 341 KiB
        policy = constant_policy(0.9, 0.9)
        evolve(policy, 1024, 3)
        tracemalloc.start()
        try:
            evolve(policy, 1024, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 280 * 1024  # 269.7 KiB measured: the buffers, factors and law


class TestStayRuleLookups:
    """_forward resolves the stay rule only at steps where it may change."""

    @staticmethod
    def lookups(monkeypatch, policy, n, start=0, live=None):
        steps = []

        def counted(pol, t):
            steps.append(t)
            return _stay_region(pol, t)

        monkeypatch.setattr(dp, "_stay_region", counted)
        evolve(policy, n, start, live=live)
        return steps

    @pytest.mark.parametrize(
        "policy", [constant_policy(0.9, 0.4), two_zone_policy(0.9, 3), fast_until_zero_policy(0.9)]
    )
    @pytest.mark.parametrize("start, live", [(0, None), (5, None), (0, (-2, 7))])
    def test_one_lookup_per_run_for_homogeneous_kinds(self, monkeypatch, policy, start, live):
        assert self.lookups(monkeypatch, policy, 64, start, live) == [0]

    @pytest.mark.parametrize("segments", [
        multiscale_localization_schedule(0.9, 0.5, 0.25, 4, 512),
        multiscale_qto1_schedule(0.9, 2, 200),
    ])
    def test_one_lookup_per_schedule_segment(self, monkeypatch, segments):
        policy = schedule_policy(0.9, segments)
        n = segments[-1].t_end
        assert self.lookups(monkeypatch, policy, n) == [s.t_start for s in segments]

    def test_nested_schedule_segments_counted(self, monkeypatch):
        inner = schedule_policy(0.9, [ScheduleSegment(0, 20, two_zone_policy(0.9, 2)),
                                      ScheduleSegment(20, 50, fast_until_zero_policy(0.9))])
        outer = schedule_policy(0.9, [ScheduleSegment(0, 50, inner),
                                      ScheduleSegment(50, 80, constant_policy(0.9, 0.1))])
        assert self.lookups(monkeypatch, outer, 80) == [0, 20, 50]

    def test_one_lookup_per_step_for_a_table(self, monkeypatch):
        _, bb = solve_extremal(0.8, 40, MAX, keep_values=False)
        assert self.lookups(monkeypatch, bb.as_policy(), 40) == list(range(40))

    def test_later_inadmissible_segment_raises_at_its_first_step(self):
        # built by hand: schedule_policy would refuse an inner cap above its own
        bad = PolicySpec(CONSTANT, 0.9, {"u_value": 0.7})
        segments = (ScheduleSegment(0, 3, constant_policy(0.5, 0.5)), ScheduleSegment(3, 6, bad))
        policy = PolicySpec(SCHEDULE, 0.5, {"segments": segments})
        assert evolve(policy, 3).mass.sum() == 1.0
        with pytest.raises(AdmissibilityError, match="escapes \\[0, 0.5\\] at step 3"):
            evolve(policy, 6)

    def test_inner_schedule_horizon_checked_where_it_ends(self):
        inner = schedule_policy(0.5, [ScheduleSegment(0, 5, constant_policy(0.5, 0.5))])
        policy = schedule_policy(0.5, [ScheduleSegment(0, 8, inner)])
        evolve(policy, 5)
        with pytest.raises(ParameterError, match="step 5 outside policy horizon \\[0, 5\\)"):
            evolve(policy, 8)


class TestConstantLazinessClosedForm:
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 17, 4096])
    def test_return_probability(self, q, n):
        want = trinomial_return(n, q)
        assert hit_probability(constant_policy(q, q), n) == pytest.approx(want, rel=1e-10, abs=0)

    def test_oracle_small_cases(self):
        assert trinomial_return(2, 0.5) == pytest.approx(0.25 + 0.125)
        assert trinomial_return(3, 0.0) == 0.0
        assert trinomial_return(4, 0.0) == pytest.approx(6 / 16)


class TestEvolveDriver:
    def test_trace_times(self):
        p = constant_policy(0.5, 0.5)
        times = [d.time for d in evolve_trace(p, 5)]
        assert times == [0, 1, 2, 3, 4, 5]

    def test_hit_probability_lazy(self):
        p = constant_policy(0.5, 0.5)
        n = 30
        want = math.comb(2 * n, n) / 4.0**n
        assert abs(hit_probability(p, n) - want) < 1e-12

    def test_hit_probability_interval_target(self):
        p = constant_policy(0.5, 0.5)
        full = hit_probability(p, 10, target=(-10, 10))
        assert abs(full - 1.0) < 1e-12

    def test_horizon_too_short_rejected(self):
        segs = multiscale_qto1_schedule(0.9, 4, 64)
        p = schedule_policy(0.9, segs)
        with pytest.raises(ParameterError):
            evolve(p, 65)

    @pytest.mark.parametrize("call", [
        lambda p: evolve(p, 4.5),
        lambda p: evolve(p, True),
        lambda p: evolve(p, 4, start=np.float64(1)),
        lambda p: hit_probability(p, 4, start=0.5),
        lambda p: solve_extremal(0.5, 4.5),
        lambda p: solve_extremal(0.5, "4"),
    ])
    def test_non_integer_run_arguments_rejected(self, call):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(constant_policy(0.5, 0.5))

    def test_numpy_integer_run_arguments_accepted(self):
        p = two_zone_policy(0.9, 2)
        want = evolve(p, 12, 3)
        got = evolve(p, np.int64(12), np.int32(3))
        assert got.mass.tobytes() == want.mass.tobytes() and got.offset == want.offset
        assert solve_extremal(0.5, np.int64(6))[0].value(0, 0) == solve_extremal(0.5, 6)[0].value(0, 0)

    def test_schedule_resets_conserve_mass(self):
        segs = multiscale_qto1_schedule(0.9, 4, 64)
        p = schedule_policy(0.9, segs)
        d = evolve(p, 64, start=3)
        assert abs(float(d.mass.sum()) - 1.0) < 1e-12

    def test_as_target(self):
        assert as_target(None) == (0, 0)
        assert as_target(4) == (4, 4)
        assert as_target((-2, 5)) == (-2, 5)
        with pytest.raises(ParameterError):
            as_target((5, -2))

    def test_as_target_numpy_integers(self):
        assert as_target(np.int64(3)) == (3, 3)
        assert as_target(np.int32(-2)) == (-2, -2)
        assert as_target((np.int64(-1), np.int64(4))) == (-1, 4)

    @pytest.mark.parametrize("bad", [3.5, np.float64(2.0), "3", True])
    def test_as_target_rejects_non_integral_site(self, bad):
        with pytest.raises(ParameterError):
            as_target(bad)

    @pytest.mark.parametrize(
        "bad", [[5], (1,), [0, 2, 9], (), [float("inf"), 2], ["a", 1], [0.5, 2], (np.float64(1), 2),
                [False, 2]]
    )
    def test_as_target_rejects_non_pairs(self, bad):
        with pytest.raises(ParameterError):
            as_target(bad)

    LIVE_ERRORS = {
        (-2.5, 3): "live must be a site or a (lo, hi) pair, got (-2.5, 3)",
        (0,): "live must be a site or a (lo, hi) pair, got (0,)",
        (3, 1): "empty live interval [3, 1]",
        "ab": "live site must be an integer, got 'ab'",
    }

    @pytest.mark.parametrize("live", list(LIVE_ERRORS))
    def test_bad_live_window_rejected(self, live):
        with pytest.raises(ParameterError) as err:
            evolve(constant_policy(0.5, 0.5), 4, live=live)
        assert str(err.value) == self.LIVE_ERRORS[live]

    def test_rational_horizon_capped(self):
        p = constant_policy(0.5, 0.5)
        with pytest.raises(ParameterError):
            evolve(p, RATIONAL_MAX_STEPS + 1, mode=RATIONAL)


class TestSolverOracles:
    def test_one_step_max(self):
        table, _ = solve_extremal(0.5, 1, MAX)
        assert table.value(0, 0) == 0.5  # stay put at the cap

    def test_two_step_max(self):
        table, _ = solve_extremal(0.5, 2, MAX)
        assert table.value(0, 0) == 0.5

    def test_two_step_min(self):
        # freeze at the start, then run: 0.5 * 0 + 0.5 * 0.25
        table, _ = solve_extremal(0.5, 2, MIN)
        assert table.value(0, 0) == 0.125

    def test_sandwich_bounds_lazy(self):
        for n in (2, 7, 16):
            lo = solve_extremal(0.5, n, MIN, keep_values=False)[0].value(0, 0)
            hi = solve_extremal(0.5, n, MAX, keep_values=False)[0].value(0, 0)
            mid = hit_probability(constant_policy(0.5, 0.5), n)
            assert lo - 1e-15 <= mid <= hi + 1e-15

    def test_cap_zero_is_simple_walk(self):
        table, _ = solve_extremal(0.0, 12, MAX)
        want = math.comb(12, 6) / 2.0**12
        assert abs(table.value(0, 0) - want) < 1e-14
        table, _ = solve_extremal(0.0, 7, MAX)
        assert table.value(0, 0) == 0.0  # parity leaves no mass at 0

    @pytest.mark.parametrize("objective", [MAX, MIN])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_matches_grid_search(self, q, objective):
        for n in range(1, 5):
            got = solve_extremal(q, n, objective, keep_values=False)[0].value(0, 0)
            want = grid_optimum(q, n, objective)
            assert abs(got - want) < 1e-12

    def test_interval_target(self):
        table, _ = solve_extremal(0.5, 6, MAX, target=(-1, 1))
        single = solve_extremal(0.5, 6, MAX)[0].value(0, 0)
        assert table.value(0, 0) >= single
        every = solve_extremal(0.5, 6, MAX, target=(-6, 6))[0].value(0, 0)
        assert abs(every - 1.0) < 1e-14

    @pytest.mark.parametrize("objective", [MAX, MIN])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_targets_against_the_window(self, n, objective):
        outside = [(-n - 8, -n - 2), (-n - 8, -n - 1), (n + 1, n + 8), (n + 2, n + 8)]
        for target, want in [(t, 0.0) for t in outside] + [((-n - 3, n + 3), 1.0)]:
            got = solve_extremal(0.5, n, objective, target=target)[0].value(0, 0)
            assert got == want
        for target in ((-n - 4, -n + 1), (n - 1, n + 4), (-n - 2, 0)):
            got = solve_extremal(0.5, n, objective, target=target)[0].value(0, 0)
            assert abs(got - grid_optimum(0.5, n, objective, target=target)) < 1e-12

    @pytest.mark.parametrize("objective", [MAX, MIN])
    def test_mirrored_targets_agree(self, objective):
        n = 9
        for lo, hi in ((-14, -11), (-12, -10), (-12, -4), (-3, 1), (2, 5), (-9, 9), (4, 30)):
            a = solve_extremal(0.6, n, objective, target=(lo, hi), keep_values=False)
            b = solve_extremal(0.6, n, objective, target=(-hi, -lo), keep_values=False)
            assert a[0].value(0, 0) == b[0].value(0, 0)

    def test_monotone_in_cap(self):
        values = [
            solve_extremal(q / 10, 32, MAX, keep_values=False)[0].value(0, 0)
            for q in range(0, 10)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-14


class TestValueTable:
    def test_terminal_level_is_indicator(self):
        table, _ = solve_extremal(0.5, 4, MAX)
        assert table.value(4, 0) == 1.0
        assert table.value(4, 1) == 0.0
        assert table.value(4, -3) == 0.0

    def test_streaming_mode_keeps_root_only(self):
        table, _ = solve_extremal(0.5, 8, MAX, keep_values=False)
        assert table.value(0, 0) > 0
        with pytest.raises(ParameterError):
            table.value(3, 1)

    @pytest.mark.parametrize("keep", [True, False])
    def test_time_checked_before_site(self, keep):
        table, _ = solve_extremal(0.5, 4, MAX, keep_values=keep)
        for t, x in ((7, 99), (-1, 0), (5, 0), (2, 1.5), (1.0, 0), (0, np.float64(1))):
            with pytest.raises(ParameterError):
                table.value(t, x)
        assert table.value(0, 99) == table.value(0, -5) == 0.0
        if keep:
            assert table.value(2, 99) == 0.0 and table.value(np.int64(4), np.int32(0)) == 1.0

    def test_csv_export(self):
        table, bb = solve_extremal(0.5, 3, MAX)
        buf = io.StringIO()
        value_table_to_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 4 * 7  # levels 0..3 over a fixed 7-site window
        buf = io.StringIO()
        boundary_to_csv(bb, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,max_radius"
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("cutoff", [None, 0, 2, 3, 7])
    def test_csv_values_are_plain_floats(self, cutoff):
        n = 2
        table, _ = solve_extremal(0.5, n, MAX, target=(-1, 2))
        buf = io.StringIO()
        rows = value_table_to_csv(table, buf, cutoff)
        lines = buf.getvalue().strip().splitlines()[1:]
        assert rows == len(lines)
        for line in lines:
            t, x, value = line.split(",")
            t, x, value = int(t), int(x), float(value)
            assert value == (0.0 if abs(x) > n else table.values[t, x + n])

    def test_csv_negative_cutoff_rejected(self):
        table, _ = solve_extremal(0.5, 2, MAX)
        with pytest.raises(ParameterError, match="cutoff"):
            value_table_to_csv(table, io.StringIO(), -1)

    def test_csv_non_integer_cutoff_rejected(self):
        table, _ = solve_extremal(0.5, 4, MAX)
        with pytest.raises(ParameterError, match="cutoff must be an integer"):
            value_table_to_csv(table, io.StringIO(), 1.7)


class TestBangBang:
    def test_replay_matches_value(self):
        for q in (0.3, 0.9):
            for objective in (MAX, MIN):
                table, bb = solve_extremal(q, 64, objective, keep_values=False)
                p = bb.as_policy()
                replay = hit_probability(p, 64)
                assert abs(replay - table.value(0, 0)) < 1e-12

    def test_region_two_step_max(self):
        _, bb = solve_extremal(0.5, 2, MAX)
        region = extract_region(bb)
        assert region["q_cap"] == 0.5 and region["objective"] == MAX
        assert region["intervals"][0] == [[-1, -1], [1, 1]]
        assert region["intervals"][1] == [[0, 0]]
        assert region["boundary"] == [(0, 1), (1, 0)]

    def test_region_symmetric(self):
        _, bb = solve_extremal(0.7, 24, MAX, keep_values=False)
        for row in extract_region(bb)["intervals"]:
            mirrored = sorted((-b, -a) for a, b in row)
            assert mirrored == [tuple(iv) for iv in row]

    def test_region_within_cone(self):
        n = 24
        _, bb = solve_extremal(0.7, n, MIN, keep_values=False)
        for t, row in enumerate(extract_region(bb)["intervals"]):
            for a, b in row:
                assert -(n - t) - 1 <= a <= b <= (n - t) + 1

    def test_min_region_pushes_outward(self):
        _, bb = solve_extremal(0.5, 4, MIN)
        boundary = dict(extract_region(bb)["boundary"])
        assert boundary[0] >= boundary[1] >= boundary[2]

    def test_rows_built_once_on_first_read(self):
        _, bb = solve_extremal(0.7, 40, MAX, keep_values=False)
        assert "rows" not in vars(bb)
        rows = bb.rows
        assert len(rows) == 40 and bb.rows is rows

    def test_lazy_rows_replay_and_round_trip(self):
        table, bb = solve_extremal(0.9, 48, MIN, target=(-3, 5), keep_values=False)
        p = bb.as_policy()
        assert abs(hit_probability(p, 48, target=(-3, 5)) - table.value(0, 0)) < 1e-12
        assert policy_from_json(policy_to_json(p)).params["rows"] == p.params["rows"]

    def test_equal_solves_compare_equal(self):
        a = solve_extremal(0.6, 30, MAX, target=(2, 4), keep_values=False)[1]
        b = solve_extremal(0.6, 30, MAX, target=(2, 4))[1]
        assert a == b and hash(a) == hash(b)
        assert a.rows == b.rows and a == b  # a read row cache does not enter equality
        assert a != solve_extremal(0.6, 30, MIN, target=(2, 4))[1]

    def test_bang_bang_policy_is_serializable(self):
        _, bb = solve_extremal(0.5, 16, MAX, keep_values=False)
        p = bb.as_policy()
        back = policy_from_json(policy_to_json(p))
        assert abs(hit_probability(back, 16) - hit_probability(p, 16)) == 0.0
