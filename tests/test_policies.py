"""Control policies: builders, evaluation, schedules, serialization."""

import ast
import gc
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlwalk import (
    HIT_ZERO,
    NOT_HIT,
    AdmissibilityError,
    DegenerateScheduleError,
    ParameterError,
    PolicySpec,
    ScheduleSegment,
    bang_bang_table_policy,
    constant_policy,
    fast_until_zero_policy,
    flag_reset_times,
    horizon,
    mirror_symmetric,
    multiscale_localization_schedule,
    multiscale_qto1_schedule,
    policy_from_json,
    policy_to_json,
    schedule_policy,
    solve_extremal,
    two_zone_policy,
)
from ctrlwalk import policies
from ctrlwalk.dp import evolve
from ctrlwalk.montecarlo import _stay_sites, _stay_where, run_batch
from ctrlwalk.policies import _rules, run_args
from reference import control_grid, evaluate


def ranges(policy, t0, t1):
    """The (a, b, u, hit_only, intervals) rules _rules yields for [t0, t1)
    before it stops, and the message of the ParameterError it stops on, if any."""
    got = []
    try:
        for rule in _rules(policy, t0, t1):
            got.append(rule)
    except ParameterError as exc:
        return got, str(exc)
    return got, None


TABLE_ROWS = [(), ((0, 0),), ((-1, 1),), ((-2, -1), (1, 2)), ((0, 3),)]


@st.composite
def any_policies(draw, depth=2):
    """A leaf policy of any kind, or a schedule of one to four segments nested
    up to depth deep. Segment lengths ignore the inner horizons, so a step
    may fall past the end of a table or of a nested schedule."""
    kinds = ["constant", "two-zone", "fast", "table"] + ["schedule"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return constant_policy(0.5, draw(st.sampled_from([0.0, 0.2, 0.5])))
    if kind == "two-zone":
        return two_zone_policy(0.5, draw(st.integers(0, 3)))
    if kind == "fast":
        return fast_until_zero_policy(0.5)
    if kind == "table":
        rows = draw(st.lists(st.sampled_from(TABLE_ROWS), min_size=1, max_size=8))
        return bang_bang_table_policy(0.5, len(rows), rows)
    segments, t = [], 0
    for length in draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)):
        segments.append(ScheduleSegment(t, t + length, draw(any_policies(depth - 1))))
        t += length
    return schedule_policy(0.5, segments)


class TestBuilders:
    def test_constant(self):
        p = constant_policy(0.5, 0.25)
        for t, x in [(0, 0), (3, -7), (100, 2)]:
            assert evaluate(p, t, x) == 0.25

    def test_constant_above_cap(self):
        with pytest.raises(AdmissibilityError):
            constant_policy(0.5, 0.6)

    def test_cap_range(self):
        with pytest.raises(ParameterError):
            constant_policy(1.0, 0.5)
        with pytest.raises(ParameterError):
            constant_policy(-0.1, 0.0)

    def test_two_zone(self):
        p = two_zone_policy(0.8, 3)
        assert evaluate(p, 0, 0) == 0.8
        assert evaluate(p, 5, 3) == 0.8
        assert evaluate(p, 5, -3) == 0.8
        assert evaluate(p, 5, 4) == 0.0
        assert evaluate(p, 5, -4) == 0.0

    def test_two_zone_band_nonnegative(self):
        two_zone_policy(0.5, 0)  # a point band is legal
        with pytest.raises(ParameterError):
            two_zone_policy(0.5, -1)

    def test_fast_until_zero_reads_flag(self):
        # free while searching for 0, lazy at the cap after the first visit
        p = fast_until_zero_policy(0.7)
        assert evaluate(p, 2, 5, flag=NOT_HIT) == 0.0
        assert evaluate(p, 2, 5, flag=HIT_ZERO) == 0.7
        assert evaluate(p, 2, 0, flag=HIT_ZERO) == 0.7

    def test_bang_bang_table(self):
        p = bang_bang_table_policy(0.5, 2, [[(-1, -1), (1, 1)], [(0, 0)]])
        assert evaluate(p, 0, 1) == 0.5
        assert evaluate(p, 0, 0) == 0.0
        assert evaluate(p, 1, 0) == 0.5
        assert evaluate(p, 1, 2) == 0.0
        assert horizon(p) == 2

    def test_bang_bang_table_overlap_rejected(self):
        with pytest.raises(ParameterError):
            bang_bang_table_policy(0.5, 1, [[(-1, 1), (0, 2)]])

    # a row kept as it is, a tuple of (int, int) tuples, is checked as a copied one is
    @pytest.mark.parametrize("row", [((0, 2), (2, 3)), ((3, 4), (0, 1)), ((2, 1),)])
    def test_bang_bang_table_checks_kept_rows(self, row):
        with pytest.raises(ParameterError, match="^row 1 intervals not sorted/disjoint$"):
            bang_bang_table_policy(0.5, 2, [(), row])

    def test_bang_bang_table_row_count(self):
        with pytest.raises(ParameterError):
            bang_bang_table_policy(0.5, 3, [[(0, 0)]])

    def test_bang_bang_table_keeps_solver_rows(self):
        _, bb = solve_extremal(0.9, 200, "max", target=(-3, 8), keep_values=False)
        rows = bb.as_policy().params["rows"]
        assert len(rows) == 200 and all(got is row for got, row in zip(rows, bb.rows))

    def test_bang_bang_table_freezes_other_rows(self):
        # lists, numpy ints and a tuple row holding a list are copied into
        # tuples of (int, int) tuples
        given_rows = [[[-2, -1], [1, 2]], ((np.int64(0), np.int32(3)),), ((0, 1), [3, 4]), ()]
        rows = bang_bang_table_policy(0.5, 4, given_rows).params["rows"]
        assert rows == (((-2, -1), (1, 2)), ((0, 3),), ((0, 1), (3, 4)), ())
        assert {(type(iv), type(iv[0]), type(iv[1])) for row in rows for iv in row} == {(tuple, int, int)}
        assert rows[2] is not given_rows[2] and rows[3] is given_rows[3]

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: two_zone_policy(0.5, 2.5), id="two-zone-band"),
        pytest.param(lambda: two_zone_policy(0.5, True), id="two-zone-band-bool"),
        pytest.param(lambda: policy_from_json(
            {"kind": "two-zone", "q_cap": 0.5, "band_halfwidth": 2.5}), id="two-zone-json"),
        pytest.param(lambda: bang_bang_table_policy(0.5, 2.9, [((0.5, 1.5),), ()]), id="table-n"),
        pytest.param(lambda: bang_bang_table_policy(0.5, 2, [((0.5, 1),), ()]), id="table-lo"),
        pytest.param(lambda: bang_bang_table_policy(0.5, 2, [((0, 1.5),), ()]), id="table-hi"),
        pytest.param(lambda: multiscale_localization_schedule(0.9, 0.5, 0.5, 4.5, 512), id="loc-K0"),
        pytest.param(lambda: multiscale_localization_schedule(0.9, 0.5, 0.5, 4, 512.5), id="loc-T"),
        pytest.param(lambda: multiscale_qto1_schedule(0.9, 4.5, 512), id="qto1-A"),
        pytest.param(lambda: multiscale_qto1_schedule(0.9, 4, 512.5), id="qto1-n"),
        pytest.param(lambda: schedule_policy(
            0.5, [ScheduleSegment(0, 5.5, constant_policy(0.5, 0.5))]), id="schedule-t_end"),
        pytest.param(lambda: schedule_policy(
            0.5, [ScheduleSegment(0, "5", constant_policy(0.5, 0.5))]), id="schedule-t_end-string"),
        pytest.param(lambda: schedule_policy(0.5, [ScheduleSegment(0, 2, constant_policy(0.5, 0.5)),
                                                   ScheduleSegment(2.0, 4, constant_policy(0.5, 0.5))]),
                     id="schedule-t_start"),
    ])
    def test_non_integer_sizes_rejected(self, build):
        with pytest.raises(ParameterError, match="must be an integer"):
            build()


class TestRunArguments:
    def test_integers_pass_through(self):
        p = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 64))
        assert run_args(p, np.int64(64), np.int32(-3)) == (64, -3)
        assert run_args(constant_policy(0.5, 0.5), 10**6, 0) == (10**6, 0)

    @pytest.mark.parametrize("n, start, message", [
        (65, 0, "policy horizon 64 shorter than n=65"),
        (-1, 0, "n must be >= 0"),
        (4.0, 0, "n must be an integer"),
        (4, "1", "start must be an integer"),
    ])
    def test_both_engines_share_the_rule(self, n, start, message):
        p = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 64))
        for run in (lambda: run_args(p, n, start), lambda: evolve(p, n, start),
                    lambda: run_batch(p, n, start, trials=4)):
            with pytest.raises(ParameterError, match=message):
                run()


class TestSchedules:
    def test_partition_enforced(self):
        inner = constant_policy(0.5, 0.5)
        segs = multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64)
        schedule_policy(0.5, segs)  # sanity: a real partition passes
        from ctrlwalk import ScheduleSegment

        with pytest.raises(ParameterError):
            schedule_policy(0.5, [ScheduleSegment(1, 5, inner)])  # gap at 0
        with pytest.raises(ParameterError):
            schedule_policy(
                0.5,
                [ScheduleSegment(0, 5, inner), ScheduleSegment(6, 8, inner)],
            )

    def test_segment_times_read_as_ints(self):
        p = schedule_policy(0.5, [ScheduleSegment(np.int64(0), np.int32(4), constant_policy(0.5, 0.5))])
        seg = p.params["segments"][0]
        assert (type(seg.t_start), type(seg.t_end)) == (int, int) and horizon(p) == 4

    def test_inner_cap_bounded_by_outer(self):
        from ctrlwalk import ScheduleSegment

        hot = constant_policy(0.9, 0.9)
        with pytest.raises(AdmissibilityError):
            schedule_policy(0.5, [ScheduleSegment(0, 4, hot)])

    def test_localization_shape(self):
        # alpha=0.25, beta=0.5, K0=2, T=64: two refinement levels fit, and
        # the budget splits so the bands shrink 4 -> 2 toward the end
        segs = multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64)
        assert [(s.t_start, s.t_end) for s in segs] == [(0, 44), (44, 60), (60, 64)]
        assert segs[0].inner_policy.kind == "constant"
        assert segs[0].inner_policy.params["u_value"] == 0.5
        assert [s.inner_policy.params["band_halfwidth"] for s in segs[1:]] == [4, 2]

    def test_localization_degenerate(self):
        with pytest.raises(DegenerateScheduleError):
            multiscale_localization_schedule(0.5, 0.5, 0.25, 4, 100)
        with pytest.raises(DegenerateScheduleError):
            multiscale_localization_schedule(0.5, 4.0, 0.5, 2, 64)

    def test_localization_covers_horizon(self):
        segs = multiscale_localization_schedule(0.9, 0.5, 0.25, 4, 4096)
        assert segs[0].t_start == 0 and segs[-1].t_end == 4096
        for a, b in zip(segs, segs[1:]):
            assert a.t_end == b.t_start
        bands = [s.inner_policy.params["band_halfwidth"] for s in segs[1:]]
        assert bands == sorted(bands, reverse=True)
        assert bands[-1] == 4

    def test_localization_skips_empty_phases(self):
        # at beta = 0.9 the floors of neighbouring breakpoints coincide 27 times
        segs = multiscale_localization_schedule(0.5, 0.001, 0.9, 1, 1000)
        assert segs[0].t_start == 0 and segs[-1].t_end == 1000
        assert all(a.t_end == b.t_start for a, b in zip(segs, segs[1:]))
        assert all(s.t_start < s.t_end for s in segs)
        schedule_policy(0.5, segs)

    def test_qto1_phases_tile_the_horizon(self):
        # A*4^L <= n keeps every phase nonempty, so the builder skips none
        for A in (1, 2, 3, 4, 7, 39):
            for n in range(A + 1, 1200):
                segs = multiscale_qto1_schedule(0.5, A, n)
                assert segs[0].t_start == 0 and segs[-1].t_end == n
                assert all(a.t_end == b.t_start for a, b in zip(segs, segs[1:]))
                assert all(s.t_start < s.t_end for s in segs)

    def test_qto1_shape(self):
        # n = A*4^L exactly: the refinement budget consumes the whole horizon,
        # every segment is a search-then-stick phase, lengths telescope by 4
        segs = multiscale_qto1_schedule(0.9, 4, 4096)
        lengths = [s.t_end - s.t_start for s in segs]
        assert lengths == [2732, 1024, 256, 64, 16, 4]
        assert all(s.inner_policy.kind == "fast-until-zero" for s in segs)
        assert segs[0].t_start == 0 and segs[-1].t_end == 4096

    def test_qto1_free_prefix(self):
        # horizon with slack before the first phase: spend it walking freely
        segs = multiscale_qto1_schedule(0.9, 4, 8)
        assert [(s.t_start, s.t_end) for s in segs] == [(0, 4), (4, 8)]
        assert segs[0].inner_policy.kind == "constant"
        assert segs[0].inner_policy.params["u_value"] == 0.0
        assert segs[1].inner_policy.kind == "fast-until-zero"

    def test_qto1_reset_times(self):
        p = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 4096))
        assert flag_reset_times(p) == (2732, 3756, 4012, 4076, 4092)

    def test_qto1_no_room(self):
        with pytest.raises(DegenerateScheduleError):
            multiscale_qto1_schedule(0.9, 4, 4)

    def test_horizon(self):
        assert horizon(constant_policy(0.5, 0.5)) is None
        segs = multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64)
        assert horizon(schedule_policy(0.5, segs)) == 64

    def test_rule_ranges(self):
        def spans(policy, t0, t1):
            got, error = ranges(policy, t0, t1)
            return [(a, b) for a, b, *_ in got], error

        lazy, band = constant_policy(0.5, 0.3), two_zone_policy(0.5, 3)
        for p in (lazy, band, fast_until_zero_policy(0.5)):
            assert spans(p, 0, 9) == ([(0, 9)], None) and spans(p, 0, 0) == ([], None)
        table = bang_bang_table_policy(0.5, 7, [((0, 0),), (), ((-1, 1),)] * 2 + [()])
        assert spans(table, 0, 3) == ([(0, 1), (1, 2), (2, 3)], None)
        inner = schedule_policy(0.5, [ScheduleSegment(0, 2, lazy), ScheduleSegment(2, 5, band)])
        outer = schedule_policy(0.5, [ScheduleSegment(0, 4, inner), ScheduleSegment(4, 7, table)])
        # the inner schedule's segments, then each step of the table
        assert spans(outer, 0, 7) == ([(0, 2), (2, 4), (4, 5), (5, 6), (6, 7)], None)
        assert spans(outer, 0, 3) == ([(0, 2), (2, 3)], None)
        short = schedule_policy(0.5, [ScheduleSegment(0, 6, inner)])
        # the inner horizon ends at 5, and step 5 is refused
        assert spans(short, 0, 6) == ([(0, 2), (2, 5)], "step 5 outside policy horizon [0, 5)")

    @given(any_policies(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_rules_tile_the_run_and_agree_with_evaluate(self, policy, past):
        def refuses(t):
            try:
                evaluate(policy, t, 0)
            except ParameterError:  # past a horizon, whatever the site and flag
                return True
            return False

        n = (horizon(policy) or 8) + past
        first_refused = next((t for t in range(n) if refuses(t)), None)
        got, error = ranges(policy, 0, n)
        # the ranges tile [0, n) in order, up to the first step evaluate refuses
        assert [a for a, *_ in got] == [0] + [b for _, b, *_ in got[:-1]]
        assert got[-1][1] == (n if first_refused is None else first_refused)
        if first_refused is None:
            assert error is None
        else:
            assert error.startswith(f"step {first_refused} outside policy horizon")
        for a, b, u, hit_only, intervals in got:
            for t in range(a, b):
                for x in range(-5, 6):
                    on = intervals is None or any(lo <= x <= hi for lo, hi in intervals)
                    for flag in (NOT_HIT, HIT_ZERO):
                        stays = on and (flag == HIT_ZERO or not hit_only)
                        assert (u if stays else 0.0) == evaluate(policy, t, x, flag), (t, x, flag)
        # the engines reset the visited-0 flags where a fast-until-zero range starts after 0
        resets = tuple(a for a, _, _, hit_only, _ in got if hit_only and a > 0)
        assert resets == flag_reset_times(policy, got[-1][1])

    def test_nested_leaves_keep_their_resets(self):
        lazy, fast = constant_policy(0.5, 0.3), fast_until_zero_policy(0.5)
        inner = schedule_policy(0.5, [ScheduleSegment(0, 2, lazy), ScheduleSegment(2, 9, fast)])
        outer = schedule_policy(0.5, [ScheduleSegment(0, 4, inner), ScheduleSegment(4, 7, fast),
                                      ScheduleSegment(7, 9, inner)])
        # the inner fast phase takes over at 2 and again at 7, where its segment starts
        assert flag_reset_times(outer) == (2, 4, 7)
        got, _ = ranges(outer, 0, 9)
        assert [(a, b, hit_only) for a, b, _, hit_only, _ in got] == [
            (0, 2, False), (2, 4, True), (4, 7, True), (7, 9, True)]

    def test_mirror_symmetric_reads_only_ruled_rows(self):
        lopsided_late = bang_bang_table_policy(0.5, 4, [((-1, 1),)] * 2 + [((0, 3),)] * 2)
        head = schedule_policy(0.5, [ScheduleSegment(0, 2, lopsided_late)])
        assert mirror_symmetric(head) and not mirror_symmetric(lopsided_late)

    def test_mirror_symmetric(self):
        lazy, band = constant_policy(0.5, 0.3), two_zone_policy(0.5, 3)
        for p in (lazy, band, fast_until_zero_policy(0.5),
                  schedule_policy(0.5, multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64)),
                  schedule_policy(0.5, multiscale_qto1_schedule(0.5, 4, 64)),
                  bang_bang_table_policy(0.5, 3, [((-2, -1), (1, 2)), ((0, 0),), ()])):
            assert mirror_symmetric(p) is True
        lopsided = bang_bang_table_policy(0.5, 2, [((-1, 1),), ((-2, -1), (1, 3))])
        assert mirror_symmetric(lopsided) is False
        mixed = [ScheduleSegment(0, 1, lazy), ScheduleSegment(1, 2, lopsided)]
        assert mirror_symmetric(schedule_policy(0.5, mixed)) is False
        with pytest.raises(ParameterError, match="unknown policy kind 'unknown'"):
            mirror_symmetric(PolicySpec("unknown", 0.5, {}))

    def test_run_questions_read_only_the_run_steps(self):
        resetting = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 64))
        lopsided_late = bang_bang_table_policy(0.5, 4, [((-1, 1),)] * 2 + [((0, 3),)] * 2)
        first = flag_reset_times(resetting)[0]
        assert flag_reset_times(resetting, first) == () and flag_reset_times(resetting, first + 1)
        assert mirror_symmetric(lopsided_late, 2) and not mirror_symmetric(lopsided_late, 3)
        for p in (resetting, lopsided_late, constant_policy(0.5, 0.3)):
            assert flag_reset_times(p, 0) == () and mirror_symmetric(p, 0)
            for n in (-1, True, 1.5):
                for question in (flag_reset_times, mirror_symmetric):
                    with pytest.raises(ParameterError, match="^n must be"):
                        question(p, n)

    def test_run_questions_refuse_what_rules_refuse(self):
        inner = schedule_policy(0.5, [ScheduleSegment(0, 5, fast_until_zero_policy(0.5))])
        short = schedule_policy(0.5, [ScheduleSegment(0, 6, inner)])
        for question in (flag_reset_times, mirror_symmetric):
            with pytest.raises(ParameterError, match=r"step 5 outside policy horizon \[0, 5\)"):
                question(short)
            question(short, 5)

    def test_rules_leave_no_garbage(self):
        # _rules recurses through module-level generators: no call leaves a
        # closure cycle that keeps its policy alive until a collection
        inner = schedule_policy(0.5, [ScheduleSegment(0, 2, constant_policy(0.5, 0.3)),
                                      ScheduleSegment(2, 5, fast_until_zero_policy(0.5))])
        nested = schedule_policy(0.5, [ScheduleSegment(0, 5, inner),
                                       ScheduleSegment(5, 7, two_zone_policy(0.5, 3))])
        gc.collect()
        gc.disable()
        try:
            for _ in range(1000):
                _rules(constant_policy(0.5, 0.3), 0, 5)
                list(_rules(nested, 0, 7))
            left = gc.collect()
        finally:
            gc.enable()
        assert left == 0

    def test_evaluate_beyond_horizon_rejected(self):
        p = schedule_policy(0.5, multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64))
        with pytest.raises(ParameterError):
            evaluate(p, 64, 0)

    def test_schedule_dispatch(self):
        p = schedule_policy(0.5, multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64))
        assert evaluate(p, 10, 40) == 0.5  # constant phase everywhere
        assert evaluate(p, 50, 4) == 0.5  # band 4 inside
        assert evaluate(p, 50, 5) == 0.0  # band 4 outside
        assert evaluate(p, 62, 2) == 0.5  # band 2 inside
        assert evaluate(p, 62, 3) == 0.0


class TestVectorizedEvaluation:
    @given(
        t=st.integers(0, 63),
        offset=st.integers(-10, 5),
        width=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_pointwise(self, t, offset, width):
        p = schedule_policy(0.5, multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64))
        grid = control_grid(p, t, offset, width)
        assert grid.shape == (2, width)
        for j in range(width):
            x = offset + j
            assert grid[NOT_HIT, j] == evaluate(p, t, x, NOT_HIT)
            assert grid[HIT_ZERO, j] == evaluate(p, t, x, HIT_ZERO)

    def test_values_match_pointwise(self):
        xs = np.array([-3, 0, 2, 7, -1])
        flags = np.array([NOT_HIT, HIT_ZERO, NOT_HIT, HIT_ZERO, NOT_HIT])
        far_xs = np.array([-22, -9, -6, 9, 10, 12, 13, 14, 17, 20, 21])
        far_flags = np.zeros_like(far_xs)
        cases = [
            (constant_policy(0.6, 0.2), 1, xs, flags),
            (two_zone_policy(0.6, 2), 1, xs, flags),
            (fast_until_zero_policy(0.6), 5, xs, flags),
            # tables whose intervals lie beyond +-(n+1), read at far sites
            (bang_bang_table_policy(0.9, 4, [((10, 12), (14, 20))] * 4), 0, far_xs, far_flags),
            (bang_bang_table_policy(0.5, 4, [((-30, -9), (-6, -6), (13, 40))] * 4), 3, far_xs, far_flags),
        ]
        for p, t, xs, flags in cases:
            want = np.array([evaluate(p, t, int(x), int(f)) for x, f in zip(xs, flags)])
            _, _, u, hit_only, intervals = next(_rules(p, t, t + 1))
            sites = _stay_sites(intervals, int(xs.min()) - 3, int(xs.max()) + 2)
            where = _stay_where(sites, xs, flags.astype(bool) if hit_only else None)
            got = np.full(xs.shape, u) if where is None else np.where(where, u, 0.0)
            assert np.array_equal(got, want)

    def test_grid_admissible(self):
        for q in (0.3, 0.9):
            p = two_zone_policy(q, 2)
            g = control_grid(p, 0, -5, 11)
            assert g.min() >= 0.0 and g.max() <= q


class TestSerialization:
    def policies(self):
        yield constant_policy(0.5, 0.25)
        yield two_zone_policy(0.9, 7)
        yield fast_until_zero_policy(0.7)
        yield schedule_policy(0.5, multiscale_localization_schedule(0.5, 0.25, 0.5, 2, 64))
        yield schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 256))
        yield bang_bang_table_policy(0.5, 2, [[(-1, -1), (1, 1)], [(0, 0)]])

    def test_round_trip(self):
        import json

        for p in self.policies():
            assert policy_from_json(json.loads(json.dumps(policy_to_json(p)))) == p

    def test_reset_times_survive(self):
        p = schedule_policy(0.9, multiscale_qto1_schedule(0.9, 4, 256))
        back = policy_from_json(policy_to_json(p))
        assert flag_reset_times(back) == flag_reset_times(p)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            policy_from_json({"kind": "warp-drive", "q_cap": 0.5})

    @pytest.mark.parametrize(
        "obj, error",
        [
            ([1], ParameterError),
            ({"q_cap": 0.5}, ParameterError),
            ({"kind": "constant", "u_value": 0.1}, ParameterError),
            ({"kind": "two-zone", "q_cap": 0.9, "band": 3}, ParameterError),
            ({"kind": "constant", "q_cap": 0.5, "u_value": 0.1, "band_halfwidth": 3}, ParameterError),
            ({"kind": "two-zone", "q_cap": 0.9, "band_halfwidth": "wide"}, ParameterError),
            ({"kind": "bang-bang-table", "q_cap": 0.5, "n": 1, "rows": [[[0]]]}, ParameterError),
            ({"kind": "schedule", "q_cap": 0.5, "segments": [{"t_start": 0, "t_end": 4}]},
             ParameterError),
            ({"kind": "schedule", "q_cap": 0.5, "segments": [[0, 4]]}, ParameterError),
            ({"kind": "constant", "q_cap": 0.5, "u_value": 0.9}, AdmissibilityError),
            ({"kind": "schedule", "q_cap": 0.5, "segments": []}, DegenerateScheduleError),
        ],
    )
    def test_malformed_rejected(self, obj, error):
        with pytest.raises(error):
            policy_from_json(obj)


def test_policy_layer_imports_only_the_standard_library_and_errors():
    # the policy layer states the stay rules; the engines apply them with numpy
    with open(policies.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {(node.level, node.module) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert (1, "errors") in imported
    for level, name in imported:
        assert (level, name) == (1, "errors") or (
            level == 0 and name.split(".")[0] in sys.stdlib_module_names), name


def test_only_builders_and_rules_name_the_leaf_kinds():
    # one evaluator per kind: _rules alone reads a leaf's stay rule, and the
    # module-level _BUILDERS table maps each kind to its builder
    owners = {"CONSTANT": {"constant_policy", "_rules"}, "TWO_ZONE": {"two_zone_policy", "_rules"},
              "FAST_UNTIL_ZERO": {"fast_until_zero_policy", "_rules"}}
    src = pathlib.Path(policies.__file__).parent
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", None) or next(
                (t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)), None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in owners:
                    assert where == "_BUILDERS" or where in owners[node.id], (path.name, where, node.id)
