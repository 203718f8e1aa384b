"""Control policies: builders, evaluation, schedules, serialization."""

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
    two_zone_policy,
)
from ctrlwalk.dp import evolve
from ctrlwalk.policies import rule_change_times
from ctrlwalk.montecarlo import run_batch
from ctrlwalk.policies import run_args, stay_set
from reference import control_grid, control_values, evaluate


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

    def test_bang_bang_table_row_count(self):
        with pytest.raises(ParameterError):
            bang_bang_table_policy(0.5, 3, [[(0, 0)]])

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

    def test_rule_change_times(self):
        lazy, band = constant_policy(0.5, 0.3), two_zone_policy(0.5, 3)
        for p in (lazy, band, fast_until_zero_policy(0.5)):
            assert rule_change_times(p, 0, 9) == [0] and rule_change_times(p, 0, 0) == []
        table = bang_bang_table_policy(0.5, 7, [((0, 0),), (), ((-1, 1),)] * 2 + [()])
        assert rule_change_times(table, 0, 3) == [0, 1, 2]
        inner = schedule_policy(0.5, [ScheduleSegment(0, 2, lazy), ScheduleSegment(2, 5, band)])
        outer = schedule_policy(0.5, [ScheduleSegment(0, 4, inner), ScheduleSegment(4, 7, table)])
        # the inner schedule's segment starts, then each step of the table
        assert rule_change_times(outer, 0, 7) == [0, 2, 4, 5, 6]
        assert rule_change_times(outer, 0, 3) == [0, 2]
        short = schedule_policy(0.5, [ScheduleSegment(0, 6, inner)])
        assert rule_change_times(short, 0, 6) == [0, 2, 5]  # the inner horizon ends at 5

    def test_nested_leaves_keep_their_resets(self):
        lazy, fast = constant_policy(0.5, 0.3), fast_until_zero_policy(0.5)
        inner = schedule_policy(0.5, [ScheduleSegment(0, 2, lazy), ScheduleSegment(2, 9, fast)])
        outer = schedule_policy(0.5, [ScheduleSegment(0, 4, inner), ScheduleSegment(4, 7, fast),
                                      ScheduleSegment(7, 9, inner)])
        # the inner fast phase takes over at 2 and again at 7, where its segment starts
        assert flag_reset_times(outer) == (2, 4, 7)
        assert rule_change_times(outer, 0, 9) == [0, 2, 4, 7]

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
        assert mirror_symmetric(PolicySpec("unknown", 0.5, {})) is False

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
            (fast_until_zero_policy(0.6), 5, xs, flags),
            # tables whose intervals lie beyond +-(n+1), read at far sites
            (bang_bang_table_policy(0.9, 4, [((10, 12), (14, 20))] * 4), 0, far_xs, far_flags),
            (bang_bang_table_policy(0.5, 4, [((-30, -9), (-6, -6), (13, 40))] * 4), 3, far_xs, far_flags),
        ]
        for p, t, xs, flags in cases:
            want = np.array([evaluate(p, t, int(x), int(f)) for x, f in zip(xs, flags)])
            assert np.array_equal(control_values(p, t, xs, flags), want)
            u, where = stay_set(p, t, xs, flags, sites=(int(xs.min()) - 3, int(xs.max()) + 2))
            assert np.array_equal(np.where(where, u, 0.0), want)

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
