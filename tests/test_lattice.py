"""Distribution container and one-step evolution."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlwalk import (
    FLOAT,
    AdmissibilityError,
    InvariantError,
    HIT_ZERO,
    NOT_HIT,
    RATIONAL,
    LatticeDistribution,
    ParameterError,
    from_snapshot,
    interval_mass,
    point_mass,
    reset_hit_flags,
    to_snapshot,
)
from reference import ControlRow, step_distribution


def uniform_row(d, u):
    """ControlRow holding the same stay weight at every (flag, site)."""
    if d.mode == RATIONAL:
        grid = np.full((2, d.width), Fraction(u), dtype=object)
        cap = Fraction(u) if u else Fraction(1, 2)
    else:
        grid = np.full((2, d.width), float(u))
        cap = max(float(u), 0.5)
    return ControlRow(time=d.time, offset=d.offset, u=grid, q_cap=cap)


def walk(n, u, mode=FLOAT, start=0):
    d = point_mass(start, mode=mode)
    for _ in range(n):
        d = step_distribution(d, uniform_row(d, u))
    return d


class TestPointMass:
    def test_basic_shape(self):
        d = point_mass(3)
        assert d.width == 1 and d.offset == 3 and d.time == 0
        assert d.mass_at(3, NOT_HIT) == 1.0
        assert d.flag_totals()[HIT_ZERO] == 0.0

    def test_origin_is_flagged(self):
        d = point_mass(0)
        assert d.mass_at(0, HIT_ZERO) == 1.0
        assert d.mass_at(0, NOT_HIT) == 0.0

    def test_origin_cannot_be_unflagged(self):
        with pytest.raises(ParameterError):
            point_mass(0, flag=NOT_HIT)

    def test_explicit_flag_elsewhere(self):
        d = point_mass(5, flag=HIT_ZERO)
        assert d.mass_at(5, HIT_ZERO) == 1.0

    @pytest.mark.parametrize("x, flag", [
        (1.5, None), ("1", None), (True, None), (0, 5), (3, -1), (3, True), (3, 1.0),
    ])
    def test_bad_site_and_flag_rejected(self, x, flag):
        with pytest.raises(ParameterError):
            point_mass(x, flag)
        with pytest.raises(ParameterError):  # a law reads a site as point_mass does
            point_mass(0).mass_at(x, flag)
        with pytest.raises(ParameterError):  # was an IndexError
            point_mass(0).mass_at(0.5)

    def test_numpy_integer_site_and_flag_accepted(self):
        d = point_mass(np.int64(5), np.int8(HIT_ZERO))
        assert type(d.offset) is int and d.offset == 5 and d.mass_at(5, HIT_ZERO) == 1.0
        assert d.mass_at(np.int64(5), np.int8(HIT_ZERO)) == 1.0 and d.mass_at(np.int32(4)) == 0.0


class TestStep:
    def test_lazy_half_matches_binomial(self):
        # stay 1/2, move 1/4 each way: return mass is C(2n, n) / 4^n
        n = 40
        d = walk(n, 0.5)
        exact = math.comb(2 * n, n) / 4.0**n
        assert abs(d.site_mass()[0 - d.offset] - exact) < 1e-12
        assert abs(interval_mass(d, 0, 0) - exact) < 1e-12

    def test_pure_walk_parity(self):
        d = walk(7, 0.0, start=1)
        sites = d.site_mass()
        xs = np.arange(d.offset, d.offset + d.width)
        wrong_parity = (xs % 2) != (1 + 7) % 2
        assert np.all(sites[wrong_parity] == 0.0)
        assert abs(sites.sum() - 1.0) < 1e-14

    def test_symmetric_start_symmetric_law(self):
        d = walk(12, 0.3)
        sites = d.site_mass()
        assert np.array_equal(sites, sites[::-1])

    def test_mass_lands_in_hit_row_at_origin(self):
        d = walk(9, 0.25, start=2)
        z = -d.offset
        assert d.mass[NOT_HIT, z] == 0.0
        assert d.mass[HIT_ZERO, z] > 0.0

    def test_hit_mass_never_decreases(self):
        d = point_mass(4)
        prev = 0.0
        for _ in range(15):
            d = step_distribution(d, uniform_row(d, 0.4))
            cur = float(d.flag_totals()[HIT_ZERO])
            assert cur >= prev - 1e-15
            prev = cur

    def test_frozen_sites_hold_mass(self):
        d = walk(5, 0.5, start=3)
        row = uniform_row(d, 0.5)
        held = step_distribution(d, row, frozen=np.ones(d.width, dtype=bool))
        assert held.time == d.time + 1
        # every site keeps exactly its mass; window grows by the usual margin
        old = d.site_mass()
        new = held.site_mass()
        lo = d.offset - held.offset
        assert np.allclose(new[lo : lo + d.width], old, atol=0, rtol=0)
        assert abs(new.sum() - 1.0) < 1e-14

    def test_frozen_mask_shape_checked(self):
        d = point_mass(1)
        with pytest.raises(ParameterError):
            step_distribution(d, uniform_row(d, 0.5), frozen=np.ones(3, dtype=bool))

    def test_row_window_must_match(self):
        d = walk(3, 0.5)
        bad = ControlRow(time=d.time, offset=d.offset + 1, u=np.zeros((2, d.width)), q_cap=0.5)
        with pytest.raises(ParameterError):
            step_distribution(d, bad)

    @given(
        us=st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=1, max_size=12),
        start=st.integers(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_mass_conserved_under_any_controls(self, us, start):
        d = point_mass(start)
        for u in us:
            d = step_distribution(d, uniform_row(d, u))
        assert abs(float(d.mass.sum()) - 1.0) < 1e-12
        assert d.time == len(us)

    @given(
        us=st.lists(
            st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_rational_mass_exact(self, us):
        d = point_mass(1, mode=RATIONAL)
        for u in us:
            d = step_distribution(d, uniform_row(d, u))
        assert sum(d.mass.flat) == Fraction(1)

    def test_rational_agrees_with_float(self):
        dr = walk(20, Fraction(1, 2), mode=RATIONAL)
        df = walk(20, 0.5)
        for x in range(-20, 21):
            assert abs(float(interval_mass(dr, x, x)) - interval_mass(df, x, x)) < 1e-14


class TestIntervalMass:
    def test_matches_direct_sum(self):
        d = walk(10, 0.5)
        sites = d.site_mass()
        xs = np.arange(d.offset, d.offset + d.width)
        want = sites[(xs >= -3) & (xs <= 4)].sum()
        assert abs(interval_mass(d, -3, 4) - want) < 1e-15

    def test_flag_filter(self):
        d = walk(8, 0.5, start=1)
        total = interval_mass(d, -8, 9)
        split = interval_mass(d, -8, 9, flag=NOT_HIT) + interval_mass(d, -8, 9, flag=HIT_ZERO)
        assert abs(total - split) < 1e-15
        assert abs(total - 1.0) < 1e-14

    def test_outside_window_is_zero(self):
        d = point_mass(2)
        assert interval_mass(d, 100, 200) == 0.0

    def test_reversed_bounds_are_empty(self):
        d = point_mass(0)
        assert interval_mass(d, 3, -3) == 0.0

    @pytest.mark.parametrize("a, b, flag", [
        (0.5, 3, None), (0, 3.0, None), ("0", 3, None), (True, 3, None),
        (-8, 9, -1), (-8, 9, 2), (-8, 9, 5), (-8, 9, True), (-8, 9, False), (-8, 9, 1.0),
    ])
    def test_bad_ends_and_flags_rejected(self, a, b, flag):
        with pytest.raises(ParameterError):
            interval_mass(walk(8, 0.5, start=1), a, b, flag)

    def test_numpy_integer_ends_and_flags_accepted(self):
        d = walk(8, 0.5, start=1)
        got = interval_mass(d, np.int64(-8), np.int32(9), np.int8(HIT_ZERO))
        assert got == interval_mass(d, -8, 9, HIT_ZERO)


class TestResetAndSnapshots:
    def test_reset_reflags_origin_only(self):
        d = walk(6, 0.5, start=1)
        r = reset_hit_flags(d)
        assert r.time == d.time
        assert np.allclose(np.asarray(r.site_mass(), float), np.asarray(d.site_mass(), float))
        z = -r.offset
        assert r.mass[NOT_HIT, z] == 0.0
        other = float(r.mass[HIT_ZERO].sum() - r.mass[HIT_ZERO, z])
        assert other == 0.0

    def test_snapshot_round_trip_bitwise(self):
        d = walk(11, 0.375, start=-2)
        back = from_snapshot(to_snapshot(d))
        assert back.time == d.time and back.offset == d.offset
        assert np.array_equal(np.asarray(back.mass, float), np.asarray(d.mass, float))

    def test_rational_snapshot_round_trip_exact(self):
        d = walk(9, Fraction(1, 4), mode=RATIONAL, start=1)
        back = from_snapshot(to_snapshot(d))
        assert back.mode == RATIONAL
        assert all(a == b for a, b in zip(back.mass.flat, d.mass.flat))

    def test_combined_snapshot_cannot_reload(self):
        # to_snapshot always writes both flag rows; a combined one is outside input
        d = walk(4, 0.5)
        snap = {**to_snapshot(d), "mass": [float(v) for v in d.site_mass()], "flag_split": False}
        with pytest.raises(ParameterError, match="combined snapshots"):
            from_snapshot(snap)

    @pytest.mark.parametrize("change, message", [
        ({"offset": "a"}, "offset must be an integer"),
        ({"time": -3}, "time must be >= 0"),
        ({"time": 1.0}, "time must be an integer"),
        ({"mass": [[1.0, 0.0], [0.0]]}, "two rows"),  # was zero-filled
        ({"mass": [[0.0], [0.0, 1.0]]}, "two rows"),
        ({"mass": [[1.0, 0.0]]}, "two rows"),
        ({"mass": [[1.0, "a"], [0.0, 0.0]]}, "two rows of numbers"),
        ({"mass": [[1.0, None], [0.0, 0.0]]}, "two rows of numbers"),
        ({"mass": 1.0}, "two rows of numbers"),
        ({"time": None}, "lacks time"),
        ({"offset": None}, "lacks offset"),
        ({"mass": None}, "lacks mass"),
    ])
    def test_malformed_snapshot_rejected(self, change, message):
        snap = {"time": 1, "offset": -1, "mass": [[0.5, 0.0], [0.0, 0.5]], "flag_split": True}
        assert from_snapshot(snap).offset == -1  # None in change drops the key
        snap = {k: v for k, v in {**snap, **change}.items() if v is not None}
        with pytest.raises(ParameterError, match=message):
            from_snapshot(snap)

    def test_snapshot_keeps_flag_split_key(self):
        assert to_snapshot(walk(4, 0.5))["flag_split"] is True


class TestValidation:
    def test_negative_mass_rejected(self):
        m = np.zeros((2, 3))
        m[0, 0] = 1.5
        m[1, 2] = -0.5
        with pytest.raises(InvariantError):
            LatticeDistribution(time=0, offset=-1, mass=m, mode=FLOAT)

    def test_total_mass_checked(self):
        m = np.zeros((2, 1))
        m[0, 0] = 0.5
        with pytest.raises(InvariantError):
            LatticeDistribution(time=0, offset=1, mass=m, mode=FLOAT)
        half = np.array([[Fraction(1, 2)], [Fraction(0)]], dtype=object)
        with pytest.raises(InvariantError, match="total mass is 1/2"):
            LatticeDistribution(time=0, offset=1, mass=half, mode=RATIONAL)

    def test_control_above_cap_rejected(self):
        d = point_mass(1)
        grid = np.full((2, 1), 0.9)
        row = ControlRow(time=0, offset=1, u=grid, q_cap=0.5)
        with pytest.raises(ParameterError):
            step_distribution(d, row)

    def test_nan_snapshot_rejected(self):
        snap = {"time": 0, "offset": 0, "mass": [[math.nan], [0.0]], "flag_split": True}
        with pytest.raises(InvariantError):
            from_snapshot(snap)

    def test_nan_control_rejected(self):
        row = ControlRow(time=0, offset=0, u=np.array([[math.nan], [math.nan]]), q_cap=0.5)
        with pytest.raises(AdmissibilityError):
            step_distribution(point_mass(0), row)
