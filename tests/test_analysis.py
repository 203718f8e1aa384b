"""Exponent fits, chain structure checks, closed-form calibrations."""

import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrlwalk
from ctrlwalk import (
    RATIONAL,
    CalibrationError,
    ChainSpec,
    LatticeDistribution,
    ParameterError,
    PolicySpec,
    ScheduleSegment,
    band_sum_direct,
    bang_bang_table_policy,
    barrier_family,
    band_sum_profile,
    calibrate_lemma5,
    calibrate_lemma6,
    constant_policy,
    early_exit_probability,
    escape_probability,
    evolve,
    exponent_sweep,
    fast_until_zero_policy,
    fit_exponent,
    from_snapshot,
    heat_kernel_profile,
    hit_probability,
    interior_survival,
    interior_survival_absorbing,
    lemma0_check,
    lemma_ori_check,
    level_hit_cdf,
    level_hit_cdf_absorbing,
    multiscale_localization_schedule,
    multiscale_qto1_schedule,
    reversibility_check,
    run_batch,
    schedule_policy,
    solve_extremal,
    sweep_policy,
    trial_keys,
    two_zone_policy,
    value_table_to_csv,
    verify_lemma5_certificate,
    verify_lemma6_certificate,
    wilson_interval,
)
from ctrlwalk import analysis, dp
from ctrlwalk.dp import _forward
from reference import trinomial_return


class TestExponentFit:
    def test_recovers_synthetic_power_law(self):
        pts = [(2**k, 3.0 * (2**k) ** -0.37) for k in range(7, 13)]
        fit = fit_exponent(pts)
        assert abs(fit.sigma_hat - 0.37) < 1e-12
        assert fit.r_squared == 1.0
        assert abs(fit.intercept - math.log(3.0)) < 1e-12
        assert fit.n_min == 128 and fit.n_max == 4096

    def test_cutoff_drops_small_n(self):
        pts = [(n, 1.0 * n**-0.5) for n in (16, 32, 128, 256, 512, 1024)]
        fit = fit_exponent(pts, min_n=128)
        assert fit.points[0][0] == 128
        assert len(fit.points) == 4

    def test_local_slopes_of_the_constant_curve(self):
        _, fit = exponent_sweep("constant", 0.9, [512, 1024, 2048, 4096, 8192])
        assert [(n1, n2) for n1, n2, _ in fit.local_slopes] == [
            (512, 1024), (1024, 2048), (2048, 4096), (4096, 8192)]
        for (n1, p1), (n2, p2), (_, _, slope) in zip(fit.points, fit.points[1:], fit.local_slopes):
            assert slope == -math.log(p2 / p1) / math.log(n2 / n1)
            assert abs(slope - 0.5) <= 0.01

    def test_local_slopes_use_kept_points_only(self):
        fit = fit_exponent([(n, n**-0.25) for n in (16, 128, 256, 512)], min_n=128)
        assert [(n1, n2) for n1, n2, _ in fit.local_slopes] == [(128, 256), (256, 512)]

    def test_needs_three_points_after_cutoff(self):
        with pytest.raises(ParameterError):
            fit_exponent([(256, 0.5), (512, 0.4)])
        with pytest.raises(ParameterError):
            fit_exponent([(16, 0.9), (32, 0.8), (256, 0.5), (512, 0.4)], min_n=128)

    def test_rejects_non_integer_n(self):
        with pytest.raises(ParameterError, match="n must be an integer"):
            fit_exponent([(128.5, 0.5), (256, 0.4), (512, 0.3)])

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_large_n_fit_of_closed_form(self, q):
        # the trinomial oracle is O(n) per point, so the fit's asymptotics are
        # tested to n = 2^20 without an engine
        fit = fit_exponent([(2**k, trinomial_return(2**k, q)) for k in range(12, 21, 2)])
        assert fit.n_max == 2**20 and abs(fit.sigma_hat - 0.5) < 1e-4

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ParameterError):
            fit_exponent([(512, 0.4), (256, 0.5), (1024, 0.3)])

    def test_zero_probability_mentions_parity(self):
        pts = [(129, 0.0), (257, 0.0), (513, 0.0)]
        with pytest.raises(ParameterError, match="[Pp]arity|even"):
            fit_exponent(pts)

    def test_underflowed_curve_names_underflow(self):
        # the q = 0.9 min row of target (0, 0) is all +0.0 in float64 from
        # step 323 on, so every point reads 0.0 though n is even
        with pytest.raises(ParameterError, match="p=0.0 at n=512 .*parity.*underflow"):
            exponent_sweep("optimal", 0.9, [512, 1024, 2048], params={"objective": "min"}, min_n=1)

    def test_flat_data_fits_zero_slope(self):
        fit = fit_exponent([(n, 0.25) for n in (128, 256, 512)])
        assert fit.sigma_hat == 0.0
        assert fit.r_squared == 1.0


class TestSweeps:
    def test_exact_sweep_matches_direct_evolution(self):
        grid = [128, 256, 512]
        records, fit = exponent_sweep("constant", 0.5, grid, method="exact")
        assert [r["n"] for r in records] == grid
        for r in records:
            p = sweep_policy("constant", 0.5, r["n"], {})
            assert r["p"] == hit_probability(p, r["n"])
            assert r["method"] == "exact" and r["ci_low"] is None
        assert 0.4 < fit.sigma_hat < 0.6

    def test_mc_sweep_carries_intervals(self):
        records, _ = exponent_sweep(
            "constant",
            0.5,
            [128, 256, 512],
            method="mc",
            params={"seed": 5, "trials": 4000},
        )
        for r in records:
            assert r["method"] == "mc"
            assert r["ci_low"] <= r["p"] <= r["ci_high"]

    def test_optimal_kind_uses_solver(self):
        records, _ = exponent_sweep("optimal", 0.5, [16, 32, 64], method="exact", min_n=16)
        from ctrlwalk import solve_extremal

        for r in records:
            table, _ = solve_extremal(0.5, r["n"], "max", keep_values=False)
            assert r["p"] == table.value(0, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            sweep_policy("teleport", 0.5, 64, {})

    @pytest.mark.parametrize("kind", ["optimal", "constant"])
    def test_non_integer_grid_rejected(self, kind):
        with pytest.raises(ParameterError, match="must be an integer"):
            exponent_sweep(kind, 0.5, [128.7, 256, 512])

    BAD_GRIDS = [  # (grid, min_n, message)
        ([8192, 512, 1024], None, "strictly increasing"),
        ([64, 128, 16384], 1000, "only 1 points at n >= 1000"),
        ([512, 1024], None, "at least 3 points"),
    ]

    @pytest.mark.parametrize("method", ["exact", "mc"])
    @pytest.mark.parametrize("kind", ["constant", "optimal"])
    @pytest.mark.parametrize("grid, min_n, message", BAD_GRIDS)
    def test_bad_grid_rejected_before_any_pass(self, monkeypatch, kind, method, grid, min_n,
                                               message):
        def refuse(*args, **kwargs):
            raise AssertionError("a pass ran")

        for name in ("_forward", "_backward"):
            monkeypatch.setattr(dp, name, refuse)
        params = {"seed": 1} if method == "mc" else {}
        with pytest.raises(ParameterError, match=message):
            exponent_sweep(kind, 0.9, grid, method=method, params=params, min_n=min_n)

    def test_exact_records_carry_their_error_bound(self):
        # R = 113 at n = 128 (the band scales with n, so one pass per point)
        records, _ = exponent_sweep("two-zone", 0.5, [16, 32, 64, 128], min_n=16)
        assert [r["error_bound"] for r in records[:3]] == [0.0] * 3  # R >= n: untruncated
        assert 0.0 < records[3]["error_bound"] <= dp._CERT * records[3]["p"]
        records, _ = exponent_sweep("constant", 0.5, [128, 256, 512], method="mc",
                                    params={"seed": 1, "trials": 100})
        assert all("error_bound" not in r for r in records)

    def test_unknown_method_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "solve_extremal", lambda *a, **k: calls.append(a))
        with pytest.raises(ParameterError, match="bogus"):
            exponent_sweep("optimal", 0.5, [16, 32, 64], method="bogus")
        assert calls == []

    def test_params_the_kind_does_not_read_rejected(self):
        with pytest.raises(ParameterError, match="bnd"):
            exponent_sweep("two-zone", 0.9, [16, 32, 64], params={"bnd": 3})
        with pytest.raises(ParameterError, match="seed"):
            exponent_sweep("constant", 0.9, [16, 32, 64], params={"seed": 3})
        with pytest.raises(ParameterError, match="objective"):
            exponent_sweep("constant", 0.9, [16, 32, 64], params={"objective": "max"})


def per_point_sweep(kind, q, grid, params, min_n):
    """The exact sweep one evolution per grid point: (records' p, fit)."""
    ps = [hit_probability(sweep_policy(kind, q, n, params), n) for n in grid]
    return ps, fit_exponent(list(zip(grid, ps)), min_n=min_n)


def outcome(sweep):
    """What a sweep gives: every p and fit field as float.hex, or the error's type and text."""
    try:
        ps, fit = sweep()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    fields = (fit.sigma_hat, fit.intercept, fit.r_squared, *fit.residuals)
    return [p.hex() for p in ps], [v.hex() for v in fields], fit.points


@st.composite
def sweep_cases(draw):
    """(kind, q, grid, params) with grids from n = 0, some of them bad."""
    kind = draw(st.sampled_from(["constant", "fast-until-zero", "two-zone", "schedule-qto1"]))
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.95))
    params = {}
    if kind == "constant" and draw(st.booleans()):
        u = draw(st.floats(0.0, q) | st.sampled_from([q + 0.01, -0.1]))  # the last two escape
        params["u_value"] = u
    if kind == "two-zone" and draw(st.booleans()):
        params["band"] = draw(st.integers(0, 12))
    grid = {0}
    if kind == "schedule-qto1":  # a schedule scaled to each n, so one pass per n; n > A
        params["A"] = draw(st.integers(1, 3))
        grid = {params["A"] + draw(st.sampled_from([1, 1, 1, 0]))}
    grid = sorted(draw(st.sets(st.integers(min(grid) + 1, 160), min_size=3, max_size=6)) | grid)
    bad = draw(st.sampled_from([None, None, "negative", "unsorted"]))
    if bad == "negative":
        grid.insert(draw(st.integers(0, len(grid))), -draw(st.integers(1, 5)))
    elif bad == "unsorted":
        grid = draw(st.permutations(grid))
    return kind, q, grid, params


class TestOnePassSweep:
    """An exact sweep shares one forward pass among grid points with equal policies."""

    @given(sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_records_equal_per_point_evolution(self, case):
        kind, q, grid, params = case
        got = outcome(lambda: _ps_fit(exponent_sweep(kind, q, grid, params=params, min_n=1)))
        want = outcome(lambda: per_point_sweep(kind, q, grid, params, 1))
        assert got == want

    @pytest.mark.parametrize("kind, params, passes", [
        ("constant", {}, 1), ("fast-until-zero", {}, 1), ("two-zone", {"band": 4}, 1),
        ("two-zone", {}, 3), ("schedule-qto1", {}, 3),
    ])
    def test_one_pass_per_distinct_policy(self, monkeypatch, kind, params, passes):
        runs = []

        def counted(policy, n, *args):
            runs.append(n)
            return _forward(policy, n, *args)

        monkeypatch.setattr(dp, "_forward", counted)
        records, _ = exponent_sweep(kind, 0.9, [128, 256, 512], params=params)
        assert len(runs) == passes and max(runs) == 512 and len(records) == 3

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_constant_curve_matches_trinomial_oracle(self, q):
        records, _ = exponent_sweep("constant", q, [512, 1024, 2048, 4096, 8192])
        for r in records:
            want = trinomial_return(r["n"], q)
            assert abs(r["p"] - want) <= 1e-10 * want


def _ps_fit(result):
    records, fit = result
    return [r["p"] for r in records], fit


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import; only level_hit_cdf loads it
    src = os.path.dirname(os.path.dirname(ctrlwalk.__file__))
    code = "import ctrlwalk, sys; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_every_public_name_resolves():
    assert [name for name in ctrlwalk.__all__ if not hasattr(ctrlwalk, name)] == []


class TestChainStructure:
    @pytest.mark.parametrize("q", [0.3, 0.9])
    @pytest.mark.parametrize("band", [4, 64])
    def test_reversibility_float(self, q, band):
        residual = reversibility_check(ChainSpec(q, band), band + 16)
        assert residual <= 1e-15

    @pytest.mark.parametrize("q", [0.3, 0.9])
    @pytest.mark.parametrize("band", [4, 64])
    def test_reversibility_rational(self, q, band):
        residual = reversibility_check(ChainSpec(q, band, mode=RATIONAL), band + 16)
        assert residual == 0
        assert isinstance(residual, Fraction)

    @pytest.mark.parametrize("mode", ["float64", RATIONAL])
    @pytest.mark.parametrize("q, band", [(1.0, 2), (1.5, 2), (0.5, -1)])
    def test_invalid_cap_or_band_rejected(self, q, band, mode):
        with pytest.raises(ParameterError):
            ChainSpec(q, band, mode=mode)

    def test_stationary_weights(self):
        chain = ChainSpec(0.5, 4)
        assert chain.pi(0) == chain.pi(3) == chain.pi(-4)
        assert chain.pi(5) < chain.pi(4)
        # detailed balance at the band edge, spelled out
        lhs = chain.pi(4) * chain.kernel(4, 5)
        rhs = chain.pi(5) * chain.kernel(5, 4)
        assert abs(lhs - rhs) < 1e-16

    def test_heat_kernel_profile_flat(self):
        prof = heat_kernel_profile(ChainSpec(0.5, 16), [16, 32, 64])
        assert prof["probes"] == (0, 16, 32)
        per_t = dict(prof["per_t"])
        assert set(per_t) == {16, 32, 64}
        # sqrt(t)-scaled peak approaches the free-walk constant from below
        free = math.sqrt(2.0 / math.pi)
        for v in per_t.values():
            assert 0.5 < v < free
        assert prof["bound_estimate"] == max(per_t.values())

    def test_heat_kernel_rejects_non_integer_times(self):
        with pytest.raises(ParameterError, match="time in t_grid must be an integer"):
            heat_kernel_profile(ChainSpec(0.5, 4), [64.5, 128])


class TestBandSumIdentity:
    def test_identity_matches_brute_force(self):
        ys = range(-2, 3)
        fast = band_sum_profile(0.5, 8, 2, 16, ys)
        slow = band_sum_direct(0.5, 8, 2, 16, ys)
        for y in ys:
            assert abs(fast[y] - slow[y]) < 1e-12

    @given(st.floats(0.0, 0.95), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_matches_brute_force_on_its_domain(self, q, K, data):
        # band = K and |y| = band are the domain's edges
        band = data.draw(st.sampled_from([0, K]) | st.integers(0, K))
        t = data.draw(st.integers(0, 12))
        ys = sorted(data.draw(st.sets(st.sampled_from([-band, band]) | st.integers(-band, band),
                                      min_size=1)))
        fast, slow = band_sum_profile(q, K, band, t, ys), band_sum_direct(q, K, band, t, ys)
        assert list(fast) == list(slow) == ys
        for y in ys:
            assert abs(fast[y] - slow[y]) <= 1e-12

    @pytest.mark.parametrize("probe, K, band, y, message", [
        (band_sum_profile, 3, 1, 2, "outside the band"),  # the direct sum reads 0.5, the identity 1.0
        (band_sum_profile, 1, 3, 0, "exceeds K"),  # the direct sum reads 0.7109, the identity 0.4297
        (band_sum_profile, -1, 1, 0, "exceeds K"),
        (band_sum_direct, -1, 1, 0, "K must be >= 0"),
    ])
    def test_outside_the_identity_refused(self, probe, K, band, y, message):
        with pytest.raises(ParameterError, match=message):
            probe(0.5, K, band, 4, [y])

    @pytest.mark.parametrize("probe", [band_sum_profile, band_sum_direct])
    def test_non_integer_sizes_rejected(self, probe):
        with pytest.raises(ParameterError, match="y must be an integer"):
            probe(0.5, 4, 2, 10, [1.5])
        with pytest.raises(ParameterError, match="K must be an integer"):
            probe(0.5, 4.0, 2, 10, [1])
        assert probe(0.5, np.int64(4), 2, 10, [np.int32(1)]) == probe(0.5, 4, 2, 10, [1])

    def test_calibrate_pinned_result(self):
        cert = calibrate_lemma5(0.5)
        assert (cert["alpha"], cert["beta"], cert["K0"]) == (0.25, 0.25, 4)
        assert abs(cert["eps"] - 0.225) < 1e-12
        assert cert["eps"] == pytest.approx(0.9 * cert["min_margin"])
        ks = {e["K"] for e in cert["entries"]}
        assert ks == {4, 8, 16}

    def test_certificate_replays_bitwise(self):
        cert = calibrate_lemma5(0.5)
        rep = verify_lemma5_certificate(cert)
        assert rep["max_diff"] == 0.0
        assert rep["all_exceed"]
        assert rep["direct_sum_max_diff"] <= 1e-12 and rep["pass"] is True

    def test_tampered_certificate_caught(self):
        cert = calibrate_lemma5(0.5)
        cert["entries"][0]["sum"] += 1e-9
        rep = verify_lemma5_certificate(cert)
        assert rep["max_diff"] > 0.0
        assert rep["all_exceed"] and rep["pass"] is False  # every sum still clears 1 + eps

    def test_hopeless_grid_raises(self, monkeypatch):
        for name, grid in (("L5_ALPHAS", (0.25,)), ("L5_BETAS", (0.25,)), ("L5_K0S", (4,))):
            monkeypatch.setattr(ctrlwalk.defaults, name, grid)
        with pytest.raises(CalibrationError):
            calibrate_lemma5(0.01)


class TestEscapeCalibration:
    def test_level_hit_dual_routes(self):
        for a, t in [(4, 16), (5, 25), (8, 64), (7, 100)]:
            assert abs(level_hit_cdf(a, t) - level_hit_cdf_absorbing(a, t)) < 1e-12

    def test_interior_survival_dual_routes(self):
        for q, K, s in [(0.5, 4, 32), (0.9, 8, 100), (0.96875, 6, 144)]:
            got = interior_survival(q, K, s)
            want = interior_survival_absorbing(q, K, s)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("call", [
        lambda: level_hit_cdf(2.5, 10), lambda: level_hit_cdf(2, 10.9),
        lambda: interior_survival(0.5, 2.5, 10), lambda: interior_survival(0.5, 2, 3.5),
    ])
    def test_non_integer_sizes_rejected(self, call):
        with pytest.raises(ParameterError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: interior_survival(1.5, 4, 10), lambda: interior_survival(-0.5, 4, 10),
        lambda: interior_survival(float("nan"), 4, 10), lambda: interior_survival(1.0, 4, 0),
        lambda: early_exit_probability(1.5, 2, 2),
    ])
    def test_cap_outside_unit_interval_rejected(self, call):
        with pytest.raises(ParameterError, match="q_cap must lie in"):
            call()

    def test_level_hit_monotone_in_time(self):
        vals = [level_hit_cdf(6, t) for t in (8, 16, 32, 64, 128)]
        assert vals == sorted(vals)

    def test_escape_probability_decays_with_budget(self):
        vals = [escape_probability(A, 8) for A in (1, 2, 4, 8)]
        assert vals == sorted(vals, reverse=True)
        assert escape_probability(256, 8) < 0.1

    def test_early_exit_vanishes_with_laziness(self):
        vals = [early_exit_probability(1 - 2.0**-j, 2, 8) for j in (1, 4, 8)]
        assert vals == sorted(vals, reverse=True)

    def test_calibrate_pinned_result(self):
        cert = calibrate_lemma6(0.2)
        assert cert["A"] == 256
        assert cert["q"] == 1.0 - 2.0**-10
        for v in cert["escape_by_K"].values():
            assert v < 0.1
        for v in cert["early_exit_by_K"].values():
            assert v < 0.1

    def test_certificate_replays_bitwise(self):
        cert = calibrate_lemma6(0.2)
        rep = verify_lemma6_certificate(cert)
        assert rep["max_diff"] == 0.0
        assert rep["all_below"]
        assert rep["absorbing_cross_check_escape"] <= 1e-12
        assert rep["absorbing_cross_check_exit"] <= 1e-12 and rep["pass"] is True

    def test_unreachable_eps_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_lemma6(1e-9)


@functools.lru_cache(maxsize=None)
def _written(lemma):
    return calibrate_lemma5(0.5) if lemma == 5 else calibrate_lemma6(0.2)


def _cert(lemma):
    """A fresh copy of the certificate calibrate writes for lemma 5 (q 0.5) or 6 (eps 0.2)."""
    return copy.deepcopy(_written(lemma))


_VERIFY = {5: verify_lemma5_certificate, 6: verify_lemma6_certificate}


def _set(*path, value):
    """A change to a certificate: the item at path (keys and indices) set to value."""
    def change(cert):
        for key in path[:-1]:
            cert = cert[key]
        cert[path[-1]] = value
    return change


def _drop(*path):
    def change(cert):
        for key in path[:-1]:
            cert = cert[key]
        del cert[path[-1]]
    return change


def _append(*path, value):
    def change(cert):
        for key in path:
            cert = cert[key]
        cert.append(value)
    return change


class TestCertificates:
    """verify_lemma5_certificate and verify_lemma6_certificate read, replay and judge."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_every_lemma5_certificate_replays(self, q):
        cert = calibrate_lemma5(q)
        for c in (cert, json.loads(json.dumps(cert))):  # as returned and as stored
            rep = verify_lemma5_certificate(c)
            assert rep["max_diff"] == 0.0 and rep["pass"] is True
            assert list(rep) == ["max_diff", "all_exceed", "entries", "direct_sum_max_diff", "pass"]

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.25, 0.5])
    def test_every_lemma6_certificate_replays(self, eps):
        cert = calibrate_lemma6(eps)
        for c in (cert, json.loads(json.dumps(cert))):
            rep = verify_lemma6_certificate(c)
            assert rep["max_diff"] == 0.0 and rep["pass"] is True
            assert list(rep) == ["max_diff", "all_below", "absorbing_cross_check_escape",
                                 "absorbing_cross_check_exit", "pass"]

    def test_certificate_without_its_scales_refused(self):
        # both passed: a lemma-6 certificate with empty tables, a lemma-5 one with only the K0 sums
        with pytest.raises(ParameterError, match="certificate lacks Ks"):
            verify_lemma6_certificate({"A": 1, "q": 0.5, "eps": 0.1, "escape_by_K": {},
                                       "early_exit_by_K": {}})
        cert = {**_cert(6), "escape_by_K": {}, "early_exit_by_K": {}}
        with pytest.raises(ParameterError, match="escape_by_K must name exactly the scales"):
            verify_lemma6_certificate(cert)
        cert = _cert(5)
        cert["entries"] = [e for e in cert["entries"] if e["K"] == cert["K0"]]
        assert len(cert["entries"]) == 3
        with pytest.raises(ParameterError, match=r"no entry at K0=4, 2K0 and 4K0 .* = \[\(4, 1, 4\), "
                                                 r"\(8, 2, 16\), \(16, 4, 64\)\]"):
            verify_lemma5_certificate(cert)

    def test_sum_past_its_bound_fails(self):
        cert = _cert(5)
        cert["eps"] = cert["min_margin"]  # the worst sum no longer exceeds 1 + eps
        rep = verify_lemma5_certificate(cert)
        assert rep["max_diff"] == 0.0 and not rep["all_exceed"] and rep["pass"] is False

    def test_probability_past_its_bound_fails(self):
        cert = _cert(6)
        cert["eps"] = 2 * max(cert["escape_by_K"].values())
        rep = verify_lemma6_certificate(cert)
        assert rep["max_diff"] == 0.0 and not rep["all_below"] and rep["pass"] is False

    def test_tampered_lemma6_value_fails(self):
        cert = _cert(6)
        cert["early_exit_by_K"]["64"] *= 1.0 + 1e-9
        rep = verify_lemma6_certificate(cert)
        assert rep["max_diff"] > 0.0 and rep["all_below"] and rep["pass"] is False

    def test_direct_sum_cross_check_judged(self, monkeypatch):
        direct = analysis.band_sum_direct
        monkeypatch.setattr(analysis, "band_sum_direct",
                            lambda *a: {y: v + 2e-12 for y, v in direct(*a).items()})
        rep = verify_lemma5_certificate(_cert(5))
        assert rep["max_diff"] == 0.0 and rep["all_exceed"]
        assert rep["direct_sum_max_diff"] > 1e-12 and rep["pass"] is False

    @pytest.mark.parametrize("name, key", [
        ("level_hit_cdf_absorbing", "absorbing_cross_check_escape"),
        ("interior_survival_absorbing", "absorbing_cross_check_exit"),
    ])
    def test_absorbing_cross_checks_judged(self, monkeypatch, name, key):
        route = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a: route(*a) + 2e-12)
        rep = verify_lemma6_certificate(_cert(6))
        assert rep["max_diff"] == 0.0 and rep["all_below"]
        assert rep[key] > 1e-12 and rep["pass"] is False

    @pytest.mark.parametrize("lemma, change, message", [
        pytest.param(5, None, "certificate must be a JSON object", id="5-not-an-object"),
        pytest.param(6, None, "certificate must be a JSON object", id="6-not-an-object"),
        pytest.param(5, _drop("entries"), "certificate lacks entries", id="5-missing-entries"),
        pytest.param(5, _drop("K0"), "certificate lacks K0", id="5-missing-K0"),
        pytest.param(5, _drop("entries", 0, "sum"), r"entries\[0\] lacks sum", id="5-missing-sum"),
        pytest.param(6, _drop("escape_by_K"), "certificate lacks escape_by_K", id="6-missing-table"),
        pytest.param(6, _drop("q"), "certificate lacks q", id="6-missing-q"),
        pytest.param(5, _set("entries", 0, "K", value=4.5), "K must be an integer", id="5-K-float"),
        pytest.param(5, _set("entries", 0, "band", value="1"), "band must be an integer",
                     id="5-band-string"),
        pytest.param(5, _set("entries", 0, "t", value=True), "t must be an integer", id="5-t-bool"),
        pytest.param(5, _set("entries", 0, "y", value=None), "y must be an integer", id="5-y-null"),
        pytest.param(5, _set("K0", value=4.0), "K0 must be an integer", id="5-K0-float"),
        pytest.param(5, _set("K0", value=5), "no entry at K0=5", id="5-no-entry-at-K0"),
        pytest.param(5, _set("entries", value={"K": 4}), "entries must be a list",
                     id="5-entries-not-a-list"),
        pytest.param(5, _set("entries", 1, value=[1, 2]), r"entries\[1\] must be a JSON object",
                     id="5-entry-not-an-object"),
        pytest.param(5, _set("entries", 0, "sum", value="1.5"), "sum must be a finite number",
                     id="5-sum-string"),
        pytest.param(5, _set("entries", 0, "sum", value=math.nan), "sum must be a finite number",
                     id="5-sum-nan"),
        pytest.param(5, _set("q_cap", value="abc"), "q_cap must be a finite number",
                     id="5-cap-string"),
        pytest.param(5, _set("eps", value=None), "eps must be a finite number", id="5-eps-null"),
        pytest.param(5, _set("q_cap", value=1.0), "q_cap must lie in", id="5-cap-one"),
        pytest.param(6, _set("escape_by_K", "x", value=0.1), "escape_by_K key 'x' is not an integer",
                     id="6-key-not-an-integer"),
        pytest.param(6, _set("escape_by_K", "064", value=0.1),
                     "escape_by_K key '064' is not an integer in canonical form",
                     id="6-key-not-canonical"),
        pytest.param(6, _set("early_exit_by_K", " 64", value=0.1), "is not an integer in canonical form",
                     id="6-key-padded"),
        pytest.param(6, _set("escape_by_K", 64, value=0.1), "escape_by_K names K=64 twice",
                     id="6-key-repeated"),
        pytest.param(6, _set("early_exit_by_K", "64", value="0.1"), "must be a finite number",
                     id="6-value-string"),
        pytest.param(6, _set("early_exit_by_K", "64", value=math.inf), "must be a finite number",
                     id="6-value-inf"),
        pytest.param(6, _set("escape_by_K", value=[0.1]), "escape_by_K must be an object",
                     id="6-table-not-an-object"),
        pytest.param(6, _set("escape_by_K", "0", value=0.1), "K must be >= 1", id="6-scale-zero"),
        pytest.param(6, _set("A", value=256.0), "A must be an integer", id="6-A-float"),
        pytest.param(6, _set("A", value=0), "A must be >= 1", id="6-A-zero"),
        pytest.param(6, _set("q", value=1.0), "q_cap must lie in", id="6-cap-one"),
        pytest.param(5, _drop("alpha"), "certificate lacks alpha", id="5-missing-alpha"),
        pytest.param(5, _set("alpha", value=1e308), "give no finite scales", id="5-alpha-overflows"),
        pytest.param(5, _set("beta", value=0.5), r"no entry at K0=4, .* = \[\(4, 2, 4\), ",
                     id="5-other-beta"),
        pytest.param(5, _set("entries", 1, "y", value=-1), "no entry at K0=4, .* once and no other",
                     id="5-y-twice"),
        pytest.param(5, _append("entries", value={"K": 32, "band": 8, "t": 256, "y": 0, "sum": 1.5}),
                     "no entry at K0=4, .* once and no other", id="5-extra-scale"),
        # a negative band holds no y, so an empty entry list matched every scale
        pytest.param(5, lambda c: c.update(beta=-1.0, entries=[]), "beta must be >= 0, got -1.0",
                     id="5-beta-negative-no-entries"),
        pytest.param(5, lambda c: c.update(K0=-4, entries=[]), "K0 must be >= 1, got -4",
                     id="5-K0-negative-no-entries"),
        pytest.param(6, _drop("Ks"), "certificate lacks Ks", id="6-missing-Ks"),
        pytest.param(6, _set("Ks", value=[]), "Ks must be a non-empty list", id="6-Ks-empty"),
        pytest.param(6, _set("Ks", value=[16, 0]), "Ks must be >= 1, got 0", id="6-Ks-zero"),
        pytest.param(6, _drop("escape_by_K", "64"), r"escape_by_K must name exactly the scales "
                     r"Ks=\[16, 64, 256\], got \[16, 256\]", id="6-scale-missing"),
        pytest.param(6, _set("early_exit_by_K", "32", value=0.01), "early_exit_by_K must name exactly",
                     id="6-scale-extra"),
        pytest.param(6, _set("Ks", value=[16, 64]), "escape_by_K must name exactly", id="6-Ks-short"),
    ])
    def test_malformed_certificate_rejected(self, lemma, change, message):
        cert, verify = _cert(lemma), _VERIFY[lemma]
        assert verify(cert)["pass"] is True
        if change is None:
            cert = [cert]
        else:
            change(cert)
        with pytest.raises(ParameterError, match=message):
            verify(cert)


class TestBadLibraryInputs:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: wilson_interval(5, 3), id="wilson-k-above-m"),
        pytest.param(lambda: wilson_interval(-1, 3), id="wilson-k-negative"),
        pytest.param(lambda: wilson_interval(0, 0), id="wilson-no-trials"),
        pytest.param(lambda: fit_exponent([(128, 0.5), (256, math.nan), (512, 0.3)]), id="fit-nan"),
        pytest.param(lambda: fit_exponent([(128, 0.5), (256, math.inf), (512, 0.3)]), id="fit-inf"),
        pytest.param(lambda: lemma0_check("1.5", 1, 0.5, 48, trials=10), id="lemma0-cap-string"),
        pytest.param(lambda: lemma0_check(math.nan, 1, 0.5, 48, trials=10), id="lemma0-cap-nan"),
        pytest.param(lambda: lemma_ori_check("1.5", 1, 2, trials=10), id="lemma-ori-cap-string"),
        pytest.param(lambda: constant_policy("abc", 0), id="cap-not-a-number"),
        pytest.param(lambda: two_zone_policy(None, 1), id="cap-none"),
        pytest.param(lambda: fast_until_zero_policy(10**400), id="cap-overflows-float"),
        pytest.param(lambda: lemma_ori_check([0.5], 1, 2, trials=10), id="lemma-ori-cap-list"),
        pytest.param(lambda: ChainSpec(0.5, 2, mode="bogus"), id="chain-mode"),
        pytest.param(lambda: reversibility_check(ChainSpec(0.5, 2), 2.5), id="window-float"),
        pytest.param(lambda: reversibility_check(ChainSpec(0.5, 2), "3"), id="window-string"),
        pytest.param(lambda: multiscale_localization_schedule(0.5, math.nan, 0.5, 1, 1024),
                     id="schedule-alpha-nan"),
        pytest.param(lambda: multiscale_localization_schedule(0.5, "a", 0.5, 1, 1024),
                     id="schedule-alpha-string"),
        pytest.param(lambda: multiscale_localization_schedule(0.5, 1.0, "b", 1, 1024),
                     id="schedule-beta-string"),
        pytest.param(lambda: constant_policy(0.5, "a"), id="constant-u-string"),
        pytest.param(lambda: barrier_family(16, "x"), id="barrier-beta-string"),
        pytest.param(lambda: lemma0_check(0.5, 1, "d", 48, trials=10), id="lemma0-delta-string"),
        pytest.param(lambda: calibrate_lemma5("a"), id="lemma5-cap-string"),
        pytest.param(lambda: calibrate_lemma6("a"), id="lemma6-eps-string"),
        pytest.param(lambda: lemma0_check(0.5, 1, 0.5, 48, trials="5"), id="lemma0-trials-string"),
        pytest.param(lambda: lemma_ori_check(0.5, 1, 2, trials="3"), id="lemma-ori-trials-string"),
        pytest.param(lambda: fit_exponent([(128, 0.5), (256, 0.4), (512, 0.3)], min_n="a"),
                     id="fit-min-n-string"),
        pytest.param(lambda: exponent_sweep("constant", 0.5, [16, 32, 64], min_n=1.5),
                     id="sweep-min-n-float"),
        pytest.param(lambda: level_hit_cdf_absorbing(0, 5), id="absorbing-level-zero"),
        pytest.param(lambda: level_hit_cdf_absorbing(1.5, 5), id="absorbing-level-float"),
        pytest.param(lambda: solve_extremal(0.5, 0), id="solve-n-zero"),
        pytest.param(lambda: solve_extremal(0.5, 4, "median"), id="solve-objective"),
        pytest.param(lambda: heat_kernel_profile(ChainSpec(0.5, 2), [0, 4]), id="heat-kernel-t-zero"),
        pytest.param(lambda: calibrate_lemma5(0.0), id="lemma5-cap-zero"),
        pytest.param(lambda: calibrate_lemma5(1.0), id="lemma5-cap-one"),
        pytest.param(lambda: calibrate_lemma6(1.0), id="lemma6-eps-one"),
        pytest.param(lambda: interior_survival(0.5, 0, 3), id="survival-K-zero"),
        pytest.param(lambda: barrier_family(64, -0.5), id="barrier-beta-negative"),
        pytest.param(lambda: lemma0_check(0.5, 1, 1.5, 48), id="lemma0-delta-above-one"),
        pytest.param(lambda: lemma_ori_check(0.5, 0, 2, trials=10), id="lemma-ori-K-zero"),
        pytest.param(lambda: lemma_ori_check(0.5, 1, 0, trials=10), id="lemma-ori-A-zero"),
        pytest.param(lambda: lemma_ori_check(0.5, 1, 2, trials=0), id="lemma-ori-no-trials"),
        pytest.param(lambda: schedule_policy(0.5, [ScheduleSegment(0, 0, constant_policy(0.5, 0.5))]),
                     id="schedule-empty-segment"),
        pytest.param(lambda: multiscale_localization_schedule(0.5, 1.0, 1.0, 1, 1024),
                     id="schedule-beta-one"),
        pytest.param(lambda: multiscale_localization_schedule(0.5, 1.0, 0.5, 4, 8),
                     id="schedule-horizon-short"),
        pytest.param(lambda: multiscale_qto1_schedule(0.5, 0, 64), id="qto1-A-zero"),
        pytest.param(lambda: evolve(PolicySpec("warp", 0.5, {}), 4), id="evolve-unknown-kind"),
        pytest.param(lambda: run_batch(PolicySpec("warp", 0.5, {}), 4, trials=4, seed=1),
                     id="batch-unknown-kind"),
        pytest.param(lambda: LatticeDistribution(0, 0, np.ones((1, 1))), id="law-one-row"),
        pytest.param(lambda: LatticeDistribution(0, 0, np.array([[0.0], [1.0]]), mode="float32"),
                     id="law-mode"),
    ])
    def test_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: escape_probability(-1, 2), "A must be >= 1", id="escape-A-negative"),
        pytest.param(lambda: escape_probability(1.5, 2), "A must be an integer", id="escape-A-float"),
        pytest.param(lambda: escape_probability(1, 0), "K must be >= 1", id="escape-K-zero"),
        pytest.param(lambda: escape_probability(1, "2"), "K must be an integer", id="escape-K-string"),
        pytest.param(lambda: early_exit_probability(0.5, -1, 2), "A must be >= 1",
                     id="early-exit-A-negative"),
        pytest.param(lambda: early_exit_probability(0.5, 2, 0), "K must be >= 1",
                     id="early-exit-K-zero"),
        pytest.param(lambda: early_exit_probability(0.5, 2.0, 2), "A must be an integer",
                     id="early-exit-A-float"),
        pytest.param(lambda: level_hit_cdf(1, -1), "t must be >= 0", id="level-t-negative"),
        pytest.param(lambda: level_hit_cdf_absorbing(1, -1), "t must be >= 0",
                     id="absorbing-level-t-negative"),
        pytest.param(lambda: level_hit_cdf(0, 5), "level must be >= 1", id="level-zero"),
        pytest.param(lambda: interior_survival(0.5, 2, -3), "s must be >= 0", id="survival-s-negative"),
        pytest.param(lambda: interior_survival_absorbing(0.5, 2, -3), "s must be >= 0",
                     id="absorbing-survival-s-negative"),
        pytest.param(lambda: interior_survival_absorbing(0.5, 0, 3), "K must be >= 1",
                     id="absorbing-survival-K-zero"),
        pytest.param(lambda: interior_survival_absorbing(0.5, 2.5, 3), "K must be an integer",
                     id="absorbing-survival-K-float"),
        pytest.param(lambda: interior_survival_absorbing(0.5, 2, 3.5), "s must be an integer",
                     id="absorbing-survival-s-float"),
        pytest.param(lambda: interior_survival_absorbing(1.0, 2, 3), "q_cap must lie in",
                     id="absorbing-survival-cap-one"),
    ])
    def test_closed_forms_name_their_argument(self, call, message):
        # escape_probability(-1, 2) read 1.0, early_exit_probability(0.5, -1, 2) 0.0,
        # level_hit_cdf(1, -1) 0.0 and interior_survival(0.5, 2, -3) 1.0
        with pytest.raises(ParameterError, match=message):
            call()

    def test_survival_over_no_steps_is_one(self):
        assert interior_survival(0.5, 2, 0) == interior_survival_absorbing(0.5, 2, 0) == 1.0

    def test_probe_caps_read_as_floats_first(self):
        # the cap is read as the policy builders read it, before any other check
        a, b = lemma0_check("0.5", 1, 0.5, 48, trials=50), lemma0_check(0.5, 1, 0.5, 48, trials=50)
        assert a == b and a.q_cap == 0.5 and isinstance(a.q_cap, float)
        a, b = lemma_ori_check("0.5", 1, 2, trials=10), lemma_ori_check(0.5, 1, 2, trials=10)
        assert a == b and isinstance(a.q_cap, float)

    def test_fit_refuses_a_zero_horizon(self):
        # min_n = 0 kept n = 0, and the local slope divided by log(4 / 0)
        with pytest.raises(ParameterError, match="min_n must be >= 1, got 0"):
            fit_exponent([(0, 1.0), (4, 0.5), (8, 0.3)], min_n=0)
        # a point below the cutoff is dropped unread, n = 0 as well
        fit = fit_exponent([(0, 1.0), (128, 0.5), (256, 0.4), (512, 0.3)])
        assert [n for n, _ in fit.points] == [128, 256, 512]

    def test_sweep_policy_refuses_a_negative_horizon(self):
        # the two-zone band took sqrt(-1): a math-domain ValueError
        with pytest.raises(ParameterError, match="n must be >= 0, got -1"):
            sweep_policy("two-zone", 0.5, -1, {})


def _table():
    return solve_extremal(0.5, 2, keep_values=True)[0]


def _snapshot(time):
    return from_snapshot({"time": time, "offset": 0, "mass": [[0.0], [1.0]], "flag_split": True})


# every count argument read by errors.as_count: (call with the count, its name, its least value)
COUNTS = [
    pytest.param(lambda v: solve_extremal(0.5, v), "n", 1, id="solve-n"),
    pytest.param(lambda v: value_table_to_csv(_table(), io.StringIO(), v), "cutoff", 0, id="csv-cutoff"),
    pytest.param(lambda v: wilson_interval(v, 3), "k", 0, id="wilson-k"),
    pytest.param(lambda v: wilson_interval(0, v), "m", 1, id="wilson-m"),
    pytest.param(lambda v: barrier_family(v), "n", 2, id="barrier-n"),
    pytest.param(lambda v: run_batch(constant_policy(0.5, 0.5), 4, trials=v, seed=1), "trials", 1,
                 id="batch-trials"),
    pytest.param(lambda v: lemma0_check(0.5, v, 0.5, 48, trials=10), "h", 1, id="lemma0-h"),
    pytest.param(lambda v: lemma0_check(0.5, 1, 0.5, 48, trials=v), "trials", 1, id="lemma0-trials"),
    pytest.param(lambda v: lemma_ori_check(0.5, v, 2, trials=10), "A", 1, id="lemma-ori-A"),
    pytest.param(lambda v: lemma_ori_check(0.5, 1, v, trials=10), "K", 1, id="lemma-ori-K"),
    pytest.param(lambda v: lemma_ori_check(0.5, 1, 2, trials=v), "trials", 1, id="lemma-ori-trials"),
    pytest.param(lambda v: two_zone_policy(0.5, v), "band_halfwidth", 0, id="two-zone-band"),
    pytest.param(lambda v: bang_bang_table_policy(0.5, v, [()]), "n", 1, id="bang-bang-n"),
    pytest.param(lambda v: multiscale_localization_schedule(0.5, 0.5, 0.25, v, 1024), "K0", 1,
                 id="localization-K0"),
    pytest.param(lambda v: multiscale_qto1_schedule(0.5, v, 64), "A", 1, id="qto1-A"),
    pytest.param(lambda v: evolve(constant_policy(0.5, 0.5), v), "n", 0, id="run-args-n"),
    pytest.param(lambda v: trial_keys(0, v), "trials", 0, id="trial-keys-trials"),
    pytest.param(_snapshot, "time", 0, id="snapshot-time"),
    pytest.param(lambda v: reversibility_check(ChainSpec(0.5, 2), v), "window", 0, id="window"),
    pytest.param(lambda v: heat_kernel_profile(ChainSpec(0.5, 2), [v]), "time in t_grid", 1,
                 id="heat-kernel-t"),
    pytest.param(lambda v: band_sum_direct(0.5, v, 0, 2, [0]), "K", 0, id="band-sum-direct-K"),
    pytest.param(lambda v: fit_exponent([(2, 1.0), (4, 0.5), (8, 0.3)], min_n=v), "min_n", 1,
                 id="fit-min-n"),
    pytest.param(lambda v: sweep_policy("two-zone", 0.5, v, {}), "n", 0, id="sweep-n"),
    pytest.param(lambda v: level_hit_cdf(v, 5), "level", 1, id="level"),
    pytest.param(lambda v: level_hit_cdf(1, v), "t", 0, id="level-t"),
    pytest.param(lambda v: level_hit_cdf_absorbing(v, 5), "level", 1, id="absorbing-level"),
    pytest.param(lambda v: interior_survival(0.5, v, 3), "K", 1, id="survival-K"),
    pytest.param(lambda v: interior_survival(0.5, 2, v), "s", 0, id="survival-s"),
    pytest.param(lambda v: interior_survival_absorbing(0.5, 2, v), "s", 0, id="absorbing-survival-s"),
    pytest.param(lambda v: escape_probability(v, 2), "A", 1, id="escape-A"),
    pytest.param(lambda v: escape_probability(1, v), "K", 1, id="escape-K"),
    pytest.param(lambda v: early_exit_probability(0.5, v, 2), "A", 1, id="early-exit-A"),
    pytest.param(lambda v: early_exit_probability(0.5, 1, v), "K", 1, id="early-exit-K"),
]


class TestCounts:
    """One reader, one message: a count is an integer of at least its least value."""

    @pytest.mark.parametrize("call, name, low", COUNTS)
    def test_refused_by_name(self, call, name, low):
        for value, message in ((True, f"{name} must be an integer, got True"),
                               (1.5, f"{name} must be an integer, got 1.5"),
                               (low - 1, f"{name} must be >= {low}, got {low - 1}")):
            with pytest.raises(ParameterError) as info:
                call(value)
            assert str(info.value) == message

    @pytest.mark.parametrize("call, name, low", COUNTS)
    def test_least_value_accepted(self, call, name, low):
        call(low)
        call(np.int64(low))
