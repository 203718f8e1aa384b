"""Counter-based sampling, barrier diagnostics, statistical probes."""

import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlwalk import (
    ParameterError,
    ScheduleSegment,
    as_target,
    bang_bang_table_policy,
    barrier_diagnostics,
    barrier_family,
    constant_policy,
    estimate_hit,
    evolve,
    fast_until_zero_policy,
    hit_probability,
    interval_mass,
    lemma0_check,
    lemma_ori_check,
    mix64,
    run_batch,
    sample_path,
    schedule_policy,
    solve_extremal,
    sweep_policy,
    trial_keys,
    two_zone_policy,
    wilson_interval,
)
from ctrlwalk import montecarlo
from ctrlwalk.montecarlo import _MIN_SHARD, hit_estimate
from ctrlwalk.policies import _rules
from reference import stage_stats_from_entrances, step_uniforms

MASK = (1 << 64) - 1


def mix64_reference(z: int) -> int:
    """Plain-integer restatement of the avalanche finalizer."""
    z &= MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return (z ^ (z >> 31)) & MASK


class TestRng:
    @given(st.integers(0, MASK))
    @settings(max_examples=120, deadline=None)
    def test_mix_matches_integer_reference(self, z):
        got = int(mix64(np.uint64(z)))
        assert got == mix64_reference(z)

    def test_mix_into_a_separate_out(self):
        z = np.arange(5, dtype=np.uint64)
        out = np.empty_like(z)
        assert mix64(z, out) is out
        assert z.tolist() == list(range(5))  # the input is left as it was
        assert out.tolist() == [mix64_reference(v) for v in range(5)]

    def test_keys_follow_weyl_sequence(self):
        seed, salt, golden = 12345, 0xD1B54A32D192ED03, 0x9E3779B97F4A7C15
        keys = trial_keys(seed, 4, base=2)
        for i, k in enumerate(keys):
            counter = ((seed ^ salt) + (2 + i) * golden) & MASK
            assert int(k) == mix64_reference(counter)

    def test_keys_distinct(self):
        keys = trial_keys(7, 4096)
        assert len(set(keys.tolist())) == 4096

    def test_uniforms_in_unit_interval(self):
        keys = trial_keys(3, 1000)
        for step in (0, 1, 17):
            u = step_uniforms(keys, step)
            assert u.min() >= 0.0 and u.max() < 1.0

    def test_uniform_resolution(self):
        # 53-bit mantissa: values live on the 2^-53 grid
        u = step_uniforms(trial_keys(1, 8), 0)
        assert np.array_equal(u, np.round(u * 2.0**53) / 2.0**53)

    def test_streams_are_decorrelated(self):
        a = step_uniforms(trial_keys(1, 20000), 5)
        b = step_uniforms(trial_keys(2, 20000), 5)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


class TestBatches:
    def test_deterministic(self):
        p = constant_policy(0.5, 0.5)
        a = run_batch(p, 50, trials=200, seed=9)
        b = run_batch(p, 50, trials=200, seed=9)
        assert np.array_equal(a.final, b.final)

    def test_seed_changes_draws(self):
        p = constant_policy(0.5, 0.5)
        a = run_batch(p, 50, trials=200, seed=9)
        b = run_batch(p, 50, trials=200, seed=10)
        assert not np.array_equal(a.final, b.final)

    def test_trial_base_concatenates(self):
        p = two_zone_policy(0.8, 3)
        whole = run_batch(p, 40, trials=100, seed=4)
        left = run_batch(p, 40, trials=60, seed=4)
        right = run_batch(p, 40, trials=40, seed=4, trial_base=60)
        assert np.array_equal(whole.final, np.concatenate([left.final, right.final]))

    def test_single_path_matches_batch_row(self):
        fam = barrier_family(64)
        for policy in (constant_policy(0.5, 0.5), two_zone_policy(0.9, 2)):
            batch = run_batch(policy, 64, trials=8, seed=21, family=fam)
            for k in (0, 3, 7):
                path, entr = sample_path(policy, 64, seed=21, trial=k, family=fam)
                assert len(path) == 65 and path[0] == 0
                assert path[-1] == batch.final[k]
                assert np.array_equal(entr, batch.entrances[k])

    def test_parity_of_free_walk(self):
        batch = run_batch(constant_policy(0.5, 0.0), 31, trials=500, seed=5)
        assert np.all((batch.final % 2) != 0)

    @pytest.mark.parametrize("kwargs", [
        {"trials": 100.5}, {"trials": True}, {"trials": 10, "seed": 1.5},
        {"trials": 10, "seed": True}, {"trials": 10, "trial_base": 0.5},
        {"trials": 10, "start": 0.5}, {"trials": 10, "n": 16.0},
    ])
    def test_non_integer_batch_arguments_rejected(self, kwargs):
        with pytest.raises(ParameterError, match="must be an integer"):
            run_batch(constant_policy(0.5, 0.5), **{"n": 16, **kwargs})

    def test_numpy_integer_seeds_and_trials_accepted(self):
        p = constant_policy(0.5, 0.5)
        want = run_batch(p, 16, trials=50, seed=7).final
        assert np.array_equal(run_batch(p, 16, trials=np.int64(50), seed=np.uint64(7)).final, want)
        assert np.array_equal(trial_keys(np.int32(7), 3), trial_keys(7, 3))

    def test_trial_indices_outside_counter_space_rejected(self):
        # trial indices are uint64 counters: a range leaving [0, 2^64) is a
        # parameter error, not a numpy overflow
        p = constant_policy(0.5, 0.5)
        for call in (
            lambda: trial_keys(3, 1, base=-1),
            lambda: trial_keys(3, 2, base=MASK),
            lambda: trial_keys(3, 1, base=MASK + 1),
            lambda: run_batch(p, 8, trials=10, trial_base=-1),
            lambda: run_batch(p, 8, trials=10, trial_base=MASK - 8),
            lambda: sample_path(p, 8, trial=-1),
            lambda: sample_path(p, 8, trial=MASK + 1),
        ):
            with pytest.raises(ParameterError, match=r"must lie in \[0, 2\^64\)"):
                call()
        with pytest.raises(ParameterError, match="trials must be >= 0"):
            trial_keys(3, -1)
        top = trial_keys(3, 2, base=MASK - 1)  # the last two indices are still valid
        assert np.array_equal(top, [trial_keys(3, 1, base=MASK - 1)[0], trial_keys(3, 1, base=MASK)[0]])
        assert np.array_equal(sample_path(p, 8, trial=MASK)[0][-1:], run_batch(p, 8, trial_base=MASK).final)

    def test_start_offset(self):
        batch = run_batch(constant_policy(0.5, 0.5), 10, start=7, trials=100, seed=1)
        assert np.all(np.abs(batch.final - 7) <= 10)


class TestEstimates:
    def test_wilson_closed_form(self):
        k, m, z = 37, 120, 1.96
        ph = k / m
        denom = 1 + z * z / m
        center = (ph + z * z / (2 * m)) / denom
        half = z * math.sqrt(ph * (1 - ph) / m + z * z / (4 * m * m)) / denom
        lo, hi = wilson_interval(k, m, z)
        assert abs(lo - (center - half)) < 1e-15
        assert abs(hi - (center + half)) < 1e-15

    def test_wilson_edges(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.9

    @pytest.mark.parametrize("args, kwargs", [
        ((2.5, 3), {}), ((2, 3.0), {}), ((True, 3), {}), ((1, 3), {"z": -1}), ((1, 3), {"z": 0}),
        ((1, 3), {"z": math.nan}), ((1, 3), {"z": math.inf}), ((1, 3), {"z": "2"}),
    ])
    def test_wilson_rejects_bad_inputs(self, args, kwargs):
        # without these checks (2.5, 3) read (0.310, 0.982), z=-1 gave an
        # interval with its low end above its high end, and z=nan gave (0, 1)
        with pytest.raises(ParameterError):
            wilson_interval(*args, **kwargs)

    def test_estimate_against_exact(self):
        p = constant_policy(0.5, 0.5)
        exact = hit_probability(p, 100)
        est = estimate_hit(p, 100, trials=100000, seed=13)
        se = math.sqrt(exact * (1 - exact) / est.trials)
        assert abs(est.p_hat - exact) < 4 * se
        assert est.ci_low <= exact <= est.ci_high
        assert est.hits == round(est.p_hat * est.trials)

    def test_far_start_bang_bang_against_exact(self):
        # stay intervals beyond +-(n+1), reached from starts next to them
        wide = bang_bang_table_policy(0.9, 4, [((10, 12), (14, 20))] * 4)
        left = bang_bang_table_policy(0.8, 6, [((-40, -9),)] * 6)
        for p, n, start, target in ((wide, 4, 15, 15), (wide, 4, 11, (10, 12)), (left, 6, -10, -10)):
            exact = hit_probability(p, n, start, target)
            est = estimate_hit(p, n, start=start, target=target, trials=20000, seed=17)
            se = math.sqrt(exact * (1 - exact) / est.trials)
            assert abs(est.p_hat - exact) <= 4.5 * se

    def test_estimate_interval_target(self):
        p = constant_policy(0.5, 0.5)
        est = estimate_hit(p, 20, target=(-20, 20), trials=2000, seed=2)
        assert est.p_hat == 1.0

    @pytest.mark.parametrize("lo, hi", [(5, 3), (0.5, 3), (0, 2.5), (True, 2), (0, "1"), (0, None)])
    def test_hit_estimate_rejects_bad_bounds(self, lo, hi):
        # an empty interval read p_hat = 0.0, and non-integer bounds were compared as given
        with pytest.raises(ParameterError):
            hit_estimate(np.zeros(10, dtype=np.int64), lo, hi)

    def test_hit_estimate_reads_integral_bounds(self):
        est = hit_estimate(np.array([-2, 0, 0, 3]), np.int64(0), 3)
        assert (est.hits, est.trials, est.p_hat) == (3, 4, 0.75)


class TestBarriers:
    def test_family_pinned_values(self):
        f = barrier_family(1024, 0.0)
        assert f.N0 == 10
        assert f.radii == (23, 16, 11, 8, 6, 4, 3, 2, 1, 1)
        assert f.band_starts == (512, 768, 896, 960, 992, 1008, 1016, 1020, 1022, 1023)

    def test_family_with_window_exponent(self):
        f = barrier_family(1000, 0.25)
        assert f.N0 == 4
        assert f.radii == (22, 16, 11, 8)
        assert f.band_starts == (500, 750, 875, 938)

    def test_family_rejects_tiny_systems(self):
        with pytest.raises(ParameterError):
            barrier_family(1)
        with pytest.raises(ParameterError):
            barrier_family(1024, beta_exp=0.49)

    def test_family_rejects_non_integer_horizon(self):
        with pytest.raises(ParameterError, match="n must be an integer"):
            barrier_family(64.9)

    def test_inclusion_holds_for_lazy(self):
        st_ = barrier_diagnostics(constant_policy(0.5, 0.5), 256, trials=3000, seed=6)
        assert st_.violations_exact == 0
        entered = list(st_.entered_by_n)
        assert entered == sorted(entered, reverse=True)
        assert st_.final_at_zero <= st_.entered_by_n[-1]

    def test_inclusion_holds_for_sticky_policy(self):
        st_ = barrier_diagnostics(two_zone_policy(0.9, 4), 256, trials=3000, seed=8)
        assert st_.violations_exact == 0

    def test_entrances_are_strictly_ordered(self):
        fam = barrier_family(128)
        batch = run_batch(constant_policy(0.5, 0.5), 128, trials=500, seed=3, family=fam)
        ent = batch.entrances
        for i in range(fam.N0 - 1):
            both = (ent[:, i] >= 0) & (ent[:, i + 1] >= 0)
            assert np.all(ent[both, i + 1] > ent[both, i])
            # a later stage cannot be reached without the earlier one
            assert not np.any((ent[:, i] < 0) & (ent[:, i + 1] >= 0))


def stage_policy(kind: str, n: int):
    if kind == "bang-bang":
        return solve_extremal(0.9, n, "max", target=0, keep_values=False)[1].as_policy()
    if kind == "constant-mid":
        return constant_policy(0.9, 0.37 * 0.9)
    return sweep_policy(kind, 0.9, n, {})


# (n, start, beta_exp): the shortest horizon (N0 = 1), starts on and off 0, windows above 1,
# and a start no walk can bring within the first radius, so no stage has an escape frequency
STAGE_SETTINGS = [(2, 0, 0.0), (2, 1, 0.0), (65, 3, 0.2), (512, 0, 0.3), (512, -7, 0.0),
                  (64, 100, 0.0)]
STAGE_CASES = [
    (kind, *setting)
    for kind in ("constant", "constant-mid", "two-zone", "fast-until-zero", "bang-bang")
    for setting in STAGE_SETTINGS
] + [(kind, 512, start, 0.0) for kind in ("schedule-localization", "schedule-qto1")
     for start in (0, -7)]


class TestStageCounts:
    """barrier_diagnostics reads its counts off per-walk stage counts; the
    reference reduces the entrance table of the same walks column by column."""

    TRIALS = 3000

    @pytest.mark.parametrize("kind, n, start, beta", STAGE_CASES)
    def test_counts_equal_the_entrance_table_reduction(self, kind, n, start, beta):
        policy, family, seed = stage_policy(kind, n), barrier_family(n, beta), n + 7 * start
        batch = run_batch(policy, n, start=start, trials=self.TRIALS, seed=seed, family=family)
        got = barrier_diagnostics(policy, n, beta_exp=beta, trials=self.TRIALS, seed=seed,
                                  start=start)
        assert got == stage_stats_from_entrances(batch, family)

    def test_forked_counts_equal_the_entrance_table_reduction(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_core_count", lambda: 2)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        policy, n, trials = fast_until_zero_policy(0.9), 64, 2 * _MIN_SHARD + 37
        family = barrier_family(n)
        batch = run_batch(policy, n, start=-3, trials=trials, seed=31, family=family)
        got = barrier_diagnostics(policy, n, trials=trials, seed=31, start=-3)
        assert len(forks) == 2  # each ran its second shard in a child
        assert got == stage_stats_from_entrances(batch, family)
        assert got.violations_exact == 0 and got.entered_by_n[0] > 0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_barrier_batch_builds_no_entrance_table(self):
        # in a fresh process, whose peak estimate_hit sets first, with the
        # whole batch in that process. The peak is the process's own VmHWM:
        # ru_maxrss keeps the launching process's peak across fork and exec,
        # so under pytest it would not move. Built with an int64 (trials, N0)
        # entrance table (8 MB here), the barrier run raised the peak by
        # 11.3 MiB; with int8 stage counts it raises it by 1.6 MiB.
        code = (
            "from ctrlwalk import barrier_diagnostics, constant_policy, estimate_hit, montecarlo\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "montecarlo._core_count = lambda: 1\n"
            "p = constant_policy(0.9, 0.9)\n"
            "estimate_hit(p, 1024, trials=100_000, seed=1)\n"
            "before = peak()\n"
            "barrier_diagnostics(p, 1024, trials=100_000, seed=2)\n"
            "print(peak() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 4 * 1024  # KiB of peak growth


class TestStayRuleLookups:
    """_walk draws its stay rules from one _rules stream per run, one rule per
    range, as dp._forward does."""

    @staticmethod
    def lookups(monkeypatch, policy, n, family=None):
        calls, starts = [], []

        def counted(pol, t0, t1):
            calls.append((t0, t1))
            for rule in _rules(pol, t0, t1):
                starts.append(rule[0])
                yield rule

        monkeypatch.setattr(montecarlo, "_rules", counted)
        run_batch(policy, n, start=2, trials=64, seed=1, family=family)
        assert calls == [(0, n)]
        return starts

    @pytest.mark.parametrize(
        "policy", [constant_policy(0.9, 0.4), two_zone_policy(0.9, 3), fast_until_zero_policy(0.9)]
    )
    @pytest.mark.parametrize("tracked", [False, True])
    def test_one_lookup_for_a_homogeneous_kind(self, monkeypatch, policy, tracked):
        family = barrier_family(64) if tracked else None
        assert self.lookups(monkeypatch, policy, 64, family) == [0]

    @pytest.mark.parametrize("kind", ["schedule-localization", "schedule-qto1"])
    def test_one_lookup_per_schedule_segment(self, monkeypatch, kind):
        policy = sweep_policy(kind, 0.9, 512, {})
        assert self.lookups(monkeypatch, policy, 512) == [
            s.t_start for s in policy.params["segments"]]

    def test_nested_schedule_segments_counted(self, monkeypatch):
        inner = schedule_policy(0.9, [ScheduleSegment(0, 20, two_zone_policy(0.9, 2)),
                                      ScheduleSegment(20, 50, fast_until_zero_policy(0.9))])
        outer = schedule_policy(0.9, [ScheduleSegment(0, 50, inner),
                                      ScheduleSegment(50, 80, constant_policy(0.9, 0.1))])
        assert self.lookups(monkeypatch, outer, 80) == [0, 20, 50]

    def test_one_lookup_per_step_for_a_table(self, monkeypatch):
        _, bb = solve_extremal(0.8, 40, "max", keep_values=False)
        assert self.lookups(monkeypatch, bb.as_policy(), 40) == list(range(40))

    def test_flags_start_at_each_fast_until_zero_range(self):
        # None before the first such range; then the visits to 0 since the range's start
        free, fast = constant_policy(0.9, 0.0), fast_until_zero_policy(0.9)
        policy = schedule_policy(0.9, [ScheduleSegment(0, 10, free), ScheduleSegment(10, 30, fast),
                                       ScheduleSegment(30, 40, two_zone_policy(0.9, 1)),
                                       ScheduleSegment(40, 60, fast)])
        x = np.zeros(200, dtype=np.int64)
        path, flags = [x.copy()], []
        for flag in montecarlo._walk(policy, 60, x, trial_keys(3, 200)):
            path.append(x.copy())
            flags.append(None if flag is None else flag.copy())
        path = np.array(path)
        for t, flag in enumerate(flags):  # the flags after step t
            if t < 10:
                assert flag is None
            else:
                since = 40 if t >= 40 else 10
                assert np.array_equal(flag, (path[since : t + 2] == 0).any(axis=0)), t


class TestProbes:
    def test_escape_probe_preconditions(self):
        with pytest.raises(ParameterError):
            lemma0_check(0.9, 1, 0.1, 23)  # run shorter than 24 h^2 / delta
        with pytest.raises(ParameterError):
            lemma0_check(0.95, 1, 0.1, 240)  # move weight below the floor

    def test_escape_probe_boundary_run_length(self):
        # ell exactly at the floor passes the precondition
        res = lemma0_check(0.9, 1, 0.1, 240, trials=2000, seed=1)
        assert res.ell == 240

    def test_escape_probe_estimate(self):
        res = lemma0_check(0.9, 1, 0.1, 240, trials=20000, seed=7)
        assert 0.45 < res.estimate < 0.55
        assert res.ci_low > res.threshold == pytest.approx(1 / 6)
        assert not res.violation

    def test_escape_probe_deterministic(self):
        a = lemma0_check(0.9, 1, 0.1, 240, trials=5000, seed=3)
        b = lemma0_check(0.9, 1, 0.1, 240, trials=5000, seed=3)
        assert a.estimate == b.estimate and a.hits == b.hits

    def test_return_probe_bounds(self):
        res = lemma_ori_check(0.875, 1, 4, trials=1500, seed=11)
        assert res.starts == tuple(range(-8, 9))
        assert 0.0 <= res.min_contain <= 1.0
        for s in range(len(res.starts)):
            # failing to end inside [-K, K] needs one of the two channels:
            # never reaching 0, or drifting back out after reaching it
            assert 1.0 - res.contain[s] <= res.no_hit[s] + res.band_exit[s] + 1e-12
        assert res.no_hit[res.starts.index(0)] == 0.0
        assert res.ci_low <= res.min_contain <= res.ci_high
        assert res.min_contain == min(res.contain)
        assert res.starts[res.contain.index(res.min_contain)] == res.worst_start

    @pytest.mark.parametrize("A, K", [(2.5, 4), (1, 4.0)])
    def test_return_probe_rejects_non_integer_sizes(self, A, K):
        with pytest.raises(ParameterError, match="must be an integer"):
            lemma_ori_check(0.9, A, K, trials=10, seed=1)

    def test_return_probe_runs_the_batch_walk(self):
        # each start's row is run_batch from that start over A*K^2 = 16 steps
        res = lemma_ori_check(0.875, 1, 4, trials=300, seed=3)
        policy = fast_until_zero_policy(0.875)
        for s, contain in zip(res.starts, res.contain):
            final = run_batch(policy, 16, start=s, trials=300, seed=3).final
            assert contain == np.count_nonzero(np.abs(final) <= 4) / 300

    def test_escape_probe_runs_the_batch_walk(self):
        res = lemma0_check(0.5, 2, 0.5, 192, trials=200, seed=11)
        policy = constant_policy(0.5, 0.5)
        exits = []  # each trial's site at its first |.| >= h, 0 if none
        for i in range(200):
            path, _ = sample_path(policy, 192, seed=11, trial=i)
            out = path[np.abs(path) >= 2]
            exits.append(int(out[0]) if out.size else 0)
        assert (res.hits, res.stopped_within) == (105, 200)
        assert res.hits == sum(e >= 2 for e in exits)
        assert res.stopped_within == sum(e != 0 for e in exits)

    def test_return_probe_deterministic(self):
        a = lemma_ori_check(0.875, 1, 4, trials=400, seed=2)
        b = lemma_ori_check(0.875, 1, 4, trials=400, seed=2)
        assert a.contain == b.contain


class TestAgainstExact:
    """Seeded MC estimates against the exact law, for every policy kind.

    n = 512 keeps schedule-localization past the horizons where it
    degenerates (about 256). Start -600 lies off the window of a walk from
    0, so the bang-bang table reads u = 0 there; targets reach from the
    origin to sites only the far start can hit.
    """

    N, Q, TRIALS, SEED = 512, 0.9, 10000, 11
    TARGETS = (0, (3, 5), (-300, -200), (-530, -500))

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("m", [64, 256])
    def test_bang_bang_optimum_within_z_bound(self, q, m):
        # the optimal policy's hit rate against sup P(S_m = 0) = V_0(0); two
        # shards' worth of trials, so the batch runs sharded on a machine
        # with more than one core
        trials = 2 * _MIN_SHARD
        table, bb = solve_extremal(q, m, "max", target=0, keep_values=False)
        best = table.value(0, 0)
        est = estimate_hit(bb.as_policy(), m, trials=trials, seed=self.SEED)
        se = math.sqrt(best * (1 - best) / trials)
        assert abs(est.p_hat - best) <= 4.5 * se, (est.p_hat, best)

    @pytest.mark.parametrize(
        "kind",
        ["constant", "two-zone", "fast-until-zero", "schedule-localization", "schedule-qto1",
         "bang-bang"],
    )
    @pytest.mark.parametrize("start", [0, 7, -600])
    def test_estimates_within_z_bound(self, kind, start):
        n, q, trials = self.N, self.Q, self.TRIALS
        if kind == "bang-bang":
            policy = solve_extremal(q, n, "max", target=0, keep_values=False)[1].as_policy()
        else:
            policy = sweep_policy(kind, q, n, {})
        final = run_batch(policy, n, start=start, trials=trials, seed=self.SEED).final
        law = evolve(policy, n, start)
        for target in self.TARGETS:
            lo, hi = as_target(target)
            exact = float(interval_mass(law, lo, hi))
            p_hat = np.count_nonzero((final >= lo) & (final <= hi)) / trials
            if exact == 0.0:
                assert p_hat == 0.0, target
            else:
                se = math.sqrt(exact * (1 - exact) / trials)
                assert abs(p_hat - exact) <= 4.5 * se, (target, p_hat, exact)


@st.composite
def law_cases(draw):
    """(policy, n, start, seed): a builder's policy, a cap, n <= 200 and a
    start inside [-n, n] or beyond it."""
    q = draw(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99))
    kind = draw(st.sampled_from([
        "constant", "two-zone", "fast-until-zero", "schedule-localization", "schedule-qto1",
        "bang-bang",
    ]))
    n = draw(st.integers(64 if kind == "schedule-localization" else 5, 200))
    if kind == "bang-bang":
        objective, target = draw(st.sampled_from(["max", "min"])), draw(st.integers(-5, 5))
        policy = solve_extremal(q, n, objective, target, keep_values=False)[1].as_policy()
    else:
        policy = sweep_policy(kind, q, n, {"K0": draw(st.integers(1, 2)), "A": draw(st.integers(1, 4))})
    near, far = st.integers(-n, n), st.integers(n + 1, 2 * n + 40)
    start = draw(near | far | far.map(operator.neg))
    return policy, n, start, draw(st.integers(0, 2**32))


class TestWholeLaw:
    """The empirical CDF of run_batch's final sites against the exact law's
    CDF, within the Dvoretzky-Kiefer-Wolfowitz bound: sup |F_N - F| exceeds
    eps = sqrt(ln(2 / alpha) / 2N) with probability at most alpha = 1e-9."""

    @staticmethod
    def assert_within_dkw(policy, n, start, trials, seed):
        final = run_batch(policy, n, start=start, trials=trials, seed=seed).final
        law = evolve(policy, n, start)
        sites = law.offset + np.arange(law.width)  # both CDFs step only at these sites
        exact = np.cumsum(law.mass.sum(axis=0))
        empirical = np.searchsorted(np.sort(final), sites, side="right") / trials
        eps = math.sqrt(math.log(2 / 1e-9) / (2 * trials))
        gap = np.abs(empirical - exact).max()
        assert gap <= eps, (gap, eps)

    @given(law_cases())
    @settings(max_examples=60, deadline=None)
    def test_final_law_within_dkw_bound(self, case):
        policy, n, start, seed = case
        self.assert_within_dkw(policy, n, start, 20000, seed)

    def test_sharded_final_law_within_dkw_bound(self):
        # two shards' worth of trials: forked on a machine with more than one core
        policy = sweep_policy("schedule-qto1", 0.9, 200, {"A": 2})
        self.assert_within_dkw(policy, 200, -7, 2 * _MIN_SHARD, 35)
