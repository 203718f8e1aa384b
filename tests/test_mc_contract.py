"""Bitwise pins of the Monte Carlo stream contract.

Every uniform is a pure function of (seed, trial, step), so each terminal
site, barrier entrance time and sampled path below is fixed by its inputs
alone. The digests were recorded from the float-uniform step rule
(stay if r < u, down if r < u + (1-u)/2, else up, with r from
step_uniforms); any rewrite of the step kernel must reproduce them exactly.
A digest is the first 16 hex digits of the sha256 of the array's bytes.
"""

import hashlib
import math
import mmap
import os
import signal
import subprocess
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from ctrlwalk import (
    AdmissibilityError,
    ParameterError,
    PolicySpec,
    ScheduleSegment,
    bang_bang_table_policy,
    barrier_family,
    constant_policy,
    fast_until_zero_policy,
    lemma0_check,
    lemma_ori_check,
    run_batch,
    sample_path,
    solve_extremal,
    sweep_policy,
    two_zone_policy,
)
from ctrlwalk import montecarlo
from ctrlwalk.montecarlo import _MIN_SHARD, _advance, _buffers, _step_bounds
from ctrlwalk.policies import stay_set
from ctrlwalk.rng import _STEP, trial_keys
from reference import step_uniforms

N = 512
TRIALS = 300
SEED = 20240917
PATH_TRIAL = 7
MASK = (1 << 64) - 1

POLICIES = {
    "constant-cap": lambda q: constant_policy(q, q),
    "constant-zero": lambda q: constant_policy(q, 0.0),
    "constant-mid": lambda q: constant_policy(q, 0.37 * q),
    "two-zone": lambda q: two_zone_policy(q, 3),
    "fast-until-zero": fast_until_zero_policy,
    "schedule-localization": lambda q: sweep_policy("schedule-localization", q, N, {}),
    "schedule-qto1": lambda q: sweep_policy("schedule-qto1", q, N, {}),
    "bang-bang": lambda q: solve_extremal(q, N, "max", target=0, keep_values=False)[1].as_policy(),
}
VARIANTS = {"plain": (0, False), "barriers": (0, True), "off-zero": (5, False),
            "off-zero-barriers": (-3, True)}


def digest(a) -> str | None:
    return None if a is None else hashlib.sha256(a.tobytes()).hexdigest()[:16]


def case_digests(q: float, kind: str, variant: str) -> tuple:
    """(final, entrances, sample_path path) digests for one pinned case."""
    policy = POLICIES[kind](q)
    start, tracked = VARIANTS[variant]
    family = barrier_family(N) if tracked else None
    batch = run_batch(policy, N, start=start, trials=TRIALS, seed=SEED, family=family)
    path, _ = sample_path(policy, N, start=start, seed=SEED, trial=PATH_TRIAL, family=family)
    return digest(batch.final), digest(batch.entrances), digest(path)


PINS = {
    (0.9, "constant-cap", "plain"): ("b5db5281e6f9c2d8", None, "b3561059acbc76ad"),
    (0.9, "constant-cap", "barriers"): ("b5db5281e6f9c2d8", "caaa7ac6e8cb2088", "b3561059acbc76ad"),
    (0.9, "constant-cap", "off-zero"): ("28145f7f3cb3e3e9", None, "4a3a10f7de2ce66d"),
    (0.9, "constant-cap", "off-zero-barriers"): ("167f222ad289ce56", "223453286dc515e2", "c014c3a43f501ac5"),
    (0.9, "constant-zero", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.9, "constant-zero", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.9, "constant-zero", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.9, "constant-zero", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.9, "constant-mid", "plain"): ("dc31e18791791907", None, "9fa608ddeb390ab3"),
    (0.9, "constant-mid", "barriers"): ("dc31e18791791907", "2b2842eac92b84df", "9fa608ddeb390ab3"),
    (0.9, "constant-mid", "off-zero"): ("e6a8098797f8a4f4", None, "27fc0c593f17f4bc"),
    (0.9, "constant-mid", "off-zero-barriers"): ("d02b96160abc204f", "17df547527fbb0cd", "200ea7eddd3bed8f"),
    (0.9, "two-zone", "plain"): ("fc4f66098b96d4a7", None, "deb1cc076f977d45"),
    (0.9, "two-zone", "barriers"): ("fc4f66098b96d4a7", "3d68869f0f725ee3", "deb1cc076f977d45"),
    (0.9, "two-zone", "off-zero"): ("d9c920eb476903fc", None, "b2cb32f753780b83"),
    (0.9, "two-zone", "off-zero-barriers"): ("482652ec885add47", "ffa213a759bfab67", "750ab9f6197fa95c"),
    (0.9, "fast-until-zero", "plain"): ("b5db5281e6f9c2d8", None, "b3561059acbc76ad"),
    (0.9, "fast-until-zero", "barriers"): ("b5db5281e6f9c2d8", "caaa7ac6e8cb2088", "b3561059acbc76ad"),
    (0.9, "fast-until-zero", "off-zero"): ("ea4032a668b28242", None, "2cc1bd10463d27ad"),
    (0.9, "fast-until-zero", "off-zero-barriers"): ("7adb6c2ebc302862", "054dffd14d5239ad", "a0bb7016fc1645a1"),
    (0.9, "schedule-localization", "plain"): ("41879d41b3f607b0", None, "557299572480caa7"),
    (0.9, "schedule-localization", "barriers"): ("41879d41b3f607b0", "ce6b739124b4113d", "557299572480caa7"),
    (0.9, "schedule-localization", "off-zero"): ("ad45eb353e37c9b5", None, "4a3a10f7de2ce66d"),
    (0.9, "schedule-localization", "off-zero-barriers"): ("4be80b93ce39c5a6", "98fa3a6e321686ad", "e99bc715c1ce3f84"),
    (0.9, "schedule-qto1", "plain"): ("88cfeff1da8c5a8d", None, "746ad8f39ffa7429"),
    (0.9, "schedule-qto1", "barriers"): ("88cfeff1da8c5a8d", "8d9cd08519c6a5c3", "746ad8f39ffa7429"),
    (0.9, "schedule-qto1", "off-zero"): ("f9f21ca18452ece2", None, "3feea9c3d7a6fad8"),
    (0.9, "schedule-qto1", "off-zero-barriers"): ("91db577ea2868dc3", "a8677f63ac430aa9", "80b55b2265491efc"),
    (0.9, "bang-bang", "plain"): ("990846fdd0221032", None, "cce4f9a0789be6d7"),
    (0.9, "bang-bang", "barriers"): ("990846fdd0221032", "c0a95a5d757b3fef", "cce4f9a0789be6d7"),
    (0.9, "bang-bang", "off-zero"): ("c9ba224be14b4d0e", None, "c302544890de1245"),
    (0.9, "bang-bang", "off-zero-barriers"): ("fe262fdbb30c1c73", "54c3a4b0a405d0a6", "78f4cc9db10de642"),
    (0.0, "constant-cap", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "constant-cap", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "constant-cap", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "constant-cap", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "constant-zero", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "constant-zero", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "constant-zero", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "constant-zero", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "two-zone", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "two-zone", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "two-zone", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "two-zone", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "fast-until-zero", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "fast-until-zero", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "fast-until-zero", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "fast-until-zero", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "schedule-localization", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "schedule-localization", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "schedule-localization", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "schedule-localization", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "schedule-qto1", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "schedule-qto1", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "schedule-qto1", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "schedule-qto1", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
    (0.0, "bang-bang", "plain"): ("0a71a39c8c1b04ae", None, "592a118a5e8dd492"),
    (0.0, "bang-bang", "barriers"): ("0a71a39c8c1b04ae", "4fce50bdcdc95d4e", "592a118a5e8dd492"),
    (0.0, "bang-bang", "off-zero"): ("2d360d54bd9e5c5b", None, "c803ade4b1d3093a"),
    (0.0, "bang-bang", "off-zero-barriers"): ("58a60ec03ff80ff5", "912d1088c8b9889a", "c90d9b3f0646855a"),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: f"q={k[0]}-{k[1]}-{k[2]}")
def test_batch_pins(key):
    assert case_digests(*key) == PINS[key]


LEMMA_PINS = {
    "lemma0": "668a1fd2b0a69797",
    "lemma0-h2": "0250e96f198e0361",
    "lemma_ori": "b3be68b23a454f45",
    "lemma_ori-q0": "764ecf39497cf8d6",
}

LEMMA_CALLS = {
    "lemma0": lambda: lemma0_check(0.9, 1, 0.1, 240, trials=3000, seed=5),
    "lemma0-h2": lambda: lemma0_check(0.5, 2, 0.5, 192, trials=2000, seed=11),
    "lemma_ori": lambda: lemma_ori_check(0.875, 1, 4, trials=500, seed=3),
    "lemma_ori-q0": lambda: lemma_ori_check(0.0, 2, 3, trials=300, seed=4),
}


@pytest.mark.parametrize("name", sorted(LEMMA_PINS))
def test_probe_result_pins(name):
    res = LEMMA_CALLS[name]()
    assert hashlib.sha256(repr(astuple(res)).encode()).hexdigest()[:16] == LEMMA_PINS[name]


# ---------------------------------------------------------------------------
# sharded batches: one contiguous shard of trials per core, shards 1.. forked


SHARD_N = 64
SHARD_TRIALS = 2 * _MIN_SHARD + 37


def assert_no_children():
    """Every forked shard has been reaped: this process has no child left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def three_cores(monkeypatch):
    """Report 3 cores, so a batch of SHARD_TRIALS splits in 2 on any machine.
    Record the size of every walk in this process as it starts and as it
    runs out, and the pid of every fork."""
    monkeypatch.setattr(montecarlo, "_core_count", lambda: 3)
    walk, fork, log = montecarlo._walk, os.fork, {"started": [], "finished": [], "forked": []}

    def spy(policy, n, x, *args):
        log["started"].append(x.size)
        yield from walk(policy, n, x, *args)
        log["finished"].append(x.size)

    def forked():
        pid = fork()
        if pid:
            log["forked"].append(pid)
        return pid

    monkeypatch.setattr(montecarlo, "_walk", spy)
    monkeypatch.setattr(os, "fork", forked)
    return log


def shared_bytes(size):
    """size zero bytes that this process and its forks share."""
    return np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)


def wait_for(byte, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not byte[0] and time.monotonic() < deadline:
        time.sleep(1e-3)


@pytest.mark.parametrize("start", [0, -3])
@pytest.mark.parametrize("kind", ["bang-bang", "fast-until-zero"])
def test_sharded_batch_equals_joined_pieces(three_cores, kind, start):
    if kind == "bang-bang":
        policy = solve_extremal(0.9, SHARD_N, "max", target=0, keep_values=False)[1].as_policy()
    else:
        policy = fast_until_zero_policy(0.9)
    family = barrier_family(SHARD_N)
    whole = run_batch(policy, SHARD_N, start=start, trials=SHARD_TRIALS, seed=SEED, family=family)
    assert_no_children()
    # shard 0 ran to its end here, shard 1 in one forked child
    assert three_cores["started"] == three_cores["finished"] == [SHARD_TRIALS // 2]
    assert len(three_cores["forked"]) == 1
    pieces = [run_batch(policy, SHARD_N, start=start, trials=min(_MIN_SHARD, SHARD_TRIALS - a),
                        seed=SEED, family=family, trial_base=a)
              for a in range(0, SHARD_TRIALS, _MIN_SHARD)]
    assert three_cores["started"][1:] == [_MIN_SHARD, _MIN_SHARD, 37]  # each piece ran unsplit
    assert len(three_cores["forked"]) == 1
    # the child's half matches too, so it ran to its end and wrote the shared views
    assert whole.final.dtype == np.int64
    assert np.array_equal(whole.final, np.concatenate([p.final for p in pieces]))
    assert np.array_equal(whole.entrances, np.concatenate([p.entrances for p in pieces]))


def test_batch_arrays_are_not_shared_with_later_forks(three_cores):
    # the shards' mapping is shared with every process forked from this
    # one; the batch's arrays are copies, so a later child writes its own
    policy, family = fast_until_zero_policy(0.9), barrier_family(SHARD_N)
    batch = run_batch(policy, SHARD_N, trials=SHARD_TRIALS, seed=SEED, family=family)
    assert len(three_cores["forked"]) == 1
    entrances, final = batch.entrances.copy(), batch.final.copy()
    pid = os.fork()
    if pid == 0:
        try:
            batch.entrances[0, 0] = 99
            batch.final[0] = 99
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert np.array_equal(batch.entrances, entrances) and np.array_equal(batch.final, final)


def test_without_fork_a_batch_runs_in_one_shard(three_cores, monkeypatch):
    monkeypatch.delattr(os, "fork")
    policy = fast_until_zero_policy(0.9)
    whole = run_batch(policy, SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert three_cores["started"] == three_cores["finished"] == [SHARD_TRIALS]
    monkeypatch.undo()
    again = run_batch(policy, SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert np.array_equal(whole.final, again.final)


def test_more_shards_than_cores_equal_one_walk(three_cores, monkeypatch):
    # 4 shards, 3 of them forked, on a machine of any size
    n, trials, family = 16, 4 * _MIN_SHARD + 5, barrier_family(16)
    monkeypatch.setattr(montecarlo, "_core_count", lambda: 4)
    whole = run_batch(fast_until_zero_policy(0.9), n, trials=trials, seed=SEED, family=family)
    assert_no_children()
    assert len(three_cores["forked"]) == 3
    monkeypatch.setattr(montecarlo, "_core_count", lambda: 1)
    one = run_batch(fast_until_zero_policy(0.9), n, trials=trials, seed=SEED, family=family)
    assert len(three_cores["forked"]) == 3
    assert np.array_equal(whole.final, one.final)
    assert np.array_equal(whole.entrances, one.entrances)


def test_sharded_batch_raises_the_shard_error(three_cores):
    # built directly: schedule_policy and constant_policy would reject the
    # second segment's stay probability, which exceeds the cap from step 8
    over = PolicySpec("constant", 0.5, {"u_value": 0.7})
    policy = PolicySpec("schedule", 0.5, {"segments": (
        ScheduleSegment(0, 8, constant_policy(0.5, 0.5)), ScheduleSegment(8, SHARD_N, over))})
    with pytest.raises(AdmissibilityError, match="at step 8"):
        run_batch(policy, SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert_no_children()
    assert three_cores["started"] == [SHARD_TRIALS // 2] and not three_cores["finished"]
    assert len(three_cores["forked"]) == 1


class Unloadable(Exception):
    def __init__(self, a, b):  # pickles as Unloadable(message), which does not load
        super().__init__(f"{a} {b}")


CHILD_ERRORS = {
    "pickled": lambda: AdmissibilityError("from the child"),
    "unpicklable": lambda: ValueError("from the child", lambda: None),
    "unloadable": lambda: Unloadable("from the", "child"),
}


@pytest.mark.parametrize("kind", sorted(CHILD_ERRORS))
def test_child_shard_error_reaches_the_caller(three_cores, monkeypatch, kind):
    # only the forked shard fails, so its exception must come through the pipe;
    # one that does not survive pickling arrives as a RuntimeError with its repr
    caller, stay = os.getpid(), montecarlo.stay_set

    def failing(policy, t, *args, **kwargs):
        if t == 3 and os.getpid() != caller:
            raise CHILD_ERRORS[kind]()
        return stay(policy, t, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "stay_set", failing)
    with pytest.raises(Exception) as info:
        run_batch(constant_policy(0.5, 0.5), SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert_no_children()
    if kind == "pickled":
        assert type(info.value) is AdmissibilityError and str(info.value) == "from the child"
    else:
        assert type(info.value) is RuntimeError
        assert str(info.value).startswith(f"shard 1 raised {type(CHILD_ERRORS[kind]()).__name__}(")
        assert "from the" in str(info.value)


def test_child_that_dies_without_a_report_fails_the_batch(three_cores, monkeypatch):
    # a shard killed outside Python leaves its half of the sites unwalked
    caller, stay = os.getpid(), montecarlo.stay_set

    def killed(policy, t, *args, **kwargs):
        if t == 3 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return stay(policy, t, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "stay_set", killed)
    with pytest.raises(RuntimeError, match="shard 1 ended with exit code -9 and no report"):
        run_batch(constant_policy(0.5, 0.5), SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert_no_children()


def test_interrupted_wait_stops_the_shards(three_cores, monkeypatch):
    # a Ctrl-C while the caller waits for a lagging shard stops that shard at
    # its next step instead of leaving it to walk to the end
    caller, stay, fork, reap = os.getpid(), montecarlo.stay_set, montecarlo._fork, montecarlo._reap
    stepped, lagged, go = shared_bytes(SHARD_N), shared_bytes(1), shared_bytes(1)

    def lagging(policy, t, *args, **kwargs):
        if os.getpid() != caller:
            stepped[t] = 1
            if t == 1:
                lagged[0] = 1
                wait_for(go)
        return stay(policy, t, *args, **kwargs)

    class Interrupted:
        """A report pipe whose read lands a Ctrl-C while shard 1 lags in its step 1."""

        def __init__(self, report):
            self.report = report

        def read(self):
            wait_for(lagged)
            raise KeyboardInterrupt

        def close(self):
            self.report.close()

    def interrupted_fork(shard, i):
        pid, report = fork(shard, i)
        return pid, Interrupted(report)

    def reap_after_go(children, stop):  # the stop byte is set by now
        go[0] = 1
        return reap(children, stop)

    monkeypatch.setattr(montecarlo, "stay_set", lagging)
    monkeypatch.setattr(montecarlo, "_fork", interrupted_fork)
    monkeypatch.setattr(montecarlo, "_reap", reap_after_go)
    with pytest.raises(KeyboardInterrupt):
        run_batch(constant_policy(0.5, 0.5), SHARD_N, trials=SHARD_TRIALS, seed=SEED)
    assert_no_children()
    assert np.flatnonzero(stepped).tolist() == [0, 1]
    assert three_cores["finished"] == [SHARD_TRIALS // 2]  # shard 0 alone ran out


def test_child_output_is_not_repeated():
    # a forked shard leaves through os._exit, so the caller's unflushed
    # stdout buffer, which the child inherits, is written once
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    code = (
        "import os\n"
        "from ctrlwalk import constant_policy, montecarlo\n"
        "montecarlo._core_count = lambda: 2\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('before the fork')\n"
        "b = montecarlo.run_batch(constant_policy(0.5, 0.5), 8, trials=2 * montecarlo._MIN_SHARD)\n"
        "print('forks', len(forks), 'trials', b.final.size)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # keep stdout buffered
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"before the fork\nforks 1 trials {2 * _MIN_SHARD}\n"


def test_family_horizon_checked_before_any_walk(three_cores):
    policy, family = constant_policy(0.5, 0.5), barrier_family(2 * SHARD_N)
    for call in (lambda: run_batch(policy, SHARD_N, trials=SHARD_TRIALS, family=family),
                 lambda: sample_path(policy, SHARD_N, family=family)):
        with pytest.raises(ParameterError, match=f"family horizon {2 * SHARD_N} != n={SHARD_N}"):
            call()
    assert three_cores["started"] == [] and three_cores["forked"] == []


DTYPE_N = 6


@pytest.mark.parametrize("start, dtype", [
    (32767 - DTYPE_N, np.int16), (32768 - DTYPE_N, np.int64),
    (DTYPE_N - 32767, np.int16), (DTYPE_N - 32768, np.int64),
])
def test_site_dtype_edge_matches_int64_walk(monkeypatch, start, dtype):
    # sites run as int16 while no walk can reach +-2^15; a table row around
    # the start takes the gather path of the stay rule
    rows = [((start - 2, start), (start + 2, start + 3))] * DTYPE_N
    policy, family = bang_bang_table_policy(0.5, DTYPE_N, rows), barrier_family(DTYPE_N)
    trials = 4096
    keys = trial_keys(SEED, trials)
    x = np.full(trials, start, dtype=np.int64)
    entr = np.full((trials, family.N0), -1, dtype=np.int64)
    for _ in montecarlo._walk(policy, DTYPE_N, x, keys, family, entr):
        pass
    walk, dtypes = montecarlo._walk, []

    def spy(policy, n, x, *args):
        dtypes.append(x.dtype)
        return walk(policy, n, x, *args)

    monkeypatch.setattr(montecarlo, "_walk", spy)
    batch = run_batch(policy, DTYPE_N, start=start, trials=trials, seed=SEED, family=family)
    assert dtypes == [dtype] and batch.final.dtype == np.int64
    assert np.abs(batch.final).max() == abs(start) + DTYPE_N  # some walk reached the edge
    assert np.array_equal(batch.final, x)
    assert np.array_equal(batch.entrances, entr)


def test_table_gather_on_int16_sites_past_int16_span():
    # an int16 site minus the low end of a wide site range leaves int16
    policy = bang_bang_table_policy(0.5, 1, [((-20000, -19990), (19990, 20000))])
    x = np.array([-20000, -19995, 0, 19995, 20000, 19989], dtype=np.int16)
    wheres = [stay_set(policy, 0, x.astype(dt), None, sites=(-20000, 20000))[1]
              for dt in (np.int16, np.int64)]
    assert wheres[0].tolist() == wheres[1].tolist() == [True, True, False, True, True, False]


# ---------------------------------------------------------------------------
# the integer step rule against the float rule at its boundaries


def unmix64(z: int) -> int:
    """Inverse of the finalizer: undo each xorshift and odd multiply."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK
    return unshift(z, 30)


def keys_drawing(bits, t):
    """Keys whose mixed bits at step t are exactly the given words."""
    return np.array([(unmix64(b) - (t + 1) * _STEP) & MASK for b in bits], dtype=np.uint64)


def words_around(v):
    """Words whose uniform equals v (when v is on the 2^-53 grid) or is one
    grid step either side, with low bits that the uniform drops."""
    m = math.ceil(v * 2.0**53)
    words = set()
    for r in (m - 1, m, m + 1):
        for low in (0, 1, 2047):
            words.add((r << 11) + low)
    return sorted(w for w in words if 0 <= w <= MASK)


CAP_EDGE = 1.0 - 2.0**-53  # u + (1-u)/2 rounds to 1.0
STAY_VALUES = (0.0, 2.0**-53, 3 * 2.0**-54, 1e-300, 0.25, 0.333, 0.5, 0.9, CAP_EDGE)


@pytest.mark.parametrize("u", STAY_VALUES)
def test_integer_thresholds_match_float_rule(u):
    down = u + (1.0 - u) * 0.5
    t = 17
    words = words_around(u) + words_around(down) + [0, MASK]
    keys = keys_drawing(words, t)
    r = step_uniforms(keys, t)
    assert [int(w) >> 11 for w in words] == [int(v) for v in r * 2.0**53]
    stay = r < u
    want_free = np.where(r < 0.5, -1, 1)
    want = np.where(stay, 0, np.where(r < down, -1, 1))
    where = np.arange(len(words)) % 2 == 0
    for mask, expect in ((None, want), (where, np.where(where, want, want_free))):
        x = np.zeros(len(words), dtype=np.int64)
        _advance(x, keys, t, u, mask, _buffers(keys, x.shape))
        assert np.array_equal(x, expect)


def test_up_bound_at_the_cap_edge():
    assert CAP_EDGE + (1.0 - CAP_EDGE) * 0.5 == 1.0
    stay_bound, up_bound = _step_bounds(CAP_EDGE)
    assert int(up_bound) == MASK  # no word moves up
    assert int(stay_bound) == (2**53 - 1) << 11
    assert _step_bounds(0.0) == (0, (1 << 63) - 1)


@pytest.mark.parametrize("u", [-0.1, 1.0, math.nan])
def test_stay_probability_outside_unit_interval_rejected(u):
    with pytest.raises(ParameterError):
        _step_bounds(u)
    with pytest.raises(ParameterError):
        lemma_ori_check(u, 1, 2, trials=10)
