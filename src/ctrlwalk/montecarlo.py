"""Trajectory sampling, hit-rate estimation, and barrier-entrance diagnostics.

Sampling is vectorized over trials with counter-based randomness: trial i,
step t always consumes the same uniform regardless of batch size or order,
so results are reproducible and shardable. One uniform drives each step:
[0, u) stays, [u, u + (1-u)/2) moves down, the rest moves up.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .defaults import MC_TRIALS
from .dp import as_target
from .errors import ParameterError, as_count, as_index, as_real
from .policies import PolicySpec, _check_cap, _rules, constant_policy, fast_until_zero_policy, run_args
from .rng import UNIFORM_SHIFT, step_bits, trial_keys


def wilson_interval(k: int, m: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) score interval for k successes out of m."""
    k, m = as_count(k, "k"), as_count(m, "m", 1)
    if k > m:
        raise ParameterError(f"need k <= m, got k={k}, m={m}")
    if not isinstance(z, numbers.Real) or not 0 < (z := as_real(z, "z")) < math.inf:
        raise ParameterError(f"z must be finite and > 0, got {z!r}")
    p = k / m
    z2 = z * z
    denom = 1.0 + z2 / m
    center = (p + z2 / (2 * m)) / denom
    half = z * math.sqrt(p * (1.0 - p) / m + z2 / (4 * m * m)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class BarrierFamily:
    """Nested space-time entrance sets over horizon n.

    Stage i (1-based) is the event |walk| <= radii[i-1] at a time in
    [band_starts[i-1], n]. Radii shrink by sqrt(2) per stage, to the nearest
    integer; bands cover the last 2^-i fraction of the horizon. N0 is the
    last stage whose unrounded radius still reaches the n^beta_exp window.
    """

    n: int
    beta_exp: float
    N0: int
    radii: tuple[int, ...]
    band_starts: tuple[int, ...]


def barrier_family(n: int, beta_exp: float = 0.0) -> BarrierFamily:
    n, beta_exp = as_count(n, "n", 2), as_real(beta_exp, "beta_exp")
    if beta_exp < 0:
        raise ParameterError("beta_exp must be >= 0")
    window = float(n) ** beta_exp
    N0 = 0
    while math.sqrt(n / 2.0 ** (N0 + 1)) >= window:
        N0 += 1
    if N0 < 1:
        raise ParameterError(
            f"degenerate family: sqrt(n/2) = {math.sqrt(n / 2):.3g} below window {window:.3g}"
        )
    radii = tuple(int(math.floor(math.sqrt(n / 2.0**i) + 0.5)) for i in range(1, N0 + 1))
    band_starts = tuple(n - (n >> i) for i in range(1, N0 + 1))
    return BarrierFamily(n=n, beta_exp=beta_exp, N0=N0, radii=radii, band_starts=band_starts)


@dataclass(frozen=True)
class TrajectoryBatch:
    """Per-trial terminal sites (and stage entrance times when tracked)."""

    policy: PolicySpec
    n: int
    start: int
    trials: int
    seed: int
    final: np.ndarray
    entrances: np.ndarray | None = None
    family: BarrierFamily | None = None


def _step_bounds(u: float) -> tuple[np.uint64, np.uint64]:
    """The step rule's two thresholds as bounds on a step's mixed bits z.

    The uniform r = (z >> 11) * 2^-53 is a multiple of 2^-53, and v * 2^53
    is exact, so r >= v exactly when z >= ceil(v * 2^53) << 11. The walk
    stays iff z < stay_bound (r < u) and moves up iff z > up_bound
    (r >= u + (1-u)/2, that sum rounded as a float). The sum can round to
    1.0, whose up_bound is 2^64 - 1: no up step at all.
    """
    u = float(u)
    if not 0.0 <= u < 1.0:
        raise ParameterError(f"stay probability must lie in [0, 1), got {u}")
    down = u + (1.0 - u) * 0.5
    return (
        np.uint64(math.ceil(u * 2.0**53) << UNIFORM_SHIFT),
        np.uint64((math.ceil(down * 2.0**53) << UNIFORM_SHIFT) - 1),
    )


_FREE_UP = _step_bounds(0.0)[1]


def _buffers(keys: np.ndarray, shape) -> tuple:
    """Work arrays for _advance over walks of the given shape, made once per batch."""
    return (np.empty_like(keys),) + tuple(np.empty(shape, dtype=bool) for _ in range(3))


def _advance(x: np.ndarray, keys: np.ndarray, t: int, u: float, where, buf) -> None:
    """Step every walk in x once, in place: the module's one step rule.

    Walk j draws the bits of keys[j] at step t (keys broadcast against x).
    Its stay probability is u where the mask `where` holds, or everywhere
    when it is None, and 0 elsewhere. buf comes from _buffers.
    """
    z, stay, up, free_up = buf
    step_bits(keys, t, z)
    stay_bound, up_bound = _step_bounds(u)
    np.less(z, stay_bound, out=stay)
    np.greater(z, up_bound, out=up)
    if where is not None:
        # walks outside `where` step by the u = 0 rule; its up set contains
        # the capped one, so up = free_up ^ (where & (free_up ^ up)), which
        # stays branch-free on irregular masks
        stay &= where
        np.greater(z, _FREE_UP, out=free_up)
        up ^= free_up
        up &= where
        up ^= free_up
    # move = 2*up + stay - 1 (up +1, down -1, stay 0), formed in up's bytes
    move = up.view(np.int8)
    move += move
    move += stay.view(np.int8)
    move -= 1
    x += move


def _stay_sites(intervals, lo: int, hi: int):
    """A stay rule's sites (its intervals, None for every site) in the form
    _stay_where reads for walks on [lo, hi]: None, the halfwidth h of one
    band |x| <= h, or (lo, row) with row[x - lo] set where x may stay."""
    if intervals is None:
        return None
    if len(intervals) == 1 and intervals[0][0] == -intervals[0][1]:
        return intervals[0][1]
    # the stay region can hold O(n) intervals (parity combs), so mark
    # interval edges over [lo, hi] and cumsum them into a dense row
    iv = np.array(intervals, dtype=np.int64).reshape(-1, 2)
    a, b = np.maximum(iv[:, 0], lo), np.minimum(iv[:, 1], hi)
    keep = a <= b
    edges = np.zeros(hi - lo + 2, dtype=np.int8)
    edges[a[keep] - lo] = 1
    edges[b[keep] - lo + 1] -= 1  # after the starts: an interval may end where the next begins
    return lo, np.cumsum(edges, dtype=np.int8).view(bool)


def _stay_where(sites, x: np.ndarray, flag=None):
    """The `where` mask of _advance for walks at x: those on the _stay_sites
    sites and, given the visited-0 flags (a hit_only rule), flagged."""
    if sites is None:
        return flag
    if isinstance(sites, tuple):
        where = np.take(sites[1], np.subtract(x, sites[0], dtype=np.intp))  # x may be int16
    else:
        where = np.abs(x) <= sites  # one compare: far cheaper than a gather
    return where if flag is None else where & flag


def _walk(policy: PolicySpec, n: int, x: np.ndarray, keys: np.ndarray, family=None, entr=None,
          counts=None):
    """Step the caller's integer sites x n times in place: the one step loop.

    Walk j draws the bits of keys[j], keys broadcast against x. As in
    dp._forward, each policies._rules range draws its stay rule once and
    holds it, as _stay_sites, to the range's end. A fast-until-zero range
    sets the visited-0 flags to x == 0 where it starts (at step 0 the initial
    flags, later a reset). After each step this yields the flags, None until
    the first fast-until-zero range. Given a family (x then 1-D), barrier
    tracking keeps each walk's next stage (0-based, so the number of stages
    entered) and that stage's radius, -1 until the stage's band opens, and
    updates only the walks that enter. A stage is entered only after the one
    before it, at most one per step, so the stages a walk entered by any time
    are a prefix 1..k of the cascade and the count k tells them all. The
    caller's int8 (2, size) counts, if given, get each walk's count after
    step n - 1 (row 0: the strict entries) and after step n (row 1), and
    the caller's int64 entrance table entr, if given, the entrance times.
    """
    buf, flag = _buffers(keys, x.shape), None
    lo, hi = int(x.min()), int(x.max())
    rules, end = _rules(policy, 0, n), 0  # end: where the current rule's range ends

    if family is not None:
        # pads: past the last stage a walk's radius stays -1 and no band opens
        rad = np.array(family.radii + (-1,), dtype=x.dtype)
        bs = np.array(family.band_starts + (n + 1,), dtype=np.int64)
        first, opens = family.band_starts[0], {b: k for k, b in enumerate(family.band_starts)}
        strict, stage = np.empty((2, x.size), dtype=np.int8) if counts is None else counts
        stage.fill(0)
        radius = np.full(x.size, -1, dtype=x.dtype)

    for t in range(n):
        if t == end:  # the rule holds to the range's end, and walks move one site a step
            _, end, u, hit_only, intervals = next(rules)
            sites = _stay_sites(intervals, lo - end + 1, hi + end - 1)
            if hit_only:
                flag = x == 0
        _advance(x, keys, t, u, _stay_where(sites, x, flag if hit_only else None), buf)
        if flag is not None:
            flag |= x == 0
        if family is not None and t + 1 >= first:  # first <= n - 1, as n >= 2
            if t + 1 in opens:
                k = opens[t + 1]
                radius[stage == k] = rad[k]
            idx = np.flatnonzero(np.abs(x) <= radius)
            if idx.size:
                k = stage[idx]
                if entr is not None:
                    entr[idx, k] = t + 1
                stage[idx] = k + 1
                radius[idx] = np.where(bs[k + 1] <= t + 1, rad[k + 1], -1)
            if t + 2 == n:
                strict[...] = stage
        yield flag


# trials a shard must step at least. Set when shards were threads, which
# contended for the GIL: on 2 cores, 2 threads of 16-25K trials were no faster
# than one walk. Forked shards of 4,096 trials already beat one walk there
# (1,024 steps), so the bound is conservative; CLI-sized batches stay unsplit.
_MIN_SHARD = 32768


def _core_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fork_cores() -> int:
    """The cores shards may use: _core_count(), or 1 where there is no fork."""
    return _core_count() if hasattr(os, "fork") else 1


def _outcome(shard, i: int) -> tuple:
    """(shard(i), None), or (None, the exception it raised)."""
    try:
        return shard(i), None
    except BaseException as exc:  # raised by the caller after every child is reaped
        return None, exc


def _fork(shard, i: int):
    """Run shard(i) in a forked child: (pid, read end of the pipe that carries its report).

    The report is _outcome(shard, i) pickled; one that does not survive
    pickling goes as a RuntimeError with its repr. The child leaves through
    os._exit: no atexit handler runs and no inherited stdio buffer is flushed
    a second time.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            result, exc = _outcome(shard, i)
            try:
                data = pickle.dumps((result, exc))
                pickle.loads(data)
            except BaseException:
                what = f"raised {exc!r}" if exc is not None else f"returned {result!r}"
                data = pickle.dumps((None, RuntimeError(f"shard {i} {what}")))
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _reap(children, stop) -> list[int]:
    """Wait for every child and return their exit codes.

    A Ctrl-C meanwhile sets the stop byte and the wait goes on; the first
    such interrupt is raised after the last child is reaped.
    """
    codes, interrupt = [], None
    for pid, report in children:
        report.close()  # a child still writing its report gets EPIPE rather than block
        while True:
            try:
                codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                break
            except ChildProcessError:  # reaped already
                codes.append(0)
                break
            except KeyboardInterrupt as exc:
                stop[0] = 1
                interrupt = interrupt or exc
    if interrupt is not None:
        raise interrupt
    return codes


def _in_shards(shard, k: int, stop) -> list:
    """[shard(0), ..., shard(k - 1)], shard 0 in this process and the rest in
    forked children (_fork), so each returns a picklable result.

    Any exception here (a Ctrl-C, or a report that does not load) sets
    stop[0], the byte shards may poll. Every child is reaped before the
    lowest shard's exception is raised.
    """
    children = []
    try:
        for i in range(1, k):
            children.append(_fork(shard, i))
        reports = [_outcome(shard, 0)] + [pickle.loads(data) if (data := report.read()) else None
                                          for _, report in children]
    except BaseException:
        stop[0] = 1
        raise
    finally:
        codes = _reap(children, stop)
    for i, code in enumerate(codes, 1):
        if reports[i] is None:
            reports[i] = None, RuntimeError(f"shard {i} ended with exit code {code} and no report")
    for _, exc in reports:
        if exc is not None:
            raise exc
    return [result for result, _ in reports]


def _stages(family: BarrierFamily | None, n: int) -> int:
    """Stages a walk of n steps tracks: the family's N0, 0 without one."""
    if family is None:
        return 0
    if family.n != n:
        raise ParameterError(f"family horizon {family.n} != n={n}")
    return family.N0


def _run_shards(policy: PolicySpec, n: int, start: int, trials: int, seed: int, family,
                trial_base: int = 0, table: bool = True) -> tuple:
    """_walk over `trials` walks from start, in one contiguous shard per core
    (_in_shards): (n, start, sites, tracking), n and start as run_args reads
    them. Given a family, tracking is the int64 (trials, N0) entrance table
    when table is set and _walk's int8 (2, trials) stage counts otherwise;
    it is None without a family.

    Shards 1..k-1 run in forked children, so the sites and the tracking live
    in one anonymous shared mapping, and each shard writes its own views of
    it. Walks never interact and each draws from its own key, so every
    shard's sites and tracking are bitwise those of one unsplit walk. The
    returned arrays are views of the mapping. One shared stop byte, read by
    every shard once per step, is set by a failing shard and by this
    process on any exception.
    """
    trials = as_count(trials, "trials", 1)
    keys = trial_keys(seed, trials, base=trial_base)
    n, start = run_args(policy, n, start)
    stages = _stages(family, n)
    cols, rows = (stages, 0) if table else (0, 2 * bool(stages))
    # int16 sites when no walk can leave (-2^15, 2^15); the int64 table goes first, aligned
    dtype = np.dtype(np.int16 if abs(start) + n < 2**15 else np.int64)
    shared = mmap.mmap(-1, trials * (8 * cols + dtype.itemsize + rows))
    entr = np.frombuffer(shared, dtype=np.int64, count=trials * cols).reshape(trials, cols)
    x = np.frombuffer(shared, dtype=dtype, count=trials, offset=entr.nbytes)
    counts = np.frombuffer(shared, dtype=np.int8, count=trials * rows,
                           offset=entr.nbytes + x.nbytes).reshape(rows, trials)
    entr.fill(-1)
    x.fill(start)
    k = max(1, min(_fork_cores(), trials // _MIN_SHARD))
    cuts = [trials * i // k for i in range(k + 1)]
    stop = np.frombuffer(mmap.mmap(-1, 1), dtype=np.uint8)

    def drive(i):
        a, b = cuts[i], cuts[i + 1]
        tracking = (entr[a:b], None) if table else (None, counts[:, a:b])
        try:
            for _ in _walk(policy, n, x[a:b], keys[a:b], family, *tracking):
                if stop[0]:
                    break
        except BaseException:
            stop[0] = 1
            raise

    _in_shards(drive, k, stop)
    return n, start, x, None if family is None else entr if table else counts


def run_batch(
    policy: PolicySpec,
    n: int,
    start: int = 0,
    trials: int = 1,
    seed: int = 0,
    family: BarrierFamily | None = None,
    trial_base: int = 0,
) -> TrajectoryBatch:
    """Simulate `trials` walks for n steps; track barrier entrances if asked.

    Entrance times follow the strict chain rule: stage i can only be entered
    after stage i-1, at most one stage per time step, never at t=0. A -1 in
    the entrance table means the stage was not reached by time n. Large
    batches run one contiguous shard of trials per core, in forked
    processes, with results bitwise equal to a single-process run. `final`
    and `entrances` are copies this batch owns, so a process forked later
    shares neither with the shards' mapping.
    """
    n, start, x, entr = _run_shards(policy, n, start, trials, seed, family, trial_base)
    return TrajectoryBatch(policy=policy, n=n, start=start, trials=x.size, seed=seed,
                           final=x.astype(np.int64), family=family,
                           entrances=None if entr is None else entr.copy())


def sample_path(
    policy: PolicySpec,
    n: int,
    start: int = 0,
    seed: int = 0,
    trial: int = 0,
    family: BarrierFamily | None = None,
):
    """One trajectory, step for step the same as trial `trial` of a batch.

    Returns (path, entrance_times); entrance_times is None unless a family
    is supplied, else an array with -1 for stages not reached by time n.
    """
    keys = trial_keys(seed, 1, base=trial)
    n, start = run_args(policy, n, start)
    x = np.full(1, start, dtype=np.int64)
    path = np.full(n + 1, start, dtype=np.int64)
    entr = None if family is None else np.full((1, _stages(family, n)), -1, dtype=np.int64)
    for t, _ in enumerate(_walk(policy, n, x, keys, family, entr), 1):
        path[t] = x[0]
    return path, None if entr is None else entr[0]


@dataclass(frozen=True)
class HitEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    hits: int
    trials: int


def hit_estimate(final: np.ndarray, lo: int, hi: int) -> HitEstimate:
    """Share of final positions in [lo, hi], with its Wilson interval; bounds
    that do not make a target (as_target) raise ParameterError."""
    lo, hi = as_target((lo, hi))
    hits, trials = int(np.count_nonzero((final >= lo) & (final <= hi))), final.size
    ci_low, ci_high = wilson_interval(hits, trials)
    return HitEstimate(p_hat=hits / trials, ci_low=ci_low, ci_high=ci_high, hits=hits, trials=trials)


def estimate_hit(
    policy: PolicySpec, n: int, start: int = 0, target=None, trials: int = MC_TRIALS, seed: int = 0
) -> HitEstimate:
    lo, hi = as_target(target)
    return hit_estimate(run_batch(policy, n, start=start, trials=trials, seed=seed).final, lo, hi)


@dataclass(frozen=True)
class StageStats:
    """Entrance counts and escape frequencies for one barrier batch."""

    n: int
    beta_exp: float
    trials: int
    N0: int
    radii: tuple[int, ...]
    band_starts: tuple[int, ...]
    entered_strict: tuple[int, ...]  # per stage, trials with entrance time < n
    entered_by_n: tuple[int, ...]  # per stage, entrance time <= n
    cond_escape: tuple  # per stage i<N0: (frequency of no stage-(i+1) entry < n, ci_low, ci_high)
    min_cond_escape: float | None
    final_at_zero: int
    final_in_window: int
    violations_exact: int  # S_n = 0 but last stage never entered
    violations_window: int  # |S_n| <= n^beta but last stage never entered


def barrier_diagnostics(
    policy: PolicySpec,
    n: int,
    beta_exp: float = 0.0,
    trials: int = MC_TRIALS,
    seed: int = 0,
    start: int = 0,
) -> StageStats:
    """Entrance counts of the barrier cascade over `trials` walks, and the
    returns to 0 (or to the n^beta_exp window) that skipped its last stage.

    The counts come from _walk's per-walk stage counts, and no entrance
    table is built. A stage is entered only after the one before it, so the
    stages a walk entered by a time are a prefix of the cascade: with
    k_strict its count after step n - 1 and k_by_n after step n, stage i
    (0-based) was entered before n by #(k_strict > i) walks and by n by
    #(k_by_n > i), the walks that entered it but not stage i + 1 before n
    number #(k_strict == i + 1), and the last stage was never entered where
    k_by_n < N0.
    """
    family = barrier_family(n, beta_exp)
    _, _, x, (k_strict, k_by_n) = _run_shards(policy, n, start, trials, seed, family, table=False)
    N0 = family.N0
    # walks by stages entered, 0..N0; the suffix sum from i + 1 counts those past stage i
    strict, by_n = (np.bincount(k, minlength=N0 + 1) for k in (k_strict, k_by_n))
    entered_strict, entered_by_n = (tuple(int(m) for m in c[::-1].cumsum()[-2::-1])
                                    for c in (strict, by_n))

    cond = []
    min_escape = None
    for i in range(N0 - 1):
        m = entered_strict[i]
        if m == 0:
            cond.append((None, None, None))
            continue
        stopped = int(strict[i + 1])
        lo, hi = wilson_interval(stopped, m)
        f = stopped / m
        cond.append((f, lo, hi))
        min_escape = f if min_escape is None else min(min_escape, f)

    window = float(n) ** beta_exp
    in_window = np.abs(x) <= window
    at_zero = x == 0
    never_last = k_by_n < N0

    return StageStats(
        n=n,
        beta_exp=beta_exp,
        trials=trials,
        N0=family.N0,
        radii=family.radii,
        band_starts=family.band_starts,
        entered_strict=entered_strict,
        entered_by_n=entered_by_n,
        cond_escape=tuple(cond),
        min_cond_escape=min_escape,
        final_at_zero=int(np.count_nonzero(at_zero)),
        final_in_window=int(np.count_nonzero(in_window)),
        violations_exact=int(np.count_nonzero(at_zero & never_last)),
        violations_window=int(np.count_nonzero(in_window & never_last)),
    )


@dataclass(frozen=True)
class EscapeProbeResult:
    q_cap: float
    h: int
    delta: float
    ell: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    hits: int
    stopped_within: int
    threshold: float
    violation: bool


def lemma0_check(
    q_cap: float, h: int, delta: float, ell: int, trials: int = MC_TRIALS, seed: int = 0
) -> EscapeProbeResult:
    """Estimate the chance the lazy walk's first |.| >= h exit is upward and early.

    The probed event is {M_tau >= h, tau <= ell} with tau the first time
    |M| >= h under the constant-q_cap walk. Parameters must satisfy
    ell >= 24*h^2/delta and 1 - q_cap >= delta, which is the regime where
    the estimate should stay above 1/6.
    """
    q_cap, h, ell = _check_cap(q_cap), as_count(h, "h", 1), as_index(ell, "ell")
    delta, trials = as_real(delta, "delta"), as_count(trials, "trials", 1)
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    if ell < 24.0 * h * h / delta:
        raise ParameterError(
            f"horizon too short: ell={ell} violates ell >= 24*h^2/delta = {24.0 * h * h / delta:g}"
        )
    # slack of a few ulps so decimal inputs like q=0.9, delta=0.1 pass
    if 1.0 - q_cap < delta - 1e-12:
        raise ParameterError(
            f"variance floor broken: need 1 - q_cap >= delta, got 1-q_cap={1.0 - q_cap:g}"
        )

    keys = trial_keys(seed, trials)
    x = np.zeros(trials, dtype=np.int64)
    stopped = np.zeros(trials, dtype=bool)
    hit_top = np.zeros(trials, dtype=bool)
    # stopped walks keep moving: only a walk's site at its stopping time is read
    for _ in _walk(constant_policy(q_cap, q_cap), ell, x, keys):
        newly = ~stopped & (np.abs(x) >= h)
        hit_top |= newly & (x >= h)
        stopped |= newly
        if stopped.all():
            break

    hits = int(np.count_nonzero(hit_top))
    ci_low, ci_high = wilson_interval(hits, trials)
    return EscapeProbeResult(
        q_cap=q_cap,
        h=h,
        delta=delta,
        ell=ell,
        trials=trials,
        estimate=hits / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        hits=hits,
        stopped_within=int(np.count_nonzero(stopped)),
        threshold=1.0 / 6.0,
        violation=ci_high < 1.0 / 6.0,
    )


@dataclass(frozen=True)
class ReturnProbeResult:
    q_cap: float
    A: int
    K: int
    trials: int
    starts: tuple[int, ...]
    contain: tuple[float, ...]  # per start, frequency of |S_horizon| <= K
    no_hit: tuple[float, ...]  # per start, frequency of never reaching 0
    band_exit: tuple[float, ...]  # per start, frequency of |S| >= K after reaching 0
    min_contain: float
    worst_start: int
    ci_low: float
    ci_high: float


def lemma_ori_check(
    q_cap: float, A: int, K: int, trials: int = 2000, seed: int = 0
) -> ReturnProbeResult:
    """Containment of the free-then-lazy walk, worst case over starts in [-2K, 2K].

    All starts share one stream of uniforms (common random numbers), so
    per-start curves are directly comparable. Besides terminal containment
    in [-K, K] after A*K^2 steps, the two failure channels are reported
    separately: never reaching 0 at all, and drifting back out to |x| >= K
    after reaching it.
    """
    q_cap, A, K = _check_cap(q_cap), as_count(A, "A", 1), as_count(K, "K", 1)
    trials = as_count(trials, "trials", 1)
    steps = A * K * K
    starts = np.arange(-2 * K, 2 * K + 1, dtype=np.int64)

    keys = trial_keys(seed, trials)
    x = np.repeat(starts[:, None], trials, axis=1)
    exited = np.zeros(x.shape, dtype=bool)
    for flag in _walk(fast_until_zero_policy(q_cap), steps, x, keys):
        exited |= flag & (np.abs(x) >= K)

    contain = (np.abs(x) <= K).mean(axis=1)
    no_hit = (~flag).mean(axis=1)
    band_exit = exited.mean(axis=1)
    worst = int(np.argmin(contain))
    k_worst = int(round(contain[worst] * trials))
    ci_low, ci_high = wilson_interval(k_worst, trials)
    return ReturnProbeResult(
        q_cap=q_cap,
        A=A,
        K=K,
        trials=trials,
        starts=tuple(int(s) for s in starts),
        contain=tuple(float(c) for c in contain),
        no_hit=tuple(float(c) for c in no_hit),
        band_exit=tuple(float(c) for c in band_exit),
        min_contain=float(contain[worst]),
        worst_start=int(starts[worst]),
        ci_low=ci_low,
        ci_high=ci_high,
    )
