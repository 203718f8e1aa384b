"""Control policies: constant, zone-based, history-triggered, and schedules.

A policy maps (t, x, flag) to a stay probability in [0, q_cap]. The flag is
the one-bit visited-0 summary carried by the lattice distributions; only the
fast-until-zero kind reads it. Multiscale schedules glue these pieces over a
finite horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AdmissibilityError, DegenerateScheduleError, ParameterError, as_count, as_index, as_real

CONSTANT = "constant"
TWO_ZONE = "two-zone"
FAST_UNTIL_ZERO = "fast-until-zero"
SCHEDULE = "schedule"
BANG_BANG_TABLE = "bang-bang-table"


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    q_cap: float
    params: dict

    def __repr__(self):
        keys = {k: v for k, v in self.params.items() if k not in ("segments", "rows")}
        return f"PolicySpec({self.kind}, q_cap={self.q_cap}, {keys})"


@dataclass(frozen=True)
class ScheduleSegment:
    """Half-open step range [t_start, t_end) driven by one inner policy."""

    t_start: int
    t_end: int
    inner_policy: PolicySpec


def _check_cap(q_cap: float) -> float:
    q_cap = as_real(q_cap, "q_cap")
    if not (0.0 <= q_cap < 1.0):
        raise ParameterError(f"q_cap must lie in [0, 1), got {q_cap}")
    return q_cap


def constant_policy(q_cap: float, u_value: float) -> PolicySpec:
    """Same stay probability everywhere. u_value=0 is the simple walk."""
    q_cap = _check_cap(q_cap)
    u_value = as_real(u_value, "u_value")
    if not (0.0 <= u_value <= q_cap):
        raise AdmissibilityError(f"u_value {u_value} escapes [0, {q_cap}]")
    return PolicySpec(CONSTANT, q_cap, {"u_value": u_value})


def two_zone_policy(q_cap: float, band_halfwidth: int) -> PolicySpec:
    """Slow (u=q_cap) at |x| <= band_halfwidth, free (u=0) outside."""
    q_cap = _check_cap(q_cap)
    band = as_count(band_halfwidth, "band_halfwidth")
    return PolicySpec(TWO_ZONE, q_cap, {"band_halfwidth": band})


def fast_until_zero_policy(q_cap: float) -> PolicySpec:
    """Free until the walk first reaches site 0, then lazy at q_cap forever."""
    q_cap = _check_cap(q_cap)
    return PolicySpec(FAST_UNTIL_ZERO, q_cap, {})


def schedule_policy(q_cap: float, segments: Sequence[ScheduleSegment]) -> PolicySpec:
    """Wrap a segment list into one policy over [0, t_end_of_last).

    Integer segment ranges tile it in order. A schedule nested in a segment
    keeps the outer step times and rules only within that segment.
    """
    q_cap = _check_cap(q_cap)
    segs, prev_end = [], 0
    for seg in segments:
        t0, t1 = as_index(seg.t_start, "t_start"), as_index(seg.t_end, "t_end")
        if t0 != prev_end:
            raise DegenerateScheduleError(f"segment starts at t={t0}, expected {prev_end}")
        if t1 <= t0:
            raise DegenerateScheduleError(f"empty segment [{t0}, {t1})")
        if seg.inner_policy.q_cap > q_cap:
            raise AdmissibilityError("inner policy exceeds the schedule cap")
        segs.append(ScheduleSegment(t0, t1, seg.inner_policy))
        prev_end = t1
    if not segs:
        raise DegenerateScheduleError("empty schedule")
    return PolicySpec(SCHEDULE, q_cap, {"segments": tuple(segs)})


def bang_bang_table_policy(q_cap: float, n: int, rows: Sequence[Sequence[tuple]]) -> PolicySpec:
    """Space-time table: rows[t] lists inclusive site intervals where u=q_cap.

    Intervals must be sorted and disjoint; everything else gets u=0. This is
    the output format of the exact optimizer.
    """
    q_cap = _check_cap(q_cap)
    n = as_count(n, "n", 1)
    if len(rows) != n:
        raise ParameterError(f"need one interval row per step, got {len(rows)} for n={n}")
    frozen_rows = []
    for t, row in enumerate(rows):
        prev = None
        clean = []
        for a, b in row:
            a, b = as_index(a, "interval end"), as_index(b, "interval end")
            if a > b or (prev is not None and a <= prev):
                raise ParameterError(f"row {t} intervals not sorted/disjoint")
            clean.append((a, b))
            prev = b
        frozen_rows.append(tuple(clean))
    return PolicySpec(BANG_BANG_TABLE, q_cap, {"n": n, "rows": tuple(frozen_rows)})


def multiscale_localization_schedule(
    q_cap: float, alpha: float, beta: float, K0: int, T: int
) -> list[ScheduleSegment]:
    """Coarse-to-fine squeezing toward 0 over horizon T.

    The number of scales L is the largest integer with K0^2 * beta^(-2L) <= T.
    Phase [0, T_L) is constant-lazy at q_cap; phase [T_ell, T_{ell-1}) runs a
    two-zone policy whose band is the next-finer scale, floor(K0*beta^(1-ell)),
    with T_ell = floor(T - alpha*K0^2*sum_{i=1..ell} beta^(-2i)) and T_0 = T.
    Rounding slack lands in the earliest (longest) phase.
    """
    q_cap = _check_cap(q_cap)
    alpha, beta = as_real(alpha, "alpha"), as_real(beta, "beta")
    K0, T = as_count(K0, "K0", 1), as_index(T, "T")
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if not alpha > 0:  # NaN fails too
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if T <= alpha * K0 * K0:
        raise ParameterError(f"horizon {T} too short: need T > alpha*K0^2")

    inv2 = (1.0 / beta) ** 2
    L = 0
    while K0 * K0 * inv2 ** (L + 1) <= T:
        L += 1
    if L < 1:
        raise DegenerateScheduleError(
            f"no usable scales: K0^2/beta^2 = {K0 * K0 * inv2:g} already exceeds T={T}"
        )

    breakpoints = [T]  # breakpoints[ell] = T_ell
    acc = 0.0
    for ell in range(1, L + 1):
        acc += inv2**ell
        breakpoints.append(math.floor(T - alpha * K0 * K0 * acc))
    if breakpoints[L] <= 0:
        raise DegenerateScheduleError(
            f"finest phase starts at T_{L}={breakpoints[L]} <= 0; lower alpha or L"
        )

    segments = [ScheduleSegment(0, breakpoints[L], constant_policy(q_cap, q_cap))]
    for ell in range(L, 0, -1):
        t0, t1 = breakpoints[ell], breakpoints[ell - 1]
        if t0 >= t1:
            continue
        band = math.floor(K0 * beta ** (1 - ell))
        segments.append(ScheduleSegment(t0, t1, two_zone_policy(q_cap, band)))
    return segments


def multiscale_qto1_schedule(q_cap: float, A: int, n: int) -> list[ScheduleSegment]:
    """Fine-to-coarse return schedule for very lazy caps over horizon n.

    L is the largest integer with A*4^L <= n. Working back from the end,
    phase ell covers [T_ell, T_{ell-1}) with T_ell = n - A*(4 + ... + 4^ell+1)
    summed geometrically and clamped at 0, T_{-1} = n; each phase runs free
    until hitting 0 and then stays lazy at q_cap. Any steps before the last
    phase that reaches time 0 form a free (u=0) prefix.
    """
    q_cap = _check_cap(q_cap)
    A, n = as_count(A, "A", 1), as_index(n, "n")
    if n <= A:
        raise DegenerateScheduleError(f"horizon n={n} must exceed A={A}")

    L = 0
    while A * 4 ** (L + 1) <= n:
        L += 1

    # T_ell for ell = 0..L, exact integers, truncated at 0
    breakpoints = [max(n - A * (4 ** (ell + 1) - 1) // 3, 0) for ell in range(L + 1)]

    segments = []
    if breakpoints[L] > 0:
        segments.append(ScheduleSegment(0, breakpoints[L], constant_policy(q_cap, 0.0)))
    for ell in range(L, -1, -1):  # A*4^ell <= n, so T_ell < T_{ell-1}: no phase is empty
        t1 = breakpoints[ell - 1] if ell > 0 else n
        segments.append(ScheduleSegment(breakpoints[ell], t1, fast_until_zero_policy(q_cap)))
    return segments


def horizon(policy: PolicySpec) -> int | None:
    """Last valid step + 1 for finite-horizon kinds, None for homogeneous ones."""
    if policy.kind == SCHEDULE:
        return policy.params["segments"][-1].t_end
    if policy.kind == BANG_BANG_TABLE:
        return policy.params["n"]
    return None


def _leaves(policy: PolicySpec, t0: int, t1: int):
    """Yield (a, b, leaf) in time order for each step range [a, b) of [t0, t1)
    that one segment's non-schedule policy, the leaf, rules. A nested schedule
    is resolved in the outer times, clipped to its segment. A range outside
    a schedule's horizon yields that schedule, which _stay_region refuses.
    """
    if policy.kind != SCHEDULE:
        if t0 < t1:
            yield t0, t1, policy
        return
    segs = policy.params["segments"]
    if t0 < min(0, t1):
        yield t0, min(0, t1), policy
    for seg in segs:
        a, b = max(seg.t_start, t0), min(seg.t_end, t1)
        if a < b:
            yield from _leaves(seg.inner_policy, a, b)
    if segs[-1].t_end < t1:
        yield max(segs[-1].t_end, t0), t1, policy


def flag_reset_times(policy: PolicySpec) -> tuple[int, ...]:
    """Times at which evolution drivers must restart the visited-0 flag.

    A fast-until-zero leaf of a schedule, nested or not, measures hitting
    times from the step where it takes over, so the flag is reset there
    (t=0 needs none: fresh distributions already carry correct flags).
    """
    leaves = _leaves(policy, 0, horizon(policy) or 1)
    return tuple(a for a, _, leaf in leaves if leaf.kind == FAST_UNTIL_ZERO and a > 0)


def rule_change_times(policy: PolicySpec, t0: int, t1: int) -> list[int]:
    """The steps t in [t0, t1) at which _stay_region may give another rule than at t - 1.

    The start of each range that one leaf policy rules (see _leaves; past a
    horizon, where _stay_region raises, too) and every step of a bang-bang
    table. Every flag reset before t1 is among them.
    """
    return [t for a, b, leaf in _leaves(policy, t0, t1)
            for t in (range(a, b) if leaf.kind == BANG_BANG_TABLE else (a,))]


def mirror_symmetric(policy: PolicySpec) -> bool:
    """Whether the stay rule at every step is unchanged by x -> -x.

    Every leaf must be: constant, two-zone and fast-until-zero rules are,
    and a bang-bang table when each row it rules equals its mirror image.
    """
    def symmetric(a, b, leaf):
        if leaf.kind == BANG_BANG_TABLE:
            return all(row == tuple((-y, -x) for x, y in reversed(row))
                       for row in leaf.params["rows"][a:b])
        return leaf.kind in (CONSTANT, TWO_ZONE, FAST_UNTIL_ZERO)

    return all(symmetric(*piece) for piece in _leaves(policy, 0, horizon(policy) or 1))


def run_args(policy: PolicySpec, n, start) -> tuple[int, int]:
    """(n, start) as ints for a run of n steps under the policy, else ParameterError."""
    n, start = as_count(n, "n"), as_index(start, "start")
    hz = horizon(policy)
    if hz is not None and hz < n:
        raise ParameterError(f"policy horizon {hz} shorter than n={n}")
    return n, start


def _stay_region(policy: PolicySpec, t: int):
    """The stay rule of every kind at step t: (u, hit_only, intervals).

    The stay probability is u on the sorted inclusive site intervals
    (None: every site), only in the HIT_ZERO row when hit_only, and 0
    elsewhere. Schedules resolve to the leaf that rules step t (_leaves). A t
    past a horizon or a u outside [0, min(q_cap, 1)] raises, for every engine.
    """
    _, _, inner = next(_leaves(policy, t, t + 1))
    hz = horizon(inner)
    if hz is not None and not 0 <= t < hz:
        raise ParameterError(f"step {t} outside policy horizon [0, {hz})")
    kind, u = inner.kind, inner.q_cap
    hit_only, intervals = kind == FAST_UNTIL_ZERO, None
    if kind == CONSTANT:
        u = inner.params["u_value"]
    elif kind == TWO_ZONE:
        intervals = ((-inner.params["band_halfwidth"], inner.params["band_halfwidth"]),)
    elif kind == BANG_BANG_TABLE:
        intervals = inner.params["rows"][t]
    elif kind != FAST_UNTIL_ZERO:
        raise ParameterError(f"unknown policy kind {kind!r}")
    if not 0 <= u <= min(policy.q_cap, 1.0):  # NaN fails too
        raise AdmissibilityError(f"control value {u} escapes [0, {policy.q_cap}] at step {t}")
    return u, hit_only, intervals


def stay_set(policy: PolicySpec, t: int, x: np.ndarray, flag: np.ndarray, sites=None):
    """The stay rule at step t for samplers, as the set of trials that may stay.

    Returns (u, where): the stay probability is u where the boolean mask
    `where` holds and 0 elsewhere; where=None means every trial. flag, the
    visited-0 flags, is read only by a fast-until-zero rule. sites is an
    inclusive (lo, hi) range holding every entry of x; it is computed
    from x when not given.
    """
    u, hit_only, intervals = _stay_region(policy, t)
    if intervals is None:
        where = None
    elif len(intervals) == 1 and intervals[0][0] == -intervals[0][1]:
        where = np.abs(x) <= intervals[0][1]
    else:
        # the stay region can hold O(n) intervals (parity combs), so mark
        # interval edges over the occupied sites, cumsum them into a dense
        # row and gather
        lo, hi = (int(np.min(x, initial=0)), int(np.max(x, initial=0))) if sites is None else sites
        iv = np.array(intervals, dtype=np.int64).reshape(-1, 2)
        a = np.maximum(iv[:, 0], lo)
        b = np.minimum(iv[:, 1], hi)
        keep = a <= b
        edges = np.zeros(hi - lo + 2, dtype=np.int8)
        edges[a[keep] - lo] = 1
        edges[b[keep] - lo + 1] -= 1  # after the starts: an interval may end where the next begins
        row = np.cumsum(edges, dtype=np.int8).view(bool)
        where = np.take(row, np.subtract(x, lo, dtype=np.intp))  # x may be int16
    if hit_only:
        flag = np.asarray(flag, dtype=bool)
        where = flag if where is None else where & flag
    return u, where


def policy_to_json(policy: PolicySpec) -> dict:
    """JSON form: kind, q_cap and the builder's keyword arguments."""
    obj = {"kind": policy.kind, "q_cap": policy.q_cap, **policy.params}
    if policy.kind == SCHEDULE:
        obj["segments"] = [{"t_start": s.t_start, "t_end": s.t_end, "inner": policy_to_json(s.inner_policy)}
                           for s in policy.params["segments"]]
    return obj


_BUILDERS = {  # a policy's params are its builder's keyword arguments
    CONSTANT: constant_policy, TWO_ZONE: two_zone_policy, FAST_UNTIL_ZERO: fast_until_zero_policy,
    SCHEDULE: schedule_policy, BANG_BANG_TABLE: bang_bang_table_policy,
}


def policy_from_json(obj: dict) -> PolicySpec:
    """Inverse of policy_to_json; a malformed, missing or unknown key raises ParameterError."""
    if not isinstance(obj, dict):
        raise ParameterError(f"a policy is a JSON object, got {type(obj).__name__}")
    args = dict(obj)
    kind = args.pop("kind", None)
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ParameterError(f"unknown policy kind {kind!r}")
    try:
        if kind == SCHEDULE:
            args["segments"] = [
                ScheduleSegment(inner_policy=policy_from_json(s.pop("inner")), **s)
                for s in map(dict, args["segments"])
            ]
        return _BUILDERS[kind](**args)
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed {kind} policy: {exc!r}") from None
