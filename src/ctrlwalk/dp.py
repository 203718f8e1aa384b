"""Exact forward evolution and extremal backward recursion.

Forward: iterate the one-step kernel under a fixed policy to get the exact
law at time n. Backward: dynamic programming for the best (or worst)
probability of finishing inside a target interval over all controls capped
at q_cap. The one-step objective is affine in the control, so the optimum
sits at an endpoint {0, q_cap}; the solver records where the cap is chosen.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import InvariantError, ParameterError, as_index
from .lattice import (
    FLOAT,
    HIT_ZERO,
    NOT_HIT,
    RATIONAL,
    RATIONAL_MAX_STEPS,
    LatticeDistribution,
    _as_mode_value,
    _zeros,
    interval_mass,
    point_mass,
    reset_hit_flags,
)
from .policies import (
    PolicySpec, _check_cap, _stay_region, bang_bang_table_policy, flag_reset_times,
    mirror_symmetric, rule_change_times, run_args,
)

MAX = "max"
MIN = "min"


def as_target(target) -> tuple[int, int]:
    """Normalize a target spec to an inclusive site interval (lo, hi).

    A target is None (site 0), one integral site, numpy integers included
    and bools not, or a (lo, hi) pair of them.
    """
    return _site_interval(target, "target")


def _site_interval(target, name: str) -> tuple[int, int]:
    """as_target for any site-interval argument; its errors call the argument name."""
    if target is None:
        return (0, 0)
    if np.ndim(target) == 0:
        site = as_index(target, f"{name} site")
        return (site, site)
    try:
        lo, hi = (as_index(v, name) for v in target)
    except ValueError:  # a non-integer (ParameterError), or not two items
        raise ParameterError(f"{name} must be a site or a (lo, hi) pair, got {target!r}") from None
    if lo > hi:
        raise ParameterError(f"empty {name} interval [{lo}, {hi}]")
    return (lo, hi)


def _forward(policy: PolicySpec, n: int, start: int, mode: str, live):
    """The law at times 0..n as (R, W) views that the next step overwrites.

    R = 1 when the walk starts on 0 and no flag reset follows: all mass is
    flagged, so the NOT_HIT row would stay zero. The one row is then the
    HIT_ZERO row, every step's stay rule holds on all of it, and nothing is
    folded at site 0. Otherwise R = 2, one row per visited-0 flag. Buffers
    sized once hold column site + shift, zero off the window and, in half,
    off the live columns. Each step follows the operation order of the
    per-cell oracle step_distribution in tests/reference.py, so laws agree
    bitwise. _stay_region holds u in [0, 1], which keeps every factor
    non-negative, so no mass can turn negative and only the total is checked.
    It is asked only at policies.rule_change_times, the steps where the rule
    may change, and each rule's clipped stay spans are rebuilt only while
    live columns join them.

    One row under a mirror-symmetric policy and live window is folded: site
    -x would repeat the float operations of site x with its two neighbours
    swapped, and IEEE addition commutes, so only sites 0..t are swept (W =
    t + 1; otherwise W = 2t + 1), with column -1 a ghost copy of +1.
    """
    n, start = run_args(policy, n, start)
    if mode == RATIONAL and n > RATIONAL_MAX_STEPS:
        raise ParameterError(f"rational mode runs at most {RATIONAL_MAX_STEPS} steps, got n={n}")
    live = None if live is None else _site_interval(live, "live")
    resets, changes = set(flag_reset_times(policy)), set(rule_change_times(policy, 0, n))
    two = start != 0 or bool(resets)
    fold = not two and (live is None or live[0] == -live[1]) and mirror_symmetric(policy)
    c0, shift = n + 1, n + 1 - start
    mass, out, half = (_zeros((1 + two, 2 * n + 3), mode) for _ in range(3))
    one_half, zero, prev = (_as_mode_value(v, mode) for v in (0.5, 0, 1))
    mass[:, c0] = point_mass(start, mode=mode).mass[:, 0] if two else prev
    lo, hi = (c0 - n, c0 + n) if live is None else (live[0] + shift, live[1] + shift)
    tols = (0, 0) if mode == RATIONAL else (lattice._STEP_TOL, lattice._TOTAL_TOL)
    last = range(max(c0 if fold else c0 - n + 1, lo), min(c0 + n - 1, hi) + 1)  # live at step n-1
    yield mass[:, c0 : c0 + 1]
    for t in range(n):
        a, b = (c0 if fold else c0 - t), c0 + t  # swept columns: sites -t..t, or 0..t
        na = a if fold else a - 1  # the next law's first column
        if t in resets:
            d = LatticeDistribution(t, a - shift, mass[:, a : b + 1], mode)
            mass[:, a : b + 1] = reset_hit_flags(d).mass
        if t in changes:
            u, hit_only, intervals = _stay_region(policy, t)
            hit_only = hit_only and two
            u = _as_mode_value(u, mode)
            f = (1 - u) * one_half  # each neighbour's share of moving mass on a stay span
            rows = slice(HIT_ZERO, None) if hit_only else slice(None)
            whole = intervals is None and not hit_only
            # the columns the stay spans cover by the last step: the spans change only
            # while live columns join them, and not once all are live
            reach = _meet(last, range(0) if u == 0 or intervals == () else last if intervals is None
                          else range(intervals[0][0] + shift, intervals[-1][1] + shift + 1))
            spanned = None
        p = max(a, lo)  # live columns [p, r], the rest is frozen
        r = max(min(b, hi), p - 1)
        if spanned != reach and (clip := _meet(reach, range(p, r + 1))) != spanned:
            spanned = clip  # all empty ranges are equal
            spans = [] if u == 0 else [slice(p, r + 1)] if intervals is None else [
                slice(max(x0 + shift, p), min(x1 + shift, r) + 1)
                for x0, x1 in intervals if x1 + shift >= p and x0 + shift <= r
            ]
            if len(spans) > 1:  # many stay intervals (bang-bang tables): one gather
                spans = [np.concatenate([np.arange(s.start, s.stop) for s in spans])]
        np.multiply(mass[:, p : r + 1], f if whole else one_half, out=half[:, p : r + 1])
        for s in () if whole else spans:
            half[rows, s] = mass[rows, s] * f
        if fold:
            half[0, c0 - 1] = half[0, c0 + 1]  # a folded run has one row
        np.add(half[:, na + 1 : b + 3], half[:, na - 1 : b + 1], out=out[:, na : b + 2])
        for s in spans:
            out[rows, s] += mass[rows, s] * u
        for s in (slice(a, p), slice(r + 1, b + 1)) if live is not None else ():  # frozen mass
            np.add(out[:, s], mass[:, s], out=out[:, s])
        if two and a - 1 <= shift <= b + 1:  # arrivals at site 0 join the HIT_ZERO row
            out[[NOT_HIT, HIT_ZERO], shift] = zero, out[HIT_ZERO, shift] + out[NOT_HIT, shift]
        m = out[:, na : b + 2]
        total = m[0, 0] + 2 * np.add.reduce(m[0, 1:]) if fold else np.add.reduce(m, axis=None)
        if not (abs(total - prev) <= tols[0] and abs(total - 1) <= tols[1]):  # NaN fails too
            raise InvariantError(f"total mass {total!r} after step {t}, {prev!r} before")
        prev, mass, out = total, out, mass
        yield m


def _meet(x: range, y: range) -> range:
    return range(max(x.start, y.start), min(x.stop, y.stop))


def _law(t: int, start: int, m: np.ndarray, mode: str) -> LatticeDistribution:
    """A copy of one _forward view as a two-row law (a one-row view is HIT_ZERO,
    a folded one holds sites 0..t and is mirrored onto -t..-1)."""
    k = 2 * t + 1 - m.shape[1]
    mass = _zeros((2, 2 * t + 1), mode)
    mass[2 - len(m) :, k:] = m
    mass[2 - len(m) :, :k] = m[:, k:0:-1]
    return LatticeDistribution(time=t, offset=start - t, mass=mass, mode=mode)


def evolve_trace(policy: PolicySpec, n: int, start: int = 0, mode: str = FLOAT, live=None):
    """Yield the law at times 0..n under the policy (n+1 distributions).

    live, if given, is an inclusive site interval (lo, hi), read by the
    target rule; mass on sites outside it is absorbed there and moves no
    more (first-passage laws).
    """
    for t, m in enumerate(_forward(policy, n, start, mode, live)):
        yield _law(t, start, m, mode)


def evolve(policy: PolicySpec, n: int, start: int = 0, mode: str = FLOAT, live=None) -> LatticeDistribution:
    """Exact law of the walk after n steps from start under the policy."""
    for m in _forward(policy, n, start, mode, live):
        pass
    return _law(n, start, m, mode)


def hit_probability(policy: PolicySpec, n: int, start: int = 0, target=None) -> float:
    """P(S_n in target) from start."""
    lo, hi = as_target(target)
    return float(interval_mass(evolve(policy, n, start), lo, hi))


@dataclass(frozen=True)
class ValueTable:
    """Extremal probabilities V_t(x) of ending in the target, on [-n, n].

    values holds all time slices as an (n+1, 2n+1) array when the solve kept
    them, otherwise only the t=0 slice (v0) is available.
    """

    n: int
    q_cap: float
    objective: str
    target: tuple[int, int]
    v0: np.ndarray
    values: np.ndarray | None = None

    def value(self, t: int, x: int) -> float:
        """V_t(x) for 0 <= t <= n; 0.0 at a site off [-n, n]."""
        t, x = as_index(t, "t"), as_index(x, "x")
        if not (0 <= t <= self.n):
            raise ParameterError(f"t={t} outside [0, {self.n}]")
        if abs(x) > self.n:
            return 0.0
        j = x + self.n
        if t == 0:
            return float(self.v0[j])
        if self.values is None:
            raise ParameterError("solve was run without keep_values; only t=0 is stored")
        return float(self.values[t, j])


@dataclass(frozen=True)
class BangBangPolicy:
    """Where the extremal control picks the cap, per t: masks as (site offset,
    packed bits), and rows, built on first read, as inclusive site intervals."""

    n: int
    q_cap: float
    objective: str
    masks: tuple

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(_mask_to_intervals(np.unpackbits(np.frombuffer(bits, np.uint8)), offset)
                     for offset, bits in self.masks)

    def as_policy(self) -> PolicySpec:
        return bang_bang_table_policy(self.q_cap, self.n, self.rows)


def _mask_to_intervals(mask: np.ndarray, offset: int) -> tuple:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return tuple((int(idx[s]) + offset, int(idx[e]) + offset) for s, e in zip(starts, ends))


def _backward(q_cap: float, n: int, objective: str, lo: int, hi: int):
    """(t, V_t on [-n, n], a, cap mask on sites a, a+1, ...) for t = n..0, as
    views the next step overwrites. Only the target's light cone [lo - k,
    hi + k], k = n - t, is swept: off it V_t is 0 and u = 0 wins the tie, as
    in a whole-window sweep with the same operation order, bitwise.

    A target (-h, h) is folded: V_t is even and site -x would repeat the
    float operations of site x with its neighbours swapped, so only sites
    x >= 0 are swept (a = 0), with column -1 a ghost copy of +1. V_t at
    x < 0 is then stale in the yielded row; the caller mirrors what it keeps.
    """
    fold = lo == -hi
    lo, hi = max(lo, -n), min(hi, n)
    pad = np.zeros(2 * n + 3)  # V at site x in column x + n + 1
    if lo <= hi:  # a target wholly outside [-n, n] leaves every value 0
        pad[lo + n + 1 : hi + n + 2] = 1.0
    nb, v0, vq, mask = (np.empty(2 * n + 1, dt) for dt in (float, float, float, bool))
    scale = (1.0 - q_cap) * 0.5
    better = np.greater if objective == MAX else np.less
    yield n, pad[1:-1], lo, mask[:0]
    for t in range(n - 1, -1, -1):
        a = 0 if fold else max(lo - (n - t), -n)
        w = max(min(hi + (n - t), n) - a + 1, 0)
        if fold:
            pad[n] = pad[n + 2]
        v = pad[a + n + 1 : a + n + 1 + w]  # V(x) on the cone; V(x-1), V(x+1) a column aside
        np.add(pad[a + n : a + n + w], pad[a + n + 2 : a + n + 2 + w], out=nb[:w])
        np.multiply(nb[:w], 0.5, out=v0[:w])
        np.multiply(nb[:w], scale, out=vq[:w])
        np.add(vq[:w], np.multiply(v, q_cap, out=nb[:w]), out=vq[:w])
        better(vq[:w], v0[:w], out=mask[:w])
        np.copyto(v, v0[:w])
        np.copyto(v, vq[:w], where=mask[:w])
        yield t, pad[1:-1], a, mask[:w]


def solve_extremal(
    q_cap: float,
    n: int,
    objective: str = MAX,
    target=None,
    keep_values: bool = True,
) -> tuple[ValueTable, BangBangPolicy]:
    """Backward recursion for sup/inf of P(S_n in target) over capped controls.

    V_t(x) = ext over u in [0, q_cap] of
        u * V_{t+1}(x) + (1-u)/2 * (V_{t+1}(x-1) + V_{t+1}(x+1)).
    Affinity in u puts the extremum at u in {0, q_cap}; exact ties go to
    u = 0, which keeps the recorded region minimal and reproducible.
    """
    q_cap, n = _solve_args(q_cap, n, objective)
    lo, hi = as_target(target)
    fold = lo == -hi  # _backward then sweeps sites x >= 0 only: mirror them onto x < 0
    values = np.zeros((n + 1, 2 * n + 1)) if keep_values else None
    masks = [None] * n
    for t, v, a, mask in _backward(q_cap, n, objective, lo, hi):
        if keep_values:
            values[t] = v
        if t < n:
            if fold:
                a, mask = 1 - mask.size, np.concatenate((mask[:0:-1], mask))
            masks[t] = (a, np.packbits(mask).tobytes())
    v0 = v.copy()
    if fold:
        for row in (v0,) if values is None else (v0, *values):
            row[:n] = row[:n:-1]
    table = ValueTable(
        n=n, q_cap=q_cap, objective=objective, target=(lo, hi), v0=v0, values=values
    )
    bb = BangBangPolicy(n=n, q_cap=q_cap, objective=objective, masks=tuple(masks))
    return table, bb


def _solve_args(q_cap: float, n: int, objective: str) -> tuple[float, int]:
    q_cap = _check_cap(q_cap)
    n = as_index(n, "n")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if objective not in (MAX, MIN):
        raise ParameterError(f"objective must be {MAX!r} or {MIN!r}")
    return q_cap, n


def _optimal_curve(q_cap: float, horizons, objective: str) -> dict:
    """{m: extremal P(S_m = 0)} per horizon m from one pass to N = max m: the
    recursion does not depend on t, so V_{N-m}(0) is the solve to m, bitwise.
    The target (0, 0) folds the pass, and site 0 is never stale."""
    big = max([_solve_args(q_cap, m, objective)[1] for m in horizons], default=1)
    steps = _backward(float(q_cap), big, objective, 0, 0)
    return {big - t: float(v[big]) for t, v, _, _ in steps if big - t in horizons}


def _forward_curve(runs) -> dict:
    """{m: P(S_m = 0) from 0} per (m, policy) run, from one _forward pass per
    distinct policy to its largest m: step t does the same elementwise
    operations whatever the run's length, so each law is the run's to m, bitwise.

    Site t is the last column of the view at time t, so site 0 is column
    -1 - t; summing its rows adds NOT_HIT to HIT_ZERO as interval_mass does,
    without copying the law out.
    """
    policies, horizons = [], []  # distinct policies in order of first run, and their m
    for m, policy in runs:
        if policy not in policies:
            policies.append(policy)
            horizons.append(set())
        horizons[policies.index(policy)].add(run_args(policy, m, 0)[0])
    return {t: float(v[:, -1 - t].sum())
            for policy, ms in zip(policies, horizons)
            for t, v in enumerate(_forward(policy, max(ms), 0, FLOAT, None)) if t in ms}


def extract_region(bb: BangBangPolicy) -> dict:
    """Region as per-t intervals plus the outermost radius per time slice.

    boundary[t] is max(|x|) over the row's cells, or -1 for an empty row.
    """
    boundary = [(t, max((max(abs(a), abs(b)) for a, b in row), default=-1))
                for t, row in enumerate(bb.rows)]
    return {
        "n": bb.n,
        "q_cap": bb.q_cap,
        "objective": bb.objective,
        "intervals": [[[a, b] for a, b in row] for row in bb.rows],
        "boundary": boundary,
    }


def value_table_to_csv(table: ValueTable, fh, cutoff: int | None = None) -> int:
    """Write (t, x, value) rows with |x| <= cutoff, 0.0 off [-n, n]; returns the row count."""
    if table.values is None:
        raise ParameterError("value export needs keep_values=True")
    cutoff = table.n if cutoff is None else as_index(cutoff, "cutoff")
    if cutoff < 0:
        raise ParameterError(f"cutoff must be >= 0, got {cutoff}")
    writer = csv.writer(fh)
    writer.writerow(["t", "x", "value"])
    count = 0
    for t in range(table.n + 1):
        for x in range(-cutoff, cutoff + 1):
            writer.writerow([t, x, repr(table.value(t, x))])
            count += 1
    return count


def boundary_to_csv(bb: BangBangPolicy, fh) -> int:
    writer = csv.writer(fh)
    writer.writerow(["t", "max_radius"])
    for t, r in extract_region(bb)["boundary"]:
        writer.writerow([t, r])
    return bb.n
