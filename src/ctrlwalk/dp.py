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
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import InvariantError, ParameterError, as_count, as_index
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
    PolicySpec, _check_cap, _rules, bang_bang_table_policy, flag_reset_times, mirror_symmetric,
    run_args,
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


def _forward(policy: PolicySpec, n: int, start: int, mode: str, live, reads=None):
    """The law at each time of reads (default 0..n), ascending, as (R, W)
    views that the next step overwrites.

    R = 1 when the walk starts on 0 and no flag reset falls in its n steps:
    all mass is flagged, so the NOT_HIT row would stay zero. The one row is
    then the HIT_ZERO row, every step's stay rule holds on all of it, and
    nothing is folded at site 0. Otherwise R = 2, one row per visited-0
    flag. Buffers sized once hold column site + shift, zero off the window.
    Each step follows the operation order of the per-cell oracle
    step_distribution in tests/reference.py, so laws agree bitwise. _rules
    holds u in [0, 1], so no mass can turn negative and only the total is
    checked, in Python floats (Fractions in RATIONAL mode).

    Steps run in epochs cut at the end of each policies._rules range (the
    rule is drawn once per range, and a fast-until-zero range after step 0
    resets the flags where it starts) and every quarter of t. An epoch
    slices every view its steps touch once per parity, and sweeps the live
    columns its last step can reach and the absorbing ones (zeros beyond
    stay zero), one multiply per term.

    One row under a mirror-symmetric policy and live window is folded: site
    -x would repeat the float operations of site x with its two neighbours
    swapped, and IEEE addition commutes, so only sites 0..t are swept (W =
    t + 1; otherwise W = 2t + 1), with column -1 a ghost copy of +1.
    """
    n, start = run_args(policy, n, start)
    if mode == RATIONAL and n > RATIONAL_MAX_STEPS:
        raise ParameterError(f"rational mode runs at most {RATIONAL_MAX_STEPS} steps, got n={n}")
    live = None if live is None else _site_interval(live, "live")
    reads = range(n + 1) if reads is None else set(reads)
    two = start != 0 or bool(flag_reset_times(policy, n))
    fold = not two and (live is None or live[0] == -live[1]) and mirror_symmetric(policy, n)
    c0, shift = n + 1, n + 1 - start
    bufs = _zeros((1 + two, 2 * n + 3), mode), _zeros((1 + two, 2 * n + 3), mode)
    terms = _zeros((2, 1 + two, 2 * n + 3), mode)  # each neighbour's share, and the stay term
    one_half, zero, prev = (_as_mode_value(v, mode) for v in (0.5, 0, 1))
    num = type(prev)  # the mass check's arithmetic: float, or Fraction in RATIONAL mode
    bufs[0][:, c0] = point_mass(start, mode=mode).mass[:, 0] if two else prev
    lo, hi = (c0 - n, c0 + n) if live is None else (live[0] + shift, live[1] + shift)
    if not lo <= c0 <= hi:  # a start off the live window never moves: no column is live
        lo, hi = c0 + 1, c0
    step_tol, total_tol = (0, 0) if mode == RATIONAL else (lattice._STEP_TOL, lattice._TOTAL_TOL)
    mul, add = np.multiply, np.add  # the step's ufuncs, bound once, called with positional out
    rules, end = _rules(policy, 0, n), 0  # end: where the current rule's range ends
    ghost = terms[0, 0]  # a folded run's one row of neighbour shares
    if 0 in reads:
        yield bufs[0][:, c0 : c0 + 1]
    t1 = 0
    while t1 < n:
        t0 = t1
        if t0 == end:
            _, end, u, hit_only, intervals = next(rules)
            if hit_only and t0 > 0:  # a fast-until-zero leaf takes over: its flags restart
                law = bufs[t0 % 2][:, c0 - t0 : c0 + t0 + 1]
                law[...] = reset_hit_flags(LatticeDistribution(t0, start - t0, law, mode)).mass
            u = _as_mode_value(u, mode)
            f = (1 - u) * one_half  # each neighbour's share of moving mass on a stay span
            rows = slice(HIT_ZERO, None) if hit_only and two else slice(None)
        t1 = min(end, t0 + max(16, t0 // 4))
        # live columns [p, r] hold the law before each step, out columns [na, r + 1] take it
        p, r = max(c0 if fold else c0 - t1 + 1, lo), min(c0 + t1 - 1, hi)
        na = p if fold else p - 1
        frozen = [x for x in (lo - 1, hi + 1) if na <= x <= r + 1]  # these stay with probability 1
        a, b = min([p, *frozen]), max([r, *frozen])  # the swept columns
        f_half, f_stay = _zeros((2, 1 + two, b + 1 - a), mode)  # each swept cell's factor per term
        f_half[...] = one_half
        for x0, x1 in [(p - shift, r - shift)] if intervals is None else intervals:
            x0 = max(x0 + shift, p) - a  # the stay span's swept cells, clipped to [p, r]
            cells = slice(x0, max(x0, min(x1 + shift, r) + 1 - a))
            f_half[rows, cells], f_stay[rows, cells] = f, u
        frozen = [x - a for x in frozen]
        f_half[:, frozen], f_stay[:, frozen] = zero, 1  # they move nothing and keep all
        merge = two and na <= shift <= r + 1  # arrivals at site 0 join the HIT_ZERO row
        ones = np.ones(r + 1 - na if fold else r + 2 - na, bufs[0].dtype)
        half, stay = terms[0, :, a : b + 1], terms[1, :, a : b + 1]
        h_hi, h_lo = terms[0, :, na + 1 : r + 3], terms[0, :, na - 1 : r + 1]
        views = [(src[:, a : b + 1], dst[:, a : b + 1], dst[:, na : r + 2], dst[0, na : r + 2],
                  dst[-1, na : r + 2], dst[0, na + 1 : r + 2], merge and dst[:, shift], dst)
                 for src, dst in (bufs, bufs[::-1])]  # row0, row1, tail: the mass check
        for t in range(t0, t1):
            s, d_swept, d_out, row0, row1, tail, d_zero, dst = views[t % 2]
            mul(s, f_half, half)
            mul(s, f_stay, stay)
            if fold:
                ghost[c0 - 1] = ghost[c0 + 1]
            add(h_hi, h_lo, d_out)
            add(d_swept, stay, d_swept)
            if merge:
                d_zero[HIT_ZERO] += d_zero[NOT_HIT]
                d_zero[NOT_HIT] = zero
            if fold:
                total = row0.item(0) + 2 * num(tail.dot(ones))
            elif two:  # one 1-D dot per row: a (2, w) matmul and sum cost twice as much
                total = num(row0.dot(ones)) + num(row1.dot(ones))
            else:
                total = num(row0.dot(ones))
            if not (abs(total - prev) <= step_tol and abs(total - 1) <= total_tol):  # NaN fails too
                raise InvariantError(f"total mass {total!r} after step {t}, {prev!r} before")
            prev = total
            if t + 1 in reads:
                yield dst[:, c0 : c0 + t + 2] if fold else dst[:, c0 - t - 1 : c0 + t + 2]
        del f_half, f_stay, ones  # freed before the next epoch allocates its own: the peak holds one set


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
    (m,) = _forward(policy, n, start, mode, live, (n,))
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
        """V_t(x) for 0 <= t <= n and |x| <= n; the solve holds no site off [-n, n]."""
        t, x = as_index(t, "t"), as_index(x, "x")
        if not (0 <= t <= self.n):
            raise ParameterError(f"t={t} outside [0, {self.n}]")
        if abs(x) > self.n:
            raise ParameterError(f"x={x} outside [-{self.n}, {self.n}]")
        j = x + self.n
        if t == 0:
            return float(self.v0[j])
        if self.values is None:
            raise ParameterError("solve was run without keep_values; only t=0 is stored")
        return float(self.values[t, j])


@dataclass(frozen=True)
class BangBangPolicy:
    """Where the extremal control picks the cap: masks holds one (first t,
    steps, site offset, width, bits) entry per _backward epoch, t ascending,
    where bits is the epoch's zlib-compressed packed bit block, and rows,
    built on first read, the inclusive site intervals per t. The block is
    inflated once, there; nothing else reads the bits."""

    n: int
    q_cap: float
    objective: str
    masks: tuple

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(_mask_to_intervals(mask, offset) for _, steps, offset, width, bits in self.masks
                     for mask in np.unpackbits(np.frombuffer(zlib.decompress(bits), np.uint8)
                                               .reshape(steps, -1), axis=1, count=width))

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


_EPOCH = 64  # steps per _backward epoch; one of L steps sweeps about L^2 cells off the support


def _backward(q_cap: float, n: int, objective: str, lo: int, hi: int, radius=None, masks=None):
    """(t, V_t on [-r, r]) for t = n..0, as views the next step overwrites; r =
    radius, n by default (a smaller one counts leaving [-r, r] as a miss).

    Steps run in epochs of _EPOCH steps with views sliced once. An epoch of L
    steps sweeps only the sites [s0, s1] = [first - L, last + L], clipped to
    [-r, r], where first and last are the row's outermost nonzero sites at its
    start. V_t(x) reads V_{t+1} at x - 1, x and x + 1 only; where all three are
    +0.0 (off the target's light cone, and in many cells inside it, where V
    has underflowed) the step gives +0.0 and u = 0 wins the tie. So the
    support grows at most one site per side per step, a skipped cell equals
    the cell of a whole-window sweep with the same operation order bitwise,
    and an epoch with no support (a target off [-r, r]) makes no ufunc call.

    masks, if a list, gets one (t1, L, s0, s1 + 1 - s0, bits) entry per epoch,
    latest epoch first: bits packs (np.packbits(..., axis=1)) the cap masks of
    steps t1..t1 + L - 1 on the swept sites, one row per step, and compresses
    the block with zlib at level 1. The masks are long runs of one value, so
    the blocks of an n = 8192 straddle solve shrink from 4.52 MiB to 0.055 MiB.

    A target (-h, h) is folded: V_t is even and site -x would repeat the
    float operations of site x with its neighbours swapped, so only sites
    x >= 0 are swept (s0 = 0), with column -1 a ghost copy of +1. V_t at
    x < 0 is then stale in the yielded row; the caller mirrors what it keeps.
    The mask blocks come mirrored, on sites -s1..s1.
    """
    fold = lo == -hi
    r = radius or n
    lo, hi = max(lo, -r), min(hi, r)
    pad = np.zeros(2 * r + 3)  # V at site x in column x + r + 1
    if lo <= hi:  # a target wholly outside [-r, r] leaves every value 0
        pad[lo + r + 1 : hi + r + 2] = 1.0
    nb, terms = np.empty(2 * r + 1), np.empty((2, 2 * r + 1))
    factors = np.array([[0.5], [(1.0 - q_cap) * 0.5]])  # V(x-1) + V(x+1) under u = 0 and u = q_cap
    better, pick = (np.greater, np.maximum) if objective == MAX else (np.less, np.minimum)
    yield n, pad[1:-1]
    s0, s1 = (lo, hi) if lo <= hi else (0, -1)  # sites off [s0, s1] hold V = +0.0
    t1 = n
    while t1 > 0:
        t0, t1 = t1, max(t1 - _EPOCH, 0)
        nz, steps = s0 + np.flatnonzero(pad[s0 + r + 1 : s1 + r + 2]), t0 - t1  # the nonzero sites
        s0, s1 = ((0 if fold else max(int(nz[0]) - steps, -r), min(int(nz[-1]) + steps, r))
                  if nz.size else (0, -1))
        sw = s1 + 1 - s0  # the swept sites s0..s1
        v, left, right = (pad[s0 + r + d : s0 + r + d + sw] for d in (1, 0, 2))  # V(x), V(x -+ 1)
        nbw, tw, block = nb[:sw], terms[:, :sw], np.empty((steps, sw), bool)
        v0, vq = tw
        for t in range(t0 - 1, t1 - 1, -1):
            if sw:
                if fold:
                    pad[r] = pad[r + 2]
                np.add(left, right, out=nbw)
                np.multiply(nbw, factors, out=tw)
                np.add(vq, np.multiply(v, q_cap, out=nbw), out=vq)
                if masks is not None:
                    better(vq, v0, out=block[t - t1])
                pick(vq, v0, out=v)  # the cap where it is strictly better, as the mask says
            yield t, pad[1:-1]
        if masks is not None:
            if fold:
                block = np.concatenate((block[:, :0:-1], block), axis=1)
            bits = zlib.compress(np.packbits(block, axis=1), 1)
            masks.append((t1, steps, -s1 if fold else s0, block.shape[1], bits))


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
    masks = []
    for t, v in _backward(q_cap, n, objective, lo, hi, masks=masks):
        if keep_values:
            values[t] = v
    v0 = v.copy()
    if fold:
        for row in (v0,) if values is None else (v0, *values):
            row[:n] = row[:n:-1]
    table = ValueTable(
        n=n, q_cap=q_cap, objective=objective, target=(lo, hi), v0=v0, values=values
    )
    bb = BangBangPolicy(n=n, q_cap=q_cap, objective=objective, masks=tuple(masks[::-1]))
    return table, bb


def _solve_args(q_cap: float, n: int, objective: str) -> tuple[float, int]:
    q_cap = _check_cap(q_cap)
    n = as_count(n, "n", 1)
    if objective not in (MAX, MIN):
        raise ParameterError(f"objective must be {MAX!r} or {MIN!r}")
    return q_cap, n


_EPS, _CERT = 2.0**-70, 2.0**-60  # a curve pass's tail, and a kept point's bound / p


def _radius(n: int, eps: float, v: float) -> int:
    """A radius R such that a martingale with steps of at most 1 whose step
    variances sum to at most v leaves [-R, R] within n steps with probability
    <= eps: the smaller of Azuma-Hoeffding's (2 exp(-R^2/2n)) and
    Freedman's (2 exp(-R^2/2(v + R/3))). With v = n it is Azuma's."""
    ln = math.log(2 / eps)
    return math.ceil(min(math.sqrt(2 * n * ln), ln / 3 + math.sqrt(ln * ln / 9 + 2 * ln * v)))


def _certified(points, horizons, variance) -> dict:
    """{m: (p, error bound)} per horizon m; points(ms, radius) reads each m in
    ms off one pass to max(ms) that absorbs paths leaving [-radius, radius]
    (None: untruncated). The walk is a martingale with steps of at most 1
    under any control, and variance(N) bounds its summed step variances over
    N steps, so R = _radius(N, _EPS, variance(N)) suffices for p >= 2^-10. A
    point with bound > _CERT * p is read again off a pass twice as wide or
    sized for p."""
    curve, todo, eps, radius = {}, set(horizons), _EPS, 0
    while todo:
        big = max(todo)
        radius = max(_radius(big, eps, variance(big)) if eps else big, 2 * radius)
        got = points(todo, radius if radius < big else None)
        curve.update((m, pb) for m, pb in got.items() if pb[1] <= _CERT * pb[0])
        todo -= curve.keys()
        eps = min([_CERT * got[m][0] for m in todo], default=0.0)
    return curve


def _optimal_curve(q_cap: float, horizons, objective: str) -> dict:
    """{m: (extremal P(S_m = 0), Azuma's bound)} per horizon m from one pass to
    N = max m: the recursion does not depend on t, so V_{N-m}(0) is the solve
    to m, bitwise when untruncated. The target (0, 0) folds the pass."""
    def points(ms, radius):
        big, r = max(ms), radius or max(ms)
        steps = _backward(float(q_cap), big, objective, 0, 0, radius)
        return {big - t: (float(v[r]), 2 * math.exp(-r * r / (2 * (big - t))) if big - t > r else 0.0)
                for t, v in steps if big - t in ms}

    horizons = {_solve_args(q_cap, m, objective)[1] for m in horizons}
    return _certified(points, horizons, lambda n: n)  # the controller may pick u = 0 anywhere


def _passes(runs) -> list:
    """[(policy, {m})] per distinct policy of the (m, policy) runs, in order
    of first run: what _forward_curve reads off one pass each."""
    policies, horizons = [], []
    for m, policy in runs:
        if policy not in policies:
            policies.append(policy)
            horizons.append(set())
        horizons[policies.index(policy)].add(run_args(policy, m, 0)[0])
    return list(zip(policies, horizons))


def _step_variance(policy: PolicySpec, n: int) -> float:
    """A bound on the summed step variances of n steps from 0, range by range
    of policies._rules: 1 - u per step whose rule holds u at every site and
    in every row (no intervals, and not hit_only unless the run has one row:
    no flag reset), 1 per other step."""
    one_row = not flag_reset_times(policy, n)
    return sum(((b - a) * (1 - u if intervals is None and (one_row or not hit_only) else 1)
                for a, b, u, hit_only, intervals in _rules(policy, 0, n)), 0.0)


def _forward_curve(passes) -> dict:
    """{m: (P(S_m = 0) from 0, error bound)} per (policy, {m}) of passes, from
    one _forward pass per policy to its largest m: step t does the same
    elementwise operations whatever the run's length, so each law is the
    run's to m, bitwise when untruncated. The bound is the mass absorbed at
    +-(R + 1) by step m. Site x >= 0 is column x - t - 1 of a view at t."""
    def points(policy, ms, radius):
        got, r = {}, radius or max(ms)
        for t, v in zip(sorted(ms), _forward(policy, max(ms), 0, FLOAT, radius and (-r, r), ms)):
            ends = [r - t, -r - t - 2] if v.shape[1] > t + 1 else [r - t] * 2  # folded: R + 1 twice
            got[t] = float(v[:, -1 - t].sum()), float(v[:, ends].sum()) if t > r else 0.0
        return got

    return {m: pb for policy, ms in passes for m, pb in _certified(
        functools.partial(points, policy), ms, functools.partial(_step_variance, policy)).items()}


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


def _csv_cutoff(n: int, cutoff) -> int:
    """The value export's cutoff: n when None, else a count at most n."""
    cutoff = n if cutoff is None else as_count(cutoff, "cutoff")
    if cutoff > n:
        raise ParameterError(f"cutoff must be <= n={n}, got {cutoff}")
    return cutoff


def value_table_to_csv(table: ValueTable, fh, cutoff: int | None = None) -> int:
    """Write (t, x, value) rows with |x| <= cutoff <= n; returns the row count."""
    if table.values is None:
        raise ParameterError("value export needs keep_values=True")
    cutoff = _csv_cutoff(table.n, cutoff)
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
