"""Per-cell reference implementations the differential tests compare against.

The package runs one kernel per engine: `dp._forward` for exact evolution,
`dp._backward` for the extremal DP, and `montecarlo._advance` on
`rng.step_bits` for sampling. The engines read the stay rules from one
stream, `policies._rules`, one rule per range of steps. The functions here
restate those rules in the plainest form, one control value per (flag,
site) cell and step, from the definitions of the policy kinds alone (no
`_rules`), and are used only as test oracles:

- `ControlRow` and `step_distribution`: one exact step under an explicit
  control row, with its own mass and admissibility checks.
- `evaluate` and `control_grid`: the stay rule at one cell and over a
  window, read off the leaf policy that rules the step (`_ruling`).
- `step_uniforms`: the float uniforms behind the MC bits.
- `trinomial_return`: the closed-form P(S_n = 0) of the constant walk.
- `path_law`: the law after n steps as a sum over all 3^n paths, each
  step's control from `evaluate` and the path's own visits to 0 (no flag
  rows).
- `stage_stats_from_entrances`: barrier diagnostics reduced column by
  column from a batch's entrance table, with no use of prefix closure.
- `band_sums_exact`: the two-zone column sums of calibrate_lemma5 as exact
  fractions, by definition rather than through the reversibility identity.
- `continuum_exponent`: the decay exponent of the optimal `max` control in
  the diffusive limit, in closed form through parabolic-cylinder functions.
  It alone here imports scipy; the package does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ctrlwalk.errors import AdmissibilityError, InvariantError, ParameterError
from ctrlwalk.lattice import (
    _STEP_TOL,
    FLOAT,
    HIT_ZERO,
    NOT_HIT,
    RATIONAL,
    LatticeDistribution,
    _as_mode_value,
    _zeros,
)
from ctrlwalk.montecarlo import BarrierFamily, StageStats, TrajectoryBatch, wilson_interval
from ctrlwalk.policies import PolicySpec
from ctrlwalk.rng import UNIFORM_SHIFT, step_bits

# ---------------------------------------------------------------------------
# exact step


@dataclass(frozen=True)
class ControlRow:
    """Control values for one step, aligned with a distribution window.

    u has shape (2, width): one value per (flag, site). Policies that ignore
    the flag emit two identical rows. Every value must lie in [0, q_cap].
    """

    time: int
    offset: int
    u: np.ndarray
    q_cap: float


def step_distribution(
    d: LatticeDistribution,
    row: ControlRow,
    frozen: np.ndarray | None = None,
) -> LatticeDistribution:
    """Advance the distribution one step under the given control row.

    Mass at site x with control u stays put with probability u and moves to
    each of x-1, x+1 with probability (1-u)/2. Any mass of the NOT_HIT row
    that lands on site 0 switches to the HIT_ZERO row.

    frozen, if given, is a boolean mask over the current window marking
    absorbing sites: their mass is carried through unchanged. This is the
    kernel variant used for first-passage quantities.
    """
    if row.time != d.time:
        raise ParameterError(f"control row is for time {row.time}, distribution at {d.time}")
    if row.offset != d.offset or row.u.shape != d.mass.shape:
        raise ParameterError("control row window does not match the distribution window")
    if not np.all((row.u >= 0) & (row.u <= row.q_cap)):
        raise AdmissibilityError(f"control values escape [0, {row.q_cap}]")

    w = d.width
    mass = d.mass
    held = None
    if frozen is not None:
        frozen = np.asarray(frozen, dtype=bool)
        if frozen.shape != (w,):
            raise ParameterError("frozen mask must match the window width")
        idx = np.flatnonzero(frozen)
        moving = mass.copy()
        moving[:, idx] = 0
        held = _zeros((2, w), d.mode)
        held[:, idx] = mass[:, idx]
    else:
        moving = mass

    half_factor = (1 - row.u) * _as_mode_value(Fraction(1, 2), d.mode)
    half = moving * half_factor
    stay = moving * row.u

    new = _zeros((2, w + 2), d.mode)
    new[:, 0:w] = half            # arrivals one site to the left
    new[:, 2 : w + 2] += half     # arrivals one site to the right
    new[:, 1 : w + 1] += stay
    if held is not None:
        new[:, 1 : w + 1] += held

    z = -(d.offset - 1)  # column of site 0 in the widened window
    if 0 <= z < w + 2:
        new[HIT_ZERO, z] = new[HIT_ZERO, z] + new[NOT_HIT, z]
        new[NOT_HIT, z] = _as_mode_value(0, d.mode)

    before = mass.sum()
    after = new.sum()
    if d.mode == RATIONAL:
        if after != before:
            raise InvariantError("mass not conserved in exact mode")
    elif not abs(float(after) - float(before)) <= _STEP_TOL:
        raise InvariantError(f"mass drifted by {float(after) - float(before):.3e} in one step")

    return LatticeDistribution(time=d.time + 1, offset=d.offset - 1, mass=new, mode=d.mode)


# ---------------------------------------------------------------------------
# stay rule per cell


def evaluate(policy: PolicySpec, t: int, x: int, flag: int = NOT_HIT) -> float:
    """Control value at one space-time cell, from the definition of the leaf
    ruling step t (_ruling): constant its u_value; two-zone q_cap on |x| <=
    band; a bang-bang table q_cap on row t's intervals; fast-until-zero q_cap
    in the HIT_ZERO row. Every other value is 0."""
    leaf, _ = _ruling(policy, t)
    if leaf.kind == "constant":
        return leaf.params["u_value"]
    if leaf.kind == "two-zone":
        stays = abs(x) <= leaf.params["band_halfwidth"]
    elif leaf.kind == "fast-until-zero":
        stays = flag == HIT_ZERO
    elif leaf.kind == "bang-bang-table":
        if not 0 <= t < leaf.params["n"]:
            raise ParameterError(f"step {t} outside the table's horizon")
        stays = any(a <= x <= b for a, b in leaf.params["rows"][t])
    else:
        raise ParameterError(f"unknown policy kind {leaf.kind!r}")
    return leaf.q_cap if stays else 0.0


def control_grid(policy: PolicySpec, t: int, offset: int, width: int, mode: str = FLOAT) -> np.ndarray:
    """evaluate over a window: (2, width) array, row per flag."""
    grid = _zeros((2, width), mode)
    for flag in (NOT_HIT, HIT_ZERO):
        for j in range(width):
            grid[flag, j] = _as_mode_value(evaluate(policy, t, offset + j, flag), mode)
    return grid


# ---------------------------------------------------------------------------
# uniforms

_INV53 = float(2.0**-53)


def step_uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    """One uniform in [0, 1) per key for the given step counter."""
    bits = step_bits(keys, step)
    return (bits >> np.uint64(UNIFORM_SHIFT)).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# closed form


def trinomial_return(n, u):
    """P(S_n = 0) for the walk that stays put with probability u each step.

    Closed form: sum over k up-steps (and k down-steps) of the trinomial
    weight n! / (k! k! (n-2k)!) ((1-u)/2)^(2k) u^(n-2k), in logs.
    """
    log_move = math.log((1.0 - u) / 2.0)
    logs = [
        math.lgamma(n + 1) - 2 * math.lgamma(k + 1) - math.lgamma(n - 2 * k + 1)
        + 2 * k * log_move + ((n - 2 * k) * math.log(u) if n > 2 * k else 0.0)
        for k in range(n // 2 + 1)
        if u > 0 or n == 2 * k
    ]
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


# ---------------------------------------------------------------------------
# path enumeration


def _ruling(policy: PolicySpec, t: int):
    """(leaf, since): the policy of the innermost schedule segment containing
    step t, and the step it took over, its segment's start clipped to the
    segments enclosing it. A step outside a schedule raises ParameterError."""
    since = 0
    while policy.kind == "schedule":
        seg = next((s for s in policy.params["segments"] if s.t_start <= t < s.t_end), None)
        if seg is None:
            raise ParameterError(f"step {t} outside the schedule's segments")
        since, policy = max(since, seg.t_start), seg.inner_policy
    return policy, since


def path_law(policy: PolicySpec, n: int, start: int = 0) -> dict:
    """{site: P(S_n = site)}: the weights of all 3^n paths from start, summed.

    Step t from site x stays with probability u and moves to each neighbour
    with (1 - u)/2. u is evaluate's, in the HIT_ZERO row once the path has
    visited 0 at or after the step the leaf ruling t took over.
    """
    law = {}

    def walk(path, weight):
        t, x = len(path) - 1, path[-1]
        if t == n:
            law[x] = law.get(x, 0.0) + weight
            return
        _, since = _ruling(policy, t)
        u = evaluate(policy, t, x, HIT_ZERO if 0 in path[since:] else NOT_HIT)
        for step, p in ((0, u), (-1, (1 - u) / 2), (1, (1 - u) / 2)):
            if p:
                walk([*path, x + step], weight * p)

    walk([start], 1.0)
    return law


# ---------------------------------------------------------------------------
# barrier diagnostics


def stage_stats_from_entrances(batch: TrajectoryBatch, family: BarrierFamily) -> StageStats:
    """The StageStats of a run_batch(..., family) batch, read off its entrance
    table one column at a time: stage i entered strictly when its time lies
    in [0, n), by n when it is not -1, escaped when stage i is entered
    strictly and stage i + 1 is not."""
    n, entr = batch.n, batch.entrances
    strict = (entr >= 0) & (entr < n)
    by_n = entr >= 0
    entered_strict = tuple(int(np.count_nonzero(strict[:, i])) for i in range(family.N0))
    entered_by_n = tuple(int(np.count_nonzero(by_n[:, i])) for i in range(family.N0))
    cond, min_escape = [], None
    for i in range(family.N0 - 1):
        m = entered_strict[i]
        if m == 0:
            cond.append((None, None, None))
            continue
        stopped = int(np.count_nonzero(strict[:, i] & ~strict[:, i + 1]))
        lo, hi = wilson_interval(stopped, m)
        cond.append((stopped / m, lo, hi))
        min_escape = stopped / m if min_escape is None else min(min_escape, stopped / m)
    in_window = np.abs(batch.final) <= float(n) ** family.beta_exp
    at_zero = batch.final == 0
    never_last = ~by_n[:, family.N0 - 1]
    return StageStats(
        n=n, beta_exp=family.beta_exp, trials=batch.trials, N0=family.N0, radii=family.radii,
        band_starts=family.band_starts, entered_strict=entered_strict, entered_by_n=entered_by_n,
        cond_escape=tuple(cond), min_cond_escape=min_escape,
        final_at_zero=int(np.count_nonzero(at_zero)),
        final_in_window=int(np.count_nonzero(in_window)),
        violations_exact=int(np.count_nonzero(at_zero & never_last)),
        violations_window=int(np.count_nonzero(in_window & never_last)),
    )


# ---------------------------------------------------------------------------
# exact band sums


def band_sums_exact(q_cap: float, K: int, band: int, t: int) -> dict:
    """{y: sum over x in [-K, K] of P_x(S_t = y)} for y in the band, exactly.

    The two-zone walk (stay q_cap on |x| <= band, else 0) pushes the weight 1
    on each start in [-K, K] forward t steps in integers: with q_cap = N/D,
    each step is scaled by 2D, so a stay weighs 2N in the band and 0 outside,
    and each move D - N in the band and D outside.
    """
    N, D = float(q_cap).as_integer_ratio()
    sites = range(-K - t - 1, K + t + 2)  # the weight never reaches either end
    stay = [2 * N if abs(x) <= band else 0 for x in sites]
    move = [D - N if abs(x) <= band else D for x in sites]
    w = [int(abs(x) <= K) for x in sites]
    for _ in range(t):
        w = [0, *(stay[i] * w[i] + move[i - 1] * w[i - 1] + move[i + 1] * w[i + 1]
                  for i in range(1, len(w) - 1)), 0]
    return {y: Fraction(w[y - sites[0]], (2 * D) ** t) for y in range(-band, band + 1)}


# ---------------------------------------------------------------------------
# continuum limit of the optimal control


def continuum_exponent(q_cap: float) -> tuple[float, float]:
    """(alpha*, xi*) for the objective max: the optimum decays like n^-alpha*
    and the solid cap block of the control has its edge at xi* sqrt(steps to go).

    In the diffusive limit V(s, x) ~ s^-alpha f(x / sqrt(s)), where f solves
    sigma^2 f'' + xi f' + 2 alpha f = 0: sigma^2 = 1 - q on the concave core
    (the cap) and 1 on the convex tails (u = 0). With nu = 2 alpha - 1 and D_nu
    the parabolic-cylinder function, the even core is
    e^(-eta^2/4) [D_nu(eta) + D_nu(-eta)] with eta = xi / sqrt(1 - q), and the
    tail, which decays like e^(-xi^2/2), is e^(-xi^2/4) D_nu(xi). alpha* is
    where both reach their inflection, xi f' + 2 alpha f = 0, at one xi*.
    The root search brackets alpha* in (0.001, 0.49): caps 0.05 to 0.99999.
    """
    from scipy.optimize import brentq
    from scipy.special import pbdv

    def tail(x, nu):  # x f'/f of e^(-x^2/4) D_nu(x)
        d, dd = pbdv(nu, x)
        return x * (dd / d - x / 2)

    def core(x, nu):  # the same for the even solution
        (d1, dd1), (d2, dd2) = pbdv(nu, x), pbdv(nu, -x)
        return x * ((dd1 - dd2) / (d1 + d2) - x / 2)

    def inflection(shape, alpha):
        """The first x > 0 with x f'/f + 2 alpha = 0, found below x = 6: both
        inflections lie below 1 in the bracket, and pbdv overflows at large x."""
        h = lambda x: shape(x, 2 * alpha - 1) + 2 * alpha  # noqa: E731
        xs = np.linspace(1e-9, 6.0, 121)
        a, b = next((a, b) for a, b in zip(xs, xs[1:]) if h(a) > 0 >= h(b))
        return brentq(h, a, b, xtol=1e-14)

    scale = math.sqrt(1.0 - q_cap)
    alpha = brentq(lambda a: scale * inflection(core, a) - inflection(tail, a), 1e-3, 0.49,
                   xtol=1e-13)
    return alpha, inflection(tail, alpha)
