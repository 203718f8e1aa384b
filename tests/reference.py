"""Per-cell reference implementations the differential tests compare against.

The package runs one kernel per engine: `dp._forward` for exact evolution,
`dp._backward` for the extremal DP, and `montecarlo._advance` on
`rng.step_bits` for sampling, all reading the stay rule from
`policies._stay_region`. The functions here restate those rules in the
plainest form, one control value per (flag, site) cell, and are used only
as test oracles:

- `ControlRow` and `step_distribution`: one exact step under an explicit
  control row, with its own mass and admissibility checks.
- `evaluate`, `control_grid` and `control_values`: the stay rule at one
  cell, over a window, and per trial.
- `step_uniforms`: the float uniforms behind the MC bits.
- `trinomial_return`: the closed-form P(S_n = 0) of the constant walk.
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
from ctrlwalk.policies import PolicySpec, _stay_region, stay_set
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
    """Control value at one space-time cell. Pure and deterministic."""
    u, hit_only, intervals = _stay_region(policy, t)
    if hit_only and flag != HIT_ZERO:
        return 0.0
    if intervals is None or any(a <= x <= b for a, b in intervals):
        return u
    return 0.0


def control_grid(policy: PolicySpec, t: int, offset: int, width: int, mode: str = FLOAT) -> np.ndarray:
    """Vectorized evaluate over a window: (2, width) array, row per flag."""
    u, hit_only, intervals = _stay_region(policy, t)
    grid = _zeros((2, width), mode)
    rows = grid[HIT_ZERO:] if hit_only else grid
    u = _as_mode_value(u, mode)
    end = offset + width - 1
    for a, b in ((offset, end),) if intervals is None else intervals:
        lo, hi = max(a, offset), min(b, end)
        if lo <= hi:
            rows[:, lo - offset : hi - offset + 1] = u
    return grid


def control_values(policy: PolicySpec, t: int, x: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """Vectorized evaluate for samplers: u per trial given site/flag arrays."""
    u, where = stay_set(policy, t, x, flag)
    if where is None:
        return np.full(np.shape(x), u)
    return np.where(where, u, 0.0)


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
