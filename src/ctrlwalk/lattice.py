"""Exact lattice distributions for walks with increments in {-1, 0, +1}.

The law of a controlled walk at a fixed time is a dense mass vector over a
contiguous window of integer sites, split by a one-bit history flag that
records whether the walk has visited site 0 so far. Policies that do not
care about history see both rows evolved identically. When the walk starts
on 0 and no flag reset follows, the NOT_HIT row stays zero, so dp._forward
evolves the HIT_ZERO row alone.

Two numeric backends share one code path: float64 arrays (default) and
object arrays of fractions.Fraction for an exact cross-check mode on short
horizons.

This module holds the law and its helpers; the one step kernel is
dp._forward. The per-cell oracle it is tested against, one step under an
explicit control row, is step_distribution in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantError, ParameterError, as_count, as_index

# flag row indices
NOT_HIT = 0
HIT_ZERO = 1

FLOAT = "float64"
RATIONAL = "rational"

# exact mode is a cross-check oracle; widths stay tiny
RATIONAL_MAX_STEPS = 64

_STEP_TOL = 1e-14
_TOTAL_TOL = 1e-12


def _zeros(shape, mode):
    if mode == RATIONAL:
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros(shape, dtype=np.float64)


def _as_mode_value(value, mode):
    return Fraction(value) if mode == RATIONAL else float(value)


@dataclass(frozen=True)
class LatticeDistribution:
    """Law of the walk at one time, augmented with the visited-0 flag.

    mass has shape (2, width): row NOT_HIT holds probability that has never
    been at site 0, row HIT_ZERO the rest. Column j corresponds to site
    offset + j. Instances are treated as immutable.
    """

    time: int
    offset: int
    mass: np.ndarray
    mode: str = FLOAT

    def __post_init__(self):
        if self.mass.ndim != 2 or self.mass.shape[0] != 2:
            raise ParameterError("mass must be a (2, width) array")
        if self.mode not in (FLOAT, RATIONAL):
            raise ParameterError(f"unknown numeric mode {self.mode!r}")
        total = self.mass.sum()
        if self.mode == RATIONAL:
            if total != 1:
                raise InvariantError(f"total mass is {total}, expected exactly 1")
        elif not abs(float(total) - 1.0) <= _TOTAL_TOL:  # NaN fails too
            raise InvariantError(f"total mass {total!r} deviates from 1 beyond {_TOTAL_TOL}")
        if not np.all(self.mass >= 0):
            raise InvariantError("negative mass entry")

    @property
    def width(self) -> int:
        return self.mass.shape[1]

    @property
    def sites(self) -> np.ndarray:
        """All represented sites, leftmost first."""
        return np.arange(self.offset, self.offset + self.width)

    def site_mass(self) -> np.ndarray:
        """Per-site mass with the two flag rows combined."""
        return self.mass[0] + self.mass[1]

    def mass_at(self, x: int, flag: int | None = None):
        """Mass at site x (0 off the window), summed over both flags unless flag names one."""
        x = as_index(x, "x")
        return interval_mass(self, x, x, flag)

    def flag_totals(self):
        """(never-visited-0 mass, visited-0 mass)."""
        return self.mass[0].sum(), self.mass[1].sum()


def _check_flag(flag):
    if flag is not None and as_index(flag, "flag") not in (NOT_HIT, HIT_ZERO):
        raise ParameterError(f"flag must be None, NOT_HIT or HIT_ZERO, got {flag!r}")
    return flag


def point_mass(x: int, flag: int | None = None, mode: str = FLOAT) -> LatticeDistribution:
    """Unit mass at site x, time 0.

    The default flag is HIT_ZERO when x == 0 (the walk starts on 0) and
    NOT_HIT otherwise.
    """
    x, flag = as_index(x, "x"), _check_flag(flag)
    if flag is None:
        flag = HIT_ZERO if x == 0 else NOT_HIT
    if flag == NOT_HIT and x == 0:
        raise ParameterError("mass at site 0 must carry the visited-0 flag")
    mass = _zeros((2, 1), mode)
    mass[flag, 0] = _as_mode_value(1, mode)
    return LatticeDistribution(time=0, offset=x, mass=mass, mode=mode)


def interval_mass(d: LatticeDistribution, a: int, b: int, flag: int | None = None):
    """Total mass on sites a..b inclusive (0 if the window is missed), on both
    flag rows or on the one flag (NOT_HIT or HIT_ZERO) names."""
    a, b, flag = as_index(a, "a"), as_index(b, "b"), _check_flag(flag)
    lo = max(a, d.offset)
    hi = min(b, d.offset + d.width - 1)
    if lo > hi:
        return _as_mode_value(0, d.mode)
    sl = slice(lo - d.offset, hi - d.offset + 1)
    if flag is None:
        return d.mass[0, sl].sum() + d.mass[1, sl].sum()
    return d.mass[flag, sl].sum()


def reset_hit_flags(d: LatticeDistribution) -> LatticeDistribution:
    """Restart the visited-0 bookkeeping: only mass currently at site 0 is flagged.

    Used at schedule segment boundaries where a history-reading control
    measures hitting times from the segment start. Time is unchanged.
    """
    combined = d.site_mass()
    new = _zeros((2, d.width), d.mode)
    new[NOT_HIT] = combined
    z = -d.offset
    if 0 <= z < d.width:
        new[HIT_ZERO, z] = combined[z]
        new[NOT_HIT, z] = _as_mode_value(0, d.mode)
    return LatticeDistribution(time=d.time, offset=d.offset, mass=new, mode=d.mode)


def to_snapshot(d: LatticeDistribution) -> dict:
    """JSON-ready snapshot: {time, offset, mass, flag_split}, one mass row per flag."""

    def enc(row):
        if d.mode == RATIONAL:
            return [str(Fraction(v)) for v in row]
        return [float(v) for v in row]

    snap = {
        "time": d.time,
        "offset": d.offset,
        "mass": [enc(d.mass[0]), enc(d.mass[1])],
        "flag_split": True,
    }
    if d.mode == RATIONAL:
        snap["mode"] = RATIONAL
    return snap


def from_snapshot(snap: dict) -> LatticeDistribution:
    """The law a to_snapshot dict holds; a malformed one raises ParameterError."""
    if not snap.get("flag_split", False):
        raise ParameterError("combined snapshots drop the history split; cannot reload")
    missing = sorted({"time", "offset", "mass"} - snap.keys())
    if missing:
        raise ParameterError(f"snapshot lacks {', '.join(missing)}")
    mode = snap.get("mode", FLOAT)
    time, offset = as_count(snap["time"], "time"), as_index(snap["offset"], "offset")
    try:
        rows = [[_as_mode_value(v, mode) for v in row] for row in snap["mass"]]
    except (TypeError, ValueError, OverflowError):
        rows = []  # fails the shape check below
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise ParameterError("snapshot mass must be two rows of numbers of one width")
    mass = np.array(rows, object if mode == RATIONAL else np.float64)
    return LatticeDistribution(time=time, offset=offset, mass=mass, mode=mode)
