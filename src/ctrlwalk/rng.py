"""Counter-based random numbers for reproducible, splittable Monte Carlo.

Every uniform is a pure function of (master seed, trial index, step), so
batches can be sharded or replayed in any order with bitwise-identical
results. The mixer is the 64-bit finalizer used by splitmix-style
generators; trial and step counters are spaced by fixed odd constants.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, as_count, as_index

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SALT = np.uint64(0xD1B54A32D192ED03)
_STEP = 0xC2B2AE3D27D4EB4F
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
# a uniform keeps the top 53 of the 64 mixed bits
UNIFORM_SHIFT = 11


def mix64(z, out=None) -> np.ndarray:
    """Bijective 64-bit finalizer, elementwise over uint64 input.

    With out (which may be z itself) the result is computed in place.
    """
    z = np.asarray(z, dtype=np.uint64)
    if out is None:
        out = z.copy()
    elif out is not z:
        np.copyto(out, z)
    scratch = np.empty_like(out)
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(out, shift, out=scratch)
        np.bitwise_xor(out, scratch, out=out)
        if mult is not None:
            np.multiply(out, mult, out=out)
    return out


def trial_keys(seed: int, trials: int, base: int = 0) -> np.ndarray:
    """Independent per-trial stream keys for trial indices base..base+trials-1."""
    s = np.uint64(as_index(seed, "seed") & _MASK)
    base, trials = as_index(base, "trial base"), as_count(trials, "trials")
    if base < 0 or base + trials > _MASK + 1:
        raise ParameterError(f"trial indices {base}..{base + trials - 1} must lie in [0, 2^64)")
    keys = np.arange(base, base + trials, dtype=np.uint64)
    with np.errstate(over="ignore"):  # (s ^ _SALT) + idx * _GOLDEN mod 2^64, built in place
        np.multiply(keys, _GOLDEN, out=keys)
        np.add(keys, s ^ _SALT, out=keys)
        return mix64(keys, out=keys)


def step_bits(keys: np.ndarray, step: int, out=None) -> np.ndarray:
    """The 64 mixed bits behind each key's uniform at the given step, into out if given."""
    out = np.add(keys, np.uint64((step + 1) * _STEP & _MASK), out=out)
    return mix64(out, out)
