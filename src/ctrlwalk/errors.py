"""Exception types shared across the package.

The CLI maps these onto process exit codes: parameter problems (including
admissibility and degenerate schedules) exit 2, calibration failures exit 3,
and detected invariant violations exit 4.

Arguments are read through three checked readers: as_index (an integer),
as_count (an integer of at least some bound) and as_real (a number). Each
refuses a bad value with ParameterError naming the argument.
"""

import operator


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


def as_index(value, name: str) -> int:
    """value as an int: Python and numpy integers pass, bools and all else raise."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def as_count(value, name: str, low: int = 0) -> int:
    """as_index(value, name), refused with ParameterError naming it if below low."""
    value = as_index(value, name)
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return value


def as_real(value, name: str) -> float:
    """float(value), with float()'s own errors raised as ParameterError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


class AdmissibilityError(ParameterError):
    """A control value escapes [0, q_cap]."""


class DegenerateScheduleError(ParameterError):
    """Schedule parameters produce no usable phases for the given horizon."""


class CalibrationError(RuntimeError):
    """A calibration search exhausted its budget without a witness."""


class InvariantError(RuntimeError):
    """An internal invariant (mass conservation, certificate replay) failed."""
