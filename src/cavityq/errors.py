"""Exception hierarchy and input rule shared across the package.

The CLI maps these onto process exit codes, so new error types should
subclass one of the four roots below rather than Exception directly.
Every parser tests JSON numbers with `is_json_number` (a whole matrix with
`is_json_number_rows`) and JSON integers with `is_json_int`; every API
taking a step count, a trajectory count or an rng seed checks it with
`require_count`.
"""

import numbers


def is_json_number(value) -> bool:
    """A JSON number: an int or float, but not a bool (an int subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_json_number_rows(rows) -> bool:
    """A list of lists of JSON numbers as json.loads returns them: the bulk
    form of is_json_number, one set of entry types rather than one call per
    entry. NaN and Infinity, which json.loads reads as floats, pass; test
    finiteness on the converted array."""
    return (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and {type(v) for r in rows for v in r} <= {int, float})


def is_json_int(value) -> bool:
    """A JSON integer: an int, but not a bool (an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    """An integer count as an API argument: a Python or numpy integer (any
    numbers.Integral), but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_count(name: str, value, least: int = 0) -> None:
    """Raise UsageError unless value is a count (`is_count`) of at least
    least: 0 for a nonnegative integer, 1 for a positive one."""
    if not is_count(value) or value < least:
        kind = "positive" if least else "nonnegative"
        raise UsageError(f"{name} must be a {kind} integer, got {value!r}")


class CavityQError(Exception):
    """Base class for all package errors."""


class UsageError(CavityQError):
    """Invalid arguments or misuse of an API contract."""


class ShapeError(UsageError):
    """Operands live on different or incompatible Hilbert spaces."""


class InvalidDimensionError(UsageError):
    """A subsystem dimension that cannot support the requested object."""


class DegenerateInputError(UsageError):
    """Inputs for which the requested object vanishes identically."""


class ParseError(CavityQError):
    """Malformed or incomplete serialized input (JSON configs, circuits)."""


class NumericError(CavityQError):
    """A numerical contract was violated at runtime."""


class StepSizeError(NumericError):
    """Time step too coarse for the requested accuracy or validity range."""


class DegenerateDetuningError(NumericError):
    """Dispersive formulas evaluated at zero qubit-cavity detuning."""


class BandwidthError(NumericError):
    """Requested pulse duration violates a spectral-selectivity bound."""


class CapacityError(CavityQError):
    """Requested Hilbert space exceeds the configured dimension cap."""
