"""Exception hierarchy and input rules shared across the package.

The CLI maps these onto process exit codes, so new error types should
subclass one of the four roots below rather than Exception directly.
Every JSON config object, at the top level or nested, is read by
`read_object` (`read_kind` for one with a "kind"), which decodes it
(`decode_object`) and rejects a missing or an unlisted field; its fields
are read with `read_field` and `read_numbers`. Every parser tests JSON
numbers with `is_json_number` (a whole matrix with `is_json_number_rows`)
and JSON integers with `is_json_int`. API arguments follow seven rules,
listed site by site in the README: `require_count` for counts, seeds and
photon numbers, `fock.shape_of` for dimensions, before any allocation,
`require_index` for level, subsystem and basis indices, `require_real`
for other real numbers, `require_complex` for complex amplitudes,
`require_finite` for tolerances, weights and time origins, and
`require_positive` for time steps, durations, couplings, rates and other
positive reals. Lists of numbers are tested in bulk with `are_reals`: SNAP
phases, JSON number lists (`read_numbers`) and, through `require_reals`,
the lists of real API arguments.
"""

import json
import math
import numbers


def is_json_number(value) -> bool:
    """A JSON number: an int or float, but not a bool (an int subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_json_number_rows(rows) -> bool:
    """A list of lists of JSON numbers as the JSON decoder returns them: the
    bulk form of is_json_number, one set of entry types rather than one call
    per entry. NaN and Infinity, which the decoder reads as floats, pass;
    test finiteness on the converted array."""
    return (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and {type(v) for r in rows for v in r} <= {int, float})


def is_json_int(value) -> bool:
    """A JSON integer: an int, but not a bool (an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    """An integer count as an API argument: a Python or numpy integer (any
    numbers.Integral), but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number as an API argument: a Python or numpy int or float (any
    numbers.Real), but not a bool. For JSON values it is is_json_number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_complex(value) -> bool:
    """A complex number as an API argument: any numbers.Complex (so any
    real, numpy scalars included), but not a bool."""
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def are_reals(values, test=is_real) -> bool:
    """test(v) for every entry of the list values, in bulk: one set of entry
    types, and one test per entry only when a type other than int and float
    appears."""
    return {type(v) for v in values} <= {int, float} or all(map(test, values))


def require_count(name: str, value, least: int = 0) -> int:
    """int(value), or UsageError unless value is a count (`is_count`) of at
    least least: 0 for a nonnegative integer, 1 for a positive one."""
    if not is_count(value) or value < least:
        kind = "positive" if least else "nonnegative"
        raise UsageError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def require_index(name: str, value, size: int) -> int:
    """int(value), or UsageError unless value is a count (`is_count`) with
    value in [0, size): a level, subsystem or basis index of a register."""
    if not is_count(value):
        raise UsageError(f"{name} must be an integer index, got {value!r}")
    if not 0 <= value < size:
        raise UsageError(f"{name} {value!r} outside [0, {size})")
    return int(value)


def require_real(name: str, value) -> float:
    """float(value), or UsageError unless value is a real number (`is_real`)."""
    if not is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    return float(value)


def require_reals(name: str, values) -> list[float]:
    """[require_real(name, v) for v in values], with the types tested in
    bulk (`are_reals`)."""
    values = list(values)
    if are_reals(values):
        return list(map(float, values))
    return [require_real(name, v) for v in values]


def require_complex(name: str, value) -> complex:
    """complex(value), or UsageError unless value is a complex number (`is_complex`)."""
    if not is_complex(value):
        raise UsageError(f"{name} must be a complex number, got {value!r}")
    return complex(value)


def require_finite(name: str, value) -> float:
    """float(value), or UsageError unless require_real passes and value is finite."""
    if not math.isfinite(require_real(name, value)):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_positive(name: str, value) -> float:
    """float(value), or UsageError unless require_real passes and 0 < value < inf."""
    require_real(name, value)
    if not 0 < value < math.inf:
        raise UsageError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _field_error(what: str, problem: str, names) -> "ParseError":
    names = list(names)
    return ParseError(f"{what}: {problem} field{'s' if len(names) > 1 else ''} "
                      + ", ".join(f"'{name}'" for name in names))


def decode_object(source, what: str) -> dict:
    """The JSON object source, as a dict: JSON text is decoded first, and
    any other value must be an already decoded object. Raises ParseError,
    with what in the message, for invalid JSON or a value that is not an
    object. A nested value goes through read_field(doc, name, dict, what)
    first, so that a string there is never decoded."""
    doc = source
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return doc


def read_object(source, what: str, required=(), optional=()) -> dict:
    """decode_object(source, what), which must hold every required field
    and no field that is neither required nor optional; ParseError names
    the missing or unknown fields."""
    doc = decode_object(source, what)
    missing = [name for name in required if name not in doc]
    if missing:
        raise _field_error(what, "missing", missing)
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise _field_error(what, "unknown", unknown)
    return doc


def read_kind(spec: dict, what: str, kinds: dict) -> tuple[str, dict]:
    """The string "kind" of the object spec (a dict, as read_field(doc,
    name, dict, what) returns it) and spec, read by read_object with the
    fields kinds[kind] = (required, optional) lists besides "kind". A kind
    not in kinds raises ParseError."""
    kind = read_field(spec, "kind", str, what)
    if kind not in kinds:
        raise ParseError(f"{what}: unknown kind {kind!r}")
    required, optional = kinds[kind]
    return kind, read_object(spec, what, ("kind", *required), optional)


_REQUIRED = object()


def read_field(doc: dict, name: str, types, what: str, default=_REQUIRED):
    """doc[name], or default when the field is absent and a default is
    given. types is float for a JSON number, int for a JSON integer, or
    the type(s) for isinstance; any other value raises ParseError."""
    if name not in doc:
        if default is not _REQUIRED:
            return default
        raise _field_error(what, "missing", [name])
    val = doc[name]
    if types is float:
        ok = is_json_number(val)
    elif types is int:
        ok = is_json_int(val)
    else:
        ok = isinstance(val, types)
    if not ok:
        raise ParseError(f"{what}: field '{name}' has the wrong type")
    return val


def read_numbers(doc: dict, name: str, what: str, default=_REQUIRED):
    """doc[name] as a list of floats (read_field with a list of JSON
    numbers), or a non-list default when the field is absent."""
    val = read_field(doc, name, list, what, default)
    if not isinstance(val, list):
        return val
    if not are_reals(val, is_json_number):
        raise ParseError(f"{what}: field '{name}' must be a list of numbers")
    return list(map(float, val))


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
