"""Exception hierarchy and input rules shared across the package.

The CLI maps these onto process exit codes, so new error types should
subclass one of the four roots below rather than Exception directly.
Every JSON config object, at the top level or nested, states its fields
once, in a table read by `read_fields` (`read_kind` for one with a
"kind"): field -> types when required, field -> (types, default) when
optional. `read_object` decodes the object (`decode_object`) and rejects
a missing or an unlisted field; `read_field` checks the types a reader
walks (dict for a nested object, list for a list it iterates, str for a
kind) and passes every other field, typed object, on as decoded, to be
read by the rule of the call it feeds. API arguments follow fifteen
rules. `require_instance` is the type rule: every public parameter
annotated with a package class C, as C, C | None or tuple[C, ...], is
read by it, so it takes only objects of C (or None where the annotation
allows it, and for a tuple, each entry), and refuses anything else in
one message form; a HilbertShape parameter is a dimension instead.
`require_on` is the register rule: a state, operator, circuit or channel
that must live on the register another argument fixes is read by it, the
type rule and then one comparison of shapes, refused in one message form.
`require_sequence` is the container rule: every argument that holds
several entries (annotated Sequence, Iterable or tuple) is read once by
it into a tuple, from any iterable but a str or a mapping, unless its
docstring names the argument's kind as exempt; the site then reads each
entry by its own rule, and `require_distinct` refuses a repeat.
`require_choice` reads every Literal argument, `require_flag` every bool
argument. The other nine are:
`require_count` for counts, seeds and photon numbers, `fock.shape_of`
for dimensions, before any allocation, `require_index` for level,
subsystem and basis indices, `require_real` for other real numbers,
`require_complex` for complex amplitudes, `require_finite` for
tolerances, weights, time origins and gate angles, `require_positive`
for time steps, durations, couplings, rates and other positive reals,
`require_nonnegative` for those that may be zero, and `require_array`
for arrays and lists: states, matrices, pulse streams, sample lists,
SNAP phases, carriers, detunings, times, time spans, input-state pairs
and the arrays of JSON configs. It reads every entry count: `least`, the
fewest entries of a 1-D array, and in `shape` a length that another
argument fixes. A config reader re-raises the errors of
the rules it runs as ParseError (`parse_errors`). Each argument is read
once, by its rule, and the caller goes on with the value the rule returns.
`require_capacity` caps the work or memory that the counts of a request
set, before any allocation (`CapacityError`, exit 4), and
`require_phase` holds every phase the package forms, or a bound on it,
to MAX_PHASE_RAD (`NumericError`, exit 3). `require_array` tests its
entries in bulk with `are_reals`. A value the package derives in closed
form goes through `finite_result`, which names it in a `NumericError`
when it overflows or is not finite.
"""
import cmath
import collections.abc
import contextlib
import functools
import itertools
import json
import math
import numbers


# the largest phase, in rad, the package forms: one ulp of 2**20 is 2**-32 =
# 2.3e-10 rad, so two algebraically equal builds of a phase agree to that
MAX_PHASE_RAD = 2.0**20


def is_count(value) -> bool:
    """An integer count as an API argument: a Python or numpy integer (any
    numbers.Integral), but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number as an API argument: a Python or numpy int or float (any
    numbers.Real), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_complex(value) -> bool:
    """A complex number as an API argument: any numbers.Complex (so any
    real, numpy scalars included), but not a bool."""
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def are_reals(values, test=is_real) -> bool:
    """test(v) for every entry of the list values, in bulk: one entry of each
    type, and none when every type is int or float. test must depend only
    on the entry's type, as is_real and is_complex do."""
    return (set(map(type, values)) <= {int, float}
            or all(map(test, {type(v): v for v in values}.values())))


def require_count(name: str, value, least: int = 0) -> int:
    """int(value), or UsageError unless value is a count (`is_count`) of at
    least least: 0 for a nonnegative integer, 1 for a positive one."""
    if not is_count(value) or value < least:
        kind = "positive" if least else "nonnegative"
        raise UsageError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def require_capacity(name: str, count, cap: int, unit: str) -> None:
    """CapacityError unless count <= cap: the size of the work or of the
    arrays that name sets, checked before any of it is allocated. The count
    is shown in full when it is an int below 10^15, else to 6 digits."""
    if count > cap:
        shown = (count if isinstance(count, int) and count < 10**15
                 else f"{count:.6g}" if count < 1e308 else "over 1e+308")
        raise CapacityError(f"{name} is {shown} {unit}, above the cap of {cap}")


def require_phase(what: str, phase: float, quantity: str) -> None:
    """NumericError naming what (an argument and its value) unless the
    phase, or the phase bound that quantity names, is at most MAX_PHASE_RAD;
    inf and NaN fail too. Callers check before any phase is built."""
    if not phase <= MAX_PHASE_RAD:
        raise NumericError(f"{what}: the {quantity} is {phase:.3g} rad, "
                           "above MAX_PHASE_RAD = 2**20 rad")


def require_index(name: str, value, size: int) -> int:
    """int(value), or UsageError unless value is a count (`is_count`) with
    value in [0, size): a level, subsystem or basis index of a register."""
    if not is_count(value):
        raise UsageError(f"{name} must be an integer index, got {value!r}")
    if not 0 <= value < size:
        raise UsageError(f"{name} {value!r} outside [0, {size})")
    return int(value)


def require_real(name: str, value) -> float:
    """float(value), or UsageError unless value is a real number
    (`is_real`); NumericError for one too large for a float."""
    if not is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int, or any other Rational, beyond the float range
        raise NumericError(f"{name} is too large for a float") from None


def require_complex(name: str, value, finite: bool = False) -> complex:
    """complex(value), or UsageError unless value is a complex number
    (`is_complex`), finite where `finite` is set, in require_finite's
    message; NumericError for one too large for a float."""
    if not is_complex(value):
        raise UsageError(f"{name} must be a complex number, got {value!r}")
    try:
        value = complex(value)
    except OverflowError:  # an int, or any other Rational, beyond the float range
        raise NumericError(f"{name} is too large for a float") from None
    if finite and not cmath.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return value


def require_finite(name: str, value) -> float:
    """float(value), or UsageError unless require_real passes and value is finite."""
    value = require_real(name, value)
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value) -> float:
    """float(value), or UsageError unless require_real passes and 0 < value < inf."""
    value = require_real(name, value)
    if not 0 < value < math.inf:
        raise UsageError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_nonnegative(name: str, value) -> float:
    """float(value), or UsageError unless require_real passes and value >= 0;
    NaN fails and inf passes."""
    value = require_real(name, value)
    if not value >= 0:
        raise UsageError(f"{name} must be nonnegative, got {value!r}")
    return value


def require_instance(name: str, value, cls: type | tuple[type, ...]):
    """value, or UsageError naming the argument unless it is a cls (a class or
    a tuple of them): the one type rule for objects of the package's classes."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise UsageError(f"{name} must be a cavityq {names}, got {value!r}")
    return value


def require_on(name: str, value, cls: type | tuple[type, ...], shape):
    """value, or the type rule's UsageError unless it is a cls, or ShapeError
    unless it lives on shape: the one register rule for a package object
    that must share the register another argument fixes."""
    if require_instance(name, value, cls).shape != shape:
        raise ShapeError(f"{name} must be on dims {shape.dims}, got {value.shape.dims}")
    return value


def require_sequence(name: str, values, least: int = 0) -> tuple:
    """The entries of any iterable but a str or a mapping, read once in
    order, or UsageError; least is 0 for any sequence, 1 for a non-empty
    one. Exempt by kind: numbers read by require_array (phases, times,
    detunings, carriers, spans), dimensions (fock.shape_of), the bits of
    gates.qubit_binary_encode (a str is their form), basis_state's int or
    sequence, result fields and the parameters of these rules."""
    try:
        entries = iter(values)
    except TypeError:
        entries = None
    if entries is None or isinstance(values, (str, collections.abc.Mapping)):
        raise UsageError(f"{name} must be a sequence, got {values!r}")
    entries = tuple(entries)
    if len(entries) < least:
        raise UsageError(f"{name} must be a non-empty sequence, got {values!r}")
    return entries


def require_distinct(name: str, values):
    """values, or UsageError unless its entries, read by their own rule, are
    distinct: the one rule against a repeated subsystem, level or target."""
    if len(set(values)) != len(values):
        raise UsageError(f"{name} must be distinct, got {tuple(values)!r}")
    return values


def require_choice(name: str, value, choices: tuple):
    """The entry of choices (a Literal's) that value equals, or UsageError:
    a str (a numpy str too) for str choices, else a count (`is_count`)."""
    typed = isinstance(value, str) if isinstance(choices[0], str) else is_count(value)
    if typed and value in choices:
        return choices[choices.index(value)]
    raise UsageError(f"{name} must be one of {choices!r}, got {value!r}")


def require_flag(name: str, value) -> bool:
    """bool(value), or UsageError unless value is a Python or numpy bool:
    the one rule for an on/off argument, which no truth value stands in for."""
    import numpy as np

    if not isinstance(value, (bool, np.bool_)):
        raise UsageError(f"{name} must be a boolean, got {value!r}")
    return bool(value)


def finite_result(name: str, compute):
    """compute(), a real or complex value the package derives, or
    NumericError naming it when it overflows or is not finite: float **
    raises OverflowError where * and / give inf."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise NumericError(f"{name} is not finite")
    return value


@functools.cache
def _bulk_types(dtype) -> frozenset:
    """Python and numpy ints and floats, and complexes for dtype complex."""
    import numpy as np

    reals = {int, float, np.int32, np.int64, np.float32, np.float64}
    return frozenset(reals | {complex, np.complex64, np.complex128} if dtype is complex else reals)


def _shape_error(name: str, shape: tuple, got, least: int = 0) -> "ShapeError":
    """got is a length (an int), a shape or "ragged rows"; least is named
    for a length that a 1-D shape refuses."""
    length = isinstance(got, int)
    want = (f"1-D with at least {least} entr{'ies' if least > 1 else 'y'}"
            if least and length and shape == (None,) else "1-D" if shape == (None,)
            else f"1-D of length {shape[0]}" if len(shape) == 1 else "x".join(map(str, shape)))
    return ShapeError(f"{name} must be {want}, got {f'length {got}' if length else got}")


def require_array(name: str, values, shape: tuple, dtype=complex, least: int = 0):
    """A read-only C-ordered copy of values as an array of dtype (complex,
    or float for reals) of an exact shape, where a length another argument
    fixes is passed, or 1-D with at least `least` entries for (None,). A
    list's or an array's length is checked before any copy, in one form;
    ragged rows or any other shape raise ShapeError; an entry that is not a
    number (`is_complex`, or `is_real` for float) raises UsageError; NaN,
    ±inf or an int too large for a float raise NumericError. A list whose
    entries, flat or in rows, all have `_bulk_types` takes one np.array
    call; any other list goes through an object array, tested in bulk
    (`are_reals`), an ndarray by dtype kind."""
    import numpy as np

    arr = None
    if isinstance(values, (list, tuple)):
        if (len(values) != shape[0] and shape[0] is not None) or len(values) < least:
            raise _shape_error(name, shape, len(values), least)
        types = set(map(type, values))
        if types <= {list, tuple}:  # rows, or no entries
            types = set(map(type, itertools.chain.from_iterable(values)))
        if types <= _bulk_types(dtype):
            try:
                arr = np.array(values, dtype=dtype)
            except (ValueError, OverflowError):  # ragged rows, or an int too large
                pass  # for a float: the object array below names which
    entries, flat = values if arr is None else arr, None
    if arr is None and not isinstance(values, np.ndarray):
        try:
            entries = np.array(values, dtype=object)
            flat = entries.ravel().tolist()
            if not {list, tuple}.isdisjoint(map(type, flat)):
                raise ValueError
        except ValueError:  # rows of lists, or of arrays that differ in shape
            raise _shape_error(name, shape, "ragged rows") from None
    if (entries.shape != shape and (shape != (None,) or entries.ndim != 1)) or len(entries) < least:
        raise _shape_error(name, shape, len(entries) if entries.ndim == 1 == len(shape)
                           else entries.shape, least)
    if arr is None:
        test, numbers = (is_real, "real numbers") if dtype is float else (is_complex, "numbers")
        if flat is None and values.dtype.kind not in ("iuf" if dtype is float else "iufc"):
            raise UsageError(f"{name} entries must be {numbers}, got dtype {values.dtype}")
        if flat is not None and not are_reals(flat, test):
            raise UsageError(f"{name} entries must be {numbers}, got "
                             f"{next(v for v in flat if not test(v))!r}")
        try:
            arr = np.array(entries, dtype=dtype, order="C")
        except OverflowError:  # an int too large for a float
            raise NumericError(f"{name} holds a number too large for a float") from None
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # .all() adds ~1 µs on short arrays
        raise NumericError(f"non-finite entries in {name}")
    arr.setflags(write=False)
    return arr


@contextlib.contextmanager
def parse_errors(what: str):
    """Re-raise a UsageError or NumericError of the block as ParseError
    naming what: the config reader's form of an argument rule's error."""
    try:
        yield
    except (UsageError, NumericError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _field_error(what: str, problem: str, names) -> "ParseError":
    names = list(names)
    return ParseError(f"{what}: {problem} field{'s' if len(names) > 1 else ''} "
                      + ", ".join(f"'{name}'" for name in names))


def decode_object(source, what: str) -> dict:
    """The JSON object source, as a dict: JSON text is decoded first, and
    any other value must be an already decoded object. Raises ParseError,
    with what in the message, for invalid JSON or a value that is not an
    object. A nested object is typed dict in its parent's table first, so
    that a string there is never decoded."""
    doc = source
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
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


_REQUIRED = object()


def read_fields(source, what: str, required: dict, optional: dict = {}) -> dict:
    """The fields of the object source, by one table: read_object on the
    listed names, then each field read by read_field with its types.
    required maps each field to its types, optional to (types, default);
    an absent optional field takes its default."""
    doc = read_object(source, what, required, optional)
    table = {**{name: (types, _REQUIRED) for name, types in required.items()}, **optional}
    return {name: read_field(doc, name, types, what, default)
            for name, (types, default) in table.items()}


def read_kind(spec: dict, what: str, kinds: dict) -> tuple[str, dict]:
    """The string "kind" of the object spec (a dict, as read_fields returns
    a field typed dict) and its fields, read by read_fields with the tables
    kinds[kind] = (required, optional) besides "kind". A kind not in kinds
    raises ParseError."""
    kind = read_field(spec, "kind", str, what)
    if kind not in kinds:
        raise ParseError(f"{what}: unknown kind {kind!r}")
    required, optional = kinds[kind]
    return kind, read_fields(spec, what, {"kind": str, **required}, optional)


def read_field(doc: dict, name: str, types, what: str, default=_REQUIRED):
    """doc[name], or default when the field is absent and a default is
    given; ParseError unless the value is an instance of types: dict for a
    nested object, list for a list the reader walks, str for a kind, and
    object for any other field, which the call it feeds reads by its rule."""
    if name not in doc:
        if default is not _REQUIRED:
            return default
        raise _field_error(what, "missing", [name])
    val = doc[name]
    if not isinstance(val, types):
        raise ParseError(f"{what}: field '{name}' has the wrong type")
    return val


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
