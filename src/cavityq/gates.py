"""Gate vocabulary for cavity-encoded qudits and circuit plumbing.

Every constructor returns an Operator on the smallest shape the gate
acts on (one mode, or qubit⊗mode with the qubit first); circuits apply
each gate to its target axes of the full register, so targets need not
be adjacent. Displacements follow the standard convention
D(α) = exp(α a† − α* a); circuits record which convention their alphas
use via the "displacement_convention" field, and the legacy "paper"
spelling (exp(α a − α* a†)) is mapped by negating α at build time.

`GATE_BUILDERS` declares each gate kind once: its fields and its
structured kernel, the kind's one definition; no kernel forms an operator
bigger than 2×2. A `Circuit` compiles its gates when it is made, and the
public constructors and `GateSpec.build` run the kernels on the identity
(`_gate`); `errors.read_object` checks a gate's field list as it does
every config's. Each field is read once, by the rule its kernel applies
to the constructor's argument, so a GateSpec takes what the constructor
takes, numpy scalars included. Every compiled gate addresses the register
axes from the end, so a circuit also runs on a (B, *dims) stack of states.
Every SNAP phase list is read once, by `_snap_phases`, the one count and
phase rule: `errors.require_array` refuses any count but n, or none at
all, and a max|θ| above `errors.MAX_PHASE_RAD` raises NumericError.
Every D(α) comes from `_displacement_factors`, its one builder and phase rule.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Literal, Mapping, Sequence, get_args

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import (NumericError, ParseError, UsageError, decode_object, parse_errors, read_field,
                     read_fields, read_object, require_array, require_capacity, require_choice,
                     require_complex, require_count, require_distinct, require_finite,
                     require_flag, require_index, require_instance, require_on, require_phase,
                     require_sequence)
from .fock import (
    HilbertShape,
    Operator,
    StateVector,
    _as_axes,
    shape_of,
)

Convention = Literal["standard", "paper"]
CONVENTIONS = get_args(Convention)
# most levels of a mode a displacement or ECD acts on: each builds and
# diagonalizes the dense n×n quadrature a + a†; at the cap that takes
# about 2 s and peaks at 64 MiB
MAX_DISPLACEMENT_LEVELS = 2048


# ---------------------------------------------------------------------------
# single-shape constructors


def snap(theta: Sequence[float]) -> Operator:
    """SNAP gate diag(e^{iθ_0}, ..., e^{iθ_{N-1}}) on one mode."""
    theta = _snap_phases(theta, None, "snap theta")
    return _gate("snap", (theta,), HilbertShape((theta.size,)))


def multisnap(theta: Sequence[float], dims: Sequence[int]) -> Operator:
    """Joint multi-mode SNAP: one phase per joint occupation (n_0, n_1, ...),
    flattened with the first mode most significant."""
    shape = shape_of(dims)
    return _gate("multisnap", (_snap_phases(theta, shape.total_dim), shape.dims), shape)


def displacement(alpha: complex, n: int, convention: Convention = "standard") -> Operator:
    """Displacement D(α) = exp(α a† − α* a) truncated to n levels.

    The generator is a rotated quadrature, i(αa† − α*a) = |α| R (a + a†) R†
    with R = diag(e^{ikθ}) and θ = arg α + π/2, so D(α) = R Q e^{−i|α|Λ} Qᵀ R†
    with (Λ, Q) the real eigensystem of a + a†, cached per n. The result
    is therefore exactly unitary on the truncated space; it only agrees
    with the infinite-dimensional displacement on levels well below the
    cutoff (keep n ≳ |α|² + 5|α| above the states you care about).
    """
    shape = shape_of((n,))
    return _gate("displacement", (alpha, shape.total_dim, convention), shape)


def _displacement_factors(alphas: Sequence[complex], n: int, name: str = "alpha"
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, |α|Λ, Q) with D(α) = R Q e^{−i|α|Λ} Qᵀ R† on n levels: one row
    of R and of |α|Λ per standard-convention α, by Python `abs` and
    `cmath.phase`, and Q. NumericError naming name, before any array
    product, when max|α|·max Λ fails `require_phase`, NaN included."""
    evals, vecs = _quadrature_eigensystem(n)
    try:
        mags = np.array([abs(complex(a)) for a in alphas])
    except OverflowError:  # |α| above the largest float
        mags = np.array([math.inf])
    require_phase(name, float(mags.max()) * float(evals[-1]),
                  "displacement phase |amplitude|*max(Lambda)")
    rot = np.array([np.exp(1j * (cmath.phase(a) + math.pi / 2) * np.arange(n)) for a in alphas])
    return rot, mags[:, None] * evals, vecs


def _displacement_map(alpha: complex, n: int, convention: Convention, name: str = "alpha"
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """D(α) along the first axis of an array of n rows, in factored form,
    O(n²m) for m columns and no n×n matrix: R·(Q·(e^{−i|α|Λ} ∘
    (Qᵀ·(R†·x)))), α given in the named convention; UsageError naming α
    as name unless it is a finite complex number. Returns an (n, m) array,
    m the size of the other axes. Q is real, so each product with it is one
    real product on the C-contiguous (n, m) complex array as (n, 2m) reals."""
    convention = require_choice("convention", convention, CONVENTIONS)
    alpha = require_complex(name, alpha, finite=True)
    if convention == "paper":
        alpha = -alpha
    rot, angle, vecs = _displacement_factors([alpha], n, name)
    rot = rot[0][:, None]
    phases = np.exp(-1j * angle[0])[:, None]

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=complex).reshape(n, -1)
        y = (vecs.T @ (rot.conj() * x).view(float)).view(complex) * phases
        return rot * (vecs @ y.view(float)).view(complex)

    return apply


@functools.lru_cache(maxsize=8)
def _quadrature_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Λ, Q) with a + a† = Q diag(Λ) Qᵀ on n levels, real and read-only;
    CapacityError, before the n×n quadrature, for n above
    MAX_DISPLACEMENT_LEVELS. Bounded: one n = 300 entry is 720 KB, one at
    the cap 32 MiB, so the 8 entries hold at most 256 MiB."""
    require_capacity("a displaced mode", n, MAX_DISPLACEMENT_LEVELS, "levels")
    off = np.sqrt(np.arange(1.0, n))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return evals, vecs


def qubit_rotation(theta: float, phi: float) -> Operator:
    """Bloch rotation exp(−i θ/2 (cosφ σx + sinφ σy)) on a qubit."""
    return Operator(HilbertShape((2,)), _rotation(theta, phi))


def _rotation(theta: float, phi: float) -> np.ndarray:
    """The 2×2 matrix of qubit_rotation(θ, φ), which the rotation kernels
    apply; UsageError naming the angle unless both are finite."""
    theta, phi = require_finite("theta", theta), require_finite("phi", phi)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -1j * s * np.exp(-1j * phi)],
            [-1j * s * np.exp(1j * phi), c],
        ]
    )


def cond_rotation(n: int, theta: float, phi: float, mode_dim: int) -> Operator:
    """Qubit rotation applied only in the photon-number-n sector:
    R(θ,φ) ⊗ |n⟩⟨n| + I ⊗ (I − |n⟩⟨n|) on shape (qubit, mode)."""
    shape = shape_of((2, mode_dim))
    return _gate("cond_rotation", (n, theta, phi, shape.dims[1]), shape)


def controlled_increment(n: int) -> Operator:
    """|i⟩|j⟩ → |i⟩|(j+i) mod N⟩ on two N-level qudits."""
    shape = shape_of((n, n))
    return _gate("controlled_increment", (shape.dims[0],), shape)


def givens(m: int, n: int, theta: float, dim: int) -> Operator:
    """Real SO(2) rotation on span{|m⟩,|n⟩}: the 2×2 block
    [[cosθ, −sinθ], [sinθ, cosθ]], identity elsewhere. θ=π/2 maps
    |m⟩ → |n⟩ in full; equal superpositions sit at θ=π/4."""
    shape = shape_of((dim,))
    return _gate("givens", (m, n, theta, shape.total_dim), shape)


def phase_swap(m: int, n: int, dim: int) -> Operator:
    """Transposition of basis levels m and n (amplitudes travel with
    their phases)."""
    shape = shape_of((dim,))
    return _gate("phase_swap", (m, n, shape.total_dim), shape)


def _two_levels(kind: str, m: int, n: int, dim: int) -> tuple[int, int]:
    """(m, n) as two distinct levels of a dim-level mode, or UsageError."""
    return require_distinct(f"{kind} levels",
                            (require_index("level", m, dim), require_index("level", n, dim)))


def fourier(dim: int, inverse: bool = False) -> Operator:
    """Z_N Fourier gate F_{jk} = e^{2πi jk/N}/√N, or F† for inverse."""
    shape = shape_of((dim,))
    return _gate("fourier", (shape.total_dim, inverse), shape)


def ecd(beta: complex, mode_dim: int, convention: Convention = "standard") -> Operator:
    """Echoed conditional displacement on shape (qubit, mode):
    |e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2). At β=0 this is X ⊗ I."""
    shape = shape_of((2, mode_dim))
    return _gate("ecd", (beta, shape.dims[1], convention), shape)


def qubit_binary_encode(bits: str | Sequence[int]) -> int:
    """Map a qubit-register bit pattern to the qudit level holding it,
    big-endian: '1111' → 15."""
    if not isinstance(bits, (str, list, tuple)):
        raise UsageError(f"bits must be a str, list or tuple, got {bits!r}")
    seq = list(bits)
    if not seq:
        raise UsageError("empty bit pattern")
    value = 0
    for b in seq:
        bit = require_choice("bit", b, ("0", "1") if isinstance(b, str) else (0, 1))
        value = value * 2 + int(bit)
    return value


def qubit_binary_decode(level: int, n_bits: int) -> str:
    """Inverse of qubit_binary_encode for a register of n_bits qubits."""
    n_bits = require_count("n_bits", n_bits, 1)
    level = require_index("level", level, 2**n_bits)
    return format(level, f"0{n_bits}b")


# ---------------------------------------------------------------------------
# embedding into a register


def _check_targets(op: Operator, targets: Sequence[int], shape: HilbertShape) -> list[int]:
    """targets as a list, or raise unless they are distinct subsystems of
    shape (`fock._as_axes`) and op is an Operator on their dims, in order."""
    targets = _as_axes(targets, shape, "targets", "target")
    require_on("op", op, Operator, shape_of([shape.dims[t] for t in targets]))
    return targets


def embed(op: Operator, targets: Sequence[int],
          shape: int | Sequence[int] | HilbertShape) -> Operator:
    """Promote an operator on the given target subsystems (in order) to
    the full register."""
    shape = shape_of(shape)
    dims = shape.dims
    targets = _check_targets(op, targets, shape)
    rest = [i for i in range(len(dims)) if i not in targets]
    rest_dim = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(op.matrix, np.eye(rest_dim, dtype=complex))
    # big indexes the permuted register [targets..., rest...]; pull its
    # entries back into the original subsystem order
    order = targets + rest
    perm_dims = [dims[i] for i in order]
    idx = np.arange(shape.total_dim)
    multi = np.array(np.unravel_index(idx, dims))
    sigma = np.ravel_multi_index(tuple(multi[i] for i in order), perm_dims)
    mat = big[np.ix_(sigma, sigma)]
    return Operator(shape, mat)


def multiqudit_snap(target: int, theta: Sequence[float],
                    shape: int | Sequence[int] | HilbertShape) -> Operator:
    """SNAP on one qudit of a register, identity on the rest."""
    shp = shape_of(shape)
    target = require_index("target", target, shp.n_subsystems)
    return _gate("snap", (_snap_phases(theta, shp.dims[target]),), shp, [target])


def apply_embedded(op: Operator, targets: Sequence[int], psi: StateVector) -> StateVector:
    """Apply a sub-shape operator to the targeted subsystems of a state
    without materializing the full register matrix."""
    targets = _check_targets(op, targets, require_instance("psi", psi, StateVector).shape)
    out = _apply_tensor(op.matrix, targets, psi.amplitudes.reshape(psi.shape.dims))
    return StateVector(psi.shape, out.reshape(psi.shape.total_dim), psi.leakage)


def _apply_tensor(u: np.ndarray, targets: list[int], tens: np.ndarray) -> np.ndarray:
    """The matrix u on the target subsystems (in order) applied to those
    axes of a register tensor by one tensordot; a new C-ordered tensor."""
    tens = np.ascontiguousarray(tens, dtype=complex)
    k = len(targets)
    sub_dims = tuple(tens.shape[t] for t in targets)
    moved = np.tensordot(u.reshape(sub_dims + sub_dims), tens,
                         axes=(list(range(k, 2 * k)), targets))
    # tensordot leaves axes ordered [targets..., rest...]; restore
    return np.ascontiguousarray(np.moveaxis(moved, range(k), targets))


# ---------------------------------------------------------------------------
# circuits: one table entry per gate kind

# a field rule: (value, "<kind> gate field '<name>'", register shape) ->
# the checked value, or UsageError; only a field that needs the register
# shape, or a JSON decoding, has one
_Rule = Callable[[Any, str, HilbertShape], Any]
# a compiled gate: register tensor (one axis per subsystem, after any
# leading stack axes) in, tensor out. Kernels address the register axes
# from the end, target t of a d-subsystem register as axis t - d.
_Kernel = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _GateKind:
    """One gate kind. required and optional map its fields to their rules,
    or to None for a field that its kernel reads, as it reads the public
    constructor's argument. parse maps (register dims, convention,
    **fields) to (args, targets): the kernel's arguments and the targets
    in its subsystem order; an absent optional field takes parse's
    default. kernel maps (args, targets, register dims) to the compiled
    gate, the kind's one definition: circuits run it, and the public
    constructor and `GateSpec.build` run it on the identity (`_gate`)."""

    required: Mapping[str, _Rule | None]
    parse: Callable[..., tuple[tuple, list[int]]]
    kernel: Callable[[tuple, list[int], tuple[int, ...]], _Kernel]
    optional: Mapping[str, _Rule | None] = field(default_factory=dict)


def _subsystem(value, what: str, shape: HilbertShape) -> int:
    return require_index(what, value, shape.n_subsystems)


def _qubit(value, what: str, shape: HilbertShape) -> int:
    index = _subsystem(value, what, shape)
    if shape.dims[index] != 2:
        raise UsageError(f"{what} must name a qubit (dim 2), got dim {shape.dims[index]}")
    return index


def _amplitude(value, what: str, shape: HilbertShape):
    """A JSON [re, im] pair, read by `require_array`, as a complex; any
    other value as given, for the kernel's `require_complex`."""
    if isinstance(value, (list, tuple)):
        re, im = require_array(what, value, (2,), float).tolist()
        return complex(re, im)
    return value


def _snap_phases(theta, n: int | None, what: str = "theta") -> np.ndarray:
    """The phases of a SNAP on n levels (any positive count for None), read
    by `require_array`: the one count and phase rule of every SNAP reader.
    Any count but n, or none at all, raises its ShapeError, and a
    max|theta| that fails `require_phase` NumericError."""
    phases = require_array(what, theta, (n,), float, least=1)
    require_phase(what, float(np.abs(phases).max()), "SNAP phase max|theta|")
    return phases


def _snap_args(dims, convention, target, theta):
    return (_snap_phases(theta, dims[target], "snap gate field 'theta'"),), [target]


def _multisnap_args(dims, convention, targets, theta):
    sub_dims = tuple(dims[t] for t in targets)
    phases = _snap_phases(theta, math.prod(sub_dims), "multisnap gate field 'theta'")
    return (phases, sub_dims), targets


def _cond_rotation_args(dims, convention, qubit, mode, n, theta, phi):
    return (n, theta, phi, dims[mode]), require_distinct("cond_rotation qubit and mode",
                                                         [qubit, mode])


def _controlled_increment_args(dims, convention, control, target):
    require_distinct("controlled_increment control and target", (control, target))
    if dims[control] != dims[target]:
        raise UsageError(
            "controlled_increment needs equal control/target dims, got "
            f"{dims[control]} and {dims[target]}"
        )
    return (dims[control],), [control, target]


def _ecd_args(dims, convention, qubit, mode, beta):
    return (beta, dims[mode], convention), require_distinct("ecd qubit and mode", [qubit, mode])


def _phase_kernel(args, targets, dims) -> _Kernel:
    """SNAP and multisnap: a phase array on the target axes in register
    order, 1 on the rest, broadcast over the tensor and its stack axes."""
    phases = np.exp(1j * args[0]).reshape([dims[t] for t in targets])
    phases = phases.transpose(np.argsort(targets)).reshape(
        [d if i in targets else 1 for i, d in enumerate(dims)]
    )
    return lambda tens: tens * phases


@functools.cache
def _ortho_norm(n: int) -> np.float64:
    """1/√n, the factor np.fft computes on each call with norm="ortho"."""
    return np.reciprocal(np.sqrt(n, dtype=np.float64))


def _ortho_fft(x: np.ndarray, inverse: bool, axis: int = -1,
               out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.fft(x, axis=axis, norm="ortho", out=out), or np.fft.ifft if
    inverse, for float64 or complex128 x: the pocketfft kernel np.fft calls,
    with the same factor and axes, so bitwise the same result without
    np.fft's per-call Python work."""
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(x.dtype, 1j))
    transform = _pocketfft.ifft if inverse else _pocketfft.fft
    return transform(x, _ortho_norm(x.shape[axis]), axes=[(axis,), (), (axis,)], out=out)


def _fourier_kernel(args, targets, dims) -> _Kernel:
    """An orthonormal FFT along the target axis: ifft is
    F_jk = e^{2πijk/N}/√N, fft its inverse; the flag a (numpy) bool."""
    axis, inverse = targets[0] - len(dims), not require_flag("inverse", args[1])
    return lambda tens: _ortho_fft(tens, inverse, axis)


def _displacement_kernel(args, targets, dims) -> _Kernel:
    """The factored D(α) of `_displacement_map` on the mode axis."""
    axis = targets[0] - len(dims)
    d_alpha = _displacement_map(*args)

    def displace(tens: np.ndarray) -> np.ndarray:
        x = np.moveaxis(tens, axis, 0)
        out = d_alpha(x)
        return np.moveaxis(out.reshape(x.shape), 0, axis)

    return displace


def _ecd_kernel(args, targets, dims) -> _Kernel:
    """|e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2): displace the |g⟩ and |e⟩
    slices of the mode axis, then swap them; β read before it is halved."""
    beta, n, convention = args
    beta = require_complex("beta", beta, finite=True)
    qubit, mode = (t - len(dims) for t in targets)
    d_plus = _displacement_map(beta / 2, n, convention, "beta")
    d_minus = _displacement_map(-beta / 2, n, convention, "beta")

    def echo(tens: np.ndarray) -> np.ndarray:
        x = np.moveaxis(tens, (mode, qubit), (0, 1))
        out = np.stack([d_minus(x[:, 1]), d_plus(x[:, 0])], axis=1)
        return np.moveaxis(out.reshape(x.shape), (0, 1), (mode, qubit))

    return echo


def _two_level(u: np.ndarray, axis: int, levels: tuple[int, int],
               at: tuple[int, int] | None = None) -> _Kernel:
    """The 2×2 matrix u on levels (i, j) of one register axis, and if at =
    (other_axis, index) is given, only within that index of a second axis;
    axes count from the end. Every other amplitude is copied."""
    index = [slice(None)] * -min(axis, at[0] if at else 0)
    if at:
        index[at[0]] = at[1]
    i, j = ((..., *index[:axis], level, *index[axis:][1:]) for level in levels)

    def rotate(tens: np.ndarray) -> np.ndarray:
        out = np.array(tens, dtype=complex, order="C")
        a, b = tens[i], tens[j]
        out[i] = u[0, 0] * a + u[0, 1] * b
        out[j] = u[1, 0] * a + u[1, 1] * b
        return out

    return rotate


def _cond_rotation_kernel(args, targets, dims) -> _Kernel:
    """R(θ,φ) on the qubit axis within mode slice n alone."""
    n, theta, phi, mode_dim = args
    qubit, mode = (t - len(dims) for t in targets)
    n = require_index("selector level", n, mode_dim)
    return _two_level(_rotation(theta, phi), qubit, (0, 1), at=(mode, n))


def _givens_kernel(args, targets, dims) -> _Kernel:
    m, n, theta, dim = args
    levels = _two_levels("givens", m, n, dim)
    theta = require_finite("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return _two_level(np.array([[c, -s], [s, c]]), targets[0] - len(dims), levels)


def _increment_kernel(args, targets, dims) -> _Kernel:
    """|i⟩|j⟩ → |i⟩|(j+i) mod N⟩: output [i, k] reads input [i, (k − i)
    mod N] along the target axis, one gather by an index built here."""
    (n,), (control, target) = args, targets
    source = (np.arange(n) - np.arange(n)[:, None]) % n
    index = (source if control < target else source.T).reshape(
        [n if t in targets else 1 for t in range(len(dims))])
    axis = target - len(dims)
    return lambda tens: np.take_along_axis(tens, index[(None,) * (tens.ndim - index.ndim)], axis)


GATE_BUILDERS: dict[str, _GateKind] = {
    "snap": _GateKind({"target": _subsystem, "theta": None}, _snap_args, _phase_kernel),
    "multisnap": _GateKind({"targets": lambda v, what, shape: _as_axes(v, shape, what, what),
                            "theta": None},
                           _multisnap_args, _phase_kernel),
    "displacement": _GateKind(
        {"target": _subsystem, "alpha": _amplitude},
        lambda dims, convention, target, alpha: (
            (alpha, dims[target], convention), [target]),
        _displacement_kernel),
    "cond_rotation": _GateKind(
        {"qubit": _qubit, "mode": _subsystem, "n": None, "theta": None, "phi": None},
        _cond_rotation_args, _cond_rotation_kernel),
    "qubit_rotation": _GateKind(
        {"target": _qubit, "theta": None, "phi": None},
        lambda dims, convention, target, theta, phi: ((theta, phi), [target]),
        lambda args, targets, dims: _two_level(_rotation(*args), targets[0] - len(dims),
                                               (0, 1))),
    "controlled_increment": _GateKind(
        {"control": _subsystem, "target": _subsystem},
        _controlled_increment_args, _increment_kernel),
    "givens": _GateKind(
        {"target": _subsystem, "m": None, "n": None, "theta": None},
        lambda dims, convention, target, m, n, theta: (
            (m, n, theta, dims[target]), [target]),
        _givens_kernel),
    "phase_swap": _GateKind(
        {"target": _subsystem, "m": None, "n": None},
        lambda dims, convention, target, m, n: ((m, n, dims[target]), [target]),
        lambda args, targets, dims: _two_level(np.array([[0, 1], [1, 0]]), targets[0] - len(dims),
                                               _two_levels("phase_swap", *args))),
    "fourier": _GateKind(
        {"target": _subsystem},
        lambda dims, convention, target, inverse=False: (
            (dims[target], inverse), [target]),
        _fourier_kernel, optional={"inverse": None}),
    "ecd": _GateKind({"qubit": _qubit, "mode": _subsystem, "beta": _amplitude},
                     _ecd_args, _ecd_kernel),
}


def _gate(kind: str, args: tuple, shape: HilbertShape,
          targets: Sequence[int] | None = None) -> Operator:
    """The gate of kind with kernel arguments args on targets of shape
    (every subsystem, in order, by default): its kernel run on the
    identity. Every gate matrix is built here."""
    targets = list(range(shape.n_subsystems)) if targets is None else list(targets)
    return _on_identity(GATE_BUILDERS[kind].kernel(args, targets, shape.dims), shape)


def _on_identity(run: _Kernel, shape: HilbertShape) -> Operator:
    """The operator that run applies, from the columns of the identity run
    as one stack of register tensors."""
    dim = shape.total_dim
    columns = run(np.eye(dim, dtype=complex).reshape(dim, *shape.dims))
    return Operator(shape, columns.reshape(dim, dim).T)


@dataclass(frozen=True)
class GateSpec:
    """One circuit element: a gate kind plus its JSON-level parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.params, Mapping):
            raise UsageError(f"gate params must be a mapping, got {self.params!r}")
        # a one-shot iterator is read once, so compiling does not use it up
        object.__setattr__(self, "params", {name: tuple(v) if isinstance(v, Iterator) else v
                                            for name, v in self.params.items()})

    def build(self, shape: int | Sequence[int] | HilbertShape,
              convention: Convention = "standard") -> tuple[Operator, list[int]]:
        """The gate on its targets alone, in their order, and the targets."""
        shape = shape_of(shape)
        _, args, targets = _parse(self, shape, require_choice("convention", convention,
                                                              CONVENTIONS))
        return _gate(self.kind, args, HilbertShape(tuple(shape.dims[t] for t in targets))), targets

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        d.update(self.params)
        return d


def _parse(spec: GateSpec, shape: HilbertShape,
           convention: str) -> tuple[_GateKind, tuple, list[int]]:
    """The table entry of spec's kind, the arguments of its kernel on the
    register and its targets. An unknown kind, a missing or unlisted
    field, a field that its rule or its kernel's rejects, or a bad
    combination of fields raises UsageError (NumericError for a value
    out of a float's or a phase's range)."""
    gate = GATE_BUILDERS.get(spec.kind) if isinstance(spec.kind, str) else None
    if gate is None:
        raise UsageError(f"unknown gate kind {spec.kind!r}")
    what = f"{spec.kind} gate"
    try:
        params = read_object(spec.params, "", gate.required, gate.optional)
    except ParseError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    fields = {name: rule(params[name], f"{what} field {name!r}", shape) if rule else params[name]
              for name, rule in {**gate.required, **gate.optional}.items()
              if name in params}
    args, targets = gate.parse(shape.dims, convention, **fields)
    return gate, args, targets


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed register shape, compiled when it is
    made. A gate's error reads "gates[<i>]: ...", is raised from the rule's
    own error and carries i as `.gate`."""

    shape: HilbertShape
    gates: tuple[GateSpec, ...]
    displacement_convention: Convention = "standard"
    _kernels: tuple[_Kernel, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", shape_of(self.shape))
        object.__setattr__(self, "gates", require_sequence("gates", self.gates))
        object.__setattr__(self, "displacement_convention", require_choice(
            "displacement_convention", self.displacement_convention, CONVENTIONS))
        kernels = []
        for i, spec in enumerate(self.gates):
            require_instance(f"gates[{i}]", spec, GateSpec)
            try:
                gate, args, targets = _parse(spec, self.shape, self.displacement_convention)
                kernels.append(gate.kernel(args, targets, self.shape.dims))
            except (UsageError, NumericError) as exc:
                error = type(exc)(f"gates[{i}]: {exc}")
                error.gate = i
                raise error from exc
        object.__setattr__(self, "_kernels", tuple(kernels))

    def to_json(self) -> str:
        """The circuit document, with `_json_value` for the fields json cannot
        write, from which `circuit_from_json` rebuilds the same unitary bit for bit."""
        doc = {
            "shape": list(self.shape.dims),
            "displacement_convention": self.displacement_convention,
            "gates": [g.to_dict() for g in self.gates],
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=_json_value)


def _json_value(value):
    """A gate field value that json cannot write, as JSON: a numpy scalar or
    array by tolist(), another real (a Fraction) as a float, a complex as [re, im]."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, numbers.Complex):
        return [float(value.real), float(value.imag)]
    raise TypeError(f"gate field value {value!r} is not JSON serializable")


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit document, failing hard on unknown gate kinds or
    malformed entries; a fault of entry i is at "gates[i]"."""
    f = read_fields(text, "", {"shape": list},
                    {"displacement_convention": (object, "standard"), "gates": (list, [])})
    # a CapacityError passes: a well-formed document over the cap is not a parse failure
    with parse_errors(""):
        convention = require_choice("displacement_convention", f["displacement_convention"],
                                    CONVENTIONS)
        shape = HilbertShape(tuple(f["shape"]))
        specs = []
        for i, entry in enumerate(f["gates"]):
            key = f"gates[{i}]"
            kind = read_field(decode_object(entry, key), "kind", str, key)
            specs.append(GateSpec(kind, {k: v for k, v in entry.items() if k != "kind"}))
        try:
            return Circuit(shape, tuple(specs), convention)
        except (UsageError, NumericError) as exc:
            with parse_errors(f"gates[{exc.gate}]"):
                raise exc.__cause__ from None


def _run(circuit: Circuit, tens: np.ndarray) -> np.ndarray:
    """The compiled gates, left to right, on a register tensor, or on a
    stack of them along leading axes, each as if run alone (not in place)."""
    for kernel in circuit._kernels:
        tens = kernel(tens)
    return tens


def apply_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Run the compiled gates left to right."""
    psi = require_on("psi", psi, StateVector, require_instance("circuit", circuit, Circuit).shape)
    tens = _run(circuit, psi.amplitudes.reshape(circuit.shape.dims))
    return StateVector(psi.shape, tens.reshape(-1), psi.leakage)


def circuit_unitary(circuit: Circuit) -> Operator:
    """Full-register unitary of the circuit (first gate acts first): its
    compiled gates run on the identity."""
    return _on_identity(functools.partial(_run, circuit),
                        require_instance("circuit", circuit, Circuit).shape)
