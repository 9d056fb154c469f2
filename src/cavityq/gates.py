"""Gate vocabulary for cavity-encoded qudits and circuit plumbing.

Every constructor returns an Operator on the smallest shape the gate
acts on (one mode, or qubit⊗mode with the qubit first); circuits embed
those into the full register by target index, so targets need not be
adjacent. Displacements follow the standard convention
D(α) = exp(α a† − α* a); circuits record which convention their alphas
use via the "displacement_convention" field, and the legacy "paper"
spelling (exp(α a − α* a†)) is mapped by negating α at build time.

`GATE_BUILDERS` declares each gate kind once: its fields and their
checks, its public constructor and the structured kernel that circuits
run in its place; no kernel forms an operator bigger than 2×2. Circuit
compilation, `GateSpec.build` and `circuit_from_json` read that entry,
and `errors.read_object` checks its field list as it does every config's.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (CapacityError, NumericError, ParseError, ShapeError, UsageError, are_reals,
                     is_count, is_json_int, is_json_number, is_real, read_field,
                     read_object, require_complex, require_count, require_index,
                     require_real)
from .fock import (
    HilbertShape,
    Operator,
    StateVector,
    shape_of,
)

CONVENTIONS = ("standard", "paper")


# ---------------------------------------------------------------------------
# single-shape constructors


def snap(theta: Sequence[float]) -> Operator:
    """SNAP gate diag(e^{iθ_0}, ..., e^{iθ_{N-1}}) on one mode."""
    theta = _phases(theta, "snap theta")
    if theta.size < 1:
        raise UsageError("snap needs a non-empty 1-D phase list")
    return Operator(HilbertShape((theta.size,)), np.diag(np.exp(1j * theta)))


def multisnap(theta: Sequence[float], dims: Sequence[int]) -> Operator:
    """Joint multi-mode SNAP: one phase per joint occupation (n_0, n_1, ...),
    flattened with the first mode most significant."""
    shape = shape_of(dims)
    theta = _multisnap_theta(theta, shape.dims)
    return Operator(shape, np.diag(np.exp(1j * theta)))


def _multisnap_theta(theta: Sequence[float], dims: tuple[int, ...]) -> np.ndarray:
    theta = _phases(theta, "theta")
    expected = math.prod(dims)
    if theta.size != expected:
        raise UsageError(
            f"multisnap on dims {dims} needs {expected} phases, got {theta.size}"
        )
    return theta


def displacement(alpha: complex, n: int, convention: str = "standard") -> Operator:
    """Displacement D(α) = exp(α a† − α* a) truncated to n levels.

    The generator is a rotated quadrature, i(αa† − α*a) = |α| R (a + a†) R†
    with R = diag(e^{ikθ}) and θ = arg α + π/2, so D(α) = R Q e^{−i|α|Λ} Qᵀ R†
    with (Λ, Q) the real eigensystem of a + a†, cached per n. The result
    is therefore exactly unitary on the truncated space; it only agrees
    with the infinite-dimensional displacement on levels well below the
    cutoff (keep n ≳ |α|² + 5|α| above the states you care about).
    """
    shape = shape_of((n,))
    rot, angle, vecs = _displacement_factors(alpha, shape.total_dim, convention)
    # Q e^{−i|α|Λ} Qᵀ as two real products
    inner = (vecs * np.cos(angle)) @ vecs.T - 1j * ((vecs * np.sin(angle)) @ vecs.T)
    return Operator(shape, rot[:, None] * inner * rot.conj())


def _displacement_factors(alpha: complex, n: int, convention: str
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, |α|Λ, Q) with D(α) = R Q e^{−i|α|Λ} Qᵀ R† on n levels, α given
    in the named convention."""
    if convention not in CONVENTIONS:
        raise UsageError(f"unknown displacement convention {convention!r}")
    alpha = require_complex("alpha", alpha)
    if convention == "paper":
        alpha = -alpha
    evals, vecs = _quadrature_eigensystem(n)
    rot = np.exp(1j * (cmath.phase(alpha) + math.pi / 2) * np.arange(n))
    return rot, abs(alpha) * evals, vecs


def _displacement_map(alpha: complex, n: int, convention: str
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """D(α) along the first axis of an array of n rows, in factored form,
    O(n²m) for m columns and no n×n matrix: R·(Q·(e^{−i|α|Λ} ∘
    (Qᵀ·(R†·x)))). Returns an (n, m) array, m the size of the other axes.
    Q is real, so each product with it is one real product on the
    C-contiguous (n, m) complex array viewed as (n, 2m) reals."""
    rot, angle, vecs = _displacement_factors(alpha, n, convention)
    rot = rot[:, None]
    phases = np.exp(-1j * angle)[:, None]

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=complex).reshape(n, -1)
        y = (vecs.T @ (rot.conj() * x).view(float)).view(complex) * phases
        return rot * (vecs @ y.view(float)).view(complex)

    return apply


@functools.lru_cache(maxsize=8)
def _quadrature_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Λ, Q) with a + a† = Q diag(Λ) Qᵀ on n levels, real and read-only.
    Bounded: one n = 300 entry is 720 KB."""
    off = np.sqrt(np.arange(1.0, n))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return evals, vecs


def _displacement_eigensystem(alphas: np.ndarray,
                              n: int) -> tuple[np.ndarray, np.ndarray]:
    """(|α|Λ, R Q) for each α of a 1-D array: the eigensystem of the
    generator G = i(αa† − α*a) of D(α) = exp(−iG), read off the rotated
    quadrature form that `displacement` uses."""
    evals, vecs = _quadrature_eigensystem(n)
    rot = np.exp(1j * np.outer(np.angle(alphas) + math.pi / 2, np.arange(n)))
    return np.abs(alphas)[:, None] * evals, rot[:, :, None] * vecs


def qubit_rotation(theta: float, phi: float) -> Operator:
    """Bloch rotation exp(−i θ/2 (cosφ σx + sinφ σy)) on a qubit."""
    theta, phi = require_real("theta", theta), require_real("phi", phi)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    mat = np.array(
        [
            [c, -1j * s * np.exp(-1j * phi)],
            [-1j * s * np.exp(1j * phi), c],
        ]
    )
    return Operator(HilbertShape((2,)), mat)


def cond_rotation(n: int, theta: float, phi: float, mode_dim: int) -> Operator:
    """Qubit rotation applied only in the photon-number-n sector:
    R(θ,φ) ⊗ |n⟩⟨n| + I ⊗ (I − |n⟩⟨n|) on shape (qubit, mode)."""
    shape = shape_of((2, mode_dim))
    n = require_index("selector level", n, mode_dim)
    r = qubit_rotation(theta, phi).matrix
    pn = np.zeros((mode_dim, mode_dim), dtype=complex)
    pn[n, n] = 1.0
    mat = np.kron(r, pn) + np.kron(np.eye(2), np.eye(mode_dim) - pn)
    return Operator(shape, mat)


def controlled_increment(n: int) -> Operator:
    """|i⟩|j⟩ → |i⟩|(j+i) mod N⟩ on two N-level qudits."""
    shape = shape_of((n, n))
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + (j + i) % n, i * n + j] = 1.0
    return Operator(shape, mat)


def givens(m: int, n: int, theta: float, dim: int) -> Operator:
    """Real SO(2) rotation on span{|m⟩,|n⟩}: the 2×2 block
    [[cosθ, −sinθ], [sinθ, cosθ]], identity elsewhere. θ=π/2 maps
    |m⟩ → |n⟩ in full; equal superpositions sit at θ=π/4."""
    shape = shape_of((dim,))
    m, n = _two_levels("givens", m, n, dim)
    theta = require_real("theta", theta)
    mat = np.eye(dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    mat[m, m] = c
    mat[m, n] = -s
    mat[n, m] = s
    mat[n, n] = c
    return Operator(shape, mat)


def phase_swap(m: int, n: int, dim: int) -> Operator:
    """Transposition of basis levels m and n (amplitudes travel with
    their phases)."""
    shape = shape_of((dim,))
    m, n = _two_levels("phase_swap", m, n, dim)
    mat = np.eye(dim, dtype=complex)
    mat[m, m] = mat[n, n] = 0.0
    mat[m, n] = mat[n, m] = 1.0
    return Operator(shape, mat)


def _two_levels(kind: str, m: int, n: int, dim: int) -> tuple[int, int]:
    """(m, n) as two distinct levels of a dim-level mode, or UsageError."""
    m, n = require_index("level", m, dim), require_index("level", n, dim)
    if m == n:
        raise UsageError(f"{kind} needs two distinct levels")
    return m, n


def fourier(dim: int, inverse: bool = False) -> Operator:
    """Z_N Fourier gate F_{jk} = e^{2πi jk/N}/√N."""
    shape = shape_of((dim,))
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    mat = np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)
    if inverse:
        mat = mat.conj().T
    return Operator(shape, mat)


def ecd(beta: complex, mode_dim: int, convention: str = "standard") -> Operator:
    """Echoed conditional displacement on shape (qubit, mode):
    |e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2). At β=0 this is X ⊗ I."""
    shape = shape_of((2, mode_dim))
    beta = require_complex("beta", beta)
    d_plus = displacement(beta / 2, mode_dim, convention).matrix
    d_minus = displacement(-beta / 2, mode_dim, convention).matrix
    eg = np.zeros((2, 2), dtype=complex)
    ge = np.zeros((2, 2), dtype=complex)
    eg[1, 0] = 1.0
    ge[0, 1] = 1.0
    mat = np.kron(eg, d_plus) + np.kron(ge, d_minus)
    return Operator(shape, mat)


def qubit_binary_encode(bits: str | Sequence[int]) -> int:
    """Map a qubit-register bit pattern to the qudit level holding it,
    big-endian: '1111' → 15."""
    seq = list(bits)
    if not seq:
        raise UsageError("empty bit pattern")
    value = 0
    for b in seq:
        if not (b in ("0", "1") if isinstance(b, str) else is_count(b) and 0 <= b <= 1):
            raise UsageError(f"bit pattern may contain only 0/1, got {b!r}")
        value = value * 2 + int(b)
    return value


def qubit_binary_decode(level: int, n_bits: int) -> str:
    """Inverse of qubit_binary_encode for a register of n_bits qubits."""
    n_bits = require_count("n_bits", n_bits, 1)
    level = require_index("level", level, 2**n_bits)
    return format(level, f"0{n_bits}b")


# ---------------------------------------------------------------------------
# embedding into a register


def _check_targets(op: Operator, targets: Sequence[int], dims: tuple[int, ...]) -> list[int]:
    """targets as a list, or raise unless they are distinct subsystems of a
    register of dims whose dims, in order, are op's."""
    targets = [require_index("target", t, len(dims)) for t in targets]
    if len(set(targets)) != len(targets):
        raise UsageError(f"duplicate targets {targets}")
    sub_dims = tuple(dims[t] for t in targets)
    if op.shape.dims != sub_dims:
        raise ShapeError(
            f"gate on dims {op.shape.dims} cannot target subsystems of dims {sub_dims}"
        )
    return targets


def embed(op: Operator, targets: Sequence[int],
          shape: int | Sequence[int] | HilbertShape) -> Operator:
    """Promote an operator on the given target subsystems (in order) to
    the full register."""
    shape = shape_of(shape)
    dims = shape.dims
    targets = _check_targets(op, targets, dims)
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
    return embed(snap(_multisnap_theta(theta, (shp.dims[target],))), [target], shp)


def apply_embedded(op: Operator, targets: Sequence[int], psi: StateVector) -> StateVector:
    """Apply a sub-shape operator to the targeted subsystems of a state
    without materializing the full register matrix."""
    targets = _check_targets(op, targets, psi.shape.dims)
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
# the checked value, or UsageError
_Rule = Callable[[Any, str, HilbertShape], Any]
# a compiled gate: register tensor (one axis per subsystem, after any
# leading stack axes) in, tensor out. Kernels address the register axes
# from the end, target t of a d-subsystem register as axis t - d.
_Kernel = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _GateKind:
    """One gate kind. required and optional map its fields to their rules.
    parse maps (register dims, convention, **checked fields) to (args,
    targets): the arguments of dense, the kind's public constructor, and
    the targets in its subsystem order; an absent optional field takes
    parse's default. kernel maps (args, targets, register dims) to the
    compiled gate that circuits run in place of the dense operator."""

    required: Mapping[str, _Rule]
    parse: Callable[..., tuple[tuple, list[int]]]
    dense: Callable[..., Operator]
    kernel: Callable[[tuple, list[int], tuple[int, ...]], _Kernel]
    optional: Mapping[str, _Rule] = field(default_factory=dict)


def _subsystem(value, what: str, shape: HilbertShape) -> int:
    if not is_json_int(value):
        raise UsageError(f"{what} must be an integer index")
    if not 0 <= value < shape.n_subsystems:
        raise UsageError(f"{what}={value} outside [0, {shape.n_subsystems})")
    return value


def _qubit(value, what: str, shape: HilbertShape) -> int:
    index = _subsystem(value, what, shape)
    if shape.dims[index] != 2:
        raise UsageError(f"{what} must name a qubit (dim 2), got dim {shape.dims[index]}")
    return index


def _subsystems(value, what: str, shape: HilbertShape) -> list[int]:
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"{what} must be a non-empty list")
    return [_subsystem(t, what, shape) for t in value]


def _typed(test: Callable[[Any], bool], must: str, convert=None) -> _Rule:
    """The rule that takes a value passing test, as convert(value) if given."""
    def rule(value, what: str, shape: HilbertShape):
        if not test(value):
            raise UsageError(f"{what} must be {must}")
        return convert(value) if convert else value
    return rule


_integer = _typed(is_json_int, "an integer")
_real = _typed(is_json_number, "a number", float)
_flag = _typed(lambda value: isinstance(value, bool), "a boolean")


def _amplitude(value, what: str, shape: HilbertShape) -> complex:
    if is_json_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(is_json_number(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise UsageError(f"{what} must be a number or [re, im] pair")


def _phases(value, what: str, shape: HilbertShape | None = None) -> np.ndarray:
    """A list (or tuple, or 1-D numpy array) of finite real numbers
    (`is_real`), as a 1-D float64 array; every SNAP reader takes its phases
    with it. Only entries of a type other than int and float are tested one
    by one; a NaN or infinite phase raises NumericError."""
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(entries, (list, tuple)) or not are_reals(entries, is_real):
        raise UsageError(f"{what} must be a list of numbers")
    phases = np.asarray(value, dtype=float)
    if not np.isfinite(phases).all():
        raise NumericError(f"non-finite phases in {what}")
    return phases


def _snap_args(dims, convention, target, theta):
    if theta.size != dims[target]:
        raise UsageError(f"snap theta must list {dims[target]} phases for subsystem {target}")
    return (theta,), [target]


def _multisnap_args(dims, convention, targets, theta):
    if len(set(targets)) != len(targets):
        raise UsageError("multisnap targets must be distinct")
    sub_dims = tuple(dims[t] for t in targets)
    return (_multisnap_theta(theta, sub_dims), sub_dims), targets


def _qubit_and_mode(kind: str, qubit: int, mode: int) -> list[int]:
    if qubit == mode:
        raise UsageError(f"{kind} qubit and mode must differ")
    return [qubit, mode]


def _cond_rotation_args(dims, convention, qubit, mode, n, theta, phi):
    return (n, theta, phi, dims[mode]), _qubit_and_mode("cond_rotation", qubit, mode)


def _controlled_increment_args(dims, convention, control, target):
    if control == target:
        raise UsageError("controlled_increment control and target must differ")
    if dims[control] != dims[target]:
        raise UsageError(
            "controlled_increment needs equal control/target dims, got "
            f"{dims[control]} and {dims[target]}"
        )
    return (dims[control],), [control, target]


def _ecd_args(dims, convention, qubit, mode, beta):
    return (beta, dims[mode], convention), _qubit_and_mode("ecd", qubit, mode)


def _phase_kernel(args, targets, dims) -> _Kernel:
    """SNAP and multisnap: a phase array on the target axes in register
    order, 1 on the rest, broadcast over the tensor and its stack axes."""
    phases = np.exp(1j * args[0]).reshape([dims[t] for t in targets])
    phases = phases.transpose(np.argsort(targets)).reshape(
        [d if i in targets else 1 for i, d in enumerate(dims)]
    )
    return lambda tens: tens * phases


def _fourier_kernel(args, targets, dims) -> _Kernel:
    """An orthonormal FFT along the target axis: ifft is
    F_jk = e^{2πijk/N}/√N, fft its inverse."""
    axis = targets[0] - len(dims)
    transform = np.fft.fft if args[1] else np.fft.ifft
    return lambda tens: transform(tens, axis=axis, norm="ortho")


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
    slices of the mode axis, then swap them."""
    beta, n, convention = args
    qubit, mode = (t - len(dims) for t in targets)
    d_plus = _displacement_map(beta / 2, n, convention)
    d_minus = _displacement_map(-beta / 2, n, convention)

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
    return _two_level(qubit_rotation(theta, phi).matrix, qubit, (0, 1), at=(mode, n))


def _givens_kernel(args, targets, dims) -> _Kernel:
    m, n, theta, dim = args
    c, s = math.cos(theta), math.sin(theta)
    return _two_level(np.array([[c, -s], [s, c]]), targets[0] - len(dims),
                      _two_levels("givens", m, n, dim))


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
    "snap": _GateKind({"target": _subsystem, "theta": _phases},
                      _snap_args, snap, _phase_kernel),
    "multisnap": _GateKind({"targets": _subsystems, "theta": _phases},
                           _multisnap_args, multisnap, _phase_kernel),
    "displacement": _GateKind(
        {"target": _subsystem, "alpha": _amplitude},
        lambda dims, convention, target, alpha: (
            (alpha, dims[target], convention), [target]),
        displacement, _displacement_kernel),
    "cond_rotation": _GateKind(
        {"qubit": _qubit, "mode": _subsystem, "n": _integer,
         "theta": _real, "phi": _real},
        _cond_rotation_args, cond_rotation, _cond_rotation_kernel),
    "qubit_rotation": _GateKind(
        {"target": _qubit, "theta": _real, "phi": _real},
        lambda dims, convention, target, theta, phi: ((theta, phi), [target]),
        qubit_rotation,
        lambda args, targets, dims: _two_level(
            qubit_rotation(*args).matrix, targets[0] - len(dims), (0, 1))),
    "controlled_increment": _GateKind(
        {"control": _subsystem, "target": _subsystem},
        _controlled_increment_args, controlled_increment, _increment_kernel),
    "givens": _GateKind(
        {"target": _subsystem, "m": _integer, "n": _integer, "theta": _real},
        lambda dims, convention, target, m, n, theta: (
            (m, n, theta, dims[target]), [target]),
        givens, _givens_kernel),
    "phase_swap": _GateKind(
        {"target": _subsystem, "m": _integer, "n": _integer},
        lambda dims, convention, target, m, n: ((m, n, dims[target]), [target]),
        phase_swap,
        lambda args, targets, dims: _two_level(np.array([[0, 1], [1, 0]]), targets[0] - len(dims),
                                               _two_levels("phase_swap", *args))),
    "fourier": _GateKind(
        {"target": _subsystem},
        lambda dims, convention, target, inverse=False: (
            (dims[target], inverse), [target]),
        fourier, _fourier_kernel, optional={"inverse": _flag}),
    "ecd": _GateKind({"qubit": _qubit, "mode": _subsystem, "beta": _amplitude},
                     _ecd_args, ecd, _ecd_kernel),
}


@dataclass(frozen=True)
class GateSpec:
    """One circuit element: a gate kind plus its JSON-level parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def build(self, shape: HilbertShape, convention: str = "standard") -> tuple[Operator, list[int]]:
        gate, args, targets = _parse(self, shape, convention)
        return gate.dense(*args), targets

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        d.update(self.params)
        return d


def _parse(spec: GateSpec, shape: HilbertShape,
           convention: str) -> tuple[_GateKind, tuple, list[int]]:
    """The table entry of spec's kind, the arguments of its dense
    constructor on the register and its targets. An unknown kind, a
    missing or unlisted field, a field its rule rejects or a bad
    combination of fields raises UsageError."""
    gate = GATE_BUILDERS.get(spec.kind)
    if gate is None:
        raise UsageError(f"unknown gate kind {spec.kind!r}")
    what = f"{spec.kind} gate"
    try:
        params = read_object(spec.params, what, gate.required, gate.optional)
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    fields = {name: rule(params[name], f"{what} field {name!r}", shape)
              for name, rule in {**gate.required, **gate.optional}.items()
              if name in params}
    args, targets = gate.parse(shape.dims, convention, **fields)
    return gate, args, targets


def _compile(spec: GateSpec, shape: HilbertShape, convention: str) -> _Kernel:
    """Build one gate for the register once: its kind's structured kernel."""
    gate, args, targets = _parse(spec, shape, convention)
    return gate.kernel(args, targets, shape.dims)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed register shape. The gates are
    compiled for the register on first use and kept."""

    shape: HilbertShape
    gates: tuple[GateSpec, ...]
    displacement_convention: str = "standard"
    _kernels: tuple[_Kernel, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", shape_of(self.shape))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.displacement_convention not in CONVENTIONS:
            raise UsageError(
                f"unknown displacement convention {self.displacement_convention!r}"
            )

    def _compiled(self) -> tuple[_Kernel, ...]:
        """The compiled gates, in order. Errors carry the gate index."""
        if self._kernels is None:
            kernels = []
            for i, spec in enumerate(self.gates):
                try:
                    kernels.append(
                        _compile(spec, self.shape, self.displacement_convention)
                    )
                except (UsageError, NumericError) as exc:
                    raise type(exc)(f"gate {i} ({spec.kind}): {exc}") from exc
            object.__setattr__(self, "_kernels", tuple(kernels))
        return self._kernels

    def to_json(self) -> str:
        doc = {
            "shape": list(self.shape.dims),
            "displacement_convention": self.displacement_convention,
            "gates": [g.to_dict() for g in self.gates],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _kind_location(text: str, gate_index: int) -> str:
    """Best-effort line/column of the gate_index-th "kind" key in the
    source text, for parse errors."""
    pos = -1
    for _ in range(gate_index + 1):
        pos = text.find('"kind"', pos + 1)
        if pos < 0:
            return ""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return f" (line {line}, column {col})"


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit document, failing hard (with location) on unknown
    gate kinds or malformed entries."""
    doc = read_object(text, "circuit", ("shape",), ("displacement_convention", "gates"))
    shape_raw = doc["shape"]
    if (
        not isinstance(shape_raw, list)
        or not shape_raw
        or not all(is_json_int(d) for d in shape_raw)
    ):
        raise ParseError("circuit 'shape' must be a non-empty list of integers")
    convention = doc.get("displacement_convention", "standard")
    if convention not in CONVENTIONS:
        raise ParseError(
            f"displacement_convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    gates_raw = read_field(doc, "gates", list, "circuit", [])

    try:
        shape = HilbertShape(tuple(shape_raw))
    except CapacityError:
        raise  # a well-formed document over the cap is not a parse failure
    except Exception as exc:
        raise ParseError(f"circuit shape invalid: {exc}") from exc

    specs, kernels = [], []
    for i, entry in enumerate(gates_raw):
        if not isinstance(entry, dict):
            raise ParseError(f"gate {i}: entries must be objects")
        kind = entry.get("kind")
        try:
            if not isinstance(kind, str):
                raise UsageError("missing string 'kind'")
            spec = GateSpec(kind, {k: v for k, v in entry.items() if k != "kind"})
            kernels.append(_compile(spec, shape, convention))  # validates
        except (UsageError, NumericError) as exc:
            # every earlier entry holds a "kind", so the i-th "kind" in the
            # text is this entry's own, if it has one
            loc = _kind_location(text, i) if "kind" in entry else ""
            raise ParseError(f"gate {i}: {exc}{loc}") from exc
        specs.append(spec)
    circuit = Circuit(shape, tuple(specs), convention)
    object.__setattr__(circuit, "_kernels", tuple(kernels))
    return circuit


def _run(circuit: Circuit, tens: np.ndarray) -> np.ndarray:
    """The compiled gates, left to right, on a register tensor, or on a
    stack of them along leading axes, each as if run alone (not in place)."""
    for kernel in circuit._compiled():
        tens = kernel(tens)
    return tens


def apply_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Run the compiled gates left to right. Errors carry the gate index."""
    if psi.shape != circuit.shape:
        raise ShapeError(
            f"state on dims {psi.shape.dims} does not match circuit shape "
            f"{circuit.shape.dims}"
        )
    tens = _run(circuit, psi.amplitudes.reshape(circuit.shape.dims))
    return StateVector(psi.shape, tens.reshape(-1), psi.leakage)


def circuit_unitary(circuit: Circuit) -> Operator:
    """Full-register unitary of the circuit (first gate acts first): its
    compiled gates run on the columns of the identity as a stack of states."""
    dim = circuit.shape.total_dim
    columns = _run(circuit, np.eye(dim, dtype=complex).reshape(dim, *circuit.shape.dims))
    return Operator(circuit.shape, columns.reshape(dim, dim).T)
