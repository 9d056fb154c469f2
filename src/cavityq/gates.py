"""Gate vocabulary for cavity-encoded qudits and circuit plumbing.

Every constructor returns an Operator on the smallest shape the gate
acts on (one mode, or qubit⊗mode with the qubit first); circuits embed
those into the full register by target index, so targets need not be
adjacent. Displacements follow the standard convention
D(α) = exp(α a† − α* a); circuits record which convention their alphas
use via the "displacement_convention" field, and the legacy "paper"
spelling (exp(α a − α* a†)) is mapped by negating α at build time.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (CapacityError, ParseError, ShapeError, UsageError,
                     is_json_int, is_json_number, read_field, read_object)
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
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise UsageError("snap needs a non-empty 1-D phase list")
    return Operator(HilbertShape((theta.size,)), np.diag(np.exp(1j * theta)))


def multisnap(theta: Sequence[float], dims: Sequence[int]) -> Operator:
    """Joint multi-mode SNAP: one phase per joint occupation (n_0, n_1, ...),
    flattened with the first mode most significant."""
    dims = tuple(int(d) for d in dims)
    theta = _multisnap_theta(theta, dims)
    return Operator(HilbertShape(dims), np.diag(np.exp(1j * theta)))


def _multisnap_theta(theta: Sequence[float], dims: tuple[int, ...]) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    expected = math.prod(dims)
    if theta.ndim != 1 or theta.size != expected:
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
    rot, angle, vecs = _displacement_factors(alpha, n, convention)
    # Q e^{−i|α|Λ} Qᵀ as two real products
    inner = (vecs * np.cos(angle)) @ vecs.T - 1j * ((vecs * np.sin(angle)) @ vecs.T)
    return Operator(HilbertShape((n,)), rot[:, None] * inner * rot.conj())


def _displacement_factors(alpha: complex, n: int, convention: str
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, |α|Λ, Q) with D(α) = R Q e^{−i|α|Λ} Qᵀ R† on n levels, α given
    in the named convention."""
    if convention not in CONVENTIONS:
        raise UsageError(f"unknown displacement convention {convention!r}")
    alpha = complex(alpha)
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
    if not 0 <= n < mode_dim:
        raise UsageError(f"selector level {n} outside [0, {mode_dim})")
    r = qubit_rotation(theta, phi).matrix
    pn = np.zeros((mode_dim, mode_dim), dtype=complex)
    pn[n, n] = 1.0
    mat = np.kron(r, pn) + np.kron(np.eye(2), np.eye(mode_dim) - pn)
    return Operator(HilbertShape((2, mode_dim)), mat)


def controlled_increment(n: int) -> Operator:
    """|i⟩|j⟩ → |i⟩|(j+i) mod N⟩ on two N-level qudits."""
    if n < 1:
        raise UsageError(f"controlled increment needs dimension >= 1, got {n}")
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + (j + i) % n, i * n + j] = 1.0
    return Operator(HilbertShape((n, n)), mat)


def givens(m: int, n: int, theta: float, dim: int) -> Operator:
    """Real SO(2) rotation on span{|m⟩,|n⟩}: the 2×2 block
    [[cosθ, −sinθ], [sinθ, cosθ]], identity elsewhere. θ=π/2 maps
    |m⟩ → |n⟩ in full; equal superpositions sit at θ=π/4."""
    if m == n:
        raise UsageError("givens needs two distinct levels")
    for lvl in (m, n):
        if not 0 <= lvl < dim:
            raise UsageError(f"level {lvl} outside [0, {dim})")
    mat = np.eye(dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    mat[m, m] = c
    mat[m, n] = -s
    mat[n, m] = s
    mat[n, n] = c
    return Operator(HilbertShape((dim,)), mat)


def phase_swap(m: int, n: int, dim: int) -> Operator:
    """Transposition of basis levels m and n (amplitudes travel with
    their phases)."""
    if m == n:
        raise UsageError("phase_swap needs two distinct levels")
    for lvl in (m, n):
        if not 0 <= lvl < dim:
            raise UsageError(f"level {lvl} outside [0, {dim})")
    mat = np.eye(dim, dtype=complex)
    mat[m, m] = mat[n, n] = 0.0
    mat[m, n] = mat[n, m] = 1.0
    return Operator(HilbertShape((dim,)), mat)


def fourier(dim: int, inverse: bool = False) -> Operator:
    """Z_N Fourier gate F_{jk} = e^{2πi jk/N}/√N."""
    if dim < 1:
        raise UsageError(f"fourier needs dimension >= 1, got {dim}")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    mat = np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)
    if inverse:
        mat = mat.conj().T
    return Operator(HilbertShape((dim,)), mat)


def ecd(beta: complex, mode_dim: int, convention: str = "standard") -> Operator:
    """Echoed conditional displacement on shape (qubit, mode):
    |e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2). At β=0 this is X ⊗ I."""
    d_plus = displacement(complex(beta) / 2, mode_dim, convention).matrix
    d_minus = displacement(-complex(beta) / 2, mode_dim, convention).matrix
    eg = np.zeros((2, 2), dtype=complex)
    ge = np.zeros((2, 2), dtype=complex)
    eg[1, 0] = 1.0
    ge[0, 1] = 1.0
    mat = np.kron(eg, d_plus) + np.kron(ge, d_minus)
    return Operator(HilbertShape((2, mode_dim)), mat)


def qubit_binary_encode(bits: str | Sequence[int]) -> int:
    """Map a qubit-register bit pattern to the qudit level holding it,
    big-endian: '1111' → 15."""
    if isinstance(bits, str):
        seq = list(bits)
    else:
        seq = list(bits)
    if not seq:
        raise UsageError("empty bit pattern")
    value = 0
    for b in seq:
        if b in ("0", 0):
            value = value * 2
        elif b in ("1", 1):
            value = value * 2 + 1
        else:
            raise UsageError(f"bit pattern may contain only 0/1, got {b!r}")
    return value


def qubit_binary_decode(level: int, n_bits: int) -> str:
    """Inverse of qubit_binary_encode for a register of n_bits qubits."""
    if n_bits < 1:
        raise UsageError("need at least one bit")
    if not 0 <= level < 2**n_bits:
        raise UsageError(f"level {level} outside [0, {2 ** n_bits})")
    return format(level, f"0{n_bits}b")


# ---------------------------------------------------------------------------
# embedding into a register


def embed(op: Operator, targets: Sequence[int], shape: HilbertShape) -> Operator:
    """Promote an operator on the given target subsystems (in order) to
    the full register."""
    targets = list(targets)
    dims = shape.dims
    if len(set(targets)) != len(targets):
        raise UsageError(f"duplicate targets {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise UsageError(f"target {t} outside [0, {len(dims)})")
    sub_dims = tuple(dims[t] for t in targets)
    if op.shape.dims != sub_dims:
        raise ShapeError(
            f"gate on dims {op.shape.dims} cannot target subsystems of dims {sub_dims}"
        )
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
    if not 0 <= target < shp.n_subsystems:
        raise UsageError(f"target {target} outside [0, {shp.n_subsystems})")
    theta = np.asarray(theta, dtype=float)
    if theta.size != shp.dims[target]:
        raise UsageError(
            f"snap on subsystem of dim {shp.dims[target]} needs that many phases, "
            f"got {theta.size}"
        )
    return embed(snap(theta), [target], shp)


def apply_embedded(op: Operator, targets: Sequence[int], psi: StateVector) -> StateVector:
    """Apply a sub-shape operator to the targeted subsystems of a state
    without materializing the full register matrix."""
    targets = list(targets)
    dims = psi.shape.dims
    sub_dims = tuple(dims[t] for t in targets)
    if op.shape.dims != sub_dims:
        raise ShapeError(
            f"gate on dims {op.shape.dims} cannot target subsystems of dims {sub_dims}"
        )
    tens = psi.amplitudes.reshape(dims)
    k = len(targets)
    u = op.matrix.reshape(sub_dims + sub_dims)
    moved = np.tensordot(u, tens, axes=(list(range(k, 2 * k)), targets))
    # tensordot leaves axes ordered [targets..., rest...]; restore
    rest = [i for i in range(len(dims)) if i not in targets]
    current = targets + rest
    perm = [current.index(i) for i in range(len(dims))]
    out = np.transpose(moved, perm).reshape(psi.shape.total_dim)
    return StateVector(psi.shape, out, psi.leakage)


# ---------------------------------------------------------------------------
# circuits

# builder: params, register shape, convention -> (sub-operator, targets)
_BuildFn = Callable[[Mapping[str, Any], HilbertShape, str], tuple[Operator, list[int]]]


def _need(params: Mapping[str, Any], key: str, kind: str):
    if key not in params:
        raise UsageError(f"{kind} gate missing field {key!r}")
    return params[key]


def _as_subsystem(value, shape: HilbertShape, kind: str, field_name: str) -> int:
    if not is_json_int(value):
        raise UsageError(f"{kind} gate field {field_name!r} must be an integer index")
    if not 0 <= value < shape.n_subsystems:
        raise UsageError(
            f"{kind} gate field {field_name!r}={value} outside [0, {shape.n_subsystems})"
        )
    return value


def _as_complex(value, kind: str, field_name: str) -> complex:
    if is_json_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(is_json_number(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise UsageError(f"{kind} gate field {field_name!r} must be a number or [re, im] pair")


def _as_float(value, kind: str, field_name: str) -> float:
    if is_json_number(value):
        return float(value)
    raise UsageError(f"{kind} gate field {field_name!r} must be a number")


def _snap_phases(params, shape) -> tuple[np.ndarray, list[int]]:
    target = _as_subsystem(_need(params, "target", "snap"), shape, "snap", "target")
    theta = _need(params, "theta", "snap")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size != shape.dims[target]:
        raise UsageError(
            f"snap theta must list {shape.dims[target]} phases for subsystem {target}"
        )
    return theta, [target]


def _multisnap_phases(params, shape) -> tuple[np.ndarray, list[int]]:
    targets = _need(params, "targets", "multisnap")
    if not isinstance(targets, (list, tuple)) or not targets:
        raise UsageError("multisnap gate field 'targets' must be a non-empty list")
    targets = [_as_subsystem(t, shape, "multisnap", "targets") for t in targets]
    if len(set(targets)) != len(targets):
        raise UsageError("multisnap targets must be distinct")
    dims = tuple(shape.dims[t] for t in targets)
    theta = _multisnap_theta(_need(params, "theta", "multisnap"), dims)
    return theta, targets


def _build_snap(params, shape, convention):
    theta, targets = _snap_phases(params, shape)
    return snap(theta), targets


def _build_multisnap(params, shape, convention):
    theta, targets = _multisnap_phases(params, shape)
    return multisnap(theta, [shape.dims[t] for t in targets]), targets


def _displacement_params(params, shape) -> tuple[complex, int]:
    target = _as_subsystem(
        _need(params, "target", "displacement"), shape, "displacement", "target"
    )
    alpha = _as_complex(_need(params, "alpha", "displacement"), "displacement", "alpha")
    return alpha, target


def _build_displacement(params, shape, convention):
    alpha, target = _displacement_params(params, shape)
    return displacement(alpha, shape.dims[target], convention), [target]


def _build_cond_rotation(params, shape, convention):
    qubit = _as_subsystem(_need(params, "qubit", "cond_rotation"), shape, "cond_rotation", "qubit")
    mode = _as_subsystem(_need(params, "mode", "cond_rotation"), shape, "cond_rotation", "mode")
    if shape.dims[qubit] != 2:
        raise UsageError(f"cond_rotation qubit subsystem must have dim 2, got {shape.dims[qubit]}")
    n = _need(params, "n", "cond_rotation")
    if not is_json_int(n):
        raise UsageError("cond_rotation gate field 'n' must be an integer")
    theta = _as_float(_need(params, "theta", "cond_rotation"), "cond_rotation", "theta")
    phi = _as_float(_need(params, "phi", "cond_rotation"), "cond_rotation", "phi")
    return cond_rotation(n, theta, phi, shape.dims[mode]), [qubit, mode]


def _build_qubit_rotation(params, shape, convention):
    target = _as_subsystem(
        _need(params, "target", "qubit_rotation"), shape, "qubit_rotation", "target"
    )
    if shape.dims[target] != 2:
        raise UsageError(
            f"qubit_rotation target must have dim 2, got {shape.dims[target]}"
        )
    theta = _as_float(_need(params, "theta", "qubit_rotation"), "qubit_rotation", "theta")
    phi = _as_float(_need(params, "phi", "qubit_rotation"), "qubit_rotation", "phi")
    return qubit_rotation(theta, phi), [target]


def _build_controlled_increment(params, shape, convention):
    control = _as_subsystem(
        _need(params, "control", "controlled_increment"), shape, "controlled_increment", "control"
    )
    target = _as_subsystem(
        _need(params, "target", "controlled_increment"), shape, "controlled_increment", "target"
    )
    if control == target:
        raise UsageError("controlled_increment control and target must differ")
    if shape.dims[control] != shape.dims[target]:
        raise UsageError(
            "controlled_increment needs equal control/target dims, got "
            f"{shape.dims[control]} and {shape.dims[target]}"
        )
    return controlled_increment(shape.dims[control]), [control, target]


def _build_givens(params, shape, convention):
    target = _as_subsystem(_need(params, "target", "givens"), shape, "givens", "target")
    m = _need(params, "m", "givens")
    n = _need(params, "n", "givens")
    for name, v in (("m", m), ("n", n)):
        if not is_json_int(v):
            raise UsageError(f"givens gate field {name!r} must be an integer")
    theta = _as_float(_need(params, "theta", "givens"), "givens", "theta")
    return givens(m, n, theta, shape.dims[target]), [target]


def _build_phase_swap(params, shape, convention):
    target = _as_subsystem(_need(params, "target", "phase_swap"), shape, "phase_swap", "target")
    m = _need(params, "m", "phase_swap")
    n = _need(params, "n", "phase_swap")
    for name, v in (("m", m), ("n", n)):
        if not is_json_int(v):
            raise UsageError(f"phase_swap gate field {name!r} must be an integer")
    return phase_swap(m, n, shape.dims[target]), [target]


def _fourier_axis(params, shape) -> tuple[int, bool]:
    target = _as_subsystem(_need(params, "target", "fourier"), shape, "fourier", "target")
    inverse = params.get("inverse", False)
    if not isinstance(inverse, bool):
        raise UsageError("fourier gate field 'inverse' must be a boolean")
    return target, inverse


def _build_fourier(params, shape, convention):
    target, inverse = _fourier_axis(params, shape)
    return fourier(shape.dims[target], inverse=inverse), [target]


def _ecd_params(params, shape) -> tuple[complex, int, int]:
    qubit = _as_subsystem(_need(params, "qubit", "ecd"), shape, "ecd", "qubit")
    mode = _as_subsystem(_need(params, "mode", "ecd"), shape, "ecd", "mode")
    if qubit == mode:
        raise UsageError("ecd qubit and mode must differ")
    if shape.dims[qubit] != 2:
        raise UsageError(f"ecd qubit subsystem must have dim 2, got {shape.dims[qubit]}")
    beta = _as_complex(_need(params, "beta", "ecd"), "ecd", "beta")
    return beta, qubit, mode


def _build_ecd(params, shape, convention):
    beta, qubit, mode = _ecd_params(params, shape)
    return ecd(beta, shape.dims[mode], convention), [qubit, mode]


GATE_BUILDERS: dict[str, _BuildFn] = {
    "snap": _build_snap,
    "multisnap": _build_multisnap,
    "displacement": _build_displacement,
    "cond_rotation": _build_cond_rotation,
    "qubit_rotation": _build_qubit_rotation,
    "controlled_increment": _build_controlled_increment,
    "givens": _build_givens,
    "phase_swap": _build_phase_swap,
    "fourier": _build_fourier,
    "ecd": _build_ecd,
}


@dataclass(frozen=True)
class GateSpec:
    """One circuit element: a gate kind plus its JSON-level parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def build(self, shape: HilbertShape, convention: str = "standard") -> tuple[Operator, list[int]]:
        builder = GATE_BUILDERS.get(self.kind)
        if builder is None:
            raise UsageError(f"unknown gate kind {self.kind!r}")
        return builder(self.params, shape, convention)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        d.update(self.params)
        return d


# a compiled gate: register tensor (one axis per subsystem) in, tensor out
_Kernel = Callable[[np.ndarray], np.ndarray]


def _compile(spec: GateSpec, shape: HilbertShape, convention: str) -> _Kernel:
    """Build one gate for the register once. SNAP and multisnap become a
    phase array broadcast over their target axes, Fourier an orthonormal
    FFT along its target axis (ifft is F_jk = e^{2πijk/N}/√N, fft its
    inverse), displacement and ECD the factored D(α) of
    `_displacement_map` on their mode axis, and every other kind its
    operator, applied by tensordot."""
    dims = shape.dims
    if spec.kind in ("snap", "multisnap"):
        phases_of = _snap_phases if spec.kind == "snap" else _multisnap_phases
        theta, targets = phases_of(spec.params, shape)
        # phase array on the target axes in register order, 1 on the rest
        phases = np.exp(1j * theta).reshape([dims[t] for t in targets])
        phases = phases.transpose(np.argsort(targets)).reshape(
            [d if i in targets else 1 for i, d in enumerate(dims)]
        )
        return lambda tens: tens * phases
    if spec.kind == "fourier":
        axis, inverse = _fourier_axis(spec.params, shape)
        transform = np.fft.fft if inverse else np.fft.ifft
        return lambda tens: transform(tens, axis=axis, norm="ortho")
    if spec.kind == "displacement":
        alpha, axis = _displacement_params(spec.params, shape)
        d_alpha = _displacement_map(alpha, dims[axis], convention)

        def displace(tens: np.ndarray) -> np.ndarray:
            x = np.moveaxis(tens, axis, 0)
            out = d_alpha(x)
            return np.moveaxis(out.reshape(x.shape), 0, axis)

        return displace
    if spec.kind == "ecd":
        # |e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2): displace the |g⟩ and |e⟩
        # slices of the mode axis, then swap them
        beta, qubit, mode = _ecd_params(spec.params, shape)
        d_plus = _displacement_map(beta / 2, dims[mode], convention)
        d_minus = _displacement_map(-beta / 2, dims[mode], convention)

        def echo(tens: np.ndarray) -> np.ndarray:
            x = np.moveaxis(tens, (mode, qubit), (0, 1))
            out = np.stack([d_minus(x[:, 1]), d_plus(x[:, 0])], axis=1)
            return np.moveaxis(out.reshape(x.shape), (0, 1), (mode, qubit))

        return echo
    op, targets = spec.build(shape, convention)

    def dense(tens: np.ndarray) -> np.ndarray:
        out = apply_embedded(op, targets, StateVector(shape, tens.reshape(-1)))
        return out.amplitudes.reshape(dims)

    return dense


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
                except (UsageError, ShapeError) as exc:
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
        loc = _kind_location(text, i)
        if not isinstance(entry, dict):
            raise ParseError(f"gate {i}: entries must be objects{loc}")
        kind = entry.get("kind")
        if not isinstance(kind, str):
            raise ParseError(f"gate {i}: missing string 'kind'{loc}")
        if kind not in GATE_BUILDERS:
            raise ParseError(f"gate {i}: unknown gate kind {kind!r}{loc}")
        params = {k: v for k, v in entry.items() if k != "kind"}
        spec = GateSpec(kind, params)
        try:
            kernels.append(_compile(spec, shape, convention))  # validates
        except UsageError as exc:
            raise ParseError(f"gate {i}: {exc}{loc}") from exc
        specs.append(spec)
    circuit = Circuit(shape, tuple(specs), convention)
    object.__setattr__(circuit, "_kernels", tuple(kernels))
    return circuit


def _run(circuit: Circuit, tens: np.ndarray) -> np.ndarray:
    """The compiled gates, left to right, on a register tensor (not in place)."""
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
    """Full-register unitary of the circuit (first gate acts first)."""
    total = np.eye(circuit.shape.total_dim, dtype=complex)
    for i, spec in enumerate(circuit.gates):
        try:
            op, targets = spec.build(circuit.shape, circuit.displacement_convention)
            total = embed(op, targets, circuit.shape).matrix @ total
        except (UsageError, ShapeError) as exc:
            raise type(exc)(f"gate {i} ({spec.kind}): {exc}") from exc
    return Operator(circuit.shape, total)
