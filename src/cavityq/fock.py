"""Truncated-Fock-space states and operators.

Multi-mode registers are flattened row-major with the *first* listed
subsystem most significant, i.e. the flat index of |n_0, n_1, ...⟩ is
n_0 * (d_1 * d_2 * ...) + n_1 * (d_2 * ...) + ... ; this matches the
ordering of numpy.kron(A, B). All arrays are complex128 and frozen
after construction, and every function here is pure, so results are
bitwise reproducible in single-threaded runs. It holds the one copy of the
truncated-state rule, of the Hermitian exponential, of tensor, of the 2x2
block reader `_sector_entries` and of `_ordered_product`, the one fold of a
chunked product of maps (SU(2) sectors, larger blocks, RK4 step maps).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateInputError,
    InvalidDimensionError,
    NumericError,
    ShapeError,
    UsageError,
    is_count,
    require_array,
    require_complex,
    require_distinct,
    require_finite,
    require_index,
    require_instance,
    require_nonnegative,
    require_on,
    require_phase,
    require_sequence,
)

DEFAULT_DIM_CAP = 2**20
DIM_CAP_ENV_VAR = "CAVITYQ_DIM_CAP"

# Leakage beyond this marks a state as badly truncated.
TRUNCATION_TOL = 1e-6


class TruncationWarning(UserWarning):
    """A constructed state lost non-negligible weight to truncation."""


def dim_cap() -> int:
    """Active total-dimension cap (env override, else 2**20)."""
    raw = os.environ.get(DIM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"{DIM_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise UsageError(f"{DIM_CAP_ENV_VAR} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class HilbertShape:
    """Ordered truncation dimensions of a tensor-product register."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise InvalidDimensionError(
                f"HilbertShape dims must be a sequence of dimensions, got {self.dims!r};"
                f" shape_of({self.dims!r}) is the shape of one mode") from None
        if not dims:
            raise InvalidDimensionError("shape needs at least one subsystem")
        for d in dims:
            if not is_count(d) or d < 1:
                raise InvalidDimensionError(
                    f"subsystem dimension must be a positive integer, got {d!r}")
        dims = tuple(map(int, dims))
        total = math.prod(dims)
        cap = dim_cap()
        if total > cap:
            raise CapacityError(f"total dimension {total} exceeds cap {cap}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def flat_index(self, occupations: Sequence[int]) -> int:
        """Flat basis index of |n_0, n_1, ...⟩."""
        occupations = require_sequence("occupations", occupations)
        if len(occupations) != len(self.dims):
            raise ShapeError(
                f"expected {len(self.dims)} occupation numbers, got {len(occupations)}"
            )
        idx = 0
        for n, d in zip(occupations, self.dims):
            idx = idx * d + require_index("occupation", n, d)
        return idx

    def unflatten(self, index: int) -> tuple[int, ...]:
        """Per-subsystem occupations of a flat basis index."""
        index = require_index("index", index, self.total_dim)
        occ = []
        for d in reversed(self.dims):
            occ.append(index % d)
            index //= d
        return tuple(reversed(occ))


def shape_of(dims: int | Sequence[int] | HilbertShape, name: str | None = None) -> HilbertShape:
    """A HilbertShape as is, the dims of a list, tuple or 1-D array, or any
    other value as the dimension of one mode; called before any allocation.
    An InvalidDimensionError names `name`, the argument dims came from, if
    given."""
    if isinstance(dims, HilbertShape):
        return dims
    try:
        if isinstance(dims, (list, tuple)) or not isinstance(dims, int) and np.ndim(dims) == 1:
            return HilbertShape(tuple(dims))
        return HilbertShape((dims,))
    except InvalidDimensionError as exc:
        if name is None:
            raise
        raise InvalidDimensionError(f"{name}: {exc}") from None


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a HilbertShape. `leakage` records probability lost
    to truncation by the constructor (before renormalization)."""

    shape: HilbertShape
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        shape = shape_of(self.shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "amplitudes",
                           require_array("amplitudes", self.amplitudes, (shape.total_dim,)))
        object.__setattr__(self, "leakage", require_nonnegative("leakage", self.leakage))

    @property
    def dim(self) -> int:
        return self.shape.total_dim

    @property
    def truncation_warning(self) -> bool:
        return self.leakage > TRUNCATION_TOL

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-300:
            raise UsageError("cannot normalize a null state")
        return StateVector(self.shape, self.amplitudes / n, self.leakage)

    def overlap(self, other: "StateVector") -> complex:
        """⟨self|other⟩."""
        other = require_on("other", other, StateVector, self.shape)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense linear operator on a HilbertShape."""

    shape: HilbertShape
    matrix: np.ndarray

    def __post_init__(self) -> None:
        shape = shape_of(self.shape)
        object.__setattr__(self, "shape", shape)
        d = shape.total_dim
        object.__setattr__(self, "matrix", require_array("matrix", self.matrix, (d, d)))

    @property
    def dim(self) -> int:
        return self.shape.total_dim

    def dagger(self) -> "Operator":
        return Operator(self.shape, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        other = require_on("other", other, Operator, self.shape)
        return Operator(self.shape, self.matrix @ other.matrix)

    def apply(self, psi: StateVector) -> StateVector:
        psi = require_on("psi", psi, StateVector, self.shape)
        return StateVector(psi.shape, self.matrix @ psi.amplitudes, psi.leakage)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        tol = require_finite("tol", tol)
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def is_unitary(self, tol: float = 1e-10) -> bool:
        tol = require_finite("tol", tol)
        d = self.dim
        return bool(
            np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d))) <= tol
        )


def basis_state(shape: int | Sequence[int] | HilbertShape,
                occupations: int | Sequence[int]) -> StateVector:
    """Computational basis state |n_0, n_1, ...⟩. A bare int is read as a
    flat index, which for a single mode is just the occupation number."""
    shp = shape_of(shape)
    if np.ndim(occupations) == 0:
        idx = require_index("flat index", occupations, shp.total_dim)
    else:
        idx = shp.flat_index(occupations)
    amps = np.zeros(shp.total_dim, dtype=np.complex128)
    amps[idx] = 1.0
    return StateVector(shp, amps)


def identity(shape: int | Sequence[int] | HilbertShape) -> Operator:
    shp = shape_of(shape)
    return Operator(shp, np.eye(shp.total_dim, dtype=np.complex128))


def annihilation(n: int) -> Operator:
    """Lowering operator with ⟨n-1|a|n⟩ = √n on an n-dimensional mode."""
    shape = shape_of((n,))
    mat = np.diag(np.sqrt(np.arange(1, n, dtype=np.float64)), k=1).astype(np.complex128)
    return Operator(shape, mat)


def creation(n: int) -> Operator:
    return annihilation(n).dagger()


def number_operator(n: int) -> Operator:
    return Operator(shape_of((n,)), np.diag(np.arange(n)).astype(np.complex128))


def tensor(*factors):
    """Kronecker product of states or of operators, first factor most
    significant; a state carries the largest leakage of its factors.
    Raises CapacityError if the product dimension exceeds the active cap."""
    factors = require_sequence("factors", factors, least=1)
    first = require_instance("factor 0", factors[0], (StateVector, Operator))
    states = isinstance(first, StateVector)
    for i, f in enumerate(factors[1:], 1):
        require_instance(f"factor {i}", f, StateVector if states else Operator)
    # the capacity check happens here, before any kron
    shp = HilbertShape(tuple(d for f in factors for d in f.shape.dims))
    out = reduce(np.kron, [f.amplitudes if states else f.matrix for f in factors])
    if states:
        return StateVector(shp, out, max(f.leakage for f in factors))
    return Operator(shp, out)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices, written out over an inner dimension of
    one or two, where numpy's matmul runs several times slower."""
    if a.shape[-1] > 2:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    return out + a[..., :, 1:] * b[..., 1:, :] if a.shape[-1] == 2 else out


def eig_exponential(evals: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from the eigh output (evals, vecs) of Hermitian h, batched
    over leading axes: V e^{-i Λ t} V†, with 2x2 products written out."""
    return _matmul(vecs * np.exp(-1j * evals * t)[..., None, :],
                   vecs.conj().swapaxes(-1, -2))


def _sector_entries(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half traces c, half diagonal differences bz and lower entries h10
    of (..., 2, 2) Hermitian h, read like eigh from the lower triangle: the
    package's one reader of a 2x2 block."""
    h00, h11 = h[..., 0, 0].real, h[..., 1, 1].real
    return (h00 + h11) / 2, (h00 - h11) / 2, h[..., 1, 0]


def su2_factors(bz: np.ndarray, h10: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with exp(-i h t) = e^{-ict} [[a, -conj(b)], [b, conj(a)]] for
    2x2 Hermitian h = [[c + bz, conj(h10)], [h10, c - bz]], c and bz real,
    elementwise. The closed form is e^{-ict} (cos(theta) I - i t sinc(theta)
    (h - c I)) with theta = t sqrt(bz^2 + |h10|^2) and sinc(theta) =
    sin(theta)/theta, so a = cos(theta) - i t sinc(theta) bz and
    b = -i t sinc(theta) h10: the SU(2) part of the package's one 2x2
    exponential, whose phase e^{-ict} its callers take."""
    theta = np.sqrt(bz**2 + np.abs(h10) ** 2) * t
    y = np.where(theta, theta, np.finfo(float).eps)  # sinc(0): sin(eps)/eps = 1
    sin = -1j * t * (np.sin(y) / y)
    return np.cos(theta) + sin * bz, sin * h10


def _su2_product(later: Sequence[np.ndarray], earlier: Sequence[np.ndarray]) -> tuple:
    """The `su2_factors` (a, b) of later @ earlier, elementwise."""
    (a1, b1), (a0, b0) = later, earlier
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


def su2_matrix(phase: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrices phase * [[a, -conj(b)], [b, conj(a)]]."""
    u = np.empty((*np.shape(a), 2, 2), dtype=np.complex128)
    u[..., 0, 0] = phase * a
    u[..., 1, 1] = phase * a.conj()
    u[..., 0, 1] = -phase * b.conj()
    u[..., 1, 0] = phase * b
    return u


def _ordered_product(product, chunks: Iterable[list[np.ndarray]]) -> list[np.ndarray]:
    """The ordered product of maps given in chunks, earliest first. A chunk
    is a list of arrays whose leading axis runs over its maps, and
    product(later, earlier) multiplies two such lists elementwise. Each
    chunk pairs neighbours from its last map back, an odd first map waiting
    for the next round, as the last entry of a Hillis-Steele scan does, so
    the two agree bitwise; the chunks are then multiplied in order. Returns
    the product's arrays without the leading axis."""
    total = None
    for maps in chunks:
        while len(maps[0]) > 1:
            odd = len(maps[0]) % 2
            pairs = product([m[1 + odd::2] for m in maps], [m[odd::2] for m in maps])
            maps = [np.concatenate((m[:1], p)) if odd else p for m, p in zip(maps, pairs)]
        total = maps if total is None else product(maps, total)
    return [m[0] for m in total]


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h of shape (..., b, b), batched over the
    leading axes.

    2x2 matrices are e^{-ict} times the `su2_factors` of their
    `_sector_entries` c, bz and h10; larger ones use one batched eigh. Like
    eigh, both read only the lower triangle.
    """
    if h.shape[-1] != 2:
        return eig_exponential(*np.linalg.eigh(h), t)
    c, bz, h10 = _sector_entries(h)
    return su2_matrix(np.exp(-1j * c * t), *su2_factors(bz, h10, t))


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(evals, vecs) of Hermitian h of shape (..., b, b), batched over the
    leading axes, evals ascending, as np.linalg.eigh returns them.

    2x2 matrices h = c*I + r*(cos(2a) sz + sin(2a) (e^{i phi} s+ + h.c.)),
    with c, bz and h10 their `_sector_entries` and r = sqrt(bz^2 + |h10|^2),
    use the closed form: eigenvalues c -+ r and the half-angle eigenvectors
    (-e^{-i phi} sin a, cos a) and (cos a, e^{i phi} sin a). Larger ones use
    one batched eigh. Like eigh, both read only the lower triangle.
    """
    if h.shape[-1] != 2:
        return np.linalg.eigh(h)
    c, bz, h10 = _sector_entries(h)
    mag = np.abs(h10)
    r = np.hypot(bz, mag)
    half = np.arctan2(mag, bz) / 2
    cos, sin = np.cos(half), np.sin(half)
    sin_phase = sin * np.exp(1j * np.angle(h10))  # angle(0) = 0
    vecs = np.empty(h.shape, dtype=np.complex128)
    vecs[..., 0, 0] = -sin_phase.conj()
    vecs[..., 1, 0] = cos
    vecs[..., 0, 1] = cos
    vecs[..., 1, 1] = sin_phase
    evals = np.empty(h.shape[:-1])
    np.subtract(c, r, out=evals[..., 0])
    np.add(c, r, out=evals[..., 1])
    return evals, vecs


def propagator(h: Operator, t: float) -> Operator:
    """exp(-i*H*t) for finite t. H that is Hermitian to within
    1e-12 * max(1, max|H|) is symmetrized and goes through expm_hermitian, so
    the result is unitary to machine precision; anything else falls back to
    scipy's expm. NumericError first when d*max|H|*|t| fails `require_phase`
    or 2*max|H|^2 (the 2x2 form's squares) overflows."""
    t = require_finite("t", t)
    scale = float(np.max(np.abs(require_instance("h", h, Operator).matrix)))
    require_phase(f"t {t!r}", h.dim * scale * abs(t), "phase d*max|H|*|t|")
    if not math.isfinite(2 * scale * scale):
        raise NumericError(f"h: the entries, up to {scale:.3g}, overflow when squared")
    if h.is_hermitian(tol=1e-12 * max(1.0, scale)):
        # symmetrize away the tolerated asymmetry
        mat = expm_hermitian((h.matrix + h.matrix.conj().T) / 2, t)
    else:
        import scipy.linalg  # only this fallback needs scipy

        mat = scipy.linalg.expm(-1j * t * h.matrix)
    return Operator(h.shape, mat)


def coherent_amplitudes(alpha: complex, n: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes c_k = e^{-|α|²/2} α^k/√(k!),
    evaluated in log space so large |α| stays finite. A NaN or infinite α
    raises UsageError naming alpha."""
    [n] = shape_of((n,)).dims
    alpha = require_complex("alpha", alpha, finite=True)
    if alpha == 0:
        amps = np.zeros(n, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    mag, phase = abs(alpha), np.angle(alpha)
    if mag > 1e154:  # |α|² would overflow; every c_k underflows to 0 long before
        return np.zeros(n, dtype=np.complex128)
    k = np.arange(n)
    log_fact = np.array([math.lgamma(j + 1) for j in range(n)])
    log_mag = -abs(alpha) ** 2 / 2 + k * math.log(mag) - 0.5 * log_fact
    return np.exp(log_mag) * np.exp(1j * phase * k)


def _truncated_state(what: str, alpha: complex, raw: np.ndarray, norm_sq) -> StateVector:
    """raw renormalized, with the weight lost to truncation as `leakage`, for
    the public constructor of `what`; norm_sq() gives raw's untruncated norm²
    once raw has support. Leakage above TRUNCATION_TOL warns its caller."""
    captured = float(np.sum(np.abs(raw) ** 2))
    if captured <= 0:
        raise DegenerateInputError(f"{what} has no support at this truncation")
    kept = captured / norm_sq()
    leakage = max(0.0, 1.0 - kept)
    if leakage > TRUNCATION_TOL:
        warnings.warn(f"{what} |α|={abs(complex(alpha)):.3g} keeps only {kept:.6f} "
                      f"of its weight at truncation {len(raw)}", TruncationWarning,
                      stacklevel=3)
    return StateVector(shape_of((len(raw),)), raw / math.sqrt(captured), leakage)


def coherent_state(alpha: complex, n: int) -> StateVector:
    """Truncated coherent state, renormalized on the first n levels.

    The probability weight lost to truncation is attached as `leakage`;
    above 1e-6 a TruncationWarning is also emitted.
    """
    return _truncated_state("coherent state", alpha, coherent_amplitudes(alpha, n), lambda: 1.0)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|⟨a|b⟩|² for normalized pure states."""
    a = require_instance("a", a, StateVector)
    return abs(a.overlap(require_on("b", b, StateVector, a.shape))) ** 2


def _as_axes(values, shape: HilbertShape, name="keep", entry="subsystem") -> list[int]:
    """values as a non-empty list of distinct subsystems of shape, each read
    by `require_index`: the one reader of kept subsystems and gate targets."""
    axes = [require_index(entry, k, shape.n_subsystems)
            for k in require_sequence(name, values, least=1)]
    return require_distinct(name, axes)


def reduced_density_matrix(psi: StateVector, keep: Iterable[int]) -> np.ndarray:
    """Partial trace onto the kept subsystems (in the order given)."""
    keep = _as_axes(keep, require_instance("psi", psi, StateVector).shape)
    dims = psi.shape.dims
    tens = psi.amplitudes.reshape(dims)
    traced = [i for i in range(len(dims)) if i not in keep]
    perm = keep + traced
    tens = np.transpose(tens, perm)
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims[i] for i in traced) if traced else 1
    mat = tens.reshape(dk, dt)
    return mat @ mat.conj().T


def mode_probabilities(psi: StateVector, keep: Iterable[int] | None = None) -> np.ndarray:
    """Marginal occupation probabilities of the kept subsystems jointly, in
    the order given: re² + im² of ψ with the kept axes in front, summed over
    the rest, so nothing of size d_keep² is formed. keep=None keeps every
    subsystem (|ψ|² itself); a single subsystem gives its marginal."""
    shape = require_instance("psi", psi, StateVector).shape
    keep = _as_axes(range(shape.n_subsystems) if keep is None else keep, shape)
    amps = np.moveaxis(psi.amplitudes.reshape(psi.shape.dims), keep, range(len(keep)))
    probs = amps.real**2 + amps.imag**2
    return probs.reshape(math.prod(probs.shape[:len(keep)]), -1).sum(axis=1)


def mean_occupation(psi: StateVector, mode: int = 0) -> float:
    """⟨n̂⟩ of one subsystem."""
    probs = mode_probabilities(psi, [mode])
    return float(np.dot(np.arange(len(probs)), probs))
