"""Dense reference gates, each built from its own formula.

`gates` defines every gate kind once, as the structured kernel that
circuits run; its public constructors run that kernel on the identity.
The formulas here share no code with the kernels: diagonal matrices,
Kronecker products, an index loop, the Fourier exponential and the dense
displacement product. `FORMULAS` maps each kind to its formula, called
with the kernel's arguments; `dense_unitary` embeds each gate of a
circuit with `gates.embed` and multiplies the results in order, so tests
of the kernels, the constructors and `circuit_unitary` compare against it.
`sector_propagator` is the same kind of reference for pulse schedules on
models of 2x2 blocks: every segment exponentiated and multiplied in order,
in extended precision.
"""

import cmath
import math

import numpy as np

from cavityq import fock, gates


def snap(theta) -> np.ndarray:
    """diag(e^{iθ_k}); also the joint multisnap, whose phases are flat."""
    return np.diag(np.exp(1j * np.asarray(theta, dtype=float)))


def qubit_rotation(theta: float, phi: float) -> np.ndarray:
    """exp(−i θ/2 (cosφ σx + sinφ σy))."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s * np.exp(-1j * phi)], [-1j * s * np.exp(1j * phi), c]])


def cond_rotation(n: int, theta: float, phi: float, mode_dim: int) -> np.ndarray:
    """R(θ,φ) ⊗ |n⟩⟨n| + I ⊗ (I − |n⟩⟨n|) on (qubit, mode)."""
    pn = np.zeros((mode_dim, mode_dim), dtype=complex)
    pn[n, n] = 1.0
    return np.kron(qubit_rotation(theta, phi), pn) + np.kron(np.eye(2), np.eye(mode_dim) - pn)


def controlled_increment(n: int) -> np.ndarray:
    """|i⟩|j⟩ → |i⟩|(j+i) mod N⟩."""
    mat = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i * n + (j + i) % n, i * n + j] = 1.0
    return mat


def givens(m: int, n: int, theta: float, dim: int) -> np.ndarray:
    """[[cosθ, −sinθ], [sinθ, cosθ]] on levels (m, n), identity elsewhere."""
    mat = np.eye(dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    mat[m, m] = c
    mat[m, n] = -s
    mat[n, m] = s
    mat[n, n] = c
    return mat


def phase_swap(m: int, n: int, dim: int) -> np.ndarray:
    """The transposition of levels m and n."""
    mat = np.eye(dim, dtype=complex)
    mat[m, m] = mat[n, n] = 0.0
    mat[m, n] = mat[n, m] = 1.0
    return mat


def fourier(dim: int, inverse: bool = False) -> np.ndarray:
    """F_jk = e^{2πi (jk mod N)/N}/√N, or F†; the argument reduced mod N
    so that every entry is as accurate as one exponential."""
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    mat = np.exp(2j * np.pi * (j * k % dim) / dim) / math.sqrt(dim)
    return mat.conj().T if inverse else mat


def displacement(alpha: complex, n: int, convention: str = "standard") -> np.ndarray:
    """D(α) = R Q e^{−i|α|Λ} Qᵀ R† on n levels, with (Λ, Q) the eigensystem
    of a + a† and R = diag(e^{ik(arg α + π/2)}); α negated for "paper"."""
    alpha = -complex(alpha) if convention == "paper" else complex(alpha)
    off = np.sqrt(np.arange(1.0, n))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    angle = abs(alpha) * evals
    rot = np.exp(1j * (cmath.phase(alpha) + math.pi / 2) * np.arange(n))
    inner = (vecs * np.cos(angle)) @ vecs.T - 1j * ((vecs * np.sin(angle)) @ vecs.T)
    return rot[:, None] * inner * rot.conj()


def ecd(beta: complex, mode_dim: int, convention: str = "standard") -> np.ndarray:
    """|e⟩⟨g| ⊗ D(β/2) + |g⟩⟨e| ⊗ D(−β/2) on (qubit, mode)."""
    eg = np.array([[0, 0], [1, 0]], dtype=complex)
    return (np.kron(eg, displacement(beta / 2, mode_dim, convention))
            + np.kron(eg.T, displacement(-beta / 2, mode_dim, convention)))


# gate kind -> its formula, called with the kernel's arguments (`gates._parse`)
FORMULAS = {
    "snap": snap,
    "multisnap": lambda theta, dims: snap(theta),
    "displacement": displacement,
    "cond_rotation": cond_rotation,
    "qubit_rotation": qubit_rotation,
    "controlled_increment": controlled_increment,
    "givens": givens,
    "phase_swap": phase_swap,
    "fourier": fourier,
    "ecd": ecd,
}


def dense_unitary(circuit: gates.Circuit) -> np.ndarray:
    """The circuit's full-register unitary (first gate acts first), as the
    product of its gates' formulas embedded in the register."""
    shape = circuit.shape
    total = np.eye(shape.total_dim, dtype=complex)
    for spec in circuit.gates:
        _, args, targets = gates._parse(spec, shape, circuit.displacement_convention)
        sub = fock.HilbertShape(tuple(shape.dims[t] for t in targets))
        op = fock.Operator(sub, FORMULAS[spec.kind](*args))
        total = gates.embed(op, targets, shape).matrix @ total
    return total


def sector_propagator(model, streams, dt: float) -> np.ndarray:
    """U_{M-1}...U_0 of a schedule on a model whose invariant blocks are
    all 2x2, in np.clongdouble and returned as complex128. Each segment's
    block h = drift + 2π(Re u C_re + Im u C_im) is exponentiated by the
    closed form e^{−ict}(cos θ I − i sin θ (h − cI)/r), with c half its
    trace, r = √(bz² + |h10|²) its half eigenvalue gap and θ = r dt, and
    the segments are multiplied one at a time, in order."""
    d = model.shape.total_dim
    coupled = model.drift.matrix != 0
    for op in model.controls:
        coupled = coupled | (op.matrix != 0)
    rows, cols = np.nonzero(np.triu(coupled, 1))  # each block's (upper, lower) level
    assert sorted([*rows, *cols]) == list(range(d)), "the blocks are not all 2x2"
    two_pi = 4 * np.arccos(np.longdouble(0))
    h = np.broadcast_to(model.drift.matrix.astype(np.clongdouble), (len(streams[0]), d, d))
    for s, stream in enumerate(streams):
        for k, part in ((2 * s, stream.real), (2 * s + 1, stream.imag)):
            h = h + ((two_pi * part.astype(np.longdouble))[:, None, None]
                     * model.controls[k].matrix.astype(np.clongdouble))
    h00, h11, h10 = h[:, rows, rows].real, h[:, cols, cols].real, h[:, cols, rows]
    c, bz = (h00 + h11) / 2, (h00 - h11) / 2
    t = np.longdouble(dt)
    r = np.sqrt(bz * bz + h10.real * h10.real + h10.imag * h10.imag)
    sin_over_r = np.where(r > 0, np.sin(r * t) / np.where(r > 0, r, 1), t)
    phase = np.cos(c * t) - 1j * np.sin(c * t)
    seg = np.empty((*h00.shape, 2, 2), dtype=np.clongdouble)
    seg[..., 0, 0] = phase * (np.cos(r * t) - 1j * sin_over_r * bz)
    seg[..., 1, 1] = phase * (np.cos(r * t) + 1j * sin_over_r * bz)
    seg[..., 1, 0] = phase * (-1j * sin_over_r * h10)
    seg[..., 0, 1] = phase * (-1j * sin_over_r * h10.conj())
    total = np.broadcast_to(np.eye(2, dtype=np.clongdouble), seg.shape[1:])
    for step in seg:
        total = np.einsum("bij,bjk->bik", step, total)
    prop = np.zeros((d, d), dtype=complex)
    for (i, j), block in zip(zip(rows, cols), total):
        prop[np.ix_([i, j], [i, j])] = block
    return prop
