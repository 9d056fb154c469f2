"""Dense reference gates, each built from its own formula.

`gates` defines every gate kind once, as the structured kernel that
circuits run; its public constructors run that kernel on the identity.
The formulas here share no code with the kernels: diagonal matrices,
Kronecker products, an index loop, the Fourier exponential and the dense
displacement product. `FORMULAS` maps each kind to its formula, called
with the kernel's arguments; `dense_unitary` embeds each gate of a
circuit with `gates.embed` and multiplies the results in order, so tests
of the kernels, the constructors and `circuit_unitary` compare against it.
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
