"""Trotterized qudit evolution built from the gate vocabulary.

The Hamiltonian is the split-diagonal form H/2pi = diag(V) + F diag(K) F†
(Hz), with V the level-space potential and K a kinetic term diagonal in the
Fourier-conjugate basis. One first-order step

    U(dt) = F S_K F† S_V,   S_X = diag(exp(-i 2pi X dt))

is the four-gate circuit [snap(-2pi V dt), fourier†, snap(-2pi K dt),
fourier], and exp(-iH dt) - U(dt) = O(dt^2), so the global error at fixed t
is O(dt). A step-count sweep advances its rows together as one scan, each
step two phase multiplies and two FFTs on the rows still running, in place
on preallocated buffers, and computes the exact state once. The FFTs are
`gates._ortho_fft`, the Fourier gate's own transform: numpy's pocketfft
kernel called directly, bitwise np.fft's result without its per-call
wrapper, which cost more than the transform at these sizes. Exact
references here diagonalize the dense Hamiltonian.

Scrambling diagnostics use the out-of-time-order correlator
C(t) = <psi0| W†(t) V† W(t) V |psi0> with W(t) = U†(t) W U(t) evaluated with
the exact propagator; |C| <= 1 for unitary W, V.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (NumericError, ShapeError, require_array, require_capacity, require_count,
                     require_finite, require_instance, require_nonnegative, require_on,
                     require_phase, require_positive, require_sequence)
from .fock import HilbertShape, Operator, StateVector, basis_state, shape_of
from .gates import Circuit, GateSpec, _ortho_fft, _run

# most max(steps_list) × N one step-count sweep may take: its scan runs
# max(steps_list) steps of O(N) work. At the cap, `cavityq trotter` takes
# 2.9 s on 32 levels (312,500 steps, 9.3 µs each) and 27 s on 2 levels
# (5·10⁶ steps, 5.5 µs each): a step's fixed cost dominates at small N
MAX_LEVEL_STEPS = 10**7
# most entries of each N×B array of an OTOC time block, B = max(2, this // N)
# times: N ≤ 32 takes the benchmark's 200-time grid in one block, and N = 128
# goes in blocks of 64. A 200-time series at N = 128 (one BLAS thread) took
# 5.85 ms against 6.30 at 2^14 and 6.50 in one block, faster in 30 of 30
# interleaved rounds; the segment chunks of `pulse` are best at 2^14
_OTOC_BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True, eq=False)
class QuditHamiltonian:
    """Split-diagonal qudit Hamiltonian: V_n (Hz) over levels and K_j (Hz)
    over the Fourier-conjugate index, both length N ≥ 2."""

    diagonal: np.ndarray
    kinetic_diagonal: np.ndarray

    def __post_init__(self) -> None:
        diagonal = require_array("diagonal", self.diagonal, (None,), float, least=2)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "kinetic_diagonal", require_array(
            "kinetic_diagonal", self.kinetic_diagonal, diagonal.shape, float))

    @property
    def n_levels(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        """Dense Hermitian matrix in rad/s. The kinetic term F diag(K) F†
        is the circulant matrix with entries c[j − l] = ifft(K)[(j − l) mod N]
        on and below the diagonal; above it, the conjugate conj(c[l − j]),
        with c[0] taken real, so H == H† exactly (the FFT's own entries
        leave |H − H†| ≈ 1e-10 at MHz scale). NumericError, and no
        RuntimeWarning, when an entry overflows."""
        n = self.n_levels
        levels = np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            column = np.fft.ifft(self.kinetic_diagonal)
            column[0] = column[0].real
            # by_offset[d + n − 1] is the entry at offset d = j − l
            by_offset = np.concatenate([column[:0:-1].conj(), column])
            mat = by_offset[levels[:, None] - levels + n - 1]
            mat[levels, levels] += self.diagonal
            mat = 2.0 * np.pi * mat
        if not np.isfinite(mat).all():
            raise NumericError("the Hamiltonian 2*pi*H overflows: diagonal and "
                               "kinetic_diagonal must be smaller")
        return mat

    def operator(self) -> Operator:
        return Operator(HilbertShape((self.n_levels,)), self.dense())

    @functools.cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, Q) with dense() = Q diag(E) Q†, diagonalized once per
        Hamiltonian (its arrays are read-only)."""
        return np.linalg.eigh(self.dense())


def _step_phases(x: np.ndarray, dt) -> np.ndarray:
    """The phases of diag(exp(-i 2pi x dt)), for one dt or a column of them:
    the one expression of trotter_step and _sweep, which stay bitwise equal."""
    return (-2.0 * np.pi * x) * dt


def _require_step_phase(h: QuditHamiltonian, dt: float, what: str) -> None:
    """`require_phase` on the largest step phase 2*pi*max(|V|, |K|)*dt,
    naming what (an argument and its value), before any phase is built."""
    x_max = max(float(np.max(np.abs(x))) for x in (h.diagonal, h.kinetic_diagonal))
    require_phase(what, 2.0 * math.pi * x_max * dt, "step phase 2*pi*max(|V|, |K|)*dt")


def trotter_step(h: QuditHamiltonian, dt_s: float,
                 n_levels: int | None = None) -> Circuit:
    """One first-order splitting step as a four-gate circuit."""
    require_instance("h", h, QuditHamiltonian)
    dt_s = require_positive("dt_s", dt_s)
    if n_levels is not None and shape_of((n_levels,)).total_dim != h.n_levels:
        raise ShapeError(
            f"requested {n_levels} levels but the Hamiltonian has {h.n_levels}"
        )
    _require_step_phase(h, dt_s, f"dt_s {dt_s!r}")
    pot, kin = (_step_phases(x, dt_s).tolist() for x in (h.diagonal, h.kinetic_diagonal))
    gates = (
        GateSpec("snap", {"target": 0, "theta": pot}),
        GateSpec("fourier", {"target": 0, "inverse": True}),
        GateSpec("snap", {"target": 0, "theta": kin}),
        GateSpec("fourier", {"target": 0}),
    )
    return Circuit(HilbertShape((h.n_levels,)), gates)


def _state_vector(psi0, n: int) -> StateVector:
    """psi0 as a normalized state on n levels: |0> for None, a StateVector
    on dims (n,), with its leakage, or a 1-D list, tuple or array of n
    amplitudes (`require_array`)."""
    shape = HilbertShape((n,))
    if psi0 is None:
        return basis_state(shape, 0)
    if isinstance(psi0, StateVector):
        return require_on("psi0", psi0, StateVector, shape).normalized()
    return StateVector(shape, require_array("psi0", psi0, (n,))).normalized()


@dataclass(frozen=True, eq=False)
class TrotterResult:
    """Trotterized final state plus its fidelity to the exact evolution."""

    state: StateVector
    exact_fidelity: float
    steps: int
    dt_s: float

    @property
    def infidelity(self) -> float:
        return max(0.0, 1.0 - self.exact_fidelity)


def evolve_trotter(h: QuditHamiltonian, t_total_s: float, steps: int,
                   psi0=None) -> TrotterResult:
    """Repeated first-order steps over t_total, compared against exact
    evolution of the same initial state."""
    return _sweep(require_instance("h", h, QuditHamiltonian), t_total_s, [steps], psi0)[0]


def trotter_convergence(h: QuditHamiltonian, t_total_s: float,
                        steps_list: Sequence[int],
                        psi0=None) -> tuple[tuple[int, float, float], ...]:
    """Rows of (steps, dt, infidelity) for a step-count sweep at fixed t."""
    require_instance("h", h, QuditHamiltonian)
    steps_list = require_sequence("steps_list", steps_list, least=1)
    return tuple((r.steps, r.dt_s, r.infidelity) for r in _sweep(h, t_total_s, steps_list, psi0))


def _sweep(h: QuditHamiltonian, t_total_s, steps_list, psi0) -> list[TrotterResult]:
    """evolve_trotter for every steps_list entry as one scan, most steps first;
    with the trotter_step circuit's phases and `_ortho_fft`, the Fourier
    gate's transform, each row equals it iterated, bitwise. Phases that
    fail `require_phase` are refused, naming t_total_s, before any is built."""
    counts = [require_count("steps", s, 1) for s in steps_list]
    require_capacity(f"max(steps_list) {max(counts)} × n_levels {h.n_levels}",
                     max(counts) * h.n_levels, MAX_LEVEL_STEPS, "level-steps")
    t_total_s = require_nonnegative("t_total_s", require_finite("t_total_s", t_total_s))
    psi = _state_vector(psi0, h.n_levels)
    if t_total_s == 0:
        return [TrotterResult(psi, 1.0, s, 0.0) for s in counts]
    dts = [require_positive("dt_s", t_total_s / s) for s in counts]  # as trotter_step
    _require_step_phase(h, max(dts), f"t_total_s {t_total_s!r}")
    evals, vecs = h._eigensystem
    require_phase(f"t_total_s {t_total_s!r}", float(np.max(np.abs(evals))) * t_total_s,
                  "phase max|E|*t")
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    column = np.array([dts[i] for i in order])[:, None]  # (L, 1) step sizes
    pot, kin = (np.exp(1j * _step_phases(x, column)) for x in (h.diagonal, h.kinetic_diagonal))
    amp, buf = np.tile(psi.amplitudes, (2, len(order), 1))  # (L, N) rows and a work buffer
    run = [counts[i] for i in order] + [0]
    for k in range(len(order), 0, -1):  # rows [0, k) take run[k-1] - run[k] steps
        a, b, p, q = amp[:k], buf[:k], pot[:k], kin[:k]
        for _ in range(run[k - 1] - run[k]):
            _ortho_fft(np.multiply(a, p, out=b), False, out=a)
            _ortho_fft(np.multiply(a, q, out=b), True, out=a)
    # the exact state Q(e^{-iEt} ∘ Q†ψ), once
    exact = vecs @ (np.exp(-1j * evals * t_total_s) * (vecs.conj().T @ psi.amplitudes))
    return [TrotterResult(StateVector(psi.shape, row, psi.leakage),
                          float(abs(np.vdot(exact, row)) ** 2), s, dt)
            for row, s, dt in zip(amp[np.argsort(order)], counts, dts)]


def _operator(op, n: int, what: str):
    """op as otoc_series takes it: a Circuit on shape (n,) as it is, or
    else the n×n complex matrix of an Operator or an array of numbers."""
    if isinstance(op, Circuit):
        return require_on(what, op, Circuit, HilbertShape((n,)))
    return require_array(what, op.matrix if isinstance(op, Operator) else op, (n, n))


def _eigenbasis(op, q_dag: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Q†·op·Q, with op from `_operator`: a circuit's compiled gates run on
    the columns of Q as a stack of states, so a SNAP is a phase multiply
    and a Fourier gate an FFT, and one N×N product is left; a matrix
    takes two."""
    if isinstance(op, Circuit):
        return q_dag @ _run(op, vecs.T).T
    return q_dag @ op @ vecs


def otoc(w: Circuit | Operator | np.ndarray, v: Circuit | Operator | np.ndarray,
         h: QuditHamiltonian, t_s: float, psi0=None) -> complex:
    """<psi0| W†(t) V† W(t) V |psi0> with W(t) = U†(t) W U(t), U = exp(-iHt)
    exact. W and V are as otoc_series takes them; psi0 defaults to |0>."""
    [(_, re, im, _)] = otoc_series(w, v, h, [t_s], psi0)
    return complex(re, im)


def otoc_series(w: Circuit | Operator | np.ndarray, v: Circuit | Operator | np.ndarray,
                h: QuditHamiltonian, times_s: Sequence[float],
                psi0=None) -> tuple[tuple[float, float, float, float], ...]:
    """Rows of (t, Re C, Im C, |C|) over a time grid.

    W and V are each a `Circuit` on shape (N,), an `Operator` or an N×N
    array of numbers. Works in the eigenbasis H = Q diag(E) Q†, where
    W(t) = P̄ W̃ P with W̃ = Q†WQ and P = diag(e^{-iEt}). A circuit reaches
    W̃ by running its compiled gates on the columns of Q and one N×N
    product, so a SNAP costs a phase multiply and a Fourier gate an FFT;
    a matrix costs two N×N products. With Ṽ = Q†VQ, φ = Q†ψ and the phases
    of the times as the columns of an N×B array, the chain is three N×N by
    N×B products: x = Ṽφ, Y = P̄∘(W̃(P∘x)), Z = Ṽ†Y and
    C = φ†(P̄∘(W̃†(P∘Z))). The grid goes in blocks of B = _OTOC_BLOCK_ENTRIES
    // N times (at least 2), so memory does not grow with len(times_s); a
    last block of one time joins the one before it.
    """
    n = require_instance("h", h, QuditHamiltonian).n_levels
    w = _operator(w, n, "W")
    v = _operator(v, n, "V")
    psi = _state_vector(psi0, n).amplitudes.reshape(n)
    times = require_array("times_s", times_s, (None,), float).tolist()
    evals, vecs = h._eigensystem
    t_far = max(times, key=abs, default=0.0)
    require_phase(f"times_s entry {t_far!r}", float(np.max(np.abs(evals))) * abs(t_far),
                  "phase max|E|*|t|")
    q_dag = vecs.conj().T
    w_eig = _eigenbasis(w, q_dag, vecs)
    v_eig = _eigenbasis(v, q_dag, vecs)
    phi = q_dag @ psi
    del q_dag  # Q† and then Ṽ are dropped once used, for the blocks' room
    x = (v_eig @ phi)[:, None]
    w_adj, v_adj = w_eig.conj().T, v_eig.conj().T
    del v_eig
    starts = list(range(0, len(times), max(2, _OTOC_BLOCK_ENTRIES // n)))
    if len(starts) > 1 and len(times) - starts[-1] == 1:
        del starts[-1]  # the last block takes the odd column: gemv sums in another order
    c = np.empty(len(times), dtype=complex)
    for start, stop in zip(starts, starts[1:] + [len(times)]):
        p = np.exp(-1j * np.outer(evals, times[start:stop]))
        p_bar = p.conj()
        z = v_adj @ (p_bar * (w_eig @ (p * x)))
        c[start:stop] = phi.conj() @ (p_bar * (w_adj @ (p * z)))
    return tuple((t, val.real, val.imag, abs(val))
                 for t, val in zip(times, map(complex, c)))
