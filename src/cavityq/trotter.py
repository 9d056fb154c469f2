"""Trotterized qudit evolution built from the gate vocabulary.

The Hamiltonian is the split-diagonal form H/2pi = diag(V) + F diag(K) F†
(Hz), with V the level-space potential and K a kinetic term diagonal in the
Fourier-conjugate basis. One first-order step

    U(dt) = F S_K F† S_V,   S_X = diag(exp(-i 2pi X dt))

is the four-gate circuit [snap(-2pi V dt), fourier†, snap(-2pi K dt),
fourier], and exp(-iH dt) - U(dt) = O(dt^2), so the global error at fixed t
is O(dt). A step-count sweep advances its rows together as one scan, each
step two phase multiplies and two FFTs on the rows still running, in place
on preallocated buffers, and computes the exact state once. Exact
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

from .errors import (InvalidDimensionError, NumericError, ShapeError, UsageError, is_complex,
                     require_capacity, require_complex, require_count, require_positive,
                     require_reals)
from .fock import HilbertShape, Operator, StateVector, basis_state, shape_of
from .gates import Circuit, GateSpec, _run

# most max(steps_list) × N one step-count sweep may take: its scan runs
# max(steps_list) steps of O(N) work; at the cap, a sweep on 32 levels
# takes about 4 s
MAX_LEVEL_STEPS = 10**7


@dataclass(frozen=True, eq=False)
class QuditHamiltonian:
    """Split-diagonal qudit Hamiltonian: V_n (Hz) over levels and K_j (Hz)
    over the Fourier-conjugate index, both length N."""

    diagonal: np.ndarray
    kinetic_diagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "kinetic_diagonal"):
            entries = np.asarray(getattr(self, name), dtype=object)
            if entries.ndim != 1:
                raise ShapeError(f"{name} must be a 1-D real vector")
            arr = np.array(require_reals(f"{name} entry", entries.tolist()), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite entries in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.diagonal) != len(self.kinetic_diagonal):
            raise ShapeError(
                f"length mismatch: diagonal has {len(self.diagonal)} entries, "
                f"kinetic_diagonal has {len(self.kinetic_diagonal)}"
            )
        if len(self.diagonal) < 2:
            raise InvalidDimensionError("a qudit needs at least 2 levels")

    @property
    def n_levels(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        """Dense Hermitian matrix in rad/s. The kinetic term F diag(K) F†
        is the circulant matrix with entries c[j − l] = ifft(K)[(j − l) mod N]
        on and below the diagonal; above it, the conjugate conj(c[l − j]),
        with c[0] taken real, so H == H† exactly (the FFT's own entries
        leave |H − H†| ≈ 1e-10 at MHz scale)."""
        n = self.n_levels
        levels = np.arange(n)
        column = np.fft.ifft(self.kinetic_diagonal)
        column[0] = column[0].real
        # by_offset[d + n − 1] is the entry at offset d = j − l
        by_offset = np.concatenate([column[:0:-1].conj(), column])
        mat = by_offset[levels[:, None] - levels + n - 1]
        mat[levels, levels] += self.diagonal
        return 2.0 * np.pi * mat

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


def trotter_step(h: QuditHamiltonian, dt_s: float,
                 n_levels: int | None = None) -> Circuit:
    """One first-order splitting step as a four-gate circuit."""
    if not isinstance(h, QuditHamiltonian):
        raise UsageError("trotter_step needs a QuditHamiltonian")
    dt_s = require_positive("dt_s", dt_s)
    if n_levels is not None and shape_of((n_levels,)).total_dim != h.n_levels:
        raise ShapeError(
            f"requested {n_levels} levels but the Hamiltonian has {h.n_levels}"
        )
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
    of dimension n, or a 1-D list, tuple or array of n amplitudes, each
    read with require_complex. ShapeError comes before any allocation."""
    shape = HilbertShape((n,))
    if psi0 is None:
        return basis_state(shape, 0)
    if isinstance(psi0, StateVector):
        if psi0.shape.total_dim != n:
            raise ShapeError(
                f"initial state has dimension {psi0.shape.total_dim}, "
                f"Hamiltonian has {n} levels"
            )
        return StateVector(shape, psi0.amplitudes.reshape(n)).normalized()
    if isinstance(psi0, np.ndarray):
        flat = psi0.ndim == 1
    else:  # a list of rows, even or ragged, is not 1-D
        flat = isinstance(psi0, (list, tuple)) and not (
            psi0 and all(isinstance(v, (list, tuple, np.ndarray)) for v in psi0))
    if not flat:
        raise ShapeError(f"initial state must be a 1-D list of {n} amplitudes")
    if len(psi0) != n:
        raise ShapeError(f"initial state length {len(psi0)} != {n} levels")
    amp = np.array([require_complex("psi0 entry", v) for v in psi0])
    return StateVector(shape, amp).normalized()


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
    return _sweep(h, t_total_s, [steps], psi0)[0]


def trotter_convergence(h: QuditHamiltonian, t_total_s: float,
                        steps_list: Sequence[int],
                        psi0=None) -> tuple[tuple[int, float, float], ...]:
    """Rows of (steps, dt, infidelity) for a step-count sweep at fixed t."""
    if len(steps_list) == 0:
        raise UsageError("steps_list must be non-empty")
    return tuple((r.steps, r.dt_s, r.infidelity) for r in _sweep(h, t_total_s, steps_list, psi0))


def _sweep(h: QuditHamiltonian, t_total_s: float, steps_list, psi0) -> list[TrotterResult]:
    """evolve_trotter for every steps_list entry as one scan, most steps first;
    with the trotter_step circuit's phases, each row equals it iterated, bitwise."""
    counts = [require_count("steps", s, 1) for s in steps_list]
    require_capacity(f"max(steps_list) {max(counts)} × n_levels {h.n_levels}",
                     max(counts) * h.n_levels, MAX_LEVEL_STEPS, "level-steps")
    if not math.isfinite(t_total_s) or t_total_s < 0:
        raise UsageError(f"t_total must be nonnegative, got {t_total_s}")
    psi = _state_vector(psi0, h.n_levels)
    if t_total_s == 0:
        return [TrotterResult(psi, 1.0, s, 0.0) for s in counts]
    dts = [require_positive("dt_s", t_total_s / s) for s in steps_list]  # as trotter_step
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    column = np.array([dts[i] for i in order])[:, None]  # (L, 1) step sizes
    pot, kin = (np.exp(1j * _step_phases(x, column)) for x in (h.diagonal, h.kinetic_diagonal))
    amp, buf = np.tile(psi.amplitudes, (2, len(order), 1))  # (L, N) rows and a work buffer
    run = [counts[i] for i in order] + [0]
    for k in range(len(order), 0, -1):  # rows [0, k) take run[k-1] - run[k] steps
        a, b, p, q = amp[:k], buf[:k], pot[:k], kin[:k]
        for _ in range(run[k - 1] - run[k]):
            np.fft.fft(np.multiply(a, p, out=b), axis=-1, norm="ortho", out=a)
            np.fft.ifft(np.multiply(a, q, out=b), axis=-1, norm="ortho", out=a)
    evals, vecs = h._eigensystem  # the exact state Q(e^{-iEt} ∘ Q†ψ), once
    exact = vecs @ (np.exp(-1j * evals * t_total_s) * (vecs.conj().T @ psi.amplitudes))
    return [TrotterResult(StateVector(psi.shape, row, psi.leakage),
                          float(abs(np.vdot(exact, row)) ** 2), s, dt)
            for row, s, dt in zip(amp[np.argsort(order)], counts, dts)]


def _operator(op, n: int, what: str):
    """op as otoc_series takes it: a Circuit on shape (n,) as it is, or
    else the n×n complex matrix of an Operator or an array of numbers."""
    if isinstance(op, Circuit):
        if op.shape.dims != (n,):
            raise ShapeError(f"{what} must be a circuit on shape ({n},), got {op.shape.dims}")
        return op
    if isinstance(op, Operator):
        mat = op.matrix
    else:
        try:
            mat = np.asarray(op)
        except ValueError as exc:  # ragged rows
            raise ShapeError(f"{what} must be {n}x{n}, got ragged rows") from exc
        if not isinstance(op, np.ndarray):  # numpy reads a bool among numbers as one
            bad = [v for v in np.asarray(op, dtype=object).flat if not is_complex(v)]
            if bad:
                raise UsageError(f"{what} entries must be numbers, got {bad[0]!r}")
        if mat.dtype.kind not in "iufc":
            raise UsageError(f"{what} entries must be numbers, got dtype {mat.dtype}")
    if mat.shape != (n, n):
        raise ShapeError(f"{what} must be {n}x{n}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError(f"non-finite entries in {what}")
    return mat.astype(complex, copy=False)


def _eigenbasis(op, q_dag: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Q†·op·Q, with op from `_operator`: a circuit's compiled gates run on
    the columns of Q as a stack of states, so a SNAP is a phase multiply
    and a Fourier gate an FFT, and one N×N product is left; a matrix
    takes two."""
    if isinstance(op, Circuit):
        return q_dag @ _run(op, vecs.T).T
    return q_dag @ op @ vecs


def otoc(w, v, h: QuditHamiltonian, t_s: float, psi0=None) -> complex:
    """<psi0| W†(t) V† W(t) V |psi0> with W(t) = U†(t) W U(t), U = exp(-iHt)
    exact. W and V are as otoc_series takes them; psi0 defaults to |0>."""
    [(_, re, im, _)] = otoc_series(w, v, h, [t_s], psi0)
    return complex(re, im)


def otoc_series(w, v, h: QuditHamiltonian, times_s: Sequence[float],
                psi0=None) -> tuple[tuple[float, float, float, float], ...]:
    """Rows of (t, Re C, Im C, |C|) over a time grid.

    W and V are each a `Circuit` on shape (N,), an `Operator` or an N×N
    array of numbers. Works in the eigenbasis H = Q diag(E) Q†, where
    W(t) = P̄ W̃ P with W̃ = Q†WQ and P = diag(e^{-iEt}). A circuit reaches
    W̃ by running its compiled gates on the columns of Q and one N×N
    product, so a SNAP costs a phase multiply and a Fourier gate an FFT;
    a matrix costs two N×N products. With Ṽ = Q†VQ, φ = Q†ψ and the phases
    of all times as the columns of an N×T array, the chain is three N×N by
    N×T products: x = Ṽφ, Y = P̄∘(W̃(P∘x)), Z = Ṽ†Y and
    C = φ†(P̄∘(W̃†(P∘Z))).
    """
    n = h.n_levels
    w = _operator(w, n, "W")
    v = _operator(v, n, "V")
    psi = _state_vector(psi0, n).amplitudes.reshape(n)
    times = require_reals("times_s entry", times_s)
    if not all(map(math.isfinite, times)):
        raise NumericError(f"non-finite time {next(t for t in times if not math.isfinite(t))}")
    evals, vecs = h._eigensystem
    e_max, t_far = float(np.max(np.abs(evals))), max(times, key=abs, default=0.0)
    if not math.isfinite(e_max * abs(t_far)):  # before the phases overflow to NaN
        raise NumericError(f"times_s entry {t_far!r}: the phase max|E|*|t| overflows "
                           f"(max|E| = {e_max:.3g} rad/s)")
    q_dag = vecs.conj().T
    w_eig = _eigenbasis(w, q_dag, vecs)
    v_eig = _eigenbasis(v, q_dag, vecs)
    phi = q_dag @ psi
    p = np.exp(-1j * np.outer(evals, times))
    p_bar = p.conj()
    y = p_bar * (w_eig @ (p * (v_eig @ phi)[:, None]))
    z = v_eig.conj().T @ y
    c = phi.conj() @ (p_bar * (w_eig.conj().T @ (p * z)))
    return tuple((t, val.real, val.imag, abs(val))
                 for t, val in zip(times, map(complex, c)))
