"""Kraus channels for cavity decoherence and their trajectory unraveling.

Channels are discrete-time: one application advances the state by the
channel's dt. The photon-loss pair is the first-order expansion
{K0 ≈ I − (dt/2T1)n̂, K1 = √(dt/T1)·a} with K0 completed exactly to
√(I − K1†K1), so ΣK†K = I holds to machine precision while K1 keeps
the per-level jump rate n/T1. Construction refuses dt values for which
the first-order pair would violate completeness beyond 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError, UsageError
from .fock import HilbertShape, Operator, StateVector, annihilation, shape_of

_COMPLETENESS_TOL = 1e-9
_FIRST_ORDER_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A set of Kraus operators advancing one time step dt."""

    shape: HilbertShape
    kraus: tuple[Operator, ...]
    dt_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", shape_of(self.shape))
        object.__setattr__(self, "kraus", tuple(self.kraus))
        if not self.kraus:
            raise UsageError("channel needs at least one Kraus operator")
        if self.dt_s <= 0:
            raise UsageError(f"dt_s must be positive, got {self.dt_s}")
        total = np.zeros((self.shape.total_dim,) * 2, dtype=complex)
        for k in self.kraus:
            if k.shape != self.shape:
                raise UsageError("Kraus operators must share the channel shape")
            total += k.matrix.conj().T @ k.matrix
        defect = float(np.max(np.abs(total - np.eye(self.shape.total_dim))))
        if defect > _COMPLETENESS_TOL:
            raise UsageError(
                f"Kraus completeness violated by {defect:.3e} (tolerance {_COMPLETENESS_TOL})"
            )


def photon_loss_channel(t1_s: float, dt_s: float, n: int) -> NoiseChannel:
    """Single-photon loss on an n-level mode, anchored to the |1⟩ lifetime."""
    if t1_s <= 0:
        raise UsageError(f"t1_s must be positive, got {t1_s}")
    if dt_s <= 0:
        raise UsageError(f"dt_s must be positive, got {dt_s}")
    if n < 1:
        raise UsageError(f"mode dimension must be >= 1, got {n}")
    x = dt_s / t1_s
    # completeness defect of the literal first-order pair
    defect = ((n - 1) * x / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for {n} levels at t1={t1_s:g} "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})"
        )
    shape = HilbertShape((n,))
    k1 = Operator(shape, math.sqrt(x) * annihilation(n).matrix)
    k0 = Operator(shape, np.diag(np.sqrt(1.0 - x * np.arange(n))).astype(complex))
    return NoiseChannel(shape, (k0, k1), dt_s)


def dephasing_channel(rate_hz: float, dt_s: float, n: int) -> NoiseChannel:
    """Pure dephasing generated by n̂. The default physical rate on the
    hardware this models is zero; the channel exists as an explicit hook."""
    if rate_hz < 0:
        raise UsageError(f"rate_hz must be >= 0, got {rate_hz}")
    if dt_s <= 0:
        raise UsageError(f"dt_s must be positive, got {dt_s}")
    if n < 1:
        raise UsageError(f"mode dimension must be >= 1, got {n}")
    shape = HilbertShape((n,))
    y = rate_hz * dt_s
    defect = (y * (n - 1) ** 2 / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for dephasing rate {rate_hz:g} on {n} levels "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})"
        )
    levels = np.arange(n)
    k1 = Operator(shape, np.diag(np.sqrt(y) * levels).astype(complex))
    k0 = Operator(shape, np.diag(np.sqrt(1.0 - y * levels**2)).astype(complex))
    return NoiseChannel(shape, (k0, k1), dt_s)


def density_matrix(psi: StateVector) -> np.ndarray:
    """|ψ⟩⟨ψ| as a dense array."""
    v = psi.amplitudes
    return np.outer(v, v.conj())


def apply_channel(channel: NoiseChannel, rho: np.ndarray) -> np.ndarray:
    """One deterministic Kraus step ρ → ΣKρK†."""
    d = channel.shape.total_dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise UsageError(f"density matrix must be {d}x{d}, got {rho.shape}")
    out = np.zeros_like(rho)
    for k in channel.kraus:
        out += k.matrix @ rho @ k.matrix.conj().T
    return out


def populations(rho: np.ndarray) -> np.ndarray:
    return np.real(np.diag(rho)).copy()


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """One stochastic unraveling of repeated channel applications.

    Per-step arrays are aligned so index s describes the state *after*
    step s+1; jump_counts is cumulative.
    """

    seed: int
    steps: int
    jump_steps: tuple[int, ...]
    jump_counts: np.ndarray
    parities: np.ndarray
    mean_occupations: np.ndarray
    final_state: StateVector


def apply_channel_trajectory(
    channel: NoiseChannel, psi: StateVector, steps: int, seed: int
) -> TrajectoryResult:
    """Monte Carlo trajectory: at each step, draw one Kraus branch with
    probability ‖K_kψ‖² and renormalize. Bitwise deterministic for a
    fixed seed."""
    [result] = _unravel(channel, psi, steps, [seed])
    return result


def run_trajectories(
    channel: NoiseChannel,
    psi: StateVector,
    steps: int,
    n_trajectories: int,
    base_seed: int,
) -> list[TrajectoryResult]:
    """Independent trajectories with per-index derived seeds, ordered by
    trajectory index. Each one is the trajectory apply_channel_trajectory
    gives for its seed; all of them advance together."""
    if n_trajectories < 1:
        raise UsageError(f"need at least one trajectory, got {n_trajectories}")
    seeds = [int(np.random.SeedSequence((base_seed, i)).generate_state(1)[0])
             for i in range(n_trajectories)]
    return _unravel(channel, psi, steps, seeds)


def _unravel(channel: NoiseChannel, psi: StateVector, steps: int,
             seeds: list[int]) -> list[TrajectoryResult]:
    """Trajectories for the given seeds, advanced as one (T, N) array.

    Trajectory i draws its uniforms from default_rng(seeds[i]) in one
    random(steps) call, which gives the same numbers as one random() per
    step. At each step every Kraus branch of every trajectory comes from
    one stacked product; the pick is the count of cumulative branch
    weights <= u·total (searchsorted side="right"), capped at K−1.
    """
    if psi.shape != channel.shape:
        raise UsageError(
            f"state on dims {psi.shape.dims} does not match channel shape "
            f"{channel.shape.dims}"
        )
    if steps < 0:
        raise UsageError(f"steps must be >= 0, got {steps}")
    n_traj = len(seeds)
    kraus_t = np.stack([k.matrix.T for k in channel.kraus])  # (K, N, N)
    last = len(kraus_t) - 1
    uniforms = np.stack([np.random.default_rng(s).random(steps) for s in seeds])
    levels = np.arange(channel.shape.total_dim)
    # columns: parity (-1)^n and photon number n
    observables = np.stack([(-1.0) ** levels, levels.astype(float)], axis=1)
    states = np.tile(psi.amplitudes, (n_traj, 1))
    rows = np.arange(n_traj)
    jumped = np.zeros((n_traj, steps), dtype=bool)
    # per trajectory: parities in stats[0, i], ⟨n⟩ in stats[1, i]
    stats = np.empty((2, n_traj, steps))
    for s in range(steps):
        branches = states @ kraus_t  # (K, T, N)
        weights = (branches.real**2 + branches.imag**2).sum(axis=-1)
        total = weights.sum(axis=0)
        if np.any(total <= 0):
            raise UsageError("state annihilated by every Kraus branch")
        below = np.cumsum(weights, axis=0) <= uniforms[:, s] * total
        pick = np.minimum(below.sum(axis=0), last)
        states = branches[pick, rows] / np.sqrt(weights[pick, rows])[:, None]
        jumped[:, s] = pick != 0
        stats[:, :, s] = ((states.real**2 + states.imag**2) @ observables).T
    jump_counts = np.cumsum(jumped, axis=1, dtype=np.int64)
    return [
        TrajectoryResult(
            seed=seed,
            steps=steps,
            jump_steps=tuple(np.flatnonzero(jumped[i]).tolist()),
            jump_counts=jump_counts[i],
            parities=stats[0, i],
            mean_occupations=stats[1, i],
            final_state=StateVector(channel.shape, states[i]),
        )
        for i, seed in enumerate(seeds)
    ]
