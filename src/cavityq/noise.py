"""Kraus channels for cavity decoherence and their trajectory unraveling.

Channels are discrete-time: one application advances the state by the
channel's dt. The photon-loss pair is the first-order expansion
{K0 ≈ I − (dt/2T1)n̂, K1 = √(dt/T1)·a} with K0 completed exactly to
√(I − K1†K1), so ΣK†K = I holds to machine precision while K1 keeps
the per-level jump rate n/T1. Construction refuses dt values for which
the first-order pair would violate completeness beyond 1e-6.
`amplitude_damping_channel` is the exact loss channel over dt (the
bosonic amplitude-damping Kraus set): it has no step-size limit and
composes exactly, E_s∘E_t = E_{s+t}, so it bounds the first-order
channel's error.

Every built-in Kraus operator has a single nonzero diagonal: K_k[i, i+o_k]
= u_k[i]. A channel whose operators all have that form is stored as bands
at construction, K_k x = u_k ∘ shift_{o_k}(x). One step is then
ρ' = Σ_o W_o ∘ ρ[i+o, j+o], W_o = Σ u_k u_k† over the operators of offset
o, done on the caller's (N, N) ρ: one multiply, then one in-place add of a
shifted slice of the flat views per further offset. That is O(K·N²), with
no gather or matrix product; a set with a dense operator is a (K, N, N) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (StepSizeError, UsageError, require_capacity, require_count,
                     require_finite, require_positive, require_real)
from .fock import HilbertShape, Operator, StateVector, annihilation, shape_of

_COMPLETENESS_TOL = 1e-9
_FIRST_ORDER_TOL = 1e-6
# most steps × trajectories one unraveling may take: the length of its
# per-step arrays; `cavityq code` at the cap peaks at about 250 MiB
MAX_TRAJECTORY_STEPS = 4 * 10**6


class _Banded:
    """Kraus operators with one nonzero diagonal each.

    diagonals[k, i] = K_k[i, i + o_k] and index[k, i] = i + o_k clipped
    into range; where i + o_k is out of range the diagonal entry is 0, so
    K_k x = diagonals[k] ∘ x[index[k]] needs no mask. On a C-ordered ρ, the
    pair ρ[i + o, j + o] is ρ.flat[k + o(N+1)] with k = iN + j, so an offset
    is one slice of length N² − |o|(N+1) of the view ρ.ravel(). bands holds,
    in sorted offset order, (destination, source, W_o at the destinations),
    W_o 0 where i + o or j + o leaves the range; a main band first is lead.
    """

    def __init__(self, diagonals: np.ndarray, offsets: list[int]) -> None:
        n = diagonals.shape[1]
        self.shape = (n, n)
        self.index = np.clip(np.arange(n) + np.array(offsets)[:, None], 0, n - 1)
        self.diagonals = diagonals
        self.bands = []
        for o in sorted(set(offsets)):
            u = self.diagonals[np.equal(offsets, o)]
            w = (u[:, :, None] * u[:, None, :].conj()).sum(axis=0).reshape(-1)
            cut = abs(o) * (n + 1)
            head, tail = slice(n * n - cut), slice(cut, None)
            dst, src = (head, tail) if o > 0 else (tail, head)
            self.bands.append((dst, src, w[dst].copy()))
        self.lead = self.bands.pop(0)[2] if min(offsets) == 0 else None
        self.lead2d = None if self.lead is None else self.lead.reshape(self.shape)

    def branches(self, columns: np.ndarray) -> np.ndarray:
        """K_k applied to every column of an (N, M) array, as (K, N, M)."""
        return self.diagonals[:, :, None] * columns[self.index]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho) if self.lead is None else self.lead2d * rho
        flat, out_flat = rho.ravel(), out.ravel()
        for dst, src, w in self.bands:
            band = out_flat[dst]  # a view: `out_flat[dst] +=` would copy it back onto itself
            band += w * flat[src]
        return out

    def gram(self) -> np.ndarray:
        """ΣK†K: diagonal, |u_k[i]|² summed on column level i + o_k."""
        weight = self.diagonals.real**2 + self.diagonals.imag**2
        return np.diag(np.bincount(self.index.ravel(), weight.ravel(), minlength=self.shape[0]))


class _Dense:
    """Any Kraus set, as one (K, N, N) stack and its adjoints."""

    def __init__(self, matrices: np.ndarray) -> None:
        self.shape = matrices.shape[1:]
        self.stack = matrices
        self.adjoints = matrices.conj().transpose(0, 2, 1)

    def branches(self, columns: np.ndarray) -> np.ndarray:
        """K_k applied to every column of an (N, M) array, as (K, N, M)."""
        return self.stack @ columns

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.branches(rho) @ self.adjoints).sum(axis=0)

    def gram(self) -> np.ndarray:
        return (self.adjoints @ self.stack).sum(axis=0)


def _build_kernel(matrices: list[np.ndarray]) -> _Banded | _Dense:
    """Bands when every operator has at most one nonzero diagonal (an all-
    zero operator counts as the main diagonal), else the dense stack. The
    bands are read one operator at a time, so only a dense set is stacked."""
    n = len(matrices[0])
    levels = np.arange(n)
    offsets, diagonals = [], []
    for m in matrices:
        rows, cols = np.nonzero(m)
        found = cols - rows
        if np.any(found != found[:1]):
            return _Dense(np.stack(matrices))
        offsets.append(int(found[0]) if found.size else 0)
        diagonals.append(m[levels, np.clip(levels + offsets[-1], 0, n - 1)])
    return _Banded(np.array(diagonals), offsets)


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A set of Kraus operators advancing one time step dt."""

    shape: HilbertShape
    kraus: tuple[Operator, ...]
    dt_s: float
    _kernel: _Banded | _Dense = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", shape_of(self.shape))
        object.__setattr__(self, "kraus", tuple(self.kraus))
        if not self.kraus:
            raise UsageError("channel needs at least one Kraus operator")
        require_positive("dt_s", self.dt_s)
        if any(k.shape != self.shape for k in self.kraus):
            raise UsageError("Kraus operators must share the channel shape")
        kernel = _build_kernel([k.matrix for k in self.kraus])
        object.__setattr__(self, "_kernel", kernel)
        defect = float(np.max(np.abs(kernel.gram() - np.eye(self.shape.total_dim))))
        if defect > _COMPLETENESS_TOL:
            raise UsageError(f"Kraus completeness violated by {defect:.3e} "
                             f"(tolerance {_COMPLETENESS_TOL})")


def _check_step(dt_s: float) -> None:
    """Raise UsageError unless dt_s is a positive real (not NaN). Infinity
    passes, so that a first-order channel reports it as too coarse."""
    require_real("dt_s", dt_s)
    if not dt_s > 0:
        raise UsageError(f"dt_s must be positive, got {dt_s}")


def _check_loss_args(t1_s: float, dt_s: float) -> None:
    require_real("t1_s", t1_s)
    if not t1_s > 0:  # NaN fails too; inf, no loss, passes
        raise UsageError(f"t1_s must be positive, got {t1_s}")
    _check_step(dt_s)


def photon_loss_channel(t1_s: float, dt_s: float, n: int) -> NoiseChannel:
    """Single-photon loss on an n-level mode, anchored to the |1⟩ lifetime."""
    shape = shape_of((n,))
    _check_loss_args(t1_s, dt_s)
    x = dt_s / t1_s
    # completeness defect of the literal first-order pair
    defect = ((n - 1) * x / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for {n} levels at t1={t1_s:g} "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})")
    if dt_s == math.inf:  # with t1_s = inf too, the ratio and defect are NaN, which passes
        raise UsageError(f"dt_s must be positive and finite, got {dt_s}")
    k1 = Operator(shape, math.sqrt(x) * annihilation(n).matrix)
    k0 = Operator(shape, np.diag(np.sqrt(1.0 - x * np.arange(n))).astype(complex))
    return NoiseChannel(shape, (k0, k1), dt_s)


def amplitude_damping_channel(t1_s: float, dt_s: float, n: int) -> NoiseChannel:
    """Exact single-photon loss over dt on an n-level mode: the bosonic
    amplitude-damping Kraus set (Chuang, Leung & Yamamoto, PRA 56, 1114
    (1997)), K_l = Σ_m √C(m,l) (1−p)^{(m−l)/2} p^{l/2} |m−l⟩⟨m| for
    l = 0…n−1, with p = 1 − e^{−dt/T1}. K_l loses l photons, so it lies on
    the l-th superdiagonal. Valid at any finite dt, and E_s∘E_t = E_{s+t};
    T1 = inf gives p = 0, the identity channel."""
    shape = shape_of((n,))
    _check_loss_args(t1_s, dt_s)
    x = require_finite("dt_s / t1_s", require_positive("dt_s", dt_s) / t1_s)  # 0 at t1_s = inf
    lost, m = np.nonzero(np.tri(n, dtype=bool).T)  # every l <= m, by l
    # the binomial weight C(m,l) (1−p)^(m−l) p^l from exact integer binomials
    binomial = np.array([math.comb(a, b) for a, b in zip(m.tolist(), lost.tolist())],
                        dtype=float)
    weight = binomial * np.exp(-(m - lost) * x) * (-math.expm1(-x)) ** lost
    # K_l's n − l entries, placed on its l-th superdiagonal
    bands = np.split(np.sqrt(weight).astype(complex), np.cumsum(np.arange(n, 1, -1)))
    return NoiseChannel(shape, tuple(Operator(shape, np.diag(band, l))
                                     for l, band in enumerate(bands)), dt_s)


def dephasing_channel(rate_hz: float, dt_s: float, n: int) -> NoiseChannel:
    """Pure dephasing generated by n̂. The default physical rate on the
    hardware this models is zero; the channel exists as an explicit hook."""
    shape = shape_of((n,))
    require_real("rate_hz", rate_hz)
    if not rate_hz >= 0:  # NaN fails too
        raise UsageError(f"rate_hz must be >= 0, got {rate_hz}")
    _check_step(dt_s)
    y = rate_hz * dt_s
    defect = (y * (n - 1) ** 2 / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for dephasing rate {rate_hz:g} on {n} levels "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})")
    if dt_s == math.inf:  # a zero rate gives a NaN defect, which passes
        raise UsageError(f"dt_s must be positive and finite, got {dt_s}")
    levels = np.arange(n)
    k1 = Operator(shape, np.diag(np.sqrt(y) * levels).astype(complex))
    k0 = Operator(shape, np.diag(np.sqrt(1.0 - y * levels**2)).astype(complex))
    return NoiseChannel(shape, (k0, k1), dt_s)


def density_matrix(psi: StateVector) -> np.ndarray:
    """|ψ⟩⟨ψ| as a dense array."""
    v = psi.amplitudes
    return np.outer(v, v.conj())


def apply_channel(channel: NoiseChannel, rho: np.ndarray) -> np.ndarray:
    """One deterministic Kraus step ρ → ΣKρK†, in O(K·N²) when banded."""
    kernel = channel._kernel
    rho = np.asarray(rho, dtype=complex, order="C")
    if rho.shape != kernel.shape:
        raise UsageError("density matrix must be {}x{}, got {}".format(*kernel.shape, rho.shape))
    return kernel.apply(rho)


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
    require_count("seed", seed)
    [result] = _unravel(channel, psi, _require_room(steps, 1), [seed])
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
    n_trajectories = require_count("n_trajectories", n_trajectories, 1)
    require_count("base_seed", base_seed)
    steps = _require_room(steps, n_trajectories)
    seeds = [int(np.random.SeedSequence((base_seed, i)).generate_state(1)[0])
             for i in range(n_trajectories)]
    return _unravel(channel, psi, steps, seeds)


def _require_room(steps: int, n_trajectories: int) -> int:
    """int(steps), a count with steps × n_trajectories within
    MAX_TRAJECTORY_STEPS (CapacityError), checked before any array."""
    steps = require_count("steps", steps)
    require_capacity(f"steps {steps} × n_trajectories {n_trajectories}",
                     steps * n_trajectories, MAX_TRAJECTORY_STEPS, "trajectory steps")
    return steps


def _unravel(channel: NoiseChannel, psi: StateVector, steps: int,
             seeds: list[int]) -> list[TrajectoryResult]:
    """Trajectories for the given seeds, advanced as one (T, N) array.

    Trajectory i draws its uniforms from default_rng(seeds[i]) in one
    random(steps) call, which gives the same numbers as one random() per
    step. At each step every Kraus branch of every trajectory comes from
    the channel's kernel at once (shifted elementwise products for bands,
    one stacked product otherwise); the pick is the count of cumulative
    branch weights <= u·total (searchsorted side="right"), capped at K−1.
    """
    if psi.shape != channel.shape:
        raise UsageError(f"state on dims {psi.shape.dims} does not match channel shape "
                         f"{channel.shape.dims}")
    n_traj = len(seeds)
    kernel = channel._kernel
    last = len(channel.kraus) - 1
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
        branches = kernel.branches(states.T)  # (K, N, T)
        weights = (branches.real**2 + branches.imag**2).sum(axis=1)
        total = weights.sum(axis=0)
        if (total <= 0).any():
            raise UsageError("state annihilated by every Kraus branch")
        below = np.cumsum(weights, axis=0) <= uniforms[:, s] * total
        pick = np.minimum(below.sum(axis=0), last)
        states = branches[pick, :, rows] / np.sqrt(weights[pick, rows])[:, None]
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
