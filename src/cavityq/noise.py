"""Kraus channels for cavity decoherence and their trajectory unraveling.

Channels are discrete-time: one application advances the state by the
channel's dt. The photon-loss pair is the first-order expansion
{K0 ≈ I − (dt/2T1)n̂, K1 = √(dt/T1)·a} with K0 completed exactly to
√(I − K1†K1), so ΣK†K = I holds to machine precision while K1 keeps
the per-level jump rate n/T1. Every channel reads its dt_s by
`require_positive`, a positive and finite step, and the first-order
constructors refuse dt values for which their pair would violate
completeness beyond 1e-6 (StepSizeError).
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

A trajectory draws one Kraus branch per step, and between jumps its state
is K0^j x / ‖K0^j x‖. Trajectories therefore advance by no-jump runs: in a
block of up to _BLOCK steps, each history (one record of jumps, whose
trajectories share one state row) is one product with K0's powers, and a
trajectory's first jump is one comparison against its pre-drawn uniforms.
The work grows with jump events, not with steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (StepSizeError, UsageError, require_array, require_capacity, require_count,
                     require_finite, require_instance, require_nonnegative, require_on,
                     require_positive, require_real, require_sequence)
from .fock import HilbertShape, Operator, StateVector, annihilation, shape_of

_COMPLETENESS_TOL = 1e-9
_FIRST_ORDER_TOL = 1e-6
# most steps × trajectories one unraveling may take: the length of its
# per-step arrays; `cavityq code` at the cap peaks at about 250 MiB
MAX_TRAJECTORY_STEPS = 4 * 10**6
# steps in one block of a trajectory unraveling, and the entries its
# arrays may hold per step window: (N + K) per history and 1 per trajectory,
# so a window of runs stays within 512 KiB of complex128
_BLOCK = 64
_BLOCK_ENTRIES = 1 << 15


class _Banded:
    """Kraus operators with one nonzero diagonal each.

    diagonals[k, i] = K_k[i, i + o_k] and index[k, i] = i + o_k clipped
    into range; where i + o_k is out of range the diagonal entry is 0, so
    K_k x = diagonals[k] ∘ x[index[k]] needs no mask. On a C-ordered ρ, the
    pair ρ[i + o, j + o] is ρ.flat[k + o(N+1)] with k = iN + j, so an offset
    is one slice of length N² − |o|(N+1) of the view ρ.ravel(). bands holds,
    in sorted offset order, (destination, source, W_o at the destinations),
    W_o 0 where i + o or j + o leaves the range; a main band first is lead.
    table[m, k] is |u_k|² at the level m that K_k reads, so the branch
    weights ‖K_k x‖² of a state are |x|² @ table.
    """

    def __init__(self, diagonals: np.ndarray, offsets: list[int]) -> None:
        n = diagonals.shape[1]
        self.shape = (n, n)
        self.offsets = offsets
        self.index = np.clip(np.arange(n) + np.array(offsets)[:, None], 0, n - 1)
        self.diagonals = diagonals
        weight = diagonals.real**2 + diagonals.imag**2
        self.table = np.stack([np.bincount(i, w, minlength=n)
                               for i, w in zip(self.index, weight)], axis=1)
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

    def branch(self, k: np.ndarray, states: np.ndarray) -> np.ndarray:
        """K_k[i] applied to row i of an (M, N) array of states."""
        return self.diagonals[k] * states[np.arange(len(k))[:, None], self.index[k]]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho) if self.lead is None else self.lead2d * rho
        flat, out_flat = rho.ravel(), out.ravel()
        for dst, src, w in self.bands:
            band = out_flat[dst]  # a view: `out_flat[dst] +=` would copy it back onto itself
            band += w * flat[src]
        return out

    def gram(self) -> np.ndarray:
        """ΣK†K: diagonal, |u_k[i]|² summed on column level i + o_k."""
        return np.diag(self.table.sum(axis=1))


class _Dense:
    """Any Kraus set, as one (K, N, N) stack and its adjoints."""

    def __init__(self, matrices: np.ndarray) -> None:
        self.shape = matrices.shape[1:]
        self.stack = matrices
        self.adjoints = matrices.conj().transpose(0, 2, 1)

    def branch(self, k: np.ndarray, states: np.ndarray) -> np.ndarray:
        """K_k[i] applied to row i of an (M, N) array of states."""
        return (self.stack[k] @ states[:, :, None])[:, :, 0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.stack @ rho @ self.adjoints).sum(axis=0)

    def weights(self, states: np.ndarray) -> np.ndarray:
        """‖K_k x‖² of states (..., N), as (..., K)."""
        branches = self.stack @ states.reshape(-1, self.shape[0]).T
        weights = (branches.real**2 + branches.imag**2).sum(axis=1)
        return weights.T.reshape(*states.shape[:-1], len(self.stack))

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
        kraus = tuple(require_on(f"Kraus operator {i}", k, Operator, self.shape)
                      for i, k in enumerate(require_sequence("kraus", self.kraus, least=1)))
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "dt_s", require_positive("dt_s", self.dt_s))
        kernel = _build_kernel([k.matrix for k in self.kraus])
        object.__setattr__(self, "_kernel", kernel)
        defect = float(np.max(np.abs(kernel.gram() - np.eye(self.shape.total_dim))))
        if defect > _COMPLETENESS_TOL:
            raise UsageError(f"Kraus completeness violated by {defect:.3e} "
                             f"(tolerance {_COMPLETENESS_TOL})")


def _check_loss_args(t1_s: float, dt_s: float) -> float:
    """dt_s / t1_s, the loss per step, 0 at t1_s = inf: UsageError unless
    t1_s is a positive real, inf (no loss) included, and dt_s passes
    `require_positive`."""
    t1_s = require_real("t1_s", t1_s)
    if not t1_s > 0:  # NaN fails too
        raise UsageError(f"t1_s must be positive, got {t1_s}")
    return require_positive("dt_s", dt_s) / t1_s


def photon_loss_channel(t1_s: float, dt_s: float, n: int) -> NoiseChannel:
    """Single-photon loss on an n-level mode, anchored to the |1⟩ lifetime."""
    shape = shape_of((n,))
    x = _check_loss_args(t1_s, dt_s)
    # completeness defect of the literal first-order pair
    defect = ((n - 1) * x / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for {n} levels at t1={t1_s:g} "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})")
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
    x = require_finite("dt_s / t1_s", _check_loss_args(t1_s, dt_s))
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
    rate_hz = require_nonnegative("rate_hz", rate_hz)
    dt_s = require_positive("dt_s", dt_s)
    y = rate_hz * dt_s
    defect = (y * (n - 1) ** 2 / 2) ** 2
    if defect > _FIRST_ORDER_TOL:
        raise StepSizeError(
            f"dt={dt_s:g} too coarse for dephasing rate {rate_hz:g} on {n} levels "
            f"(first-order completeness defect {defect:.3e} > {_FIRST_ORDER_TOL})")
    levels = np.arange(n)
    k1 = Operator(shape, np.diag(np.sqrt(y) * levels).astype(complex))
    k0 = Operator(shape, np.diag(np.sqrt(1.0 - y * levels**2)).astype(complex))
    return NoiseChannel(shape, (k0, k1), dt_s)


def density_matrix(psi: StateVector) -> np.ndarray:
    """|ψ⟩⟨ψ| as a dense array."""
    v = require_instance("psi", psi, StateVector).amplitudes
    return np.outer(v, v.conj())


def apply_channel(channel: NoiseChannel, rho: np.ndarray) -> np.ndarray:
    """One deterministic Kraus step ρ → ΣKρK†, in O(K·N²) when banded.

    This is the per-step call of a loss run, so a NoiseChannel and a numeric
    ndarray of its shape pass unchecked: the ndarray is taken by one
    np.asarray call, without a finiteness pass, and the channel's type is
    checked only when its kernel cannot be read. Any other rho is read by
    `require_array`. Returns a new C-ordered (N, N) array; rho is unchanged."""
    try:
        kernel = channel._kernel
    except AttributeError:
        kernel = require_instance("channel", channel, NoiseChannel)._kernel
    if isinstance(rho, np.ndarray) and rho.dtype.kind in "iufc" and rho.shape == kernel.shape:
        rho = np.asarray(rho, dtype=complex, order="C")
    else:
        rho = require_array("rho", rho, kernel.shape)
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
    seed = require_count("seed", seed)
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
    base_seed = require_count("base_seed", base_seed)
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
    """Trajectories for the given seeds, advanced a block of steps at a time.

    Trajectory i draws its uniforms from default_rng(seeds[i]) in one
    random(steps) call, which gives the same numbers as one random() per
    step. Between jumps a state is K0^j x / ‖K0^j x‖ (the waiting-time
    picture of Dalibard, Castin & Mølmer, PRL 68, 580 (1992); Plenio &
    Knight, Rev. Mod. Phys. 70, 101 (1998)), so a
    history's whole no-jump run through a block is one product with K0's
    powers, formed once per call: its branch weights, parity and ⟨n⟩ at
    every step. Trajectories with one history (the same jumps at the same
    steps) share one state row. Step j keeps K0 iff w0(j) > u_j·total(j), so
    a trajectory's first jump in a run is one comparison against its
    uniforms. A jump step picks the count of cumulative branch weights
    <= u·total, capped at K−1, and trajectories that make the same jump
    share the new state from there on.

    Work grows with jump events rather than steps: a block costs one run
    per history, and each round of jumps in it one more. A channel whose
    first operator is the rare branch jumps almost every step, so it pays a
    round per step and runs 1.6–1.95× as long as a per-step loop (medians
    of paired runs), close to twice.
    """
    require_on("psi", psi, StateVector, require_instance("channel", channel, NoiseChannel).shape)
    n_traj = len(seeds)
    n = channel.shape.total_dim
    uniforms = np.stack([np.random.default_rng(s).random(steps) for s in seeds])
    levels = np.arange(n)
    # columns: parity (-1)^n, photon number n and the norm, then a banded
    # kernel's |u_k|² by level, each twice: they weigh the squares of the
    # real and imaginary parts of a state
    probe = np.stack([(-1.0) ** levels, levels.astype(float), np.ones(n)], axis=1)
    if isinstance(channel._kernel, _Banded):
        probe = np.hstack([probe, channel._kernel.table])
    probe = np.repeat(probe, 2, axis=0)
    powers = _no_jump_powers(channel, min(steps, _BLOCK))
    jumped = np.zeros((n_traj, steps), dtype=bool)
    # per trajectory: parities in stats[0, i], ⟨n⟩ in stats[1, i]
    stats = np.empty((2, n_traj, steps))
    states = psi.amplitudes[None]  # one row per history
    rows = np.zeros(n_traj, dtype=np.intp)  # each trajectory's history
    done = 0
    while done < steps:
        length = min(len(powers) - 1, steps - done, max(1, _BLOCK_ENTRIES // n_traj))
        block = slice(done, done + length)
        states, rows = _advance_block(channel, powers, _unit_scale(states), rows,
                                      uniforms[:, block], jumped[:, block],
                                      stats[:, :, block], probe)
        done += length
    if steps:
        states = states / np.sqrt((states.real**2 + states.imag**2).sum(axis=1))[:, None]
    jump_counts = np.cumsum(jumped, axis=1, dtype=np.int64)
    return [
        TrajectoryResult(
            seed=seed,
            steps=steps,
            jump_steps=tuple(np.flatnonzero(jumped[i]).tolist()),
            jump_counts=jump_counts[i],
            parities=stats[0, i],
            mean_occupations=stats[1, i],
            final_state=StateVector(channel.shape, states[rows[i]], psi.leakage),
        )
        for i, seed in enumerate(seeds)
    ]


def _advance_block(channel: NoiseChannel, powers: np.ndarray, states: np.ndarray,
                   rows: np.ndarray, uniforms: np.ndarray, jumped: np.ndarray,
                   stats: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of L = uniforms.shape[1] steps for every trajectory.

    states holds one row per history, and rows[t] is trajectory t's row.
    Each round runs every history over a window of the block, from the
    earliest position a history starts at. A trajectory that jumps in the
    window starts a new history one step after its jump; the others carry
    on from the window's end. The window is the rest of the block at first,
    then twice the longest no-jump run of the round before, so a channel
    that jumps every step computes short runs; it never holds more than
    _BLOCK_ENTRIES history entries. Fills the (T, L) jump flags and the
    (2, T, L) parity and ⟨n⟩ rows, and returns the states at the block's
    end and each trajectory's row among them.
    """
    kernel, last = channel._kernel, len(channel.kraus) - 1
    n_traj, length = uniforms.shape
    n = channel.shape.total_dim
    everyone = np.arange(n_traj)
    position = np.arange(length + 1)
    start = np.zeros(len(states), dtype=np.intp)
    # per trajectory and step: |x|² against parity, n and 1, for the state after the step
    seen = np.empty((n_traj, length, 3))
    observed = np.ascontiguousarray(probe[:, :3])
    lo, reach = 0, length
    while lo < length:
        # a window step takes N + K entries per history
        room = max(1, _BLOCK_ENTRIES // (len(states) * (n + last + 1)))
        hi = min(length, lo + reach, lo + room)
        late = start - lo  # steps into the window each history starts
        # the state before each step of the window, and after its last
        runs = _runs(powers, states, late, hi - lo)
        sums = np.square(runs.view(float)) @ probe
        if isinstance(kernel, _Banded):
            weights = sums[:, :-1, 3:]
        else:
            weights = kernel.weights(runs[:, :-1])
        cumulative = np.cumsum(weights, axis=-1)
        total = cumulative[..., -1]
        stay = cumulative[rows, :, 0] > uniforms[:, lo:hi] * total[rows]
        # trajectories whose history starts inside the window wait for it
        begin = late[rows]
        ahead = position[:hi - lo] >= begin[:, None]
        stay |= ~ahead
        np.copyto(seen[:, lo:hi], sums[rows, 1:, :3], where=ahead[..., None])
        first = stay.argmin(axis=1)
        moves = ~stay[everyone, first]
        reach = max(1, 2 * int((np.where(moves, first, hi - lo) - begin).max()))
        # histories carry on from the window's end; jumps make new ones
        states, start = runs[:, -1], np.maximum(start, hi)
        if moves.any():
            movers, at = everyone[moves], first[moves]
            src, step = rows[movers], lo + at
            below = cumulative[src, at]
            total = below[:, -1]
            if (total <= 0).any():
                raise UsageError("state annihilated by every Kraus branch")
            # the count of cumulative weights <= u·total among the first K − 1 is the
            # count among all K, capped at K − 1
            pick = (below[:, :-1] <= (uniforms[movers, step] * total)[:, None]).sum(axis=1)
            jumped[movers, step] = pick != 0
            # one new history per (history, step, branch)
            _, lead, group = np.unique((src * length + at) * (last + 1) + pick,
                                       return_index=True, return_inverse=True)
            new = kernel.branch(pick[lead], runs[src[lead], at[lead]])
            seen[movers, step] = (np.square(new.view(float)) @ observed)[group]
            rows[movers] = len(states) + group
            states = np.concatenate([states, new])
            start = np.concatenate([start, step[lead] + 1])
            # drop the histories no trajectory follows
            alive = np.zeros(len(states), dtype=bool)
            alive[rows] = True
            states, start, rows = states[alive], start[alive], (np.cumsum(alive) - 1)[rows]
        lo = int(start.min())
    np.divide(seen[..., :2], seen[..., 2:], out=stats.transpose(1, 2, 0))
    return states, rows


def _runs(powers: np.ndarray, states: np.ndarray, late: np.ndarray, width: int) -> np.ndarray:
    """(H, width + 1, N): K0^max(j − late[h], 0) states[h] at j = 0..width."""
    if powers.ndim == 2:
        runs = powers[:width + 1] * states[:, None, :]
    else:  # powers[j] is the transpose of K0^j, and powers[0] = I needs no product
        h, n = states.shape
        runs = np.empty((h, width + 1, n), dtype=complex)
        runs[:, 0] = states
        np.matmul(states, powers[1:width + 1].transpose(1, 0, 2).reshape(n, -1),
                  out=runs.reshape(h, -1)[:, n:])
    if late.any():
        exponent = np.maximum(np.arange(width + 1) - late[:, None], 0)
        runs = runs[np.arange(len(states))[:, None], exponent]
    return runs


def _no_jump_powers(channel: NoiseChannel, reach: int) -> np.ndarray:
    """K0^j for j = 0..reach: cumulative products of its diagonal, as a
    (reach + 1, N) table, when K0 lies on the main band; otherwise repeated
    products of its dense matrix, stored transposed as (reach + 1, N, N),
    with reach cut to at most _BLOCK_ENTRIES entries past the first."""
    kernel, n = channel._kernel, channel.shape.total_dim
    if isinstance(kernel, _Banded) and kernel.offsets[0] == 0:
        power = np.ones((reach + 1, n), dtype=complex)
        power[1:] = kernel.diagonals[0]
        return np.cumprod(power, axis=0, out=power)
    power = [np.eye(n, dtype=complex)]
    for _ in range(max(1, min(reach, _BLOCK_ENTRIES // (n * n)))):
        power.append(power[-1] @ channel.kraus[0].matrix.T)
    return np.stack(power)


def _unit_scale(states: np.ndarray) -> np.ndarray:
    """Each row times the power of two that brings its norm into [0.5, 1).
    The scaling is exact, so every ratio read from a row is unchanged."""
    _, exponent = np.frexp(np.sqrt((states.real**2 + states.imag**2).sum(axis=1)))
    return states * np.ldexp(1.0, -exponent)[:, None]
