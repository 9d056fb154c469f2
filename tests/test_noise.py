import copy
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cavityq import codes, fock, noise, trotter
from cavityq.errors import ShapeError, StepSizeError, UsageError


def loss_channel(n=6, t1=1.0, dt=1e-4):
    return noise.photon_loss_channel(t1, dt, n)


class TestChannelConstruction:
    def test_completeness_exact(self):
        ch = loss_channel(n=10, dt=1e-4)
        total = sum(k.matrix.conj().T @ k.matrix for k in ch.kraus)
        np.testing.assert_allclose(total, np.eye(10), atol=1e-12)

    def test_kraus_forms(self):
        t1, dt, n = 0.5, 1e-4, 5
        ch = noise.photon_loss_channel(t1, dt, n)
        k0, k1 = ch.kraus
        x = dt / t1
        # K1 carries the jump amplitudes √(n·dt/t1)
        for lvl in range(1, n):
            assert k1.matrix[lvl - 1, lvl] == pytest.approx(math.sqrt(lvl * x))
        # K0 agrees with I - (dt/2t1)n̂ to first order
        np.testing.assert_allclose(
            np.diag(k0.matrix).real, 1 - x * np.arange(n) / 2, atol=(n * x) ** 2
        )

    def test_step_size_guard(self):
        with pytest.raises(StepSizeError):
            noise.photon_loss_channel(1e-3, 1e-3, 50)

    def test_bad_completeness_rejected(self):
        shape = fock.HilbertShape((3,))
        half = fock.Operator(shape, np.eye(3) * 0.9)
        with pytest.raises(UsageError, match="completeness"):
            noise.NoiseChannel(shape, (half,), 1e-3)

    def test_needs_kraus_operators_of_the_channel_shape(self):
        shape = fock.HilbertShape((3,))
        with pytest.raises(UsageError, match=r"^kraus must be a non-empty sequence, got \(\)$"):
            noise.NoiseChannel(shape, (), 1e-3)
        other = fock.Operator(fock.HilbertShape((2,)), np.eye(2))
        message = r"^Kraus operator 1 must be on dims \(3,\), got \(2,\)$"
        with pytest.raises(ShapeError, match=message):
            noise.NoiseChannel(shape, (fock.Operator(shape, np.eye(3)), other), 1e-3)

    def test_dephasing_default_rate_zero_is_identity(self):
        ch = noise.dephasing_channel(0.0, 1e-3, 8)
        with pytest.warns(fock.TruncationWarning):
            rho = noise.density_matrix(fock.coherent_state(1.0, 8))
        np.testing.assert_allclose(noise.apply_channel(ch, rho), rho, atol=1e-14)

    def test_dephasing_kills_coherences_not_populations(self):
        ch = noise.dephasing_channel(1.0, 5e-5, 6)
        with pytest.warns(fock.TruncationWarning):
            rho = noise.density_matrix(fock.coherent_state(1.0, 6))
        out = rho.copy()
        for _ in range(200):
            out = noise.apply_channel(ch, out)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < np.max(np.abs(rho - np.diag(np.diag(rho))))


class TestKrausEvolution:
    def test_vacuum_fixed_point(self):
        ch = loss_channel()
        rho = noise.density_matrix(fock.basis_state(6, 0))
        np.testing.assert_allclose(noise.apply_channel(ch, rho), rho, atol=1e-14)

    def test_mean_occupation_decay(self):
        # ⟨n̂⟩ under repeated application tracks e^{-t/T1} within 1%
        t1, dt, n = 1.0, 1e-4, 12
        ch = noise.photon_loss_channel(t1, dt, n)
        with pytest.warns(fock.TruncationWarning):
            rho = noise.density_matrix(fock.coherent_state(1.5, n))
        n0 = float(np.real(np.trace(np.diag(np.arange(n)) @ rho)))
        steps = 10000  # advance a full lifetime
        for _ in range(steps):
            rho = noise.apply_channel(ch, rho)
        n_final = float(np.real(np.trace(np.diag(np.arange(n)) @ rho)))
        assert n_final / n0 == pytest.approx(math.exp(-1.0), rel=0.01)

    def test_fock_decay_rate_scales_with_n(self):
        # survival of |n⟩ decays n times faster than |1⟩
        t1, dt = 1.0, 1e-4
        n_dim = 8
        ch = noise.photon_loss_channel(t1, dt, n_dim)
        steps = 200
        rates = {}
        for lvl in (1, 2, 3, 5):
            rho = noise.density_matrix(fock.basis_state(n_dim, lvl))
            survival = []
            for _ in range(steps):
                rho = noise.apply_channel(ch, rho)
                survival.append(float(np.real(rho[lvl, lvl])))
            t = dt * np.arange(1, steps + 1)
            slope = np.polyfit(t, np.log(survival), 1)[0]
            rates[lvl] = -slope
        for lvl in (2, 3, 5):
            assert rates[lvl] / rates[1] == pytest.approx(lvl, rel=0.02)

    def test_trace_preserved(self):
        ch = loss_channel(n=8, dt=2e-4)
        with pytest.warns(fock.TruncationWarning):
            rho = noise.density_matrix(fock.coherent_state(1.2, 8))
        for _ in range(50):
            rho = noise.apply_channel(ch, rho)
        assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-12)


class TestTrajectories:
    def test_deterministic_for_seed(self):
        ch = loss_channel(n=5, dt=2e-4)
        with pytest.warns(fock.TruncationWarning):
            psi = fock.coherent_state(1.0, 5)
        t1 = noise.apply_channel_trajectory(ch, psi, 50, seed=42)
        t2 = noise.apply_channel_trajectory(ch, psi, 50, seed=42)
        assert t1.jump_steps == t2.jump_steps
        np.testing.assert_array_equal(t1.final_state.amplitudes, t2.final_state.amplitudes)
        np.testing.assert_array_equal(t1.parities, t2.parities)

    def test_single_step_jump_probability(self):
        # branch weight of the jump Kraus on |1⟩ is exactly dt/t1
        t1_s, dt = 1.0, 5e-4
        ch = noise.photon_loss_channel(t1_s, dt, 4)
        psi = fock.basis_state(4, 1)
        k1 = ch.kraus[1].matrix @ psi.amplitudes
        assert float(np.real(np.vdot(k1, k1))) == pytest.approx(dt / t1_s, rel=1e-12)

    def test_zero_rate_never_jumps(self):
        ch = noise.dephasing_channel(0.0, 1e-3, 4)
        with pytest.warns(fock.TruncationWarning):
            psi = fock.coherent_state(0.7, 4)
        traj = noise.apply_channel_trajectory(ch, psi, 100, seed=7)
        assert traj.jump_steps == ()
        assert fock.fidelity(traj.final_state, psi) == pytest.approx(1.0, abs=1e-12)

    def test_jump_flips_parity_of_cat(self):
        # post-select a trajectory with exactly one jump and check the
        # parity flip at the jump step
        ch = loss_channel(n=20, t1=1.0, dt=1e-4)
        psi = codes.cat_state(2.0, "+", 20)
        for seed in range(100):
            traj = noise.apply_channel_trajectory(ch, psi, 2500, seed=seed)
            if len(traj.jump_steps) == 1:
                s = traj.jump_steps[0]
                assert traj.parities[s] < -0.9
                break
        else:
            pytest.fail("no single-jump trajectory found in 100 seeds")

    def test_ensemble_matches_kraus_map(self):
        # ensemble-averaged populations and the deterministic map agree
        # within 3σ binomial error
        n_traj = 10000
        steps = 10
        n_dim = 4
        ch = noise.photon_loss_channel(1.0, 5e-4, n_dim)
        psi = fock.basis_state(n_dim, 2)
        rho = noise.density_matrix(psi)
        for _ in range(steps):
            rho = noise.apply_channel(ch, rho)
        expected = noise.populations(rho)
        counts = np.zeros(n_dim)
        results = noise.run_trajectories(ch, psi, steps, n_traj, base_seed=123)
        for traj in results:
            counts += traj.final_state.probabilities()
        observed = counts / n_traj
        for lvl in range(n_dim):
            sigma = math.sqrt(max(expected[lvl] * (1 - expected[lvl]), 1e-12) / n_traj)
            assert abs(observed[lvl] - expected[lvl]) < 3 * sigma + 1e-9

    def test_run_trajectories_reproducible(self):
        ch = loss_channel(n=4, dt=5e-4)
        psi = fock.basis_state(4, 2)
        r1 = noise.run_trajectories(ch, psi, 20, 5, base_seed=9)
        r2 = noise.run_trajectories(ch, psi, 20, 5, base_seed=9)
        for a, b in zip(r1, r2):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.jump_counts, b.jump_counts)

    def test_mismatched_state_rejected(self):
        ch = loss_channel(n=4)
        with pytest.raises(UsageError):
            noise.apply_channel_trajectory(ch, fock.basis_state(5, 0), 10, seed=0)


@pytest.mark.parametrize("final_state", [
    lambda psi: trotter.evolve_trotter(
        trotter.QuditHamiltonian(np.linspace(0.0, 1.0, 8), np.linspace(0.5, 0.0, 8)),
        1.0, 3, psi).state,
    lambda psi: noise.apply_channel_trajectory(loss_channel(n=8), psi, 5, 1).final_state,
    lambda psi: noise.run_trajectories(loss_channel(n=8), psi, 5, 2, 1)[1].final_state,
], ids=["evolve_trotter", "apply_channel_trajectory", "run_trajectories"])
def test_engines_keep_the_leakage_of_the_initial_state(final_state):
    # each read 0.0, where apply_circuit keeps the truncated state's leakage
    with pytest.warns(fock.TruncationWarning):
        psi = fock.coherent_state(2.5, 8)
    assert psi.leakage == pytest.approx(0.291, abs=5e-4)
    assert final_state(psi).leakage == psi.leakage


# ---------------------------------------------------------------------------
# batched trajectories against the per-trajectory loop


def scalar_trajectory(channel, psi, steps, seed):
    """The per-trajectory, per-step loop the batched kernel replaced, as an
    oracle: one matvec per Kraus branch and one rng.random() per step."""
    rng = np.random.default_rng(seed)
    state = psi.amplitudes.copy()
    mats = [k.matrix for k in channel.kraus]
    jump_steps = []
    jump_counts = np.zeros(steps, dtype=np.int64)
    parities = np.zeros(steps)
    mean_ns = np.zeros(steps)
    jumps = 0
    levels = np.arange(channel.shape.total_dim)
    signs = (-1.0) ** levels
    for s in range(steps):
        branches = [m @ state for m in mats]
        weights = np.array([float(np.real(np.vdot(b, b))) for b in branches])
        total = weights.sum()
        if total <= 0:
            raise UsageError("state annihilated by every Kraus branch")
        r = rng.random() * total
        pick = int(np.searchsorted(np.cumsum(weights), r, side="right"))
        pick = min(pick, len(branches) - 1)
        state = branches[pick] / math.sqrt(weights[pick])
        if pick != 0:
            jumps += 1
            jump_steps.append(s)
        jump_counts[s] = jumps
        probs = np.abs(state) ** 2
        parities[s] = float(np.dot(signs, probs))
        mean_ns[s] = float(np.dot(levels, probs))
    return seed, tuple(jump_steps), jump_counts, parities, mean_ns, state


def strong_channel(kind, n, x):
    """Exactly complete loss, dephasing or both, at rates far above what
    the first-order constructors accept, so trajectories jump often."""
    shape = fock.HilbertShape((n,))
    levels = np.arange(n)
    ops, drain = [], np.zeros(n)
    if kind in ("loss", "both"):
        ops.append(math.sqrt(x) * fock.annihilation(n).matrix)
        drain += x * levels
    if kind in ("dephasing", "both"):
        ops.append(np.diag(math.sqrt(x / (n - 1)) * levels).astype(complex))
        drain += x / (n - 1) * levels**2
    k0 = np.diag(np.sqrt(1.0 - drain)).astype(complex)
    return noise.NoiseChannel(
        shape, [fock.Operator(shape, m) for m in [k0, *ops]], 1e-3
    )


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(channel, rng):
    """The same complete set behind a random unitary, {U K_k}: every
    operator is dense, so the channel takes the dense path."""
    u = random_unitary(rng, channel.shape.total_dim)
    return noise.NoiseChannel(
        channel.shape, [fock.Operator(channel.shape, u @ k.matrix) for k in channel.kraus],
        channel.dt_s,
    )


def phased(channel, rng):
    """{D K_k} with D a random diagonal unitary: still banded and
    complete, with complex diagonals."""
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, channel.shape.total_dim))
    return noise.NoiseChannel(
        channel.shape, [fock.Operator(channel.shape, d[:, None] * k.matrix)
                        for k in channel.kraus],
        channel.dt_s,
    )


def forced_dense(channel):
    """The same channel with its kernel replaced by the dense stack."""
    forced = noise.NoiseChannel(channel.shape, channel.kraus, channel.dt_s)
    stack = np.stack([k.matrix for k in channel.kraus])
    object.__setattr__(forced, "_kernel", noise._Dense(stack))
    return forced


@st.composite
def trajectory_problems(draw):
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(
        ["first_order", "loss", "dephasing", "both", "phased", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "first_order":
        channel = noise.photon_loss_channel(1.0, 2e-3 / (n - 1), n)
    else:
        # keeps 1 - x n - x n²/(n-1) >= 0.1 on every level
        x = draw(st.floats(0.01, 0.45)) / (n - 1)
        if kind == "dense":
            channel = rotated(strong_channel("both", n, x), rng)
        elif kind == "phased":
            channel = phased(strong_channel("both", n, x), rng)
        else:
            channel = strong_channel(kind, n, x)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = fock.StateVector((n,), amps).normalized()
    return channel, psi


class TestBatchedTrajectories:
    @given(trajectory_problems(), st.sampled_from([1, 2, 7]),
           st.sampled_from([0, 1, 33]), st.integers(0, 2**32 - 1))
    def test_matches_scalar_loop(self, problem, n_traj, steps, base_seed):
        channel, psi = problem
        results = noise.run_trajectories(channel, psi, steps, n_traj, base_seed)
        assert len(results) == n_traj
        for i, traj in enumerate(results):
            seed = int(np.random.SeedSequence((base_seed, i)).generate_state(1)[0])
            _, jump_steps, counts, parities, mean_ns, final = scalar_trajectory(
                channel, psi, steps, seed
            )
            assert traj.seed == seed
            assert traj.steps == steps
            assert traj.jump_steps == jump_steps
            assert traj.jump_counts.dtype == np.int64
            np.testing.assert_array_equal(traj.jump_counts, counts)
            np.testing.assert_allclose(traj.parities, parities, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.mean_occupations, mean_ns,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.final_state.amplitudes, final,
                                       rtol=0, atol=1e-12)

    @given(trajectory_problems(), st.integers(0, 2**63 - 1))
    def test_single_trajectory_matches_scalar_loop(self, problem, seed):
        channel, psi = problem
        traj = noise.apply_channel_trajectory(channel, psi, 33, seed)
        _, jump_steps, counts, parities, _, final = scalar_trajectory(
            channel, psi, 33, seed
        )
        assert traj.jump_steps == jump_steps
        np.testing.assert_array_equal(traj.jump_counts, counts)
        np.testing.assert_allclose(traj.parities, parities, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.final_state.amplitudes, final,
                                   rtol=0, atol=1e-12)

    @given(trajectory_problems(), st.integers(0, 2**32 - 1))
    def test_dense_path_gives_same_jumps(self, problem, base_seed):
        channel, psi = problem
        banded = noise.run_trajectories(channel, psi, 33, 3, base_seed)
        dense = noise.run_trajectories(forced_dense(channel), psi, 33, 3, base_seed)
        for a, b in zip(banded, dense):
            assert a.seed == b.seed
            assert a.jump_steps == b.jump_steps
            np.testing.assert_array_equal(a.jump_counts, b.jump_counts)
            np.testing.assert_allclose(a.final_state.amplitudes,
                                       b.final_state.amplitudes, rtol=0, atol=1e-12)

    def test_rotated_channel_is_dense(self):
        rng = np.random.default_rng(5)
        channel = rotated(strong_channel("both", 5, 0.05), rng)
        assert isinstance(channel._kernel, noise._Dense)
        psi = fock.basis_state(5, 4)
        results = noise.run_trajectories(channel, psi, 33, 7, base_seed=1)
        assert sum(len(t.jump_steps) for t in results) > 0

    def test_strong_channels_jump(self):
        # the property tests above would be vacuous without jumps
        psi = fock.basis_state(6, 5)
        for kind in ("loss", "dephasing", "both"):
            results = noise.run_trajectories(strong_channel(kind, 6, 0.08), psi,
                                             33, 7, base_seed=1)
            assert sum(len(t.jump_steps) for t in results) > 0

    def test_annihilated_state_raises(self):
        ch = loss_channel(n=4)
        zero_state = fock.StateVector((4,), np.zeros(4))
        with pytest.raises(UsageError, match="annihilated"):
            noise.run_trajectories(ch, zero_state, 3, 2, base_seed=0)
        with pytest.raises(UsageError, match="annihilated"):
            noise.apply_channel_trajectory(ch, zero_state, 1, seed=0)

    def test_negative_steps_rejected(self):
        ch = loss_channel(n=4)
        with pytest.raises(UsageError, match="steps"):
            noise.run_trajectories(ch, fock.basis_state(4, 1), -1, 2, base_seed=0)

    @pytest.mark.parametrize("seed", [True, 2.5, -1, "3", np.int64(3)])
    def test_seed_rule(self, seed):
        # the count rule, nonnegative: bools, floats, strings and negative
        # values must not reach numpy's SeedSequence
        ch = loss_channel(n=4, dt=5e-4)
        psi = fock.basis_state(4, 2)
        if not isinstance(seed, np.integer):
            with pytest.raises(UsageError, match="^seed must be a nonnegative integer"):
                noise.apply_channel_trajectory(ch, psi, 3, seed=seed)
            with pytest.raises(UsageError, match="base_seed must be a nonnegative integer"):
                noise.run_trajectories(ch, psi, 3, 2, base_seed=seed)
            return
        one = noise.apply_channel_trajectory(ch, psi, 30, seed=seed)
        assert one.jump_steps == noise.apply_channel_trajectory(ch, psi, 30, seed=3).jump_steps
        got = noise.run_trajectories(ch, psi, 30, 4, base_seed=seed)
        want = noise.run_trajectories(ch, psi, 30, 4, base_seed=3)
        assert [g.seed for g in got] == [w.seed for w in want]
        assert [g.jump_steps for g in got] == [w.jump_steps for w in want]

    @pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, np.float64(3.0),
                                     np.bool_(True), "2", None])
    def test_non_integer_counts_rejected(self, bad):
        # ints and numpy integers only: a bool is not a count, and a float
        # count must not reach numpy's own TypeError
        ch = loss_channel(n=4)
        psi = fock.basis_state(4, 1)
        with pytest.raises(UsageError, match="steps must be a nonnegative integer"):
            noise.run_trajectories(ch, psi, bad, 2, base_seed=0)
        with pytest.raises(UsageError, match="steps must be a nonnegative integer"):
            noise.apply_channel_trajectory(ch, psi, bad, seed=0)
        with pytest.raises(UsageError, match="n_trajectories must be a positive integer"):
            noise.run_trajectories(ch, psi, 3, bad, base_seed=0)

    def test_numpy_integer_counts_match_ints(self):
        ch = strong_channel("loss", 12, 0.08)
        psi = codes.cat_state(1.2, "+", 12)
        want = noise.run_trajectories(ch, psi, 9, 4, base_seed=3)
        got = noise.run_trajectories(ch, psi, np.int64(9), np.uint8(4), base_seed=3)
        assert len(got) == len(want) and any(w.jump_steps for w in want)
        for g, w in zip(got, want):
            assert type(g.steps) is int and g.steps == w.steps
            assert g.jump_steps == w.jump_steps
            np.testing.assert_array_equal(g.final_state.amplitudes,
                                          w.final_state.amplitudes)
        one = noise.apply_channel_trajectory(ch, psi, np.int32(9), seed=want[0].seed)
        assert one.jump_steps == want[0].jump_steps


# ---------------------------------------------------------------------------
# banded channels against the dense Kraus sum


def dense_kraus_sum(channel, rho):
    return sum(k.matrix @ rho @ k.matrix.conj().T for k in channel.kraus)


@st.composite
def banded_channels(draw):
    kind = draw(st.sampled_from(
        ["first_order", "dephasing", "exact", "loss", "strong_dephasing", "both",
         "phased"]))
    n = draw(st.integers(1 if kind in ("first_order", "dephasing", "exact") else 2, 8))
    if kind == "first_order":
        return noise.photon_loss_channel(1.0, 2e-3 / max(n - 1, 1), n)
    if kind == "dephasing":
        # rate 0 makes K1 all zeros
        rate = draw(st.sampled_from([0.0, 1.0]))
        return noise.dephasing_channel(rate, 1e-3 / max(n - 1, 1) ** 2, n)
    if kind == "exact":
        return noise.amplitude_damping_channel(1.0, draw(st.floats(1e-4, 5.0)), n)
    x = draw(st.floats(0.01, 0.45)) / (n - 1)
    if kind == "phased":
        return phased(strong_channel("both", n, x),
                      np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return strong_channel({"strong_dephasing": "dephasing"}.get(kind, kind), n, x)


def random_density_matrix(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def gather_step(channel, rho):
    """The gather form the flat-shift step replaced, built from the Kraus
    operators, as an oracle: per distinct offset o in sorted order, the N×N
    weight W_o = Σ u_k u_k† and the flat positions of ρ[i + o, j + o]
    clipped into range, then one gather, one multiply and one sum."""
    mats = np.stack([k.matrix for k in channel.kraus])
    n = mats.shape[1]
    offsets = []
    for m in mats:  # an all-zero operator counts as the main diagonal
        rows, cols = np.nonzero(m)
        offsets.append(int(cols[0] - rows[0]) if rows.size else 0)
    levels = np.arange(n)
    index = np.clip(levels + np.array(offsets)[:, None], 0, n - 1)
    diagonals = mats[np.arange(len(mats))[:, None], levels, index]
    distinct = sorted(set(offsets))
    weights = np.empty((len(distinct), n, n), dtype=complex)
    for w, o in zip(weights, distinct):
        u = diagonals[np.equal(offsets, o)]
        w[...] = (u[:, :, None] * u[:, None, :].conj()).sum(axis=0)
    shifted = np.clip(levels + np.array(distinct)[:, None], 0, n - 1)
    flat = shifted[:, :, None] * n + shifted[:, None, :]
    return (weights * rho.take(flat)).sum(axis=0)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_fresh_step(channel, rho):
    """One step returns a new C-ordered (N, N) array and leaves rho as it was."""
    before = copy.deepcopy(rho)
    out = noise.apply_channel(channel, rho)
    n = channel.shape.total_dim
    assert out.shape == (n, n) and out.flags.c_contiguous
    assert not np.shares_memory(out, rho)
    np.testing.assert_array_equal(np.asarray(rho), np.asarray(before), strict=True)
    return out


@st.composite
def builtin_channels(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["loss", "dephasing", "exact"]))
    if kind == "loss":
        return noise.photon_loss_channel(1.0, 2e-3 / max(n - 1, 1), n)
    if kind == "dephasing":
        rate = draw(st.sampled_from([0.0, 1.0]))
        return noise.dephasing_channel(rate, 1e-3 / max(n - 1, 1) ** 2, n)
    return noise.amplitude_damping_channel(1.0, draw(st.floats(1e-4, 5.0)), n)


class TestFlatShiftStep:
    """Every built-in set has a main band first, so the flat-shift step does
    the gather form's arithmetic in the gather form's order."""

    @given(builtin_channels(), st.integers(0, 2**32 - 1))
    def test_builtin_channels_match_gather_bitwise(self, channel, seed):
        rho = random_density_matrix(seed, channel.shape.total_dim)
        assert_same_bits(noise.apply_channel(channel, rho), gather_step(channel, rho))

    @pytest.mark.parametrize("alpha, parity", [(1.3 * np.exp(0.7j), "+"),
                                               (0.4426467748858682 + 1.5256307430808154j, "-"),
                                               (-1.2, "-")])
    def test_benchmark_loss_job_matches_gather_bitwise(self, alpha, parity):
        # N = 24, 1500 steps of 1.8e-3/23 s, as in the benchmark's loss job.
        # An entry that stays an exact zero (ρ[0, N−1] of an odd cat: level
        # 0 is empty and nothing feeds it) can differ in the sign of that
        # zero, because the gather form adds 0·ρ[clipped] terms there and
        # the flat step adds none; adding 0 maps −0.0 to 0.0 and keeps all
        # other bits.
        n, steps = 24, 1500
        channel = noise.photon_loss_channel(1.0, 1.8e-3 / (n - 1), n)
        rho = noise.density_matrix(codes.cat_state(alpha, parity, n))
        got, want = rho, rho
        for _ in range(steps):
            got = noise.apply_channel(channel, got)
            want = gather_step(channel, want)
        assert_same_bits(got + 0, want + 0)

    def test_bands_are_flat_slices(self):
        # per offset o > 0 one weight of N² − o(N+1) entries: about N³/2
        # in all for the exact loss channel
        n = 30
        kernel = noise.amplitude_damping_channel(1.0, 1e-3, n)._kernel
        assert kernel.lead.shape == (n * n,)
        assert [w.size for _, _, w in kernel.bands] == [
            n * n - o * (n + 1) for o in range(1, n)]

    @pytest.mark.parametrize("form", ["fortran", "view", "real", "list"])
    def test_input_forms(self, form):
        channel = noise.amplitude_damping_channel(1.0, 0.2, 7)
        big = random_density_matrix(8, 14)
        rho = {"fortran": np.asfortranarray(big[:7, :7]), "view": big[::2, 1::2],
               "real": big[:7, :7].real.copy(), "list": big[:7, :7].tolist()}[form]
        want = np.array(rho, dtype=complex, order="C")
        assert_same_bits(noise.apply_channel(channel, rho),
                         noise.apply_channel(channel, want))
        assert_same_bits(noise.apply_channel(channel, rho), gather_step(channel, want))

    @pytest.mark.parametrize("form", ["fortran", "view", "real", "list", "c"])
    def test_result_is_a_fresh_c_ordered_array(self, form):
        # the step writes its band adds through flat views of its own output
        channel = noise.amplitude_damping_channel(1.0, 0.2, 7)
        big = random_density_matrix(8, 14)
        rho = {"fortran": np.asfortranarray(big[:7, :7]), "view": big[::2, 1::2],
               "real": big[:7, :7].real.copy(), "list": big[:7, :7].tolist(),
               "c": big[:7, :7].copy()}[form]
        assert_fresh_step(channel, rho)

    @given(banded_channels(), st.integers(0, 2**32 - 1))
    def test_fortran_order_steps_bitwise_as_c_order(self, channel, seed):
        rho = random_density_matrix(seed, channel.shape.total_dim)
        assert_same_bits(noise.apply_channel(channel, np.asfortranarray(rho)),
                         noise.apply_channel(channel, rho))

    @pytest.mark.parametrize("dense", [False, True])
    def test_rho_readers_agree(self, dense):
        # a numeric ndarray is taken by np.asarray, and every other rho is
        # read by require_array, which refuses a scalar by its shape
        channel = noise.photon_loss_channel(1.0, 1e-4, 6)
        if dense:
            channel = forced_dense(channel)
        rho = random_density_matrix(3, 6)

        class ArrayLike:
            def __array__(self, dtype=None, copy=None):
                return rho

        want = noise.apply_channel(channel, rho)
        for form in (rho.tolist(), tuple(map(tuple, rho.tolist())), ArrayLike()):
            assert_same_bits(noise.apply_channel(channel, form), want)
        for bad in (1.0, None, "x"):
            with pytest.raises(ShapeError, match=r"^rho must be 6x6, got \(\)$"):
                noise.apply_channel(channel, bad)

    @pytest.mark.parametrize("dense", [False, True])
    def test_wrong_shape_rejected(self, dense):
        channel = noise.photon_loss_channel(1.0, 1e-4, 6)
        if dense:
            channel = forced_dense(channel)
        for bad in (np.eye(5), np.eye(6)[0], np.eye(6)[None]):
            message = f"rho must be 6x6, got {bad.shape}"
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                noise.apply_channel(channel, bad)


class TestBandedChannels:
    @given(banded_channels(), st.integers(0, 2**32 - 1))
    def test_matches_dense_kraus_sum(self, channel, seed):
        assert isinstance(channel._kernel, noise._Banded)
        rho = random_density_matrix(seed, channel.shape.total_dim)
        np.testing.assert_allclose(noise.apply_channel(channel, rho),
                                   dense_kraus_sum(channel, rho), rtol=0, atol=1e-13)

    @given(banded_channels(), st.integers(0, 2**32 - 1))
    def test_dense_path_matches_dense_kraus_sum(self, channel, seed):
        rho = random_density_matrix(seed, channel.shape.total_dim)
        for dense in (forced_dense(channel),
                      rotated(channel, np.random.default_rng(seed))):
            # a 1x1 operator is its own main diagonal
            assert isinstance(dense._kernel, noise._Dense) or rho.shape == (1, 1)
            np.testing.assert_allclose(noise.apply_channel(dense, rho),
                                       dense_kraus_sum(dense, rho), rtol=0, atol=1e-13)

    def test_builtin_channels_are_banded(self):
        for channel in (noise.photon_loss_channel(1.0, 1e-4, 12),
                        noise.dephasing_channel(0.0, 1e-3, 12),
                        noise.dephasing_channel(1.0, 1e-6, 12),
                        noise.amplitude_damping_channel(1.0, 0.1, 12)):
            assert isinstance(channel._kernel, noise._Banded)

    def test_lower_band_and_band_free_set(self):
        # offsets below the diagonal, and a complete set with no main band
        shape = fock.HilbertShape((3,))
        up = np.diag([1.0, 1.0], k=1).astype(complex)   # |0><1| + |1><2|
        down = np.zeros((3, 3), complex)
        down[1, 0] = 1.0                                 # |1><0|
        channel = noise.NoiseChannel(
            shape, [fock.Operator(shape, m) for m in (up, down)], 1e-3)
        assert isinstance(channel._kernel, noise._Banded)
        rho = random_density_matrix(4, 3)
        np.testing.assert_allclose(noise.apply_channel(channel, rho),
                                   dense_kraus_sum(channel, rho), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_band_free_set_returns_a_fresh_array(self, order):
        # with no main band the step starts from zeros_like(ρ)
        shape = fock.HilbertShape((3,))
        up = np.diag([1.0, 1.0], k=1).astype(complex)
        down = np.zeros((3, 3), complex)
        down[1, 0] = 1.0
        channel = noise.NoiseChannel(
            shape, [fock.Operator(shape, m) for m in (up, down)], 1e-3)
        assert channel._kernel.lead is None
        rho = np.array(random_density_matrix(4, 3), order=order)
        np.testing.assert_allclose(assert_fresh_step(channel, rho),
                                   dense_kraus_sum(channel, rho), rtol=0, atol=1e-15)

    def test_incomplete_set_reports_its_defect(self):
        # the banded and the dense check read the same defect
        shape = fock.HilbertShape((4,))
        short = np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex)
        for m in (short, random_unitary(np.random.default_rng(0), 4) @ short):
            with pytest.raises(UsageError, match=r"completeness violated by 7\.500e-01"):
                noise.NoiseChannel(shape, [fock.Operator(shape, m)], 1e-3)


class TestAmplitudeDamping:
    # the benchmark's loss evolution: N = 24, 1500 steps of 1.8e-3/23 s
    N, STEPS, DT = 24, 1500, 1.8e-3 / 23

    @pytest.mark.parametrize("n", [1, 2, 10, 24, 80])
    @pytest.mark.parametrize("dt", [1e-6, 1e-3, 0.3, 5.0, 1e3])
    def test_completeness(self, n, dt):
        ch = noise.amplitude_damping_channel(1.0, dt, n)
        total = sum(k.matrix.conj().T @ k.matrix for k in ch.kraus)
        np.testing.assert_allclose(total, np.eye(n), rtol=0, atol=1e-14)

    def test_kraus_forms(self):
        t1, dt, n = 0.5, 0.2, 6
        p = 1 - math.exp(-dt / t1)
        ch = noise.amplitude_damping_channel(t1, dt, n)
        assert len(ch.kraus) == n
        for lost, k in enumerate(ch.kraus):
            for m in range(lost, n):
                expected = math.sqrt(math.comb(m, lost) * (1 - p) ** (m - lost) * p**lost)
                assert k.matrix[m - lost, m] == pytest.approx(expected, rel=1e-14)
            assert np.count_nonzero(k.matrix) == n - lost

    def test_composes_exactly(self):
        rho = noise.density_matrix(codes.cat_state(2.0, "+", self.N))
        step = noise.amplitude_damping_channel(1.0, self.DT, self.N)
        stepped = rho
        for _ in range(self.STEPS):
            stepped = noise.apply_channel(step, stepped)
        whole = noise.amplitude_damping_channel(1.0, self.STEPS * self.DT, self.N)
        np.testing.assert_allclose(stepped, noise.apply_channel(whole, rho),
                                   rtol=0, atol=1e-12)

    def test_first_order_agrees_to_second_order(self):
        # the per-step difference is C·dt²: halving dt quarters it
        n = 8
        rho = noise.density_matrix(fock.basis_state(n, 5))
        errors = []
        for dt in (2.4e-4, 1.2e-4, 6e-5):
            exact = noise.apply_channel(noise.amplitude_damping_channel(1.0, dt, n), rho)
            first = noise.apply_channel(noise.photon_loss_channel(1.0, dt, n), rho)
            errors.append(float(np.max(np.abs(exact - first))))
            assert errors[-1] < ((n - 1) * dt) ** 2
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.01)

    def test_first_order_accumulated_error_bound(self):
        # 1500 first-order steps drift 2.2e-5 from the exact evolution
        rho = noise.density_matrix(codes.cat_state(2.0, "+", self.N))
        exact_ch = noise.amplitude_damping_channel(1.0, self.DT, self.N)
        first_ch = noise.photon_loss_channel(1.0, self.DT, self.N)
        exact, first = rho, rho
        for _ in range(self.STEPS):
            exact = noise.apply_channel(exact_ch, exact)
            first = noise.apply_channel(first_ch, first)
        error = float(np.max(np.abs(exact - first)))
        assert 1e-6 < error < 3e-5

    def test_no_step_size_limit(self):
        with pytest.raises(StepSizeError):
            noise.photon_loss_channel(1e-3, 1e-3, 50)
        ch = noise.amplitude_damping_channel(1e-3, 1.0, 50)
        rho = noise.apply_channel(ch, noise.density_matrix(fock.basis_state(50, 49)))
        np.testing.assert_allclose(rho, noise.density_matrix(fock.basis_state(50, 0)),
                                   rtol=0, atol=1e-14)

    def test_trajectories_jump_down_by_any_number(self):
        ch = noise.amplitude_damping_channel(1.0, 0.5, 6)
        results = noise.run_trajectories(ch, fock.basis_state(6, 5), 4, 20, base_seed=2)
        finals = {int(np.argmax(t.final_state.probabilities())) for t in results}
        assert len(finals) > 1

    @pytest.mark.parametrize("t1, dt, n", [(0.0, 1e-3, 4), (1.0, 0.0, 4),
                                           (1.0, 1e-3, 0), (1.0, math.inf, 4),
                                           (math.nan, 1e-3, 4)])
    def test_bad_arguments(self, t1, dt, n):
        with pytest.raises(UsageError):
            noise.amplitude_damping_channel(t1, dt, n)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_channel_step_must_be_positive_and_finite(dt):
    ch = loss_channel()
    with pytest.raises(UsageError, match="dt_s must be positive"):
        noise.NoiseChannel(ch.shape, ch.kraus, dt)


@pytest.mark.parametrize("make", [noise.photon_loss_channel, noise.amplitude_damping_channel,
                                  lambda rate, dt, n: noise.dephasing_channel(0.0, dt, n)])
@pytest.mark.parametrize("dt", [math.nan, 0.0, -1e-3])
def test_channel_constructors_share_the_step_check(make, dt):
    with pytest.raises(UsageError, match="dt_s must be positive"):
        make(1.0, dt, 4)


def test_dephasing_zero_rate_infinite_step_names_the_step():
    # a first-order channel once let inf through to its StepSizeError
    with pytest.raises(UsageError, match="dt_s must be positive and finite"):
        noise.dephasing_channel(0.0, math.inf, 4)
    with pytest.raises(UsageError, match="dt_s must be positive and finite"):
        noise.dephasing_channel(1.0, math.inf, 4)
    with pytest.raises(UsageError, match="dt_s must be positive and finite"):
        noise.photon_loss_channel(1.0, math.inf, 4)


# the real arguments of each channel constructor, in call order
_CHANNEL_REALS = {"photon_loss_channel": ("t1_s", "dt_s"),
                  "amplitude_damping_channel": ("t1_s", "dt_s"),
                  "dephasing_channel": ("rate_hz", "dt_s")}


@pytest.mark.parametrize("name", sorted(_CHANNEL_REALS))
@pytest.mark.parametrize("bad", [True, False, np.True_, "1e-3", None, 1e-3j])
def test_channel_constructors_reject_non_real_arguments(name, bad):
    for pos, field in enumerate(_CHANNEL_REALS[name]):
        args = [1.0, 1e-4, 4]
        args[pos] = bad
        with pytest.raises(UsageError, match=f"{field} must be a real number, got"):
            getattr(noise, name)(*args)


@pytest.mark.parametrize("name", sorted(_CHANNEL_REALS))
def test_channel_constructors_name_a_nan_rate(name):
    field = _CHANNEL_REALS[name][0]
    with pytest.raises(UsageError, match=f"^{field} must be .*, got nan$"):
        getattr(noise, name)(math.nan, 1e-4, 8)


def test_infinite_lifetime_is_no_loss():
    rho = noise.density_matrix(fock.basis_state(8, 3))
    channel = noise.photon_loss_channel(math.inf, 1e-4, 8)
    assert np.array_equal(noise.apply_channel(channel, rho), rho)


# each constructor's two reals, as floats and as integers it takes (a
# non-zero integer dephasing pair fails the first-order step check)
_FLOAT_REALS = (2.0, 1.1 * 2**-16)
_INT_REALS = {"photon_loss_channel": (2**17, 3), "amplitude_damping_channel": (2**17, 3),
              "dephasing_channel": (0, 3)}


@pytest.mark.parametrize("name", sorted(_CHANNEL_REALS))
@pytest.mark.parametrize("convert", [np.float64, np.float32, np.int64, np.int32])
def test_channel_constructors_take_numpy_reals(name, convert):
    # both reals are read as Python floats: a float32 dephasing pair built
    # its Kraus operators in float32, 6.6e-10 from the float build
    build = getattr(noise, name)
    floating = np.issubdtype(convert, np.floating)
    pairs = [(convert(2), np.float64(2.0**-16)),
             tuple(convert(v) for v in (_FLOAT_REALS if floating else _INT_REALS[name]))]
    for reals in pairs:
        expected = build(*map(float, reals), 4)
        channel = build(*reals, 4)
        for k, k_expected in zip(channel.kraus, expected.kraus, strict=True):
            assert np.array_equal(k.matrix, k_expected.matrix)
        assert type(channel.dt_s) is float and channel.dt_s == expected.dt_s


# ---------------------------------------------------------------------------
# Lindblad generator oracle (Lindblad, Commun. Math. Phys. 48, 119 (1976)):
# exp(L dt) of D[J]ρ = JρJ† − ½{J†J, ρ}, built from numpy alone


def _lindblad_step(jump: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt) acting on ρ.ravel(), from vec(AρB) = (A ⊗ Bᵀ) vec(ρ) for
    a C-ordered ρ."""
    eye = np.eye(len(jump))
    jj = jump.conj().T @ jump
    generator = np.kron(jump, jump.conj()) - 0.5 * np.kron(jj, eye) - 0.5 * np.kron(eye, jj.T)
    return scipy.linalg.expm(generator * dt)


def _lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def _superoperator(channel: noise.NoiseChannel) -> np.ndarray:
    """The channel's action on ρ.ravel(), one basis matrix per column."""
    n = channel.shape.total_dim
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return np.stack([noise.apply_channel(channel, e).ravel() for e in basis], axis=1)


class TestLindbladOracle:
    @given(n=st.integers(1, 8), ratio=st.floats(1e-6, 50.0),
           t1=st.sampled_from([1e-4, 1.0, 250.0]))
    def test_amplitude_damping_is_the_loss_generator_exponential(self, n, ratio, t1):
        dt = ratio * t1
        exact = _lindblad_step(math.sqrt(1 / t1) * _lowering(n), dt)
        channel = noise.amplitude_damping_channel(t1, dt, n)
        np.testing.assert_allclose(_superoperator(channel), exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_infinite_lifetime_is_the_identity_channel(self, n):
        # D[0] generates nothing: exp(0·dt) is the identity
        channel = noise.amplitude_damping_channel(math.inf, 1e-4, n)
        assert np.array_equal(_superoperator(channel), _lindblad_step(0 * _lowering(n), 1e-4))
        rng = np.random.default_rng(n)
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert noise.apply_channel(channel, rho).tobytes() == rho.tobytes()

    # One-step error of the first-order channels, max |S − exp(L dt)| over the
    # superoperator entries, is C·x² with x = dt/T1 or γ·dt. For loss,
    # C = (N−1)(2N−3)/2, from the |N−1⟩ → |N−2⟩ transfer, exactly (N−1)x
    # in the channel and (N−1)e^{−(N−2)x}(1−e^{−x}) in the process. For
    # dephasing, C = ((N−1)²/2)², from ρ_{0,N−1}: √(1−x(N−1)²) against
    # e^{−x(N−1)²/2}. Halving dt quarters the error.
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_photon_loss_error_is_second_order(self, n):
        constant = (n - 1) * (2 * n - 3) / 2
        errors = []
        for x in (4e-5, 2e-5, 1e-5):
            exact = _lindblad_step(_lowering(n), x)
            errors.append(np.max(np.abs(_superoperator(noise.photon_loss_channel(1.0, x, n))
                                        - exact)))
            assert errors[-1] == pytest.approx(constant * x**2, rel=2e-3)
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=2e-3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_dephasing_error_is_second_order(self, n):
        constant = ((n - 1) ** 2 / 2) ** 2
        errors = []
        for y in (1e-5, 5e-6, 2.5e-6):
            gamma, dt = 2.0, y / 2.0
            exact = _lindblad_step(math.sqrt(gamma) * np.diag(np.arange(float(n))), dt)
            errors.append(np.max(np.abs(_superoperator(noise.dephasing_channel(gamma, dt, n))
                                        - exact)))
            assert errors[-1] == pytest.approx(constant * y**2, rel=2e-3)
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=2e-3)


@pytest.mark.parametrize("make", [noise.photon_loss_channel, noise.amplitude_damping_channel])
def test_infinite_lifetime_and_step_names_the_step(make):
    # 0·∞: no loss rate over an unbounded step
    with pytest.raises(UsageError, match=r"^dt_s must be positive and finite, got inf$"):
        make(math.inf, math.inf, 8)


# ---------------------------------------------------------------------------
# trajectories over more than one block of no-jump runs


class TestEnsembleBound:
    """Trajectory means against repeated apply_channel (Dalibard, Castin &
    Mølmer, PRL 68, 580 (1992)): at every step the mean parity and ⟨n⟩ of
    the trajectories lie within 5 standard errors of Tr(Pρ_s) and
    Tr(n̂ρ_s), or within 1e-12 where the variance is 0.

    The standard error is the ensemble's, from ρ_s: each trajectory of a
    cat state under loss stays in one parity sector, so its parity is ±1
    with variance 1 − Tr(Pρ_s)², and the variance of the trajectories' ⟨n⟩
    is at most Tr(n̂²ρ_s) − Tr(n̂ρ_s)². The sample variance is no measure
    here: it is 0 until the first jump, when the exact mean has already
    moved by about twice the jump probability.
    """

    @pytest.mark.parametrize("channel, steps", [
        # the benchmark's N = 16 loss step: about 300 jumps in 400 steps × 4000
        (noise.photon_loss_channel(1.0, 1.8e-3 / 15, 16), 400),
        # exact loss over 2 T1: about 5000 jumps, of one or more photons
        (noise.amplitude_damping_channel(1.0, 0.02, 16), 100),
    ], ids=["photon_loss", "amplitude_damping"])
    @pytest.mark.parametrize("sign, seed", [("+", 11), ("-", 12), ("+", 13)])
    def test_means_within_five_standard_errors(self, channel, steps, sign, seed):
        n, count = 16, 4000
        psi = codes.cat_state(1.3 * np.exp(0.4j), sign, n)
        runs = noise.run_trajectories(channel, psi, steps, count, seed)
        means = {"parity": np.mean([r.parities for r in runs], axis=0),
                 "<n>": np.mean([r.mean_occupations for r in runs], axis=0)}
        levels = np.arange(n)
        rho = noise.density_matrix(psi)
        for s in range(steps):
            rho = noise.apply_channel(channel, rho)
            pops = noise.populations(rho)
            parity, occ = (-1.0) ** levels @ pops, levels @ pops
            for name, exact, var in (("parity", parity, 1.0 - parity**2),
                                     ("<n>", occ, levels**2 @ pops - occ**2)):
                bound = max(5.0 * math.sqrt(max(var, 0.0) / count), 1e-12)
                assert abs(means[name][s] - exact) <= bound, (name, s + 1)


def block_steps():
    """Two full blocks of the unraveling and three steps of a third."""
    return 2 * noise._BLOCK + 3


def assert_matches_scalar(traj, channel, psi, steps, seed):
    _, jump_steps, counts, parities, mean_ns, final = scalar_trajectory(channel, psi, steps, seed)
    assert traj.seed == seed and traj.steps == steps
    assert traj.jump_steps == jump_steps
    np.testing.assert_array_equal(traj.jump_counts, counts)
    np.testing.assert_allclose(traj.parities, parities, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.mean_occupations, mean_ns, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.final_state.amplitudes, final, rtol=0, atol=1e-12)


def countdown_channel(n):
    """K0 moves |i⟩ to |i−1⟩ with weight 1 and annihilates |0⟩, which K1
    resets to |n−1⟩: from |m⟩ the jumps fall exactly on steps m, m + n,
    m + 2n, ... whatever the uniforms. K0 lies off the main band."""
    shape = fock.HilbertShape((n,))
    k0 = np.diag(np.ones(n - 1), 1).astype(complex)
    k1 = np.zeros((n, n), dtype=complex)
    k1[n - 1, 0] = 1.0
    return noise.NoiseChannel(shape, [fock.Operator(shape, k0), fock.Operator(shape, k1)], 1e-3)


class TestBlockedTrajectories:
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("last", ["block", "run"])
    def test_forced_jumps_on_block_and_run_ends(self, dense, last):
        steps, n = block_steps(), 5
        wanted = noise._BLOCK - 1 if last == "block" else steps - 1
        channel = countdown_channel(n)
        if dense:
            channel = forced_dense(channel)
        psi = fock.basis_state(n, wanted % n)
        results = noise.run_trajectories(channel, psi, steps, 3, base_seed=4)
        for traj in results:
            assert traj.jump_steps == tuple(range(wanted % n, steps, n))
            assert wanted in traj.jump_steps
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    def test_random_jumps_on_a_block_end(self):
        # |5⟩ under strong dephasing stays |5⟩ and jumps at a fixed rate per step
        channel = strong_channel("dephasing", 6, 0.12)
        psi = fock.basis_state(6, 5)
        steps = block_steps()
        results = noise.run_trajectories(channel, psi, steps, 12, base_seed=2)
        assert any(noise._BLOCK - 1 in traj.jump_steps for traj in results)
        for traj in results:
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    def test_long_jumpy_history_keeps_its_scale(self):
        # the probability of one jump history of 2,000 such steps is about
        # 1e-580, far below the smallest double; the states must not underflow
        channel = strong_channel("dephasing", 6, 0.12)
        psi = fock.basis_state(6, 5)
        for traj in noise.run_trajectories(channel, psi, 2000, 2, base_seed=3):
            assert len(traj.jump_steps) > 500
            assert_matches_scalar(traj, channel, psi, 2000, traj.seed)

    @given(trajectory_problems(), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_matches_scalar_loop_over_blocks(self, problem, n_traj, base_seed):
        channel, psi = problem
        steps = block_steps()
        results = noise.run_trajectories(channel, psi, steps, n_traj, base_seed)
        assert len(results) == n_traj
        for traj in results:
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    @pytest.mark.parametrize("kind", ["phased", "rotated"])
    def test_phased_and_rotated_channels_over_blocks(self, kind):
        rng = np.random.default_rng(12)
        base = strong_channel("both", 6, 0.02)
        channel = (phased if kind == "phased" else rotated)(base, rng)
        assert isinstance(channel._kernel,
                          noise._Banded if kind == "phased" else noise._Dense)
        psi = fock.StateVector((6,), rng.normal(size=6) + 1j * rng.normal(size=6)).normalized()
        steps = block_steps()
        results = noise.run_trajectories(channel, psi, steps, 4, base_seed=8)
        assert sum(len(traj.jump_steps) for traj in results) > 0
        for traj in results:
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    @pytest.mark.parametrize("dense", [False, True])
    def test_one_operator_channel_never_jumps(self, dense):
        rng = np.random.default_rng(3)
        shape = fock.HilbertShape((5,))
        u = random_unitary(rng, 5) if dense else np.diag(np.exp(1j * rng.uniform(0, 6, 5)))
        channel = noise.NoiseChannel(shape, [fock.Operator(shape, u)], 1e-3)
        assert isinstance(channel._kernel, noise._Dense if dense else noise._Banded)
        psi = fock.StateVector((5,), rng.normal(size=5) + 1j * rng.normal(size=5)).normalized()
        steps = block_steps()
        for traj in noise.run_trajectories(channel, psi, steps, 3, base_seed=5):
            assert traj.jump_steps == ()
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    def test_infinite_lifetime_rows_are_bit_identical(self):
        # no loss: no jumps, and every row of every trajectory repeats the first
        channel = noise.photon_loss_channel(math.inf, 4e-5, 20)
        psi = codes.cat_state(2.0, "+", 20)
        results = noise.run_trajectories(channel, psi, 3 * noise._BLOCK + 8, 3, base_seed=2)
        first = results[0]
        for traj in results:
            assert traj.jump_steps == ()
            assert np.all(traj.parities == first.parities[0])
            assert np.all(traj.mean_occupations == first.mean_occupations[0])
            np.testing.assert_array_equal(traj.final_state.amplitudes,
                                          first.final_state.amplitudes)

    def test_state_annihilated_by_k0_jumps_without_warnings(self):
        # at x(N−1) = 1, K0 annihilates the top level: the first step must jump
        channel = strong_channel("loss", 6, 1 / 5)
        psi = fock.basis_state(6, 5)
        steps = block_steps()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = noise.run_trajectories(channel, psi, steps, 4, base_seed=1)
        for traj in results:
            assert traj.jump_steps[0] == 0
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    @pytest.mark.parametrize("dense", [False, True])
    def test_state_annihilated_by_every_branch_raises(self, dense):
        channel = loss_channel(n=4)
        if dense:
            channel = forced_dense(channel)
        zero_state = fock.StateVector((4,), np.zeros(4))
        with pytest.raises(UsageError, match="annihilated"):
            noise.run_trajectories(channel, zero_state, block_steps(), 3, base_seed=0)
        with pytest.raises(UsageError, match="annihilated"):
            noise.apply_channel_trajectory(channel, zero_state, block_steps(), seed=0)

    def test_single_trajectory_matches_its_row(self):
        channel = strong_channel("both", 10, 0.02)
        psi = codes.cat_state(1.0, "-", 10)
        steps = block_steps()
        rows = noise.run_trajectories(channel, psi, steps, 4, base_seed=6)
        assert all(row.jump_steps for row in rows)
        for row in rows:
            one = noise.apply_channel_trajectory(channel, psi, steps, seed=row.seed)
            assert one.seed == row.seed
            assert one.jump_steps == row.jump_steps
            np.testing.assert_array_equal(one.jump_counts, row.jump_counts)
            np.testing.assert_allclose(one.parities, row.parities, rtol=0, atol=1e-12)
            np.testing.assert_allclose(one.mean_occupations, row.mean_occupations,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(one.final_state.amplitudes, row.final_state.amplitudes,
                                       rtol=0, atol=1e-12)

    # entry budgets small enough that blocks get shorter than _BLOCK, windows
    # are cut by room for their histories and dense powers stop short of a block
    SMALL_BUDGETS = [48, 160]

    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @pytest.mark.parametrize("dense", [False, True])
    def test_small_budget_forced_jumps(self, monkeypatch, budget, dense):
        monkeypatch.setattr(noise, "_BLOCK_ENTRIES", budget)
        steps, n = block_steps(), 5
        channel = countdown_channel(n)
        if dense:
            channel = forced_dense(channel)
        psi = fock.basis_state(n, 2)
        for traj in noise.run_trajectories(channel, psi, steps, 40, base_seed=4):
            assert traj.jump_steps == tuple(range(2, steps, n))
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    def test_small_budget_rotated_channel(self, monkeypatch, budget):
        monkeypatch.setattr(noise, "_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(21)
        channel = rotated(strong_channel("both", 4, 0.05), rng)
        psi = fock.StateVector((4,), rng.normal(size=4) + 1j * rng.normal(size=4)).normalized()
        steps = block_steps()
        results = noise.run_trajectories(channel, psi, steps, 12, base_seed=9)
        assert sum(len(traj.jump_steps) for traj in results) > 12
        for traj in results:
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)

    @given(trajectory_problems(), st.sampled_from(SMALL_BUDGETS), st.sampled_from([1, 3, 12]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_small_budget_matches_scalar_loop(self, problem, budget, n_traj, base_seed):
        channel, psi = problem
        steps = block_steps()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "_BLOCK_ENTRIES", budget)
            results = noise.run_trajectories(channel, psi, steps, n_traj, base_seed)
        for traj in results:
            assert_matches_scalar(traj, channel, psi, steps, traj.seed)


@pytest.mark.parametrize("bad", ["abc", {"rho": 1}])
def test_unreadable_density_matrix_names_rho(bad):
    with pytest.raises(ShapeError, match=r"^rho must be 2x2, got \(\)$"):
        noise.apply_channel(loss_channel(n=2), bad)


def test_ragged_density_matrix_is_a_shape_error():
    with pytest.raises(ShapeError, match=r"^rho must be 2x2, got ragged rows$"):
        noise.apply_channel(loss_channel(n=2), [[1, 2], [3]])


@pytest.mark.parametrize("bad", [
    np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]]),
    np.array([[1, 0], [0, 1]], dtype=object), (("1", "0"), ("0", "1")),
    [[True, False], [False, True]]], ids=["bool", "str", "object", "str-tuple", "bool-list"])
def test_density_matrix_of_strings_or_bools_is_refused(bad):
    # strings and bools were read as the numbers 1 and 0; an object array is
    # refused as at every other array site
    with pytest.raises(UsageError, match="^rho entries must be numbers, got "):
        noise.apply_channel(loss_channel(n=2), bad)
