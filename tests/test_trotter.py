import functools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from cavityq import fock, gates, trotter
from dense_oracle import dense_unitary
from golden import readme_example
from cavityq.errors import (
    NumericError,
    ShapeError,
    UsageError,
)

N = 8


def random_hamiltonian(seed=42, n=N, h_norm_times_t=5.0, t=1.0):
    """Seeded split-diagonal instance rescaled so t * ||H||_2 is fixed."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.5, 0.5, n)
    k = rng.uniform(-0.5, 0.5, n)
    h = trotter.QuditHamiltonian(v, k)
    scale = h_norm_times_t / (np.linalg.norm(h.dense(), 2) * t)
    return trotter.QuditHamiltonian(v * scale, k * scale)


def expm_reference(h, t):
    """Independent dense propagator, not the package's eigh path."""
    return scipy.linalg.expm(-1j * h.dense() * t)


class TestQuditHamiltonian:
    def test_dense_is_hermitian(self):
        h = random_hamiltonian()
        dense = h.dense()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
        assert h.operator().is_hermitian(1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_is_exactly_hermitian_at_mhz_scale(self, seed):
        # the FFT's circulant fill alone leaves |H - H†| ~ 2e-10 rad/s here
        rng = np.random.default_rng(seed)
        h = trotter.QuditHamiltonian(rng.uniform(-1e6, 1e6, 64),
                                     rng.uniform(-1e6, 1e6, 64))
        dense = h.dense()
        np.testing.assert_array_equal(dense, dense.conj().T)
        assert h.operator().is_hermitian()

    def test_diagonal_part_in_rad_per_s(self):
        h = trotter.QuditHamiltonian([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            np.diag(h.dense()), 2 * np.pi * np.array([1.0, 2.0, 3.0]), atol=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            trotter.QuditHamiltonian([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_levels(self):
        with pytest.raises(ShapeError, match="^diagonal must be 1-D with at least 2 entries, "
                                             "got length 1$"):
            trotter.QuditHamiltonian([1.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            trotter.QuditHamiltonian([1.0, np.inf], [0.0, 0.0])

    @pytest.mark.parametrize("name, bad", [("diagonal", [True, False]),
                                           ("diagonal", ["1", "2"]),
                                           ("kinetic_diagonal", [0.0, "2"])])
    def test_entries_follow_the_real_number_rule(self, name, bad):
        # booleans and numeric strings were coerced to floats
        fields = {"diagonal": [0.0, 1.0], "kinetic_diagonal": [0.0, 1.0], name: bad}
        with pytest.raises(UsageError, match=f"{name} entries must be real numbers"):
            trotter.QuditHamiltonian(**fields)

    def test_two_dimensional_list_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"diagonal must be 1-D, got \(2, 2\)"):
            trotter.QuditHamiltonian([[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0])


    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_dense_matches_fourier_product(self, n):
        # oracle: the kinetic term as F diag(K) F† with the dense Fourier gate
        rng = np.random.default_rng(n)
        h = trotter.QuditHamiltonian(rng.normal(size=n), rng.normal(size=n))
        f = gates.fourier(n).matrix
        expected = 2 * np.pi * (np.diag(h.diagonal)
                                + f @ np.diag(h.kinetic_diagonal) @ f.conj().T)
        np.testing.assert_allclose(h.dense(), expected, rtol=0, atol=1e-12)


class TestTrotterStep:
    def test_circuit_layout(self):
        h = random_hamiltonian()
        circ = trotter.trotter_step(h, 0.01, N)
        kinds = [g.kind for g in circ.gates]
        assert kinds == ["snap", "fourier", "snap", "fourier"]
        assert circ.gates[1].params["inverse"] is True
        assert circ.gates[3].params.get("inverse", False) is False
        np.testing.assert_allclose(
            circ.gates[0].params["theta"], -2 * np.pi * h.diagonal * 0.01
        )
        np.testing.assert_allclose(
            circ.gates[2].params["theta"], -2 * np.pi * h.kinetic_diagonal * 0.01
        )

    def test_potential_only_is_exact(self):
        rng = np.random.default_rng(0)
        h = trotter.QuditHamiltonian(rng.uniform(-1, 1, N), np.zeros(N))
        u = gates.circuit_unitary(trotter.trotter_step(h, 0.37)).matrix
        np.testing.assert_allclose(u, expm_reference(h, 0.37), atol=1e-12)

    def test_kinetic_only_is_exact(self):
        rng = np.random.default_rng(1)
        h = trotter.QuditHamiltonian(np.zeros(N), rng.uniform(-1, 1, N))
        u = gates.circuit_unitary(trotter.trotter_step(h, 0.91)).matrix
        np.testing.assert_allclose(u, expm_reference(h, 0.91), atol=1e-12)

    def test_per_step_error_is_second_order(self):
        # halving dt shrinks ||U_step - expm|| by about 4
        h = random_hamiltonian()
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            u = gates.circuit_unitary(trotter.trotter_step(h, dt)).matrix
            errs.append(np.linalg.norm(u - expm_reference(h, dt), 2))
        for big, small in zip(errs, errs[1:]):
            assert 3.5 < big / small < 4.5

    def test_step_is_unitary(self):
        h = random_hamiltonian()
        u = gates.circuit_unitary(trotter.trotter_step(h, 0.02))
        assert u.is_unitary(1e-12)

    def test_bad_dt(self):
        h = random_hamiltonian()
        with pytest.raises(UsageError):
            trotter.trotter_step(h, 0.0)
        with pytest.raises(UsageError):
            trotter.trotter_step(h, -1.0)

    def test_level_count_mismatch(self):
        with pytest.raises(ShapeError):
            trotter.trotter_step(random_hamiltonian(), 0.01, N + 1)


class TestEvolveTrotter:
    def test_large_step_count_accuracy(self):
        # t * ||H|| = 5, steps = 200
        h = random_hamiltonian()
        res = trotter.evolve_trotter(h, 1.0, 200)
        assert res.infidelity < 1e-4
        assert res.dt_s == pytest.approx(1.0 / 200)

    def test_zero_time_is_identity(self):
        h = random_hamiltonian()
        psi0 = fock.basis_state(fock.HilbertShape((N,)), [3])
        res = trotter.evolve_trotter(h, 0.0, 50, psi0)
        np.testing.assert_array_equal(res.state.amplitudes, psi0.amplitudes)
        assert res.exact_fidelity == 1.0

    def test_commuting_terms_exact_at_any_step_count(self):
        # constant kinetic diagonal -> kinetic term proportional to identity
        rng = np.random.default_rng(2)
        h = trotter.QuditHamiltonian(rng.uniform(-1, 1, N), np.full(N, 0.7))
        for steps in (1, 7):
            res = trotter.evolve_trotter(h, 0.8, steps)
            assert res.infidelity < 1e-12

    def test_norm_preserved(self):
        h = random_hamiltonian()
        rng = np.random.default_rng(3)
        psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
        res = trotter.evolve_trotter(h, 1.0, 37, psi0)
        assert abs(res.state.norm() - 1.0) < 1e-9

    def test_matches_expm_reference_directly(self):
        h = random_hamiltonian(seed=9)
        rng = np.random.default_rng(4)
        psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi0 /= np.linalg.norm(psi0)
        res = trotter.evolve_trotter(h, 1.0, 400, psi0)
        exact = expm_reference(h, 1.0) @ psi0
        fid = abs(np.vdot(exact, res.state.amplitudes.reshape(N))) ** 2
        assert fid == pytest.approx(res.exact_fidelity, abs=1e-12)

    def test_global_error_first_order(self):
        # error norm vs dt fits a line of slope ~1 in log-log
        h = random_hamiltonian()
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi0 /= np.linalg.norm(psi0)
        exact = expm_reference(h, 1.0) @ psi0
        steps_list = np.array([50, 100, 200, 400])
        errs = []
        for steps in steps_list:
            res = trotter.evolve_trotter(h, 1.0, int(steps), psi0)
            errs.append(np.linalg.norm(res.state.amplitudes.reshape(N) - exact))
        slope = np.polyfit(np.log(1.0 / steps_list), np.log(errs), 1)[0]
        assert 0.9 < slope < 1.1

    def test_bad_steps(self):
        with pytest.raises(UsageError):
            trotter.evolve_trotter(random_hamiltonian(), 1.0, 0)
        with pytest.raises(UsageError):
            trotter.evolve_trotter(random_hamiltonian(), 1.0, 1.5)

    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, np.float64(3.0), np.bool_(True),
                                     "3", None])
    def test_non_integer_steps_rejected(self, bad):
        # True is not one step, and a float count is not truncated
        h = random_hamiltonian()
        with pytest.raises(UsageError, match="steps must be a positive integer"):
            trotter.evolve_trotter(h, 1.0, bad)
        with pytest.raises(UsageError, match="steps must be a positive integer"):
            trotter.trotter_convergence(h, 1.0, [4, bad])

    def test_numpy_integer_steps_match_ints(self):
        h = random_hamiltonian()
        want = trotter.evolve_trotter(h, 1.0, 7)
        for steps in (np.int64(7), np.int32(7), np.uint8(7)):
            got = trotter.evolve_trotter(h, 1.0, steps)
            assert type(got.steps) is int and got.steps == 7
            np.testing.assert_array_equal(got.state.amplitudes, want.state.amplitudes)
        rows = trotter.trotter_convergence(h, 1.0, [np.int64(7)])
        assert rows[0][0] == 7 and rows[0][2] == want.infidelity

    def test_convergence_table(self):
        h = random_hamiltonian()
        rows = trotter.trotter_convergence(h, 1.0, [50, 100, 200])
        assert len(rows) == 3
        assert [r[0] for r in rows] == [50, 100, 200]
        # monotone improvement with more steps
        assert rows[0][2] > rows[1][2] > rows[2][2]
        assert rows[1][1] == pytest.approx(0.01)
        with pytest.raises(UsageError):
            trotter.trotter_convergence(h, 1.0, [])


def diagonal_unitary(seed, n=N):
    rng = np.random.default_rng(seed)
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


class TestOtoc:
    def test_commuting_at_t_zero(self):
        h = random_hamiltonian()
        w = diagonal_unitary(10)
        v = diagonal_unitary(11)
        val = trotter.otoc(w, v, h, 0.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_dynamics_constant(self):
        rng = np.random.default_rng(6)
        h = trotter.QuditHamiltonian(rng.uniform(-1, 1, N), np.zeros(N))
        w = diagonal_unitary(12)
        v = diagonal_unitary(13)
        ref = trotter.otoc(w, v, h, 0.0)
        for t in (0.3, 1.7, 4.0):
            assert trotter.otoc(w, v, h, t) == pytest.approx(ref, abs=1e-12)

    def test_unitarity_bound_and_decay(self):
        h = random_hamiltonian(seed=5)
        w = diagonal_unitary(14)
        v = diagonal_unitary(15)
        ts = np.linspace(0.0, 6.0, 25)
        vals = [trotter.otoc(w, v, h, t) for t in ts]
        mags = [abs(x) for x in vals]
        assert all(m <= 1 + 1e-12 for m in mags)
        assert mags[0] == pytest.approx(1.0, abs=1e-12)
        assert min(mags) < 0.9  # scrambling pulls it well below 1

    def test_against_independent_dense_evaluation(self):
        # brute-force chain built on scipy's expm, not the package propagator
        h = random_hamiltonian(seed=21)
        rng = np.random.default_rng(16)
        w_h = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        w = scipy.linalg.expm(1j * (w_h + w_h.conj().T) / 8)
        v = gates.fourier(N).matrix
        t = 1.7
        u = scipy.linalg.expm(-1j * h.dense() * t)
        w_t = u.conj().T @ w @ u
        e0 = np.zeros(N, complex)
        e0[0] = 1.0
        brute = np.vdot(e0, w_t.conj().T @ v.conj().T @ w_t @ v @ e0)
        assert trotter.otoc(w, v, h, t) == pytest.approx(complex(brute), abs=1e-9)

    def test_accepts_operator_inputs_and_custom_state(self):
        h = random_hamiltonian()
        shape = fock.HilbertShape((N,))
        w = fock.Operator(shape, diagonal_unitary(17))
        v = fock.Operator(shape, diagonal_unitary(18))
        psi0 = fock.basis_state(shape, [2])
        val = trotter.otoc(w, v, h, 0.0, psi0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        h = random_hamiltonian()
        with pytest.raises(ShapeError):
            trotter.otoc(np.eye(N + 1), np.eye(N), h, 1.0)
        with pytest.raises(ShapeError):
            trotter.otoc(np.eye(N), np.eye(N), h, 1.0, np.ones(N + 2))

    def test_series_matches_pointwise(self):
        h = random_hamiltonian(seed=5)
        w = diagonal_unitary(14)
        v = diagonal_unitary(15)
        times = [0.0, 0.5, 1.25]
        rows = trotter.otoc_series(w, v, h, times)
        assert len(rows) == 3
        for (t, re, im, mag) in rows:
            val = trotter.otoc(w, v, h, t)
            assert re == pytest.approx(val.real, abs=1e-12)
            assert im == pytest.approx(val.imag, abs=1e-12)
            assert mag == pytest.approx(abs(val), abs=1e-12)


class TestOtocSeriesProperties:
    """The eigenbasis series against a per-time brute force on scipy's expm."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           n_times=st.integers(0, 6))
    def test_matches_expm_brute_force(self, seed, n, n_times):
        rng = np.random.default_rng(seed)
        h = trotter.QuditHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))

        def contraction():
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return g / np.linalg.norm(g, 2)

        w, v = contraction(), contraction()
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        times = [0.0] + list(rng.uniform(-3.0, 3.0, n_times))
        rows = trotter.otoc_series(w, v, h, times, psi)
        phi = psi / np.linalg.norm(psi)
        assert [r[0] for r in rows] == times
        for t, re, im, mag in rows:
            u = scipy.linalg.expm(-1j * h.dense() * t)
            w_t = u.conj().T @ w @ u
            brute = np.vdot(phi, w_t.conj().T @ v.conj().T @ w_t @ v @ phi)
            assert abs(complex(re, im) - brute) <= 1e-10
            assert mag == pytest.approx(abs(brute), abs=1e-10)

    def test_nonfinite_time_rejected(self):
        h = random_hamiltonian()
        with pytest.raises(NumericError):
            trotter.otoc_series(np.eye(N), np.eye(N), h, [0.0, math.inf])

    def test_empty_time_grid(self):
        assert trotter.otoc_series(np.eye(N), np.eye(N), random_hamiltonian(), []) == ()


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


class TestOtocBlocks:
    """otoc_series evaluates its grid in blocks of _OTOC_BLOCK_ENTRIES // N
    times, at least 2, and a last block of one time joins the one before."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), width=st.integers(2, 5),
           n_times=st.integers(0, 13))
    @example(seed=7, n=4, width=3, n_times=7)  # two blocks of 3 and a remainder of one
    @example(seed=7, n=3, width=2, n_times=0)  # the empty grid
    @example(seed=7, n=3, width=2, n_times=1)
    def test_blocks_match_expm_and_one_block(self, seed, n, width, n_times):
        rng = np.random.default_rng(seed)
        h = trotter.QuditHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        w, v = _random_unitary(rng, n), _random_unitary(rng, n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        times = list(rng.uniform(-3.0, 3.0, n_times))
        h._eigensystem  # diagonalized before np.outer is watched
        with mock.patch.object(trotter, "_OTOC_BLOCK_ENTRIES", width * n), \
                mock.patch.object(np, "outer", wraps=np.outer) as outer:
            rows = np.array(trotter.otoc_series(w, v, h, times, psi)).reshape(-1, 4)
        blocks = [len(call.args[1]) for call in outer.call_args_list]
        assert sum(blocks) == n_times
        assert all(b == width for b in blocks[:-1])
        assert 1 not in blocks or n_times == 1
        with mock.patch.object(trotter, "_OTOC_BLOCK_ENTRIES", n * n_times):
            whole = np.array(trotter.otoc_series(w, v, h, times, psi)).reshape(-1, 4)
        np.testing.assert_allclose(rows, whole, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(rows[:, 0], times)
        phi = psi / np.linalg.norm(psi)
        for t, re_c, im_c, mag in rows:
            u = scipy.linalg.expm(-1j * h.dense() * t)
            w_t = u.conj().T @ w @ u
            brute = np.vdot(phi, w_t.conj().T @ v.conj().T @ w_t @ v @ phi)
            assert abs(complex(re_c, im_c) - brute) <= 1e-9
            assert abs(mag - abs(brute)) <= 1e-9

    def test_memory_does_not_grow_with_the_grid(self):
        # one N×T array of 20,000 times is 10 MB at N = 32, and the chain
        # held about six of them; the rows themselves take about 3 MB
        n = 32
        h = random_hamiltonian(n=n)
        w, v = _random_unitary(np.random.default_rng(1), n), np.eye(n)
        times = list(np.linspace(0.0, 2.0, 20_000))
        h._eigensystem  # diagonalized outside the traced call
        tracemalloc.start()
        try:
            rows = trotter.otoc_series(w, v, h, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 20_000
        assert peak < 8 << 20, peak


def _one_mode_circuit(n, *gate_list):
    return gates.Circuit(fock.HilbertShape((n,)), tuple(gates.GateSpec(kind, params)
                                                        for kind, params in gate_list))


def _otoc_circuit(draw, n):
    """A SNAP, a Fourier gate or a two-gate circuit of both on n levels."""
    snap = ("snap", {"target": 0, "theta": draw(st.lists(
        st.floats(-math.pi, math.pi), min_size=n, max_size=n))})
    fourier = ("fourier", {"target": 0, "inverse": draw(st.booleans())})
    form = draw(st.sampled_from(["snap", "fourier", "snap_fourier", "fourier_snap"]))
    gate_list = {"snap": [snap], "fourier": [fourier], "snap_fourier": [snap, fourier],
                 "fourier_snap": [fourier, snap]}[form]
    return _one_mode_circuit(n, *gate_list)


class TestOtocCircuitForm:
    """W and V as compiled circuits against the same operators as dense
    embedded matrices (`dense_unitary`)."""

    @settings(max_examples=30)
    @given(data=st.data(), n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
           times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    def test_matches_dense_unitaries(self, data, n, seed, times):
        rng = np.random.default_rng(seed)
        h = trotter.QuditHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        w, v = _otoc_circuit(data.draw, n), _otoc_circuit(data.draw, n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = np.array(trotter.otoc_series(w, v, h, times, psi))
        dense = np.array(trotter.otoc_series(dense_unitary(w), dense_unitary(v), h, times, psi))
        np.testing.assert_array_equal(got[:, 0], times)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)

    def test_single_time_otoc_takes_circuits(self):
        h = random_hamiltonian(seed=3)
        w = _one_mode_circuit(N, ("fourier", {"target": 0}))
        v = _one_mode_circuit(N, ("snap", {"target": 0, "theta": [0.3 * k for k in range(N)]}))
        dense = trotter.otoc(dense_unitary(w), dense_unitary(v), h, 0.7)
        assert trotter.otoc(w, v, h, 0.7) == pytest.approx(dense, abs=1e-12)

    def test_circuit_on_another_shape_is_a_shape_error(self):
        h = random_hamiltonian()
        for dims in [(N + 1,), (2, N // 2)]:
            circuit = gates.Circuit(fock.HilbertShape(dims), ())
            message = f"V must be on dims ({N},), got {dims}"
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                trotter.otoc_series(np.eye(N), circuit, h, [0.0])


class TestOtocArrayOperands:
    """A raw-array W or V is checked like the Hamiltonian's lists."""

    @pytest.mark.parametrize("name", ["W", "V"])
    def test_nonfinite_entry_is_a_numeric_error(self, name):
        # a NaN entry gave NaN rows
        bad = np.eye(N)
        bad[1, 2] = math.nan
        ops = {"W": np.eye(N), "V": np.eye(N), name: bad}
        with pytest.raises(NumericError, match=f"non-finite entries in {name}"):
            trotter.otoc_series(ops["W"], ops["V"], random_hamiltonian(), [0.0, 1.0])

    @pytest.mark.parametrize("entry", ["a", "1", None])
    def test_non_numeric_entry_is_a_usage_error(self, entry):
        # a string entry escaped as a bare ValueError
        bad = np.eye(N).tolist()
        bad[0][1] = entry
        with pytest.raises(UsageError, match="W entries must be numbers"):
            trotter.otoc_series(bad, np.eye(N), random_hamiltonian(), [0.0])

    def test_boolean_array_is_a_usage_error(self):
        with pytest.raises(UsageError, match="V entries must be numbers, got dtype bool"):
            trotter.otoc_series(np.eye(N), np.eye(N, dtype=bool), random_hamiltonian(), [0.0])

    def test_wrong_shape_message_is_kept(self):
        with pytest.raises(ShapeError, match=re.escape(f"V must be {N}x{N}, got (3, 3)")):
            trotter.otoc_series(np.eye(N), np.eye(3), random_hamiltonian(), [0.0])

    def test_ragged_rows_are_a_shape_error(self):
        ragged = np.eye(N).tolist()
        ragged[2] = ragged[2][:-1]
        with pytest.raises(ShapeError, match=f"W must be {N}x{N}, got ragged rows"):
            trotter.otoc_series(ragged, np.eye(N), random_hamiltonian(), [0.0])


def test_convergence_diagonalizes_once():
    h = random_hamiltonian()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as spy:
        rows = trotter.trotter_convergence(h, 1.0, [10, 20, 40])
    assert len(rows) == 3
    assert spy.call_count == 1


# ---------------------------------------------------------------------------
# the bare-array sweep against the step-by-step apply_circuit loop it replaced


def _stepwise_sweep(h, t_total_s, steps, psi0):
    """evolve_trotter as a StateVector per step through gates.apply_circuit:
    (final amplitudes, exact fidelity)."""
    psi = trotter._state_vector(psi0, h.n_levels)
    circuit = trotter.trotter_step(h, t_total_s / steps)
    state = psi
    for _ in range(steps):
        state = gates.apply_circuit(circuit, state)
    evals, vecs = h._eigensystem
    phases = np.exp(-1j * evals * t_total_s)
    exact = vecs @ (phases * (vecs.conj().T @ psi.amplitudes))
    return state.amplitudes, float(abs(np.vdot(exact, state.amplitudes)) ** 2)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       steps=st.integers(1, 60), start=st.sampled_from(["none", "level", "random"]))
def test_sweep_bitwise_equals_stepwise_apply_circuit(seed, n, steps, start):
    rng = np.random.default_rng(seed)
    h = trotter.QuditHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
    psi0 = {
        "none": None,
        "level": fock.basis_state(fock.HilbertShape((n,)), [int(rng.integers(n))]),
        "random": rng.normal(size=n) + 1j * rng.normal(size=n),
    }[start]
    t_total = float(rng.uniform(0.1, 2.0))
    res = trotter.evolve_trotter(h, t_total, steps, psi0)
    amps, fid = _stepwise_sweep(h, t_total, steps, psi0)
    assert res.state.amplitudes.tobytes() == amps.tobytes()
    assert res.exact_fidelity == fid
    steps_list = [steps, steps + 1]
    expected = tuple(
        (s, t_total / s, max(0.0, 1.0 - _stepwise_sweep(h, t_total, s, psi0)[1]))
        for s in steps_list
    )
    assert trotter.trotter_convergence(h, t_total, steps_list, psi0) == expected


def test_sweep_builds_state_vectors_independent_of_steps():
    h = random_hamiltonian()
    built = []
    for steps in (1, 10, 300):
        with mock.patch.object(fock.StateVector, "__post_init__", autospec=True,
                               side_effect=fock.StateVector.__post_init__) as spy:
            trotter.evolve_trotter(h, 1.0, steps)
        built.append(spy.call_count)
    assert built[0] == built[1] == built[2]


# ---------------------------------------------------------------------------
# the batched scan: every row of a step-count sweep advances together


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 70),
       steps_list=st.one_of(st.just([7, 3, 7, 1]),
                            st.lists(st.integers(1, 25), min_size=1, max_size=5)),
       start=st.sampled_from(["none", "level", "random"]))
def test_batched_rows_bitwise_equal_stepwise_apply_circuit(seed, n, steps_list, start):
    # unsorted, duplicate and single-entry step lists, each row against its
    # own per-step apply_circuit run
    rng = np.random.default_rng(seed)
    h = trotter.QuditHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
    psi0 = {"none": None, "level": [0.0] * (n - 1) + [1.0],
            "random": rng.normal(size=n) + 1j * rng.normal(size=n)}[start]
    t_total = float(rng.uniform(0.1, 2.0))
    rows = trotter.trotter_convergence(h, t_total, steps_list, psi0)
    assert [r[0] for r in rows] == steps_list
    for steps, (got_steps, dt, infidelity) in zip(steps_list, rows):
        amps, fid = _stepwise_sweep(h, t_total, steps, psi0)
        assert (got_steps, dt, infidelity) == (steps, t_total / steps, max(0.0, 1.0 - fid))
        res = trotter.evolve_trotter(h, t_total, steps, psi0)
        assert res.state.amplitudes.tobytes() == amps.tobytes()
        assert res.exact_fidelity == fid


def _count_ffts():
    """Patches of the scan's `_ortho_fft` that count its forward and its
    inverse transforms in `call_count`; entered nested, the inner wraps the outer."""
    def counter(inverse):
        wrapped = trotter._ortho_fft  # read on entry

        def counted(x, inv, *args, **kwargs):
            counted.call_count += inv == inverse
            return wrapped(x, inv, *args, **kwargs)
        counted.call_count = 0
        return counted
    return tuple(mock.patch.object(trotter, "_ortho_fft",
                                   new_callable=functools.partial(counter, inverse))
                 for inverse in (False, True))


@pytest.mark.parametrize("steps_list", [[10, 20, 40], [40, 10, 20], [5, 5], [1], [3, 9, 1, 9]])
def test_sweep_makes_one_fft_pair_per_scan_iteration(steps_list):
    # the rows still running share each call: max(steps_list) calls of each
    # transform, not sum(steps_list)
    h = random_hamiltonian()
    h._eigensystem  # dense() takes one ifft; the sweep reuses the cached eigensystem
    fft_patch, ifft_patch = _count_ffts()
    with fft_patch as fft, ifft_patch as ifft:
        trotter.trotter_convergence(h, 1.0, steps_list)
    assert fft.call_count == ifft.call_count == max(steps_list)
    with fft_patch as fft, ifft_patch as ifft:
        trotter.evolve_trotter(h, 1.0, steps_list[0])
    assert fft.call_count == ifft.call_count == steps_list[0]


@pytest.mark.parametrize("bad", [0, 2.5, True, "3"], ids=repr)
def test_bad_last_step_count_raises_before_any_fft(bad):
    h = random_hamiltonian()
    fft_patch, ifft_patch = _count_ffts()
    with fft_patch as fft, ifft_patch as ifft:
        with pytest.raises(UsageError, match="steps must be a positive integer"):
            trotter.trotter_convergence(h, 1.0, [10, 20, bad])
    assert fft.call_count == ifft.call_count == 0


@pytest.mark.parametrize("t", [-1e308, 1e308, 5e307])
def test_otoc_phase_overflow_names_times_s_before_the_phases(t):
    h = random_hamiltonian()
    with mock.patch.object(np, "outer", side_effect=AssertionError("phases built")):
        with pytest.raises(NumericError, match=re.escape(f"times_s entry {t!r}: the phase")):
            trotter.otoc_series(np.eye(N), np.eye(N), h, [0.0, t, 1.0])


@pytest.mark.parametrize("t, steps_list, phase", [
    (1e308, [1], "the step phase 2*pi*max(|V|, |K|)*dt"),
    # every step phase within MAX_PHASE_RAD (2*pi*max(|V|, |K|) = 3.4, max|E| = 5)
    (1e6, [20, 10], "the phase max|E|*t"),
    (2.5e5, [4, 1, 2], "the phase max|E|*t"),
], ids=repr)
def test_sweep_phase_overflow_names_t_total_s_before_the_phases(t, steps_list, phase):
    # 1e308 wrote infidelity 0.0 after RuntimeWarnings: the clamp of 1 - nan
    h = random_hamiltonian()
    with mock.patch.object(trotter, "_step_phases", side_effect=AssertionError("phases built")):
        with pytest.raises(NumericError, match=re.escape(f"t_total_s {t!r}: {phase}")):
            trotter.trotter_convergence(h, t, steps_list)
        with pytest.raises(NumericError, match=re.escape(f"t_total_s {t!r}: the")):
            trotter.evolve_trotter(h, t, steps_list[0])


def test_huge_diagonal_names_the_step_phase_without_warnings():
    # a diagonal entry of 1e308 raised only after RuntimeWarnings from
    # dense() and the phases
    h = trotter.QuditHamiltonian([0.3, 1e308, 0.25, 0.05], [0.1, 0.3, -0.2, 0.15])
    with pytest.raises(NumericError, match=re.escape("t_total_s 1.0: the step phase")):
        trotter.trotter_convergence(h, 1.0, [10])


def test_dense_overflow_is_checked_before_eigh():
    # 2*pi*max(|V|, |K|)*dt is within MAX_PHASE_RAD, but an entry of
    # 2*pi*(V + F diag(K) F†) is not finite
    h = trotter.QuditHamiltonian([2e307] * 4, [2e307] * 4)
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh called")):
        with pytest.raises(NumericError, match=re.escape("the Hamiltonian 2*pi*H overflows")):
            trotter.trotter_convergence(h, 1e-302, [2])
        with pytest.raises(NumericError, match=re.escape("the Hamiltonian 2*pi*H overflows")):
            trotter.otoc_series(np.eye(4), np.eye(4), h, [0.0])


def test_step_and_dense_builders_refuse_overflow():
    # each returned inf entries after a RuntimeWarning; trotter_step a SNAP
    # with theta [-inf, -0.0]
    h = trotter.QuditHamiltonian([1e308, 0.0], [0.0, 0.0])
    with pytest.raises(NumericError, match=re.escape(
            "dt_s 1.0: the step phase 2*pi*max(|V|, |K|)*dt is inf rad")):
        trotter.trotter_step(h, 1.0)
    for build in (h.dense, h.operator):
        with pytest.raises(NumericError, match=re.escape("the Hamiltonian 2*pi*H overflows")):
            build()


@pytest.mark.parametrize("call", [
    lambda: trotter.trotter_convergence(None, 1.0, [3]),
    lambda: trotter.evolve_trotter(None, 1.0, 3),
    lambda: trotter.otoc_series(np.eye(3), np.eye(3), None, [0.0]),
    lambda: trotter.otoc(np.eye(3), np.eye(3), None, 0.0),
], ids=["trotter_convergence", "evolve_trotter", "otoc_series", "otoc"])
def test_missing_hamiltonian_is_a_usage_error(call):
    # a raw AttributeError before
    with pytest.raises(UsageError, match=r"^h must be a cavityq QuditHamiltonian, got None$"):
        call()


@pytest.mark.parametrize("steps_list", [None, 3, np.array(3), {3: 1}], ids=repr)
def test_steps_list_must_be_a_list_tuple_or_array(steps_list):
    h = random_hamiltonian()
    with pytest.raises(UsageError, match="^steps_list must be a sequence, got "):
        trotter.trotter_convergence(h, 1.0, steps_list)


def test_steps_list_rows_are_entries_for_the_count_rule():
    with pytest.raises(UsageError, match=r"^steps must be a positive integer, got array\(\[3\]\)$"):
        trotter.trotter_convergence(random_hamiltonian(), 1.0, np.array([[3]]))


def test_steps_list_takes_tuples_and_arrays():
    h = random_hamiltonian()
    rows = trotter.trotter_convergence(h, 1.0, [5, 9])
    assert trotter.trotter_convergence(h, 1.0, (5, 9)) == rows
    assert trotter.trotter_convergence(h, 1.0, np.array([5, 9])) == rows
    assert trotter.trotter_convergence(h, 1.0, (s for s in [5, 9])) == rows


@pytest.mark.parametrize("times_s", [1.0, np.float64(1.0), np.array(1.0), None], ids=repr)
def test_scalar_times_s_is_a_usage_error(times_s):
    # a raw TypeError from list() once
    with pytest.raises(UsageError, match=r"^times_s must be 1-D, got \(\)$"):
        trotter.otoc_series(np.eye(N), np.eye(N), random_hamiltonian(), times_s)


@pytest.mark.parametrize("t, message", [
    (-1.0, "t_total_s must be nonnegative, got -1.0"),
    (-math.inf, "t_total_s must be finite, got -inf"),
    (math.nan, "t_total_s must be finite, got nan"),
], ids=repr)
def test_t_total_s_messages(t, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        trotter.trotter_convergence(random_hamiltonian(), t, [3])


def _fourier_matrix(n):
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


class TestTrotterErrorBound:
    """For U(dt) = e^{-iB dt} e^{-iA dt}, A = 2π diag(V), B = 2π F diag(K) F†,
    ‖e^{-i(A+B)t} − U(t/r)^r‖ ≤ (t²/2r)‖[A, B]‖ (Childs, Su, Tran, Wiebe &
    Zhu, PRX 11, 011020 (2021)), so 1 − fidelity ≤ ((t²/2r)‖[A, B]‖)²."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), t=st.floats(0.05, 3.0),
           steps_list=st.lists(st.integers(1, 200), min_size=1, max_size=4),
           level=st.integers(0, 15))
    def test_rows_within_commutator_bound(self, seed, n, t, steps_list, level):
        rng = np.random.default_rng(seed)
        v, k = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        a = 2 * np.pi * np.diag(v)
        f = _fourier_matrix(n)
        b = 2 * np.pi * (f * k) @ f.conj().T
        h = trotter.QuditHamiltonian(v, k)
        np.testing.assert_allclose(h.dense(), a + b, rtol=0, atol=1e-12)
        norm = np.linalg.norm(a @ b - b @ a, 2)
        psi0 = np.eye(n)[level % n]
        for r, _, infidelity in trotter.trotter_convergence(h, t, steps_list, psi0):
            # 1e-12 covers rounding where [A, B] vanishes (K constant)
            assert infidelity <= (t * t / (2 * r) * norm) ** 2 + 1e-12

    def test_readme_config_quarters_per_doubling(self):
        config = json.loads(readme_example("Example Trotter config")[0])
        h = trotter.QuditHamiltonian(config["diagonal"], config["kinetic_diagonal"])
        psi0 = np.eye(h.n_levels)[config["initial_level"]]
        rows = trotter.trotter_convergence(h, config["t_total_s"], config["steps_list"], psi0)
        steps = [r for r, _, _ in rows]
        assert len(rows) >= 3 and steps[1:] == [2 * r for r in steps[:-1]]
        for (_, _, coarse), (_, _, fine) in zip(rows, rows[1:]):
            assert 3.0 <= coarse / fine <= 5.0
