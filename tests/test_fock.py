import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from cavityq import fock
from cavityq.errors import (
    CapacityError,
    DegenerateInputError,
    InvalidDimensionError,
    NumericError,
    ShapeError,
    UsageError,
)


class TestHilbertShape:
    def test_total_dim(self):
        assert fock.HilbertShape((2, 3, 4)).total_dim == 24

    def test_flat_index_first_subsystem_most_significant(self):
        shp = fock.HilbertShape((2, 3))
        # |0,1> sits at index 1, |1,0> at index 3
        assert shp.flat_index([0, 1]) == 1
        assert shp.flat_index([1, 0]) == 3
        assert shp.unflatten(4) == (1, 1)

    def test_roundtrip(self):
        shp = fock.HilbertShape((3, 2, 5))
        for idx in range(shp.total_dim):
            assert shp.flat_index(shp.unflatten(idx)) == idx

    def test_rejects_zero_dim(self):
        with pytest.raises(InvalidDimensionError):
            fock.HilbertShape((2, 0))

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, "100")
        with pytest.raises(CapacityError):
            fock.HilbertShape((101,))
        fock.HilbertShape((100,))  # at the cap is fine

    def test_cap_env_override_widens(self, monkeypatch):
        monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, str(2**21))
        assert fock.dim_cap() == 2**21


class TestLadderOperators:
    def test_annihilation_entries(self):
        a = fock.annihilation(5).matrix
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_annihilation_invalid_dim(self):
        with pytest.raises(InvalidDimensionError):
            fock.annihilation(0)

    def test_commutator_truncation_tail(self):
        # [a, a†] = I everywhere except the corner, which closes the algebra
        # on a finite space: the last diagonal entry is -(N-1).
        n = 7
        a = fock.annihilation(n).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(n)
        expected[-1, -1] = -(n - 1)
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_number_operator_from_ladder(self):
        n = 6
        a = fock.annihilation(n)
        np.testing.assert_allclose(
            (a.dagger() @ a).matrix, fock.number_operator(n).matrix, atol=1e-12
        )


class TestTensor:
    def test_identity_product(self):
        i6 = fock.tensor(fock.identity(2), fock.identity(3))
        np.testing.assert_allclose(i6.matrix, np.eye(6))
        assert i6.shape.dims == (2, 3)

    def test_state_ordering(self):
        psi = fock.tensor(fock.basis_state(2, 0), fock.basis_state(3, 1))
        expected = np.zeros(6)
        expected[1] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_operator_state_compatibility(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            da, db = rng.integers(2, 5, size=2)
            A = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            B = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
            x = rng.normal(size=da) + 1j * rng.normal(size=da)
            y = rng.normal(size=db) + 1j * rng.normal(size=db)
            op = fock.tensor(
                fock.Operator(fock.HilbertShape((int(da),)), A),
                fock.Operator(fock.HilbertShape((int(db),)), B),
            )
            st = fock.tensor(
                fock.StateVector(fock.HilbertShape((int(da),)), x),
                fock.StateVector(fock.HilbertShape((int(db),)), y),
            )
            lhs = op.apply(st).amplitudes
            rhs = np.kron(A @ x, B @ y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, "30")
        a = fock.identity(8)
        with pytest.raises(CapacityError):
            fock.tensor(a, fock.identity(8))

    def test_mixed_factors_rejected(self):
        with pytest.raises(UsageError):
            fock.tensor(fock.identity(2), fock.basis_state(2, 0))


class TestPropagator:
    def test_zero_hamiltonian(self):
        h = fock.Operator(fock.HilbertShape((4,)), np.zeros((4, 4)))
        np.testing.assert_allclose(fock.propagator(h, 3.7).matrix, np.eye(4), atol=1e-14)

    def test_diagonal_phases(self):
        h = fock.number_operator(5)
        u = fock.propagator(h, 0.3).matrix
        np.testing.assert_allclose(np.diag(u), np.exp(-1j * 0.3 * np.arange(5)), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitarity_random_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = fock.Operator(fock.HilbertShape((n,)), (m + m.conj().T) / 2)
        u = fock.propagator(h, float(rng.uniform(0.1, 5.0)))
        assert u.is_unitary(tol=1e-10)

    def test_commuting_split(self):
        # exp(-i(H1+H2)t) == exp(-iH1 t) exp(-iH2 t) when [H1,H2]=0
        rng = np.random.default_rng(11)
        n = 8
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        base = fock.Operator(fock.HilbertShape((n,)), (m + m.conj().T) / 2)
        h1 = base
        h2 = fock.Operator(base.shape, base.matrix @ base.matrix)  # polynomial commutes
        t = 0.7
        joint = fock.propagator(
            fock.Operator(base.shape, h1.matrix + h2.matrix), t
        ).matrix
        split = fock.propagator(h1, t).matrix @ fock.propagator(h2, t).matrix
        assert np.max(np.abs(joint - split)) < 1e-9

    def test_non_hermitian_falls_back(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = fock.Operator(fock.HilbertShape((2,)), m)
        u = fock.propagator(h, 1.0).matrix
        # exp(-i t a) for nilpotent a is I - i t a
        np.testing.assert_allclose(u, np.eye(2) - 1j * m, atol=1e-12)

    def test_two_level_closed_form_matches_expm(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hm = (m + m.conj().T) / 2
        u = fock.propagator(fock.Operator(fock.HilbertShape((2,)), hm), 1.3)
        np.testing.assert_allclose(u.matrix, scipy.linalg.expm(-1.3j * hm),
                                   atol=1e-14)
        assert u.is_unitary(tol=1e-14)

    def test_mhz_qudit_hamiltonian_stays_hermitian(self, monkeypatch):
        # the circulant fill of a 64-level MHz Hamiltonian straight from
        # the FFT (QuditHamiltonian.dense now mirrors its lower triangle)
        # leaves an asymmetry of ~2e-10 rad/s, far below its ~6e6 rad/s scale
        rng = np.random.default_rng(0)
        diagonal = rng.uniform(-1, 1, 64) * 1e6
        kinetic = rng.uniform(-1, 1, 64) * 1e6
        levels = np.arange(64)
        fill = np.fft.ifft(kinetic)[(levels[:, None] - levels) % 64]
        h = fock.Operator(fock.HilbertShape((64,)),
                          2 * np.pi * (fill + np.diag(diagonal)))
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) > 1e-10

        def refuse(*args, **kwargs):
            raise AssertionError("Hermitian input sent to scipy's expm")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        assert fock.propagator(h, 1e-6).is_unitary(tol=1e-13)

    def test_entries_whose_squares_overflow_are_refused_before_any_exponential(
            self, monkeypatch):
        # warned "overflow encountered in scalar power" in the 2x2 closed form
        monkeypatch.setattr(fock, "expm_hermitian", None)
        h = fock.Operator(fock.HilbertShape((2,)), np.full((2, 2), 1e200))
        with pytest.raises(NumericError, match=r"^h: the entries, up to 1e\+200, "
                                               "overflow when squared$"):
            fock.propagator(h, 1e-300)

    def test_phases_outside_the_phase_rule_are_refused(self):
        # returned phases of about 2e7 rad, whose last digits are noise
        with pytest.raises(NumericError, match=r"^t 10000000.0: the phase d\*max\|H\|\*\|t\| "
                                               r"is 6e\+07 rad"):
            fock.propagator(fock.number_operator(3), 1e7)


def _random_hermitian(rng, shape):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (m + m.conj().swapaxes(-1, -2)) / 2


class TestExpmHermitian:
    @given(seed=st.integers(0, 2**32 - 1),
           batch=st.sampled_from([(), (4,), (2, 3)]),
           size=st.sampled_from([1, 2, 3, 6]),
           t=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    def test_matches_scipy_expm(self, seed, batch, size, t):
        h = _random_hermitian(np.random.default_rng(seed), (*batch, size, size))
        u = fock.expm_hermitian(h, t)
        assert u.shape == h.shape
        ref = np.array([scipy.linalg.expm(-1j * t * hk)
                        for hk in h.reshape(-1, size, size)])
        np.testing.assert_allclose(u.reshape(-1, size, size), ref, atol=1e-12)

    def test_degenerate_two_level(self):
        # B = 0: both eigenvalues equal c, so exp(-iht) = e^{-ict} I
        h = np.stack([c * np.eye(2, dtype=complex) for c in (0.0, 0.7, -2.5)])
        u = fock.expm_hermitian(h, 1.9)
        ref = np.exp(-1.9j * np.array([0.0, 0.7, -2.5]))[:, None, None] * np.eye(2)
        np.testing.assert_allclose(u, ref, atol=1e-15)


def _check_eigensystem(h):
    evals, vecs = fock.hermitian_eigensystem(h)
    scale = np.max(np.abs(h), axis=(-2, -1), keepdims=True)
    eye = np.eye(h.shape[-1])
    assert np.all(np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - eye) <= 1e-14)
    rebuilt = (vecs * evals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    assert np.all(np.abs(rebuilt - h) <= 1e-14 * scale)
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(h), rtol=0,
                               atol=1e-14 * np.max(scale))


# zero, or far from the subnormal range, where V diag(evals) V^dag rounds
# away relative precision that h never had
_ENTRY = st.one_of(st.just(0.0), st.floats(-1e7, 1e7), st.floats(-1.0, 1.0)
                   ).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


class TestHermitianEigensystem:
    @given(h00=_ENTRY, h11=_ENTRY, re=_ENTRY, im=_ENTRY)
    def test_two_level_closed_form(self, h00, h11, re, im):
        h = np.array([[h00, re - 1j * im], [re + 1j * im, h11]])
        _check_eigensystem(h)

    @pytest.mark.parametrize("h", [
        [[2.5, 0.0], [0.0, -1.0]],    # h10 = 0, bz > 0
        [[-3.0, 0.0], [0.0, 4.0]],    # h10 = 0, bz < 0
        [[0.7, 0.0], [0.0, 0.7]],     # h proportional to I
        [[0.0, 0.0], [0.0, 0.0]],
        [[1e6, 1e-9j], [-1e-9j, 1e6]],
    ], ids=["bz_positive", "bz_negative", "identity", "zero", "near_degenerate"])
    def test_two_level_special_cases(self, h):
        _check_eigensystem(np.array(h, dtype=complex))

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_batched(self, size):
        _check_eigensystem(_random_hermitian(np.random.default_rng(size),
                                             (4, 3, size, size)))


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self):
        psi = fock.coherent_state(0.0, 10)
        np.testing.assert_allclose(psi.amplitudes, fock.basis_state(10, 0).amplitudes)
        assert psi.leakage == 0.0

    def test_poisson_occupations(self):
        # independent oracle: the Poisson pmf at |α|² = 1
        psi = fock.coherent_state(1.0, 20)
        probs = psi.probabilities()
        for n in range(8):
            pmf = math.exp(-1.0) / math.factorial(n)
            assert probs[n] == pytest.approx(pmf, abs=1e-8)

    def test_overlap_closed_form(self):
        # ⟨α|β⟩ = exp(-|α|²/2 - |β|²/2 + conj(α)β)
        rng = np.random.default_rng(3)
        for _ in range(10):
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            got = fock.coherent_state(alpha, 60).overlap(fock.coherent_state(beta, 60))
            want = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
            assert got == pytest.approx(want, abs=1e-9)

    def test_quadrature_overlap_value(self):
        # |⟨α|iα⟩|² = e^{-8} at α = 2
        psi_a = fock.coherent_state(2.0, 64)
        psi_b = fock.coherent_state(2.0j, 64)
        assert abs(psi_a.overlap(psi_b)) ** 2 == pytest.approx(math.exp(-8.0), abs=1e-8)

    def test_truncation_warning(self):
        with pytest.warns(fock.TruncationWarning):
            psi = fock.coherent_state(3.0, 10)
        assert psi.truncation_warning
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_normalized_despite_truncation(self):
        psi = fock.coherent_state(2.0, 64)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        assert psi.leakage < 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, -math.inf),
                                       complex(1.0, math.nan)])
    def test_non_finite_alpha_is_refused_before_any_arithmetic(self, alpha):
        for build in (fock.coherent_amplitudes, fock.coherent_state):
            with pytest.raises(UsageError, match="^alpha must be finite, got "):
                build(alpha, 8)

    @pytest.mark.parametrize("alpha", [50.0, 1e308, 1e155j])
    def test_no_support_raises_before_warning(self, alpha):
        # every kept amplitude underflows to 0: no TruncationWarning, no 0/0
        assert not fock.coherent_amplitudes(alpha, 16).any()
        with pytest.raises(DegenerateInputError,
                           match="^coherent state has no support at this truncation$"):
            fock.coherent_state(alpha, 16)


class TestFidelityAndMarginals:
    def test_fidelity_self_and_orthogonal(self):
        a = fock.basis_state(4, 1)
        b = fock.basis_state(4, 2)
        assert fock.fidelity(a, a) == pytest.approx(1.0)
        assert fock.fidelity(a, b) == pytest.approx(0.0)

    def test_fidelity_global_phase_invariant(self):
        psi = fock.coherent_state(0.7 + 0.2j, 30)
        rotated = fock.StateVector(psi.shape, np.exp(1j * 1.234) * psi.amplitudes)
        assert fock.fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fock.fidelity(fock.basis_state(3, 0), fock.basis_state(4, 0))

    def test_product_state_marginals(self):
        psi = fock.tensor(fock.coherent_state(1.0, 12), fock.basis_state(3, 2))
        p0 = fock.mode_probabilities(psi, [0])
        p1 = fock.mode_probabilities(psi, [1])
        np.testing.assert_allclose(p0, fock.coherent_state(1.0, 12).probabilities(), atol=1e-12)
        np.testing.assert_allclose(p1, [0, 0, 1], atol=1e-12)

    def test_bell_like_reduced_state(self):
        shp = fock.HilbertShape((2, 2))
        amps = np.zeros(4, dtype=complex)
        amps[shp.flat_index([0, 0])] = 1 / math.sqrt(2)
        amps[shp.flat_index([1, 1])] = 1 / math.sqrt(2)
        psi = fock.StateVector(shp, amps)
        rho = fock.reduced_density_matrix(psi, [0])
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
        assert np.trace(rho) == pytest.approx(1.0)

    def test_reduced_density_matrix_psd(self):
        rng = np.random.default_rng(5)
        shp = fock.HilbertShape((3, 4))
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = fock.StateVector(shp, amps).normalized()
        rho = fock.reduced_density_matrix(psi, [1])
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)

    def test_empty_keep_rejected(self):
        psi = fock.basis_state((2, 2), [0, 0])
        with pytest.raises(UsageError):
            fock.mode_probabilities(psi, [])
        with pytest.raises(UsageError):
            fock.reduced_density_matrix(psi, [])

    def test_mean_occupation(self):
        psi = fock.coherent_state(1.5, 40)
        assert fock.mean_occupation(psi) == pytest.approx(2.25, abs=1e-9)


class TestImmutability:
    def test_state_array_frozen(self):
        psi = fock.basis_state(3, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_operator_array_frozen(self):
        op = fock.identity(3)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    def test_constructor_copies_input(self):
        raw = np.array([1.0, 0.0], dtype=complex)
        psi = fock.StateVector(fock.HilbertShape((2,)), raw)
        raw[0] = 5.0
        assert psi.amplitudes[0] == 1.0


@st.composite
def registers_and_keeps(draw):
    """A random normalized register of 1-3 subsystems of dimension 2-6, and
    keep drawn as None, one subsystem or a permuted subset."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
    psi = fock.StateVector(fock.HilbertShape(dims), amps / np.linalg.norm(amps))
    kind = draw(st.sampled_from(["all", "one", "subset"]))
    if kind == "all":
        return psi, None
    if kind == "one":
        return psi, [draw(st.integers(0, len(dims) - 1))]
    order = draw(st.permutations(range(len(dims))))
    return psi, list(order[:draw(st.integers(1, len(dims)))])


class TestMarginalsFromAmplitudes:
    """mode_probabilities against the diagonal of reduced_density_matrix,
    the general partial trace it replaced."""

    @given(registers_and_keeps())
    def test_matches_reduced_density_matrix_diagonal(self, case):
        psi, keep = case
        axes = range(psi.shape.n_subsystems) if keep is None else keep
        expected = np.real(np.diag(fock.reduced_density_matrix(psi, axes)))
        got = fock.mode_probabilities(psi, keep)
        assert got.shape == expected.shape and got.dtype == np.float64
        assert np.all(got >= 0)  # with no clamp, as the old diagonal needed
        if psi.shape.n_subsystems == 1:
            # re² + im² is what the product's diagonal computes for one mode
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_marginal_allocates_nothing_of_size_dkeep_squared(self):
        # keeping both modes of (64, 64) as one 4096 x 4096 density matrix takes 256 MiB
        psi = fock.basis_state((64, 64), [1, 2])
        tracemalloc.start()
        try:
            probs = fock.mode_probabilities(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert probs[psi.shape.flat_index([1, 2])] == 1.0 and probs.sum() == 1.0
