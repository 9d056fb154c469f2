import cmath
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavityq import codes, fock
from cavityq.errors import DegenerateInputError, InvalidDimensionError, UsageError


class TestParity:
    def test_fock_states(self):
        assert codes.parity(fock.basis_state(10, 0)) == pytest.approx(1.0)
        assert codes.parity(fock.basis_state(10, 3)) == pytest.approx(-1.0)

    def test_coherent_closed_form(self):
        # ⟨(-1)^n⟩ over a Poisson distribution is e^{-2|α|²}
        for alpha in (0.5, 1.0, 1.5):
            psi = fock.coherent_state(alpha, 50)
            assert codes.parity(psi) == pytest.approx(math.exp(-2 * alpha**2), abs=1e-9)

    def test_multimode_selects_mode(self):
        psi = fock.tensor(fock.basis_state(4, 1), fock.basis_state(4, 2))
        assert codes.parity(psi, mode=0) == pytest.approx(-1.0)
        assert codes.parity(psi, mode=1) == pytest.approx(1.0)


class TestCatState:
    def test_even_cat_support(self):
        psi = codes.cat_state(2.0, "+", 40)
        probs = psi.probabilities()
        assert np.all(probs[1::2] < 1e-20)
        assert codes.parity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_odd_cat_support(self):
        psi = codes.cat_state(2.0, "-", 40)
        probs = psi.probabilities()
        assert np.all(probs[0::2] < 1e-20)
        assert codes.parity(psi) == pytest.approx(-1.0, abs=1e-12)

    def test_normalized(self):
        for alpha in (0.3, 2.0, 1.5j, 2.0 - 1.0j):
            psi = codes.cat_state(alpha, "+", 60)
            assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_even_is_vacuum(self):
        psi = codes.cat_state(0.0, "+", 10)
        assert fock.fidelity(psi, fock.basis_state(10, 0)) == pytest.approx(1.0)

    def test_alpha_zero_odd_rejected(self):
        with pytest.raises(DegenerateInputError):
            codes.cat_state(0.0, "-", 10)

    def test_projected_coherent_oracle(self):
        # the even cat equals the coherent state with odd levels removed
        alpha = 1.7
        psi = codes.cat_state(alpha, "+", 40)
        ref = fock.coherent_state(alpha, 40).amplitudes.copy()
        ref[1::2] = 0.0
        ref /= np.linalg.norm(ref)
        assert abs(np.vdot(ref, psi.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_small_alpha_overlap_with_vacuum(self):
        # even cats tend to vacuum as α → 0
        psi = codes.cat_state(0.05, "+", 20)
        assert fock.fidelity(psi, fock.basis_state(20, 0)) == pytest.approx(1.0, abs=1e-4)


class TestCatEncode:
    def test_basis_overlap_value(self):
        # |⟨α|iα⟩| = e^{-|α|²} -> e^{-4} at α = 2
        got = codes.coherent_overlap(2.0, 2.0j)
        assert abs(got) == pytest.approx(math.exp(-4.0), rel=1e-12)
        # and the truncated states agree with the closed form
        a = fock.coherent_state(2.0, 64)
        b = fock.coherent_state(2.0j, 64)
        assert a.overlap(b) == pytest.approx(complex(got), abs=1e-10)

    def test_cat_basis_overlap_closed_form(self):
        alpha = 2.0
        n = 64
        got = codes.cat_state(alpha, "+", n).overlap(codes.cat_state(1j * alpha, "+", n))
        # independent oracle assembled from four coherent overlaps
        terms = (
            codes.coherent_overlap(alpha, 1j * alpha)
            + codes.coherent_overlap(alpha, -1j * alpha)
            + codes.coherent_overlap(-alpha, 1j * alpha)
            + codes.coherent_overlap(-alpha, -1j * alpha)
        )
        norm = 2 * (1 + math.exp(-2 * alpha**2))
        assert got == pytest.approx(complex(terms / norm), abs=1e-10)

    def test_poles_are_cat_states(self):
        psi = codes.cat_encode(1.0, 0.0, 2.0, 50)
        assert fock.fidelity(psi, codes.cat_state(2.0, "+", 50)) == pytest.approx(1.0, abs=1e-12)
        psi = codes.cat_encode(0.0, 1.0, 2.0, 50)
        assert fock.fidelity(psi, codes.cat_state(2.0j, "+", 50)) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_despite_overlap(self):
        psi = codes.cat_encode(1 / math.sqrt(2), 1 / math.sqrt(2), 1.2, 40)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_bloch_vector_rejected(self):
        with pytest.raises(UsageError):
            codes.cat_encode(1.0, 1.0, 2.0, 40)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            codes.cat_encode(1.0, 0.0, 0.0, 40)

    def test_even_parity(self):
        psi = codes.cat_encode(0.6, 0.8j, 2.0, 60)
        assert codes.parity(psi) == pytest.approx(1.0, abs=1e-12)


class TestLossCycle:
    def encode(self, n=40):
        return codes.cat_encode(0.6, 0.8, 2.0, n)

    def test_single_loss_flips_parity(self):
        psi = self.encode()
        before = codes.parity(psi)
        after = codes.parity(codes.photon_loss_cycle_check(psi, 1))
        assert before == pytest.approx(1.0, abs=1e-10)
        assert after == pytest.approx(-1.0, abs=1e-10)
        assert abs(before - after) > 1.9

    def test_parity_alternates_per_loss(self):
        psi = self.encode()
        for k in range(5):
            p = codes.parity(codes.photon_loss_cycle_check(psi, k))
            assert p == pytest.approx((-1.0) ** k, abs=1e-9)

    def test_four_losses_return_to_family(self):
        psi = self.encode()
        cycled = codes.photon_loss_cycle_check(psi, 4)
        assert fock.fidelity(cycled, psi) > 1 - 1e-6

    def test_vacuum_has_no_support(self):
        with pytest.raises(DegenerateInputError):
            codes.photon_loss_cycle_check(fock.basis_state(10, 0), 1)

    def test_zero_losses_identity(self):
        psi = self.encode()
        assert fock.fidelity(codes.photon_loss_cycle_check(psi, 0), psi) == pytest.approx(1.0)


class TestBinomial:
    def test_codewords(self):
        zero, one = codes.binomial_codewords(8)
        np.testing.assert_allclose(
            zero.amplitudes[:5], [1 / math.sqrt(2), 0, 0, 0, 1 / math.sqrt(2)], atol=1e-15
        )
        assert abs(one.amplitudes[2]) == pytest.approx(1.0)

    def test_equal_mean_occupation(self):
        zero, one = codes.binomial_codewords(8)
        assert fock.mean_occupation(zero) == pytest.approx(2.0, abs=1e-12)
        assert fock.mean_occupation(one) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal(self):
        zero, one = codes.binomial_codewords(8)
        assert abs(zero.overlap(one)) < 1e-15

    def test_loss_keeps_distinguishability(self):
        # one loss maps the words to |3⟩ and |1⟩: still orthogonal
        zero, one = codes.binomial_codewords(8)
        z1 = codes.photon_loss_cycle_check(zero, 1)
        o1 = codes.photon_loss_cycle_check(one, 1)
        assert abs(z1.overlap(o1)) < 1e-12
        assert fock.fidelity(z1, fock.basis_state(8, 3)) == pytest.approx(1.0, abs=1e-12)
        assert fock.fidelity(o1, fock.basis_state(8, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_too_small_dimension(self):
        with pytest.raises(InvalidDimensionError):
            codes.binomial_codewords(4)


@pytest.mark.parametrize("alpha", [1e308, 1e155j, complex(-1e200, 1e200)])
def test_huge_alpha_has_no_support_at_any_truncation(alpha):
    # |α|² would overflow; every amplitude e^{-|α|²/2} α^k/√(k!) underflows to 0
    amps = fock.coherent_amplitudes(alpha, 20)
    assert amps.dtype == np.complex128 and not amps.any()
    with pytest.raises(DegenerateInputError, match="no support at this truncation"):
        codes.cat_state(alpha, "+", 20)


def test_largest_alpha_below_the_cut_underflows_quietly():
    # 1e154² is finite, so the log-space formula runs; its amplitudes underflow to 0 too
    assert not fock.coherent_amplitudes(1e154, 20).any()


@pytest.mark.parametrize("what, sign", [("coherent state", None), ("cat state", "+"),
                                        ("cat state", "-")])
@given(mag=st.floats(0.05, 6.0), phase=st.floats(-math.pi, math.pi), n=st.integers(2, 16))
def test_truncation_leakage_and_warning(what, sign, mag, phase, n):
    alpha = cmath.rect(mag, phase)
    raw = fock.coherent_amplitudes(alpha, n)
    if sign is None:
        full = 1.0
    else:
        s = 1.0 if sign == "+" else -1.0
        raw = raw + s * fock.coherent_amplitudes(-alpha, n)
        full = 2.0 * (1.0 + s * math.exp(-2 * abs(alpha) ** 2))
    captured = float(np.sum(np.abs(raw) ** 2))
    leakage = max(0.0, 1.0 - captured / full)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        psi = fock.coherent_state(alpha, n) if sign is None else codes.cat_state(alpha, sign, n)
    assert psi.leakage == leakage
    assert np.array_equal(psi.amplitudes, raw / math.sqrt(captured))
    if leakage <= 1e-6:
        assert caught == []
        return
    # one warning, attributed to this caller of the public constructor
    [warning] = caught
    assert warning.category is fock.TruncationWarning
    assert warning.filename == __file__
    assert str(warning.message) == (f"{what} |α|={abs(alpha):.3g} keeps only {captured / full:.6f} "
                                    f"of its weight at truncation {n}")


@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_loss_cycle_matches_dense_annihilation_products(n, seed):
    # the dense a^k|ψ⟩ the shift replaced, as the oracle, up to two losses past N
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = fock.StateVector(fock.HilbertShape((n,)), amps / np.linalg.norm(amps))
    a = fock.annihilation(n).matrix
    expected = psi.amplitudes.copy()
    for k in range(n + 3):
        norm = float(np.linalg.norm(expected))
        if norm < 1e-12:
            with pytest.raises(DegenerateInputError, match=f"after {k} losses"):
                codes.photon_loss_cycle_check(psi, k)
        else:
            cycled = codes.photon_loss_cycle_check(psi, k)
            assert np.array_equal(cycled.amplitudes, expected / norm)
            assert cycled.leakage == psi.leakage
        expected = a @ expected


def _timed_out(signum, frame):
    raise TimeoutError("loss cycle still running after 2 s")


def test_loss_cycle_of_a_huge_count_stops_after_n_losses():
    # 10⁹ losses, one at a time, would run for minutes: a timer fails the test instead
    psi = codes.cat_state(2.0, "+", 20)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(DegenerateInputError, match="no support after 1000000000 losses"):
            codes.photon_loss_cycle_check(psi, 10**9)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
