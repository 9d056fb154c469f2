"""Cat and binomial code states on a single truncated mode.

The cat qubit used here stores |g⟩ → |C+_α⟩ and |e⟩ → |C+_{iα}⟩, both
even-parity states, so a single photon loss flips the measured parity
while four losses map the code space back onto itself (a|±α⟩ = ±α|±α⟩
and i⁴ = 1). Overlap bookkeeping uses ⟨α|β⟩ = e^{−|α|²/2−|β|²/2+α*β}.
Cat states keep the truncation rule, leakage and warning of `fock.coherent_state`.
"""

from __future__ import annotations

import math
from typing import Literal, get_args

import numpy as np

from .errors import (DegenerateInputError, InvalidDimensionError, UsageError, finite_result,
                     require_choice, require_complex, require_count, require_instance)
from .fock import (
    StateVector,
    _truncated_state,
    coherent_amplitudes,
    mode_probabilities,
    shape_of,
)

ParitySign = Literal["+", "-"]


def parity(psi: StateVector, mode: int = 0) -> float:
    """Photon-number parity ⟨(-1)^n̂⟩ of one mode."""
    probs = mode_probabilities(psi, [mode])
    signs = (-1.0) ** np.arange(len(probs))
    return float(np.dot(signs, probs))


def cat_state(alpha: complex, sign: ParitySign, n: int) -> StateVector:
    """Normalized cat state (|α⟩ + s|−α⟩)/norm with s = ±1.

    sign "+" keeps even photon numbers, "-" keeps odd ones. The odd cat
    at α = 0 vanishes identically and is rejected.
    """
    [n] = shape_of((n,)).dims
    sign = require_choice("sign", sign, get_args(ParitySign))
    alpha = require_complex("alpha", alpha)
    s = 1.0 if sign == "+" else -1.0
    if alpha == 0 and sign == "-":
        raise DegenerateInputError("odd cat state vanishes at alpha = 0")
    raw = coherent_amplitudes(alpha, n) + s * coherent_amplitudes(-alpha, n)
    # the untruncated norm², 2(1 + s e^{-2|α|²}), is evaluated only for a state with support
    return _truncated_state("cat state", alpha, raw,
                            lambda: 2.0 * (1.0 + s * math.exp(-2 * abs(alpha) ** 2)))


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """⟨α|β⟩ in closed form; NumericError when it is not finite (|α|² or
    |β|² overflows, or an amplitude is infinite)."""
    alpha, beta = require_complex("alpha", alpha), require_complex("beta", beta)
    with np.errstate(invalid="ignore"):
        return finite_result("coherent_overlap", lambda: np.exp(
            -abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta
        ))


def cat_encode(c_g: complex, c_e: complex, alpha: complex, n: int) -> StateVector:
    """Logical state c_g|C+_α⟩ + c_e|C+_{iα}⟩, renormalized for the
    non-orthogonality of the two cat basis states.

    Requires |c_g|² + |c_e|² = 1 (the logical Bloch vector); the basis
    overlap it corrects for is set by ⟨α|iα⟩ = e^{−|α|²(1−i)}.
    """
    c_g, c_e = require_complex("c_g", c_g), require_complex("c_e", c_e)
    budget = abs(c_g) ** 2 + abs(c_e) ** 2
    if abs(budget - 1.0) > 1e-6:
        raise UsageError(f"|c_g|² + |c_e|² must be 1, got {budget:.8f}")
    alpha = require_complex("alpha", alpha)
    if alpha == 0:
        raise DegenerateInputError("cat basis states coincide at alpha = 0")
    b_g = cat_state(alpha, "+", n)
    b_e = cat_state(1j * alpha, "+", n)
    raw = c_g * b_g.amplitudes + c_e * b_e.amplitudes
    nrm = float(np.linalg.norm(raw))
    if nrm < 1e-12:
        raise DegenerateInputError("encoded state vanishes (basis overlap cancellation)")
    leak = max(b_g.leakage, b_e.leakage)
    return StateVector(b_g.shape, raw / nrm, leak)


def photon_loss_cycle_check(psi: StateVector, k: int) -> StateVector:
    """State after k single-photon losses, i.e. normalized a^k|ψ⟩.

    Each loss is the shift (aψ)[m] = √(m+1) ψ[m+1]; N of them empty any state.
    Rejects states whose support vanishes under k losses. For the cat
    encoding, k=4 returns to the even code family (i⁴ = 1) while odd k
    flips parity.
    """
    if require_instance("psi", psi, StateVector).shape.n_subsystems != 1:
        raise UsageError("loss cycle check expects a single-mode state")
    k = require_count("k", k)
    amps = psi.amplitudes.copy()
    root = np.sqrt(np.arange(1.0, len(amps)))
    for _ in range(min(k, len(amps))):
        amps[:-1], amps[-1] = amps[1:] * root, 0
    nrm = float(np.linalg.norm(amps))
    if nrm < 1e-12:
        raise DegenerateInputError(f"state has no support after {k} losses")
    return StateVector(psi.shape, amps / nrm, psi.leakage)


def binomial_codewords(n: int) -> tuple[StateVector, StateVector]:
    """Smallest binomial code protecting against one photon loss:
    |0_L⟩ = (|0⟩ + |4⟩)/√2 and |1_L⟩ = |2⟩, both with ⟨n̂⟩ = 2."""
    shp = shape_of((n,))
    if n < 5:
        raise InvalidDimensionError(f"binomial codewords need at least 5 levels, got {n}")
    zero = np.zeros(n, dtype=complex)
    zero[0] = zero[4] = 1 / math.sqrt(2)
    one = np.zeros(n, dtype=complex)
    one[2] = 1.0
    return StateVector(shp, zero), StateVector(shp, one)
