"""Cat and binomial code states on a single truncated mode.

The cat qubit used here stores |g⟩ → |C+_α⟩ and |e⟩ → |C+_{iα}⟩, both
even-parity states, so a single photon loss flips the measured parity
while four losses map the code space back onto itself (a|±α⟩ = ±α|±α⟩
and i⁴ = 1). Overlap bookkeeping uses ⟨α|β⟩ = e^{−|α|²/2−|β|²/2+α*β}.
"""

from __future__ import annotations

import math
import warnings
from typing import Literal

import numpy as np

from .errors import (DegenerateInputError, InvalidDimensionError, UsageError, require_complex,
                     require_count)
from .fock import (
    StateVector,
    TruncationWarning,
    TRUNCATION_TOL,
    annihilation,
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
    shape = shape_of((n,))
    if sign not in ("+", "-"):
        raise UsageError(f"sign must be '+' or '-', got {sign!r}")
    alpha = require_complex("alpha", alpha)
    s = 1.0 if sign == "+" else -1.0
    if alpha == 0 and sign == "-":
        raise DegenerateInputError("odd cat state vanishes at alpha = 0")
    raw = coherent_amplitudes(alpha, n) + s * coherent_amplitudes(-alpha, n)
    captured = float(np.sum(np.abs(raw) ** 2))
    full = 2.0 * (1.0 + s * math.exp(-2 * abs(alpha) ** 2))
    leakage = max(0.0, 1.0 - captured / full)
    if captured <= 0:
        raise DegenerateInputError("cat state has no support at this truncation")
    if leakage > TRUNCATION_TOL:
        warnings.warn(
            f"cat state |α|={abs(alpha):.3g} keeps only {captured / full:.6f} of its "
            f"weight at truncation {n}",
            TruncationWarning,
            stacklevel=2,
        )
    return StateVector(shape, raw / math.sqrt(captured), leakage)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """⟨α|β⟩ in closed form."""
    alpha, beta = require_complex("alpha", alpha), require_complex("beta", beta)
    return np.exp(
        -abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta
    )


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

    Rejects states whose support vanishes under k losses. For the cat
    encoding, k=4 returns to the even code family (i⁴ = 1) while odd k
    flips parity.
    """
    if psi.shape.n_subsystems != 1:
        raise UsageError("loss cycle check expects a single-mode state")
    require_count("k", k)
    a = annihilation(psi.shape.total_dim).matrix
    amps = psi.amplitudes.copy()
    for _ in range(k):
        amps = a @ amps
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
