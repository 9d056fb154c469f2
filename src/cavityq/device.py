"""Dispersive qubit-cavity device parameters and design estimators.

All frequencies are plain (cyclic) Hz and all times are seconds; the
estimators return numbers in the same units. Sign conventions follow
the usual dispersive picture: detuning Δ = ω_q − ω_c, per-photon qubit
pull χ = g²/Δ, so the n-photon qubit frequency is ω_q − nχ at first
order and ω_q − (χn + χ'n²/2) with the second-order correction. A derived
value that overflows or is not finite raises NumericError naming it.
"""

from __future__ import annotations

import json
import math
from typing import Literal, Sequence, get_args

from .errors import (DegenerateDetuningError, UsageError, finite_result, parse_errors,
                     read_fields, require_choice, require_complex, require_count,
                     require_finite, require_instance, require_nonnegative, require_positive,
                     require_real, require_sequence)

_FIELDS = (
    "omega_q_hz",
    "omega_c_hz",
    "g_hz",
    "chi_prime_hz",
    "alpha_hz",
    "t1_fock0_s",
    "t1_min_s",
)
StarkOrder = Literal[1, 2]  # the dispersive expansion orders of stark_shifted_freq


class DeviceParams:
    """Static parameters of one qubit-cavity pair, immutable and compared,
    hashed, printed and serialized by their seven fields.

    t1_fock0_s is the single-photon (|1⟩) cavity lifetime that anchors
    the 1/n scaling; t1_min_s is the shortest usable Fock lifetime.
    chi_prime_hz is the second-order dispersive shift, a free parameter
    here rather than a derived one. alpha_hz is the transmon anharmonicity.
    It is a plain class, not a frozen dataclass, because `dataclasses`
    imports `inspect`, 6–9 ms of every `cavityq device` call's start-up.
    """

    __match_args__ = _FIELDS

    def __init__(self, omega_q_hz: float, omega_c_hz: float, g_hz: float, chi_prime_hz: float,
                 alpha_hz: float, t1_fock0_s: float, t1_min_s: float) -> None:
        given = locals()
        for name in _FIELDS:
            value = require_finite(name, given[name])
            if name in ("g_hz", "t1_fock0_s", "t1_min_s"):
                value = require_positive(name, value)
            self.__dict__[name] = value
        if self.omega_q_hz == self.omega_c_hz:
            raise UsageError("omega_q_hz equal to omega_c_hz leaves no dispersive regime")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    @property
    def detuning_hz(self) -> float:
        return self.omega_q_hz - self.omega_c_hz

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeviceParams":
        fields = read_fields(text, "", dict.fromkeys(_FIELDS, object))
        with parse_errors(""):
            return cls(**fields)


def chi(params: DeviceParams) -> float:
    """Dispersive shift g²/Δ in Hz."""
    delta = require_instance("params", params, DeviceParams).detuning_hz
    if delta == 0:
        raise DegenerateDetuningError("chi undefined at zero detuning")
    return finite_result("chi_hz", lambda: params.g_hz**2 / delta)


def stark_shifted_freq(params: DeviceParams, n: int, order: StarkOrder = 1) -> float:
    """Qubit frequency with n photons in the cavity.

    order=1 gives ω_q − nχ; order=2 adds the quadratic pull,
    ω_q − (χn + χ'n²/2).
    """
    n = require_count("n", n)
    order = require_choice("order", order, get_args(StarkOrder))
    x = chi(params)
    if order == 1:
        return params.omega_q_hz - n * x
    return params.omega_q_hz - (x * n + params.chi_prime_hz * n * n / 2)


def critical_photon_number(params: DeviceParams) -> float:
    """(Δ/2g)², the photon number where the dispersive expansion folds."""
    delta, g = require_instance("params", params, DeviceParams).detuning_hz, params.g_hz
    return finite_result("critical_photon_number", lambda: (delta / (2 * g)) ** 2)


def fock_t1(params: DeviceParams, n: int) -> float:
    """Lifetime of Fock level |n⟩ under single-photon loss, t1_fock0/n.

    |0⟩ does not decay; math.inf is the explicit stable marker.
    """
    t1 = require_instance("params", params, DeviceParams).t1_fock0_s
    n = require_count("n", n)
    return math.inf if n == 0 else t1 / n


def _tolerant_floor(x: float, rel: float = 1e-9) -> int:
    # exact ratios can land a hair under an integer in binary floats
    nearest = round(x)
    if abs(x - nearest) <= rel * max(1.0, abs(x)):
        return int(nearest)
    return math.floor(x)


def max_fock(params: DeviceParams) -> int:
    """Largest n whose lifetime t1_fock0/n still clears t1_min: 0 when
    t1_min_s exceeds the single-photon lifetime."""
    # not the floor of the ratio: _tolerant_floor rounds one within 1e-9 below 1 up to 1
    if require_instance("params", params, DeviceParams).t1_min_s > params.t1_fock0_s:
        return 0
    return _tolerant_floor(finite_result("t1_fock0_s / t1_min_s",
                                   lambda: params.t1_fock0_s / params.t1_min_s))


def snap_min_gate_time(params: DeviceParams) -> float:
    """Number-selectivity bound on SNAP duration, 2π/|χ| in seconds."""
    x = chi(params)
    if x == 0:
        raise DegenerateDetuningError("snap gate time undefined at zero chi")
    return finite_result("snap_min_gate_time_s", lambda: 2 * math.pi / abs(x))


def multimode_drive_freq(
    params: DeviceParams, occupations_and_shifts: Sequence[tuple[int, float]]
) -> float:
    """Drive frequency selecting a joint occupation across several modes,
    ω_q − Σ_k n_k χ_k. Each entry is an (n_k, chi_k_hz) pair; anything
    else is a UsageError."""
    require_instance("params", params, DeviceParams)
    entries = require_sequence("occupations_and_shifts", occupations_and_shifts)
    try:
        pairs = [(require_count("occupation", n_k), require_real("chi_k_hz", chi_k))
                 for n_k, chi_k in entries]
    except (TypeError, ValueError):  # an entry that is not a pair
        raise UsageError("occupations_and_shifts must be a sequence of (n_k, chi_k_hz) "
                         f"pairs, got {occupations_and_shifts!r}") from None
    return finite_result("the multimode drive frequency",
                   lambda: params.omega_q_hz - sum(n_k * chi_k for n_k, chi_k in pairs))


def dephasing_rate(dispersion: float, spectral_density_dc: float, k: float = 1.0) -> float:
    """Pure-dephasing rate k·|∂E01/∂λ|²·S_λ(ω→0).

    `dispersion` is the level-splitting sensitivity ∂E01/∂λ and
    `spectral_density_dc` the noise power of λ at zero frequency. The
    proportionality constant k is exposed explicitly rather than baked in.
    """
    dispersion, k = require_real("dispersion", dispersion), require_real("k", k)
    density = require_nonnegative("spectral_density_dc", spectral_density_dc)
    return finite_result("dephasing_rate", lambda: k * dispersion**2 * density)


def relaxation_rate(matrix_element: float, spectral_density_at_e01: float, k: float = 1.0) -> float:
    """Relaxation rate k·|⟨0|Ô|1⟩|²·S(E01/ħ), constant k exposed."""
    matrix_element, k = require_complex("matrix_element", matrix_element), require_real("k", k)
    density = require_nonnegative("spectral_density_at_e01", spectral_density_at_e01)
    return finite_result("relaxation_rate", lambda: k * abs(matrix_element) ** 2 * density)


def device_summary(params: DeviceParams) -> dict:
    """The derived quantities a device designer reads off first."""
    return {
        "chi_hz": chi(params),
        "critical_photon_number": critical_photon_number(params),
        "max_fock": max_fock(params),
        "snap_min_gate_time_s": snap_min_gate_time(params),
    }
