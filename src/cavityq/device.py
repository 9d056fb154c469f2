"""Dispersive qubit-cavity device parameters and design estimators.

All frequencies are plain (cyclic) Hz and all times are seconds; the
estimators return numbers in the same units. Sign conventions follow
the usual dispersive picture: detuning Δ = ω_q − ω_c, per-photon qubit
pull χ = g²/Δ, so the n-photon qubit frequency is ω_q − nχ at first
order and ω_q − (χn + χ'n²/2) with the second-order correction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import (DegenerateDetuningError, ParseError, UsageError, is_json_number,
                     is_real, read_object)

_FIELDS = (
    "omega_q_hz",
    "omega_c_hz",
    "g_hz",
    "chi_prime_hz",
    "alpha_hz",
    "t1_fock0_s",
    "t1_min_s",
)


@dataclass(frozen=True)
class DeviceParams:
    """Static parameters of one qubit-cavity pair.

    t1_fock0_s is the single-photon (|1⟩) cavity lifetime that anchors
    the 1/n scaling; t1_min_s is the shortest usable Fock lifetime.
    chi_prime_hz is the second-order dispersive shift, a free parameter
    here rather than a derived one. alpha_hz is the transmon anharmonicity.
    """

    omega_q_hz: float
    omega_c_hz: float
    g_hz: float
    chi_prime_hz: float
    alpha_hz: float
    t1_fock0_s: float
    t1_min_s: float

    def __post_init__(self) -> None:
        for name in _FIELDS:
            value = getattr(self, name)
            if not is_real(value):
                raise UsageError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.g_hz <= 0:
            raise UsageError(f"g_hz must be positive, got {self.g_hz}")
        if self.omega_q_hz == self.omega_c_hz:
            raise UsageError("omega_q_hz equal to omega_c_hz leaves no dispersive regime")
        if self.t1_fock0_s <= 0:
            raise UsageError(f"t1_fock0_s must be positive, got {self.t1_fock0_s}")
        if self.t1_min_s <= 0:
            raise UsageError(f"t1_min_s must be positive, got {self.t1_min_s}")

    @property
    def detuning_hz(self) -> float:
        return self.omega_q_hz - self.omega_c_hz

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeviceParams":
        raw = read_object(text, "device params", _FIELDS)
        vals = {}
        for f in _FIELDS:
            if not is_json_number(raw[f]):
                raise ParseError(f"device field {f} must be a number, got {raw[f]!r}")
            vals[f] = float(raw[f])
        try:
            return cls(**vals)
        except UsageError as exc:
            raise ParseError(f"device JSON invalid: {exc}") from exc


def chi(params: DeviceParams) -> float:
    """Dispersive shift g²/Δ in Hz."""
    delta = params.detuning_hz
    if delta == 0:
        raise DegenerateDetuningError("chi undefined at zero detuning")
    return params.g_hz**2 / delta


def stark_shifted_freq(params: DeviceParams, n: int, order: int = 1) -> float:
    """Qubit frequency with n photons in the cavity.

    order=1 gives ω_q − nχ; order=2 adds the quadratic pull,
    ω_q − (χn + χ'n²/2).
    """
    if n < 0:
        raise UsageError(f"photon number must be >= 0, got {n}")
    x = chi(params)
    if order == 1:
        return params.omega_q_hz - n * x
    if order == 2:
        return params.omega_q_hz - (x * n + params.chi_prime_hz * n * n / 2)
    raise UsageError(f"order must be 1 or 2, got {order}")


def critical_photon_number(params: DeviceParams) -> float:
    """(Δ/2g)², the photon number where the dispersive expansion folds."""
    return (params.detuning_hz / (2 * params.g_hz)) ** 2


def fock_t1(params: DeviceParams, n: int) -> float:
    """Lifetime of Fock level |n⟩ under single-photon loss, t1_fock0/n.

    |0⟩ does not decay; math.inf is the explicit stable marker.
    """
    if n < 0:
        raise UsageError(f"Fock index must be >= 0, got {n}")
    if n == 0:
        return math.inf
    return params.t1_fock0_s / n


def _tolerant_floor(x: float, rel: float = 1e-9) -> int:
    # exact ratios can land a hair under an integer in binary floats
    nearest = round(x)
    if abs(x - nearest) <= rel * max(1.0, abs(x)):
        return int(nearest)
    return math.floor(x)


def max_fock(params: DeviceParams) -> int:
    """Largest n whose lifetime t1_fock0/n still clears t1_min."""
    if params.t1_min_s > params.t1_fock0_s:
        warnings.warn(
            "t1_min_s exceeds the single-photon lifetime; no Fock level qualifies",
            UserWarning,
            stacklevel=2,
        )
        return 0
    return _tolerant_floor(params.t1_fock0_s / params.t1_min_s)


def snap_min_gate_time(params: DeviceParams) -> float:
    """Number-selectivity bound on SNAP duration, 2π/|χ| in seconds."""
    x = chi(params)
    if x == 0:
        raise DegenerateDetuningError("snap gate time undefined at zero chi")
    return 2 * math.pi / abs(x)


def multimode_drive_freq(
    params: DeviceParams, occupations_and_shifts: Sequence[tuple[int, float]]
) -> float:
    """Drive frequency selecting a joint occupation across several modes,
    ω_q − Σ_k n_k χ_k. Each entry is (n_k, chi_k_hz)."""
    total = 0.0
    for n_k, chi_k in occupations_and_shifts:
        if n_k < 0:
            raise UsageError(f"occupation must be >= 0, got {n_k}")
        total += n_k * chi_k
    return params.omega_q_hz - total


def dephasing_rate(dispersion: float, spectral_density_dc: float, k: float = 1.0) -> float:
    """Pure-dephasing rate k·|∂E01/∂λ|²·S_λ(ω→0).

    `dispersion` is the level-splitting sensitivity ∂E01/∂λ and
    `spectral_density_dc` the noise power of λ at zero frequency. The
    proportionality constant k is exposed explicitly rather than baked in.
    """
    if spectral_density_dc < 0:
        raise UsageError("spectral density must be >= 0")
    return k * dispersion**2 * spectral_density_dc


def relaxation_rate(matrix_element: float, spectral_density_at_e01: float, k: float = 1.0) -> float:
    """Relaxation rate k·|⟨0|Ô|1⟩|²·S(E01/ħ), constant k exposed."""
    if spectral_density_at_e01 < 0:
        raise UsageError("spectral density must be >= 0")
    return k * abs(matrix_element) ** 2 * spectral_density_at_e01


def device_summary(params: DeviceParams) -> dict:
    """The derived quantities a device designer reads off first."""
    return {
        "chi_hz": chi(params),
        "critical_photon_number": critical_photon_number(params),
        "max_fock": max_fock(params),
        "snap_min_gate_time_s": snap_min_gate_time(params),
    }
