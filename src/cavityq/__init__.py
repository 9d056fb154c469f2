"""cavityq: simulation toolkit for qudits encoded in cavity Fock levels.

Dense truncated-Fock-space engine, dispersive-device estimators, the
SNAP/displacement gate vocabulary, bosonic-code noise tools, pulse-level
optimal control, single-photon state transfer, and a qudit Hamiltonian
Trotterization demo, behind one deterministic CLI.

`import cavityq` loads neither numpy nor any submodule: a submodule, or a
`fock` name listed in `__all__`, is imported on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "codes", "device", "errors", "fock", "gates", "noise", "pulse",
               "qst", "trotter")
_FOCK_NAMES = ("HilbertShape", "Operator", "StateVector", "annihilation", "basis_state",
               "coherent_state", "creation", "fidelity", "identity", "mean_occupation",
               "mode_probabilities", "number_operator", "propagator",
               "reduced_density_matrix", "tensor")

__all__ = [*(m for m in _SUBMODULES if m != "fock"), *_FOCK_NAMES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _FOCK_NAMES:
        return getattr(importlib.import_module(f"{__name__}.fock"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
