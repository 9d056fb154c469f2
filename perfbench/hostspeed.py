"""The host's speed, read from a fixed reference kernel timed between jobs.

The reference host is shared: neighbours on the same cores slow every
process on it by up to 2x, in stretches of a few seconds to a minute, and
that slowdown does not show as stolen time inside the machine. `probe`
times a kernel that never changes (numpy and plain Python only, none of the
package's code) and that does the same kinds of work as the jobs: small
Hermitian eigendecompositions, dense complex products and interpreter-bound
formatting. `ref_seconds` turns a job's wall time into seconds at the
reference speed, using the probes taken just before and just after it.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time (s) on the reference machine when its host is quiet
PROBE_REF_S = 0.010

_RNG = np.random.default_rng(20220418)
_A = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_H = _A + _A.conj().T
_M = (_RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))) / 10
_X = _RNG.standard_normal(4000)


def _kernel() -> float:
    acc = 0.0
    for _ in range(100):  # per-segment propagators
        w, v = np.linalg.eigh(_H)
        acc += ((v * np.exp(-1j * w)) @ v.conj().T)[0, 0].real
    m = _M
    for _ in range(20):  # dense steps at the Trotter sizes
        m = m @ _M
        m /= np.abs(m).max()
    text = ",".join(f"{x:.10g}" for x in _X)  # artifact formatting
    total = 0.0
    for x in _X:  # interpreter-bound loops
        total += x * x / (1.0 + abs(x))
    return acc + m[0, 0].real + len(text) + total


def probe() -> float:
    """Wall time (s) of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def warm() -> None:
    """Run the kernel until its first-call costs are paid."""
    for _ in range(5):
        _kernel()


def ref_seconds(wall_s: float, probe_before: float, probe_after: float) -> float:
    """`wall_s` at the reference speed: scaled by how much slower than the
    reference the probes on either side of it ran."""
    return wall_s * PROBE_REF_S / (0.5 * (probe_before + probe_after))
