"""The dense reference for circuits.

`dense_unitary` promotes each gate's public constructor to the full
register with `gates.embed` and multiplies the results in order. It
shares no code with the compiled kernels that `apply_circuit` and
`circuit_unitary` run, so tests of those kernels compare against it.
"""

import numpy as np

from cavityq import gates


def dense_unitary(circuit: gates.Circuit) -> np.ndarray:
    """The circuit's full-register unitary (first gate acts first), as the
    product of embedded dense gates."""
    total = np.eye(circuit.shape.total_dim, dtype=complex)
    for spec in circuit.gates:
        op, targets = spec.build(circuit.shape, circuit.displacement_convention)
        total = gates.embed(op, targets, circuit.shape).matrix @ total
    return total
