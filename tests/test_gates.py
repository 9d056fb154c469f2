import contextlib
import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cavityq import fock, gates
from cavityq.errors import NumericError, ParseError, ShapeError, UsageError
from dense_oracle import dense_unitary


def random_state(shape, rng):
    shp = fock.shape_of(shape)
    amps = rng.normal(size=shp.total_dim) + 1j * rng.normal(size=shp.total_dim)
    return fock.StateVector(shp, amps).normalized()


class TestSnap:
    def test_diagonal_phases(self):
        theta = [0.0, 0.5, -1.2, math.pi]
        s = gates.snap(theta).matrix
        np.testing.assert_allclose(np.diag(s), np.exp(1j * np.array(theta)), atol=1e-15)
        assert np.count_nonzero(s - np.diag(np.diag(s))) == 0

    def test_zero_phases_identity(self):
        np.testing.assert_allclose(gates.snap([0.0] * 5).matrix, np.eye(5), atol=1e-15)

    def test_composition_adds_phases(self):
        rng = np.random.default_rng(0)
        t1, t2 = rng.uniform(-3, 3, size=(2, 6))
        prod = gates.snap(t1) @ gates.snap(t2)
        np.testing.assert_allclose(prod.matrix, gates.snap(t1 + t2).matrix, atol=1e-14)

    def test_embedded_acts_only_on_target(self):
        shp = fock.HilbertShape((3, 4))
        theta = [0.3, -0.7, 1.1, 0.2]
        op = gates.multiqudit_snap(1, theta, shp)
        psi = fock.basis_state(shp, [2, 3])
        out = op.apply(psi)
        expected = np.exp(1j * 0.2)
        assert out.amplitudes[shp.flat_index([2, 3])] == pytest.approx(expected)

    def test_multisnap_joint_phase(self):
        shp = fock.HilbertShape((2, 3))
        theta = np.arange(6, dtype=float) / 10
        op = gates.multisnap(theta, (2, 3))
        psi = fock.basis_state(shp, [1, 2])
        out = gates.apply_embedded(op, [0, 1], psi)
        assert out.amplitudes[5] == pytest.approx(np.exp(1j * 0.5))


class TestDisplacement:
    def test_exactly_unitary(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            alpha = complex(rng.normal(), rng.normal())
            n = int(rng.integers(4, 33))
            assert gates.displacement(alpha, n).is_unitary(tol=1e-12)

    def test_moves_vacuum_to_coherent(self):
        alpha = 1.3 - 0.4j
        n = 40
        psi = gates.displacement(alpha, n).apply(fock.basis_state(n, 0))
        assert fock.fidelity(psi, fock.coherent_state(alpha, n)) == pytest.approx(1.0, abs=1e-10)

    def test_inverse_on_interior(self):
        alpha = 0.9 + 0.5j
        n = 30
        interior = n - math.ceil(abs(alpha) ** 2 + 5 * abs(alpha))
        u = gates.displacement(alpha, n).matrix @ gates.displacement(-alpha, n).matrix
        block = u[:interior, :interior]
        np.testing.assert_allclose(block, np.eye(interior), atol=1e-10)

    def test_paper_convention_is_negated(self):
        alpha = 0.7 + 0.2j
        std = gates.displacement(-alpha, 20).matrix
        paper = gates.displacement(alpha, 20, convention="paper").matrix
        np.testing.assert_allclose(std, paper, atol=1e-14)

    def test_unknown_convention(self):
        with pytest.raises(UsageError):
            gates.displacement(1.0, 10, convention="left-handed")


class TestQubitGates:
    def test_rotation_pi_is_x_like(self):
        r = gates.qubit_rotation(math.pi, 0.0).matrix
        np.testing.assert_allclose(r, -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_rotation_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = gates.qubit_rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert r.is_unitary(tol=1e-12)

    def test_cond_rotation_selective_flip(self):
        # qubit flips only in the |1⟩ photon branch
        n_mode = 4
        op = gates.cond_rotation(1, math.pi, 0.0, n_mode)
        shp = op.shape
        plus = (
            fock.basis_state(shp, [0, 0]).amplitudes
            + fock.basis_state(shp, [0, 1]).amplitudes
        ) / math.sqrt(2)
        out = op.apply(fock.StateVector(shp, plus))
        expected = np.zeros(2 * n_mode, dtype=complex)
        expected[shp.flat_index([0, 0])] = 1 / math.sqrt(2)
        expected[shp.flat_index([1, 1])] = -1j / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_cond_rotation_identity_elsewhere(self):
        op = gates.cond_rotation(2, 1.1, 0.4, 5)
        psi = fock.basis_state(op.shape, [0, 3])
        out = op.apply(psi)
        assert fock.fidelity(out, psi) == pytest.approx(1.0, abs=1e-14)

    def test_cond_rotation_bad_level(self):
        with pytest.raises(UsageError):
            gates.cond_rotation(5, 1.0, 0.0, 5)


class TestControlledIncrement:
    def test_permutation_action(self):
        n = 4
        op = gates.controlled_increment(n)
        for i in range(n):
            for j in range(n):
                psi = fock.basis_state(op.shape, [i, j])
                out = op.apply(psi)
                expect = fock.basis_state(op.shape, [i, (j + i) % n])
                assert fock.fidelity(out, expect) == pytest.approx(1.0)

    def test_control_zero_is_identity(self):
        n = 5
        op = gates.controlled_increment(n).matrix
        block = op[:n, :n]
        np.testing.assert_allclose(block, np.eye(n), atol=1e-15)

    def test_adjoint_decrements(self):
        n = 3
        op = gates.controlled_increment(n).dagger()
        psi = fock.basis_state((n, n), [1, 0])
        out = op.apply(psi)
        expect = fock.basis_state((n, n), [1, (0 - 1) % n])
        assert fock.fidelity(out, expect) == pytest.approx(1.0)

    def test_order_n_cyclic(self):
        n = 4
        op = gates.controlled_increment(n)
        total = fock.identity((n, n))
        for _ in range(n):
            total = op @ total
        np.testing.assert_allclose(total.matrix, np.eye(n * n), atol=1e-12)


class TestGivensAndPhaseSwap:
    def test_givens_full_transfer_at_pi_over_2(self):
        g = gates.givens(0, 15, math.pi / 2, 16)
        out = g.apply(fock.basis_state(16, 0))
        expect = fock.basis_state(16, 15)
        assert fock.fidelity(out, expect) == pytest.approx(1.0, abs=1e-14)

    def test_givens_half_superposition_at_pi_over_4(self):
        g = gates.givens(0, 15, math.pi / 4, 16)
        out = g.apply(fock.basis_state(16, 0)).amplitudes
        assert out[0] == pytest.approx(1 / math.sqrt(2))
        assert out[15] == pytest.approx(1 / math.sqrt(2))

    def test_givens_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            dim = int(rng.integers(3, 20))
            m, n = rng.choice(dim, size=2, replace=False)
            g = gates.givens(int(m), int(n), rng.uniform(0, 2 * math.pi), dim)
            assert g.is_unitary(tol=1e-12)
            np.testing.assert_allclose(g.matrix.imag, 0.0, atol=1e-15)

    def test_phase_swap_moves_phases(self):
        # (|0⟩ + e^{-iφ}|1⟩ + |2⟩)/√3 -> (|0⟩ + |1⟩ + e^{-iφ}|2⟩)/√3
        phi = 0.77
        amps = np.array([1.0, np.exp(-1j * phi), 1.0]) / math.sqrt(3)
        psi = fock.StateVector(fock.HilbertShape((3,)), amps)
        out = gates.phase_swap(1, 2, 3).apply(psi).amplitudes
        expected = np.array([1.0, 1.0, np.exp(-1j * phi)]) / math.sqrt(3)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_phase_swap_involution(self):
        p = gates.phase_swap(0, 3, 5)
        np.testing.assert_allclose((p @ p).matrix, np.eye(5), atol=1e-15)


class TestFourier:
    def test_entries(self):
        n = 5
        f = gates.fourier(n).matrix
        for j in range(n):
            for k in range(n):
                assert f[j, k] == pytest.approx(
                    np.exp(2j * np.pi * j * k / n) / math.sqrt(n)
                )

    def test_unitary_and_inverse(self):
        f = gates.fourier(7)
        fi = gates.fourier(7, inverse=True)
        np.testing.assert_allclose((fi @ f).matrix, np.eye(7), atol=1e-13)

    def test_vacuum_to_uniform(self):
        n = 6
        out = gates.fourier(n).apply(fock.basis_state(n, 0)).amplitudes
        np.testing.assert_allclose(out, np.full(n, 1 / math.sqrt(n)), atol=1e-14)

    def test_conjugated_increment_is_sector_diagonal(self):
        # F C_inc F† acts diagonally within each control sector
        n = 4
        shp = fock.HilbertShape((n, n))
        cinc = gates.embed(gates.controlled_increment(n), [0, 1], shp).matrix
        f1 = gates.embed(gates.fourier(n), [1], shp).matrix
        conj = f1 @ cinc @ f1.conj().T
        for i in range(n):
            block = conj[i * n : (i + 1) * n, i * n : (i + 1) * n]
            np.testing.assert_allclose(block, np.diag(np.diag(block)), atol=1e-13)
        # and nothing leaks between sectors
        mask = np.kron(np.eye(n), np.ones((n, n)))
        np.testing.assert_allclose(conj * (1 - mask), 0.0, atol=1e-13)


class TestEcd:
    def test_beta_zero_is_x_tensor_identity(self):
        n = 8
        u = gates.ecd(0.0, n).matrix
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(u, np.kron(x, np.eye(n)), atol=1e-14)

    def test_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            beta = complex(rng.normal(), rng.normal())
            assert gates.ecd(beta, 24).is_unitary(tol=1e-12)

    def test_conditional_blocks(self):
        beta = 0.8 - 0.3j
        n = 20
        u = gates.ecd(beta, n).matrix
        d_plus = gates.displacement(beta / 2, n).matrix
        d_minus = gates.displacement(-beta / 2, n).matrix
        np.testing.assert_allclose(u[n:, :n], d_plus, atol=1e-14)   # |g⟩ -> |e⟩ branch
        np.testing.assert_allclose(u[:n, n:], d_minus, atol=1e-14)  # |e⟩ -> |g⟩ branch
        np.testing.assert_allclose(u[:n, :n], 0.0, atol=1e-14)


class TestBinaryEncode:
    def test_all_ones(self):
        assert gates.qubit_binary_encode("1111") == 15

    def test_big_endian(self):
        assert gates.qubit_binary_encode("100") == 4
        assert gates.qubit_binary_encode([1, 0, 0]) == 4

    def test_roundtrip(self):
        for level in range(16):
            bits = gates.qubit_binary_decode(level, 4)
            assert gates.qubit_binary_encode(bits) == level

    def test_bad_characters(self):
        with pytest.raises(UsageError):
            gates.qubit_binary_encode("10201")


class TestEmbedding:
    def test_embed_matches_kron_for_leading_target(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = fock.Operator(fock.HilbertShape((3,)), m)
        shp = fock.HilbertShape((3, 4))
        full = gates.embed(op, [0], shp).matrix
        np.testing.assert_allclose(full, np.kron(m, np.eye(4)), atol=1e-14)

    def test_embed_matches_kron_for_trailing_target(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = fock.Operator(fock.HilbertShape((4,)), m)
        shp = fock.HilbertShape((3, 4))
        full = gates.embed(op, [1], shp).matrix
        np.testing.assert_allclose(full, np.kron(np.eye(3), m), atol=1e-14)

    def test_embed_reversed_two_mode_targets(self):
        # embedding with swapped target order must equal conjugation by SWAP
        rng = np.random.default_rng(7)
        n = 3
        m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        op = fock.Operator(fock.HilbertShape((n, n)), m)
        shp = fock.HilbertShape((n, n))
        rev = gates.embed(op, [1, 0], shp).matrix
        swap = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                swap[j * n + i, i * n + j] = 1.0
        np.testing.assert_allclose(rev, swap @ m @ swap, atol=1e-13)

    def test_apply_embedded_matches_embed(self):
        rng = np.random.default_rng(8)
        shp = fock.HilbertShape((2, 3, 4))
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        op = fock.Operator(fock.HilbertShape((2, 4)), m)
        psi = random_state(shp, rng)
        via_matrix = gates.embed(op, [0, 2], shp).apply(psi)
        via_tensor = gates.apply_embedded(op, [0, 2], psi)
        np.testing.assert_allclose(via_matrix.amplitudes, via_tensor.amplitudes, atol=1e-12)

    def test_duplicate_targets_rejected(self):
        op = fock.identity((2, 2))
        with pytest.raises(UsageError):
            gates.embed(op, [0, 0], fock.HilbertShape((2, 2)))


class TestCircuits:
    def circuit_doc(self):
        return {
            "shape": [2, 4],
            "displacement_convention": "standard",
            "gates": [
                {"kind": "displacement", "target": 1, "alpha": [0.5, 0.0]},
                {"kind": "snap", "target": 1, "theta": [0.0, 3.14159, 0.0, 0.0]},
                {"kind": "cond_rotation", "qubit": 0, "mode": 1, "n": 1, "theta": 1.0, "phi": 0.0},
            ],
        }

    def test_json_roundtrip(self):
        text = json.dumps(self.circuit_doc())
        circ = gates.circuit_from_json(text)
        circ2 = gates.circuit_from_json(circ.to_json())
        assert circ2.shape.dims == (2, 4)
        assert [g.kind for g in circ2.gates] == ["displacement", "snap", "cond_rotation"]
        u1 = gates.circuit_unitary(circ).matrix
        u2 = gates.circuit_unitary(circ2).matrix
        np.testing.assert_allclose(u1, u2, atol=1e-12)

    def test_unknown_kind_is_parse_error_with_location(self):
        doc = self.circuit_doc()
        doc["gates"][1]["kind"] = "warp"
        text = json.dumps(doc, indent=1)
        with pytest.raises(ParseError) as err:
            gates.circuit_from_json(text)
        msg = str(err.value)
        assert "gate 1" in msg
        assert "warp" in msg
        assert "line" in msg

    def test_bad_theta_length_names_gate(self):
        doc = self.circuit_doc()
        doc["gates"][1]["theta"] = [0.0, 0.0]
        with pytest.raises(ParseError, match="gate 1"):
            gates.circuit_from_json(json.dumps(doc))

    def test_ecd_on_its_own_qubit_is_parse_error(self):
        doc = self.circuit_doc()
        doc["gates"][1] = {"kind": "ecd", "qubit": 0, "mode": 0, "beta": 0.3}
        text = json.dumps(doc, indent=1)
        with pytest.raises(ParseError, match="gate 1: ecd qubit and mode must differ") as err:
            gates.circuit_from_json(text)
        assert "line" in str(err.value)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            gates.circuit_from_json("{oops")

    def test_paper_convention_flips_alpha(self):
        base = self.circuit_doc()
        base["gates"] = [{"kind": "displacement", "target": 1, "alpha": [0.3, 0.1]}]
        std = gates.circuit_from_json(json.dumps(base))
        base["displacement_convention"] = "paper"
        base["gates"][0]["alpha"] = [-0.3, -0.1]
        paper = gates.circuit_from_json(json.dumps(base))
        np.testing.assert_allclose(
            gates.circuit_unitary(std).matrix,
            gates.circuit_unitary(paper).matrix,
            atol=1e-13,
        )

    def test_apply_circuit_matches_unitary(self):
        rng = np.random.default_rng(9)
        circ = gates.circuit_from_json(json.dumps(self.circuit_doc()))
        psi = random_state(circ.shape, rng)
        via_apply = gates.apply_circuit(circ, psi).amplitudes
        via_matrix = gates.circuit_unitary(circ).apply(psi).amplitudes
        np.testing.assert_allclose(via_apply, via_matrix, atol=1e-12)

    def test_empty_circuit_is_identity(self):
        circ = gates.Circuit(fock.HilbertShape((3,)), ())
        psi = fock.basis_state(3, 2)
        out = gates.apply_circuit(circ, psi)
        assert fock.fidelity(out, psi) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        circ = gates.Circuit(fock.HilbertShape((3,)), ())
        with pytest.raises(ShapeError):
            gates.apply_circuit(circ, fock.basis_state(4, 0))

    def test_ghz_analogue_prep(self):
        # equal superposition of |0⟩ and |15⟩ on a 16-level qudit, the
        # collapsed form of a 4-qubit GHZ state
        circ = gates.Circuit(
            fock.HilbertShape((16,)),
            (gates.GateSpec("givens", {"target": 0, "m": 0, "n": 15, "theta": math.pi / 4}),),
        )
        out = gates.apply_circuit(circ, fock.basis_state(16, 0))
        target_level = gates.qubit_binary_encode("1111")
        assert abs(out.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.amplitudes[target_level]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_apply_error_carries_gate_index(self):
        # second gate targets a subsystem the register does not have
        circ = gates.Circuit(
            fock.HilbertShape((4,)),
            (
                gates.GateSpec("fourier", {"target": 0}),
                gates.GateSpec("snap", {"target": 1, "theta": [0, 0, 0, 0]}),
            ),
        )
        with pytest.raises(UsageError, match="gate 1"):
            gates.apply_circuit(circ, fock.basis_state(4, 0))


class TestUnitaritySweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_constructors_unitary(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 33))
        ops = [
            gates.snap(rng.uniform(-math.pi, math.pi, size=dim)),
            gates.fourier(dim),
            gates.qubit_rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
        ]
        if dim >= 2:
            m, n = rng.choice(dim, size=2, replace=False)
            ops.append(gates.givens(int(m), int(n), rng.uniform(0, 2 * math.pi), dim))
            ops.append(gates.phase_swap(int(m), int(n), dim))
        ops.append(gates.displacement(complex(rng.normal(), rng.normal()), dim))
        for op in ops:
            assert op.is_unitary(tol=1e-10)


def random_gate(kind, dims, rng):
    """Random valid parameters of one gate kind on a register, or None if
    the register cannot hold that kind."""
    n = len(dims)
    qubits = [i for i, d in enumerate(dims) if d == 2]
    pairs = [(c, t) for c in range(n) for t in range(n)
             if c != t and dims[c] == dims[t]]
    target = int(rng.integers(n))
    if kind in ("cond_rotation", "ecd"):
        if not qubits or n < 2:
            return None
        qubit = int(rng.choice(qubits))
        mode = int(rng.choice([i for i in range(n) if i != qubit]))
        if kind == "ecd":
            return {"qubit": qubit, "mode": mode, "beta": list(rng.normal(0, 0.4, 2))}
        return {"qubit": qubit, "mode": mode, "n": int(rng.integers(dims[mode])),
                "theta": float(rng.uniform(0, 2 * math.pi)),
                "phi": float(rng.uniform(0, 2 * math.pi))}
    if kind == "qubit_rotation":
        if not qubits:
            return None
        return {"target": int(rng.choice(qubits)),
                "theta": float(rng.uniform(0, 2 * math.pi)),
                "phi": float(rng.uniform(0, 2 * math.pi))}
    if kind == "controlled_increment":
        if not pairs:
            return None
        control, tgt = pairs[int(rng.integers(len(pairs)))]
        return {"control": control, "target": tgt}
    if kind == "snap":
        return {"target": target, "theta": list(rng.uniform(-math.pi, math.pi, dims[target]))}
    if kind == "multisnap":
        targets = [int(t) for t in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        size = math.prod(dims[t] for t in targets)
        return {"targets": targets, "theta": list(rng.uniform(-math.pi, math.pi, size))}
    if kind == "displacement":
        return {"target": target, "alpha": list(rng.normal(0, 0.4, 2))}
    if kind in ("givens", "phase_swap"):
        m, k = (int(x) for x in rng.choice(dims[target], size=2, replace=False))
        params = {"target": target, "m": m, "n": k}
        if kind == "givens":
            params["theta"] = float(rng.uniform(0, 2 * math.pi))
        return params
    if kind == "fourier":
        return {"target": target, "inverse": bool(rng.integers(2))}
    raise AssertionError(f"no generator for gate kind {kind!r}")


# together these registers hold every gate kind; Fourier gates land on
# targets other than the first, qubits before and after their modes
PROPERTY_REGISTERS = [(5,), (2, 3), (3, 3, 2), (4, 2, 4)]


def test_property_registers_cover_every_kind():
    rng = np.random.default_rng(0)
    covered = {kind for dims in PROPERTY_REGISTERS for kind in gates.GATE_BUILDERS
               if random_gate(kind, dims, rng) is not None}
    assert covered == set(gates.GATE_BUILDERS)


def random_circuit(dims, rng, repeats=1, convention="standard") -> gates.Circuit:
    """Every kind the register holds, in random order, repeats times."""
    specs = []
    for _ in range(repeats):
        for kind in rng.permutation(list(gates.GATE_BUILDERS)):
            params = random_gate(str(kind), dims, rng)
            if params is not None:
                specs.append(gates.GateSpec(str(kind), params))
    return gates.Circuit(fock.HilbertShape(dims), tuple(specs), convention)


class TestCompiledCircuitProperties:
    """Compiled circuits (phase-vector SNAP, FFT Fourier, factored
    displacement, 2×2 and gather kernels) against the dense embed oracle,
    `dense_unitary`."""

    @pytest.mark.parametrize("dims", PROPERTY_REGISTERS)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), repeats=st.integers(1, 3),
           convention=st.sampled_from(gates.CONVENTIONS))
    def test_matches_dense_embed(self, dims, seed, repeats, convention):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(dims, rng, repeats, convention)
        psi = random_state(circuit.shape, rng)
        expected = dense_unitary(circuit) @ psi.amplitudes
        parsed = gates.circuit_from_json(circuit.to_json())
        for circ in (circuit, parsed):
            out = gates.apply_circuit(circ, psi)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)
            assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_parsed_circuit_factors_each_displacement_once(self):
        # three applications of a parsed circuit: each displacement and ECD
        # is factored once, at parse time, and no dense D(α) is ever built
        doc = {"shape": [2, 12], "gates": [
            {"kind": "displacement", "target": 1, "alpha": [0.3, -0.1]},
            {"kind": "snap", "target": 1, "theta": [0.1 * k for k in range(12)]},
            {"kind": "displacement", "target": 1, "alpha": 0.2},
            {"kind": "ecd", "qubit": 0, "mode": 1, "beta": [0.4, 0.3]},
        ]}
        with mock.patch.object(gates, "displacement") as dense_d, \
                mock.patch.object(gates, "ecd") as dense_ecd, \
                mock.patch.object(gates, "_displacement_map",
                                  wraps=gates._displacement_map) as factored:
            circuit = gates.circuit_from_json(json.dumps(doc))
            for _ in range(3):
                gates.apply_circuit(circuit, fock.basis_state((2, 12), [0, 0]))
        assert dense_d.call_count == 0
        assert dense_ecd.call_count == 0
        assert factored.call_count == 4  # two displacements, D(±β/2) of the ECD

    def test_compile_error_is_kept_out_of_the_cache(self):
        circ = gates.Circuit(
            fock.HilbertShape((4,)),
            (gates.GateSpec("snap", {"target": 0, "theta": [0, 0, 0]}),),
        )
        for _ in range(2):
            with pytest.raises(UsageError, match="gate 0"):
                gates.apply_circuit(circ, fock.basis_state(4, 0))

    @pytest.mark.parametrize("dims", PROPERTY_REGISTERS)
    @pytest.mark.parametrize("convention", gates.CONVENTIONS)
    @pytest.mark.parametrize("seed", range(3))
    def test_circuit_unitary_matches_dense_embed(self, dims, convention, seed):
        circuit = random_circuit(dims, np.random.default_rng(seed), 2, convention)
        np.testing.assert_allclose(gates.circuit_unitary(circuit).matrix,
                                   dense_unitary(circuit), rtol=0, atol=1e-14)

    def test_every_kind_peaks_near_the_state_size(self):
        # a (2, 64, 64) state is 128 KiB; a dense controlled_increment on
        # the two modes alone is 256 MiB
        dims = (2, 64, 64)
        specs = [gates.GateSpec(kind, params) for kind, params in [
            ("snap", {"target": 1, "theta": [0.1] * 64}),
            ("multisnap", {"targets": [0, 2], "theta": [0.2] * 128}),
            ("displacement", {"target": 2, "alpha": [0.3, 0.1]}),
            ("cond_rotation", {"qubit": 0, "mode": 1, "n": 5, "theta": 1.0, "phi": 0.4}),
            ("qubit_rotation", {"target": 0, "theta": 0.7, "phi": 0.1}),
            ("controlled_increment", {"control": 1, "target": 2}),
            ("givens", {"target": 1, "m": 3, "n": 40, "theta": 0.6}),
            ("phase_swap", {"target": 2, "m": 0, "n": 63}),
            ("fourier", {"target": 1}),
            ("ecd", {"qubit": 0, "mode": 2, "beta": [0.2, -0.3]}),
        ]]
        assert {spec.kind for spec in specs} == set(gates.GATE_BUILDERS)
        psi = random_state(dims, np.random.default_rng(0))
        tracemalloc.start()
        try:
            out = gates.apply_circuit(gates.Circuit(fock.HilbertShape(dims), tuple(specs)), psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert peak < 2 << 20

    def test_compiled_gates_build_no_register_operator(self):
        # every kind compiles and runs with the dense path gone: no
        # tensordot, no embed and no dense constructor bigger than 2×2
        dims = (3, 3, 2)
        circuit = random_circuit(dims, np.random.default_rng(5), 2)
        assert {spec.kind for spec in circuit.gates} == set(gates.GATE_BUILDERS)
        psi = random_state(dims, np.random.default_rng(6))
        expected = dense_unitary(circuit)

        def refuse(*args, **kwargs):
            raise AssertionError("a compiled gate built a dense operator")

        undensed = {kind: dataclasses.replace(gate, dense=refuse)
                    for kind, gate in gates.GATE_BUILDERS.items()}
        names = ["_apply_tensor", "embed", "snap", "multisnap", "displacement", "cond_rotation",
                 "controlled_increment", "givens", "phase_swap", "fourier", "ecd"]
        with contextlib.ExitStack() as patches:
            patches.enter_context(mock.patch.dict(gates.GATE_BUILDERS, undensed))
            for name in names:
                patches.enter_context(mock.patch.object(gates, name, refuse))
            parsed = gates.circuit_from_json(circuit.to_json())
            out = gates.apply_circuit(parsed, psi).amplitudes
            unitary = gates.circuit_unitary(circuit).matrix
        np.testing.assert_allclose(out, expected @ psi.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unitary, expected, rtol=0, atol=1e-14)


# kinds whose kernel does the same arithmetic per state however many share a stack
EXACT_STACK_KINDS = {"snap", "multisnap", "fourier", "phase_swap", "controlled_increment"}


class TestStackedRun:
    """`gates._run` on a stack of register tensors (one leading axis)
    against one `apply_circuit` call per state."""

    @pytest.mark.parametrize("dims", PROPERTY_REGISTERS)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 4),
           convention=st.sampled_from(gates.CONVENTIONS))
    def test_stack_equals_one_state_at_a_time(self, dims, seed, batch, convention):
        rng = np.random.default_rng(seed)
        shape = fock.HilbertShape(dims)
        states = [random_state(shape, rng) for _ in range(batch)]
        stack = np.stack([psi.amplitudes.reshape(dims) for psi in states])
        before = stack.copy()
        for kind in gates.GATE_BUILDERS:
            params = random_gate(kind, dims, rng)
            if params is None:
                continue
            circuit = gates.Circuit(shape, (gates.GateSpec(kind, params),), convention)
            got = gates._run(circuit, stack)
            expected = np.stack([gates.apply_circuit(circuit, psi).amplitudes.reshape(dims)
                                 for psi in states])
            assert got.shape == stack.shape
            if kind in EXACT_STACK_KINDS:
                np.testing.assert_array_equal(got, expected, err_msg=kind)
            else:
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=kind)
        np.testing.assert_array_equal(stack, before)


def _displacement_circuits(kind: str, dims: tuple[int, ...], convention: str,
                           rng) -> list[gates.Circuit]:
    """One-gate circuits of kind on every placement the register allows:
    a displacement on each axis, an ECD on each (qubit, mode) pair."""
    shape = fock.HilbertShape(dims)
    if kind == "displacement":
        placements = [{"target": t} for t in range(len(dims))]
    else:
        placements = [{"qubit": q, "mode": m} for q in range(len(dims))
                      for m in range(len(dims)) if q != m and dims[q] == 2]
    out = []
    for params in placements:
        for amp in (0.0, complex(*rng.normal(0, 0.6, 2))):
            field = "alpha" if kind == "displacement" else "beta"
            spec = gates.GateSpec(kind, {**params, field: [amp.real, amp.imag]})
            out.append(gates.Circuit(shape, (spec,), convention))
    return out


class TestFactoredDisplacementKernel:
    """Circuits apply displacement and ECD through `_displacement_map`,
    never forming D(α); checked against circuit_unitary and against the
    dense gate promoted by embed."""

    @pytest.mark.parametrize("convention", gates.CONVENTIONS)
    @pytest.mark.parametrize("kind,dims", [
        ("displacement", (1,)), ("displacement", (2,)), ("displacement", (7,)),
        ("displacement", (40,)), ("displacement", (300,)),
        ("displacement", (3, 7)), ("displacement", (2, 40, 2)),
        ("ecd", (2, 1)), ("ecd", (2, 2)), ("ecd", (7, 2)), ("ecd", (2, 40)),
        ("ecd", (2, 7, 2)), ("ecd", (3, 2, 7)), ("ecd", (2, 300)),
    ])
    def test_matches_dense_oracles(self, kind, dims, convention):
        rng = np.random.default_rng(sum(dims))
        for circuit in _displacement_circuits(kind, dims, convention, rng):
            psi = random_state(circuit.shape, rng)
            [spec] = circuit.gates
            op, targets = spec.build(circuit.shape, convention)
            embedded = gates.embed(op, targets, circuit.shape).matrix
            got = gates.apply_circuit(circuit, psi).amplitudes
            np.testing.assert_allclose(got, embedded @ psi.amplitudes, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                got, gates.circuit_unitary(circuit).matrix @ psi.amplitudes,
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
    def test_zero_amplitude_is_identity(self, n):
        rng = np.random.default_rng(n)
        for kind, dims in (("displacement", (n,)), ("ecd", (2, n))):
            psi = random_state(dims, rng)
            field = {"displacement": {"target": 0, "alpha": 0},
                     "ecd": {"qubit": 0, "mode": 1, "beta": 0}}[kind]
            circuit = gates.Circuit(fock.HilbertShape(dims),
                                    (gates.GateSpec(kind, field),))
            got = gates.apply_circuit(circuit, psi).amplitudes
            expected = psi.amplitudes
            if kind == "ecd":  # X ⊗ I
                expected = expected.reshape(2, n)[::-1].reshape(-1)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestDisplacementEigensystem:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 120])
    @pytest.mark.parametrize("convention", ["standard", "paper"])
    def test_matches_expm_of_generator(self, n, convention):
        rng = np.random.default_rng(n)
        a = fock.annihilation(n).matrix
        sign = 1 if convention == "standard" else -1
        for alpha in [0, 1.1, -0.4j, *(complex(*rng.normal(0, 1, 2)) for _ in range(3))]:
            beta = sign * alpha
            expected = scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)
            got = gates.displacement(alpha, n, convention=convention).matrix
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)

    def test_eigensystem_cached_per_dimension(self):
        gates._quadrature_eigensystem.cache_clear()
        gates.displacement(0.3, 17)
        gates.displacement(0.7j - 0.2, 17)  # a fresh alpha still hits
        info = gates._quadrature_eigensystem.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cache_is_bounded(self):
        for n in range(2, 14):
            gates.displacement(0.5, n)
        info = gates._quadrature_eigensystem.cache_info()
        assert info.maxsize == 8
        assert info.currsize <= 8

    def test_cached_arrays_are_read_only(self):
        evals, vecs = gates._quadrature_eigensystem(5)
        with pytest.raises(ValueError):
            vecs[0, 0] = 1.0


@pytest.mark.parametrize("kind", sorted(gates.GATE_BUILDERS))
def test_unknown_gate_field_is_rejected(kind):
    rng = np.random.default_rng(3)
    dims, params = next((dims, params) for dims in PROPERTY_REGISTERS
                        if (params := random_gate(kind, dims, rng)) is not None)
    shape = fock.HilbertShape(dims)
    typo = {**params, "bogus": 1}
    entry = json.dumps({"shape": list(dims), "gates": [{"kind": kind, **params}]})
    gates.circuit_from_json(entry)  # valid without the unknown field
    text = json.dumps({"shape": list(dims), "gates": [{"kind": kind, **typo}]}, indent=1)
    with pytest.raises(ParseError, match="gate 0: .*unknown field 'bogus'") as err:
        gates.circuit_from_json(text)
    assert "line" in str(err.value)
    circuit = gates.Circuit(shape, (gates.GateSpec(kind, typo),))
    psi = fock.basis_state(shape, [0] * len(dims))
    with pytest.raises(UsageError, match=rf"gate 0 \({kind}\): .*unknown field 'bogus'"):
        gates.apply_circuit(circuit, psi)
    with pytest.raises(UsageError, match=rf"gate 0 \({kind}\): .*unknown field 'bogus'"):
        gates.circuit_unitary(circuit)


def test_cond_rotation_on_its_own_qubit_is_rejected():
    params = {"qubit": 0, "mode": 0, "n": 1, "theta": 1.0, "phi": 0.0}
    text = json.dumps({"shape": [2, 3], "gates": [{"kind": "cond_rotation", **params}]})
    with pytest.raises(ParseError, match="gate 0: cond_rotation qubit and mode must differ"):
        gates.circuit_from_json(text)
    with pytest.raises(UsageError, match="cond_rotation qubit and mode must differ"):
        gates.GateSpec("cond_rotation", params).build(fock.HilbertShape((2, 3)))


@pytest.mark.parametrize("kind,where", [("snap", {"target": 0}),
                                        ("multisnap", {"targets": [0]})])
@pytest.mark.parametrize("bad", ["a", True, None, [0.5]])
def test_non_number_phase_is_parse_error(kind, where, bad):
    text = json.dumps({"shape": [3], "gates": [{"kind": kind, **where,
                                                "theta": [0, bad, 0]}]})
    with pytest.raises(ParseError,
                       match=f"gate 0: {kind} gate field 'theta' must be a list of numbers"):
        gates.circuit_from_json(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,where", [("snap", {"target": 0}),
                                        ("multisnap", {"targets": [0]})])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_is_refused_before_any_arithmetic(kind, where, bad):
    theta = [0.0, bad, 0.0]
    with pytest.raises(NumericError, match="^non-finite phases in snap theta$"):
        gates.snap(theta)
    with pytest.raises(NumericError, match="^non-finite phases in theta$"):
        gates.multisnap(theta, (3,))
    field = f"{kind} gate field 'theta'"
    text = json.dumps({"shape": [3], "gates": [{"kind": kind, **where, "theta": theta}]})
    with pytest.raises(ParseError, match=f"^gate 0: non-finite phases in {field} \\(line 1"):
        gates.circuit_from_json(text)
    circuit = gates.Circuit(fock.shape_of(3), (gates.GateSpec(kind, {**where, "theta": theta}),))
    with pytest.raises(NumericError, match=f"^gate 0 \\({kind}\\): non-finite phases in {field}$"):
        gates.apply_circuit(circuit, fock.basis_state(3, 0))


@pytest.mark.parametrize("kind,where", [("snap", {"target": 0}),
                                        ("multisnap", {"targets": [0]})])
def test_numpy_phases_run(kind, where):
    # trotter_step passes lists of np.float64; API callers may pass arrays
    theta = np.linspace(-1.0, 2.5, 4)
    psi = random_state(4, np.random.default_rng(0))
    for value in (theta, list(theta)):
        circuit = gates.Circuit(fock.HilbertShape((4,)),
                                (gates.GateSpec(kind, {**where, "theta": value}),))
        assert np.array_equal(gates.circuit_unitary(circuit).matrix,
                              gates.snap(theta).matrix)
        assert np.array_equal(gates.apply_circuit(circuit, psi).amplitudes,
                              psi.amplitudes * np.exp(1j * theta))


# the kernels that move amplitudes without arithmetic, and the 2×2 kernels
PERMUTATION_KINDS = {"controlled_increment", "phase_swap"}
TWO_LEVEL_KINDS = {"qubit_rotation", "cond_rotation", "givens"}


@pytest.mark.parametrize("dims", PROPERTY_REGISTERS)
def test_each_kernel_matches_dense_embed(dims):
    rng = np.random.default_rng(len(dims))
    shape = fock.HilbertShape(dims)
    for kind in sorted(gates.GATE_BUILDERS):
        for _ in range(3):
            params = random_gate(kind, dims, rng)
            if params is None:
                break
            spec = gates.GateSpec(kind, params)
            kernel = gates._compile(spec, shape, "standard")
            psi = random_state(shape, rng)
            expected = dense_unitary(gates.Circuit(shape, (spec,))) @ psi.amplitudes
            tens = psi.amplitudes.reshape(dims)
            # the same values in a layout that is not C-ordered
            strided = np.moveaxis(np.moveaxis(tens, 0, -1).copy(), -1, 0)
            for x in (tens, strided):
                got = kernel(x).reshape(-1)
                if kind in PERMUTATION_KINDS:
                    np.testing.assert_array_equal(got, expected, err_msg=kind)
                else:
                    atol = 1e-15 if kind in TWO_LEVEL_KINDS else 1e-12
                    np.testing.assert_allclose(got, expected, rtol=0, atol=atol, err_msg=kind)


def test_apply_embedded_rejects_bad_targets():
    psi = fock.basis_state((2, 2), [0, 0])
    with pytest.raises(UsageError, match="duplicate targets"):
        gates.apply_embedded(fock.identity((2, 2)), [0, 0], psi)
    with pytest.raises(UsageError, match="target 5 outside"):
        gates.apply_embedded(fock.identity((2,)), [5], psi)


_SNAP_CONSTRUCTORS = {
    "snap": gates.snap,
    "multisnap": lambda theta: gates.multisnap(theta, (3,)),
    "multiqudit_snap": lambda theta: gates.multiqudit_snap(0, theta, (3,)),
}


@pytest.mark.parametrize("name", list(_SNAP_CONSTRUCTORS))
@pytest.mark.parametrize("bad", [True, np.True_, "a", None, [0.5], 1j])
def test_snap_constructors_reject_non_number_phases(name, bad):
    with pytest.raises(UsageError, match="must be a list of numbers"):
        _SNAP_CONSTRUCTORS[name]([0, bad, 0])


@pytest.mark.parametrize("name", list(_SNAP_CONSTRUCTORS))
def test_snap_constructors_take_numpy_phases(name):
    theta = np.array([0.3, -1.2, 2.0])
    for value in (theta, list(theta), theta.tolist(), [0, 1, 2], list(np.arange(3)),
                  theta.astype(np.float32), list(theta.astype(np.float32))):
        np.testing.assert_array_equal(_SNAP_CONSTRUCTORS[name](value).matrix,
                                      np.diag(np.exp(1j * np.asarray(value, dtype=float))))


@pytest.mark.parametrize("name", list(_SNAP_CONSTRUCTORS))
def test_snap_constructors_check_phase_count(name):
    if name == "snap":
        with pytest.raises(UsageError):
            gates.snap([])
        with pytest.raises(UsageError):
            gates.snap(np.zeros((2, 2)))
    else:
        with pytest.raises(UsageError, match="needs 3 phases, got 2"):
            _SNAP_CONSTRUCTORS[name]([0.1, 0.2])


@pytest.mark.parametrize("entries, message", [
    # a location is given only for an entry that holds a "kind", and it
    # is that entry's own line
    (['5', '{"kind": "fourier", "target": 0}'], "gate 0: entries must be objects"),
    (['{"target": 0}', '{"kind": "fourier", "target": 0}'],
     "gate 0: missing string 'kind'"),
    (['{"kind": "fourier", "target": 0}', '{"kind": 3}', '{"kind": "fourier"}'],
     "gate 1: missing string 'kind' (line 4, column 4)"),
    (['{"kind": "fourier", "target": 0}', '{"kind": "fourier", "target": 2}'],
     "gate 1: fourier gate field 'target'=2 outside [0, 1) (line 4, column 4)"),
])
def test_gate_error_location_is_the_entry_own(entries, message):
    text = '{"shape": [3],\n "gates": [\n  ' + ",\n  ".join(entries) + "\n ]}"
    with pytest.raises(ParseError) as exc:
        gates.circuit_from_json(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("target", [True, False, 1.0, "0", None, np.float64(1.0)])
def test_multiqudit_snap_rejects_non_integer_target(target):
    with pytest.raises(UsageError, match="target must be an integer index"):
        gates.multiqudit_snap(target, [0.1, 0.2, 0.3], (3, 3))


def test_multiqudit_snap_takes_numpy_integer_target():
    theta = [0.1, 0.2, 0.3]
    np.testing.assert_array_equal(gates.multiqudit_snap(np.int64(1), theta, (3, 3)).matrix,
                                  gates.multiqudit_snap(1, theta, (3, 3)).matrix)


def test_phase_entries_checked_in_bulk():
    # int and float entries pass on their set of types; any other type is
    # tested entry by entry with is_real, with the same result and message
    with mock.patch.object(gates, "is_real", wraps=gates.is_real) as is_real:
        gates.snap([0, 0.5, -1.0])
        assert is_real.call_count == 0
        gates.snap([0, np.float64(0.5), 1])
        assert is_real.call_count == 3
        with pytest.raises(UsageError, match="snap theta must be a list of numbers"):
            gates.snap([0.0, 1, True])
