import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from cavityq import fock, gates, pulse
from cavityq.errors import (
    BandwidthError,
    CavityQError,
    NumericError,
    ParseError,
    ShapeError,
    UsageError,
)
from cavityq.fock import (
    Operator,
    StateVector,
    annihilation,
    basis_state,
    eig_exponential,
    shape_of,
)
from cavityq.gates import Circuit, GateSpec, apply_circuit
from cavityq.pulse import (
    ControlModel,
    GrapeResult,
    PulseSchedule,
    dispersive_model,
    dispersive_model_from_device,
    gate_fidelity,
    grape_gradient,
    grape_optimize,
    optimize_snap_displacement_sequence,
    qubit_model,
    simulate_schedule,
    snap_average_fidelity,
    synthesize_snap_pulse,
)
from test_device import reference_params


def exponent_directions(a):
    """The derivatives of the displacement exponent along Re(alpha) and
    Im(alpha), [a† − a, i(a† + a)], as _sequence_pass takes them."""
    return np.stack([a.conj().T - a, 1j * (a.conj().T + a)])


def constant_schedule(amp, n_segments, dt_s, n_streams=1):
    streams = tuple(
        np.full(n_segments, amp if s == 0 else 0.0, dtype=complex)
        for s in range(n_streams)
    )
    return PulseSchedule(dt_s, streams, tuple(0.0 for _ in range(n_streams)))


class TestPulseSchedule:
    def test_validation(self):
        with pytest.raises(UsageError):
            PulseSchedule(0.0, (np.ones(3, dtype=complex),), (0.0,))
        with pytest.raises(ShapeError):
            PulseSchedule(1e-9, (np.ones(3, dtype=complex),
                                 np.ones(4, dtype=complex)), (0.0, 0.0))
        with pytest.raises(ShapeError):
            PulseSchedule(1e-9, (np.ones(3, dtype=complex),), (0.0, 1.0))
        with pytest.raises(UsageError):
            PulseSchedule(1e-9, (), ())

    def test_nonfinite_amplitudes_numeric_error(self):
        bad = np.array([1.0, np.nan, 0.0], dtype=complex)
        with pytest.raises(NumericError):
            PulseSchedule(1e-9, (bad,), (0.0,))

    def test_json_round_trip(self):
        sched = PulseSchedule(
            2.5e-9,
            (np.array([1 + 2j, -0.5j]), np.array([0.0, 3.0])),
            (0.0, 5e9),
        )
        back = PulseSchedule.from_json(sched.to_json())
        assert back.dt_s == sched.dt_s
        assert back.carriers_hz == sched.carriers_hz
        for a, b in zip(back.streams, sched.streams):
            np.testing.assert_array_equal(a, b)

    def test_json_errors(self):
        with pytest.raises(ParseError):
            PulseSchedule.from_json("{not json")
        with pytest.raises(ParseError):
            PulseSchedule.from_json(json.dumps({"dt_s": 1e-9}))
        with pytest.raises(ParseError):
            PulseSchedule.from_json(json.dumps(
                {"dt_s": 1e-9, "controls": [{"carrier_hz": 0.0,
                                             "amps": [[1.0]]}]}))
        with pytest.raises(ParseError):
            PulseSchedule.from_json(json.dumps(
                {"dt_s": 1e-9, "controls": [], "extra": 1}))
        with pytest.raises(ParseError):
            PulseSchedule.from_json(json.dumps(
                {"dt_s": "abc", "controls": [{"carrier_hz": 0.0,
                                              "amps": [[1.0, 0.0]]}]}))
        with pytest.raises(ParseError, match="^'controls' must be a non-empty list$"):
            PulseSchedule.from_json(json.dumps({"dt_s": 1e-9, "controls": []}))
        with pytest.raises(ParseError, match="^control 0 must be an object$"):
            PulseSchedule.from_json(json.dumps({"dt_s": 1e-9, "controls": [[0.0, 1.0]]}))

    def test_json_empty_amps_names_the_missing_segments(self):
        # the shape rule said "control 0: field 'amps' must be 0x2, got (0,)"
        doc = {"dt_s": 1e-9, "controls": [{"carrier_hz": 0.0, "amps": []}]}
        with pytest.raises(ParseError) as err:
            PulseSchedule.from_json(json.dumps(doc))
        assert str(err.value) == "invalid schedule: streams must contain at least one segment"

    @pytest.mark.parametrize("field", ["amps", "carrier_hz", "dt_s"])
    def test_json_booleans_are_not_numbers(self, field):
        doc = {"dt_s": 1e-9,
               "controls": [{"carrier_hz": 0.0, "amps": [[1.0, 0.0]]}]}
        PulseSchedule.from_json(json.dumps(doc))  # the valid baseline
        if field == "amps":
            doc["controls"][0]["amps"] = [[True, False]]
        elif field == "carrier_hz":
            doc["controls"][0]["carrier_hz"] = True
        else:
            doc["dt_s"] = True
        with pytest.raises(ParseError):
            PulseSchedule.from_json(json.dumps(doc))


class TestControlModel:
    def test_drift_must_be_hermitian(self):
        shape = shape_of(2)
        bad = Operator(shape, np.array([[0.0, 1.0], [0.0, 0.0]]))
        ctrl = Operator(shape, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(UsageError):
            ControlModel(shape, bad, (ctrl, ctrl))

    def test_controls_pair_up(self):
        shape = shape_of(2)
        h = Operator(shape, np.zeros((2, 2)))
        ctrl = Operator(shape, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(UsageError):
            ControlModel(shape, h, (ctrl,))

    def test_shape_mismatch(self):
        h = Operator(shape_of(3), np.zeros((3, 3)))
        ctrl = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ShapeError):
            ControlModel(shape_of(2), ctrl @ ctrl.dagger() if False else h,
                         (ctrl, ctrl))

    def test_controls_must_be_hermitian_and_of_the_model_shape(self):
        shape = shape_of(2)
        h = Operator(shape, np.zeros((2, 2)))
        ctrl = Operator(shape, np.array([[0.0, 1.0], [1.0, 0.0]]))
        non_hermitian = Operator(shape, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(UsageError, match="^control 1 must be Hermitian$"):
            ControlModel(shape, h, (ctrl, non_hermitian))
        with pytest.raises(ShapeError, match="^control 0 shape does not match model shape$"):
            ControlModel(shape, h, (Operator(shape_of(3), np.eye(3)), ctrl))

    def test_from_device_params(self):
        model = dispersive_model_from_device(reference_params(), 4)
        assert model.shape.dims == (2, 4)
        # |e,1> drift entry is -2*pi*chi
        chi = 5e4
        assert model.drift.matrix[5, 5].real == pytest.approx(-2 * np.pi * chi)


class TestSimulateSchedule:
    def test_zero_everything_is_identity(self):
        model = qubit_model()
        sched = constant_schedule(0.0, 7, 1e-9)
        psi0 = basis_state(2, 0)
        out, prop = simulate_schedule(model, sched, psi0,
                                      return_propagator=True)
        assert abs(out.overlap(psi0)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(prop.matrix, np.eye(2), atol=1e-12)

    def test_resonant_pi_pulse_flips_ground(self):
        # constant real drive with area 1/4 (Hz*s) is a pi rotation
        t_total = 80e-9
        amp = 0.25 / t_total
        model = qubit_model()
        sched = constant_schedule(amp, 40, t_total / 40)
        out = simulate_schedule(model, sched, basis_state(2, 0))
        p_e = abs(out.amplitudes[1]) ** 2
        assert p_e > 0.9999

    def test_detuned_drive_matches_direct_expm(self):
        # independent oracle: scipy expm of the constant 2x2 Hamiltonian
        delta, amp, t_total = 3.1e6, 1.7e6, 200e-9
        model = qubit_model(detuning_hz=delta)
        sched = constant_schedule(amp * (1 + 0.6j) / abs(1 + 0.6j), 64,
                                  t_total / 64)
        out = simulate_schedule(model, sched, basis_state(2, 0))
        u = amp * (1 + 0.6j) / abs(1 + 0.6j)
        h = np.array([[0.0, 0.0], [0.0, 2 * np.pi * delta]], dtype=complex)
        h += 2 * np.pi * (u.real * np.array([[0, 1], [1, 0]])
                          + u.imag * np.array([[0, -1j], [1j, 0]]))
        ref = scipy.linalg.expm(-1j * h * t_total) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out.amplitudes, ref, atol=1e-9)

    def test_norm_preserved_random_schedule(self):
        rng = np.random.default_rng(5)
        model = dispersive_model(1e6, 4, cavity_drive=True)
        streams = tuple(
            1e5 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
            for _ in range(2)
        )
        sched = PulseSchedule(2e-9, streams, (0.0, 0.0))
        psi0 = basis_state((2, 4), [0, 2])
        out = simulate_schedule(model, sched, psi0)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_halving_dt_converges_second_order(self):
        # midpoint-sampled smooth envelope: Richardson step-halving check
        model = qubit_model(detuning_hz=2e6)
        t_total = 100e-9

        def sampled(n_seg):
            dt = t_total / n_seg
            tm = (np.arange(n_seg) + 0.5) * dt
            env = 2.5e6 * np.exp(-((tm - t_total / 2) ** 2)
                                 / (2 * (t_total / 8) ** 2))
            return PulseSchedule(dt, (env.astype(complex),), (0.0,))

        psi0 = basis_state(2, 0)
        fine = simulate_schedule(model, sampled(4096), psi0).amplitudes
        err = []
        for n_seg in (64, 128, 256):
            out = simulate_schedule(model, sampled(n_seg), psi0).amplitudes
            err.append(np.linalg.norm(out - fine))
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.2)
        assert err[1] / err[2] == pytest.approx(4.0, rel=0.2)

    def test_stream_pairing_enforced(self):
        model = dispersive_model(1e6, 3, cavity_drive=True)  # two streams
        sched = constant_schedule(1e5, 5, 1e-9)  # one stream
        with pytest.raises(UsageError):
            simulate_schedule(model, sched, basis_state((2, 3), [0, 0]))

    def test_psi0_or_propagator_required(self):
        with pytest.raises(UsageError):
            simulate_schedule(qubit_model(), constant_schedule(0.0, 3, 1e-9))


def _random_model(kind, rng):
    """(model, expected invariant blocks) for one family of control models."""
    if kind == "qubit":
        return qubit_model(rng.uniform(-1e6, 1e6)), [[0, 1]]
    if kind in ("dispersive", "cavity_drive"):
        n = int(rng.integers(2, 6))
        model = dispersive_model(rng.uniform(0.5e6, 2e6), n,
                                 cavity_drive=kind == "cavity_drive")
        if kind == "cavity_drive":
            return model, [list(range(2 * n))]
        return model, [[k, n + k] for k in range(n)]
    d = int(rng.integers(2, 9))
    # block_sparse plants a random, interleaved partition of the indices
    labels = (np.zeros(d, dtype=int) if kind == "dense"
              else rng.integers(0, d, d))
    mask = labels[:, None] == labels[None, :]

    def herm(scale):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return Operator(shape_of(d), scale * mask * (m + m.conj().T) / 2)

    n_streams = int(rng.integers(1, 3))
    model = ControlModel(shape_of(d), herm(1e6),
                         tuple(herm(1.0) for _ in range(2 * n_streams)))
    blocks = sorted(np.flatnonzero(labels == lab).tolist()
                    for lab in np.unique(labels))
    return model, blocks


def _expm_product(model, amps, dt):
    """Reference propagator: ordered product of per-segment scipy expm."""
    h = np.repeat(model.drift.matrix[None], amps.shape[1], axis=0)
    for s in range(model.n_streams):
        re, im = (2 * np.pi * q[:, None, None] for q in (amps[s].real,
                                                          amps[s].imag))
        h += re * model.controls[2 * s].matrix + im * model.controls[2 * s + 1].matrix
    u = np.eye(model.shape.total_dim, dtype=complex)
    for seg in scipy.linalg.expm(-1j * dt * h):
        u = seg @ u
    return u


class TestSegmentPropagatorProperties:
    """The chunked, block-structured kernel behind simulate_schedule against
    the ordered product of per-segment scipy expm."""

    @pytest.mark.parametrize(
        "kind", ["dense", "block_sparse", "dispersive", "cavity_drive", "qubit"])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_seg=st.sampled_from([1, 2047, 2048, 2049]),
           chunk=st.sampled_from([pulse._CHUNK_ENTRIES, 64, 300]))
    def test_matches_expm_product(self, kind, seed, n_seg, chunk):
        rng = np.random.default_rng(seed)
        model, blocks = _random_model(kind, rng)
        assert [b.tolist() for b in pulse._blocks(model)] == blocks
        amps = 1e6 * (rng.standard_normal((model.n_streams, n_seg))
                      + 1j * rng.standard_normal((model.n_streams, n_seg)))
        dt = 1e-7 * rng.uniform(0.2, 1.0)
        sched = PulseSchedule(dt, tuple(amps), (0.0,) * model.n_streams)
        with mock.patch.object(pulse, "_CHUNK_ENTRIES", chunk):
            u = simulate_schedule(model, sched, return_propagator=True).matrix
        d = model.shape.total_dim
        assert np.max(np.abs(u - _expm_product(model, amps, dt))) <= 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    def test_block_counts_follow_the_matrices(self):
        for n in (2, 6, 8):
            assert len(pulse._blocks(dispersive_model(1e6, n))) == n
            assert len(pulse._blocks(
                dispersive_model(1e6, n, cavity_drive=True))) == 1
        assert len(pulse._blocks(qubit_model(3e5))) == 1


class TestGateFidelity:
    def test_self_fidelity_one(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(mat)
        u = Operator(shape_of(4), q)
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        u = Operator(shape_of(2), np.eye(2))
        v = Operator(shape_of(2), np.exp(0.7j) * np.eye(2))
        assert gate_fidelity(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_x_is_zero(self):
        u = Operator(shape_of(2), np.eye(2))
        x = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert gate_fidelity(u, x) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gate_fidelity(Operator(shape_of(2), np.eye(2)),
                          Operator(shape_of(3), np.eye(3)))


class TestGrapeGradients:
    @staticmethod
    def _rand_model(rng, d, n_streams):
        def herm(scale=1.0):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return Operator(shape_of(d), scale * (m + m.conj().T) / 2)

        shape = shape_of(d)
        return ControlModel(shape, herm(1e6),
                            tuple(herm() for _ in range(2 * n_streams)))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for case in range(12):
            d = int(rng.integers(2, 13))
            n_streams = int(rng.integers(1, 3))
            n_seg = int(rng.integers(3, 7))
            dt = 1e-8 * rng.uniform(0.5, 2.0)
            model = self._rand_model(rng, d, n_streams)
            amps = 1e6 * (rng.standard_normal((n_streams, n_seg))
                          + 1j * rng.standard_normal((n_streams, n_seg)))
            sched = PulseSchedule(dt, tuple(amps), (0.0,) * n_streams)
            if case % 2 == 0:
                vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                target = StateVector(d, vec / np.linalg.norm(vec))
            else:
                q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                    + 1j * rng.standard_normal((d, d)))
                target = Operator(shape_of(d), q)
            j0, grads = grape_gradient(model, sched, target)
            # relative error measured against the instance's gradient scale:
            # per-entry ratios are roundoff-dominated for near-zero entries
            gscale = max(np.max(np.abs(g.real)) + np.max(np.abs(g.imag))
                         for g in grads)
            h = 1.0  # Hz; ~1e-6 of the 1e6-scale amplitudes
            for s in range(n_streams):
                for jseg in range(n_seg):
                    for quad in (1.0, 1.0j):
                        up = amps.copy()
                        up[s, jseg] += quad * h
                        dn = amps.copy()
                        dn[s, jseg] -= quad * h
                        jp, _ = grape_gradient(
                            model, PulseSchedule(dt, tuple(up),
                                                 (0.0,) * n_streams), target)
                        jm, _ = grape_gradient(
                            model, PulseSchedule(dt, tuple(dn),
                                                 (0.0,) * n_streams), target)
                        fd = (jp - jm) / (2 * h)
                        g = grads[s][jseg]
                        ana = g.real if quad == 1.0 else g.imag
                        worst = max(worst, abs(ana - fd) / gscale)
        assert worst < 1e-6

    @pytest.mark.parametrize("guard,weight", [((3, 4), 1.0), ((3, 3, 4), 0.4)],
                             ids=["distinct", "repeated"])
    def test_guard_penalty_gradient(self, guard, weight):
        rng = np.random.default_rng(23)
        model = self._rand_model(rng, 5, 1)
        amps = 1e6 * (rng.standard_normal((1, 4))
                      + 1j * rng.standard_normal((1, 4)))
        sched = PulseSchedule(1e-8, tuple(amps), (0.0,))
        vec = np.zeros(5, dtype=complex)
        vec[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        target = StateVector(5, vec / np.linalg.norm(vec))
        kw = dict(guard_indices=guard, leak_weight=weight)
        j0, grads = grape_gradient(model, sched, target, **kw)
        h = 1.0
        up = amps.copy()
        up[0, 2] += h
        dn = amps.copy()
        dn[0, 2] -= h
        jp, _ = grape_gradient(model, PulseSchedule(1e-8, tuple(up), (0.0,)),
                               target, **kw)
        jm, _ = grape_gradient(model, PulseSchedule(1e-8, tuple(dn), (0.0,)),
                               target, **kw)
        fd = (jp - jm) / (2 * h)
        gscale = np.max(np.abs(grads[0].real)) + np.max(np.abs(grads[0].imag))
        assert abs(grads[0][2].real - fd) / gscale < 1e-6


# block-structured models: qubit (one 2x2 block), qubit-drive dispersive (N
# 2x2 photon-number sectors) and cavity drive (one 2N block)
_BLOCK_MODELS = {
    "qubit_resonant": lambda: qubit_model(0.0),
    "qubit_detuned": lambda: qubit_model(3.1e5),
    "dispersive_2": lambda: dispersive_model(1.3e6, 2),
    "dispersive_3": lambda: dispersive_model(0.8e6, 3),
    "dispersive_5": lambda: dispersive_model(1.7e6, 5),
    "cavity_drive": lambda: dispersive_model(1.1e6, 3, cavity_drive=True),
}


class TestBlockGrapeGradients:
    """Central differences on the block-structured models, at segment counts
    that cover the prefix scan's edge cases (one segment, odd and even
    counts, a power of two and one past it)."""

    @pytest.mark.parametrize("target_kind", ["operator", "state"])
    @pytest.mark.parametrize("name", sorted(_BLOCK_MODELS))
    def test_matches_central_differences(self, name, target_kind):
        model = _BLOCK_MODELS[name]()
        rng = np.random.default_rng(sorted(_BLOCK_MODELS).index(name))
        d, n_streams = model.shape.total_dim, model.n_streams
        kw = {}
        if target_kind == "operator":
            q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            target = Operator(model.shape, q)
        else:
            # guard the top level of the last subsystem; start from a
            # superposition over every block
            guard = tuple(i for i in range(d)
                          if i % model.shape.dims[-1] == model.shape.dims[-1] - 1)
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vec[list(guard)] = 0.0
            psi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            target = StateVector(model.shape, vec / np.linalg.norm(vec))
            kw = dict(psi0=StateVector(model.shape, psi0 / np.linalg.norm(psi0)),
                      guard_indices=guard, leak_weight=0.6)
        dt, h = 1e-8, 1.0  # Hz step against 1e6-scale amplitudes
        worst = 0.0
        for n_seg in (1, 2, 3, 7, 8, 33):
            amps = 1e6 * (rng.standard_normal((n_streams, n_seg))
                          + 1j * rng.standard_normal((n_streams, n_seg)))

            def objective(a):
                sched = PulseSchedule(dt, tuple(a), (0.0,) * n_streams)
                return grape_gradient(model, sched, target, **kw)

            _, grads = objective(amps)
            grads = np.stack(grads)
            gscale = np.max(np.abs(grads.real)) + np.max(np.abs(grads.imag))
            for idx in np.ndindex(amps.shape):
                for quad in (1.0, 1.0j):
                    step = np.zeros_like(amps)
                    step[idx] = quad * h
                    fd = (objective(amps + step)[0]
                          - objective(amps - step)[0]) / (2 * h)
                    ana = grads[idx].real if quad == 1.0 else grads[idx].imag
                    worst = max(worst, abs(ana - fd) / gscale)
        assert worst < 1e-6


class TestStructuredKernels:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_prefix_products_match_a_loop(self, b):
        rng = np.random.default_rng(b)
        for m in range(1, 71):
            u, _ = np.linalg.qr(rng.standard_normal((m, 2, b, b))
                                + 1j * rng.standard_normal((m, 2, b, b)))
            ref = [u[0]]
            for seg in u[1:]:
                ref.append(seg @ ref[-1])
            np.testing.assert_allclose(pulse._prefix_products(u),
                                       np.stack(ref), rtol=0, atol=1e-13)

    def test_no_eigh_on_two_by_two_blocks_or_sequences(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 7
        gates._quadrature_eigensystem(n)  # cached once per dimension
        a = annihilation(n).matrix
        target = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        target /= np.linalg.norm(target)
        alphas = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        thetas = rng.standard_normal((3, n))

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for model in (qubit_model(2e5), dispersive_model(1e6, 4)):
            d = model.shape.total_dim
            sched = PulseSchedule(1e-8, (1e6 * rng.standard_normal(9),), (0.0,))
            for tgt in (Operator(model.shape, np.eye(d)),
                        basis_state(model.shape, 1)):
                grape_gradient(model, sched, tgt)
        pulse._sequence_pass(alphas, thetas, target, exponent_directions(a), (n - 1,),
                             1.0)[2]()

    @pytest.mark.parametrize("n", [2, 9, 24])
    @pytest.mark.parametrize("alpha", [0.0, 0.8, -1.1, 0.9j, -0.7j, 0.5 + 0.4j,
                                       -0.6 + 0.3j, -0.2 - 0.8j, 0.4 - 0.5j])
    def test_displacement_eigensystem_rebuilds_displacement(self, alpha, n):
        lam, vecs = gates._displacement_eigensystem(np.array([alpha]), n)
        built = eig_exponential(lam, vecs, 1.0)[0]
        ref = gates.displacement(alpha, n).matrix
        assert np.max(np.abs(built - ref)) <= 1e-13


class TestGrapeOptimize:
    def test_identity_target_zero_controls_converges_at_zero(self):
        model = qubit_model()
        sched = constant_schedule(0.0, 10, 1e-9)
        target = Operator(shape_of(2), np.eye(2))
        res = grape_optimize(model, target, sched, seed=1)
        assert res.converged
        assert res.iterations == 0
        assert res.infidelity <= 1e-12

    def test_two_level_x_gate(self):
        model = qubit_model()
        sched = constant_schedule(0.0, 16, 5e-9)
        target = Operator(shape_of(2),
                          np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        res = grape_optimize(model, target, sched, iterations=500,
                             seed=7, tol=1e-7)
        assert res.converged
        assert res.iterations <= 500
        assert res.infidelity < 1e-6

    def test_trace_monotone_and_resimulation_matches(self):
        model = qubit_model(detuning_hz=1e6)
        sched = constant_schedule(0.0, 12, 4e-9)
        vec = np.array([1.0, 1.0j]) / np.sqrt(2)
        target = StateVector(2, vec)
        res = grape_optimize(model, target, sched, iterations=120, seed=3,
                             tol=1e-9)
        infids = [row[1] for row in res.trace]
        assert all(b <= a + 1e-15 for a, b in zip(infids, infids[1:]))
        out = simulate_schedule(model, res.schedule, basis_state(2, 0))
        refid = abs(np.vdot(vec, out.amplitudes)) ** 2
        assert refid == pytest.approx(res.fidelity, abs=1e-9)

    def test_deterministic_given_seed(self):
        model = qubit_model()
        sched = constant_schedule(0.0, 8, 5e-9)
        target = Operator(shape_of(2),
                          np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        a = grape_optimize(model, target, sched, iterations=40, seed=11)
        b = grape_optimize(model, target, sched, iterations=40, seed=11)
        assert a.fidelity == b.fidelity
        for sa, sb in zip(a.schedule.streams, b.schedule.streams):
            np.testing.assert_array_equal(sa, sb)

    def test_state_transfer_with_guard_levels(self):
        model = dispersive_model(1e6, 3, cavity_drive=True)
        rng = np.random.default_rng(2)
        streams = tuple(
            2e5 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
            for _ in range(2)
        )
        sched = PulseSchedule(1e-8, streams, (0.0, 0.0))
        vec = np.zeros(6, dtype=complex)
        vec[model.shape.flat_index([0, 1])] = 1.0  # |g, 1>
        target = StateVector((2, 3), vec)
        guard = (model.shape.flat_index([0, 2]),
                 model.shape.flat_index([1, 2]))
        res = grape_optimize(model, target, sched, iterations=300,
                             tol=1e-4, guard_indices=guard)
        assert res.infidelity < 1e-3
        out = simulate_schedule(model, res.schedule,
                                basis_state((2, 3), [0, 0]))
        leak = sum(abs(out.amplitudes[g]) ** 2 for g in guard)
        assert leak < 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("learning_rate", [1e200, 1e300])
    def test_huge_learning_rate_keeps_to_schedules_the_simulator_takes(self, learning_rate):
        # 1e200 returned fidelity 0.966 for a schedule simulate_schedule
        # refused; 1e300 warned from the trial pass
        model = qubit_model()
        x_gate = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        res = grape_optimize(model, x_gate, constant_schedule(0.0, 20, 1e-8),
                             learning_rate=learning_rate, seed=1)
        u = simulate_schedule(model, res.schedule, return_propagator=True)
        assert gate_fidelity(x_gate, u) == pytest.approx(res.fidelity, abs=1e-12)

    def test_drift_above_the_trial_phase_bound_still_optimizes(self):
        # the drift alone bounds the segment phase near 4,373 rad; capping
        # trials at the start's bound would stop after 6 iterations at 0.9317
        model = dispersive_model(2e6, 30)
        sched = constant_schedule(0.0, 10, 2e-7)
        _, drift_phase = pulse._segment_phase_error(model, sched.streams, sched.dt_s)
        assert drift_phase > pulse._MAX_TRIAL_PHASE
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, 30)
        target = Operator(model.shape, np.kron(np.eye(2), np.diag(np.exp(1j * theta))))
        res = grape_optimize(model, target, sched, iterations=40, seed=3)
        assert res.iterations == 40
        assert res.infidelity < res.trace[0][1] - 0.03  # 0.9317 -> 0.8990

    def test_seeded_start_the_simulator_refuses_is_an_error(self):
        # 1e-300 s segments seed amplitudes near 1e299 Hz; they were optimized
        # into a schedule simulate_schedule refused
        x_gate = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        with pytest.raises(NumericError, match="^stream 0: the segment Hamiltonian's entries"):
            grape_optimize(qubit_model(), x_gate, constant_schedule(0.0, 4, 1e-300),
                           iterations=2, seed=1)

    def test_target_must_be_an_operator_or_state_of_the_model_shape(self):
        sched = constant_schedule(0.0, 4, 1e-9)
        with pytest.raises(UsageError, match="^target must be an Operator or a StateVector$"):
            grape_optimize(qubit_model(), np.eye(2), sched)
        for target in (Operator(shape_of(3), np.eye(3)), basis_state(3, 0)):
            with pytest.raises(ShapeError, match="^target shape does not match model shape$"):
                grape_optimize(qubit_model(), target, sched)

    def test_trace_csv_header_and_rows(self):
        x_gate = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        res = grape_optimize(qubit_model(), x_gate, constant_schedule(0.0, 8, 5e-9),
                             iterations=5, seed=11)
        header, *rows = res.trace_csv().splitlines()
        assert header == "iteration,infidelity,step_size"
        assert rows == [f"{it},{infid:.12e},{step:.6e}" for it, infid, step in res.trace]
        assert res.trace_csv().endswith("\n") and len(rows) == len(res.trace) > 1
        pinned = GrapeResult(res.schedule, 0.5, 0.5, 1, False,
                             ((0, 0.5, 0.0), (1, 1.25e-3, 0.26)))
        assert pinned.trace_csv() == ("iteration,infidelity,step_size\n"
                                      "0,5.000000000000e-01,0.000000e+00\n"
                                      "1,1.250000000000e-03,2.600000e-01\n")


def snap_target_infidelity(model, schedule, theta):
    u = simulate_schedule(model, schedule, return_propagator=True)
    return 1.0 - snap_average_fidelity(u, theta)


class TestSnapSynthesis:
    CHI = 1e6  # Hz; everything scales with chi*T so this keeps tests fast

    def test_zero_phases_near_identity(self):
        model = dispersive_model(self.CHI, 3)
        t_min = 2 * np.pi / self.CHI
        sched = synthesize_snap_pulse(model, np.zeros(3), 4 * t_min)
        assert snap_target_infidelity(model, sched, np.zeros(3)) < 1e-3

    def test_relative_pi_phase_on_superposition(self):
        model = dispersive_model(self.CHI, 2)
        theta = np.array([0.0, np.pi])
        t_min = 2 * np.pi / self.CHI
        sched = synthesize_snap_pulse(model, theta, 4 * t_min)
        plus = np.zeros(4, dtype=complex)
        plus[0] = plus[1] = 1 / np.sqrt(2)  # |g> (x) (|0>+|1>)
        out = simulate_schedule(model, sched, StateVector((2, 2), plus))
        want = np.zeros(4, dtype=complex)
        want[0], want[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        overlap = abs(np.vdot(want, out.amplitudes)) ** 2
        assert overlap > 0.995

    def test_six_level_budget_and_qubit_returns_to_ground(self):
        model = dispersive_model(self.CHI, 6)
        rng = np.random.default_rng(41)
        theta = rng.uniform(-np.pi, np.pi, 6)
        t_min = 2 * np.pi / self.CHI
        sched = synthesize_snap_pulse(model, theta, 4 * t_min)
        u = simulate_schedule(model, sched, return_propagator=True)
        assert 1.0 - snap_average_fidelity(u, theta) < 1e-2
        # excited-qubit leakage out of the ground block is part of the
        # fidelity, but check it directly too
        ground_block = u.matrix[:6, :6]
        col_norms = np.linalg.norm(ground_block, axis=0)
        assert np.min(col_norms) > 0.99

    def test_bandwidth_error_below_bound(self):
        model = dispersive_model(self.CHI, 3)
        t_min = 2 * np.pi / self.CHI
        with pytest.raises(BandwidthError):
            synthesize_snap_pulse(model, np.zeros(3), 0.9 * t_min)

    def test_monotone_degradation_as_duration_shrinks(self):
        model = dispersive_model(self.CHI, 4)
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 4)
        t_min = 2 * np.pi / self.CHI
        infids = []
        for c in (4.0, 1.0, 0.5):
            sched = synthesize_snap_pulse(model, theta, c * t_min,
                                          enforce_bound=False)
            infids.append(snap_target_infidelity(model, sched, theta))
        assert infids[0] < infids[1] < infids[2]

    def test_explicit_step_sets_the_segment_count(self):
        model = dispersive_model(self.CHI, 3)
        duration = 4 * 2 * np.pi / self.CHI
        dt = duration / 37.3
        sched = synthesize_snap_pulse(model, [0.0, 1.0, -0.5], duration, dt_s=dt)
        assert sched.n_segments == round(duration / dt) == 37
        assert sched.duration_s == pytest.approx(duration, rel=1e-12)

    def test_precompensation_does_not_lower_the_fidelity(self):
        model = dispersive_model(self.CHI, 4)
        theta = np.random.default_rng(3).uniform(-np.pi, np.pi, 4)
        duration = 4 * 2 * np.pi / self.CHI
        fid = {flag: 1.0 - snap_target_infidelity(
                   model, synthesize_snap_pulse(model, theta, duration,
                                                precompensate=flag), theta)
               for flag in (True, False)}
        assert fid[True] >= fid[False]

    def test_wrong_theta_length(self):
        model = dispersive_model(self.CHI, 3)
        with pytest.raises(ShapeError):
            synthesize_snap_pulse(model, np.zeros(4), 1.0)

    def test_rejects_non_dispersive_model(self):
        with pytest.raises(ShapeError):
            synthesize_snap_pulse(qubit_model(), np.zeros(2), 1.0)

    def test_schedule_json_round_trip_preserves_simulation(self):
        model = dispersive_model(self.CHI, 3)
        theta = np.array([0.3, -1.2, 2.0])
        t_min = 2 * np.pi / self.CHI
        sched = synthesize_snap_pulse(model, theta, 4 * t_min)
        back = PulseSchedule.from_json(sched.to_json())
        a = snap_target_infidelity(model, sched, theta)
        b = snap_target_infidelity(model, back, theta)
        assert a == pytest.approx(b, abs=1e-12)

    def test_optimized_pulse_beats_analytic_duration(self):
        # fixed 1e-2 infidelity is reachable below 4*(2pi/chi): state
        # transfer through the SNAP phase gate at half the analytic length
        chi = self.CHI
        model = dispersive_model(chi, 3)
        theta = np.array([0.0, np.pi / 2, np.pi])
        t_short = 2 * (2 * np.pi / chi)
        n_seg = 160
        psi_c = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        vec0 = np.zeros(6, dtype=complex)
        vec0[:3] = psi_c
        tvec = np.zeros(6, dtype=complex)
        tvec[:3] = np.exp(1j * theta) * psi_c
        res = grape_optimize(
            model, StateVector((2, 3), tvec),
            PulseSchedule(t_short / n_seg,
                          (np.zeros(n_seg, dtype=complex),), (0.0,)),
            iterations=400, seed=19, tol=1e-3,
            psi0=StateVector((2, 3), vec0),
        )
        assert res.infidelity < 1e-2


class TestSequencePreparation:
    def test_reaches_random_dim4_target(self):
        rng = np.random.default_rng(31)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        res = optimize_snap_displacement_sequence(vec, blocks=6, seed=0)
        assert res.converged
        assert res.infidelity < 1e-3
        assert res.iterations <= 2000

    def test_replay_through_gate_constructors_matches(self):
        rng = np.random.default_rng(12)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        res = optimize_snap_displacement_sequence(vec, blocks=5, seed=2)
        n = res.n_levels
        gates = []
        for k in range(len(res.alphas)):
            gates.append(GateSpec("displacement", {
                "target": 0, "alpha": [res.alphas[k].real,
                                       res.alphas[k].imag]}))
            if k < res.thetas.shape[0]:
                gates.append(GateSpec("snap", {
                    "target": 0, "theta": list(res.thetas[k])}))
        circuit = Circuit(shape_of(n), tuple(gates))
        out = apply_circuit(circuit, basis_state(n, 0))
        padded = np.zeros(n, dtype=complex)
        padded[:4] = vec
        replay_fid = abs(np.vdot(padded, out.amplitudes)) ** 2
        assert replay_fid == pytest.approx(res.fidelity, abs=1e-9)

    def test_trace_monotone_and_deterministic(self):
        rng = np.random.default_rng(77)
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vec /= np.linalg.norm(vec)
        a = optimize_snap_displacement_sequence(vec, blocks=4, seed=5)
        b = optimize_snap_displacement_sequence(vec, blocks=4, seed=5)
        assert a.fidelity == b.fidelity
        np.testing.assert_array_equal(a.thetas, b.thetas)
        infids = [row[1] for row in a.trace]
        assert all(y <= x + 1e-15 for x, y in zip(infids, infids[1:]))

    def test_guard_level_stays_empty(self):
        rng = np.random.default_rng(6)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        res = optimize_snap_displacement_sequence(vec, blocks=6, seed=1)
        assert res.n_levels == 5
        assert res.guard_levels == 1
        # raw fidelity near 1 forces negligible guard population
        assert res.fidelity > 0.999

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(19)
        n, blocks = 6, 3
        a = annihilation(n).matrix
        target = np.zeros(n, dtype=complex)
        target[:n - 1] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        target /= np.linalg.norm(target)
        args = (target, exponent_directions(a), (n - 1,), 0.7)
        alphas = 0.4 * (rng.standard_normal(blocks + 1)
                        + 1j * rng.standard_normal(blocks + 1))
        thetas = rng.standard_normal((blocks, n))
        g_alpha, g_theta = pulse._sequence_pass(alphas, thetas, *args)[2]()

        def objective(al, th):
            return pulse._sequence_pass(al, th, *args)[0]

        h = 1e-6
        worst = 0.0
        for k in range(blocks + 1):
            for quad in (1.0, 1.0j):
                step = np.zeros(blocks + 1, dtype=complex)
                step[k] = quad * h
                fd = (objective(alphas + step, thetas)
                      - objective(alphas - step, thetas)) / (2 * h)
                ana = g_alpha[k].real if quad == 1.0 else g_alpha[k].imag
                worst = max(worst, abs(ana - fd))
        for idx in np.ndindex(thetas.shape):
            step = np.zeros_like(thetas)
            step[idx] = h
            fd = (objective(alphas, thetas + step)
                  - objective(alphas, thetas - step)) / (2 * h)
            worst = max(worst, abs(g_theta[idx] - fd))
        assert worst < 1e-7

    def test_rejects_null_target(self):
        with pytest.raises(UsageError):
            optimize_snap_displacement_sequence(np.zeros(4), blocks=3, seed=0)

    def test_rejects_bad_blocks(self):
        with pytest.raises(UsageError):
            optimize_snap_displacement_sequence(
                np.array([1.0, 0.0]), blocks=0, seed=0)

    def test_state_vector_target_is_its_amplitudes(self):
        vec = np.array([0.6, 0.0, 0.8j])
        a = optimize_snap_displacement_sequence(StateVector(3, vec), blocks=2, iterations=5)
        b = optimize_snap_displacement_sequence(vec, blocks=2, iterations=5)
        assert (a.alphas, a.thetas.tobytes(), a.trace) == (b.alphas, b.thetas.tobytes(), b.trace)

    @pytest.mark.parametrize("target, message", [
        (basis_state((2, 3), [0, 1]), "^sequence preparation targets a single mode$"),
        (np.array([1.0]), "^target needs at least 2 amplitudes, got 1$"),
    ], ids=["two_modes", "one_amplitude"])
    def test_rejects_targets_that_are_not_one_mode_of_two_levels(self, target, message):
        with pytest.raises(ShapeError, match=message):
            optimize_snap_displacement_sequence(target, blocks=2)


def _eager_ascend(x0, value_and_grad, max_iter, tol, learning_rate, memory=0,
                  grow=1.3, shrink=0.5, max_backtracks=60):
    """The line search as it stood before gradients were deferred: it takes
    the full gradient of every trial, kept or not. With memory > 0 it steps
    along the L-BFGS direction of the last `memory` accepted pairs with
    s.y > 0, trying step 1 first. The oracle for the optimizers' traces."""
    x = np.array(x0, copy=True)
    j, g = value_and_grad(x)
    trace = [(0, 1.0 - j, 0.0)]
    lr = float(learning_rate)
    pairs = []
    iters = 0
    converged = 1.0 - j <= tol
    while not converged and iters < max_iter:
        steepest = not pairs
        d, step = (g, lr) if steepest else (_two_loop(g, pairs), 1.0)
        accepted = False
        for _ in range(max_backtracks):
            x_try = x + step * d
            j_try, g_try = value_and_grad(x_try)
            if j_try > j:
                s, y = x_try - x, g - g_try
                sy = _real_dot(s, y)
                if memory and sy > 0:
                    pairs = (pairs + [(s, y, 1.0 / sy)])[-memory:]
                x, j, g = x_try, j_try, g_try
                accepted = True
                break
            step *= shrink
            if step < 1e-18:
                break
        if not accepted:
            break  # stagnated: return best-so-far
        iters += 1
        trace.append((iters, 1.0 - j, step))
        if steepest:
            lr = step * grow
        converged = 1.0 - j <= tol
    return x, j, iters, bool(converged), tuple(trace)


def _two_loop(g, pairs):
    """The L-BFGS product H g over pairs (s, y, 1/s.y), oldest first, with
    H0 = (s.y / y.y) I of the newest pair."""
    with np.errstate(all="ignore"):
        q = g.copy()
        coeffs = []
        for s, y, rho in pairs[::-1]:
            coeffs.insert(0, rho * _real_dot(s, q))
            q -= coeffs[0] * y
        r = q / (pairs[-1][2] * _real_dot(pairs[-1][1], pairs[-1][1]))
        for (s, y, rho), c in zip(pairs, coeffs):
            r += (c - rho * _real_dot(y, r)) * s
    return r


def _real_dot(a, b):
    return float(np.vdot(a, b).real)


def _eager_grape(model, target, schedule0, iterations, learning_rate, seed,
                 tol=1e-8, guard=(), leak_weight=1.0):
    """grape_optimize on _eager_ascend, with a separate pass for the seeding
    decision and one for the best point's raw fidelity."""
    tgt, psi0_vec = pulse._grape_problem(model, schedule0, target, None, (), 1.0)[:2]
    dt = schedule0.dt_s
    amps0 = np.stack(schedule0.streams)
    area = 2 * np.pi * dt
    w0 = amps0 * area
    j0 = pulse._grape_pass(model, amps0, dt, tgt, psi0_vec, guard, leak_weight)[0]
    if 1.0 - j0 > tol and seed is not None and not np.any(amps0):
        rng = np.random.default_rng(seed)
        scale = area / (8.0 * schedule0.duration_s)
        w0 = scale * (rng.standard_normal(w0.shape)
                      + 1j * rng.standard_normal(w0.shape))

    def value_and_grad(w):
        jt, _, gradient = pulse._grape_pass(model, w / area, dt, tgt, psi0_vec,
                                            guard, leak_weight)
        return jt, gradient() / area

    w_best, _, iters, converged, trace = _eager_ascend(
        w0, value_and_grad, iterations, tol, learning_rate)
    amps = w_best / area
    j_raw = pulse._grape_pass(model, amps, dt, tgt, psi0_vec, guard, leak_weight)[1]
    return amps, j_raw, iters, converged, trace


def _eager_sequence(tvec, blocks, seed, iterations, learning_rate, tol,
                    guard_levels=1, leak_weight=1.0):
    """optimize_snap_displacement_sequence on _eager_ascend, with its
    quasi-Newton memory."""
    tvec = tvec / np.linalg.norm(tvec)
    n = len(tvec) + guard_levels
    padded = np.zeros(n, dtype=complex)
    padded[:len(tvec)] = tvec
    guard = tuple(range(len(tvec), n))
    a = annihilation(n).matrix
    rng = np.random.default_rng(seed)
    alphas0 = 0.3 * (rng.standard_normal(blocks + 1)
                     + 1j * rng.standard_normal(blocks + 1))
    thetas0 = 0.1 * rng.standard_normal((blocks, n))

    def unpack(x):
        return (x[:blocks + 1] + 1j * x[blocks + 1:2 * (blocks + 1)],
                x[2 * (blocks + 1):].reshape(blocks, n))

    def value_and_grad(x):
        jt, _, gradient = pulse._sequence_pass(*unpack(x), padded,
                                               exponent_directions(a), guard, leak_weight)
        ga, gt = gradient()
        return jt, np.concatenate([ga.real, ga.imag, gt.ravel()])

    x0 = np.concatenate([alphas0.real, alphas0.imag, thetas0.ravel()])
    x, _, iters, converged, trace = _eager_ascend(
        x0, value_and_grad, iterations, tol, learning_rate, pulse._SEQUENCE_MEMORY)
    al, th = unpack(x)
    j_raw = pulse._sequence_pass(al, th, padded, exponent_directions(a), guard,
                                 leak_weight)[1]
    return al, th, j_raw, iters, converged, trace


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestDeferredGradientAscent:
    """The optimizers take the adjoint only for points they keep, and give
    the results of the eager line search bit for bit."""

    _X = Operator(shape_of(2), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def _check_grape(self, model, target, sched, seed, iterations=15, **kw):
        res = grape_optimize(model, target, sched, iterations=iterations,
                             seed=seed, **kw)
        amps, j_raw, iters, converged, trace = _eager_grape(
            model, target, sched, iterations, 0.2, seed,
            tol=kw.get("tol", 1e-8), guard=tuple(kw.get("guard_indices", ())),
            leak_weight=kw.get("leak_weight", 1.0))
        assert repr(res.trace) == repr(trace)
        assert (res.iterations, res.converged) == (iters, converged)
        assert _same_bits(np.stack(res.schedule.streams), amps)
        assert _same_bits(res.fidelity, j_raw)
        assert _same_bits(res.infidelity, 1.0 - j_raw)
        return res

    @given(seed=st.integers(0, 2**32 - 1), detuning=st.floats(-3e6, 3e6))
    @settings(max_examples=10)
    def test_grape_qubit_matches_eager(self, seed, detuning):
        self._check_grape(qubit_model(detuning), self._X,
                          constant_schedule(0.0, 20, 1e-8), seed)

    @given(seed=st.integers(0, 2**32 - 1), chi=st.floats(0.5e6, 2e6))
    @settings(max_examples=6)
    def test_grape_dispersive_matches_eager(self, seed, chi):
        theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, 3)
        target = Operator(shape_of((2, 3)),
                          np.kron(np.eye(2), np.diag(np.exp(1j * theta))))
        self._check_grape(dispersive_model(chi, 3), target,
                          constant_schedule(0.0, 30, 0.2 / chi), seed, tol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), amp=st.sampled_from([0.0, 2e5, -3e5]))
    @settings(max_examples=4)
    def test_grape_guarded_state_target_matches_eager(self, seed, amp):
        model = dispersive_model(1e6, 3, cavity_drive=True)
        vec = np.zeros(6, dtype=complex)
        vec[model.shape.flat_index([0, 1])] = 1.0
        target = StateVector((2, 3), vec)
        guard = (model.shape.flat_index([0, 2]), model.shape.flat_index([1, 2]))
        sched = PulseSchedule(1e-8, (np.full(24, amp + 0j),
                                     np.zeros(24, dtype=complex)), (0.0, 0.0))
        self._check_grape(model, target, sched, seed, guard_indices=guard,
                          leak_weight=0.7, tol=1e-6)

    def test_grape_converged_identity_is_not_seeded(self):
        res = self._check_grape(qubit_model(), Operator(shape_of(2), np.eye(2)),
                                constant_schedule(0.0, 10, 1e-9), seed=1)
        assert res.iterations == 0 and res.converged
        assert not np.any(res.schedule.streams[0])

    def test_grape_stagnation_matches_eager(self):
        # a negative tol is out of reach: the search ends on rejected trials
        res = self._check_grape(qubit_model(2e5), self._X,
                                constant_schedule(0.0, 8, 1e-8), seed=4,
                                iterations=1000, tol=-1.0)
        assert not res.converged and res.iterations < 1000

    @given(seed=st.integers(0, 2**32 - 1), detuning=st.floats(-3e6, 3e6))
    @settings(max_examples=6)
    def test_grape_nonzero_start_matches_eager(self, seed, detuning):
        rng = np.random.default_rng(seed)
        sched = PulseSchedule(1e-8, (3e5 * (rng.standard_normal(16)
                                            + 1j * rng.standard_normal(16)),),
                              (0.0,))
        self._check_grape(qubit_model(detuning), self._X, sched, seed)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    @settings(max_examples=8)
    def test_sequence_prep_matches_eager(self, seed, dim):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        res = optimize_snap_displacement_sequence(vec, blocks=3, seed=seed,
                                                  iterations=25, tol=1e-4)
        al, th, j_raw, iters, converged, trace = _eager_sequence(
            vec, 3, seed, 25, 0.1, 1e-4)
        assert repr(res.trace) == repr(trace)
        assert (res.iterations, res.converged) == (iters, converged)
        assert _same_bits(np.array(res.alphas), al)
        assert _same_bits(res.thetas, th)
        assert _same_bits(res.fidelity, j_raw)

    @staticmethod
    def _count(monkeypatch, forward_name):
        """Count forward passes (calls of forward_name in pulse), adjoints
        and the trials _ascend evaluates."""
        counts = {"forward": 0, "adjoint": 0, "trials": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pulse, forward_name,
                            counted("forward", getattr(pulse, forward_name)))
        monkeypatch.setattr(pulse, "_frechet_adjoint",
                            counted("adjoint", pulse._frechet_adjoint))
        ascend = pulse._ascend
        monkeypatch.setattr(pulse, "_ascend", lambda objective, *rest, **kw:
                            ascend(counted("trials", objective), *rest, **kw))
        return counts

    @pytest.mark.parametrize("seed", [None, 7])
    def test_grape_adjoint_only_for_kept_points(self, monkeypatch, seed):
        rng = np.random.default_rng(3)
        amps = (np.zeros(50, dtype=complex) if seed is not None
                else 3e5 * (rng.standard_normal(50) + 1j * rng.standard_normal(50)))
        counts = self._count(monkeypatch, "hermitian_eigensystem")
        res = grape_optimize(qubit_model(1e5), self._X,
                             PulseSchedule(1e-8, (amps,), (0.0,)),
                             iterations=12, seed=seed, tol=1e-15)
        assert counts["trials"] > res.iterations  # at least one backtrack
        assert counts["adjoint"] == res.iterations + 1
        assert counts["forward"] == 1 + counts["trials"] + (seed is not None)

    def test_sequence_adjoint_only_for_kept_points(self, monkeypatch):
        counts = self._count(monkeypatch, "_displacement_eigensystem")
        rng = np.random.default_rng(8)
        res = optimize_snap_displacement_sequence(
            rng.standard_normal(6) + 1j * rng.standard_normal(6), blocks=4,
            seed=2, iterations=40)
        assert counts["trials"] > res.iterations
        assert counts["adjoint"] == res.iterations + 1
        assert counts["forward"] == 1 + counts["trials"]

    def test_stagnation_stops_once_the_step_leaves_x_unchanged(self, monkeypatch):
        # once x + lr*g equals x bit for bit, so does every smaller step: the
        # search stops there instead of halving the step down to 1e-18, with
        # fewer forward passes and the eager search's results bit for bit
        counts = self._count(monkeypatch, "_grape_pass")
        res = self._check_grape(qubit_model(), self._X, constant_schedule(0.0, 8, 1e-8),
                                seed=3, iterations=1000, tol=-1.0)
        assert not res.converged and res.iterations < 1000
        # forward passes: two starts (zero, then seeded) and the trials of
        # grape_optimize, then the eager search's j0, start, trials and final
        eager_trials = counts["forward"] - counts["trials"] - 5
        assert counts["trials"] < eager_trials


class TestQuasiNewtonAscent:
    """_ascend with memory > 0 on objectives with no physics in them."""

    @staticmethod
    def _quadratic(seed, dim=20):
        """J = 1 - (x - x*)^T A (x - x*)/2, concave, cond(A) = 1e3, max 1."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = q @ np.diag(np.logspace(0, 3, dim)) @ q.T
        x_star = rng.standard_normal(dim)

        def objective(x):
            r = x - x_star
            j = 1.0 - 0.5 * r @ a @ r
            return j, j, lambda: -(a @ r)
        return objective

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_quadratic_takes_far_fewer_iterations(self, seed):
        # measured: 148-169 iterations with memory, 4,312-5,262 without
        objective = self._quadratic(seed)
        x0 = np.zeros(20)
        iters = {}
        for memory in (0, pulse._SEQUENCE_MEMORY):
            _, _, iters[memory], converged, trace = pulse._ascend(
                objective, x0, objective(x0), 20000, 1e-10, 1e-3, memory)
            assert converged and trace[-1][1] <= 1e-10
        assert iters[pulse._SEQUENCE_MEMORY] <= 200
        assert 10 * iters[pulse._SEQUENCE_MEMORY] < iters[0]

    def test_pairs_without_positive_curvature_are_dropped(self, monkeypatch):
        # J = sin(x) is convex below 0: the first steps from -1.2 give
        # s.y < 0, so they stay steepest-ascent steps growing by 1.3
        handed = []
        direction = pulse._quasi_newton_direction

        def spy(g, pairs):
            handed.append([_real_dot(s, y) for s, y, _ in pairs])
            return direction(g, pairs)

        monkeypatch.setattr(pulse, "_quasi_newton_direction", spy)
        kept = []

        def objective(x):
            j = float(np.sin(x[0]))
            return j, j, lambda: kept.append(x.copy()) or np.cos(x)

        x0 = np.array([-1.2])
        _, _, iters, converged, trace = pulse._ascend(
            objective, x0, objective(x0), 100, 1e-12, 0.3, 5)
        assert converged
        infids = [row[1] for row in trace]
        assert all(b <= a for a, b in zip(infids, infids[1:]))
        xs = np.array(kept)
        curvature = [_real_dot(xs[k + 1] - xs[k], np.cos(xs[k]) - np.cos(xs[k + 1]))
                     for k in range(len(xs) - 1)]
        dropped = next(k for k, sy in enumerate(curvature) if sy > 0)
        assert dropped >= 2  # steps 0..dropped-1 had s.y <= 0
        assert [row[2] for row in trace[1:dropped + 2]] == pytest.approx(
            [0.3 * 1.3**k for k in range(dropped + 1)], rel=1e-12)
        assert handed and all(sy > 0 for pairs in handed for sy in pairs)
        assert handed[0] == [curvature[dropped]]

    def test_direction_that_overflows_fails_its_trials_without_a_warning(self):
        # the first step has s = (1e-160, 1) and y = (1e-160, 0), so s.y =
        # 1e-320 and 1/s.y = inf: the recursion multiplies inf by y's zero,
        # the direction is not finite, its trials fail and the search stops
        def objective(x):
            j = 1e-6 * float(x[1])
            return j, j, lambda: np.array([1e-160 if j == 0.0 else 0.0, 1.0])

        x0 = np.zeros(2)
        x, _, iters, converged, _ = pulse._ascend(
            objective, x0, objective(x0), 10, -1.0, 1.0, 5)
        assert (x.tolist(), iters, converged) == ([1e-160, 1.0], 1, False)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sequence_jobs_end_no_worse_than_steepest_ascent(self, monkeypatch, seed):
        # the benchmark's seqprep construction: dims 8 and 10, 200 iterations
        rng = np.random.default_rng(seed)
        for dim in (8, 10):
            target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            opt_seed = int(rng.integers(2**31))
            ends = {}
            for memory in (0, pulse._SEQUENCE_MEMORY):
                monkeypatch.setattr(pulse, "_SEQUENCE_MEMORY", memory)
                res = optimize_snap_displacement_sequence(target, seed=opt_seed, tol=1e-3,
                                                          iterations=200)
                ends[memory] = (res.trace[-1][1], res.converged)
            (steepest, steepest_converged), (infid, converged) = ends.values()
            assert infid <= max(1e-3, steepest)
            assert converged or not steepest_converged


def _rebuilt_sequence_fidelity(res, target):
    """|<t|psi>|^2 of the sequence applied with gates.displacement and
    gates.snap, the target normalized and padded to res.n_levels."""
    n = res.n_levels
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    for k, alpha in enumerate(res.alphas):
        psi = gates.displacement(alpha, n).matrix @ psi
        if k < len(res.thetas):
            psi = gates.snap(res.thetas[k]).matrix @ psi
    padded = np.zeros(n, dtype=complex)
    padded[:len(target)] = target / np.linalg.norm(target)
    return abs(np.vdot(padded, psi)) ** 2


def _rebuilt_grape_fidelity(model, schedule, target):
    """|Tr(T^dag U)/d|^2 with U the product of scipy expm of each segment."""
    u = np.eye(model.shape.total_dim, dtype=complex)
    ops = [c.matrix for c in model.controls]
    for amps in zip(*schedule.streams):
        h = model.drift.matrix.copy()
        for s, amp in enumerate(amps):
            h = h + 2 * np.pi * (amp.real * ops[2 * s] + amp.imag * ops[2 * s + 1])
        u = scipy.linalg.expm(-1j * h * schedule.dt_s) @ u
    return abs(np.trace(target.matrix.conj().T @ u) / model.shape.total_dim) ** 2


# learning rates log-uniform over 1e-3 to 1e300
_LEARNING_RATES = st.floats(-3.0, 300.0).map(lambda e: 10.0**e)


class TestOptimizerContract:
    """Each optimizer call either raises a CavityQError or returns a
    fidelity that an independent rebuild reproduces, with no warning."""

    @given(target=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=4),
           blocks=st.integers(1, 3), seed=st.integers(0, 2**31),
           iterations=st.integers(1, 8), learning_rate=_LEARNING_RATES)
    @settings(max_examples=60, derandomize=True)
    @example(target=[0.6, 0.0, 0.8], blocks=2, seed=0, iterations=5, learning_rate=1e300)
    def test_sequence_results_rebuild(self, target, blocks, seed, iterations, learning_rate):
        # the example accepted steps to |alpha| = 3e296 and reported 0.834
        # where the rebuild gave 0.013
        try:
            res = optimize_snap_displacement_sequence(
                target, blocks=blocks, seed=seed, iterations=iterations,
                learning_rate=learning_rate)
        except CavityQError:
            return
        rebuilt = _rebuilt_sequence_fidelity(res, np.array(target))
        assert rebuilt == pytest.approx(res.fidelity, abs=1e-9)

    @given(dispersive=st.booleans(), n_segments=st.integers(2, 12),
           seed=st.integers(0, 2**31), iterations=st.integers(1, 6),
           learning_rate=_LEARNING_RATES)
    @settings(max_examples=60, derandomize=True)
    def test_grape_results_rebuild(self, dispersive, n_segments, seed, iterations,
                                   learning_rate):
        rng = np.random.default_rng(seed)
        if dispersive:
            chi, n = 1e6, 2 + seed % 2
            model = dispersive_model(chi, n)
            theta = rng.uniform(-np.pi, np.pi, n)
            target = Operator(model.shape, np.kron(np.eye(2), np.diag(np.exp(1j * theta))))
            dt = 4.0 / (chi * n_segments)
        else:
            model = qubit_model(rng.uniform(-2e6, 2e6))
            target = Operator(model.shape, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
            dt = 5e-8 / n_segments
        try:
            res = grape_optimize(model, target, constant_schedule(0.0, n_segments, dt,
                                                                  model.n_streams),
                                 iterations=iterations, learning_rate=learning_rate,
                                 seed=seed)
        except CavityQError:
            return
        assert _rebuilt_grape_fidelity(model, res.schedule, target) == pytest.approx(
            res.fidelity, abs=1e-9)


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _dispersive_variant(n=3, chi_hz=1e6, drift=None, controls=None):
    """dispersive_model(chi_hz, n) with its drift matrix or its qubit
    controls replaced."""
    model = dispersive_model(chi_hz, n)
    shape = model.shape
    h = model.drift.matrix if drift is None else drift(model.drift.matrix.copy())
    ops = model.controls if controls is None else tuple(
        Operator(shape, c) for c in controls(np.eye(n)))
    return ControlModel(shape, Operator(shape, h), ops)


def _set(h, i, j, value):
    h[i, j] = value
    h[j, i] = np.conj(value)
    return h


# models that are not dispersive_model(chi, N) for any chi: each must raise
# UsageError itself, not its ShapeError subclass
_NOT_DISPERSIVE = {
    "off-diagonal drift": lambda: _dispersive_variant(
        drift=lambda h: _set(h, 3, 4, 2 * np.pi * 1e3)),
    "qubit-ground sector": lambda: _dispersive_variant(
        drift=lambda h: _set(h, 1, 1, 2 * np.pi * 1e3)),
    "wrong ladder": lambda: _dispersive_variant(
        drift=lambda h: _set(h, 5, 5, 1.5 * h[5, 5])),
    "negative chi": lambda: _dispersive_variant(drift=lambda h: -h),
    "zero chi": lambda: _dispersive_variant(drift=np.zeros_like),
    "swapped controls": lambda: _dispersive_variant(
        controls=lambda eye: (np.kron(_SIGMA_Y, eye), np.kron(_SIGMA_X, eye))),
    "cavity controls": lambda: _dispersive_variant(
        controls=lambda eye: tuple(c.matrix for c in
                                   dispersive_model(1e6, 3, cavity_drive=True).controls[2:])),
    "one cavity level": lambda: ControlModel(
        shape_of((2, 1)), Operator(shape_of((2, 1)), np.diag([0.0, -2 * np.pi * 1e6])),
        (Operator(shape_of((2, 1)), _SIGMA_X), Operator(shape_of((2, 1)), _SIGMA_Y))),
}


class TestSnapModelCheck:
    """synthesize_snap_pulse takes exactly the models dispersive_model builds."""

    @pytest.mark.parametrize("case", list(_NOT_DISPERSIVE))
    def test_rejects_models_that_are_not_dispersive(self, case):
        model = _NOT_DISPERSIVE[case]()
        with pytest.raises(UsageError) as info:
            synthesize_snap_pulse(model, np.zeros(model.shape.dims[1]), 1e-5)
        assert info.type is UsageError

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (4,)])
    def test_rejects_shapes_other_than_qubit_and_cavity(self, dims):
        shape = shape_of(dims)
        d = shape.total_dim
        model = ControlModel(shape, Operator(shape, np.zeros((d, d))),
                             (Operator(shape, np.eye(d)), Operator(shape, np.eye(d))))
        with pytest.raises(ShapeError, match=r"expected a \(2, N\) qubit-cavity shape"):
            synthesize_snap_pulse(model, np.zeros(3), 1e-5)

    @pytest.mark.parametrize("chi_hz, n", [(1e6, 2), (1.7e6, 5), (0.53e6, 8)])
    def test_cavity_drive_model_gives_the_same_chi(self, chi_hz, n):
        plain = dispersive_model(chi_hz, n)
        driven = dispersive_model(chi_hz, n, cavity_drive=True)
        # chi as read before the check was written against dispersive_model
        expected = -np.diag(plain.drift.matrix).real[n + 1] / (2 * np.pi)
        for model in (plain, driven):
            chi, levels = pulse._dispersive_chi_from_model(model)
            assert (chi, levels) == (expected, n)
            assert np.float64(chi).tobytes() == np.float64(expected).tobytes()
        theta = np.linspace(-1.0, 1.0, n)
        duration = 2 * 2 * np.pi / chi_hz
        a = synthesize_snap_pulse(plain, theta, duration, precompensate=False)
        b = synthesize_snap_pulse(driven, theta, duration, precompensate=False)
        assert b.n_streams == 2 and not b.streams[1].any()
        assert np.array_equal(a.streams[0], b.streams[0])

    @pytest.mark.parametrize("bad,reason", [
        ("0.5", "theta entries must be real numbers, got '0.5'"),
        (True, "theta entries must be real numbers, got True"),
        (np.True_, "theta entries must be real numbers, got np.True_"),
        (None, "theta entries must be real numbers, got None"),
        ([0.5], "theta must be 1-D, got ragged rows")])
    def test_phases_follow_the_snap_constructors_rule(self, bad, reason):
        model = dispersive_model(1e6, 3)
        u = Operator(model.shape, np.eye(6, dtype=complex))
        theta = [0.0, bad, 0.5]
        with pytest.raises(UsageError, match=re.escape(reason)):
            synthesize_snap_pulse(model, theta, 1e-5)
        with pytest.raises(UsageError, match=re.escape(reason)):
            snap_average_fidelity(u, theta)
        with pytest.raises(UsageError, match=re.escape(reason)):
            gates.snap(theta)

    def test_phase_strings_alone_are_refused(self):
        model = dispersive_model(1e6, 3)
        with pytest.raises(UsageError, match="theta entries must be real numbers, got '0'"):
            synthesize_snap_pulse(model, ["0", True, "0.5"], 1e-5)
        with pytest.raises(UsageError, match="theta entries must be real numbers, got '0'"):
            snap_average_fidelity(Operator(model.shape, np.eye(6)), ["0", True, "0.5"])

    def test_fidelity_checks_phase_count_and_finiteness(self):
        u = Operator(shape_of((2, 3)), np.eye(6, dtype=complex))
        assert snap_average_fidelity(u, [0, 0, 0]) == pytest.approx(1.0)
        with pytest.raises(ShapeError, match="snap needs 3 phases, got 2"):
            snap_average_fidelity(u, [0.0, 0.0])
        with pytest.raises(NumericError, match="non-finite entries in theta"):
            snap_average_fidelity(u, [0.0, np.nan, 0.0])
        with pytest.raises(ShapeError, match=r"expected a \(2, N\) qubit-cavity shape"):
            snap_average_fidelity(Operator(shape_of((3, 2)), np.eye(6)), [0.0, 0.0])


def _per_level_snap_drive(chi_hz, n, phases1, phases2, duration_s, n_segments):
    """The SNAP drive with one chirp per level built from its n − 1 pair
    shifts Ω²/(4πχ(l−m)), each level taking its own cumulative sum."""
    dt = duration_s / n_segments
    t_half = duration_s / 2
    sigma = t_half / pulse._SNAP_SIGMA_DIVISOR
    tm = (np.arange(n_segments) + 0.5) * dt
    env = np.zeros(n_segments)
    for half in (0, 1):
        t0, t1 = half * t_half, (half + 1) * t_half
        mask = (tm >= t0) & (tm < t1)
        e = np.exp(-((tm[mask] - (t0 + t1) / 2) ** 2) / (2 * sigma**2))
        e *= 0.25 / (e.sum() * dt)
        env[mask] = e
    omega_sq = (4 * np.pi * env) ** 2
    u = np.zeros(n_segments, dtype=complex)
    for level in range(n):
        shift = np.zeros(n_segments)
        for m in range(n):
            if m != level:
                shift += omega_sq / (2 * 2 * np.pi * chi_hz * (level - m))
        phases = np.where(tm >= t_half, phases2[level], phases1[level])
        u += env * np.exp(1j * (phases + 2 * np.pi * chi_hz * level * tm
                                + np.cumsum(shift) * dt))
    return u


def _whole_array_snap_drive(chi_hz, n, phases1, phases2, duration_s, n_segments):
    """The SNAP drive built on whole arrays: every midpoint, the envelope and
    the chirp area at once, then one level at a time over all segments."""
    dt = duration_s / n_segments
    t_half = duration_s / 2
    sigma = t_half / pulse._SNAP_SIGMA_DIVISOR
    tm = (np.arange(n_segments) + 0.5) * dt
    env = np.zeros(n_segments)
    for half in (0, 1):
        t0, t1 = half * t_half, (half + 1) * t_half
        mask = (tm >= t0) & (tm < t1)
        e = np.exp(-((tm[mask] - (t0 + t1) / 2) ** 2) / (2 * sigma**2))
        e *= 0.25 / (e.sum() * dt)
        env[mask] = e
    harmonic = np.concatenate(([0.0], np.cumsum(1 / np.arange(1.0, n))))
    stark = (harmonic - harmonic[::-1]) / (4 * np.pi * chi_hz)
    area = np.cumsum((4 * np.pi * env) ** 2) * dt
    u = np.zeros(n_segments, dtype=complex)
    for level in range(n):
        phases = np.where(tm >= t_half, phases2[level], phases1[level])
        u += env * np.exp(1j * (phases + 2 * np.pi * chi_hz * level * tm + stark[level] * area))
    return u


def _whole_coefficient_propagator(model, amps, dt):
    """The chunked propagator with the (2S, M) control coefficients of all
    (S, M) amplitudes built at once and sliced per chunk."""
    coeffs = pulse._control_coefficients(amps)
    d = model.shape.total_dim
    prop = np.zeros((d, d), dtype=complex)
    for group in model.block_layout:
        step = max(1, pulse._CHUNK_ENTRIES // group.drift.size)
        total = None
        for start in range(0, coeffs.shape[1], step):
            h = group.drift + np.einsum("km,kbij->mbij", coeffs[:, start:start + step],
                                        group.controls)
            u = pulse._ordered_product(fock.expm_hermitian(h, dt))
            total = u if total is None else fock._matmul(u, total)
        prop[group.grid] = total
    return prop


def _around(chunk):
    """Segment counts at a chunk's edges."""
    return chunk - 1, chunk, chunk + 1, 2 * chunk + 1


def _halves_around(chunk):
    """Segment counts whose halves end at or next to a chunk's edge."""
    return 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 2 * chunk + 2, 4 * chunk + 1


class TestStreamedSnapPath:
    """The SNAP path built chunk by chunk: bitwise its whole-array forms at
    the chunk edges, and holding only the schedule plus one chunk."""

    @pytest.mark.parametrize("entries", [300, pulse._CHUNK_ENTRIES])
    @pytest.mark.parametrize("n_levels", [1, 3, 8])
    def test_drive_samples_match_the_whole_array_form(self, entries, n_levels):
        rng = np.random.default_rng(n_levels)
        chi = float(rng.uniform(0.5e6, 2e6))
        phases1, phases2 = rng.uniform(-np.pi, np.pi, (2, n_levels))
        duration = float(rng.uniform(1.0, 4.0)) * 2 * np.pi / chi
        with mock.patch.object(pulse, "_CHUNK_ENTRIES", entries):
            for n_segments in _around(entries // 4) + _halves_around(entries // 4):
                got = pulse._snap_drive_samples(chi, n_levels, phases1, phases2, duration,
                                                n_segments)
                expected = _whole_array_snap_drive(chi, n_levels, phases1, phases2, duration,
                                                   n_segments)
                assert got.tobytes() == expected.tobytes(), n_segments

    @pytest.mark.parametrize("kind", ["qubit", "dispersive", "cavity_drive"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_propagator_matches_the_whole_coefficient_form(self, kind, seed):
        rng = np.random.default_rng(seed)
        model, _ = _random_model(kind, rng)
        [group] = model.block_layout
        with mock.patch.object(pulse, "_CHUNK_ENTRIES", 300):
            for n_segments in _around(300 // group.drift.size):
                amps = 1e6 * (rng.standard_normal((model.n_streams, n_segments))
                              + 1j * rng.standard_normal((model.n_streams, n_segments)))
                sched = PulseSchedule(1e-7, tuple(amps), (0.0,) * model.n_streams)
                got = simulate_schedule(model, sched, return_propagator=True).matrix
                expected = _whole_coefficient_propagator(model, np.stack(sched.streams), 1e-7)
                assert got.tobytes() == expected.tobytes(), n_segments

    def test_long_pulse_holds_its_stream_plus_one_chunk(self):
        # 203,575 segments; whole arrays took 6.3x the stream to synthesize and
        # 3x more to simulate
        chi, n = 1e6, 4
        model = dispersive_model(chi, n)
        theta = np.linspace(-1.0, 2.0, n)
        synthesize_snap_pulse(model, theta, 4 * np.pi / chi)  # caches the block layout
        tracemalloc.start()
        try:
            sched = synthesize_snap_pulse(model, theta, 36 * 2 * np.pi / chi)
            synthesis = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            simulate_schedule(model, sched, return_propagator=True)
            simulation = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        stream = sched.streams[0].nbytes
        assert sched.n_segments == 203575
        # the samples and the schedule's checked copy of them, plus one chunk
        assert synthesis <= 2.5 * stream
        assert simulation <= 0.5 * stream


class TestSnapStructuredForms:
    """The SNAP drive and score against the general forms they replaced."""

    @given(n=st.integers(1, 9), chi=st.floats(0.5e6, 2e6), factor=st.floats(1.0, 2.5),
           n_segments=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    def test_drive_matches_per_level_chirps(self, n, chi, factor, n_segments, seed):
        rng = np.random.default_rng(seed)
        phases1, phases2 = rng.uniform(-np.pi, np.pi, (2, n))
        duration = factor * 2 * np.pi / chi
        got = pulse._snap_drive_samples(chi, n, phases1, phases2, duration, n_segments)
        expected = _per_level_snap_drive(chi, n, phases1, phases2, duration, n_segments)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_average_fidelity_matches_m_form(self, n, seed):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n)))
        theta = rng.uniform(-np.pi, np.pi, n)
        m = np.exp(-1j * theta)[:, None] * u[:n, :n]
        expected = (abs(np.trace(m)) ** 2 + np.trace(m.conj().T @ m).real) / (n * (n + 1))
        got = snap_average_fidelity(Operator(shape_of((2, n)), u), theta)
        assert abs(got - expected) <= 1e-14


# bounds on |‖Uψ‖ − 1| and on the largest entry of |U†U − I|: 10× the
# largest values measured over the 30 examples of the test below and 1,000
# more random schedules of the same kinds (x86-64, OpenBLAS, one thread)
NORM_DRIFT_BOUND = 10 * 4.98e-13
UNITARITY_DEFECT_BOUND = 10 * 1.13e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       n_levels=st.one_of(st.none(), st.integers(2, 8)),
       cavity_drive=st.booleans(),
       n_segments=st.one_of(st.integers(1, 100), st.integers(1000, 10**4)))
def test_long_schedules_keep_norm_and_unitarity(seed, n_levels, cavity_drive, n_segments):
    # a random schedule on the qubit model (n_levels None) or a dispersive one
    rng = np.random.default_rng(seed)
    model = (qubit_model(float(rng.uniform(-2e6, 2e6))) if n_levels is None
             else dispersive_model(float(rng.uniform(0.5e6, 2e6)), n_levels, cavity_drive))
    shape = (model.n_streams, n_segments)
    amps = rng.normal(scale=1e6, size=shape) + 1j * rng.normal(scale=1e6, size=shape)
    schedule = PulseSchedule(1e-8, tuple(amps), (0.0,) * model.n_streams)
    dim = model.shape.total_dim
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 = StateVector(model.shape, psi / np.linalg.norm(psi))
    state, u = simulate_schedule(model, schedule, psi0, return_propagator=True)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= NORM_DRIFT_BOUND
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim))) <= UNITARITY_DEFECT_BOUND
