import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityq import qst
from cavityq.errors import (
    CapacityError,
    DegenerateDetuningError,
    NumericError,
    ParseError,
    ShapeError,
    StepSizeError,
    UsageError,
)

KAPPA = 1e6
HALF_SPAN = 20.0 / KAPPA  # kappa * T_span = 40


def matched_config(dt=0.04 / KAPPA, delta=0.0, input_state=(0.0, 1.0)):
    return qst.QstConfig(
        kappa_hz=KAPPA,
        emit_waveform=qst.matched_emit_rate(KAPPA),
        catch_waveform=qst.matched_catch_rate(KAPPA),
        t_span_s=(-HALF_SPAN, HALF_SPAN),
        dt_s=dt,
        delta_omega_hz=delta,
        input_state=input_state,
    )


def zero_waveform():
    return qst.SampledWaveform(np.zeros(2), 2 * HALF_SPAN, -HALF_SPAN)


class TestSechPitch:
    def test_peak_is_half_kappa(self):
        assert qst.sech_pitch(2e6, 0.0) == pytest.approx(1e6, rel=1e-15)

    def test_even_and_vectorized(self):
        t = np.linspace(-3e-5, 3e-5, 17)
        vals = qst.sech_pitch(KAPPA, t)
        np.testing.assert_allclose(vals, qst.sech_pitch(KAPPA, -t), rtol=1e-15)
        assert vals[8] == max(vals)
        assert qst.sech_pitch(KAPPA, t[3]) == pytest.approx(vals[3])

    def test_emission_capture_over_window(self):
        # emit-only run: the window [-20/k, 20/k] releases nearly the whole
        # photon, and the flux integral matches the closed form 1 - e^{-20}
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=qst.matched_emit_rate(KAPPA),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        res = qst.simulate_transfer(cfg)
        emitted = res.emitted_trace[-1]
        assert emitted > 0.9999
        assert emitted == pytest.approx(1 - math.exp(-20.0), abs=1e-8)

    def test_flux_profile_is_squared_envelope(self):
        # channel flux density of the matched emitter = sech_pitch^2 / kappa
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=qst.matched_emit_rate(KAPPA),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        res = qst.simulate_transfer(cfg)
        flux = qst.sech_pitch(KAPPA, res.times_s) ** 2 / KAPPA
        integral = np.trapezoid(flux, x=res.times_s)
        assert integral == pytest.approx(res.emitted_trace[-1], abs=1e-4)


class TestRamanCoupling:
    def test_zero_drive(self):
        assert qst.raman_coupling(0.0, 10e6, -200e6, 1e9) == 0.0

    def test_linear_in_drive(self):
        one = qst.raman_coupling(1.0, 10e6, -200e6, 1e9)
        assert qst.raman_coupling(7.5, 10e6, -200e6, 1e9) == pytest.approx(
            7.5 * one, rel=1e-12
        )

    def test_reference_point(self):
        val = qst.raman_coupling(50e6, 10e6, -200e6, 1e9)
        expect = 10e6 * 50e6 * (-200e6) / (math.sqrt(2) * 1e9 * 0.8e9)
        assert val == pytest.approx(expect, rel=1e-12)
        assert val == pytest.approx(-88.4e3, rel=1e-3)

    def test_pointwise_in_envelope(self):
        env = np.array([0.0, 1e6, 2e6, 3e6])
        out = qst.raman_coupling(env, 10e6, -200e6, 1e9)
        assert out.shape == env.shape
        np.testing.assert_allclose(
            out, [qst.raman_coupling(float(x), 10e6, -200e6, 1e9) for x in env]
        )

    def test_singular_detunings(self):
        with pytest.raises(DegenerateDetuningError):
            qst.raman_coupling(1e6, 10e6, -200e6, 0.0)
        with pytest.raises(DegenerateDetuningError):
            qst.raman_coupling(1e6, 10e6, -200e6, 200e6)


class TestSampledWaveform:
    def test_interpolates_and_clamps(self):
        wf = qst.SampledWaveform(np.array([0.0, 2.0, 4.0]), 1.0, 10.0)
        assert wf(10.5) == pytest.approx(1.0)
        assert wf(12.0) == pytest.approx(4.0)
        assert wf(9.0) == pytest.approx(0.0)  # clamp below
        assert wf(13.0) == pytest.approx(4.0)  # clamp above

    def test_negative_rates_rejected(self):
        with pytest.raises(UsageError):
            qst.SampledWaveform(np.array([1.0, -0.1]), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            qst.SampledWaveform(np.array([1.0, np.nan]), 1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            qst.SampledWaveform(np.array([1.0]), 1.0)

    def test_integral(self):
        wf = qst.SampledWaveform(np.array([0.0, 1.0, 0.0]), 0.5)
        assert wf.integral() == pytest.approx(0.5)


class TestSimulateTransfer:
    def test_matched_transfer_efficiency(self):
        res = qst.simulate_transfer(matched_config())
        assert res.eta > 0.99999
        assert abs(res.transfer_amplitude.imag) < 1e-9
        assert res.transfer_amplitude.real > 0.999

    def test_matches_closed_form_solution(self):
        # a = sqrt((1-tanh)/2), b = -sqrt((1+tanh)/2); the b deviation at t0
        # is the finite-window truncation of the idealized solution
        res = qst.simulate_transfer(matched_config())
        x = KAPPA * res.times_s / 2
        a_exact = np.sqrt((1 - np.tanh(x)) / 2)
        b_exact = -np.sqrt((1 + np.tanh(x)) / 2)
        np.testing.assert_allclose(res.a_trace, a_exact, atol=1e-4)
        np.testing.assert_allclose(res.b_trace, b_exact, atol=1e-4)

    def test_superposition_fidelity(self):
        alpha, beta = 1 / math.sqrt(2), 1j / math.sqrt(2)
        res = qst.simulate_transfer(matched_config(input_state=(alpha, beta)))
        assert res.fidelity == pytest.approx(1.0, abs=1e-7)
        assert res.fidelity >= abs(alpha) ** 4

    def test_vacuum_branch_always_transfers(self):
        # beta = 0: F = 1 no matter how bad the catch waveform is
        rng = np.random.default_rng(3)
        bad_catch = qst.SampledWaveform(
            rng.uniform(0, KAPPA, 64), 2 * HALF_SPAN / 63, -HALF_SPAN
        )
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=qst.matched_emit_rate(KAPPA),
            catch_waveform=bad_catch,
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.01 / KAPPA,
            input_state=(1.0, 0.0),
        )
        res = qst.simulate_transfer(cfg)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.eta < 0.9  # the excitation branch really was mismatched

    def test_zero_couplings_leave_receiver_empty(self):
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=zero_waveform(),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        res = qst.simulate_transfer(cfg)
        assert res.eta == 0.0
        np.testing.assert_array_equal(res.b_trace, 0.0)
        np.testing.assert_allclose(res.a_trace, 1.0, atol=1e-15)

    def test_excitation_accounting_every_sample(self):
        for cfg in (matched_config(), matched_config(dt=0.02 / KAPPA)):
            res = qst.simulate_transfer(cfg)
            total = (
                np.abs(res.a_trace) ** 2
                + np.abs(res.b_trace) ** 2
                + res.emitted_trace
            )
            np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_accounting_with_mismatched_catch(self):
        rng = np.random.default_rng(11)
        catch = qst.SampledWaveform(
            rng.uniform(0, 2 * KAPPA, 128), 2 * HALF_SPAN / 127, -HALF_SPAN
        )
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=qst.matched_emit_rate(KAPPA),
            catch_waveform=catch,
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.01 / KAPPA,
        )
        res = qst.simulate_transfer(cfg)
        total = (
            np.abs(res.a_trace) ** 2 + np.abs(res.b_trace) ** 2 + res.emitted_trace
        )
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_detuning_symmetry(self):
        ep = qst.simulate_transfer(matched_config(delta=0.03 * KAPPA)).eta
        em = qst.simulate_transfer(matched_config(delta=-0.03 * KAPPA)).eta
        assert ep == pytest.approx(em, abs=1e-14)

    def test_eta_monotone_near_zero_detuning(self):
        etas = [
            qst.simulate_transfer(matched_config(delta=d * KAPPA)).eta
            for d in (0.0, 0.01, 0.02, 0.04)
        ]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_rk4_order(self):
        # detuned so eta has O(1) sensitivity; halving dt shrinks the error
        # by about 16
        def eta_at(dt):
            return qst.simulate_transfer(
                matched_config(dt=dt, delta=0.3 * KAPPA)
            ).eta

        ref = eta_at(0.05 / KAPPA / 16)
        e1 = eta_at(0.05 / KAPPA) - ref
        e2 = eta_at(0.025 / KAPPA) - ref
        assert 12.0 < abs(e1 / e2) < 20.0

    def test_matched_catch_beats_random_family(self):
        # 100 random equal-integral catch waveforms, all smooth and nonneg
        base = matched_config(dt=0.01 / KAPPA)
        eta_matched = qst.simulate_transfer(base).eta
        n_grid = 257
        tgrid = np.linspace(-HALF_SPAN, HALF_SPAN, n_grid)
        u = tgrid / HALF_SPAN
        target_integral = 20.0  # integral of the matched catch rate
        rng = np.random.default_rng(7)
        for _ in range(100):
            c1, c2, c3 = rng.uniform(-0.8, 0.8, 3)
            p1, p2 = rng.uniform(0, 2 * np.pi, 2)
            prof = (
                1.0
                + c1 * np.sin(np.pi * u + p1)
                + c2 * np.sin(2 * np.pi * u + p2)
                + c3 * np.cos(3 * np.pi * u)
            ) ** 2
            vals = prof * (target_integral / np.trapezoid(prof, x=tgrid))
            catch = qst.SampledWaveform(vals, tgrid[1] - tgrid[0], -HALF_SPAN)
            cfg = qst.QstConfig(
                kappa_hz=KAPPA,
                emit_waveform=base.emit_waveform,
                catch_waveform=catch,
                t_span_s=(-HALF_SPAN, HALF_SPAN),
                dt_s=0.01 / KAPPA,
            )
            assert qst.simulate_transfer(cfg).eta < eta_matched

    def test_step_size_guard(self):
        with pytest.raises(StepSizeError):
            qst.simulate_transfer(matched_config(dt=0.06 / KAPPA))

    def test_negative_rate_rejected(self):
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=lambda t: -np.ones_like(np.asarray(t, dtype=float)),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        with pytest.raises(UsageError):
            qst.simulate_transfer(cfg)

    def test_nonfinite_rate_rejected(self):
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=lambda t: np.full_like(np.asarray(t, float), np.inf),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        with pytest.raises(NumericError):
            qst.simulate_transfer(cfg)

    def test_scalar_only_callables_accepted(self):
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=lambda t: float(qst.sech_pitch(KAPPA, float(t))),
            catch_waveform=zero_waveform(),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        res = qst.simulate_transfer(cfg)
        assert 0.0 < res.emitted_trace[-1] < 1.0


class TestQstConfigValidation:
    def test_unnormalized_input_rejected(self):
        with pytest.raises(UsageError, match="normalized"):
            matched_config(input_state=(1.0, 1.0))

    def test_thermal_hook_must_be_zero(self):
        with pytest.raises(UsageError, match="channel_temperature"):
            qst.QstConfig(
                kappa_hz=KAPPA,
                emit_waveform=qst.matched_emit_rate(KAPPA),
                catch_waveform=qst.matched_catch_rate(KAPPA),
                t_span_s=(-HALF_SPAN, HALF_SPAN),
                dt_s=0.04 / KAPPA,
                channel_temperature=0.1,
            )

    def test_bad_span_rejected(self):
        with pytest.raises(UsageError):
            qst.QstConfig(
                kappa_hz=KAPPA,
                emit_waveform=qst.matched_emit_rate(KAPPA),
                catch_waveform=qst.matched_catch_rate(KAPPA),
                t_span_s=(HALF_SPAN, -HALF_SPAN),
                dt_s=0.04 / KAPPA,
            )

    def test_bad_kappa_rejected(self):
        with pytest.raises(UsageError):
            qst.QstConfig(
                kappa_hz=0.0,
                emit_waveform=zero_waveform(),
                catch_waveform=zero_waveform(),
                t_span_s=(-HALF_SPAN, HALF_SPAN),
                dt_s=0.04 / KAPPA,
            )


class TestDetuningSweep:
    def test_linear_law_small_detuning(self):
        deltas = np.linspace(-0.05, 0.05, 11) * KAPPA
        sweep = qst.detuning_sweep(matched_config(), deltas)
        assert sweep.r_squared >= 0.99
        assert sweep.slope > 0
        assert sweep.baseline_eta > 0.999

    def test_zero_row_reproduces_baseline(self):
        sweep = qst.detuning_sweep(matched_config(), [0.0, 0.02 * KAPPA])
        zero_rows = [r for r in sweep.rows if r[0] == 0.0]
        assert len(zero_rows) == 1
        assert zero_rows[0][1] == sweep.baseline_eta

    def test_rows_carry_sqrt_infidelity(self):
        sweep = qst.detuning_sweep(matched_config(), [0.01 * KAPPA, 0.03 * KAPPA])
        for _, eta, root in sweep.rows:
            assert root == pytest.approx(math.sqrt(1 - eta), abs=1e-15)

    def test_csv_format(self):
        sweep = qst.detuning_sweep(matched_config(), [0.0, 0.02 * KAPPA])
        lines = sweep.to_csv().strip().split("\n")
        assert lines[0] == "delta_omega_hz,eta,sqrt_one_minus_eta"
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 3

    def test_fidelity_floor_across_sweep(self):
        # F >= |alpha|^4 holds throughout the tested small-detuning regime
        alpha, beta = math.sqrt(0.3), math.sqrt(0.7)
        for d in np.linspace(-0.05, 0.05, 5) * KAPPA:
            res = qst.simulate_transfer(
                matched_config(delta=d, input_state=(alpha, beta))
            )
            assert res.fidelity >= abs(alpha) ** 4

    def test_mismatched_baseline_rejected(self):
        cfg = qst.QstConfig(
            kappa_hz=KAPPA,
            emit_waveform=qst.matched_emit_rate(KAPPA),
            catch_waveform=qst.SampledWaveform(
                np.full(16, 0.05 * KAPPA), 2 * HALF_SPAN / 15, -HALF_SPAN
            ),
            t_span_s=(-HALF_SPAN, HALF_SPAN),
            dt_s=0.04 / KAPPA,
        )
        with pytest.raises(UsageError, match="baseline"):
            qst.detuning_sweep(cfg, [0.0, 0.01 * KAPPA])

    def test_needs_two_detunings(self):
        with pytest.raises(UsageError):
            qst.detuning_sweep(matched_config(), [0.0])


class TestOnOffRatio:
    def test_constant_at_floor(self):
        assert qst.on_off_ratio(np.full(8, 1e3), 1e3) == pytest.approx(1.0)

    def test_sech_reference(self):
        ratio = qst.on_off_ratio(
            lambda t: qst.sech_pitch(1e6, t), 1e3, t_span_s=(-2e-5, 2e-5)
        )
        assert ratio == pytest.approx(500.0, rel=1e-12)

    def test_scale_covariant(self):
        vals = np.array([1.0, 5.0, 2.0]) * 1e4
        base = qst.on_off_ratio(vals, 1e3)
        assert qst.on_off_ratio(3 * vals, 1e3) == pytest.approx(3 * base)

    def test_sampled_waveform_input(self):
        wf = qst.SampledWaveform(np.array([0.0, 7e5, 0.0]), 1e-6)
        assert qst.on_off_ratio(wf, 1e3) == pytest.approx(700.0)

    def test_bad_floor(self):
        with pytest.raises(UsageError):
            qst.on_off_ratio(np.ones(4), 0.0)

    def test_callable_needs_span(self):
        with pytest.raises(UsageError):
            qst.on_off_ratio(lambda t: 1.0, 1e3)


class TestConfigJson:
    def sech_doc(self):
        return {
            "kappa_hz": KAPPA,
            "t_span_s": [-HALF_SPAN, HALF_SPAN],
            "dt_s": 0.04 / KAPPA,
            "delta_omega_hz": 0.0,
            "emit_waveform": {"kind": "sech"},
            "catch_waveform": {"kind": "sech"},
            "input_state": [[0.0, 0.0], [1.0, 0.0]],
            "channel_temperature": 0,
        }

    def test_sech_kind_matches_builtin_waveforms(self):
        cfg = qst.qst_config_from_json(json.dumps(self.sech_doc()))
        res = qst.simulate_transfer(cfg)
        ref = qst.simulate_transfer(matched_config())
        assert res.eta == pytest.approx(ref.eta, abs=1e-15)

    def test_sampled_kind_anchored_at_span_start(self):
        doc = self.sech_doc()
        n = 801
        tg = np.linspace(-HALF_SPAN, HALF_SPAN, n)
        doc["catch_waveform"] = {
            "kind": "sampled",
            "dt_s": (2 * HALF_SPAN) / (n - 1),
            "values": list((KAPPA / 2) * (1 + np.tanh(-KAPPA * tg / 2))),
        }
        cfg = qst.qst_config_from_json(json.dumps(doc))
        res = qst.simulate_transfer(cfg)
        assert res.eta > 0.999

    def test_rejects_bad_documents(self):
        with pytest.raises(ParseError):
            qst.qst_config_from_json("[1,2]")
        with pytest.raises(ParseError):
            qst.qst_config_from_json("{not json")
        doc = self.sech_doc()
        del doc["kappa_hz"]
        with pytest.raises(ParseError, match="missing"):
            qst.qst_config_from_json(json.dumps(doc))
        doc = self.sech_doc()
        doc["mystery"] = 1
        with pytest.raises(ParseError, match="unknown"):
            qst.qst_config_from_json(json.dumps(doc))
        doc = self.sech_doc()
        doc["emit_waveform"] = {"kind": "triangle"}
        with pytest.raises(ParseError, match="kind"):
            qst.qst_config_from_json(json.dumps(doc))
        doc = self.sech_doc()
        doc["emit_waveform"] = {"kind": "sampled", "dt_s": 1e-6}
        with pytest.raises(ParseError):
            qst.qst_config_from_json(json.dumps(doc))
        doc = self.sech_doc()
        doc["input_state"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ParseError):
            qst.qst_config_from_json(json.dumps(doc))
        doc = self.sech_doc()
        doc["channel_temperature"] = 0.5
        with pytest.raises(ParseError):
            qst.qst_config_from_json(json.dumps(doc))

    @pytest.mark.parametrize("path", [
        ("kappa_hz",), ("dt_s",), ("t_span_s", 0), ("delta_omega_hz",),
        ("input_state", 1, 0), ("channel_temperature",),
        ("emit_waveform", "kappa_hz"), ("catch_waveform", "dt_s"),
        ("catch_waveform", "values", 1),
    ], ids=lambda path: ".".join(map(str, path)))
    def test_booleans_are_not_numbers(self, path):
        doc = self.sech_doc()
        doc["catch_waveform"] = {"kind": "sampled", "dt_s": 2 * HALF_SPAN,
                                 "values": [KAPPA, KAPPA]}
        qst.qst_config_from_json(json.dumps(doc))  # the valid baseline
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = True
        with pytest.raises(ParseError):
            qst.qst_config_from_json(json.dumps(doc))

    def test_sampled_negative_values_rejected(self):
        doc = self.sech_doc()
        doc["emit_waveform"] = {
            "kind": "sampled",
            "dt_s": 1e-6,
            "values": [1.0, -2.0, 1.0],
        }
        with pytest.raises(ParseError):
            qst.qst_config_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# the scanned integrator against the step-by-step RK4 loop


def scalar_rk4(config):
    """The per-step RK4 loop the time scan replaced, as an oracle: returns
    the (a, b, emitted) traces on the integrator grid."""
    t0, t1 = config.t_span_s
    n_steps = max(1, int(round((t1 - t0) / config.dt_s)))
    dt = (t1 - t0) / n_steps
    grid = t0 + (dt / 2.0) * np.arange(2 * n_steps + 1)
    k1 = qst._evaluate_rates(config.emit_waveform, grid, "emit waveform")
    k2 = qst._evaluate_rates(config.catch_waveform, grid, "catch waveform")
    ca = -(k1 / 2.0 + 0.5j * config.delta_omega_hz)
    cb = -k2 / 2.0
    cab = -np.sqrt(k1 * k2)
    w1 = np.sqrt(k1)
    w2 = np.sqrt(k2)

    a, b, p = 1.0 + 0.0j, 0.0 + 0.0j, 0.0
    a_trace = np.empty(n_steps + 1, dtype=complex)
    b_trace = np.empty(n_steps + 1, dtype=complex)
    p_trace = np.empty(n_steps + 1, dtype=float)
    a_trace[0], b_trace[0], p_trace[0] = a, b, p
    h = dt / 2.0
    for j in range(n_steps):
        i0, im, i1 = 2 * j, 2 * j + 1, 2 * j + 2
        da1 = ca[i0] * a
        db1 = cb[i0] * b + cab[i0] * a
        dp1 = abs(w1[i0] * a + w2[i0] * b) ** 2
        a2, b2 = a + h * da1, b + h * db1
        da2 = ca[im] * a2
        db2 = cb[im] * b2 + cab[im] * a2
        dp2 = abs(w1[im] * a2 + w2[im] * b2) ** 2
        a3, b3 = a + h * da2, b + h * db2
        da3 = ca[im] * a3
        db3 = cb[im] * b3 + cab[im] * a3
        dp3 = abs(w1[im] * a3 + w2[im] * b3) ** 2
        a4, b4 = a + dt * da3, b + dt * db3
        da4 = ca[i1] * a4
        db4 = cb[i1] * b4 + cab[i1] * a4
        dp4 = abs(w1[i1] * a4 + w2[i1] * b4) ** 2
        a += (dt / 6.0) * (da1 + 2 * da2 + 2 * da3 + da4)
        b += (dt / 6.0) * (db1 + 2 * db2 + 2 * db3 + db4)
        p += (dt / 6.0) * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        a_trace[j + 1], b_trace[j + 1], p_trace[j + 1] = a, b, p
    return a_trace, b_trace, p_trace


@st.composite
def transfer_problems(draw):
    """A transfer with n_steps in {1, 2, 3} or odd, steps at the largest
    allowed max(kappa)*dt, for the sech pair, a mismatched catch or
    sampled rates, with or without detuning."""
    n_steps = draw(st.one_of(st.sampled_from([1, 2, 3]),
                             st.integers(2, 400).map(lambda k: 2 * k + 1)))
    kind = draw(st.sampled_from(["sech", "mismatched", "sampled"]))
    dt = 0.04 / (1.5 * KAPPA)  # every rate below stays <= 1.5 kappa
    span = n_steps * dt
    t0 = -draw(st.floats(0.0, 1.0)) * span
    if kind == "sampled":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        count = draw(st.integers(2, 12))
        emit, catch = (
            qst.SampledWaveform(rng.uniform(0, 1.5 * KAPPA, count),
                                span / (count - 1), t0)
            for _ in range(2)
        )
    else:
        emit = qst.matched_emit_rate(KAPPA)
        factor = 1.0 if kind == "sech" else draw(st.floats(0.5, 1.5))
        catch = qst.matched_catch_rate(factor * KAPPA)
    delta = draw(st.sampled_from([0.0, 3e4, -2.5e5]))
    return qst.QstConfig(kappa_hz=KAPPA, emit_waveform=emit, catch_waveform=catch,
                         t_span_s=(t0, t0 + span), dt_s=dt, delta_omega_hz=delta)


class TestScannedTransfer:
    @given(transfer_problems(), st.sampled_from([1, 2, 3, 7, 2048]))
    def test_matches_scalar_rk4(self, config, chunk):
        with mock.patch.object(qst, "_CHUNK_STEPS", chunk):
            res = qst.simulate_transfer(config)
        a_trace, b_trace, p_trace = scalar_rk4(config)
        assert len(res.times_s) == len(a_trace)
        np.testing.assert_allclose(res.a_trace, a_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.b_trace, b_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.emitted_trace, p_trace, rtol=0, atol=1e-12)
        assert res.eta == pytest.approx(min(abs(b_trace[-1]) ** 2, 1.0),
                                        rel=0, abs=1e-12)

    def test_chunks_cross_a_long_span(self):
        # 10k steps in chunks of 999: the carried (a, b, p) stays exact
        config = matched_config(dt=0.004 / KAPPA, delta=2e4)
        whole = qst.simulate_transfer(config)
        with mock.patch.object(qst, "_CHUNK_STEPS", 999):
            chunked = qst.simulate_transfer(config)
        a_trace, b_trace, p_trace = scalar_rk4(config)
        for res in (whole, chunked):
            np.testing.assert_allclose(res.a_trace, a_trace, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.b_trace, b_trace, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.emitted_trace, p_trace, rtol=0,
                                       atol=1e-12)


@st.composite
def sweep_problems(draw):
    """A transfer problem, or the sech pair over +-8/kappa in 320 to 420
    steps, whose baseline passes the sweep's eta > 0.99."""
    if draw(st.booleans()):
        return draw(transfer_problems())
    half = 8.0 / KAPPA
    return replace(matched_config(), t_span_s=(-half, half),
                   dt_s=2 * half / draw(st.integers(320, 420)))


class TestSweepEta:
    """The sweep's eta-only path against the traced transfer, bitwise."""

    @given(transfer_problems(), st.sampled_from([1, 2, 3, 7, 2048]),
           st.lists(st.sampled_from([1e3, -3e4, 2.5e5, 0.01 * KAPPA]), min_size=1,
                    max_size=3))
    def test_point_matches_simulate_transfer(self, config, chunk, deltas):
        with mock.patch.object(qst, "_CHUNK_STEPS", chunk):
            run = qst._transfer_grid(config)
            for dw in [0.0, config.delta_omega_hz] + deltas:
                alone = qst.simulate_transfer(replace(config, delta_omega_hz=dw)).eta
                assert qst._transfer_eta(run, dw) == alone

    @settings(max_examples=50)
    @given(sweep_problems(), st.sampled_from([1, 2, 3, 7, 2048]))
    def test_sweep_rows_match_single_runs(self, config, chunk):
        deltas = [0.0, 1e3, -3e4, 2.5e5]
        with mock.patch.object(qst, "_CHUNK_STEPS", chunk):
            want = [qst.simulate_transfer(replace(config, delta_omega_hz=dw)).eta
                    for dw in deltas]
            if want[0] <= 0.99:
                with pytest.raises(UsageError, match="baseline transfer eta"):
                    qst.detuning_sweep(config, deltas)
                return
            sweep = qst.detuning_sweep(config, deltas)
        assert [eta for _, eta, _ in sweep.rows] == want
        assert sweep.baseline_eta == want[0]

    @pytest.mark.parametrize("n", [*range(1, 71), 2047, 2048])
    def test_product_is_the_scan_last_entry(self, n):
        rng = np.random.default_rng(n)
        maps = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
        got = qst._product(*maps)
        qst._prefix_products(*maps)
        for entry, scanned in zip(got, maps):
            assert entry.shape == (1,)
            assert entry.tobytes() == scanned[-1:].tobytes()


@st.composite
def conservation_problems(draw):
    """The sech emitter at kappa and a matched catcher at (1 + mismatch)
    kappa, a detuning within 2 kappa, and a step with max(rate) * dt at most
    r in [0.004, 0.05], over 30 / min(rate) around the centre. Returns the
    config and the larger of the two rate ceilings."""
    kappa = 10 ** draw(st.floats(3.0, 7.0))
    catch = kappa * (1.0 + draw(st.floats(-0.5, 0.5)))
    max_rate = max(kappa, catch)
    r = draw(st.floats(0.004, 0.05))
    half = 15.0 / min(kappa, catch)
    config = qst.QstConfig(
        kappa_hz=kappa,
        emit_waveform=qst.matched_emit_rate(kappa),
        catch_waveform=qst.matched_catch_rate(catch),
        t_span_s=(-half, half),
        dt_s=2 * half / math.ceil(2 * half * max_rate / r),
        delta_omega_hz=draw(st.floats(-2.0, 2.0)) * kappa,
    )
    return config, max_rate


class TestTransferConservation:
    @given(conservation_problems())
    def test_residual_is_fourth_order_in_the_step(self, problem):
        config, max_rate = problem
        res = qst.simulate_transfer(config)
        dt = res.times_s[1] - res.times_s[0]
        assert max_rate * dt <= 0.05 * (1 + 1e-12)
        # RK4 keeps |a|^2 + |b|^2 + p at 1 up to O(h^4), where h is dt times
        # the largest coefficient of the equations: a rate or the detuning
        h = (max_rate + abs(config.delta_omega_hz)) * dt
        total = np.abs(res.a_trace) ** 2 + np.abs(res.b_trace) ** 2 + res.emitted_trace
        assert np.max(np.abs(total - 1.0)) <= 1e-3 * h**4 + 1e-12


class TestSweepZeroPoint:
    """The zero-detuning transfer runs once: it is the baseline, and the row
    of a 0.0 entry reuses its eta."""

    @pytest.mark.parametrize("deltas, calls", [
        ([0.0, 0.01 * KAPPA, 0.02 * KAPPA], 3),
        ([0.01 * KAPPA, 0.0, -0.0, 0.03 * KAPPA], 3),
        ([0.01 * KAPPA, 0.03 * KAPPA], 3),
    ])
    def test_one_transfer_per_distinct_point(self, deltas, calls):
        config = matched_config()
        with mock.patch.object(qst, "_transfer_eta", wraps=qst._transfer_eta) as spy:
            sweep = qst.detuning_sweep(config, deltas)
        assert spy.call_count == calls
        baseline = qst.simulate_transfer(config).eta
        assert sweep.baseline_eta == baseline
        for (dw, eta, root), want in zip(sweep.rows, deltas):
            alone = qst.simulate_transfer(replace(config, delta_omega_hz=want)).eta
            assert (dw, eta) == (want, alone)
            assert math.copysign(1.0, dw) == math.copysign(1.0, want)
            assert root == math.sqrt(max(0.0, 1.0 - alone))

    def test_unmatched_baseline_still_fails_first(self):
        config = matched_config(delta=0.0)
        flat = qst.SampledWaveform([0.0, 0.0], 2 * HALF_SPAN, -HALF_SPAN)
        with mock.patch.object(qst, "_transfer_eta", wraps=qst._transfer_eta) as spy:
            with pytest.raises(UsageError, match="baseline transfer eta"):
                qst.detuning_sweep(replace(config, catch_waveform=flat),
                                   [0.0, 0.01 * KAPPA, 0.02 * KAPPA])
        assert spy.call_count == 1


def test_infinite_step_count_is_a_capacity_error():
    for span in ((-1e308, 2e-5), (-1e308, 1e308)):
        config = qst.QstConfig(kappa_hz=KAPPA, emit_waveform=qst.matched_emit_rate(KAPPA),
                               catch_waveform=qst.matched_catch_rate(KAPPA),
                               t_span_s=span, dt_s=4e-8)
        with mock.patch.object(np, "arange", side_effect=AssertionError("allocated")):
            with pytest.raises(CapacityError, match=r"t_span_s .* over dt_s 4e-08"):
                qst.simulate_transfer(config)


def test_step_count_above_the_cap_is_a_capacity_error():
    # 2.5e307 steps is finite, but np.arange could never allocate it
    config = qst.QstConfig(kappa_hz=KAPPA, emit_waveform=qst.matched_emit_rate(KAPPA),
                           catch_waveform=qst.matched_catch_rate(KAPPA),
                           t_span_s=(-1e300, 2e-5), dt_s=4e-8)
    message = (f"t_span_s (-1e+300, 2e-05) over dt_s 4e-08 is 2.5e+307 RK4 steps, "
               f"above the cap of {qst.MAX_RK4_STEPS}")
    with mock.patch.object(np, "arange", side_effect=AssertionError("allocated")):
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            qst.simulate_transfer(config)


def test_step_cap_is_inclusive():
    config = matched_config(dt=2 * HALF_SPAN / 1000)
    with mock.patch.object(qst, "MAX_RK4_STEPS", 1000):
        assert len(qst.simulate_transfer(config).times_s) == 1001
        with pytest.raises(CapacityError, match="is 1001 RK4 steps, above the cap of 1000$"):
            qst.simulate_transfer(replace(config, dt_s=2 * HALF_SPAN / 1001))
