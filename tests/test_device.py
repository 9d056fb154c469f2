import copy
import dataclasses
import inspect
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cavityq import device, errors
from cavityq.errors import ParseError, UsageError
from golden import CASES, readme_example


def reference_params(**overrides) -> device.DeviceParams:
    vals = dict(
        omega_q_hz=6.0e9,
        omega_c_hz=4.0e9,
        g_hz=10.0e6,
        chi_prime_hz=1.0e3,
        alpha_hz=-200.0e6,
        t1_fock0_s=1.0,
        t1_min_s=200e-6,
    )
    vals.update(overrides)
    return device.DeviceParams(**vals)


class TestChi:
    def test_reference_value(self):
        # g = 10 MHz, Δ = 2 GHz -> χ = 50 kHz
        assert device.chi(reference_params()) == pytest.approx(50e3, rel=1e-12)

    def test_sign_follows_detuning(self):
        below = reference_params(omega_q_hz=3.0e9)  # Δ = -1 GHz
        assert device.chi(below) < 0

    def test_scale_invariance(self):
        # χ depends on g and Δ only through g²/Δ
        p1 = reference_params()
        p2 = reference_params(g_hz=20e6, omega_q_hz=4.0e9 + 8.0e9)
        assert device.chi(p2) == pytest.approx(device.chi(p1), rel=1e-12)

    def test_degenerate_detuning_rejected_at_construction(self):
        with pytest.raises(UsageError):
            reference_params(omega_q_hz=4.0e9)


class TestStarkShift:
    def test_first_order_ladder(self):
        p = reference_params()
        x = device.chi(p)
        for n in range(5):
            assert device.stark_shifted_freq(p, n) == pytest.approx(
                p.omega_q_hz - n * x, rel=1e-12
            )

    def test_second_order_correction(self):
        p = reference_params(chi_prime_hz=2.0e3)
        x = device.chi(p)
        n = 7
        expected = p.omega_q_hz - (x * n + 2.0e3 * n * n / 2)
        assert device.stark_shifted_freq(p, n, order=2) == pytest.approx(expected, rel=1e-12)

    def test_orders_agree_when_chi_prime_zero(self):
        p = reference_params(chi_prime_hz=0.0)
        for n in (0, 3, 11):
            assert device.stark_shifted_freq(p, n, 1) == pytest.approx(
                device.stark_shifted_freq(p, n, 2), rel=1e-15
            )

    def test_bad_order(self):
        with pytest.raises(UsageError):
            device.stark_shifted_freq(reference_params(), 1, order=3)


class TestPhotonBudget:
    def test_critical_photon_number_reference(self):
        # Δ = 2 GHz, g = 10 MHz -> (Δ/2g)² = 10000, exactly representable
        assert device.critical_photon_number(reference_params()) == 10000.0

    def test_fock_t1_inverse_scaling(self):
        p = reference_params()
        assert device.fock_t1(p, 1) == pytest.approx(1.0)
        assert device.fock_t1(p, 4) == pytest.approx(0.25)
        assert device.fock_t1(p, 2) == pytest.approx(2 * device.fock_t1(p, 4))

    def test_fock0_stable(self):
        assert device.fock_t1(reference_params(), 0) == math.inf

    def test_max_fock_reference(self):
        # 1 s lifetime, 200 µs floor -> 5000 levels
        assert device.max_fock(reference_params()) == 5000

    def test_max_fock_zero_with_advisory(self):
        p = reference_params(t1_fock0_s=1e-4, t1_min_s=2e-4)
        assert device.max_fock(p) == 0

    def test_max_fock_plain_floor(self):
        p = reference_params(t1_fock0_s=1.0, t1_min_s=3e-4)
        assert device.max_fock(p) == 3333


class TestGateTimes:
    def test_snap_bound_reference(self):
        # χ = 50 kHz -> 125.66 µs
        t = device.snap_min_gate_time(reference_params())
        assert t == pytest.approx(2 * math.pi / 50e3, rel=1e-12)
        assert t == pytest.approx(125.66e-6, rel=1e-4)

    def test_snap_bound_uses_magnitude(self):
        below = reference_params(omega_q_hz=3.0e9)
        assert device.snap_min_gate_time(below) > 0

    def test_multimode_drive_freq(self):
        p = reference_params()
        got = device.multimode_drive_freq(p, [(2, 50e3), (1, 30e3)])
        assert got == pytest.approx(p.omega_q_hz - 2 * 50e3 - 30e3, rel=1e-12)

    def test_multimode_empty_is_bare_qubit(self):
        p = reference_params()
        assert device.multimode_drive_freq(p, []) == p.omega_q_hz


class TestNoiseRates:
    def test_dephasing_quadratic_in_dispersion(self):
        r1 = device.dephasing_rate(2.0, 1.5)
        r2 = device.dephasing_rate(4.0, 1.5)
        assert r2 == pytest.approx(4 * r1)

    def test_dephasing_linear_in_spectrum_and_k(self):
        assert device.dephasing_rate(3.0, 2.0, k=2.0) == pytest.approx(
            2 * device.dephasing_rate(3.0, 2.0)
        )
        assert device.dephasing_rate(3.0, 4.0) == pytest.approx(
            2 * device.dephasing_rate(3.0, 2.0)
        )

    def test_zero_dispersion_is_noise_immune(self):
        assert device.dephasing_rate(0.0, 100.0) == 0.0

    def test_relaxation_quadratic_in_matrix_element(self):
        r1 = device.relaxation_rate(1.0, 0.5)
        r2 = device.relaxation_rate(3.0, 0.5)
        assert r2 == pytest.approx(9 * r1)

    def test_negative_spectrum_rejected(self):
        with pytest.raises(UsageError):
            device.dephasing_rate(1.0, -1.0)


class TestSerialization:
    def test_roundtrip(self):
        p = reference_params()
        q = device.DeviceParams.from_json(p.to_json())
        assert p == q

    def test_missing_field_named(self):
        raw = json.loads(reference_params().to_json())
        del raw["g_hz"]
        with pytest.raises(ParseError, match="g_hz"):
            device.DeviceParams.from_json(json.dumps(raw))

    def test_unknown_field_rejected(self):
        raw = json.loads(reference_params().to_json())
        raw["bogus"] = 1.0
        with pytest.raises(ParseError, match="bogus"):
            device.DeviceParams.from_json(json.dumps(raw))

    def test_non_numeric_field(self):
        raw = json.loads(reference_params().to_json())
        raw["g_hz"] = "fast"
        with pytest.raises(ParseError, match="g_hz"):
            device.DeviceParams.from_json(json.dumps(raw))

    def test_boolean_field_rejected(self):
        raw = json.loads(reference_params().to_json())
        raw["g_hz"] = True
        with pytest.raises(ParseError, match="^g_hz must be a real number, got True$"):
            device.DeviceParams.from_json(json.dumps(raw))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            device.DeviceParams.from_json("{not json")

    def test_summary_keys(self):
        s = device.device_summary(reference_params())
        assert s["max_fock"] == 5000
        assert s["critical_photon_number"] == 10000.0
        assert s["chi_hz"] == pytest.approx(50e3)


@pytest.mark.parametrize("field", list(device._FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_field_rejected(field, value):
    with pytest.raises(UsageError, match=f"{field} must be finite"):
        reference_params(**{field: value})


@pytest.mark.parametrize("field", ["omega_q_hz", "g_hz", "t1_min_s"])
@pytest.mark.parametrize("value", [True, False, np.True_, "5e9", None, 1j, [1.0]])
def test_non_real_field_rejected(field, value):
    with pytest.raises(UsageError, match=f"{field} must be a real number"):
        reference_params(**{field: value})


@pytest.mark.parametrize("convert", [np.float64, np.float32, np.int64, int])
def test_numpy_real_fields_taken_as_floats(convert):
    p = reference_params(g_hz=convert(10_000_000), t1_fock0_s=convert(1))
    assert p == reference_params()
    assert all(type(getattr(p, f)) is float for f in device._FIELDS)


@pytest.mark.parametrize("estimator, overrides, name", [
    (device.chi, dict(g_hz=1e308), "chi_hz"),
    (device.critical_photon_number, dict(g_hz=5e-192), "critical_photon_number"),
    (device.max_fock, dict(t1_fock0_s=1e308, t1_min_s=1e-10), "t1_fock0_s / t1_min_s"),
    (device.snap_min_gate_time, dict(g_hz=5e-156), "snap_min_gate_time_s"),
])
def test_derived_value_that_is_not_finite_is_a_numeric_error(estimator, overrides, name):
    with pytest.raises(errors.NumericError, match=f"{name} is not finite"):
        estimator(reference_params(**overrides))


def test_summary_overflow_is_a_numeric_error():
    with pytest.raises(errors.NumericError, match="chi_hz is not finite"):
        device.device_summary(reference_params(g_hz=1e308))


# the frozen dataclass DeviceParams was, whose observable behaviour the plain
# class keeps
FROZEN_DATACLASS = dataclasses.make_dataclass(
    "DeviceParams", [(f, float) for f in device._FIELDS], frozen=True)
POSITIVE_FIELDS = ("g_hz", "t1_fock0_s", "t1_min_s")


@st.composite
def _device_fields(draw) -> dict:
    fields = {f: draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                      if f in POSITIVE_FIELDS else st.floats(allow_nan=False, allow_infinity=False))
              for f in device._FIELDS}
    assume(fields["omega_q_hz"] != fields["omega_c_hz"])
    return fields


def _assert_behaves_as_frozen_dataclass(fields: dict) -> None:
    params, ref = device.DeviceParams(**fields), FROZEN_DATACLASS(**fields)
    assert repr(params) == repr(ref)
    assert hash(params) == hash(ref)
    assert params.to_json() == json.dumps(dataclasses.asdict(ref), indent=2, sort_keys=True)
    assert vars(params) == dataclasses.asdict(ref)
    assert params.__match_args__ == ref.__match_args__
    # the next float toward 0 (away from it for a zero) differs and stays finite
    alpha = fields["alpha_hz"]
    other = dict(fields, alpha_hz=math.nextafter(alpha, 0.0 if alpha else 1.0))
    assert params == device.DeviceParams(**fields) and ref == FROZEN_DATACLASS(**fields)
    assert params != device.DeviceParams(**other) and ref != FROZEN_DATACLASS(**other)
    as_tuple = tuple(fields.values())
    assert params.__eq__(as_tuple) is ref.__eq__(as_tuple) is NotImplemented
    assert params != as_tuple
    for change in (lambda obj: setattr(obj, "g_hz", 1.0), lambda obj: delattr(obj, "g_hz"),
                   lambda obj: setattr(obj, "extra", 1.0)):
        with pytest.raises(AttributeError) as expected:
            change(ref)
        with pytest.raises(AttributeError, match=f"^{re.escape(str(expected.value))}$"):
            change(params)
    assert vars(params) == dataclasses.asdict(ref)  # the refused changes left no trace
    for clone in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert type(clone) is device.DeviceParams and clone == params
        assert (repr(clone), hash(clone), vars(clone)) == (repr(ref), hash(ref), vars(params))


class TestFrozenDataclassContract:
    def test_signature(self):
        assert inspect.signature(device.DeviceParams, eval_str=True) == \
            inspect.signature(FROZEN_DATACLASS)

    def test_readme_fields(self):
        _assert_behaves_as_frozen_dataclass(json.loads(readme_example(CASES["device"])[0]))

    @given(_device_fields())
    def test_drawn_fields(self, fields):
        _assert_behaves_as_frozen_dataclass(fields)
