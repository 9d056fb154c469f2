"""The shared argument rules at every API site that uses them.

A real site (`errors.require_positive`) refuses anything but a real number
with 0 < value < inf; a count site (`errors.require_count`) refuses
anything but an integer of at least 0 (1 for `blocks`). Both raise
UsageError naming the argument (InvalidDimensionError for a HilbertShape
dimension), and a numpy scalar of an accepted type gives the same result
as the Python number.
"""

import dataclasses
import math

import numpy as np
import pytest

from cavityq import codes, device, errors, noise, pulse, qst, trotter
from cavityq.errors import InvalidDimensionError, UsageError
from cavityq.fock import HilbertShape, basis_state, identity

DEVICE = dict(omega_q_hz=6.0e9, omega_c_hz=4.0e9, g_hz=10.0e6, chi_prime_hz=1.0e3,
              alpha_hz=-200.0e6, t1_fock0_s=1.0, t1_min_s=200e-6)
HAMILTONIAN = trotter.QuditHamiltonian([0.0, 0.5, 0.25], [0.1, 0.0, -0.3])


def _qst_config(**fields):
    flat = qst.SampledWaveform([0.0, 0.0], 8.0, -4.0)
    base = dict(kappa_hz=1.0, emit_waveform=flat, catch_waveform=flat,
                t_span_s=(-4.0, 4.0), dt_s=0.5)
    return qst.QstConfig(**{**base, **fields})


def _grape(**kw):
    res = pulse.grape_optimize(pulse.dispersive_model(1e6, 2), basis_state((2, 2), [1, 0]),
                               pulse.PulseSchedule(1e-7, (np.zeros(4),), (0.0,)),
                               **{"iterations": 3, "seed": 1, **kw})
    return res.fidelity, res.iterations, res.schedule.streams


def _sequence(**kw):
    res = pulse.optimize_snap_displacement_sequence(
        [1.0, 0.0, 1.0], **{"blocks": 2, "iterations": 3, **kw})
    return res.fidelity, res.iterations, res.n_levels, res.guard_levels, res.thetas


# site -> (argument name in the message, call with the argument set to v);
# 2 is a valid value at every site
REAL_SITES = {
    "PulseSchedule.dt_s": (
        "dt_s", lambda v: pulse.PulseSchedule(v, (np.ones(3),), (0.0,)).duration_s),
    "dispersive_model.chi_hz": (
        "chi_hz", lambda v: pulse.dispersive_model(v, 3).drift.matrix),
    "synthesize_snap_pulse.duration_s": (
        "duration_s", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(4.0, 2), [0.0, 1.0], v, precompensate=False).streams),
    "synthesize_snap_pulse.dt_s": (
        "dt_s", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(4.0, 2), [0.0, 1.0], 8.0, dt_s=v,
            precompensate=False).streams),
    "matched_emit_rate.kappa_hz": (
        "kappa_hz", lambda v: qst.matched_emit_rate(v)(np.linspace(-3.0, 3.0, 7))),
    "matched_catch_rate.kappa_hz": (
        "kappa_hz", lambda v: qst.matched_catch_rate(v)(np.linspace(-3.0, 3.0, 7))),
    "SampledWaveform.dt_s": (
        "dt_s", lambda v: qst.SampledWaveform([0.0, 1.0, 3.0], v).integral()),
    "QstConfig.kappa_hz": ("kappa_hz", lambda v: _qst_config(kappa_hz=v).kappa_hz),
    "QstConfig.dt_s": ("dt_s", lambda v: _qst_config(dt_s=v).dt_s),
    "on_off_ratio.floor_hz": ("floor_hz", lambda v: qst.on_off_ratio([1.0, 4.0], v)),
    "trotter_step.dt_s": (
        "dt_s", lambda v: [g.params for g in trotter.trotter_step(HAMILTONIAN, v).gates]),
    "NoiseChannel.dt_s": (
        "dt_s", lambda v: noise.NoiseChannel(HilbertShape((2,)), (identity(2),), v).dt_s),
    "amplitude_damping_channel.dt_s": (
        "dt_s", lambda v: [k.matrix for k in noise.amplitude_damping_channel(4.0, v, 3).kraus]),
    **{f"DeviceParams.{field}": (
        field, lambda v, field=field: dataclasses.asdict(
            device.DeviceParams(**{**DEVICE, field: v})))
       for field in ("g_hz", "t1_fock0_s", "t1_min_s")},
}

COUNT_SITES = {
    "optimize_snap_displacement_sequence.blocks": (
        "blocks", lambda v: _sequence(blocks=v)),
    "optimize_snap_displacement_sequence.guard_levels": (
        "guard_levels", lambda v: _sequence(guard_levels=v)),
    "optimize_snap_displacement_sequence.iterations": (
        "iterations", lambda v: _sequence(iterations=v)),
    "grape_optimize.iterations": ("iterations", lambda v: _grape(iterations=v)),
    "grape_optimize.guard_indices": (
        "guard_indices", lambda v: _grape(guard_indices=(v,))),
    "grape_gradient.guard_indices": (
        "guard_indices", lambda v: pulse.grape_gradient(
            pulse.dispersive_model(1e6, 2), pulse.PulseSchedule(1e-7, (np.ones(4),), (0.0,)),
            basis_state((2, 2), [1, 0]), guard_indices=(v,))),
    "photon_loss_cycle_check.k": (
        "k", lambda v: codes.photon_loss_cycle_check(
            basis_state(5, [3]), v).amplitudes),
    "stark_shifted_freq.n": (
        "n", lambda v: device.stark_shifted_freq(device.DeviceParams(**DEVICE), v, 2)),
    "fock_t1.n": ("n", lambda v: device.fock_t1(device.DeviceParams(**DEVICE), v)),
    "HilbertShape.dims": ("dimension", lambda v: HilbertShape((2, v)).dims),
}

NOT_POSITIVE_REALS = [True, False, "2", None, 2j, math.nan, math.inf, -math.inf,
                      0, 0.0, -1, -2.5]
NOT_COUNTS = [2.5, True, -1, "2", None, 2.0, np.float64(2.0)]


def _expected_error(site: str):
    return InvalidDimensionError if site.startswith("HilbertShape") else UsageError


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site in REAL_SITES for value in NOT_POSITIVE_REALS
    # dt_s=None asks synthesize_snap_pulse for its default segment count
    if not (site == "synthesize_snap_pulse.dt_s" and value is None)])
def test_real_site_refuses(site, value):
    name, call = REAL_SITES[site]
    with pytest.raises(UsageError, match=name):
        call(value)


@pytest.mark.parametrize("value", [np.float64(2.0), np.float32(2.0), np.int64(2), 2],
                         ids=repr)
@pytest.mark.parametrize("site", REAL_SITES)
def test_real_site_accepts_numpy_scalars(site, value):
    _, call = REAL_SITES[site]
    np.testing.assert_equal(call(value), call(2.0))


@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_site_refuses(site, value):
    name, call = COUNT_SITES[site]
    with pytest.raises(_expected_error(site), match=name):
        call(value)


@pytest.mark.parametrize("value", [np.int64(2), np.int32(2)], ids=repr)
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_site_accepts_numpy_integers(site, value):
    _, call = COUNT_SITES[site]
    np.testing.assert_equal(call(value), call(2))


def test_zero_blocks_refused():
    with pytest.raises(UsageError, match="blocks must be a positive integer, got 0"):
        _sequence(blocks=0)


def test_counts_and_dimensions_are_stored_as_python_numbers():
    assert type(_sequence(guard_levels=np.int64(1))[3]) is int
    assert all(type(d) is int for d in HilbertShape((np.int64(2), np.int32(3))).dims)
    assert type(_qst_config(kappa_hz=np.int64(2)).kappa_hz) is float
    assert type(_qst_config(kappa_hz=2).kappa_hz) is float


@pytest.mark.parametrize("rule", [errors.require_positive, errors.require_real,
                                  errors.require_count])
def test_rules_return_python_numbers(rule):
    out = rule("x", np.int64(3))
    assert out == 3
    assert type(out) is (int if rule is errors.require_count else float)


def test_require_positive_messages():
    with pytest.raises(UsageError, match=r"^x must be a real number, got True$"):
        errors.require_positive("x", True)
    with pytest.raises(UsageError, match=r"^x must be positive and finite, got inf$"):
        errors.require_positive("x", math.inf)


def test_out_of_range_guard_index_refused():
    with pytest.raises(UsageError, match="guard index 4 out of range"):
        _grape(guard_indices=(4,))
