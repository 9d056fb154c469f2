"""The shared argument rules at every API site that uses them.

A real site (`errors.require_positive`) refuses anything but a real number
with 0 < value < inf; a number site (`errors.require_real`) refuses
anything but a real number; a count site (`errors.require_count`) refuses
anything but an integer of at least 0 (1 for `blocks` and `n_bits`); an
index site (`errors.require_index`) refuses anything but an integer in
[0, size); a complex site (`errors.require_complex`) refuses anything but
a complex or real number; a dimension site (`fock.shape_of`) refuses anything but an
integer of at least 1, and a total dimension over the cap, before it
allocates; an array site (`errors.require_array`) refuses an entry that is
not a number (not a real number at a real site), and ragged rows or any
other shape. All raise UsageError naming the argument (InvalidDimensionError
for a HilbertShape dimension), and a numpy scalar of an accepted type gives
the same result as the Python number.
"""

import cmath
import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityq import cli, codes, device, errors, fock, gates, noise, pulse, qst, trotter
from cavityq.errors import (CapacityError, InvalidDimensionError, NumericError, ShapeError,
                            UsageError)
from cavityq.fock import HilbertShape, basis_state, identity

DEVICE = dict(omega_q_hz=6.0e9, omega_c_hz=4.0e9, g_hz=10.0e6, chi_prime_hz=1.0e3,
              alpha_hz=-200.0e6, t1_fock0_s=1.0, t1_min_s=200e-6)
HAMILTONIAN = trotter.QuditHamiltonian([0.0, 0.5, 0.25], [0.1, 0.0, -0.3])


def _qst_config(**fields):
    flat = qst.SampledWaveform([0.0, 0.0], 8.0, -4.0)
    base = dict(kappa_hz=1.0, emit_waveform=flat, catch_waveform=flat,
                t_span_s=(-4.0, 4.0), dt_s=0.5)
    return qst.QstConfig(**{**base, **fields})


def _matched_config():
    return qst.QstConfig(kappa_hz=1.0, emit_waveform=qst.matched_emit_rate(1.0),
                         catch_waveform=qst.matched_catch_rate(1.0),
                         t_span_s=(-12.0, 12.0), dt_s=0.04)


def _grape(**kw):
    res = pulse.grape_optimize(pulse.dispersive_model(1e6, 2), basis_state((2, 2), [1, 0]),
                               pulse.PulseSchedule(1e-7, (np.zeros(4),), (0.0,)),
                               **{"iterations": 3, "seed": 1, **kw})
    return res.fidelity, res.iterations, res.schedule.streams


def _grape_gradient(model=None, target=None, **kw):
    model = model or pulse.dispersive_model(1e6, 2)
    if target is None:
        target = basis_state(model.shape, [1] * model.shape.n_subsystems)
    schedule = pulse.PulseSchedule(1e-7, (np.ones(4),), (0.0,))
    return pulse.grape_gradient(model, schedule, target, **kw)


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
    "grape_optimize.learning_rate": ("learning_rate", lambda v: _grape(learning_rate=v)),
    "optimize_snap_displacement_sequence.learning_rate": (
        "learning_rate", lambda v: _sequence(learning_rate=v)),
}

# require_real sites, as REAL_SITES; 2 is a valid value at every site
NUMBER_SITES = {
    "grape_optimize.tol": ("tol", lambda v: _grape(tol=v)),
    "grape_optimize.leak_weight": (
        "leak_weight", lambda v: _grape(guard_indices=(3,), leak_weight=v)),
    "grape_gradient.leak_weight": (
        "leak_weight", lambda v: _grape_gradient(guard_indices=(3,), leak_weight=v)),
    "optimize_snap_displacement_sequence.tol": ("tol", lambda v: _sequence(tol=v)),
    "optimize_snap_displacement_sequence.leak_weight": (
        "leak_weight", lambda v: _sequence(leak_weight=v)),
    "SampledWaveform.t0_s": (
        "t0_s", lambda v: qst.SampledWaveform([0.0, 1.0], 0.5, v).times),
    "QstConfig.t_span_s start": (
        "t_span_s", lambda v: _qst_config(t_span_s=(v, 4.0)).t_span_s),
    "QstConfig.t_span_s end": (
        "t_span_s", lambda v: _qst_config(t_span_s=(-4.0, v)).t_span_s),
    "QstConfig.delta_omega_hz": (
        "delta_omega_hz", lambda v: _qst_config(delta_omega_hz=v).delta_omega_hz),
    "dephasing_rate.spectral_density_dc": (
        "spectral_density_dc", lambda v: device.dephasing_rate(3.0, v)),
    "relaxation_rate.spectral_density_at_e01": (
        "spectral_density_at_e01", lambda v: device.relaxation_rate(0.5, v)),
    "qubit_rotation.theta": ("theta", lambda v: gates.qubit_rotation(v, 0.3).matrix),
    "qubit_rotation.phi": ("phi", lambda v: gates.qubit_rotation(0.3, v).matrix),
    "cond_rotation.theta": ("theta", lambda v: gates.cond_rotation(1, v, 0.2, 3).matrix),
    "cond_rotation.phi": ("phi", lambda v: gates.cond_rotation(1, 0.3, v, 3).matrix),
    "givens.theta": ("theta", lambda v: gates.givens(0, 1, v, 3).matrix),
    "PulseSchedule.carriers_hz": (
        "carriers_hz", lambda v: pulse.PulseSchedule(1.0, (np.ones(2),), (v,)).carriers_hz),
    "detuning_sweep.delta_list": (
        "delta_list", lambda v: qst.detuning_sweep(_matched_config(), [0.0, v]).rows),
    "otoc_series.times_s": (
        "times_s", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0, v])),
}

# require_complex sites, as REAL_SITES; 1 is a valid value at every site
COMPLEX_SITES = {
    "displacement.alpha": ("alpha", lambda v: gates.displacement(v, 6).matrix),
    "ecd.beta": ("beta", lambda v: gates.ecd(v, 6).matrix),
    "cat_state.alpha": ("alpha", lambda v: codes.cat_state(v, "+", 16).amplitudes),
    "coherent_overlap.alpha": ("alpha", lambda v: codes.coherent_overlap(v, 0.5)),
    "coherent_overlap.beta": ("beta", lambda v: codes.coherent_overlap(0.5, v)),
    "cat_encode.c_g": ("c_g", lambda v: codes.cat_encode(v, 0.0, 1.0, 16).amplitudes),
    "cat_encode.c_e": ("c_e", lambda v: codes.cat_encode(0.0, v, 1.0, 16).amplitudes),
    "cat_encode.alpha": ("alpha", lambda v: codes.cat_encode(1.0, 0.0, v, 16).amplitudes),
    "coherent_amplitudes.alpha": ("alpha", lambda v: fock.coherent_amplitudes(v, 16)),
    "coherent_state.alpha": ("alpha", lambda v: fock.coherent_state(v, 16).amplitudes),
    "QstConfig.input_state": (
        "input_state entry", lambda v: _qst_config(input_state=(0.0, v)).input_state),
}

# array sites (`errors.require_array`): site -> (argument name in the message,
# call with the whole array argument set to a); a takes 3 entries, or 3x3 at
# MATRIX_SITES, and REAL_ARRAY_SITES take real entries only
ARRAY_SITES = {
    "StateVector.amplitudes": ("amplitudes", lambda a: fock.StateVector(3, a).amplitudes),
    "Operator.matrix": ("matrix", lambda a: fock.Operator(3, a).matrix),
    "PulseSchedule.streams": (
        "stream 0", lambda a: pulse.PulseSchedule(1e-9, (a,), (0.0,)).streams),
    "SampledWaveform.values": ("values", lambda a: qst.SampledWaveform(a, 0.5).values),
    "on_off_ratio.waveform": ("waveform", lambda a: qst.on_off_ratio(a, 0.5)),
    "optimize_snap_displacement_sequence.target": (
        "target", lambda a: pulse.optimize_snap_displacement_sequence(
            a, blocks=1, iterations=2).thetas),
    "QuditHamiltonian.diagonal": (
        "diagonal", lambda a: trotter.QuditHamiltonian(a, [0.1, 0.0, -0.3]).diagonal),
    "QuditHamiltonian.kinetic_diagonal": (
        "kinetic_diagonal",
        lambda a: trotter.QuditHamiltonian([0.0, 0.5, 0.25], a).kinetic_diagonal),
    "evolve_trotter.psi0": (
        "psi0", lambda a: trotter.evolve_trotter(HAMILTONIAN, 1.0, 2, a).state.amplitudes),
    "otoc_series.psi0": ("psi0", lambda a: trotter.otoc_series(
        np.eye(3), np.eye(3), HAMILTONIAN, [0.0, 0.5], a)),
    "otoc_series.W": (
        "W", lambda a: trotter.otoc_series(a, np.eye(3), HAMILTONIAN, [0.0, 0.5])),
    "otoc_series.V": (
        "V", lambda a: trotter.otoc_series(np.eye(3), a, HAMILTONIAN, [0.0, 0.5])),
    "apply_channel.rho": (
        "rho", lambda a: noise.apply_channel(noise.photon_loss_channel(1.0, 1e-4, 3), a)),
}
MATRIX_SITES = {"Operator.matrix", "otoc_series.W", "otoc_series.V", "apply_channel.rho"}
REAL_ARRAY_SITES = {"SampledWaveform.values", "on_off_ratio.waveform",
                    "QuditHamiltonian.diagonal", "QuditHamiltonian.kinetic_diagonal"}


def _with_entry(site, v):
    """[0, v, 0] as the array argument of site, or at a matrix site as the
    first row of [[0, v, 0], [1, 0, 0], [0, 0, 1]]."""
    row = [0.0, v, 0.0]
    return [row, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]] if site in MATRIX_SITES else row


# ARRAY_SITES as REAL_SITES, with one entry of the array set to v (`_with_entry`);
# 1 is a valid entry at every site
ENTRY_SITES = {site: (name, lambda v, site=site, call=call: call(_with_entry(site, v)))
               for site, (name, call) in ARRAY_SITES.items()}

# NUMBER_SITES that also refuse NaN and ±inf (`errors.require_finite`), and
# COMPLEX_SITES that do
FINITE_SITES = ["grape_optimize.tol", "grape_optimize.leak_weight",
                "grape_gradient.leak_weight", "optimize_snap_displacement_sequence.tol",
                "optimize_snap_displacement_sequence.leak_weight", "SampledWaveform.t0_s",
                "qubit_rotation.theta", "qubit_rotation.phi", "cond_rotation.theta",
                "cond_rotation.phi", "givens.theta", "displacement.alpha", "ecd.beta"]

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
    "optimize_snap_displacement_sequence.seed": ("seed", lambda v: _sequence(seed=v)),
    "multimode_drive_freq.occupation": (
        "occupation", lambda v: device.multimode_drive_freq(
            device.DeviceParams(**DEVICE), [(1, 2e5), (v, 1e5)])),
    "qubit_binary_decode.n_bits": ("n_bits", lambda v: gates.qubit_binary_decode(1, v)),
}

THETA6 = np.linspace(0.0, 1.0, 6)

# site -> call with the dimension argument set to v; 3 is a valid dimension
# at every site
DIMENSION_SITES = {
    "shape_of": lambda v: fock.shape_of(v).dims,
    "identity": lambda v: identity(v).matrix,
    "basis_state": lambda v: basis_state(v, 1).amplitudes,
    "annihilation": lambda v: fock.annihilation(v).matrix,
    "creation": lambda v: fock.creation(v).matrix,
    "number_operator": lambda v: fock.number_operator(v).matrix,
    "coherent_amplitudes": lambda v: fock.coherent_amplitudes(0.1, v),
    "coherent_state": lambda v: fock.coherent_state(0.1, v).amplitudes,
    "multisnap": lambda v: gates.multisnap(THETA6, [2, v]).matrix,
    "multiqudit_snap": lambda v: gates.multiqudit_snap(0, [0.1, 0.2, 0.3], v).matrix,
    "displacement": lambda v: gates.displacement(0.3, v).matrix,
    "cond_rotation": lambda v: gates.cond_rotation(1, 0.3, 0.2, v).matrix,
    "controlled_increment": lambda v: gates.controlled_increment(v).matrix,
    "givens": lambda v: gates.givens(0, 1, 0.3, v).matrix,
    "phase_swap": lambda v: gates.phase_swap(0, 1, v).matrix,
    "fourier": lambda v: gates.fourier(v).matrix,
    "ecd": lambda v: gates.ecd(0.3, v).matrix,
    "cat_state": lambda v: codes.cat_state(0.1, "+", v).amplitudes,
    "photon_loss_channel": lambda v: [
        k.matrix for k in noise.photon_loss_channel(1.0, 1e-4, v).kraus],
    "amplitude_damping_channel": lambda v: [
        k.matrix for k in noise.amplitude_damping_channel(1.0, 1e-3, v).kraus],
    "dephasing_channel": lambda v: [
        k.matrix for k in noise.dephasing_channel(1.0, 1e-4, v).kraus],
    "dispersive_model": lambda v: pulse.dispersive_model(1e6, v).drift.matrix,
    "cat_encode": lambda v: codes.cat_encode(1.0, 0.0, 0.1, v).amplitudes,
    "embed": lambda v: gates.embed(gates.fourier(3), [0], (3, v)).matrix,
    "trotter_step": lambda v: trotter.trotter_step(HAMILTONIAN, 0.1, v).shape.dims,
}

# the dimension each site is given under a cap of 64: one above the cap, or
# for a two-subsystem shape, one under the cap whose total is above it
CAP_DIMENSIONS = {"cond_rotation": 40, "ecd": 40, "controlled_increment": 9}

PSI = basis_state((3, 3, 3), [0, 1, 2])
SNAP3 = gates.snap([0.1, 0.2, 0.3])

# site -> (argument name in the message, size, call with the argument set
# to v); 2 is a valid index at every site, and size is the first invalid one
INDEX_SITES = {
    "HilbertShape.flat_index": (
        "occupation", 3, lambda v: HilbertShape((2, 3)).flat_index((1, v))),
    "HilbertShape.unflatten": ("index", 6, lambda v: HilbertShape((2, 3)).unflatten(v)),
    "basis_state": ("flat index", 3, lambda v: basis_state(3, v).amplitudes),
    "reduced_density_matrix": (
        "subsystem", 3, lambda v: fock.reduced_density_matrix(PSI, [v])),
    "mode_probabilities": ("subsystem", 3, lambda v: fock.mode_probabilities(PSI, [v])),
    "mean_occupation": ("subsystem", 3, lambda v: fock.mean_occupation(PSI, v)),
    "parity": ("subsystem", 3, lambda v: codes.parity(PSI, v)),
    "cond_rotation": (
        "selector level", 3, lambda v: gates.cond_rotation(v, 0.3, 0.2, 3).matrix),
    "givens.m": ("level", 3, lambda v: gates.givens(v, 0, 0.3, 3).matrix),
    "givens.n": ("level", 3, lambda v: gates.givens(0, v, 0.3, 3).matrix),
    "phase_swap.m": ("level", 3, lambda v: gates.phase_swap(v, 0, 3).matrix),
    "phase_swap.n": ("level", 3, lambda v: gates.phase_swap(0, v, 3).matrix),
    "qubit_binary_decode.level": ("level", 4, lambda v: gates.qubit_binary_decode(v, 2)),
    "embed": ("target", 3, lambda v: gates.embed(SNAP3, [v], PSI.shape).matrix),
    "apply_embedded": (
        "target", 3, lambda v: gates.apply_embedded(SNAP3, [v], PSI).amplitudes),
    "multiqudit_snap": (
        "target", 3, lambda v: gates.multiqudit_snap(v, [0.1, 0.2, 0.3], PSI.shape).matrix),
    "grape_optimize.guard_indices": (
        "guard_indices entry", 4, lambda v: _grape(guard_indices=(v,))),
    "grape_gradient.guard_indices": (
        "guard_indices entry", 4, lambda v: _grape_gradient(guard_indices=(v,))),
}

NOT_POSITIVE_REALS = [True, False, "2", None, 2j, math.nan, math.inf, -math.inf,
                      0, 0.0, -1, -2.5]
NOT_REALS = [True, False, "2", None, 2j]
NOT_COUNTS = [2.5, True, -1, "2", None, 2.0, np.float64(2.0)]
NOT_INDICES = [True, False, 1.5, 2.0, "1", None, -1]
NOT_COMPLEX = [True, False, np.bool_(True), "1", "1j", None, [1.0, 0.0]]


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


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_number_site_refuses(site, value):
    name, call = NUMBER_SITES[site]
    with pytest.raises(UsageError, match=name):
        call(value)


@pytest.mark.parametrize("value", [np.float64(2.0), np.float32(2.0), np.int64(2), 2],
                         ids=repr)
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_number_site_accepts_numpy_scalars(site, value):
    _, call = NUMBER_SITES[site]
    np.testing.assert_equal(call(value), call(2.0))


@pytest.mark.parametrize("value", NOT_COMPLEX, ids=repr)
@pytest.mark.parametrize("site", COMPLEX_SITES)
def test_complex_site_refuses(site, value):
    # "1", True and 1.0 all built the α = 1 object; a list raised a raw TypeError
    name, call = COMPLEX_SITES[site]
    with pytest.raises(UsageError, match=f"{name} must be a complex number"):
        call(value)


@pytest.mark.parametrize("value", [np.complex128(1.0), np.float64(1.0), np.float32(1.0),
                                   np.int64(1), 1, 1 + 0j], ids=repr)
@pytest.mark.parametrize("site", COMPLEX_SITES)
def test_complex_site_accepts_numpy_scalars(site, value):
    _, call = COMPLEX_SITES[site]
    np.testing.assert_equal(call(value), call(1.0))


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None], ids=repr)
@pytest.mark.parametrize("site", ENTRY_SITES)
def test_entry_site_refuses(site, value):
    # a bool among floats was read as 1.0 or 0.0
    name, call = ENTRY_SITES[site]
    with pytest.raises(UsageError, match=f"^{name} entries must be (real )?numbers, got "):
        call(value)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site in ENTRY_SITES
    for value in [np.complex128(1.0), np.float64(1.0), np.int64(1), 1, 1 + 0j]
    # a real site refuses a complex entry (test_real_entry_site_refuses_complex)
    if not (site in REAL_ARRAY_SITES and isinstance(value, complex))])
def test_entry_site_accepts_numpy_scalars(site, value):
    _, call = ENTRY_SITES[site]
    np.testing.assert_equal(call(value), call(1.0))


@pytest.mark.parametrize("value", [1j, np.complex128(1.0), 1 + 0j], ids=repr)
@pytest.mark.parametrize("site", sorted(REAL_ARRAY_SITES))
def test_real_entry_site_refuses_complex(site, value):
    # SampledWaveform and on_off_ratio raised a raw TypeError from float()
    name, call = ENTRY_SITES[site]
    with pytest.raises(UsageError, match=f"^{name} entries must be real numbers, got "):
        call(value)


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_site_refuses_ragged_rows_and_dicts(site):
    # each escaped as a raw ValueError or TypeError from numpy
    name, call = ARRAY_SITES[site]
    ragged = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    for bad in (ragged, _with_entry(site, [1.0, 0.0]), {0: 1.0}, _with_entry(site, {0: 1.0})):
        with pytest.raises(UsageError, match=f"^{name} "):
            call(bad)


@pytest.mark.parametrize("psi0", [[[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0]], np.zeros((3, 1)),
                                  np.array(1.0), 1.0, "100", {0: 1.0}], ids=repr)
def test_psi0_that_is_not_one_dimensional_is_a_shape_error(psi0):
    # a ragged list escaped as a bare ValueError; a 2-D one was flattened
    for call in (lambda: trotter.evolve_trotter(HAMILTONIAN, 1.0, 2, psi0),
                 lambda: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0], psi0)):
        with pytest.raises(ShapeError, match="^psi0 must be 1-D of length 3, got "):
            call()


@pytest.mark.parametrize("name, call", [
    ("psi0", lambda a: trotter.evolve_trotter(HAMILTONIAN, 1.0, 2, a)),
    ("amplitudes", lambda a: fock.StateVector(3, a))], ids=["psi0", "StateVector"])
def test_psi0_length_checked_before_allocation(name, call):
    psi0 = [0.0] * (1 << 20)
    message = f"^{name} must be 1-D of length 3, got length 1048576$"
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=message):
            call(psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10  # the amplitudes alone would be 16 MiB


def test_json_amplitude_path_unchanged():
    # gates._amplitude reads the JSON "alpha" and "beta" fields as before
    circuit = gates.circuit_from_json(json.dumps({"shape": [6], "gates": [
        {"kind": "displacement", "target": 0, "alpha": [0.3, -0.2]}]}))
    op, _ = circuit.gates[0].build(circuit.shape)
    np.testing.assert_array_equal(op.matrix, gates.displacement(0.3 - 0.2j, 6).matrix)
    with pytest.raises(errors.ParseError, match=r"number or \[re, im\] pair"):
        gates.circuit_from_json(json.dumps({"shape": [6], "gates": [
            {"kind": "displacement", "target": 0, "alpha": True}]}))


@pytest.mark.parametrize("dims", [3, np.int64(3), None, 2.5], ids=repr)
def test_hilbert_shape_refuses_a_bare_dimension(dims):
    # HilbertShape(3) raised a raw TypeError from tuple(3)
    with pytest.raises(InvalidDimensionError, match=r"shape_of\("):
        HilbertShape(dims)


def _read_numbers_per_entry(doc, name, what):
    """errors.read_numbers as it tested one entry at a time."""
    val = errors.read_field(doc, name, list, what)
    if not all(errors.is_json_number(v) for v in val):
        raise errors.ParseError(f"{what}: field '{name}' must be a list of numbers")
    return [float(v) for v in val]


def _otoc_times_per_entry(times_s):
    """The times otoc_series read with one require_real call per entry."""
    times = [errors.require_real("times_s entry", t) for t in times_s]
    for t in times:
        if not math.isfinite(t):
            raise NumericError(f"non-finite time {t}")
    return times


BULK_ENTRIES = [[], [1, 2.5], [0.5] * 200, [np.float64(1.5), 2], [np.int64(2), 1.0],
                [True, 1.0], [1.0, False], [1.0, "2"], [None], [math.nan, 1],
                [1, math.inf], [-math.inf], [np.float64(math.nan)], [1, 2j]]


def _outcome(call, *args):
    try:
        return "ok", repr(call(*args))
    except (errors.CavityQError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entries", BULK_ENTRIES, ids=repr)
def test_bulk_read_numbers_matches_per_entry_rule(entries):
    doc = {"xs": entries}
    assert _outcome(errors.read_numbers, doc, "xs", "cfg") \
        == _outcome(_read_numbers_per_entry, doc, "xs", "cfg")


@pytest.mark.parametrize("entries", [[10**400], [1.0, -(10**400)], [2**1024 - 2**970 - 1]],
                         ids=["10**400", "-10**400", "largest"])
def test_bulk_json_readers_match_per_entry_rule_beyond_the_float_range(entries):
    # read_numbers passed an int too large for a float to float(): OverflowError
    doc = {"xs": entries}
    assert _outcome(errors.read_numbers, doc, "xs", "cfg") \
        == _outcome(_read_numbers_per_entry, doc, "xs", "cfg")


@pytest.mark.parametrize("entries", BULK_ENTRIES, ids=repr)
def test_require_reals_matches_per_entry_rule(entries):
    # the list rule of otoc_series times, PulseSchedule carriers and detuning_sweep
    assert _outcome(errors.require_reals, "xs entry", entries) \
        == _outcome(lambda: [errors.require_real("xs entry", v) for v in entries])


@pytest.mark.parametrize("entries", BULK_ENTRIES, ids=repr)
def test_bulk_otoc_times_match_per_entry_rule(entries):
    def times(ts):
        return [row[0] for row in trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, ts)]

    assert _outcome(times, entries) == _outcome(_otoc_times_per_entry, entries)


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


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site, (_, size, _) in INDEX_SITES.items() for value in [*NOT_INDICES, size]])
def test_index_site_refuses(site, value):
    name, _, call = INDEX_SITES[site]
    with pytest.raises(UsageError, match=name):
        call(value)


@pytest.mark.parametrize("value", [np.int64(2), np.int32(2)], ids=repr)
@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_site_accepts_numpy_integers(site, value):
    _, _, call = INDEX_SITES[site]
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


def test_require_index_returns_a_python_int():
    out = errors.require_index("x", np.int64(3), 4)
    assert out == 3 and type(out) is int


# seed=None asks grape_optimize for no seeded start, so it is not a COUNT_SITES row
@pytest.mark.parametrize("value", [v for v in NOT_COUNTS if v is not None], ids=repr)
def test_grape_seed_refuses(value):
    with pytest.raises(UsageError, match="seed must be a nonnegative integer"):
        _grape(seed=value)


def test_grape_seed_accepts_numpy_integers():
    np.testing.assert_equal(_grape(seed=np.int64(2)), _grape(seed=2))


def test_require_index_messages():
    with pytest.raises(UsageError, match=r"^x must be an integer index, got True$"):
        errors.require_index("x", True, 4)
    with pytest.raises(UsageError, match=r"^x must be an integer index, got 1\.0$"):
        errors.require_index("x", 1.0, 4)
    with pytest.raises(UsageError, match=r"^x 4 outside \[0, 4\)$"):
        errors.require_index("x", 4, 4)
    with pytest.raises(UsageError, match=r"^x -1 outside \[0, 4\)$"):
        errors.require_index("x", -1, 4)


def test_require_positive_messages():
    with pytest.raises(UsageError, match=r"^x must be a real number, got True$"):
        errors.require_positive("x", True)
    with pytest.raises(UsageError, match=r"^x must be positive and finite, got inf$"):
        errors.require_positive("x", math.inf)


def test_out_of_range_guard_index_refused():
    with pytest.raises(UsageError, match=r"guard_indices entry 4 outside \[0, 4\)"):
        _grape(guard_indices=(4,))


# regressions: each input below gave a wrong result or a raw numpy error


def test_givens_refuses_bool_level():
    # True was level 1: a "gate" that is not unitary
    with pytest.raises(UsageError, match="level must be an integer index, got True"):
        gates.givens(True, 2, math.pi / 2, 3)


def test_phase_swap_refuses_bool_level():
    with pytest.raises(UsageError, match="level must be an integer index, got False"):
        gates.phase_swap(False, 1, 3)


def test_basis_state_refuses_bool_flat_index():
    with pytest.raises(UsageError, match="flat index must be an integer index, got True"):
        basis_state(3, True)


def test_unflatten_refuses_float_index():
    # (0.0, 1.5) came back
    with pytest.raises(UsageError, match="index must be an integer index, got 1.5"):
        HilbertShape((2, 2)).unflatten(1.5)


def test_grape_gradient_refuses_out_of_range_guard():
    # a raw IndexError came from the gradient pass
    with pytest.raises(UsageError, match=r"^guard_indices entry 5 outside \[0, 2\)$"):
        _grape_gradient(pulse.qubit_model(), guard_indices=(5,))


def test_grape_gradient_refuses_guard_on_operator_target():
    # the guard was ignored, where grape_optimize refuses it
    model = pulse.dispersive_model(1e6, 2)
    with pytest.raises(UsageError, match="applies to state targets only"):
        _grape_gradient(model, identity(model.shape), guard_indices=(1,))


def test_nan_learning_rate_refused():
    # the optimizer returned after 0 iterations
    with pytest.raises(UsageError, match="learning_rate must be positive and finite"):
        _grape(learning_rate=math.nan)


@pytest.mark.parametrize("estimator", [device.dephasing_rate, device.relaxation_rate])
def test_nan_spectral_density_refused(estimator):
    # nan came back as a rate
    with pytest.raises(UsageError, match="spectral density must be >= 0"):
        estimator(1.0, math.nan)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site in DIMENSION_SITES for value in [*NOT_COUNTS, 0]
    # n_levels=None asks trotter_step for no level check
    if not (site == "trotter_step" and value is None)])
def test_dimension_site_refuses(site, value):
    with pytest.raises(InvalidDimensionError, match="dimension"):
        DIMENSION_SITES[site](value)


@pytest.mark.parametrize("value", [np.int64(3), np.int32(3)], ids=repr)
@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_dimension_site_accepts_numpy_integers(site, value):
    call = DIMENSION_SITES[site]
    np.testing.assert_equal(call(value), call(3))


@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_dimension_cap_checked_before_allocation(site, monkeypatch):
    monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, "64")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds cap 64"):
            DIMENSION_SITES[site](CAP_DIMENSIONS.get(site, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each dense matrix of these sizes is 100 kB or more; the check is 2 kB
    assert peak < 64 << 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", FINITE_SITES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_finite_site_refuses(site, value):
    # the gate sites raised ValueError "math domain error", or NumericError
    # "non-finite entries in matrix" after RuntimeWarnings
    name, call = {**NUMBER_SITES, **COMPLEX_SITES}[site]
    with pytest.raises(UsageError, match=f"^{name} must be finite"):
        call(value)


@pytest.mark.parametrize("inverse", ["no", 0.0, 1, None, np.float64(1.0)], ids=repr)
def test_fourier_inverse_must_be_a_boolean(inverse):
    # "no" gave F† and 0.0 gave F, by truth value
    message = f"inverse must be a boolean, got {inverse!r}"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        gates.fourier(4, inverse)


def test_fourier_inverse_takes_numpy_booleans():
    for flag in (False, True):
        assert np.array_equal(gates.fourier(4, np.bool_(flag)).matrix,
                              gates.fourier(4, flag).matrix)


@pytest.mark.parametrize("value", [*NOT_COUNTS, 0], ids=repr)
def test_binomial_codewords_refuses_dimension(value):
    with pytest.raises(InvalidDimensionError, match="dimension"):
        codes.binomial_codewords(value)


def test_binomial_codewords_accepts_numpy_integer():
    for ours, plain in zip(codes.binomial_codewords(np.int64(6)), codes.binomial_codewords(6)):
        assert ours.shape == plain.shape
        np.testing.assert_equal(ours.amplitudes, plain.amplitudes)


def test_shape_of_numpy_integer():
    # a raw TypeError: 'numpy.int64' object is not iterable
    assert fock.shape_of(np.int64(3)) == HilbertShape((3,))
    assert fock.shape_of(np.array([2, 3])) == HilbertShape((2, 3))


@pytest.mark.parametrize("dims", [[2.7], [True, 2]], ids=repr)
def test_multisnap_refuses_non_integer_dimension(dims):
    # int(d) made a dims-(2,) gate of [2.7] and a (1, 2) gate of [True, 2]
    with pytest.raises(InvalidDimensionError, match="dimension"):
        gates.multisnap([0.1, 0.2], dims)


def test_qubit_binary_encode_refuses_bool_and_float_bits():
    # 5 came back
    with pytest.raises(UsageError, match="only 0/1, got True"):
        gates.qubit_binary_encode([True, False, 1.0])
    with pytest.raises(UsageError, match="only 0/1, got 1.0"):
        gates.qubit_binary_encode([1, 0, 1.0])
    assert gates.qubit_binary_encode(["1", np.int64(0), 1]) == 5


def test_givens_refuses_bool_angle():
    # True rotated by 1 rad
    with pytest.raises(UsageError, match="theta must be a real number, got True"):
        gates.givens(0, 1, True, 3)


def test_nan_tolerance_refused():
    # 0 iterations, fidelity 0.0 and converged False came back
    with pytest.raises(UsageError, match="tol must be finite, got nan"):
        _grape(tol=math.nan)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_sampled_waveform_refuses_non_finite_start(t0):
    # NaN rates, or all-zero rates for inf
    with pytest.raises(UsageError, match="t0_s must be finite"):
        qst.SampledWaveform([0.0, 1.0], 0.5, t0)


def test_non_finite_numbers_keep_their_error_class():
    with pytest.raises(NumericError, match="non-finite detuning"):
        _qst_config(delta_omega_hz=math.nan)
    with pytest.raises(NumericError, match="non-finite carrier"):
        pulse.PulseSchedule(1.0, (np.ones(2),), (math.inf,))
    with pytest.raises(NumericError, match="non-finite detuning"):
        qst.detuning_sweep(_matched_config(), [0.0, math.nan])
    with pytest.raises(NumericError, match="non-finite time"):
        trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0, math.nan])


@pytest.mark.parametrize("command, doc", [
    ("run", {"shape": [100], "gates": []}),
    ("code", {"alpha": [1.0, 0.0], "n_levels": 100, "t1_s": 1.0, "dt_s": 1e-4,
              "steps": 1}),
])
def test_cli_dimension_over_cap_exits_4(command, doc, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, "64")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["--out", str(tmp_path), command, str(config)]) == 4
    err = capsys.readouterr().err
    assert err == "error: total dimension 100 exceeds cap 64\n"


BIG = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize("command, field, doc", [
    ("device", "g_hz", {**DEVICE, "g_hz": BIG}),
    ("grape", "dt_s", {"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
                       "n_segments": 5, "dt_s": BIG}),
    ("trotter", "diagonal", {"diagonal": [0.3, BIG], "kinetic_diagonal": [0.1, 0.3],
                             "t_total_s": 1.0, "steps_list": [10]}),
    ("qst", "kappa_hz", {"kappa_hz": BIG, "t_span_s": [-2e-5, 2e-5], "dt_s": 4e-8,
                         "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}),
    ("code", "alpha", {"alpha": [BIG, 0.0], "n_levels": 10, "t1_s": 1e-3, "dt_s": 1e-7,
                       "steps": 10}),
    ("run", "alpha", {"shape": [8], "gates": [{"kind": "displacement", "target": 0,
                                               "alpha": BIG}]}),
    # the array rule's readers: a SNAP gate, a matrix spec and a transfer input_state
    ("run", "theta", {"shape": [3], "gates": [{"kind": "snap", "target": 0,
                                               "theta": [0.0, BIG, 0.0]}]}),
    ("otoc", "re", {"diagonal": [0.3, -0.1], "kinetic_diagonal": [0.1, 0.3], "times_s": [0.0],
                    "w": {"kind": "fourier"},
                    "v": {"kind": "matrix", "re": [[BIG, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}}),
    ("qst", "input_state", {"kappa_hz": 2e6, "t_span_s": [-2e-5, 2e-5], "dt_s": 2e-8,
                            "input_state": [[0.0, 0.0], [BIG, 0.0]],
                            "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}),
], ids=["device", "grape", "trotter", "qst", "code", "run", "run_theta", "otoc_re", "qst_input_state"])
def test_cli_huge_integer_in_float_field_exits_2(command, field, doc, tmp_path, capsys):
    # each ended in an OverflowError traceback and exit 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["--out", str(tmp_path), command, str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{field}'" in err


def test_cli_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raised a bare ValueError past 4300 digits: a traceback and exit 1
    config = tmp_path / "grape.json"
    config.write_text('{"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"}, '
                      f'"n_segments": 5, "dt_s": 1{"0" * 5000}}}')
    assert cli.main(["--out", str(tmp_path), "grape", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid grape config JSON: ")


def test_cli_zero_segments_refused(tmp_path, capsys):
    config = tmp_path / "grape.json"
    config.write_text(json.dumps({"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
                                  "n_segments": 0, "dt_s": 1e-8}))
    assert cli.main(["--out", str(tmp_path), "grape", str(config)]) == 1
    assert "n_segments must be a positive integer, got 0" in capsys.readouterr().err


def test_bulk_rule_tests_one_entry_per_type():
    # np.float64 phases went to one is_real call per entry, 70 µs for 128
    phases = list(np.random.default_rng(3).uniform(-3.0, 3.0, 128))
    test = mock.Mock(side_effect=errors.is_real)
    assert errors.are_reals([*phases, 1, 2.5, np.int64(4)], test)
    assert sorted(type(call.args[0]).__name__ for call in test.call_args_list) == [
        "float", "float64", "int", "int64"]
    assert errors.require_reals("x", phases) == [float(v) for v in phases]


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", None, 1j], ids=repr)
def test_bulk_rule_still_refuses_one_bad_entry(bad):
    phases = [np.float64(v) for v in (0.5, -1.0, 2.0)]
    entries = [*phases[:2], bad, phases[2]]
    with pytest.raises(UsageError,
                       match=f"snap theta entries must be real numbers, got {re.escape(repr(bad))}"):
        gates.snap(entries)
    with pytest.raises(UsageError, match=f"x must be a real number, got {re.escape(repr(bad))}"):
        errors.require_reals("x", entries)
    with pytest.raises(errors.ParseError, match="field 'xs' must be a list of numbers"):
        errors.read_numbers({"xs": entries}, "xs", "cfg")


# a number too large for a float at a real site: NumericError naming the argument
HUGE_INT_SITES = {
    "require_real": ("x", lambda v: errors.require_real("x", v)),
    "require_reals": ("x", lambda v: errors.require_reals("x", [0.5, v])),
    "DeviceParams.g_hz": ("g_hz", lambda v: device.DeviceParams(**dict(DEVICE, g_hz=v))),
    "PulseSchedule.dt_s": ("dt_s", lambda v: pulse.PulseSchedule(v, (np.ones(3),), (0.0,))),
    "PulseSchedule.carriers_hz": (
        "carriers_hz entry", lambda v: pulse.PulseSchedule(1e-9, (np.ones(2),), (v,))),
    "otoc_series.times_s": (
        "times_s entry", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [v])),
    # complex sites: complex() raised the OverflowError
    "require_complex": ("x", lambda v: errors.require_complex("x", v)),
    "coherent_state.alpha": ("alpha", lambda v: fock.coherent_state(v, 4)),
    "cat_state.alpha": ("alpha", lambda v: codes.cat_state(v, "+", 4)),
    "displacement.alpha": ("alpha", lambda v: gates.displacement(v, 4)),
    "ecd.beta": ("beta", lambda v: gates.ecd(v, 4)),
}


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024 - 2**970, Fraction(10**400, 3)],
                         ids=repr)
@pytest.mark.parametrize("site", HUGE_INT_SITES)
def test_number_too_large_for_a_float_is_a_numeric_error(site, value):
    # float() raised a raw OverflowError
    name, call = HUGE_INT_SITES[site]
    with pytest.raises(NumericError, match=f"^{name} is too large for a float$"):
        call(value)


@pytest.mark.parametrize("streams", [5, None, 1.0, "ab", {0: [1.0]}, np.array(1.0)], ids=repr)
def test_pulse_schedule_streams_must_be_a_sequence(streams):
    # enumerate(5) raised a raw TypeError
    with pytest.raises(UsageError, match="^streams must be a list, tuple or array of "
                                         "amplitude streams, got "):
        pulse.PulseSchedule(1e-9, streams, (0.0,))


def test_pulse_schedule_takes_streams_as_a_2d_array():
    streams = np.arange(6, dtype=complex).reshape(2, 3)
    schedule = pulse.PulseSchedule(1e-9, streams, (0.0, 0.0))
    assert [s.tolist() for s in schedule.streams] == streams.tolist()


# entries for the array rule's property test: valid at every dtype, valid at
# dtype complex only, of a type no array takes, and numbers that are not finite
_REAL_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**80, 2**80),
    st.sampled_from([2**1024 - 2**970 - 1, -(2**1024 - 2**970 - 1)]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
_COMPLEX_ENTRIES = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128))
_NOT_NUMBERS = st.sampled_from([True, False, np.True_, "1", "nan", None])
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                               10**400, -(10**400), 2**1024 - 2**970])


def _finite_number(v) -> bool:
    try:
        return cmath.isfinite(complex(v))
    except OverflowError:  # an int too large for a float
        return False


def _array_rule_outcome(values, shape, dtype):
    """require_array's result as (dtype, shape, bytes, read-only and
    C-ordered), or its exception as (class, message)."""
    try:
        arr = errors.require_array("a", values, shape, dtype)
    except errors.CavityQError as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes(), not arr.flags.writeable and arr.flags.c_contiguous


@st.composite
def _array_cases(draw):
    """(values, shape, dtype): a flat list or a list of rows of n entries
    each, with up to two faults (an entry that is not a number, one that
    is not finite, ragged rows), and a shape of (None,), (m,) or (m, m)
    with m = n or n + 1, mostly that of the layout drawn."""
    dtype = draw(st.sampled_from([float, complex]))
    rows, n = draw(st.booleans()), draw(st.integers(0, 4))
    good = _REAL_ENTRIES if dtype is float else st.one_of(_REAL_ENTRIES, _COMPLEX_ENTRIES)
    values = ([[draw(good) for _ in range(n)] for _ in range(n)] if rows
              else [draw(good) for _ in range(n)])
    slots = [(i, j) for i in range(n) for j in range(n)] if rows else list(range(n))
    bad = _NOT_NUMBERS if dtype is complex else st.one_of(_NOT_NUMBERS, _COMPLEX_ENTRIES)
    for fault in draw(st.sampled_from([(), (), ("entry",), ("not_finite",), ("ragged",),
                                       ("entry", "not_finite"), ("entry", "ragged"),
                                       ("not_finite", "ragged")])):
        if fault == "ragged" and n >= 2:  # last, so that no other fault overwrites it
            if rows:
                values[draw(st.integers(0, n - 1))].append(draw(good))
            else:
                values[draw(st.integers(0, n - 1))] = [draw(good)]
        elif fault != "ragged" and slots:
            slot = draw(st.sampled_from(slots))
            entry = draw(bad if fault == "entry" else _NOT_FINITE)
            if rows:
                values[slot[0]][slot[1]] = entry
            else:
                values[slot] = entry
    m = draw(st.sampled_from([n, n, n + 1]))
    own = [(m, m)] if rows else [(None,), (m,)]
    return values, draw(st.sampled_from(own * 3 + [(None,), (m,), (m, m)])), dtype


def _expected_array_error(values, shape, dtype):
    """The class require_array's docstring names for values, in its order
    of checks, or None for a valid array."""
    if None not in shape and len(values) != shape[0]:
        return ShapeError
    rows = bool(values) and all(isinstance(v, list) for v in values)
    if (any(isinstance(v, list) for v in values) and not rows
            or rows and len({len(r) for r in values}) > 1):
        return ShapeError  # ragged rows
    got = (len(values), len(values[0])) if rows else (len(values),)
    if len(got) != len(shape) or any(w not in (None, g) for w, g in zip(shape, got)):
        return ShapeError
    entries = [v for r in values for v in r] if rows else values
    if any(isinstance(v, (bool, np.bool_, str)) or v is None
           or dtype is float and isinstance(v, (complex, np.complexfloating)) for v in entries):
        return UsageError
    if not all(map(_finite_number, entries)):
        return NumericError
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_array_cases())
def test_array_rule_fast_path_matches_the_object_path(case):
    # one np.array call for plain numbers; every other list goes through an
    # object array. Both give the same array bytes or the same error.
    values, shape, dtype = case
    fast = _array_rule_outcome(values, shape, dtype)
    with mock.patch.object(errors, "_bulk_types", lambda dtype: frozenset()):
        assert _array_rule_outcome(values, shape, dtype) == fast
    expected = _expected_array_error(values, shape, dtype)
    if expected is None:
        want = np.array(values, dtype)
        assert fast == (want.dtype, want.shape, want.tobytes(), True)
    else:
        assert fast[0] is expected, (fast, expected)
