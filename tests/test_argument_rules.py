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
other shape; an instance site (`errors.require_instance`), every parameter
annotated with a cavityq class, refuses anything but an object of it; a
shape site (`errors.require_on`) also refuses one on a register other than
the one another argument fixes; a distinct site (`errors.require_distinct`)
refuses a repeated entry, a non-empty site (`errors.require_sequence` with
least=1) no entries, a choice site (`errors.require_choice`), every Literal
parameter, anything but one of its choices, a sign site
(`errors.require_nonnegative`) a negative or NaN real, and a length site
(`errors.require_array` with `least` or a fixed length) a wrong entry
count. All raise UsageError naming the argument (InvalidDimensionError for
a HilbertShape dimension, ShapeError for another register or length), and
a numpy scalar of an accepted type gives the same result as the Python
number.
"""

import ast
import cmath
import collections.abc
import dataclasses
import inspect
import json
import math
import re
import tracemalloc
import types
import typing
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cavityq
from cavityq import cli, codes, device, errors, fock, gates, noise, pulse, qst, trotter
from cavityq.errors import (CapacityError, InvalidDimensionError, NumericError, ShapeError,
                            UsageError)
from cavityq.fock import HilbertShape, basis_state, identity

from bad_values import BAD_VALUES

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
    "photon_loss_channel.dt_s": (
        "dt_s", lambda v: [k.matrix for k in noise.photon_loss_channel(1e6, v, 3).kraus]),
    "dephasing_channel.dt_s": (
        "dt_s", lambda v: [k.matrix for k in noise.dephasing_channel(1e-6, v, 3).kraus]),
    "sech_pitch.kappa_hz": ("kappa_hz", lambda v: qst.sech_pitch(v, np.linspace(-3.0, 3.0, 7))),
    **{f"DeviceParams.{field}": (
        field, lambda v, field=field: vars(
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
    # a string raised a raw TypeError and True built a model
    "qubit_model.detuning_hz": ("detuning_hz", lambda v: pulse.qubit_model(v).drift.matrix),
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
    "dephasing_rate.dispersion": ("dispersion", lambda v: device.dephasing_rate(v, 1.5)),
    "dephasing_rate.k": ("k must", lambda v: device.dephasing_rate(3.0, 1.5, v)),
    "relaxation_rate.k": ("k must", lambda v: device.relaxation_rate(0.5, 1.5, v)),
    "multimode_drive_freq.chi_k_hz": ("chi_k_hz", lambda v: device.multimode_drive_freq(
        device.DeviceParams(**DEVICE), [(1, 2e5), (1, v)])),
    "raman_coupling.g_hz": ("g_hz", lambda v: qst.raman_coupling(0.5, v, 1.0, 1.0)),
    "raman_coupling.alpha_anharm_hz": (
        "alpha_anharm_hz", lambda v: qst.raman_coupling(0.5, 1.0, v, 1.0)),
    "raman_coupling.delta_hz": ("delta_hz", lambda v: qst.raman_coupling(0.5, 1.0, 1.0, v)),
    "raman_coupling.omega_drive_hz": (
        "omega_drive_hz", lambda v: qst.raman_coupling(v, 1.0, 1.0, 1.0)),
    "sech_pitch.t_s": ("t_s", lambda v: qst.sech_pitch(1.0, v)),
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
    "trotter_convergence.t_total_s": (
        "t_total_s", lambda v: trotter.trotter_convergence(HAMILTONIAN, v, [3, 5])),
    "evolve_trotter.t_total_s": (
        "t_total_s", lambda v: trotter.evolve_trotter(HAMILTONIAN, v, 3).state.amplitudes),
    "propagator.t": ("t", lambda v: fock.propagator(fock.number_operator(3), v).matrix),
    # "x" raised numpy's UFuncTypeError
    "Operator.is_hermitian.tol": ("tol", lambda v: identity(2).is_hermitian(v)),
    "Operator.is_unitary.tol": ("tol", lambda v: identity(2).is_unitary(v)),
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
        "input_state", lambda v: _qst_config(input_state=(0.0, v)).input_state),
    "relaxation_rate.matrix_element": (
        "matrix_element", lambda v: device.relaxation_rate(v, 1.5)),
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
    "raman_coupling.omega_drive_hz": (
        "omega_drive_hz", lambda a: qst.raman_coupling(a, 1.0, 1.0, 1.0)),
    "sech_pitch.t_s": ("t_s", lambda a: qst.sech_pitch(1.0, a)),
}
MATRIX_SITES = {"Operator.matrix", "otoc_series.W", "otoc_series.V", "apply_channel.rho"}
REAL_ARRAY_SITES = {"SampledWaveform.values", "on_off_ratio.waveform",
                    "QuditHamiltonian.diagonal", "QuditHamiltonian.kinetic_diagonal",
                    "raman_coupling.omega_drive_hz", "sech_pitch.t_s"}


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
                "optimize_snap_displacement_sequence.leak_weight", "qubit_model.detuning_hz",
                "SampledWaveform.t0_s",
                "qubit_rotation.theta", "qubit_rotation.phi", "cond_rotation.theta",
                "cond_rotation.phi", "givens.theta", "displacement.alpha", "ecd.beta",
                "trotter_convergence.t_total_s", "evolve_trotter.t_total_s", "propagator.t",
                "raman_coupling.omega_drive_hz", "sech_pitch.t_s", "Operator.is_hermitian.tol",
                "Operator.is_unitary.tol"]

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
    "on_off_ratio.samples": ("samples", lambda v: qst.on_off_ratio(
        qst.matched_emit_rate(1.0), 0.5, (-3.0, 3.0), samples=v)),
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
    message = f"{name} must be a complex number"
    if site == "QstConfig.input_state":  # the pair is read by the array rule
        message = ("input_state must be 1-D of length 2, got ragged rows"
                   if isinstance(value, list)
                   else f"input_state entries must be numbers, got {re.escape(repr(value))}")
    with pytest.raises(UsageError, match=message):
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
    # gates._amplitude decodes a JSON [re, im] pair, and the kernel reads
    # "alpha" and "beta" by require_complex, as the public constructors do
    circuit = gates.circuit_from_json(json.dumps({"shape": [6], "gates": [
        {"kind": "displacement", "target": 0, "alpha": [0.3, -0.2]}]}))
    op, _ = circuit.gates[0].build(circuit.shape)
    np.testing.assert_array_equal(op.matrix, gates.displacement(0.3 - 0.2j, 6).matrix)
    with pytest.raises(errors.ParseError, match="alpha must be a complex number, got True"):
        gates.circuit_from_json(json.dumps({"shape": [6], "gates": [
            {"kind": "displacement", "target": 0, "alpha": True}]}))


@pytest.mark.parametrize("dims", [3, np.int64(3), None, 2.5], ids=repr)
def test_hilbert_shape_refuses_a_bare_dimension(dims):
    # HilbertShape(3) raised a raw TypeError from tuple(3)
    with pytest.raises(InvalidDimensionError, match=r"shape_of\("):
        HilbertShape(dims)


def _otoc_times_per_entry(times_s):
    """The times otoc_series reads with the array rule, one entry at a time."""
    for t in times_s:
        if not errors.is_real(t):
            raise UsageError(f"times_s entries must be real numbers, got {t!r}")
    times = [float(t) for t in times_s]
    if not all(map(math.isfinite, times)):
        raise NumericError("non-finite entries in times_s")
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
                                  errors.require_count, errors.require_nonnegative])
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


@pytest.mark.parametrize("estimator, name", [
    (device.dephasing_rate, "spectral_density_dc"),
    (device.relaxation_rate, "spectral_density_at_e01")], ids=["dephasing_rate", "relaxation_rate"])
def test_nan_spectral_density_refused(estimator, name):
    # nan came back as a rate
    with pytest.raises(UsageError, match=f"^{name} must be nonnegative, got nan$"):
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


def test_dispersive_cavity_drive_takes_numpy_booleans():
    for flag in (False, True):
        model = pulse.dispersive_model(1e6, 3, cavity_drive=np.bool_(flag))
        assert [op.matrix.tolist() for op in model.controls] == [
            op.matrix.tolist() for op in pulse.dispersive_model(1e6, 3, flag).controls]


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
    with pytest.raises(UsageError, match=r"^bit must be one of \(0, 1\), got True$"):
        gates.qubit_binary_encode([True, False, 1.0])
    with pytest.raises(UsageError, match=r"^bit must be one of \(0, 1\), got 1.0$"):
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
    with pytest.raises(NumericError, match="non-finite entries in carriers_hz"):
        pulse.PulseSchedule(1.0, (np.ones(2),), (math.inf,))
    with pytest.raises(NumericError, match="non-finite entries in delta_list"):
        qst.detuning_sweep(_matched_config(), [0.0, math.nan])
    with pytest.raises(NumericError, match="non-finite entries in times_s"):
        trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0, math.nan])


# calls that raised a raw TypeError, ValueError, OverflowError or numpy
# error: site -> (the library error, the start of its message, the call)
LIBRARY_ERROR_CALLS = {
    "PulseSchedule.carriers_hz scalar": (
        ShapeError, "carriers_hz must be 1-D of length 1, got ()",
        lambda: pulse.PulseSchedule(1e-9, [np.zeros(3)], 0.0)),
    "PulseSchedule.carriers_hz None": (
        ShapeError, "carriers_hz must be 1-D of length 1, got ()",
        lambda: pulse.PulseSchedule(1e-9, [np.zeros(3)], None)),
    "detuning_sweep.delta_list scalar": (
        ShapeError, "delta_list must be 1-D, got ()",
        lambda: qst.detuning_sweep(_matched_config(), 5.0)),
    "detuning_sweep.delta_list None": (
        ShapeError, "delta_list must be 1-D, got ()",
        lambda: qst.detuning_sweep(_matched_config(), None)),
    "QstConfig.t_span_s scalar": (
        ShapeError, "t_span_s must be 1-D of length 2, got ()", lambda: _qst_config(t_span_s=5.0)),
    "QstConfig.input_state scalar": (
        ShapeError, "input_state must be 1-D of length 2, got ()",
        lambda: _qst_config(input_state=1.0)),
    # the third entry was dropped unread
    "QstConfig.t_span_s length 3": (
        ShapeError, "t_span_s must be 1-D of length 2, got length 3",
        lambda: _qst_config(t_span_s=(-4.0, 4.0, 8.0))),
    "QstConfig.input_state length 3": (
        ShapeError, "input_state must be 1-D of length 2, got length 3",
        lambda: _qst_config(input_state=(1.0, 0.0, 0.0))),
    "dephasing_rate overflow": (
        NumericError, "dephasing_rate is not finite", lambda: device.dephasing_rate(1e300, 1e300)),
    "relaxation_rate overflow": (
        NumericError, "relaxation_rate is not finite",
        lambda: device.relaxation_rate(1e300, 1e300)),
    **{f"multimode_drive_freq {entries!r}": (
        UsageError, "occupations_and_shifts must be a sequence of (n_k, chi_k_hz) pairs",
        lambda entries=entries: device.multimode_drive_freq(device.DeviceParams(**DEVICE),
                                                            entries))
       for entries in ([1], [(1, 2e5, 3)])},
    "multimode_drive_freq None": (
        UsageError, "occupations_and_shifts must be a sequence, got None",
        lambda: device.multimode_drive_freq(device.DeviceParams(**DEVICE), None)),
    "coherent_overlap overflow": (
        NumericError, "coherent_overlap is not finite", lambda: codes.coherent_overlap(1e200, 1e200)),
    "coherent_overlap inf": (
        NumericError, "coherent_overlap is not finite",
        lambda: codes.coherent_overlap(math.inf, 0.5)),
    "on_off_ratio.t_span_s": (
        UsageError, "t_span_s entries must be real numbers, got 'a'",
        lambda: qst.on_off_ratio(qst.matched_emit_rate(1.0), 0.5, ("a", "b"))),
    "on_off_ratio.samples 0": (
        UsageError, "samples must be a positive integer, got 0",
        lambda: qst.on_off_ratio(qst.matched_emit_rate(1.0), 0.5, (-3.0, 3.0), samples=0)),
    **{f"GateSpec.params {params!r}": (
        UsageError, f"gate params must be a mapping, got {params!r}",
        lambda params=params: gates.GateSpec("snap", params)) for params in (None, 5)},
    "Circuit.gates None": (
        UsageError, "gates must be a sequence, got None",
        lambda: gates.Circuit((3,), None)),
    # a raw AttributeError when the circuit was applied
    "Circuit.gates entry": (
        UsageError, "gate 0 must be a cavityq GateSpec, got {'kind': 'fourier', 'target': 0}",
        lambda: gates.Circuit((3,), [{"kind": "fourier", "target": 0}])),
    "GateSpec.kind list": (
        UsageError, "gate 0: unknown gate kind ['snap']",
        lambda: gates.Circuit((3,), [gates.GateSpec(["snap"], {})])),
    "GateSpec.build shape": (
        InvalidDimensionError, "subsystem dimension must be a positive integer, got None",
        lambda: gates.GateSpec("fourier", {"target": 0}).build(None)),
    "apply_embedded.targets": (
        UsageError, "targets must be a sequence, got 0",
        lambda: gates.apply_embedded(SNAP3, 0, basis_state(3, 0))),
    "embed.targets": (
        UsageError, "targets must be a sequence, got None",
        lambda: gates.embed(SNAP3, None, 3)),
    **{f"qubit_binary_encode {bits!r}": (
        UsageError, f"bits must be a str, list or tuple, got {bits!r}",
        lambda bits=bits: gates.qubit_binary_encode(bits)) for bits in (5, None)},
    # each warned "overflow encountered" and returned inf
    "raman_coupling overflow": (
        NumericError, "raman_coupling is not finite",
        lambda: qst.raman_coupling(1e300, 1e300, 1.0, 1.0)),
    "raman_coupling tiny detuning": (
        NumericError, "raman_coupling is not finite",
        lambda: qst.raman_coupling(1.0, 1e300, 1.0, 1e-300)),
    # "no" and 1 built the cavity-drive streams, by truth value
    **{f"dispersive_model.cavity_drive {flag!r}": (
        UsageError, f"cavity_drive must be a boolean, got {flag!r}",
        lambda flag=flag: pulse.dispersive_model(1e6, 3, cavity_drive=flag))
       for flag in ("no", 1, 0.0, None)},
    # False was taken for 0; "x" and None were told thermal channels are reserved
    **{f"QstConfig.channel_temperature {value!r}": (
        UsageError, f"channel_temperature must be a real number, got {value!r}",
        lambda value=value: _qst_config(channel_temperature=value))
       for value in (False, "x", None)},
    # each raised "'str' object has no attribute 'shape'"
    "apply_embedded.psi": (
        UsageError, "psi must be a cavityq StateVector, got 'x'",
        lambda: gates.apply_embedded(SNAP3, [0], "x")),
    "apply_embedded.op": (
        UsageError, "op must be a cavityq Operator, got 'x'",
        lambda: gates.apply_embedded("x", [0], basis_state(3, 0))),
    "embed.op": (
        UsageError, "op must be a cavityq Operator, got 'x'", lambda: gates.embed("x", [0], 3)),
    "apply_circuit.circuit": (
        UsageError, "circuit must be a cavityq Circuit, got 'x'",
        lambda: gates.apply_circuit("x", basis_state(3, 0))),
    "apply_circuit.psi": (
        UsageError, "psi must be a cavityq StateVector, got 'x'",
        lambda: gates.apply_circuit(gates.Circuit((3,), ()), "x")),
    # each raised a raw AttributeError or TypeError
    "simulate_schedule.model": (
        UsageError, "model must be a cavityq ControlModel, got 'x'",
        lambda: pulse.simulate_schedule("x", _schedule(), return_propagator=True)),
    "simulate_schedule.schedule": (
        UsageError, "schedule must be a cavityq PulseSchedule, got 'x'",
        lambda: pulse.simulate_schedule(pulse.qubit_model(), "x", return_propagator=True)),
    "simulate_schedule.psi0": (
        UsageError, "psi0 must be a cavityq StateVector, got [1, 0]",
        lambda: pulse.simulate_schedule(pulse.qubit_model(), _schedule(), psi0=[1, 0])),
    "grape_gradient.schedule": (
        UsageError, "schedule must be a cavityq PulseSchedule, got 'x'",
        lambda: pulse.grape_gradient(pulse.qubit_model(), "x", identity(2))),
    "grape_optimize.schedule0": (
        UsageError, "schedule0 must be a cavityq PulseSchedule, got None",
        lambda: pulse.grape_optimize(pulse.qubit_model(), identity(2), None)),
    "grape_optimize.psi0": (
        UsageError, "psi0 must be a cavityq StateVector, got [1, 0]",
        lambda: pulse.grape_optimize(pulse.qubit_model(), basis_state(2, 1), _schedule(),
                                     psi0=[1, 0])),
    "synthesize_snap_pulse.model": (
        UsageError, "model must be a cavityq ControlModel, got 'x'",
        lambda: pulse.synthesize_snap_pulse("x", [0.1, 0.2], 1e-5)),
    "gate_fidelity.u": (
        UsageError, "u must be a cavityq Operator, got [[1]]",
        lambda: pulse.gate_fidelity([[1]], identity(1))),
    "snap_average_fidelity.u": (
        UsageError, "u must be a cavityq Operator, got array(",
        lambda: pulse.snap_average_fidelity(np.eye(4), [0.1, 0.2])),
    "ControlModel.controls None": (
        UsageError, "controls must be a sequence, got None",
        lambda: pulse.ControlModel(2, identity(2), None)),
    "simulate_transfer.config": (
        UsageError, "config must be a cavityq QstConfig, got 'x'",
        lambda: qst.simulate_transfer("x")),
    "detuning_sweep.config": (
        UsageError, "config must be a cavityq QstConfig, got 'x'",
        lambda: qst.detuning_sweep("x", [0.0, 1.0])),
    **{f"simulate_transfer.{slot}_waveform": (
        UsageError, f"{slot} waveform must be callable, got 5",
        lambda slot=slot: qst.simulate_transfer(_qst_config(**{f"{slot}_waveform": 5})))
       for slot in ("emit", "catch")},
    # each raised a raw TypeError, or numpy's UFuncTypeError for a tolerance
    "grape_gradient.guard_indices 5": (
        UsageError, "guard_indices must be a sequence, got 5",
        lambda: _grape_gradient(guard_indices=5)),
    "grape_optimize.guard_indices 5": (
        UsageError, "guard_indices must be a sequence, got 5", lambda: _grape(guard_indices=5)),
    "mode_probabilities.keep 5": (
        UsageError, "keep must be a sequence, got 5", lambda: fock.mode_probabilities(PSI, 5)),
    "reduced_density_matrix.keep 5": (
        UsageError, "keep must be a sequence, got 5",
        lambda: fock.reduced_density_matrix(PSI, 5)),
    "NoiseChannel.kraus 5": (
        UsageError, "kraus must be a sequence, got 5", lambda: noise.NoiseChannel(3, 5, 1e-4)),
    "Operator.is_hermitian.tol": (
        UsageError, "tol must be a real number, got 'x'", lambda: identity(2).is_hermitian("x")),
    "Operator.is_unitary.tol": (
        UsageError, "tol must be a real number, got 'x'", lambda: identity(2).is_unitary("x")),
    # each raised "tensor factors must be all states or all operators"
    "tensor factor 0": (
        UsageError, "factor 0 must be a cavityq StateVector or Operator, got 'x'",
        lambda: fock.tensor("x", basis_state(3, 1))),
    "tensor factor 1": (
        UsageError, "factor 1 must be a cavityq StateVector, got Operator(",
        lambda: fock.tensor(basis_state(3, 1), identity(3))),
    "tensor factor 2": (
        UsageError, "factor 2 must be a cavityq Operator, got None",
        lambda: fock.tensor(identity(2), identity(3), None)),
}


def _schedule():
    return pulse.PulseSchedule(1e-8, (np.zeros(3, dtype=complex),), (0.0,))


def test_gate_spec_build_reads_its_shape_with_shape_of():
    spec = gates.GateSpec("fourier", {"target": 0})
    np.testing.assert_array_equal(spec.build(3)[0].matrix,
                                  spec.build(HilbertShape((3,)))[0].matrix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", LIBRARY_ERROR_CALLS)
def test_call_raises_a_library_error(site):
    error, message, call = LIBRARY_ERROR_CALLS[site]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


# --- the type rule: every parameter annotated with a cavityq class --------

CHANNEL = noise.photon_loss_channel(1.0, 1e-4, 3)
PSI3 = basis_state(3, 1)
STATE_TARGET = basis_state((2, 2), [1, 0])


def _grape_state(**kw):
    return pulse.grape_optimize(**{"model": pulse.dispersive_model(1e6, 2),
                                   "target": STATE_TARGET, "schedule0": _schedule(),
                                   "iterations": 1, **kw})


# site -> (argument name in the message, call with the argument set to v): a
# tuple[<Class>, ...] site takes v as an entry, named by its position
INSTANCE_SITES = {
    "parity.psi": ("psi", lambda v: codes.parity(v)),
    "photon_loss_cycle_check.psi": ("psi", lambda v: codes.photon_loss_cycle_check(v, 1)),
    "chi.params": ("params", lambda v: device.chi(v)),
    "stark_shifted_freq.params": ("params", lambda v: device.stark_shifted_freq(v, 1)),
    "critical_photon_number.params": ("params", lambda v: device.critical_photon_number(v)),
    "fock_t1.params": ("params", lambda v: device.fock_t1(v, 0)),
    "max_fock.params": ("params", lambda v: device.max_fock(v)),
    "snap_min_gate_time.params": ("params", lambda v: device.snap_min_gate_time(v)),
    "multimode_drive_freq.params": (
        "params", lambda v: device.multimode_drive_freq(v, [(1, 2e5)])),
    "device_summary.params": ("params", lambda v: device.device_summary(v)),
    "StateVector.overlap.other": ("other", lambda v: PSI3.overlap(v)),
    "Operator.__matmul__.other": ("other", lambda v: identity(3) @ v),
    "Operator.apply.psi": ("psi", lambda v: identity(3).apply(v)),
    "propagator.h": ("h", lambda v: fock.propagator(v, 1.0)),
    "fidelity.a": ("a", lambda v: fock.fidelity(v, PSI3)),
    "fidelity.b": ("b", lambda v: fock.fidelity(PSI3, v)),
    "reduced_density_matrix.psi": ("psi", lambda v: fock.reduced_density_matrix(v, [0])),
    "mode_probabilities.psi": ("psi", lambda v: fock.mode_probabilities(v)),
    "mean_occupation.psi": ("psi", lambda v: fock.mean_occupation(v)),
    "embed.op": ("op", lambda v: gates.embed(v, [0], 3)),
    "apply_embedded.op": ("op", lambda v: gates.apply_embedded(v, [0], PSI3)),
    "apply_embedded.psi": ("psi", lambda v: gates.apply_embedded(SNAP3, [0], v)),
    "Circuit.gates": ("gate 0", lambda v: gates.Circuit((3,), (v,))),
    "apply_circuit.circuit": ("circuit", lambda v: gates.apply_circuit(v, PSI3)),
    "apply_circuit.psi": ("psi", lambda v: gates.apply_circuit(gates.Circuit((3,), ()), v)),
    "circuit_unitary.circuit": ("circuit", lambda v: gates.circuit_unitary(v)),
    "NoiseChannel.kraus": ("Kraus operator 0", lambda v: noise.NoiseChannel(3, (v,), 1e-4)),
    "density_matrix.psi": ("psi", lambda v: noise.density_matrix(v)),
    "apply_channel.channel": ("channel", lambda v: noise.apply_channel(v, np.eye(3))),
    "apply_channel_trajectory.channel": (
        "channel", lambda v: noise.apply_channel_trajectory(v, PSI3, 2, 1)),
    "apply_channel_trajectory.psi": (
        "psi", lambda v: noise.apply_channel_trajectory(CHANNEL, v, 2, 1)),
    "run_trajectories.channel": ("channel", lambda v: noise.run_trajectories(v, PSI3, 2, 2, 1)),
    "run_trajectories.psi": ("psi", lambda v: noise.run_trajectories(CHANNEL, v, 2, 2, 1)),
    "ControlModel.drift": (
        "drift", lambda v: pulse.ControlModel(2, v, pulse.qubit_model().controls)),
    "ControlModel.controls": ("control 0", lambda v: pulse.ControlModel(2, identity(2), (v, v))),
    "dispersive_model_from_device.params": (
        "params", lambda v: pulse.dispersive_model_from_device(v, 3)),
    "simulate_schedule.model": ("model", lambda v: pulse.simulate_schedule(v, _schedule())),
    "simulate_schedule.schedule": (
        "schedule", lambda v: pulse.simulate_schedule(pulse.qubit_model(), v)),
    "simulate_schedule.psi0": (
        "psi0", lambda v: pulse.simulate_schedule(pulse.qubit_model(), _schedule(), psi0=v,
                                                  return_propagator=True)),
    "gate_fidelity.u": ("u", lambda v: pulse.gate_fidelity(v, identity(2))),
    "gate_fidelity.v": ("v", lambda v: pulse.gate_fidelity(identity(2), v)),
    "snap_average_fidelity.u": ("u", lambda v: pulse.snap_average_fidelity(v, [0.1, 0.2])),
    "grape_gradient.model": (
        "model", lambda v: pulse.grape_gradient(v, _schedule(), STATE_TARGET)),
    "grape_gradient.schedule": (
        "schedule", lambda v: pulse.grape_gradient(pulse.qubit_model(), v, identity(2))),
    "grape_gradient.psi0": ("psi0", lambda v: _grape_gradient(psi0=v)),
    "grape_gradient.target": (
        "target", lambda v: pulse.grape_gradient(pulse.qubit_model(), _schedule(), v)),
    "grape_optimize.model": ("model", lambda v: _grape_state(model=v)),
    "grape_optimize.target": ("target", lambda v: _grape_state(target=v)),
    "grape_optimize.schedule0": ("schedule0", lambda v: _grape_state(schedule0=v)),
    "grape_optimize.psi0": ("psi0", lambda v: _grape_state(psi0=v)),
    "synthesize_snap_pulse.model": (
        "model", lambda v: pulse.synthesize_snap_pulse(v, [0.1, 0.2], 1e-5)),
    "simulate_transfer.config": ("config", lambda v: qst.simulate_transfer(v)),
    "detuning_sweep.config": ("config", lambda v: qst.detuning_sweep(v, [0.0, 1.0])),
    "trotter_step.h": ("h", lambda v: trotter.trotter_step(v, 0.1)),
    "evolve_trotter.h": ("h", lambda v: trotter.evolve_trotter(v, 1.0, 3)),
    "trotter_convergence.h": ("h", lambda v: trotter.trotter_convergence(v, 1.0, [3])),
    "otoc.h": ("h", lambda v: trotter.otoc(np.eye(3), np.eye(3), v, 0.0)),
    "otoc_series.h": ("h", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), v, [0.0])),
}

# annotated parameters the type rule does not read, and why
INSTANCE_EXEMPT = {
    "TrajectoryResult.final_state": "a result field, built by the package",
    "GrapeResult.schedule": "a result field, built by the package",
    "TrotterResult.state": "a result field, built by the package",
    "optimize_snap_displacement_sequence.target": (
        "a StateVector or the amplitudes of one, which require_array reads (ARRAY_SITES)"),
    **dict.fromkeys(["otoc.w", "otoc.v", "otoc_series.w", "otoc_series.v"], (
        "a Circuit, an Operator or an array, which trotter._operator dispatches")),
}

MODULES = (cli, codes, device, errors, fock, gates, noise, pulse, qst, trotter)
# a HilbertShape argument is read by fock.shape_of, the dimension rule, which
# also takes a dimension or a list of them (DIMENSION_SITES)
PACKAGE_CLASSES = {cls for module in MODULES for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__module__ in {m.__name__ for m in MODULES}
                   and cls is not HilbertShape}


def _public_callables():
    """(site prefix, function) for every public function of MODULES, and
    every public or dunder method of their public classes: a class's
    __init__ lists its fields under the class name."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if inspect.isfunction(member) and (
                            not attr.startswith("_") or attr.endswith("__")):
                        yield name if attr == "__init__" else f"{name}.{attr}", member


def _annotations():
    """site -> annotation for every parameter of _public_callables, each
    evaluated once; a quoted annotation is evaluated again."""
    found = {}
    for prefix, function in _public_callables():
        for param in inspect.signature(function, eval_str=True).parameters.values():
            annotation = param.annotation
            while isinstance(annotation, str):
                annotation = eval(annotation, function.__globals__)
            found[f"{prefix}.{param.name}"] = annotation
    return found


ANNOTATIONS = _annotations()


def _sites(read) -> dict:
    """site -> read(annotation) for every public parameter whose annotation
    read accepts (returns a value other than None or False): one walk."""
    return {site: found for site, annotation in ANNOTATIONS.items()
            if (found := read(annotation)) not in (None, False)}


def _union_args(annotation) -> tuple:
    """The members of a union annotation, or () for any other."""
    if isinstance(annotation, types.UnionType) or typing.get_origin(annotation) is typing.Union:
        return typing.get_args(annotation)
    return ()


def _package_class(annotation):
    """(cls, None allowed) for an annotation that names a package class cls:
    cls, cls | None, tuple[cls, ...] or a union holding cls, where cls is a
    tuple of the classes a union holds several of; else None."""
    if annotation in PACKAGE_CLASSES:
        return annotation, False
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple and args[1:] == (Ellipsis,):
        return _package_class(args[0])
    found = tuple(cls for cls in _union_args(annotation) if cls in PACKAGE_CLASSES)
    if not found:
        return None
    return found if len(found) > 1 else found[0], type(None) in _union_args(annotation)


ANNOTATED_SITES = _sites(_package_class)


def _assert_filed(found: dict, sites: dict, exempt: dict) -> None:
    """Every parameter a walk found is a site or exempt, and every filed one was found."""
    assert not set(sites) & set(exempt)
    filed = set(sites) | set(exempt)
    assert sorted(set(found) - filed) == []
    assert sorted(filed - set(found)) == []


def test_every_annotated_parameter_is_an_instance_site_or_exempt():
    # a new parameter annotated with a cavityq class fails here until it is filed
    _assert_filed(ANNOTATED_SITES, INSTANCE_SITES, INSTANCE_EXEMPT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", INSTANCE_SITES)
def test_instance_site_refuses_every_bad_value(site):
    name, call = INSTANCE_SITES[site]
    cls, optional = ANNOTATED_SITES[site]
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    message = f"^{re.escape(name)} must be a cavityq {names}, got "
    for value in BAD_VALUES:
        if value is None and optional:
            call(None)
            continue
        with pytest.raises(UsageError, match=message):
            call(value)


# --- the register rule: every object that must share another's register ----

QUBIT = pulse.qubit_model()
STATE2, STATE3 = basis_state(2, 0), basis_state(3, 0)
ONE_BY_THREE = basis_state((1, 3), [0, 1])
FOURIER3 = gates.Circuit((3,), (gates.GateSpec("fourier", {"target": 0}),))
EMPTY2 = gates.Circuit((2,), ())

# site -> (argument name in the message, call with the argument set to v, an
# object of the site's class on another register, the dims the site wants)
SHAPE_SITES = {
    "StateVector.overlap.other": ("other", lambda v: PSI3.overlap(v), STATE2, (3,)),
    "Operator.__matmul__.other": ("other", lambda v: identity(3) @ v, identity(2), (3,)),
    "Operator.apply.psi": ("psi", lambda v: identity(3).apply(v), STATE2, (3,)),
    "fidelity.b": ("b", lambda v: fock.fidelity(PSI3, v), STATE2, (3,)),
    "embed.op": ("op", lambda v: gates.embed(v, [0], 3), identity(2), (3,)),
    "apply_embedded.op": (
        "op", lambda v: gates.apply_embedded(v, [1, 0], PSI), identity(3), (3, 3)),
    "apply_circuit.psi": (
        "psi", lambda v: gates.apply_circuit(gates.Circuit((3, 2), ()), v), STATE3, (3, 2)),
    "NoiseChannel.kraus": (
        "Kraus operator 0", lambda v: noise.NoiseChannel(3, (v,), 1e-4), identity(2), (3,)),
    "apply_channel_trajectory.psi": (
        "psi", lambda v: noise.apply_channel_trajectory(CHANNEL, v, 2, 1), STATE2, (3,)),
    "run_trajectories.psi": (
        "psi", lambda v: noise.run_trajectories(CHANNEL, v, 2, 2, 1), STATE2, (3,)),
    "ControlModel.drift": (
        "drift", lambda v: pulse.ControlModel(2, v, QUBIT.controls), identity(3), (2,)),
    "ControlModel.controls": (
        "control 0", lambda v: pulse.ControlModel(2, identity(2), (v, v)), identity(3), (2,)),
    "simulate_schedule.psi0": (
        "psi0", lambda v: pulse.simulate_schedule(QUBIT, _schedule(), psi0=v), STATE3, (2,)),
    "gate_fidelity.v": ("v", lambda v: pulse.gate_fidelity(identity(2), v), identity(3), (2,)),
    "grape_gradient.psi0": ("psi0", lambda v: _grape_gradient(psi0=v), STATE3, (2, 2)),
    "grape_gradient.target": (
        "target", lambda v: pulse.grape_gradient(QUBIT, _schedule(), v), identity(3), (2,)),
    "grape_optimize.target": ("target", lambda v: _grape_state(target=v), STATE3, (2, 2)),
    "grape_optimize.psi0": ("psi0", lambda v: _grape_state(psi0=v), STATE3, (2, 2)),
    # a multi-mode state whose total is N was reshaped onto the N levels
    "evolve_trotter.psi0": (
        "psi0", lambda v: trotter.evolve_trotter(HAMILTONIAN, 1.0, 3, v), ONE_BY_THREE, (3,)),
    "trotter_convergence.psi0": (
        "psi0", lambda v: trotter.trotter_convergence(HAMILTONIAN, 1.0, [3], v), ONE_BY_THREE,
        (3,)),
    "otoc.psi0": (
        "psi0", lambda v: trotter.otoc(np.eye(3), np.eye(3), HAMILTONIAN, 0.0, v), ONE_BY_THREE,
        (3,)),
    "otoc_series.psi0": (
        "psi0", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0], v),
        ONE_BY_THREE, (3,)),
    "otoc.w": ("W", lambda v: trotter.otoc(v, FOURIER3, HAMILTONIAN, 0.0), EMPTY2, (3,)),
    "otoc.v": ("V", lambda v: trotter.otoc(FOURIER3, v, HAMILTONIAN, 0.0), EMPTY2, (3,)),
    "otoc_series.w": (
        "W", lambda v: trotter.otoc_series(v, FOURIER3, HAMILTONIAN, [0.0]), EMPTY2, (3,)),
    "otoc_series.v": (
        "V", lambda v: trotter.otoc_series(FOURIER3, v, HAMILTONIAN, [0.0]), EMPTY2, (3,)),
}

# register parameters the type walk does not file: trotter's psi0, which may
# also be amplitudes, and W and V, which may also be an Operator or an array
UNANNOTATED_REGISTER_SITES = {"evolve_trotter.psi0", "trotter_convergence.psi0", "otoc.psi0",
                              "otoc_series.psi0", "otoc.w", "otoc.v", "otoc_series.w",
                              "otoc_series.v"}

_FIXES = "fixes the register"
_ANY = "any register"
_CAVITY = "a structural (2, N) check, pulse._cavity_levels"
# type-rule sites of a class with a register that the register rule does not read
SHAPE_EXEMPT = {
    **dict.fromkeys(["fidelity.a", "apply_embedded.psi", "apply_circuit.circuit",
                     "apply_channel.channel", "apply_channel_trajectory.channel",
                     "run_trajectories.channel", "simulate_schedule.model", "gate_fidelity.u",
                     "grape_gradient.model", "grape_optimize.model"], _FIXES),
    **dict.fromkeys(["parity.psi", "propagator.h", "reduced_density_matrix.psi",
                     "mode_probabilities.psi", "mean_occupation.psi", "circuit_unitary.circuit",
                     "density_matrix.psi"], _ANY),
    "photon_loss_cycle_check.psi": "any single-mode register",
    "snap_average_fidelity.u": _CAVITY,
    "synthesize_snap_pulse.model": _CAVITY,
}


def _carries_register(cls) -> bool:
    """Whether cls, or a class of the tuple cls, has a `shape` field."""
    return any(dataclasses.is_dataclass(c) and "shape" in {f.name for f in dataclasses.fields(c)}
               for c in (cls if isinstance(cls, tuple) else (cls,)))


def test_every_register_parameter_is_a_shape_site_or_exempt():
    # a new type-rule site of a class with a register fails here until it is filed
    found = {site for site in INSTANCE_SITES if _carries_register(ANNOTATED_SITES[site][0])}
    assert UNANNOTATED_REGISTER_SITES <= set(ANNOTATIONS) - set(INSTANCE_SITES)
    _assert_filed(found | UNANNOTATED_REGISTER_SITES, SHAPE_SITES, SHAPE_EXEMPT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", SHAPE_SITES)
def test_shape_site_refuses_another_register(site):
    name, call, other, dims = SHAPE_SITES[site]
    message = f"{name} must be on dims {dims}, got {other.shape.dims}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(other)


# --- the sequence rule: every parameter that holds several entries ---------

INCREMENT = gates.controlled_increment(3)
INDEX_FORMS = (range(1, -1, -1), np.array([1, 0]))

# site -> (argument name in the message, entries, call with the argument set
# to v, the other forms of the entries that fit: a range or an ndarray)
SEQUENCE_SITES = {
    "HilbertShape.flat_index.occupations": (
        "occupations", [1, 0], lambda v: HilbertShape((3, 3)).flat_index(v), INDEX_FORMS),
    "reduced_density_matrix.keep": (
        "keep", [1, 0], lambda v: fock.reduced_density_matrix(PSI, v), INDEX_FORMS),
    "mode_probabilities.keep": (
        "keep", [1, 0], lambda v: fock.mode_probabilities(PSI, v), INDEX_FORMS),
    "embed.targets": (
        "targets", [1, 0], lambda v: gates.embed(INCREMENT, v, (3, 3, 3)).matrix, INDEX_FORMS),
    "apply_embedded.targets": (
        "targets", [1, 0], lambda v: gates.apply_embedded(INCREMENT, v, PSI).amplitudes,
        INDEX_FORMS),
    "Circuit.gates": (
        "gates", [gates.GateSpec("fourier", {"target": 0}),
                  gates.GateSpec("snap", {"target": 0, "theta": [0.1, 0.2, 0.3]})],
        lambda v: gates.Circuit((3,), v).to_json(), ()),
    "NoiseChannel.kraus": (
        "kraus", list(CHANNEL.kraus),
        lambda v: [k.matrix for k in noise.NoiseChannel(3, v, 1e-4).kraus], ()),
    "PulseSchedule.streams": (
        "streams", [np.zeros(3), np.arange(3.0)],
        lambda v: pulse.PulseSchedule(1e-9, v, (0.0, 0.0)).streams,
        (np.array([np.zeros(3), np.arange(3.0)]),)),
    "ControlModel.controls": (
        "controls", list(QUBIT.controls),
        lambda v: [c.matrix for c in pulse.ControlModel(2, QUBIT.drift, v).controls], ()),
    "grape_gradient.guard_indices": (
        "guard_indices", [3], lambda v: _grape_gradient(guard_indices=v),
        (range(3, 4), np.array([3]))),
    "grape_optimize.guard_indices": (
        "guard_indices", [3], lambda v: _grape(guard_indices=v), (range(3, 4), np.array([3]))),
    "trotter_convergence.steps_list": (
        "steps_list", [3, 5], lambda v: trotter.trotter_convergence(HAMILTONIAN, 1.0, v),
        (range(3, 6, 2), np.array([3, 5]))),
    "multimode_drive_freq.occupations_and_shifts": (
        "occupations_and_shifts", [(1, 2e5), (2, 1e5)],
        lambda v: device.multimode_drive_freq(device.DeviceParams(**DEVICE), v), ()),
}

_BULK = "numbers read in bulk by require_array (ARRAY_SITES), which refuses a generator"
_DIMENSIONS = "dimensions, read by fock.shape_of (DIMENSION_SITES)"
_RESULT = "a result field, built by the package"
# sequence-annotated parameters the sequence rule does not read, and the rule
# that reads each instead
SEQUENCE_EXEMPT = {
    **dict.fromkeys(["snap.theta", "multisnap.theta", "multiqudit_snap.theta",
                     "snap_average_fidelity.theta", "synthesize_snap_pulse.theta",
                     "PulseSchedule.carriers_hz", "optimize_snap_displacement_sequence.target",
                     "QstConfig.t_span_s", "QstConfig.input_state", "on_off_ratio.t_span_s",
                     "detuning_sweep.delta_list", "otoc_series.times_s"], _BULK),
    **dict.fromkeys(["HilbertShape.dims", "shape_of.dims", "basis_state.shape",
                     "identity.shape", "multisnap.dims", "embed.shape", "multiqudit_snap.shape",
                     "GateSpec.build.shape"], _DIMENSIONS),
    **dict.fromkeys(["TrajectoryResult.jump_steps", "GrapeResult.trace",
                     "SequencePrepResult.alphas", "SequencePrepResult.trace",
                     "DetuningSweepResult.rows"], _RESULT),
    "qubit_binary_encode.bits": "a str or a sequence of bits, read by qubit_binary_encode",
    "basis_state.occupations": (
        "a flat index (require_index) or occupations (HilbertShape.flat_index), by np.ndim"),
    "require_instance.cls": "a parameter of the type rule",
    "require_on.cls": "a parameter of the register rule",
    "require_choice.choices": "a parameter of the choice rule",
    "require_array.shape": "a parameter of the array rule",
}


def _holds_sequence(annotation) -> bool:
    """Whether annotation is Sequence[...], Iterable[...] or a tuple, or a
    union holding one."""
    return (annotation is tuple
            or typing.get_origin(annotation) in (tuple, collections.abc.Sequence,
                                                 collections.abc.Iterable)
            or any(map(_holds_sequence, _union_args(annotation))))


def test_every_sequence_parameter_is_a_sequence_site_or_exempt():
    # a new parameter annotated Sequence, Iterable or tuple fails here until it is filed
    _assert_filed(_sites(_holds_sequence), SEQUENCE_SITES, SEQUENCE_EXEMPT)


def _same(a, b) -> bool:
    """a == b: arrays bitwise with their dtype and shape, lists and tuples
    entry by entry."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("site", SEQUENCE_SITES)
def test_iterable_arguments_take_any_iterable(site):
    _, entries, call, forms = SEQUENCE_SITES[site]
    want = call(entries)
    for values in (tuple(entries), (e for e in entries), *forms):
        assert _same(call(values), want), values


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", SEQUENCE_SITES)
def test_sequence_site_refuses_every_bad_value(site):
    name, _, call, _ = SEQUENCE_SITES[site]
    optional = type(None) in _union_args(ANNOTATIONS[site])
    for value in BAD_VALUES:
        if value is None and optional:
            call(None)
        elif not isinstance(value, list):
            with pytest.raises(UsageError, match=f"^{re.escape(name)} must be a sequence, got "):
                call(value)


# --- the flag rule: every bool parameter ------------------------------------

# site -> (argument name in the message, call with the argument set to v)
FLAG_SITES = {
    "fourier.inverse": ("inverse", lambda v: gates.fourier(3, v)),
    "dispersive_model.cavity_drive": (
        "cavity_drive", lambda v: pulse.dispersive_model(1e6, 3, cavity_drive=v)),
    "dispersive_model_from_device.cavity_drive": (
        "cavity_drive",
        lambda v: pulse.dispersive_model_from_device(device.DeviceParams(**DEVICE), 3, v)),
    "simulate_schedule.return_propagator": (
        "return_propagator", lambda v: pulse.simulate_schedule(
            QUBIT, _schedule(), basis_state(2, 0), return_propagator=v)),
    "synthesize_snap_pulse.precompensate": (
        "precompensate", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(1e6, 2), [0.1, 0.2], 1e-5, precompensate=v)),
    "synthesize_snap_pulse.enforce_bound": (
        "enforce_bound", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(1e6, 2), [0.1, 0.2], 1e-5, enforce_bound=v)),
}
FLAG_EXEMPT = {"GrapeResult.converged": _RESULT, "SequencePrepResult.converged": _RESULT,
               "require_complex.finite": "a parameter of the complex rule"}


def test_every_bool_parameter_is_a_flag_site_or_exempt():
    # a new bool parameter fails here until it is filed
    _assert_filed(_sites(lambda annotation: annotation is bool), FLAG_SITES, FLAG_EXEMPT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", FLAG_SITES)
def test_flag_site_refuses_every_bad_value(site):
    # each once acted on the value's truth: enforce_bound=None built a pulse
    # below the selective-drive bound, precompensate="no" precompensated
    name, call = FLAG_SITES[site]
    for value in BAD_VALUES:
        if not isinstance(value, (bool, np.bool_)):
            with pytest.raises(UsageError, match=f"^{re.escape(name)} must be a boolean, got "):
                call(value)


# --- the distinct, emptiness, choice and sign rules -------------------------

def _refusal(read, *args):
    """The error the rule read raises on args, or None if it accepts them."""
    try:
        read(*args)
    except errors.CavityQError as exc:
        return exc
    return None


def _assert_refused_as(call, value, expected) -> None:
    """call(value) raises expected's class with its message, alone or after
    a "gate 0: " prefix."""
    with pytest.raises(type(expected)) as err:
        call(value)
    assert type(err.value) is type(expected)
    assert re.search(f"(^|: ){re.escape(str(expected))}$", str(err.value)), str(err.value)


def _gate(kind, dims, **params):
    return gates.Circuit(dims, (gates.GateSpec(kind, params),))


# site -> (argument name in the message, call with the argument set to v, a
# value of distinct entries); a repeated entry is refused as "<name> must be
# distinct, got (1, 1)"
DISTINCT_SITES = {
    "reduced_density_matrix.keep": (
        "keep", lambda v: fock.reduced_density_matrix(PSI, v), [1, 0]),
    "mode_probabilities.keep": ("keep", lambda v: fock.mode_probabilities(PSI, v), [1, 0]),
    "embed.targets": ("targets", lambda v: gates.embed(INCREMENT, v, (3, 3, 3)), [1, 0]),
    "apply_embedded.targets": (
        "targets", lambda v: gates.apply_embedded(INCREMENT, v, PSI), [1, 0]),
    "multisnap gate targets": (
        "multisnap gate field 'targets'",
        lambda v: _gate("multisnap", (3, 3), targets=v, theta=[0.0] * 9), [1, 0]),
    "givens levels": ("givens levels", lambda v: gates.givens(*v, 0.3, 3), [1, 0]),
    "phase_swap levels": ("phase_swap levels", lambda v: gates.phase_swap(*v, 3), [1, 0]),
    "cond_rotation gate qubit and mode": (
        "cond_rotation qubit and mode",
        lambda v: _gate("cond_rotation", (2, 2), qubit=v[0], mode=v[1], n=1, theta=0.3,
                        phi=0.2), [1, 0]),
    "ecd gate qubit and mode": (
        "ecd qubit and mode", lambda v: _gate("ecd", (2, 2), qubit=v[0], mode=v[1], beta=0.3),
        [1, 0]),
    "controlled_increment gate control and target": (
        "controlled_increment control and target",
        lambda v: _gate("controlled_increment", (3, 3), control=v[0], target=v[1]), [1, 0]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", DISTINCT_SITES)
def test_distinct_site_refuses_a_repeated_entry(site):
    name, call, distinct = DISTINCT_SITES[site]
    call(distinct)
    repeated = [distinct[0]] * len(distinct)
    _assert_refused_as(call, repeated, UsageError(f"{name} must be distinct, got (1, 1)"))
    # a bad entry is refused by its own rule, before the entries are compared
    for value in BAD_VALUES:
        with pytest.raises(UsageError) as err:
            call([value, *distinct[1:]])
        assert "must be distinct" not in str(err.value)


# site -> (argument name in the message, call with the argument set to v, a
# non-empty value); an empty one is refused as "<name> must be a non-empty
# sequence, got []"
NONEMPTY_SITES = {
    "reduced_density_matrix.keep": (
        "keep", lambda v: fock.reduced_density_matrix(PSI, v), [1]),
    "mode_probabilities.keep": ("keep", lambda v: fock.mode_probabilities(PSI, v), [1]),
    "embed.targets": ("targets", lambda v: gates.embed(SNAP3, v, (3, 3, 3)), [1]),
    "apply_embedded.targets": ("targets", lambda v: gates.apply_embedded(SNAP3, v, PSI), [1]),
    "multisnap gate targets": (
        "multisnap gate field 'targets'",
        lambda v: _gate("multisnap", (3,), targets=v, theta=[0.0] * 3), [0]),
    "NoiseChannel.kraus": ("kraus", lambda v: noise.NoiseChannel(3, v, 1e-4), CHANNEL.kraus),
    "PulseSchedule.streams": (
        "streams", lambda v: pulse.PulseSchedule(1e-9, v, [0.0]), [np.zeros(2)]),
    "trotter_convergence.steps_list": (
        "steps_list", lambda v: trotter.trotter_convergence(HAMILTONIAN, 1.0, v), [3]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", NONEMPTY_SITES)
def test_nonempty_site_refuses_no_entries(site):
    name, call, entries = NONEMPTY_SITES[site]
    call(entries)
    for empty in ([], (), range(0), np.array([], dtype=int)):
        _assert_refused_as(call, empty,
                           UsageError(f"{name} must be a non-empty sequence, got {empty!r}"))
    optional = type(None) in _union_args(ANNOTATIONS.get(site))
    for value in BAD_VALUES:
        if value is None and optional:
            call(None)
        elif not isinstance(value, list):  # a list's entries are read by their own rule
            _assert_refused_as(call, value, _refusal(errors.require_sequence, name, value, 1))


# site -> (argument name in the message, call with the argument set to v, a
# value of the boundary length, whether another argument fixes that length);
# one entry short is refused as "<name> must be 1-D with at least k entries,
# got length m", or "<name> must be 1-D of length n, got length m" for a fixed n
LENGTH_SITES = {
    "PulseSchedule.streams[0]": (
        "stream 0", lambda v: pulse.PulseSchedule(1e-9, [v], [0.0]), [0.5], False),
    "PulseSchedule.streams[1]": (
        "stream 1", lambda v: pulse.PulseSchedule(1e-9, [[0.5, 0.5], v], [0.0, 0.0]),
        [0.5, 0.5], True),
    "optimize_snap_displacement_sequence.target": (
        "target", lambda v: pulse.optimize_snap_displacement_sequence(
            v, blocks=1, iterations=0, guard_levels=0), [1.0, 0.0], False),
    "optimize_snap_displacement_sequence.target StateVector": (
        "target", lambda v: pulse.optimize_snap_displacement_sequence(
            fock.StateVector(len(v), v), blocks=1, iterations=0, guard_levels=0),
        [1.0, 0.0], False),
    "SampledWaveform.values": ("values", lambda v: qst.SampledWaveform(v, 1e-9), [1.0, 2.0], False),
    "detuning_sweep.delta_list": (
        "delta_list", lambda v: qst.detuning_sweep(_matched_config(), v), [0.0, 0.1], False),
    "on_off_ratio.waveform": ("waveform", lambda v: qst.on_off_ratio(v, 1.0), [2.0], False),
    "snap.theta": ("snap theta", gates.snap, [0.5], False),
    "multisnap.theta": ("theta", lambda v: gates.multisnap(v, (3,)), [0.1, 0.2, 0.3], True),
    "snap gate theta": (
        "snap gate field 'theta'", lambda v: _gate("snap", (3,), target=0, theta=v),
        [0.1, 0.2, 0.3], True),
    "QuditHamiltonian.diagonal": (
        "diagonal", lambda v: trotter.QuditHamiltonian(v, np.zeros(len(v))), [0.0, 0.5], False),
    "QuditHamiltonian.kinetic_diagonal": (
        "kinetic_diagonal", lambda v: trotter.QuditHamiltonian([0.0, 0.5, 0.25], v),
        [0.1, 0.0, -0.3], True),
}


def _length_refusal(name: str, boundary: list, fixed: bool, got: int) -> ShapeError:
    k = len(boundary)
    want = f"of length {k}" if fixed else f"with at least {k} entr{'ies' if k > 1 else 'y'}"
    return ShapeError(f"{name} must be 1-D {want}, got length {got}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", LENGTH_SITES)
def test_length_site_refuses_a_wrong_entry_count(site):
    # a one-level StateVector target ran, to fidelity 1.0000000000000004,
    # where the same amplitudes as a list were refused
    name, call, boundary, fixed = LENGTH_SITES[site]
    call(boundary)
    call(np.array(boundary))
    wrong = [boundary[:-1], *([boundary + boundary[-1:]] if fixed else [])]
    for entries in wrong:
        for form in (entries, np.array(entries)):  # worded the same for a list and an array
            _assert_refused_as(call, form, _length_refusal(name, boundary, fixed, len(entries)))


# site -> (argument name in the message, call with the argument set to v, a
# valid choice, the near misses it refuses besides tests/bad_values.py)
CHOICE_SITES = {
    "cat_state.sign": (
        "sign", lambda v: codes.cat_state(1.0, v, 16).amplitudes, "-", [["+"], "+ ", b"+"]),
    "displacement.convention": (
        "convention", lambda v: gates.displacement(0.3, 4, v).matrix, "paper",
        ["Paper", ["paper"], b"paper"]),
    "ecd.convention": (
        "convention", lambda v: gates.ecd(0.3, 4, v).matrix, "paper", ["Paper", ["paper"]]),
    "GateSpec.build.convention": (
        "convention", lambda v: gates.GateSpec("snap", {"target": 0, "theta": [0.1, 0.2]})
        .build(2, v)[0].matrix, "paper", ["bogus", ["paper"]]),
    "Circuit.displacement_convention": (
        "displacement_convention",
        lambda v: gates.circuit_unitary(gates.Circuit(
            (4,), (gates.GateSpec("displacement", {"target": 0, "alpha": 0.3}),), v)).matrix,
        "paper", ["Paper", ["paper"]]),
    "stark_shifted_freq.order": (
        "order", lambda v: device.stark_shifted_freq(device.DeviceParams(**DEVICE), 2, v), 2,
        [True, 2.0, np.float64(1.0), 3, 0]),
}
# Literal-annotated parameters the choice rule does not read, and why
CHOICE_EXEMPT = {}


def _choices(annotation):
    """The choices of a Literal annotation, else None."""
    return typing.get_args(annotation) if typing.get_origin(annotation) is typing.Literal else None


ANNOTATED_CHOICES = _sites(_choices)


def test_every_literal_parameter_is_a_choice_site_or_exempt():
    # a new parameter annotated with a Literal fails here until it is filed
    _assert_filed(ANNOTATED_CHOICES, CHOICE_SITES, CHOICE_EXEMPT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", CHOICE_SITES)
def test_choice_site_refuses_every_bad_value(site):
    # order=True gave the first-order frequency and order=2.0 the second, and
    # GateSpec.build took any convention for a gate without a displacement
    name, call, _, near_misses = CHOICE_SITES[site]
    choices = ANNOTATED_CHOICES[site]
    for value in [*BAD_VALUES, *near_misses]:
        _assert_refused_as(call, value, UsageError(
            f"{name} must be one of {choices!r}, got {value!r}"))


@pytest.mark.parametrize("site", CHOICE_SITES)
def test_choice_site_takes_numpy_forms(site):
    _, call, valid, _ = CHOICE_SITES[site]
    numpy_form = np.str_(valid) if isinstance(valid, str) else np.int64(valid)
    np.testing.assert_array_equal(call(numpy_form), call(valid))


def test_circuit_document_convention_is_the_choice_rule():
    doc = json.dumps({"shape": [3], "displacement_convention": "left", "gates": []})
    message = "circuit: displacement_convention must be one of ('standard', 'paper'), got 'left'"
    with pytest.raises(errors.ParseError, match=f"^{re.escape(message)}$"):
        gates.circuit_from_json(doc)


# site -> (argument name in the message, call with the argument set to v,
# the rule chain the site reads it by)
SIGN_SITES = {
    "dephasing_channel.rate_hz": (
        "rate_hz", lambda v: noise.dephasing_channel(v, 1e-9, 3), errors.require_nonnegative),
    "dephasing_rate.spectral_density_dc": (
        "spectral_density_dc", lambda v: device.dephasing_rate(1.0, v),
        errors.require_nonnegative),
    "relaxation_rate.spectral_density_at_e01": (
        "spectral_density_at_e01", lambda v: device.relaxation_rate(1.0, v),
        errors.require_nonnegative),
    "evolve_trotter.t_total_s": (
        "t_total_s", lambda v: trotter.evolve_trotter(HAMILTONIAN, v, 3),
        lambda name, v: errors.require_nonnegative(name, errors.require_finite(name, v))),
    "trotter_convergence.t_total_s": (
        "t_total_s", lambda v: trotter.trotter_convergence(HAMILTONIAN, v, [3]),
        lambda name, v: errors.require_nonnegative(name, errors.require_finite(name, v))),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", SIGN_SITES)
def test_sign_site_refuses_what_the_rule_refuses(site):
    name, call, read = SIGN_SITES[site]
    for value in [*BAD_VALUES, -1.0, -1e-300, np.float64(-2.0), -math.inf, math.nan]:
        expected = _refusal(read, name, value)
        if expected is not None:  # the values the rule accepts go on to the site's own checks
            _assert_refused_as(call, value, expected)
    _assert_refused_as(call, -1.0, UsageError(f"{name} must be nonnegative, got -1.0"))
    call(0.0)


def test_choice_rule_returns_the_declared_choice():
    assert type(errors.require_choice("x", np.str_("b"), ("a", "b"))) is str
    assert type(errors.require_choice("x", np.int64(2), (1, 2))) is int


def test_sign_rule_passes_inf():
    assert errors.require_nonnegative("x", math.inf) == math.inf


# refusals of a library call's own conditions: site -> (the error class, its
# whole message, the call)
OWN_REFUSALS = {
    "HilbertShape no dims": (
        InvalidDimensionError, "shape needs at least one subsystem", lambda: HilbertShape(())),
    "HilbertShape.flat_index too few": (
        ShapeError, "expected 2 occupation numbers, got 1",
        lambda: HilbertShape((2, 2)).flat_index([1])),
    "StateVector.normalized null": (
        UsageError, "cannot normalize a null state",
        lambda: fock.StateVector(2, [0, 0]).normalized()),
    "cat_encode cancelled": (
        errors.DegenerateInputError, "encoded state vanishes (basis overlap cancellation)",
        lambda: codes.cat_encode(1 / math.sqrt(2), -1 / math.sqrt(2), 1e-9, 6)),
    "photon_loss_cycle_check two modes": (
        UsageError, "loss cycle check expects a single-mode state",
        lambda: codes.photon_loss_cycle_check(basis_state((2, 2), [1, 1]), 1)),
    "dephasing_channel coarse step": (
        errors.StepSizeError, "dt=0.001 too coarse for dephasing rate 1000 on 8 levels "
        "(first-order completeness defect 6.002e+02 > 1e-06)",
        lambda: noise.dephasing_channel(1e3, 1e-3, 8)),
    "cond_rotation gate on a qutrit": (
        UsageError, "gate 0: cond_rotation gate field 'qubit' must name a qubit (dim 2), got dim 3",
        lambda: _gate("cond_rotation", (3, 3), qubit=0, mode=1, n=0, theta=1.0, phi=0.0)),
}


@pytest.mark.parametrize("site", OWN_REFUSALS)
def test_own_refusal_class_and_message(site):
    error, message, call = OWN_REFUSALS[site]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is error


@pytest.mark.parametrize("raw, message", [
    ("x", "CAVITYQ_DIM_CAP must be an integer, got 'x'"),
    ("0", "CAVITYQ_DIM_CAP must be positive, got 0"),
])
def test_bad_dimension_cap_setting_is_refused(raw, message, monkeypatch):
    monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, raw)
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$") as err:
        HilbertShape((2,))
    assert type(err.value) is UsageError


def test_waveform_that_returns_a_scalar_is_evaluated_per_time():
    # a callable that ignores the array it is given is called once per sample
    assert qst.on_off_ratio(lambda t: 1e5, 1.0, (-1.0, 1.0), 5) == 1e5
    calls = []
    qst.on_off_ratio(lambda t: calls.append(t) or 1e5, 1.0, (-1.0, 1.0), 5)
    assert len(calls) == 1 + 5  # the array call, then one per sample


@pytest.mark.parametrize("call", [
    lambda: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, (t for t in [0.0, 0.5])),
    lambda: qst.detuning_sweep(_matched_config(), (d for d in [0.0, 0.1])),
], ids=["otoc_series.times_s", "detuning_sweep.delta_list"])
def test_generator_where_a_list_is_read_is_a_shape_error(call):
    # list() once read a generator; the array rule reads sequences and arrays
    with pytest.raises(ShapeError, match=r"must be 1-D, got \(\)$"):
        call()


@pytest.mark.filterwarnings("error")
def test_sech_pitch_far_tail_is_zero_without_a_warning():
    # the product kappa*t overflowed with a RuntimeWarning
    assert qst.sech_pitch(1e300, 1e10) == 0.0
    np.testing.assert_array_equal(qst.sech_pitch(1e300, np.array([1e10, -1e10])), [0.0, 0.0])


def test_results_are_python_numbers_whatever_numpy_scalar_went_in():
    params = device.DeviceParams(**DEVICE)
    channel = noise.photon_loss_channel(1.0, 1e-4, 3)
    assert type(qst.on_off_ratio([1.0, 3.0], np.float32(3))) is float
    assert type(noise.NoiseChannel(channel.shape, channel.kraus, np.float32(1e-4)).dt_s) is float
    assert type(noise.dephasing_channel(np.float32(2), np.float32(1e-4), 3).dt_s) is float
    trajectory = noise.apply_channel_trajectory(channel, basis_state(3, 2), 2, np.int64(5))
    assert type(trajectory.seed) is int
    assert type(device.fock_t1(params, np.int64(2))) is float
    assert type(device.stark_shifted_freq(params, np.int64(2))) is float
    assert type(device.multimode_drive_freq(params, [(1, np.float32(2e5))])) is float


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


@pytest.mark.parametrize("command, fragment, doc", [
    ("device", "g_hz is too large for a float", {**DEVICE, "g_hz": BIG}),
    ("grape", "dt_s is too large for a float", {"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
                         "n_segments": 5, "dt_s": BIG}),
    ("trotter", "diagonal holds a number too large for a float", {"diagonal": [0.3, BIG], "kinetic_diagonal": [0.1, 0.3],
                               "t_total_s": 1.0, "steps_list": [10]}),
    ("qst", "kappa_hz is too large for a float", {"kappa_hz": BIG, "t_span_s": [-2e-5, 2e-5], "dt_s": 4e-8,
                           "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}),
    ("code", "alpha holds a number too large for a float", {"alpha": [BIG, 0.0], "n_levels": 10, "t1_s": 1e-3, "dt_s": 1e-7,
                         "steps": 10}),
    ("run", "alpha is too large for a float", {"shape": [8], "gates": [
        {"kind": "displacement", "target": 0, "alpha": BIG}]}),
    # the array rule's readers: a SNAP gate, a matrix spec and a transfer input_state
    ("run", "'theta'", {"shape": [3], "gates": [{"kind": "snap", "target": 0,
                                                 "theta": [0.0, BIG, 0.0]}]}),
    ("otoc", "'re'", {"diagonal": [0.3, -0.1], "kinetic_diagonal": [0.1, 0.3], "times_s": [0.0],
                      "w": {"kind": "fourier"},
                      "v": {"kind": "matrix", "re": [[BIG, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}}),
    ("qst", "'input_state'", {"kappa_hz": 2e6, "t_span_s": [-2e-5, 2e-5], "dt_s": 2e-8,
                              "input_state": [[0.0, 0.0], [BIG, 0.0]],
                              "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}),
], ids=["device", "grape", "trotter", "qst", "code", "run", "run_theta", "otoc_re", "qst_input_state"])
def test_cli_huge_integer_in_float_field_exits_2(command, fragment, doc, tmp_path, capsys):
    # each ended in an OverflowError traceback and exit 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["--out", str(tmp_path), command, str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


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
    assert cli.main(["--out", str(tmp_path), "grape", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: grape config: n_segments must be a positive integer, got 0\n")


def test_bulk_rule_tests_one_entry_per_type():
    # np.float64 phases went to one is_real call per entry, 70 µs for 128
    phases = list(np.random.default_rng(3).uniform(-3.0, 3.0, 128))
    test = mock.Mock(side_effect=errors.is_real)
    assert errors.are_reals([*phases, 1, 2.5, np.int64(4)], test)
    assert sorted(type(call.args[0]).__name__ for call in test.call_args_list) == [
        "float", "float64", "int", "int64"]


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", None, 1j], ids=repr)
def test_bulk_rule_still_refuses_one_bad_entry(bad):
    phases = [np.float64(v) for v in (0.5, -1.0, 2.0)]
    entries = [*phases[:2], bad, phases[2]]
    with pytest.raises(UsageError,
                       match=f"snap theta entries must be real numbers, got {re.escape(repr(bad))}"):
        gates.snap(entries)


# a number too large for a float at a real site: NumericError naming the
# argument, "is too large" for a number and "holds a number too large" for
# an array of them
HUGE_INT_SITES = {
    "require_real": ("x is", lambda v: errors.require_real("x", v)),
    "require_array": ("x holds a number", lambda v: errors.require_array("x", [0.5, v], (None,),
                                                                           float)),
    "DeviceParams.g_hz": ("g_hz is", lambda v: device.DeviceParams(**dict(DEVICE, g_hz=v))),
    "PulseSchedule.dt_s": ("dt_s is", lambda v: pulse.PulseSchedule(v, (np.ones(3),), (0.0,))),
    "PulseSchedule.carriers_hz": (
        "carriers_hz holds a number", lambda v: pulse.PulseSchedule(1e-9, (np.ones(2),), (v,))),
    "otoc_series.times_s": ("times_s holds a number", lambda v: trotter.otoc_series(
        np.eye(3), np.eye(3), HAMILTONIAN, [v])),
    "trotter_convergence.t_total_s": (
        "t_total_s is", lambda v: trotter.trotter_convergence(HAMILTONIAN, v, [3])),
    "evolve_trotter.t_total_s": (
        "t_total_s is", lambda v: trotter.evolve_trotter(HAMILTONIAN, v, 3)),
    # complex sites: complex() raised the OverflowError
    "require_complex": ("x is", lambda v: errors.require_complex("x", v)),
    "coherent_state.alpha": ("alpha is", lambda v: fock.coherent_state(v, 4)),
    "cat_state.alpha": ("alpha is", lambda v: codes.cat_state(v, "+", 4)),
    "displacement.alpha": ("alpha is", lambda v: gates.displacement(v, 4)),
    "ecd.beta": ("beta is", lambda v: gates.ecd(v, 4)),
    "sech_pitch.t_s": ("t_s is", lambda v: qst.sech_pitch(1.0, v)),
    "qubit_model.detuning_hz": ("detuning_hz is", lambda v: pulse.qubit_model(v)),
    "raman_coupling.omega_drive_hz": (
        "omega_drive_hz is", lambda v: qst.raman_coupling(v, 1.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024 - 2**970, Fraction(10**400, 3)],
                         ids=repr)
@pytest.mark.parametrize("site", HUGE_INT_SITES)
def test_number_too_large_for_a_float_is_a_numeric_error(site, value):
    # float() raised a raw OverflowError
    subject, call = HUGE_INT_SITES[site]
    with pytest.raises(NumericError, match=f"^{subject} too large for a float$"):
        call(value)


SNAP_MODEL = pulse.dispersive_model(1e6, 3)
OVERFLOW_MODEL = pulse.qubit_model(1e10)


def _qubit_schedule(dt_s, amp=0.0):
    return pulse.PulseSchedule(dt_s, ([complex(amp)] * 4,), (0.0,))


# values whose envelope squares or segment phases overflow or underflow:
# site -> (the start of the NumericError, the call); each warned, then raised
# NumericError "non-finite entries", a raw OverflowError, or returned NaN
OVERFLOW_SITES = {
    "synthesize_snap_pulse.duration_s tiny": (
        "duration_s 1e-300: the envelope's sigma**2", lambda: pulse.synthesize_snap_pulse(
            SNAP_MODEL, [0.0] * 3, 1e-300, enforce_bound=False)),
    "synthesize_snap_pulse.duration_s huge": (
        "duration_s 1e+300: the envelope's squared offsets", lambda: pulse.synthesize_snap_pulse(
            SNAP_MODEL, [0.0] * 3, 1e300, dt_s=1e299)),
    "simulate_schedule.streams": (
        "stream 0: the segment Hamiltonian's entries", lambda: pulse.simulate_schedule(
            pulse.qubit_model(1e5), _qubit_schedule(1e-8, 1e300), return_propagator=True)),
    "simulate_schedule.dt_s": (
        "dt_s 1e+300: the segment phase", lambda: pulse.simulate_schedule(
            OVERFLOW_MODEL, _qubit_schedule(1e300), return_propagator=True)),
    "simulate_schedule drift": (
        "the drift: the segment Hamiltonian's entries", lambda: pulse.simulate_schedule(
            pulse.qubit_model(1e300), _qubit_schedule(1e-8), basis_state(2, 0))),
    "grape_optimize.dt_s": (
        "dt_s 1e+300: the segment phase", lambda: pulse.grape_optimize(
            OVERFLOW_MODEL, identity(2), _qubit_schedule(1e300), iterations=2, seed=1)),
    "grape_gradient.streams": (
        "stream 0: the segment Hamiltonian's entries", lambda: pulse.grape_gradient(
            pulse.qubit_model(), _qubit_schedule(1e-8, 1e300), identity(2))),
    "synthesize_snap_pulse chirp": (
        "chi_hz 1e-200, duration_s 1e-120: the carrier plus AC-Stark chirp phase",
        lambda: pulse.synthesize_snap_pulse(pulse.dispersive_model(1e-200, 3), [0.0, 1.0, 2.0],
                                            1e-120, enforce_bound=False)),
    "synthesize_snap_pulse carrier": (
        "chi_hz 1e+300, duration_s 100000000.0: the carrier plus AC-Stark chirp phase",
        lambda: pulse.synthesize_snap_pulse(pulse.dispersive_model(1e300, 3), [0.0, 1.0, 2.0],
                                            1e8, dt_s=1e2, enforce_bound=False,
                                            precompensate=False)),
    "dispersive_model.chi_hz": (
        "chi_hz 1e+308: the drift's largest entry", lambda: pulse.dispersive_model(1e308, 3)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", OVERFLOW_SITES)
def test_overflow_site_refuses_before_any_exponential(site):
    fragment, call = OVERFLOW_SITES[site]
    refused = mock.Mock(side_effect=AssertionError("computed"))
    with mock.patch.object(pulse, "_snap_drive_samples", refused), \
            mock.patch.object(pulse, "expm_hermitian", refused), \
            mock.patch.object(pulse, "hermitian_eigensystem", refused), \
            mock.patch.object(pulse, "su2_factors", refused):
        with pytest.raises(NumericError, match=f"^{re.escape(fragment)}"):
            call()


def test_segment_phase_is_checked_once_per_call(monkeypatch):
    # by the builders that exponentiate segments, once a call whatever the
    # chunk count, and by _grape_problem before the start pass
    check = mock.Mock(wraps=pulse._segment_phase)
    passes = mock.Mock(wraps=pulse._grape_pass)
    monkeypatch.setattr(pulse, "_segment_phase", check)
    monkeypatch.setattr(pulse, "_grape_pass", passes)
    monkeypatch.setattr(pulse, "_CHUNK_ENTRIES", 8)  # 2 segments a chunk
    schedule = pulse.PulseSchedule(1e-8, (np.ones(9),), (0.0,))
    pulse.simulate_schedule(pulse.qubit_model(1e5), schedule, return_propagator=True)
    assert check.call_count == 1
    _, iterations, _ = _grape(iterations=3)
    assert iterations == 3 and passes.call_count > 3
    assert check.call_count == 2 + passes.call_count


def _lambda_max(n):
    return float(gates._quadrature_eigensystem(n)[0][-1])


def _e_max(h):
    return float(np.max(np.abs(h._eigensystem[0])))


def _snap_duration(phase, chi_hz=1e6, n=3):
    """The duration_s at which _require_envelope's carrier plus chirp bound
    a*T + b/T equals phase (the larger root)."""
    a = 2 * math.pi * chi_hz * (n - 1)
    b = sum(1 / k for k in range(1, n)) / (4 * math.pi * chi_hz) * 144 * math.pi**2
    return (phase + math.sqrt(phase * phase - 4 * a * b)) / (2 * a)


# _sequence_pass's target, exponent directions, guard and leak weight on 3 levels
_A3 = fock.annihilation(3).matrix
SEQUENCE_ARGS = (np.array([0.6, 0.8, 0.0], dtype=complex),
                 np.stack([_A3.T - _A3, 1j * (_A3.T + _A3)]), (2,), 1.0)


# every phase guard: site -> (the start of the NumericError, the quantity it
# names, a call whose phase bound is its argument); each ran a finite phase
# of 1e300 rad, whose ulp is 1e284 rad
PHASE_SITES = {
    "displacement.alpha": ("alpha", "displacement phase |amplitude|*max(Lambda)",
                           lambda p: gates.displacement(p / _lambda_max(4), 4)),
    "ecd.beta": ("beta", "displacement phase |amplitude|*max(Lambda)",
                 lambda p: gates.ecd(2 * p / _lambda_max(6), 6)),
    "snap.theta": ("snap theta", "SNAP phase max|theta|", lambda p: gates.snap([0.5, -p, 0.0])),
    "multisnap.theta": ("theta", "SNAP phase max|theta|",
                        lambda p: gates.multisnap([0.5, 0.0, 0.0, p], [2, 2])),
    "trotter_step.dt_s": (
        "dt_s ", "step phase 2*pi*max(|V|, |K|)*dt",
        lambda p: gates.circuit_unitary(trotter.trotter_step(HAMILTONIAN, p / math.pi))),
    "trotter_convergence.t_total_s": (
        "t_total_s ", "phase max|E|*t",
        lambda p: trotter.trotter_convergence(HAMILTONIAN, p / _e_max(HAMILTONIAN), [4, 8])),
    "otoc_series.times_s": (
        "times_s entry ", "phase max|E|*|t|",
        lambda p: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN,
                                      [0.0, -p / _e_max(HAMILTONIAN)])),
    "simulate_schedule.dt_s": (
        "dt_s ", "segment phase d*max|H|*dt_s", lambda p: pulse.simulate_schedule(
            OVERFLOW_MODEL, _qubit_schedule(p / (4 * math.pi * 1e10)), return_propagator=True)),
    "grape_gradient.dt_s": (
        "dt_s ", "segment phase d*max|H|*dt_s", lambda p: pulse.grape_gradient(
            OVERFLOW_MODEL, _qubit_schedule(p / (4 * math.pi * 1e10)), identity(2))),
    "_propagator.dt_s": (
        "dt_s ", "segment phase d*max|H|*dt_s", lambda p: pulse._propagator(
            OVERFLOW_MODEL, _qubit_schedule(1.0).streams, p / (4 * math.pi * 1e10))),
    "_grape_pass.dt_s": (
        "dt_s ", "segment phase d*max|H|*dt_s", lambda p: pulse._grape_pass(
            OVERFLOW_MODEL, np.stack(_qubit_schedule(1.0).streams), p / (4 * math.pi * 1e10),
            identity(2), None, (), 1.0)[:2]),
    "_displacement_factors.alpha": (
        "alpha", "displacement phase |amplitude|*max(Lambda)",
        lambda p: gates._displacement_factors([0.3j, p / _lambda_max(4)], 4)),
    "_sequence_pass.theta": (
        "theta", "SNAP phase max|theta|", lambda p: pulse._sequence_pass(
            np.array([0.3, 0.2j]), np.array([[0.5, -p, 0.0]]), *SEQUENCE_ARGS)[:2]),
    "synthesize_snap_pulse carrier plus chirp": (
        "chi_hz 1000000.0, duration_s ", "carrier plus AC-Stark chirp phase",
        lambda p: pulse.synthesize_snap_pulse(
            SNAP_MODEL, [0.0] * 3, _snap_duration(p), dt_s=_snap_duration(p) / 2,
            enforce_bound=False, precompensate=False)),
    "fock.propagator.t": (
        "t ", "phase d*max|H|*|t|",
        lambda p: fock.propagator(fock.number_operator(4), -p / 12)),  # d*max|H| = 12
}


def _all_finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_all_finite, value))
    if isinstance(value, pulse.PulseSchedule):
        value = value.streams
    return bool(np.isfinite(getattr(value, "matrix", value)).all())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", PHASE_SITES)
def test_phase_site_runs_up_to_max_phase_and_refuses_above(site):
    what, quantity, call = PHASE_SITES[site]
    assert _all_finite(call(errors.MAX_PHASE_RAD * (1 - 1e-9)))
    refused = mock.Mock(side_effect=AssertionError("computed"))
    with mock.patch.object(pulse, "_snap_drive_samples", refused), \
            mock.patch.object(pulse, "expm_hermitian", refused), \
            mock.patch.object(pulse, "hermitian_eigensystem", refused), \
            mock.patch.object(pulse, "eig_exponential", refused), \
            mock.patch.object(pulse, "su2_factors", refused), \
            mock.patch.object(fock, "expm_hermitian", refused), \
            mock.patch.object(fock, "su2_factors", refused):
        with pytest.raises(NumericError, match=(
                f"^{re.escape(what)}[^:]*: the {re.escape(quantity)} is 1.05e\\+06 rad, "
                "above MAX_PHASE_RAD = 2\\*\\*20 rad$")):
            call(errors.MAX_PHASE_RAD * (1 + 1e-9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: gates.displacement(complex(1.7e308, 1.7e308), 4),
    lambda: gates._displacement_factors(np.array([0.3, complex(1.7e308, -1.7e308)]), 4),
], ids=["displacement", "_displacement_factors"])
def test_amplitude_whose_modulus_overflows_fails_the_phase_rule(call):
    # abs() of such an alpha raised a raw OverflowError
    with pytest.raises(NumericError, match=r"^alpha: the displacement phase \S+ is inf rad"):
        call()


SRC = Path(cavityq.__file__).parent
# a name that binds a phase limit: MAX_PHASE_RAD, _MAX_TRIAL_PHASE, phase_limit
_PHASE_LIMIT = re.compile(r"(?i)(max|limit|cap|bound).*phase|phase.*(max|limit|cap|bound)")


def test_phase_rule_lives_in_errors_only():
    # a module other than errors.py that raises a NumericError about a phase,
    # or names a phase limit of its own, keeps a phase rule beside require_phase
    numeric = {cls.__name__ for cls in (NumericError, *_subclasses(NumericError))}
    breaches = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            breaches += [f"{path.name}:{line}: {why}" for line, why in _phase_rules(path, numeric)]
    assert breaches == []


def _is_len_of_set(node) -> bool:
    """Whether node is len(set(...))."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "set")


def _raises(node) -> bool:
    """Whether node is an if statement that raises, in its body or its else."""
    return isinstance(node, ast.If) and any(
        isinstance(n, ast.Raise) for stmt in node.body + node.orelse for n in ast.walk(stmt))


def _bespoke_checks(path):
    """(line, why) of each if statement that raises, in its body or its else,
    and whose test (alone, negated or joined by and/or) is a membership test
    against a literal tuple, list or set, or compares len(set(...))."""
    for node in filter(_raises, ast.walk(ast.parse(path.read_text(encoding="utf-8")))):
        tests = [node.test]
        while tests:
            test = tests.pop()
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                tests.append(test.operand)
            elif isinstance(test, ast.BoolOp):
                tests.extend(test.values)
            elif isinstance(test, ast.Compare):
                if any(isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                        right, (ast.Tuple, ast.List, ast.Set))
                        for op, right in zip(test.ops, test.comparators)):
                    yield node.lineno, "a choice check: require_choice"
                if any(map(_is_len_of_set, [test.left, *test.comparators])):
                    yield node.lineno, "a duplicate check: require_distinct"


def test_choice_and_distinct_rules_live_in_errors_only():
    # an if that tests membership of a literal tuple, or counts a set, and
    # raises keeps a choice or duplicate rule beside errors.require_choice
    # and errors.require_distinct
    breaches = [f"{path.name}:{line}: {why}" for path in sorted(SRC.glob("*.py"))
                if path.name != "errors.py" for line, why in _bespoke_checks(path)]
    assert breaches == []


def _functions(node, scope: str):
    """(qualified name, node) of each function under node, outer before inner."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, scope)


def _length_checks(path):
    """{line: "module.function: test"} of each if statement that raises, in
    its body or its else, and whose test compares a length (len(...), a
    .size, or a name the function binds to one) or tests its truth; a check
    in a nested function is named by the innermost."""
    checks = {}
    for qualname, func in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem):
        nodes = list(ast.walk(func))
        lengths = {target.id for node in nodes if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name)
                   and _is_length(node.value, set())}
        for node in filter(_raises, nodes):
            if any(isinstance(t, ast.Compare)
                   and any(_is_length(x, lengths) for x in [t.left, *t.comparators])
                   or isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.Not)
                   and _is_length(t.operand, lengths) for t in ast.walk(node.test)):
                checks[node.lineno] = f"{qualname}: {ast.unparse(node.test)}"
    return checks


def _is_length(node, names) -> bool:
    """Whether node is len(...), a .size, or one of names."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
            or isinstance(node, ast.Attribute) and node.attr == "size"
            or isinstance(node, ast.Name) and node.id in names)


# the length checks that do not count an argument's entries, and why
LENGTH_EXEMPT = {
    "pulse._cavity_levels: len(dims) != 2 or dims[0] != 2":
        "the register check: a (2, N) qubit-cavity shape, qubit first",
    "pulse.optimize_snap_displacement_sequence: len(target.shape.dims) != 1":
        "the register check: a StateVector target on one mode",
    "fock.HilbertShape.flat_index: len(occupations) != len(self.dims)":
        "a sequence of occupations, one per subsystem, not an array",
    "cli._emit_artifact: len({len(v) for v in values}) > 1":
        "an internal check that the columns the package built agree",
}


def test_length_rules_live_in_errors_only():
    # an if that compares a length and raises keeps an entry-count rule beside
    # errors.require_array's least and fixed lengths
    checks = [check for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
              for check in _length_checks(path).values()]
    assert sorted(set(checks) - set(LENGTH_EXEMPT)) == []
    assert sorted(set(LENGTH_EXEMPT) - set(checks)) == []  # no stale exemption


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_rule_is_documented():
    # a require_* rule of errors that the README's argument-rules list or the
    # errors docstring does not name leaves its rule count and sites stale
    text = README.read_text(encoding="utf-8")
    start = text.index("\n- API arguments are checked by")
    listed = text[start:text.index("\n- ", start + 1)]
    rules = [name for name, obj in vars(errors).items()
             if name.startswith("require_") and inspect.isfunction(obj)]
    missing = [f"{name} in {where}" for name in rules
               for where, doc in (("the README", listed), ("the docstring", errors.__doc__))
               if not re.search(rf"`(errors\.)?{name}[`(]", doc)]
    assert missing == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _phase_rules(path, numeric):
    """(line, why) of each raise of a NumericError class whose message
    text mentions a phase, each name bound to a phase limit, and each read
    of MAX_PHASE_RAD, as a name or an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) in numeric:
            text = " ".join(c.value for c in ast.walk(node.exc)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if "phase" in text.lower():
                yield node.lineno, f"raises {node.exc.func.id} about a phase"
        name = getattr(node, "id", getattr(node, "attr", ""))
        if isinstance(getattr(node, "ctx", None), ast.Store) and _PHASE_LIMIT.search(name):
            yield node.lineno, f"binds the phase limit {name}"
        if isinstance(getattr(node, "ctx", None), ast.Load) and name == "MAX_PHASE_RAD":
            yield node.lineno, "reads MAX_PHASE_RAD"


# the rules that return the value they check, the SNAP reader's phases
# among them; require_capacity and require_phase return None
VALUE_RULES = {"require_real", "require_finite", "require_positive", "require_count",
               "require_index", "require_complex", "require_array", "shape_of", "_snap_phases"}


def test_rule_results_are_kept():
    # a statement that calls a rule and drops its value goes on with the raw
    # argument: a numpy float32 step built a channel's Kraus operators in float32
    dropped = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in VALUE_RULES:
                    dropped.append(f"{path.name}:{node.lineno}: {name}")
    assert dropped == []


@pytest.mark.parametrize("streams", [5, None, 1.0, "ab", {0: [1.0]}, np.array(1.0)], ids=repr)
def test_pulse_schedule_streams_must_be_a_sequence(streams):
    # enumerate(5) raised a raw TypeError
    with pytest.raises(UsageError, match="^streams must be a sequence, got "):
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


@settings(max_examples=400)
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
