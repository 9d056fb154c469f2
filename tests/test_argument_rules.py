"""The shared argument rules at every API site that uses them.

`SITES` files every public parameter, keyed "<callable>.<parameter>" as
`_annotations()` names it (a class's fields under the class name). A row is
a `Site`: the name its messages use, one call with the parameter set to v,
and per rule that reads the parameter the data that rule's test needs; or
an `Exempt` reason why no rule test reads it. A rule's tag maps to an
`Exempt` reason where that rule's signature walk finds the parameter but
another rule reads it. `test_every_public_parameter_is_filed` holds SITES
to the signatures: result-class fields and the `errors` rules' own
parameters are exempt by class. Cases that are not one public parameter
keep a named table of Site rows: `GATE_FIELDS` (the fields of a Circuit
gate), `PRIVATE_SITES` (private phase checks) and `SUBCASES` (one entry or
form of a parameter); `LIBRARY_ERROR_CALLS`, `OWN_REFUSALS` and
`OVERFLOW_SITES` hold whole calls.

Each rule test selects its rows by tag. `real` (`errors.require_positive`)
refuses anything but a real number with 0 < value < inf; `number`
(`require_real`) anything but a real number; `finite` (`require_finite`)
NaN and ±inf; `complex` (`require_complex`) anything but a complex or real
number; `count` (`require_count`) anything but an integer of at least 0 (1
for some); `index` (`require_index`) anything but an integer in [0, size);
`dimension` (`fock.shape_of`) anything but an integer of at least 1, and a
total dimension over the cap, before it allocates; `array`
(`require_array`) an entry that is not a number (not a real number for a
real array), and ragged rows or any other shape; `instance`
(`require_instance`) anything but an object of the annotated cavityq
class; `shape` (`require_on`) an object on a register other than the one
another argument fixes; `sequence` (`require_sequence`) anything that is
not a sequence; `flag` (`require_flag`) anything but a boolean; `distinct`
(`require_distinct`) a repeated entry; `nonempty` (`require_sequence` with
least=1) no entries; `length` (`require_array` with `least` or a fixed
length) a wrong entry count; `choice` (`require_choice`), at every Literal
parameter, anything but one of its choices; `sign` (`require_nonnegative`)
a negative or NaN real; `huge` a number too large for a float, as a
NumericError; and `phase` (`require_phase`) a phase above MAX_PHASE_RAD.
All raise UsageError naming the argument (InvalidDimensionError for a
dimension, ShapeError for another register or length), and a numpy scalar
of an accepted type gives the same result as the Python number. The rules
of `ENTRY_RULES` read one entry of a parameter that holds several, set by
the row's `entry`.
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
PARAMS = device.DeviceParams(**DEVICE)
HAMILTONIAN = trotter.QuditHamiltonian([0.0, 0.5, 0.25], [0.1, 0.0, -0.3])
PSI = basis_state((3, 3, 3), [0, 1, 2])
PSI3 = basis_state(3, 1)
STATE2, STATE3 = basis_state(2, 0), basis_state(3, 0)
ONE_BY_THREE = basis_state((1, 3), [0, 1])
STATE_TARGET = basis_state((2, 2), [1, 0])
SNAP3 = gates.snap([0.1, 0.2, 0.3])
INCREMENT = gates.controlled_increment(3)
FOURIER3 = gates.Circuit((3,), (gates.GateSpec("fourier", {"target": 0}),))
EMPTY2 = gates.Circuit((2,), ())
CHANNEL = noise.photon_loss_channel(1.0, 1e-4, 3)
QUBIT = pulse.qubit_model()
SNAP_MODEL = pulse.dispersive_model(1e6, 3)
OVERFLOW_MODEL = pulse.qubit_model(1e10)
THETA6 = np.linspace(0.0, 1.0, 6)
INDEX_FORMS = (range(1, -1, -1), np.array([1, 0]))


def _qst_config(**fields):
    flat = qst.SampledWaveform([0.0, 0.0], 8.0, -4.0)
    base = dict(kappa_hz=1.0, emit_waveform=flat, catch_waveform=flat,
                t_span_s=(-4.0, 4.0), dt_s=0.5)
    return qst.QstConfig(**{**base, **fields})


def _matched_config():
    return qst.QstConfig(kappa_hz=1.0, emit_waveform=qst.matched_emit_rate(1.0),
                         catch_waveform=qst.matched_catch_rate(1.0),
                         t_span_s=(-12.0, 12.0), dt_s=0.04)


def _schedule():
    return pulse.PulseSchedule(1e-8, (np.zeros(3, dtype=complex),), (0.0,))


def _qubit_schedule(dt_s, amp=0.0):
    return pulse.PulseSchedule(dt_s, ([complex(amp)] * 4,), (0.0,))


def _grape(**kw):
    res = pulse.grape_optimize(pulse.dispersive_model(1e6, 2), basis_state((2, 2), [1, 0]),
                               pulse.PulseSchedule(1e-7, (np.zeros(4),), (0.0,)),
                               **{"iterations": 3, "seed": 1, **kw})
    return res.fidelity, res.iterations, res.schedule.streams


def _grape_state(**kw):
    return pulse.grape_optimize(**{"model": pulse.dispersive_model(1e6, 2),
                                   "target": STATE_TARGET, "schedule0": _schedule(),
                                   "iterations": 1, **kw})


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


def _gate(kind, dims, **params):
    return gates.Circuit(dims, (gates.GateSpec(kind, params),))


def _kraus(channel):
    return [k.matrix for k in channel.kraus]


def _trajectory(result):
    return result.steps, result.jump_steps, result.final_state.amplitudes


def _runs(steps, n_trajectories, base_seed):
    return [_trajectory(r) for r in noise.run_trajectories(CHANNEL, PSI3, steps, n_trajectories,
                                                            base_seed)]


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
# d*max|H| of a schedule on OVERFLOW_MODEL: its segment phase is this times dt_s
_OVERFLOW_RATE = 4 * math.pi * 1e10


# --- the site table --------------------------------------------------------

class Exempt(str):
    """Why no rule test reads a parameter: a whole row of SITES, or the value
    of a rule tag whose walk finds the parameter but another rule reads it."""


class Site:
    """A parameter that rules read: the name its messages use, one call with
    the parameter set to v, per rule tag the data that rule's test needs
    (True for none), and for a parameter that holds several entries, the
    (name, v -> parameter) that sets one entry for ENTRY_RULES."""

    def __init__(self, name, call, entry=None, **rules):
        self.name, self.call, self.entry, self.rules = name, call, entry, rules


# the rules that read one entry of a parameter holding several
ENTRY_RULES = {"real", "number", "finite", "complex", "count", "index", "dimension", "instance",
               "shape", "huge"}

_JSON = Exempt("a JSON document, read by errors.read_fields: a ParseError")
_KERNEL = Exempt(
    "an array kernel that the engines call once per chunk: a non-array raises numpy's own "
    "error, and a require_array copy here would be paid on the hot path")
_BULK = Exempt("numbers read in bulk by require_array, which refuses a generator")
_DIMENSIONS = Exempt("dimensions, read by fock.shape_of (the dimension rule)")
_DISPATCH = Exempt("a Circuit, an Operator or an array, which trotter._operator dispatches")
_FIXES = Exempt("fixes the register")
_ANY = Exempt("any register")
_SINGLE_MODE = Exempt("any single-mode register")
_CAVITY = Exempt("a structural (2, N) check, pulse._cavity_levels")


def _device(field):
    return lambda v: vars(device.DeviceParams(**{**DEVICE, field: v}))


def _finite_row(name, call):
    return Site(name, call, number=True, finite=True)


SITES = {
    # cli
    "cmd_device.args": Exempt("the argparse namespace cli.main builds"),
    "cmd_device.text": _JSON,
    "main.argv": Exempt("command-line words, read by argparse, which exits 2"),
    # codes
    "parity.psi": Site("psi", codes.parity, instance=True, shape=_ANY),
    "parity.mode": Site("subsystem", lambda v: codes.parity(PSI, v), index=3),
    "cat_state.alpha": Site("alpha", lambda v: codes.cat_state(v, "+", 16).amplitudes,
                            complex=True, huge="is"),
    "cat_state.sign": Site("sign", lambda v: codes.cat_state(1.0, v, 16).amplitudes,
                           choice=("-", [["+"], "+ ", b"+"])),
    "cat_state.n": Site("dimension", lambda v: codes.cat_state(0.1, "+", v).amplitudes,
                        dimension=100),
    "coherent_overlap.alpha": Site("alpha", lambda v: codes.coherent_overlap(v, 0.5),
                                   complex=True),
    "coherent_overlap.beta": Site("beta", lambda v: codes.coherent_overlap(0.5, v), complex=True),
    "cat_encode.c_g": Site("c_g", lambda v: codes.cat_encode(v, 0.0, 1.0, 16).amplitudes,
                           complex=True),
    "cat_encode.c_e": Site("c_e", lambda v: codes.cat_encode(0.0, v, 1.0, 16).amplitudes,
                           complex=True),
    "cat_encode.alpha": Site("alpha", lambda v: codes.cat_encode(1.0, 0.0, v, 16).amplitudes,
                             complex=True),
    "cat_encode.n": Site("dimension", lambda v: codes.cat_encode(1.0, 0.0, 0.1, v).amplitudes,
                         dimension=100),
    "photon_loss_cycle_check.psi": Site(
        "psi", lambda v: codes.photon_loss_cycle_check(v, 1), instance=True,
        shape=_SINGLE_MODE),
    "photon_loss_cycle_check.k": Site(
        "k", lambda v: codes.photon_loss_cycle_check(basis_state(5, [3]), v).amplitudes,
        count=0),
    "binomial_codewords.n": Exempt(
        "a dimension of at least 5, read by fock.shape_of and then its own bound "
        "(test_binomial_codewords_refuses_dimension)"),
    # device
    **{f"DeviceParams.{field}": _finite_row(field, _device(field))
       for field in ("omega_q_hz", "omega_c_hz", "chi_prime_hz", "alpha_hz")},
    "DeviceParams.g_hz": Site("g_hz", _device("g_hz"), real=True, huge="is"),
    **{f"DeviceParams.{field}": Site(field, _device(field), real=True)
       for field in ("t1_fock0_s", "t1_min_s")},
    "DeviceParams.from_json.text": _JSON,
    **{f"{function}.params": Site("params", call, instance=True) for function, call in [
        ("chi", device.chi), ("critical_photon_number", device.critical_photon_number),
        ("max_fock", device.max_fock), ("snap_min_gate_time", device.snap_min_gate_time),
        ("device_summary", device.device_summary),
        ("stark_shifted_freq", lambda v: device.stark_shifted_freq(v, 1)),
        ("fock_t1", lambda v: device.fock_t1(v, 0)),
        ("multimode_drive_freq", lambda v: device.multimode_drive_freq(v, [(1, 2e5)])),
        ("dispersive_model_from_device", lambda v: pulse.dispersive_model_from_device(v, 3))]},
    "stark_shifted_freq.n": Site("n", lambda v: device.stark_shifted_freq(PARAMS, v, 2),
                                 count=0),
    "stark_shifted_freq.order": Site(
        "order", lambda v: device.stark_shifted_freq(PARAMS, 2, v),
        choice=(2, [True, 2.0, np.float64(1.0), 3, 0])),
    "fock_t1.n": Site("n", lambda v: device.fock_t1(PARAMS, v), count=0),
    "multimode_drive_freq.occupations_and_shifts": Site(
        "occupations_and_shifts", lambda v: device.multimode_drive_freq(PARAMS, v),
        sequence=([(1, 2e5), (2, 1e5)], ())),
    "dephasing_rate.dispersion": Site("dispersion", lambda v: device.dephasing_rate(v, 1.5),
                                      number=True),
    "dephasing_rate.spectral_density_dc": Site(
        "spectral_density_dc", lambda v: device.dephasing_rate(3.0, v), number=True,
        sign=errors.require_nonnegative),
    "dephasing_rate.k": Site("k must", lambda v: device.dephasing_rate(3.0, 1.5, v), number=True),
    "relaxation_rate.matrix_element": Site(
        "matrix_element", lambda v: device.relaxation_rate(v, 1.5), complex=True),
    "relaxation_rate.spectral_density_at_e01": Site(
        "spectral_density_at_e01", lambda v: device.relaxation_rate(0.5, v), number=True,
        sign=errors.require_nonnegative),
    "relaxation_rate.k": Site("k must", lambda v: device.relaxation_rate(0.5, 1.5, v),
                              number=True),
    # fock
    "HilbertShape.dims": Site("dimension", lambda v: HilbertShape(v).dims,
                              entry=("dimension", lambda v: (2, v)), dimension=100,
                              sequence=_DIMENSIONS),
    "HilbertShape.flat_index.occupations": Site(
        "occupations", lambda v: HilbertShape((3, 3)).flat_index(v),
        entry=("occupation", lambda v: (1, v)), index=3, sequence=([1, 0], INDEX_FORMS)),
    "HilbertShape.unflatten.index": Site("index", lambda v: HilbertShape((2, 3)).unflatten(v),
                                         index=6),
    "shape_of.dims": Site("dimension", lambda v: fock.shape_of(v).dims, dimension=100,
                          sequence=_DIMENSIONS),
    "shape_of.name": Exempt("the argument name an InvalidDimensionError quotes"),
    "StateVector.shape": Site("dimension", lambda v: fock.StateVector(v, [0, 1, 0]).amplitudes,
                              dimension=100),
    "StateVector.amplitudes": Site("amplitudes", lambda v: fock.StateVector(3, v).amplitudes,
                                   array="vector"),
    "StateVector.leakage": Site("leakage", lambda v: fock.StateVector(3, [0, 1, 0], v).leakage,
                                sign=errors.require_nonnegative),
    "StateVector.overlap.other": Site("other", PSI3.overlap, instance=True,
                                      shape=(STATE2, (3,))),
    "Operator.shape": Site("dimension", lambda v: fock.Operator(v, np.eye(3)).matrix,
                           dimension=100),
    "Operator.matrix": Site("matrix", lambda v: fock.Operator(3, v).matrix, array="matrix"),
    "Operator.apply.psi": Site("psi", identity(3).apply, instance=True, shape=(STATE2, (3,))),
    "Operator.is_hermitian.tol": _finite_row("tol", identity(2).is_hermitian),
    "Operator.is_unitary.tol": _finite_row("tol", identity(2).is_unitary),
    "Operator.__matmul__.other": Site("other", lambda v: identity(3) @ v, instance=True,
                                      shape=(identity(2), (3,))),
    "basis_state.shape": Site("dimension", lambda v: basis_state(v, 1).amplitudes, dimension=100,
                              sequence=_DIMENSIONS),
    "basis_state.occupations": Site(
        "flat index", lambda v: basis_state(3, v).amplitudes, index=3, sequence=Exempt(
            "a flat index (require_index) or occupations (HilbertShape.flat_index), by np.ndim")),
    "identity.shape": Site("dimension", lambda v: identity(v).matrix, dimension=100,
                           sequence=_DIMENSIONS),
    **{f"{function.__name__}.n": Site("dimension", lambda v, f=function: f(v).matrix,
                                      dimension=100)
       for function in (fock.annihilation, fock.creation, fock.number_operator)},
    "tensor.factors": Exempt(
        "states or operators, each read by require_instance against the first "
        "(LIBRARY_ERROR_CALLS \"tensor factor\")"),
    **dict.fromkeys(["eig_exponential.evals", "eig_exponential.vecs", "eig_exponential.t",
                     "su2_factors.bz", "su2_factors.h10", "su2_factors.t", "su2_matrix.phase",
                     "su2_matrix.a", "su2_matrix.b", "expm_hermitian.h", "expm_hermitian.t",
                     "hermitian_eigensystem.h"], _KERNEL),
    "populations.rho": Exempt(
        "an array that no engine reads: numpy's own ValueError on a non-array, until a "
        "contract test of every public call decides it"),
    "propagator.h": Site("h", lambda v: fock.propagator(v, 1.0), instance=True, shape=_ANY),
    # d*max|H| of number_operator(3) is 6
    "propagator.t": Site("t", lambda v: fock.propagator(fock.number_operator(3), v).matrix,
                         number=True, finite=True, phase=("phase d*max|H|*|t|", lambda p: -p / 6)),
    "coherent_amplitudes.alpha": Site("alpha", lambda v: fock.coherent_amplitudes(v, 16),
                                      complex=True),
    "coherent_amplitudes.n": Site("dimension", lambda v: fock.coherent_amplitudes(0.1, v),
                                  dimension=100),
    "coherent_state.alpha": Site("alpha", lambda v: fock.coherent_state(v, 16).amplitudes,
                                 complex=True, huge="is"),
    "coherent_state.n": Site("dimension", lambda v: fock.coherent_state(0.1, v).amplitudes,
                             dimension=100),
    "fidelity.a": Site("a", lambda v: fock.fidelity(v, PSI3), instance=True, shape=_FIXES),
    "fidelity.b": Site("b", lambda v: fock.fidelity(PSI3, v), instance=True,
                       shape=(STATE2, (3,))),
    **{f"{function.__name__}.psi": Site("psi", lambda v, f=function: f(v, [0]), instance=True,
                                        shape=_ANY)
       for function in (fock.reduced_density_matrix, fock.mode_probabilities)},
    **{f"{function.__name__}.keep": Site(
        "keep", lambda v, f=function: f(PSI, v), entry=("subsystem", lambda v: [v]), index=3,
        sequence=([1, 0], INDEX_FORMS), distinct=[1, 0], nonempty=[1])
       for function in (fock.reduced_density_matrix, fock.mode_probabilities)},
    "mean_occupation.psi": Site("psi", fock.mean_occupation, instance=True, shape=_ANY),
    "mean_occupation.mode": Site("subsystem", lambda v: fock.mean_occupation(PSI, v), index=3),
    # gates
    "snap.theta": Site("snap theta", lambda v: gates.snap(v).matrix, length=([0.5], False),
                       phase=("SNAP phase max|theta|", lambda p: [0.5, -p, 0.0]),
                       sequence=_BULK),
    "multisnap.theta": Site("theta", lambda v: gates.multisnap(v, (3,)).matrix,
                            length=([0.1, 0.2, 0.3], True),
                            phase=("SNAP phase max|theta|", lambda p: [0.5, 0.0, p]),
                            sequence=_BULK),
    "multisnap.dims": Site("dimension", lambda v: gates.multisnap(THETA6, v).matrix,
                           entry=("dimension", lambda v: [2, v]), dimension=100,
                           sequence=_DIMENSIONS),
    "displacement.alpha": Site(
        "alpha", lambda v: gates.displacement(v, 6).matrix, complex=True, finite=True,
        huge="is", phase=("displacement phase |amplitude|*max(Lambda)",
                          lambda p: p / _lambda_max(6))),
    "displacement.n": Site("dimension", lambda v: gates.displacement(0.3, v).matrix,
                           dimension=100),
    "displacement.convention": Site(
        "convention", lambda v: gates.displacement(0.3, 4, v).matrix,
        choice=("paper", ["Paper", ["paper"], b"paper"])),
    "qubit_rotation.theta": _finite_row("theta", lambda v: gates.qubit_rotation(v, 0.3).matrix),
    "qubit_rotation.phi": _finite_row("phi", lambda v: gates.qubit_rotation(0.3, v).matrix),
    "cond_rotation.n": Site("selector level",
                            lambda v: gates.cond_rotation(v, 0.3, 0.2, 3).matrix, index=3),
    "cond_rotation.theta": _finite_row("theta",
                                     lambda v: gates.cond_rotation(1, v, 0.2, 3).matrix),
    "cond_rotation.phi": _finite_row("phi", lambda v: gates.cond_rotation(1, 0.3, v, 3).matrix),
    "cond_rotation.mode_dim": Site(
        "dimension", lambda v: gates.cond_rotation(1, 0.3, 0.2, v).matrix, dimension=40),
    "controlled_increment.n": Site(
        "dimension", lambda v: gates.controlled_increment(v).matrix, dimension=9),
    "givens.m": Site("level", lambda v: gates.givens(v, 0, 0.3, 3).matrix, index=3),
    "givens.n": Site("level", lambda v: gates.givens(0, v, 0.3, 3).matrix, index=3),
    "givens.theta": _finite_row("theta", lambda v: gates.givens(0, 1, v, 3).matrix),
    "givens.dim": Site("dimension", lambda v: gates.givens(0, 1, 0.3, v).matrix, dimension=100),
    "phase_swap.m": Site("level", lambda v: gates.phase_swap(v, 0, 3).matrix, index=3),
    "phase_swap.n": Site("level", lambda v: gates.phase_swap(0, v, 3).matrix, index=3),
    "phase_swap.dim": Site("dimension", lambda v: gates.phase_swap(0, 1, v).matrix,
                           dimension=100),
    "fourier.dim": Site("dimension", lambda v: gates.fourier(v).matrix, dimension=100),
    "fourier.inverse": Site("inverse", lambda v: gates.fourier(3, v), flag=True),
    "ecd.beta": Site(
        "beta", lambda v: gates.ecd(v, 6).matrix, complex=True, finite=True, huge="is",
        phase=("displacement phase |amplitude|*max(Lambda)", lambda p: 2 * p / _lambda_max(6))),
    "ecd.mode_dim": Site("dimension", lambda v: gates.ecd(0.3, v).matrix, dimension=40),
    "ecd.convention": Site("convention", lambda v: gates.ecd(0.3, 4, v).matrix,
                           choice=("paper", ["Paper", ["paper"]])),
    "qubit_binary_encode.bits": Exempt(
        "a str or a sequence of bits, each read by require_choice "
        "(test_qubit_binary_encode_refuses_bool_and_float_bits)"),
    "qubit_binary_decode.level": Site("level", lambda v: gates.qubit_binary_decode(v, 2),
                                      index=4),
    "qubit_binary_decode.n_bits": Site("n_bits", lambda v: gates.qubit_binary_decode(1, v),
                                       count=1),
    "embed.op": Site("op", lambda v: gates.embed(v, [0], 3).matrix, instance=True,
                     shape=(identity(2), (3,))),
    "embed.shape": Site("dimension", lambda v: gates.embed(gates.fourier(3), [0], v).matrix,
                        entry=("dimension", lambda v: (3, v)), dimension=100,
                        sequence=_DIMENSIONS),
    "multiqudit_snap.target": Site(
        "target", lambda v: gates.multiqudit_snap(v, [0.1, 0.2, 0.3], PSI.shape).matrix,
        index=3),
    "multiqudit_snap.theta": Site("theta", lambda v: gates.multiqudit_snap(0, v, 3).matrix,
                                  length=([0.1, 0.2, 0.3], True), sequence=_BULK),
    "multiqudit_snap.shape": Site(
        "dimension", lambda v: gates.multiqudit_snap(0, [0.1, 0.2, 0.3], v).matrix,
        dimension=100, sequence=_DIMENSIONS),
    "apply_embedded.op": Site("op", lambda v: gates.apply_embedded(v, [1, 0], PSI).amplitudes,
                              instance=True, shape=(identity(3), (3, 3))),
    "apply_embedded.psi": Site("psi", lambda v: gates.apply_embedded(SNAP3, [0], v).amplitudes,
                               instance=True, shape=_FIXES),
    **{f"{function.__name__}.targets": Site(
        "targets", call, entry=("target", lambda v: [v, 0]), index=3,
        sequence=([1, 0], INDEX_FORMS), distinct=[1, 0], nonempty=[1, 0])
       for function, call in [
           (gates.embed, lambda v: gates.embed(INCREMENT, v, (3, 3, 3)).matrix),
           (gates.apply_embedded, lambda v: gates.apply_embedded(INCREMENT, v, PSI).amplitudes)]},
    "GateSpec.kind": Exempt(
        "read by the gate table when a Circuit compiles the gate "
        "(LIBRARY_ERROR_CALLS \"GateSpec.kind list\")"),
    "GateSpec.params": Exempt(
        "a mapping of gate fields (LIBRARY_ERROR_CALLS \"GateSpec.params\"), each read by "
        "its kernel's rule (GATE_FIELDS)"),
    "GateSpec.build.shape": Site(
        "dimension", lambda v: gates.GateSpec("fourier", {"target": 0}).build(v)[0].matrix,
        dimension=100, sequence=_DIMENSIONS),
    "GateSpec.build.convention": Site(
        "convention",
        lambda v: gates.GateSpec("snap", {"target": 0, "theta": [0.1, 0.2]}).build(2, v)[0].matrix,
        choice=("paper", ["bogus", ["paper"]])),
    "Circuit.shape": Site("dimension", lambda v: gates.Circuit(v, ()).shape.dims, dimension=100),
    "Circuit.gates": Site(
        "gates", lambda v: gates.Circuit((3,), v).to_json(), entry=("gates[0]", lambda v: (v,)),
        instance=True, sequence=([gates.GateSpec("fourier", {"target": 0}),
                                  gates.GateSpec("snap", {"target": 0, "theta": [0.1, 0.2, 0.3]})],
                                 ())),
    "Circuit.displacement_convention": Site(
        "displacement_convention",
        lambda v: gates.circuit_unitary(gates.Circuit(
            (4,), (gates.GateSpec("displacement", {"target": 0, "alpha": 0.3}),), v)).matrix,
        choice=("paper", ["Paper", ["paper"]])),
    "circuit_from_json.text": _JSON,
    "apply_circuit.circuit": Site("circuit", lambda v: gates.apply_circuit(v, PSI3),
                                  instance=True, shape=_FIXES),
    "apply_circuit.psi": Site("psi", lambda v: gates.apply_circuit(gates.Circuit((3, 2), ()), v),
                              instance=True, shape=(STATE3, (3, 2))),
    "circuit_unitary.circuit": Site("circuit", gates.circuit_unitary, instance=True, shape=_ANY),
    # noise
    "NoiseChannel.shape": Site(
        "dimension", lambda v: _kraus(noise.NoiseChannel(v, CHANNEL.kraus, 1e-4)),
        dimension=100),
    "NoiseChannel.kraus": Site(
        "kraus", lambda v: _kraus(noise.NoiseChannel(3, v, 1e-4)),
        entry=("Kraus operator 0", lambda v: (v,)), instance=True, shape=(identity(2), (3,)),
        sequence=(list(CHANNEL.kraus), ()), nonempty=CHANNEL.kraus),
    "NoiseChannel.dt_s": Site(
        "dt_s", lambda v: noise.NoiseChannel(HilbertShape((2,)), (identity(2),), v).dt_s,
        real=True),
    **{f"{channel.__name__}.t1_s": Site("t1_s", lambda v, c=channel: _kraus(c(v, 1e-4, 3)),
                                        number=True)
       for channel in (noise.photon_loss_channel, noise.amplitude_damping_channel)},
    "photon_loss_channel.dt_s": Site(
        "dt_s", lambda v: _kraus(noise.photon_loss_channel(1e6, v, 3)), real=True),
    "amplitude_damping_channel.dt_s": Site(
        "dt_s", lambda v: _kraus(noise.amplitude_damping_channel(4.0, v, 3)), real=True),
    "dephasing_channel.rate_hz": Site("rate_hz", lambda v: noise.dephasing_channel(v, 1e-9, 3),
                                      sign=errors.require_nonnegative),
    "dephasing_channel.dt_s": Site(
        "dt_s", lambda v: _kraus(noise.dephasing_channel(1e-6, v, 3)), real=True),
    "photon_loss_channel.n": Site(
        "dimension", lambda v: _kraus(noise.photon_loss_channel(1.0, 1e-4, v)), dimension=100),
    "amplitude_damping_channel.n": Site(
        "dimension", lambda v: _kraus(noise.amplitude_damping_channel(1.0, 1e-3, v)),
        dimension=100),
    "dephasing_channel.n": Site(
        "dimension", lambda v: _kraus(noise.dephasing_channel(1.0, 1e-4, v)), dimension=100),
    "density_matrix.psi": Site("psi", noise.density_matrix, instance=True, shape=_ANY),
    "apply_channel.channel": Site("channel", lambda v: noise.apply_channel(v, np.eye(3)),
                                  instance=True, shape=_FIXES),
    "apply_channel.rho": Site("rho", lambda v: noise.apply_channel(CHANNEL, v), array="matrix"),
    "apply_channel_trajectory.channel": Site(
        "channel", lambda v: noise.apply_channel_trajectory(v, PSI3, 2, 1), instance=True,
        shape=_FIXES),
    "apply_channel_trajectory.psi": Site(
        "psi", lambda v: noise.apply_channel_trajectory(CHANNEL, v, 2, 1), instance=True,
        shape=(STATE2, (3,))),
    "apply_channel_trajectory.steps": Site(
        "steps", lambda v: _trajectory(noise.apply_channel_trajectory(CHANNEL, PSI3, v, 1)),
        count=0),
    "apply_channel_trajectory.seed": Site(
        "seed", lambda v: _trajectory(noise.apply_channel_trajectory(CHANNEL, PSI3, 2, v)),
        count=0),
    "run_trajectories.channel": Site(
        "channel", lambda v: noise.run_trajectories(v, PSI3, 2, 2, 1), instance=True,
        shape=_FIXES),
    "run_trajectories.psi": Site("psi", lambda v: noise.run_trajectories(CHANNEL, v, 2, 2, 1),
                                 instance=True, shape=(STATE2, (3,))),
    "run_trajectories.steps": Site("steps", lambda v: _runs(v, 2, 1), count=0),
    "run_trajectories.n_trajectories": Site("n_trajectories", lambda v: _runs(2, v, 1),
                                            count=1),
    "run_trajectories.base_seed": Site("base_seed", lambda v: _runs(2, 2, v), count=0),
    # pulse
    "PulseSchedule.from_json.text": _JSON,
    "PulseSchedule.dt_s": Site(
        "dt_s", lambda v: pulse.PulseSchedule(v, (np.ones(3),), (0.0,)).duration_s, real=True,
        huge="is"),
    "PulseSchedule.streams": Site(
        "streams", lambda v: pulse.PulseSchedule(1e-9, v, (0.0, 0.0)).streams,
        sequence=([np.zeros(3), np.arange(3.0)], (np.array([np.zeros(3), np.arange(3.0)]),)),
        nonempty=[np.zeros(2), np.zeros(2)]),
    "PulseSchedule.carriers_hz": Site(
        "carriers_hz", lambda v: pulse.PulseSchedule(1e-9, (np.ones(2),), v).carriers_hz,
        entry=("carriers_hz", lambda v: (v,)), number=True, huge="holds a number",
        sequence=_BULK),
    "ControlModel.shape": Site(
        "dimension", lambda v: pulse.ControlModel(v, identity(3), [fock.number_operator(3)] * 2)
        .shape.dims, dimension=100),
    "ControlModel.drift": Site("drift", lambda v: pulse.ControlModel(2, v, QUBIT.controls),
                               instance=True, shape=(identity(3), (2,))),
    "ControlModel.controls": Site(
        "controls", lambda v: [c.matrix for c in pulse.ControlModel(2, QUBIT.drift, v).controls],
        entry=("control 0", lambda v: (v, v)), instance=True, shape=(identity(3), (2,)),
        sequence=(list(QUBIT.controls), ())),
    "qubit_model.detuning_hz": Site(
        "detuning_hz", lambda v: pulse.qubit_model(v).drift.matrix, number=True, finite=True,
        huge="is"),
    "dispersive_model.chi_hz": Site("chi_hz", lambda v: pulse.dispersive_model(v, 3).drift.matrix,
                                    real=True),
    "dispersive_model.n_levels": Site(
        "dimension", lambda v: pulse.dispersive_model(1e6, v).drift.matrix, dimension=100),
    "dispersive_model.cavity_drive": Site(
        "cavity_drive", lambda v: pulse.dispersive_model(1e6, 3, cavity_drive=v), flag=True),
    "dispersive_model_from_device.n_levels": Site(
        "dimension", lambda v: pulse.dispersive_model_from_device(PARAMS, v).drift.matrix,
        dimension=100),
    "dispersive_model_from_device.cavity_drive": Site(
        "cavity_drive", lambda v: pulse.dispersive_model_from_device(PARAMS, 3, v), flag=True),
    "simulate_schedule.model": Site("model", lambda v: pulse.simulate_schedule(v, _schedule()),
                                    instance=True, shape=_FIXES),
    "simulate_schedule.schedule": Site(
        "schedule", lambda v: pulse.simulate_schedule(QUBIT, v), instance=True),
    "simulate_schedule.psi0": Site(
        "psi0", lambda v: pulse.simulate_schedule(QUBIT, _schedule(), psi0=v,
                                                  return_propagator=True),
        instance=True, shape=(STATE3, (2,))),
    "simulate_schedule.return_propagator": Site(
        "return_propagator",
        lambda v: pulse.simulate_schedule(QUBIT, _schedule(), STATE2, return_propagator=v),
        flag=True),
    "gate_fidelity.u": Site("u", lambda v: pulse.gate_fidelity(v, identity(2)), instance=True,
                            shape=_FIXES),
    "gate_fidelity.v": Site("v", lambda v: pulse.gate_fidelity(identity(2), v), instance=True,
                            shape=(identity(3), (2,))),
    "snap_average_fidelity.u": Site("u", lambda v: pulse.snap_average_fidelity(v, [0.1, 0.2]),
                                    instance=True, shape=_CAVITY),
    "snap_average_fidelity.theta": Site(
        "theta", lambda v: pulse.snap_average_fidelity(identity((2, 3)), v),
        length=([0.1, 0.2, 0.3], True), sequence=_BULK),
    "grape_gradient.model": Site(
        "model", lambda v: pulse.grape_gradient(v, _schedule(), STATE_TARGET), instance=True,
        shape=_FIXES),
    "grape_gradient.schedule": Site(
        "schedule", lambda v: pulse.grape_gradient(QUBIT, v, identity(2)), instance=True),
    "grape_gradient.target": Site(
        "target", lambda v: pulse.grape_gradient(QUBIT, _schedule(), v), instance=True,
        shape=(identity(3), (2,))),
    "grape_gradient.psi0": Site("psi0", lambda v: _grape_gradient(psi0=v), instance=True,
                                shape=(STATE3, (2, 2))),
    "grape_gradient.guard_indices": Site(
        "guard_indices", lambda v: _grape_gradient(guard_indices=v),
        entry=("guard_indices entry", lambda v: (v,)), index=4,
        sequence=([3], (range(3, 4), np.array([3])))),
    "grape_gradient.leak_weight": _finite_row(
        "leak_weight", lambda v: _grape_gradient(guard_indices=(3,), leak_weight=v)),
    "grape_optimize.model": Site("model", lambda v: _grape_state(model=v), instance=True,
                                 shape=_FIXES),
    "grape_optimize.target": Site("target", lambda v: _grape_state(target=v), instance=True,
                                  shape=(STATE3, (2, 2))),
    "grape_optimize.schedule0": Site("schedule0", lambda v: _grape_state(schedule0=v),
                                     instance=True),
    "grape_optimize.iterations": Site("iterations", lambda v: _grape(iterations=v), count=0),
    "grape_optimize.learning_rate": Site("learning_rate", lambda v: _grape(learning_rate=v),
                                         real=True),
    "grape_optimize.seed": Site("seed", lambda v: _grape(seed=v), count=0),
    "grape_optimize.psi0": Site("psi0", lambda v: _grape_state(psi0=v), instance=True,
                                shape=(STATE3, (2, 2))),
    "grape_optimize.tol": _finite_row("tol", lambda v: _grape(tol=v)),
    "grape_optimize.guard_indices": Site(
        "guard_indices", lambda v: _grape(guard_indices=v),
        entry=("guard_indices entry", lambda v: (v,)), index=4,
        sequence=([3], (range(3, 4), np.array([3])))),
    "grape_optimize.leak_weight": _finite_row(
        "leak_weight", lambda v: _grape(guard_indices=(3,), leak_weight=v)),
    "synthesize_snap_pulse.model": Site(
        "model", lambda v: pulse.synthesize_snap_pulse(v, [0.1, 0.2], 1e-5), instance=True,
        shape=_CAVITY),
    "synthesize_snap_pulse.theta": Site(
        "theta", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(4.0, 2), v, 8.0, precompensate=False).streams,
        length=([0.0, 1.0], True), sequence=_BULK),
    "synthesize_snap_pulse.duration_s": Site(
        "duration_s", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(4.0, 2), [0.0, 1.0], v, precompensate=False).streams,
        real=True),
    "synthesize_snap_pulse.dt_s": Site(
        "dt_s", lambda v: pulse.synthesize_snap_pulse(
            pulse.dispersive_model(4.0, 2), [0.0, 1.0], 8.0, dt_s=v, precompensate=False).streams,
        real=True),
    **{f"synthesize_snap_pulse.{flag}": Site(flag, lambda v, flag=flag: pulse.synthesize_snap_pulse(
        pulse.dispersive_model(1e6, 2), [0.1, 0.2], 1e-5, **{flag: v}), flag=True)
       for flag in ("precompensate", "enforce_bound")},
    "optimize_snap_displacement_sequence.target": Site(
        "target", lambda v: pulse.optimize_snap_displacement_sequence(
            v, blocks=1, iterations=0, guard_levels=0).thetas,
        array="vector", length=([1.0, 0.0], False), sequence=_BULK, shape=_SINGLE_MODE,
        instance=Exempt("a StateVector or the amplitudes of one, which require_array reads")),
    **{f"optimize_snap_displacement_sequence.{name}": Site(
        name, lambda v, name=name: _sequence(**{name: v}), count=least)
       for name, least in [("blocks", 1), ("seed", 0), ("iterations", 0), ("guard_levels", 0)]},
    "optimize_snap_displacement_sequence.learning_rate": Site(
        "learning_rate", lambda v: _sequence(learning_rate=v), real=True),
    **{f"optimize_snap_displacement_sequence.{name}": _finite_row(
        name, lambda v, name=name: _sequence(**{name: v})) for name in ("tol", "leak_weight")},
    # qst
    "sech_pitch.kappa_hz": Site("kappa_hz", lambda v: qst.sech_pitch(v, np.linspace(-3, 3, 7)),
                                real=True),
    "sech_pitch.t_s": Site("t_s", lambda v: qst.sech_pitch(1.0, v), number=True, finite=True,
                           huge="is", array="real"),
    **{f"{rate.__name__}.kappa_hz": Site(
        "kappa_hz", lambda v, rate=rate: rate(v)(np.linspace(-3.0, 3.0, 7)), real=True)
       for rate in (qst.matched_emit_rate, qst.matched_catch_rate)},
    "raman_coupling.omega_drive_hz": Site(
        "omega_drive_hz", lambda v: qst.raman_coupling(v, 1.0, 1.0, 1.0), number=True,
        finite=True, huge="is", array="real"),
    "raman_coupling.g_hz": Site("g_hz", lambda v: qst.raman_coupling(0.5, v, 1.0, 1.0),
                                number=True),
    "raman_coupling.alpha_anharm_hz": Site(
        "alpha_anharm_hz", lambda v: qst.raman_coupling(0.5, 1.0, v, 1.0), number=True),
    "raman_coupling.delta_hz": Site("delta_hz", lambda v: qst.raman_coupling(0.5, 1.0, 1.0, v),
                                    number=True),
    "SampledWaveform.values": Site("values", lambda v: qst.SampledWaveform(v, 0.5).values,
                                   array="real", length=([1.0, 2.0], False)),
    "SampledWaveform.dt_s": Site(
        "dt_s", lambda v: qst.SampledWaveform([0.0, 1.0, 3.0], v).integral(), real=True),
    "SampledWaveform.t0_s": _finite_row("t0_s",
                                      lambda v: qst.SampledWaveform([0.0, 1.0], 0.5, v).times),
    "QstConfig.kappa_hz": Site("kappa_hz", lambda v: _qst_config(kappa_hz=v).kappa_hz, real=True),
    **dict.fromkeys(["QstConfig.emit_waveform", "QstConfig.catch_waveform"], Exempt(
        "any callable, read when simulate_transfer runs "
        "(LIBRARY_ERROR_CALLS \"simulate_transfer.emit_waveform\")")),
    "QstConfig.t_span_s": Site(
        "t_span_s", lambda v: _qst_config(t_span_s=v).t_span_s,
        entry=("t_span_s", lambda v: (v, 4.0)), number=True, sequence=_BULK),
    "QstConfig.dt_s": Site("dt_s", lambda v: _qst_config(dt_s=v).dt_s, real=True),
    "QstConfig.delta_omega_hz": Site(
        "delta_omega_hz", lambda v: _qst_config(delta_omega_hz=v).delta_omega_hz, number=True),
    "QstConfig.input_state": Site(
        "input_state", lambda v: _qst_config(input_state=v).input_state,
        entry=("input_state", lambda v: (0.0, v)), complex=True, sequence=_BULK),
    "QstConfig.channel_temperature": Exempt(
        "a reserved hook that must be 0, read by require_real "
        "(LIBRARY_ERROR_CALLS \"QstConfig.channel_temperature\")"),
    "simulate_transfer.config": Site("config", qst.simulate_transfer, instance=True),
    "detuning_sweep.config": Site("config", lambda v: qst.detuning_sweep(v, [0.0, 1.0]),
                                  instance=True),
    "detuning_sweep.delta_list": Site(
        "delta_list", lambda v: qst.detuning_sweep(_matched_config(), v).rows,
        entry=("delta_list", lambda v: [0.0, v]), number=True, length=([0.0, 0.1], False),
        sequence=_BULK),
    "on_off_ratio.waveform": Site("waveform", lambda v: qst.on_off_ratio(v, 0.5), array="real",
                                  length=([2.0], False)),
    "on_off_ratio.floor_hz": Site("floor_hz", lambda v: qst.on_off_ratio([1.0, 4.0], v),
                                  real=True),
    "on_off_ratio.t_span_s": _BULK,
    "on_off_ratio.samples": Site("samples", lambda v: qst.on_off_ratio(
        qst.matched_emit_rate(1.0), 0.5, (-3.0, 3.0), samples=v), count=1),
    "qst_config_from_json.text": _JSON,
    # trotter
    "QuditHamiltonian.diagonal": Site(
        "diagonal", lambda v: trotter.QuditHamiltonian(v, v).diagonal, array="real",
        length=([0.0, 0.5], False)),
    "QuditHamiltonian.kinetic_diagonal": Site(
        "kinetic_diagonal",
        lambda v: trotter.QuditHamiltonian([0.0, 0.5, 0.25], v).kinetic_diagonal, array="real",
        length=([0.1, 0.0, -0.3], True)),
    **{f"{function}.h": Site("h", call, instance=True) for function, call in [
        ("trotter_step", lambda v: trotter.trotter_step(v, 0.1)),
        ("evolve_trotter", lambda v: trotter.evolve_trotter(v, 1.0, 3)),
        ("trotter_convergence", lambda v: trotter.trotter_convergence(v, 1.0, [3])),
        ("otoc", lambda v: trotter.otoc(np.eye(3), np.eye(3), v, 0.0)),
        ("otoc_series", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), v, [0.0]))]},
    "trotter_step.dt_s": Site(
        "dt_s", lambda v: gates.circuit_unitary(trotter.trotter_step(HAMILTONIAN, v)).matrix,
        real=True, phase=("step phase 2*pi*max(|V|, |K|)*dt", lambda p: p / math.pi)),
    "trotter_step.n_levels": Site(
        "dimension", lambda v: trotter.trotter_step(HAMILTONIAN, 0.1, v).shape.dims,
        dimension=100),
    "evolve_trotter.t_total_s": Site(
        "t_total_s", lambda v: trotter.evolve_trotter(HAMILTONIAN, v, 3).state.amplitudes,
        number=True, finite=True, huge="is",
        sign=lambda name, v: errors.require_nonnegative(name, errors.require_finite(name, v))),
    "evolve_trotter.steps": Site(
        "steps", lambda v: trotter.evolve_trotter(HAMILTONIAN, 1.0, v).state.amplitudes,
        count=1),
    "evolve_trotter.psi0": Site(
        "psi0", lambda v: trotter.evolve_trotter(HAMILTONIAN, 1.0, 2, v).state.amplitudes,
        array="vector", shape=(ONE_BY_THREE, (3,))),
    "trotter_convergence.t_total_s": Site(
        "t_total_s", lambda v: trotter.trotter_convergence(HAMILTONIAN, v, [3, 5]),
        number=True, finite=True, huge="is",
        sign=lambda name, v: errors.require_nonnegative(name, errors.require_finite(name, v)),
        phase=("phase max|E|*t", lambda p: p / _e_max(HAMILTONIAN))),
    "trotter_convergence.steps_list": Site(
        "steps_list", lambda v: trotter.trotter_convergence(HAMILTONIAN, 1.0, v),
        sequence=([3, 5], (range(3, 6, 2), np.array([3, 5]))), nonempty=[3]),
    "trotter_convergence.psi0": Site(
        "psi0", lambda v: trotter.trotter_convergence(HAMILTONIAN, 1.0, [3], v),
        shape=(ONE_BY_THREE, (3,))),
    "otoc.t_s": Site("t_s", lambda v: trotter.otoc(np.eye(3), np.eye(3), HAMILTONIAN, v),
                     number=True),
    "otoc.psi0": Site("psi0", lambda v: trotter.otoc(np.eye(3), np.eye(3), HAMILTONIAN, 0.0, v),
                      shape=(ONE_BY_THREE, (3,))),
    "otoc.w": Site("W", lambda v: trotter.otoc(v, FOURIER3, HAMILTONIAN, 0.0),
                   instance=_DISPATCH, shape=(EMPTY2, (3,))),
    "otoc.v": Site("V", lambda v: trotter.otoc(FOURIER3, v, HAMILTONIAN, 0.0),
                   instance=_DISPATCH, shape=(EMPTY2, (3,))),
    "otoc_series.w": Site("W", lambda v: trotter.otoc_series(v, FOURIER3, HAMILTONIAN, [0.0, 0.5]),
                          array="matrix", instance=_DISPATCH, shape=(EMPTY2, (3,))),
    "otoc_series.v": Site("V", lambda v: trotter.otoc_series(FOURIER3, v, HAMILTONIAN, [0.0, 0.5]),
                          array="matrix", instance=_DISPATCH, shape=(EMPTY2, (3,))),
    "otoc_series.times_s": Site(
        "times_s", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, v),
        entry=("times_s", lambda v: [0.0, v]), number=True, huge="holds a number",
        phase=("phase max|E|*|t|", lambda p: [0.0, -p / _e_max(HAMILTONIAN)]), sequence=_BULK),
    "otoc_series.psi0": Site(
        "psi0", lambda v: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, [0.0, 0.5], v),
        array="vector", shape=(ONE_BY_THREE, (3,))),
}

# the fields of a gate in a Circuit, read by its kernel's rules
GATE_FIELDS = {
    "multisnap gate targets": Site(
        "multisnap gate field 'targets'",
        lambda v: _gate("multisnap", (3, 3), targets=v, theta=[0.0] * 9), distinct=[1, 0],
        nonempty=[1, 0]),
    "snap gate theta": Site("snap gate field 'theta'",
                            lambda v: _gate("snap", (3,), target=0, theta=v),
                            length=([0.1, 0.2, 0.3], True)),
    "cond_rotation gate qubit and mode": Site(
        "cond_rotation qubit and mode",
        lambda v: _gate("cond_rotation", (2, 2), qubit=v[0], mode=v[1], n=1, theta=0.3, phi=0.2),
        distinct=[1, 0]),
    "ecd gate qubit and mode": Site(
        "ecd qubit and mode", lambda v: _gate("ecd", (2, 2), qubit=v[0], mode=v[1], beta=0.3),
        distinct=[1, 0]),
    "controlled_increment gate control and target": Site(
        "controlled_increment control and target",
        lambda v: _gate("controlled_increment", (3, 3), control=v[0], target=v[1]),
        distinct=[1, 0]),
}

_SEGMENT_PHASE = "segment phase d*max|H|*dt_s"

# the phase checks of private builders, each called with its argument set to v
PRIVATE_SITES = {
    "_propagator.dt_s": Site(
        "dt_s", lambda v: pulse._propagator(OVERFLOW_MODEL, _qubit_schedule(1.0).streams, v),
        phase=(_SEGMENT_PHASE, lambda p: p / _OVERFLOW_RATE)),
    "_grape_pass.dt_s": Site(
        "dt_s", lambda v: pulse._grape_pass(OVERFLOW_MODEL, np.stack(_qubit_schedule(1.0).streams),
                                            v, identity(2), None, (), 1.0)[:2],
        phase=(_SEGMENT_PHASE, lambda p: p / _OVERFLOW_RATE)),
    "_displacement_factors.alpha": Site(
        "alpha", lambda v: gates._displacement_factors([0.3j, v], 4),
        phase=("displacement phase |amplitude|*max(Lambda)", lambda p: p / _lambda_max(4))),
    "_sequence_pass.theta": Site(
        "theta", lambda v: pulse._sequence_pass(np.array([0.3, 0.2j]), np.array([v]),
                                                *SEQUENCE_ARGS)[:2],
        phase=("SNAP phase max|theta|", lambda p: [0.5, -p, 0.0])),
}

# one entry or one form of a public parameter, or a rule called directly
SUBCASES = {
    "QstConfig.t_span_s end": Site("t_span_s", lambda v: _qst_config(t_span_s=(-4.0, v)).t_span_s,
                                   number=True),
    "multimode_drive_freq chi_k_hz": Site(
        "chi_k_hz", lambda v: device.multimode_drive_freq(PARAMS, [(1, 2e5), (1, v)]),
        number=True),
    "multimode_drive_freq occupation": Site(
        "occupation", lambda v: device.multimode_drive_freq(PARAMS, [(1, 2e5), (v, 1e5)]),
        count=0),
    "PulseSchedule.streams[0]": Site(
        "stream 0", lambda v: pulse.PulseSchedule(1e-9, (v,), (0.0,)).streams, array="vector",
        length=([0.5], False)),
    "PulseSchedule.streams[1]": Site(
        "stream 1", lambda v: pulse.PulseSchedule(1e-9, [[0.5, 0.5], v], [0.0, 0.0]),
        length=([0.5, 0.5], True)),
    "optimize_snap_displacement_sequence.target StateVector": Site(
        "target", lambda v: pulse.optimize_snap_displacement_sequence(
            fock.StateVector(len(v), v), blocks=1, iterations=0, guard_levels=0),
        length=([1.0, 0.0], False)),
    "givens levels": Site("givens levels", lambda v: gates.givens(*v, 0.3, 3), distinct=[1, 0]),
    "phase_swap levels": Site("phase_swap levels", lambda v: gates.phase_swap(*v, 3),
                              distinct=[1, 0]),
    "simulate_schedule dt_s": Site(
        "dt_s", lambda v: pulse.simulate_schedule(OVERFLOW_MODEL, _qubit_schedule(v),
                                                  return_propagator=True),
        phase=(_SEGMENT_PHASE, lambda p: p / _OVERFLOW_RATE)),
    "grape_gradient dt_s": Site(
        "dt_s", lambda v: pulse.grape_gradient(OVERFLOW_MODEL, _qubit_schedule(v), identity(2)),
        phase=(_SEGMENT_PHASE, lambda p: p / _OVERFLOW_RATE)),
    "synthesize_snap_pulse carrier plus chirp": Site(
        "chi_hz 1000000.0, duration_s", lambda v: pulse.synthesize_snap_pulse(
            SNAP_MODEL, [0.0] * 3, v, dt_s=v / 2, enforce_bound=False, precompensate=False),
        phase=("carrier plus AC-Stark chirp phase", _snap_duration)),
    "require_real": Site("x", lambda v: errors.require_real("x", v), huge="is"),
    "require_complex": Site("x", lambda v: errors.require_complex("x", v), huge="is"),
    "require_array": Site("x", lambda v: errors.require_array("x", [0.5, v], (None,), float),
                          huge="holds a number"),
}

ROWS = {**SITES, **GATE_FIELDS, **PRIVATE_SITES, **SUBCASES}
_SELECTED = set()  # the rule tags the rule tests select by


def _rows(rule) -> list:
    """The keys of ROWS whose row a rule reads: a Site whose tag for the
    rule holds data, not an Exempt reason."""
    _SELECTED.add(rule)
    return [key for key, row in ROWS.items() if isinstance(row, Site)
            and rule in row.rules and not isinstance(row.rules[rule], Exempt)]


def _use(key, rule):
    """(the name its messages use, the call with v, the rule's data) of
    key's row for rule: v is the parameter, or the entry that the row's
    `entry` sets for a rule of ENTRY_RULES."""
    row = ROWS[key]
    if rule in ENTRY_RULES and row.entry:
        name, put = row.entry
        return name, lambda v: row.call(put(v)), row.rules[rule]
    return row.name, row.call, row.rules[rule]


MODULES = (cli, codes, device, errors, fock, gates, noise, pulse, qst, trotter)
# a HilbertShape argument is read by fock.shape_of, the dimension rule, which
# also takes a dimension or a list of them
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
_RULES_OWN = {name for name, obj in vars(errors).items()
              if inspect.isfunction(obj) and obj.__module__ == errors.__name__}


def _exempt_by_class(site: str):
    """Why no row files a public parameter, or None if one must: `self`
    and `cls`; a dunder method's, generated or written; a result class's
    fields, built by the package; and the errors module's own functions,
    the rules themselves."""
    *owner, param = site.split(".")
    if param in ("self", "cls") or any(p.startswith("__") for p in owner):
        return "self, cls or a dunder method"
    if owner[0].endswith("Result"):
        return "a result field, built by the package"
    if owner[0] in _RULES_OWN:
        return "a parameter of an errors rule"
    return None


def test_every_public_parameter_is_filed():
    # a new public parameter fails here until SITES files it
    assert sorted(site for site in ANNOTATIONS
                  if site not in SITES and _exempt_by_class(site) is None) == []
    assert sorted(set(SITES) - set(ANNOTATIONS)) == []


def test_every_rule_tag_is_selected_by_a_rule_test():
    # a misspelt tag would drop its site from every test without a failure
    tags = {rule for row in ROWS.values() if isinstance(row, Site) for rule in row.rules}
    assert sorted(tags - _SELECTED) == []
    assert sorted(rule for rule in _SELECTED if not _rows(rule)) == []


def _union_args(annotation) -> tuple:
    """The members of a union annotation, or () for any other."""
    if isinstance(annotation, types.UnionType) or typing.get_origin(annotation) is typing.Union:
        return typing.get_args(annotation)
    return ()


def _optional(key, rule=None) -> bool:
    """Whether the value rule sets at key's row may be None: the parameter
    is annotated as taking None and rule does not set one entry of it."""
    return (type(None) in _union_args(ANNOTATIONS.get(key))
            and not (rule in ENTRY_RULES and ROWS[key].entry))


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


def _holds_sequence(annotation) -> bool:
    """Whether annotation is Sequence[...], Iterable[...] or a tuple, or a
    union holding one."""
    return (annotation is tuple
            or typing.get_origin(annotation) in (tuple, collections.abc.Sequence,
                                                collections.abc.Iterable)
            or any(map(_holds_sequence, _union_args(annotation))))


def _choices(annotation):
    """The choices of a Literal annotation, else None."""
    return typing.get_args(annotation) if typing.get_origin(annotation) is typing.Literal else None


def _walk(read) -> dict:
    """site -> read(annotation) for every parameter SITES files whose
    annotation read accepts (returns a value other than None or False): one
    signature walk; test_every_public_parameter_is_filed holds SITES to
    every public parameter that is not exempt by class."""
    return {site: found for site in SITES
            if (found := read(ANNOTATIONS[site])) not in (None, False)}


def _carries_register(cls) -> bool:
    """Whether cls, or a class of the tuple cls, has a `shape` field."""
    return any(dataclasses.is_dataclass(c) and "shape" in {f.name for f in dataclasses.fields(c)}
               for c in (cls if isinstance(cls, tuple) else (cls,)))


ANNOTATED_SITES = _walk(_package_class)
ANNOTATED_CHOICES = _walk(_choices)
# rule -> the parameters its signature walk finds: every parameter annotated
# with a cavityq class, those of them whose class has a register, every
# Sequence, Iterable or tuple, every bool and every Literal
WALKS = {
    "instance": set(ANNOTATED_SITES),
    "shape": {site for site, (cls, _) in ANNOTATED_SITES.items() if _carries_register(cls)},
    "sequence": set(_walk(_holds_sequence)),
    "flag": set(_walk(lambda annotation: annotation is bool)),
    "choice": set(ANNOTATED_CHOICES),
}


@pytest.mark.parametrize("rule", WALKS)
def test_every_walked_parameter_is_filed_under_its_rule(rule):
    # a new parameter that a walk finds fails here until its row names the
    # rule, with data or an Exempt reason, or the whole row is Exempt
    unfiled = [site for site in WALKS[rule]
               if not isinstance(SITES[site], Exempt) and rule not in SITES[site].rules]
    assert sorted(unfiled) == []
    # an exempt tag the walk no longer finds is stale
    stale = [key for key, row in SITES.items() if isinstance(row, Site)
             and isinstance(row.rules.get(rule), Exempt) and key not in WALKS[rule]]
    assert sorted(stale) == []


# --- the number rules -------------------------------------------------------

NOT_POSITIVE_REALS = [True, False, "2", None, 2j, math.nan, math.inf, -math.inf,
                      0, 0.0, -1, -2.5]
NOT_REALS = [True, False, "2", None, 2j]
NOT_COUNTS = [2.5, True, -1, "2", None, 2.0, np.float64(2.0)]
NOT_INDICES = [True, False, 1.5, 2.5, 2.0, np.float64(2.0), "1", "2", None, -1]
NOT_COMPLEX = [True, False, np.bool_(True), "1", "1j", None, [1.0, 0.0]]


def _params(rule, values):
    """pytest params (key, value) for every row of rule and each of
    values(data), the rule's data at the row."""
    return [pytest.param(key, value, id=f"{key}-{value!r}")
            for key in _rows(rule) for value in values(_use(key, rule)[2])]


def _refusal(read, *args):
    """The error the rule read raises on args, or None if it accepts them."""
    try:
        read(*args)
    except errors.CavityQError as exc:
        return exc
    return None


def _assert_refused_as(call, value, expected) -> None:
    """call(value) raises expected's class with its message, alone or after
    a "gates[0]: " prefix."""
    with pytest.raises(type(expected)) as err:
        call(value)
    assert type(err.value) is type(expected)
    assert re.search(f"(^|: ){re.escape(str(expected))}$", str(err.value)), str(err.value)


def _assert_refused(key, rule, value, expected=UsageError, match=None) -> None:
    """rule's call at key's row on value raises expected: an error, with its
    class and whole message, or an error class, with a message that matches
    match or else the name the messages use. None where the parameter takes
    None asks for its default instead."""
    name, call, _ = _use(key, rule)
    if value is None and _optional(key, rule):
        call(None)
    elif isinstance(expected, Exception):
        _assert_refused_as(call, value, expected)
    else:
        with pytest.raises(expected, match=match or name):
            call(value)


@pytest.mark.parametrize("key, value", _params("real", lambda _: NOT_POSITIVE_REALS))
def test_real_site_refuses(key, value):
    _assert_refused(key, "real", value)


@pytest.mark.parametrize("key, value", _params("number", lambda _: NOT_REALS))
def test_number_site_refuses(key, value):
    _assert_refused(key, "number", value)


@pytest.mark.parametrize("key, value", _params("complex", lambda _: NOT_COMPLEX))
def test_complex_site_refuses(key, value):
    # "1", True and 1.0 all built the α = 1 object; a list raised a raw TypeError
    name, call, _ = _use(key, "complex")
    message = f"{name} must be a complex number"
    if key == "QstConfig.input_state":  # the pair is read by the array rule
        message = ("input_state must be 1-D of length 2, got ragged rows"
                   if isinstance(value, list)
                   else f"input_state entries must be numbers, got {re.escape(repr(value))}")
    with pytest.raises(UsageError, match=message):
        call(value)


@pytest.mark.parametrize("key, value", _params("count", lambda _: NOT_COUNTS))
def test_count_site_refuses(key, value):
    # the data is the least count the site takes
    name, _, least = _use(key, "count")
    _assert_refused(key, "count", value, _refusal(errors.require_count, name, value, least))


@pytest.mark.parametrize("key, value", _params("index", lambda size: [*NOT_INDICES, size]))
def test_index_site_refuses(key, value):
    name, _, size = _use(key, "index")
    _assert_refused(key, "index", value, _refusal(errors.require_index, name, value, size))


@pytest.mark.parametrize("key, value", _params("dimension", lambda _: [*NOT_COUNTS, 0]))
def test_dimension_site_refuses(key, value):
    _assert_refused(key, "dimension", value, InvalidDimensionError, "dimension")


# rule -> (a valid value at every row, the numpy and Python forms of it that
# give the same result)
ACCEPTED_FORMS = {
    "real": (2.0, [np.float64(2.0), np.float32(2.0), np.int64(2), 2]),
    "number": (2.0, [np.float64(2.0), np.float32(2.0), np.int64(2), 2]),
    "complex": (1.0, [np.complex128(1.0), np.float64(1.0), np.float32(1.0), np.int64(1), 1,
                      1 + 0j]),
    "count": (2, [np.int64(2), np.int32(2)]),
    "index": (2, [np.int64(2), np.int32(2)]),
    "dimension": (3, [np.int64(3), np.int32(3)]),
}


@pytest.mark.parametrize("rule, key, value", [
    pytest.param(rule, key, value, id=f"{rule}-{key}-{value!r}")
    for rule, (_, forms) in ACCEPTED_FORMS.items() for key in _rows(rule) for value in forms])
def test_site_accepts_numpy_scalars(rule, key, value):
    _, call, _ = _use(key, rule)
    np.testing.assert_equal(call(value), call(ACCEPTED_FORMS[rule][0]))


@pytest.mark.parametrize("key", _rows("finite"))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_finite_site_refuses(key, value):
    # the gate sites raised ValueError "math domain error", or NumericError
    # "non-finite entries in matrix" after RuntimeWarnings
    name, call, _ = _use(key, "finite")
    got = complex(value) if "complex" in ROWS[key].rules else value  # the value as passed
    with pytest.raises(UsageError, match=f"^{name} must be finite, got {re.escape(repr(got))}$"):
        call(value)


@pytest.mark.parametrize("key", _rows("dimension"))
def test_dimension_cap_checked_before_allocation(key, monkeypatch):
    # the dimension each site is given under a cap of 64 is one above the
    # cap, or for a two-subsystem shape, one under the cap whose total is above it
    _, call, dimension = _use(key, "dimension")
    monkeypatch.setenv(fock.DIM_CAP_ENV_VAR, "64")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds cap 64"):
            call(dimension)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each dense matrix of these sizes is 100 kB or more; the check is 2 kB
    assert peak < 64 << 10


@pytest.mark.parametrize("key", _rows("huge"))
@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024 - 2**970, Fraction(10**400, 3)],
                         ids=repr)
def test_number_too_large_for_a_float_is_a_numeric_error(key, value):
    # float() raised a raw OverflowError; complex() at a complex site
    name, call, subject = _use(key, "huge")
    with pytest.raises(NumericError, match=f"^{name} {subject} too large for a float$"):
        call(value)


# --- the array rule ---------------------------------------------------------

def _with_entry(key, v):
    """[0, v, 0] as the array argument of key's row, or at a matrix row as
    the first row of [[0, v, 0], [1, 0, 0], [0, 0, 1]]."""
    row = [0.0, v, 0.0]
    return [row, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]] if ROWS[key].rules["array"] == "matrix" else row


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None], ids=repr)
@pytest.mark.parametrize("key", _rows("array"))
def test_entry_site_refuses(key, value):
    # a bool among floats was read as 1.0 or 0.0
    name, call, _ = _use(key, "array")
    with pytest.raises(UsageError, match=f"^{name} entries must be (real )?numbers, got "):
        call(_with_entry(key, value))


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{value!r}")
    for key in _rows("array")
    for value in [np.complex128(1.0), np.float64(1.0), np.int64(1), 1, 1 + 0j]
    # a real array refuses a complex entry (test_real_entry_site_refuses_complex)
    if not (ROWS[key].rules["array"] == "real" and isinstance(value, complex))])
def test_entry_site_accepts_numpy_scalars(key, value):
    _, call, _ = _use(key, "array")
    np.testing.assert_equal(call(_with_entry(key, value)), call(_with_entry(key, 1.0)))


@pytest.mark.parametrize("value", [1j, np.complex128(1.0), 1 + 0j], ids=repr)
@pytest.mark.parametrize("key", [k for k in _rows("array") if ROWS[k].rules["array"] == "real"])
def test_real_entry_site_refuses_complex(key, value):
    # SampledWaveform and on_off_ratio raised a raw TypeError from float()
    name, call, _ = _use(key, "array")
    with pytest.raises(UsageError, match=f"^{name} entries must be real numbers, got "):
        call(_with_entry(key, value))


@pytest.mark.parametrize("key", _rows("array"))
def test_array_site_refuses_ragged_rows_and_dicts(key):
    # each escaped as a raw ValueError or TypeError from numpy
    name, call, _ = _use(key, "array")
    ragged = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    for bad in (ragged, _with_entry(key, [1.0, 0.0]), {0: 1.0}, _with_entry(key, {0: 1.0})):
        with pytest.raises(UsageError, match=f"^{name} "):
            call(bad)


# --- the type and register rules --------------------------------------------

@pytest.mark.parametrize("key", _rows("instance"))
def test_instance_site_refuses_every_bad_value(key):
    name, call, _ = _use(key, "instance")
    cls, optional = ANNOTATED_SITES[key]
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    for value in BAD_VALUES:
        if value is None and optional:
            call(None)
            continue
        message = f"{name} must be a cavityq {names}, got {value!r}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("key", _rows("shape"))
def test_shape_site_refuses_another_register(key):
    name, call, (other, dims) = _use(key, "shape")
    message = f"{name} must be on dims {dims}, got {other.shape.dims}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(other)


# --- the sequence and flag rules --------------------------------------------

def _same(a, b) -> bool:
    """a == b: arrays bitwise with their dtype and shape, lists and tuples
    entry by entry."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("key", _rows("sequence"))
def test_iterable_arguments_take_any_iterable(key):
    # the other forms of the entries that fit: a range or an ndarray
    _, call, (entries, forms) = _use(key, "sequence")
    want = call(entries)
    for values in (tuple(entries), (e for e in entries), *forms):
        assert _same(call(values), want), values


@pytest.mark.parametrize("key", _rows("sequence"))
def test_sequence_site_refuses_every_bad_value(key):
    name, call, _ = _use(key, "sequence")
    for value in BAD_VALUES:
        if value is None and _optional(key):
            call(None)
        elif not isinstance(value, list):
            with pytest.raises(UsageError, match=f"^{re.escape(name)} must be a sequence, got "):
                call(value)


@pytest.mark.parametrize("key", _rows("flag"))
def test_flag_site_refuses_every_bad_value(key):
    # each once acted on the value's truth: enforce_bound=None built a pulse
    # below the selective-drive bound, precompensate="no" precompensated
    name, call, _ = _use(key, "flag")
    for value in BAD_VALUES:
        if not isinstance(value, (bool, np.bool_)):
            with pytest.raises(UsageError, match=f"^{re.escape(name)} must be a boolean, got "):
                call(value)


# --- the distinct, emptiness, length, choice and sign rules -----------------

@pytest.mark.parametrize("key", _rows("distinct"))
def test_distinct_site_refuses_a_repeated_entry(key):
    # a repeated entry is refused as "<name> must be distinct, got (1, 1)"
    name, call, distinct = _use(key, "distinct")
    call(distinct)
    repeated = [distinct[0]] * len(distinct)
    _assert_refused_as(call, repeated, UsageError(f"{name} must be distinct, got (1, 1)"))
    # a bad entry is refused by its own rule, before the entries are compared
    for value in BAD_VALUES:
        with pytest.raises(UsageError) as err:
            call([value, *distinct[1:]])
        assert "must be distinct" not in str(err.value)


@pytest.mark.parametrize("key", _rows("nonempty"))
def test_nonempty_site_refuses_no_entries(key):
    # an empty value is refused as "<name> must be a non-empty sequence, got []"
    name, call, entries = _use(key, "nonempty")
    call(entries)
    for empty in ([], (), range(0), np.array([], dtype=int)):
        _assert_refused_as(call, empty,
                           UsageError(f"{name} must be a non-empty sequence, got {empty!r}"))
    for value in BAD_VALUES:
        if value is None and _optional(key):
            call(None)
        elif not isinstance(value, list):  # a list's entries are read by their own rule
            _assert_refused_as(call, value, _refusal(errors.require_sequence, name, value, 1))


def _length_refusal(name: str, boundary: list, fixed: bool, got: int) -> ShapeError:
    k = len(boundary)
    want = f"of length {k}" if fixed else f"with at least {k} entr{'ies' if k > 1 else 'y'}"
    return ShapeError(f"{name} must be 1-D {want}, got length {got}")


@pytest.mark.parametrize("key", _rows("length"))
def test_length_site_refuses_a_wrong_entry_count(key):
    # the data is a value of the boundary length and whether another argument
    # fixes that length; a one-level StateVector target ran, to fidelity
    # 1.0000000000000004, where the same amplitudes as a list were refused
    name, call, (boundary, fixed) = _use(key, "length")
    call(boundary)
    call(np.array(boundary))
    wrong = [boundary[:-1], *([boundary + boundary[-1:]] if fixed else [])]
    for entries in wrong:
        for form in (entries, np.array(entries)):  # worded the same for a list and an array
            _assert_refused_as(call, form, _length_refusal(name, boundary, fixed, len(entries)))


@pytest.mark.parametrize("key", _rows("choice"))
def test_choice_site_refuses_every_bad_value(key):
    # the data is a valid choice and the near misses it refuses besides
    # tests/bad_values.py; order=True gave the first-order frequency and
    # order=2.0 the second, and GateSpec.build took any convention for a gate
    # without a displacement
    name, call, (_, near_misses) = _use(key, "choice")
    choices = ANNOTATED_CHOICES[key]
    for value in [*BAD_VALUES, *near_misses]:
        _assert_refused_as(call, value, UsageError(
            f"{name} must be one of {choices!r}, got {value!r}"))


@pytest.mark.parametrize("key", _rows("choice"))
def test_choice_site_takes_numpy_forms(key):
    _, call, (valid, _) = _use(key, "choice")
    numpy_form = np.str_(valid) if isinstance(valid, str) else np.int64(valid)
    np.testing.assert_array_equal(call(numpy_form), call(valid))


@pytest.mark.parametrize("key", _rows("sign"))
def test_sign_site_refuses_what_the_rule_refuses(key):
    # the data is the rule chain the site reads the value by
    name, call, read = _use(key, "sign")
    for value in [*BAD_VALUES, -1.0, -1e-300, np.float64(-2.0), -math.inf, math.nan]:
        expected = _refusal(read, name, value)
        if expected is not None:  # the values the rule accepts go on to the site's own checks
            _assert_refused_as(call, value, expected)
    _assert_refused_as(call, -1.0, UsageError(f"{name} must be nonnegative, got -1.0"))
    call(0.0)


# --- the phase rule ---------------------------------------------------------

def _all_finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_all_finite, value))
    if isinstance(value, pulse.PulseSchedule):
        value = value.streams
    return bool(np.isfinite(getattr(value, "matrix", value)).all())


@pytest.mark.parametrize("key", _rows("phase"))
def test_phase_site_runs_up_to_max_phase_and_refuses_above(key):
    # the data names the quantity and maps a phase bound to the argument;
    # each site ran a finite phase of 1e300 rad, whose ulp is 1e284 rad
    name, call, (quantity, value) = _use(key, "phase")
    assert _all_finite(call(value(errors.MAX_PHASE_RAD * (1 - 1e-9))))
    refused = mock.Mock(side_effect=AssertionError("computed"))
    with mock.patch.object(pulse, "_snap_drive_samples", refused), \
            mock.patch.object(pulse, "expm_hermitian", refused), \
            mock.patch.object(pulse, "hermitian_eigensystem", refused), \
            mock.patch.object(pulse, "eig_exponential", refused), \
            mock.patch.object(pulse, "su2_factors", refused), \
            mock.patch.object(fock, "expm_hermitian", refused), \
            mock.patch.object(fock, "su2_factors", refused):
        with pytest.raises(NumericError, match=(
                f"^{re.escape(name)}[^:]*: the {re.escape(quantity)} is 1.05e\\+06 rad, "
                "above MAX_PHASE_RAD = 2\\*\\*20 rad$")):
            call(value(errors.MAX_PHASE_RAD * (1 + 1e-9)))


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




# regressions: each input below gave a wrong result or a raw numpy error


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
        lambda entries=entries: device.multimode_drive_freq(PARAMS, entries))
       for entries in ([1], [(1, 2e5, 3)])},
    "multimode_drive_freq None": (
        UsageError, "occupations_and_shifts must be a sequence, got None",
        lambda: device.multimode_drive_freq(PARAMS, None)),
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
        UsageError, "gates[0] must be a cavityq GateSpec, got {'kind': 'fourier', 'target': 0}",
        lambda: gates.Circuit((3,), [{"kind": "fourier", "target": 0}])),
    "GateSpec.kind list": (
        UsageError, "gates[0]: unknown gate kind ['snap']",
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
    # each raised a raw AttributeError or TypeError
    "simulate_schedule.psi0": (
        UsageError, "psi0 must be a cavityq StateVector, got [1, 0]",
        lambda: pulse.simulate_schedule(pulse.qubit_model(), _schedule(), psi0=[1, 0])),
    "grape_optimize.psi0": (
        UsageError, "psi0 must be a cavityq StateVector, got [1, 0]",
        lambda: pulse.grape_optimize(pulse.qubit_model(), basis_state(2, 1), _schedule(),
                                     psi0=[1, 0])),
    "gate_fidelity.u": (
        UsageError, "u must be a cavityq Operator, got [[1]]",
        lambda: pulse.gate_fidelity([[1]], identity(1))),
    "snap_average_fidelity.u": (
        UsageError, "u must be a cavityq Operator, got array(",
        lambda: pulse.snap_average_fidelity(np.eye(4), [0.1, 0.2])),
    "ControlModel.controls None": (
        UsageError, "controls must be a sequence, got None",
        lambda: pulse.ControlModel(2, identity(2), None)),
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


def test_gate_spec_build_reads_its_shape_with_shape_of():
    spec = gates.GateSpec("fourier", {"target": 0})
    np.testing.assert_array_equal(spec.build(3)[0].matrix,
                                  spec.build(HilbertShape((3,)))[0].matrix)


@pytest.mark.parametrize("site", LIBRARY_ERROR_CALLS)
def test_call_raises_a_library_error(site):
    error, message, call = LIBRARY_ERROR_CALLS[site]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


def test_circuit_document_convention_is_the_choice_rule():
    doc = json.dumps({"shape": [3], "displacement_convention": "left", "gates": []})
    message = "displacement_convention must be one of ('standard', 'paper'), got 'left'"
    with pytest.raises(errors.ParseError, match=f"^{re.escape(message)}$"):
        gates.circuit_from_json(doc)


_SCHEDULE = {"dt_s": 1e-9, "controls": [{"carrier_hz": 0.0, "amps": [[0.0, 0.0]]}]}
_TRANSFER = {"kappa_hz": 1e6, "t_span_s": [-2e-5, 2e-5], "dt_s": 4e-8,
             "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}


@pytest.mark.parametrize("read, doc, message", [
    (device.DeviceParams.from_json, {"g_hz": 1.0}, "missing fields 'omega_q_hz', 'omega_c_hz', "
     "'chi_prime_hz', 'alpha_hz', 't1_fock0_s', 't1_min_s'"),
    (gates.circuit_from_json, {"shape": [3], "gate": []}, "unknown field 'gate'"),
    (gates.circuit_from_json, {"shape": [3], "gates": [5, {"kind": "fourier", "target": 0}]},
     "gates[0]: must be a JSON object"),
    (gates.circuit_from_json, {"shape": [3], "gates": ['{"kind": "fourier", "target": 0}']},
     "gates[0]: must be a JSON object"),  # JSON text nested in a document is not decoded
    (gates.circuit_from_json, {"shape": [3], "gates": [{"target": 0}, {"kind": "fourier"}]},
     "gates[0]: missing field 'kind'"),
    (gates.circuit_from_json, {"shape": [3], "gates": [{"kind": "fourier", "target": 0},
                                                       {"kind": 3}]},
     "gates[1]: field 'kind' has the wrong type"),
    (gates.circuit_from_json, {"shape": [3], "gates": [{"kind": "fourier", "target": 0},
                                                       {"kind": "fourier", "target": 2}]},
     "gates[1]: fourier gate field 'target' 2 outside [0, 1)"),
    (pulse.PulseSchedule.from_json, dict(_SCHEDULE, dt_s=-1.0),
     "dt_s must be positive and finite, got -1.0"),
    (pulse.PulseSchedule.from_json, dict(_SCHEDULE, controls=_SCHEDULE["controls"] * 2 + [
        {"carrier_hz": 0.0, "amps": [[0.0]]}]),
     "controls[2]: field 'amps' must be 1x2, got (1, 1)"),
    (qst.qst_config_from_json, dict(_TRANSFER, kappa_hz=-1.0),
     "kappa_hz must be positive and finite, got -1.0"),
    (qst.qst_config_from_json, dict(_TRANSFER, catch_waveform={"kind": "sech", "kappa_hz": 0}),
     "catch_waveform: kappa_hz must be positive and finite, got 0.0"),
], ids=["device", "circuit", "circuit gates[0] number", "circuit gates[0] text",
        "circuit gates[0] kind", "circuit gates[1] kind", "circuit gates[1] target", "schedule",
        "schedule controls[2]", "transfer", "transfer catch_waveform"])
def test_document_reader_names_the_path_of_a_nested_fault(read, doc, message):
    # the path within the reader's own document; a fault of its root is bare
    with pytest.raises(errors.ParseError) as err:
        read(json.dumps(doc))
    assert str(err.value) == message


def _is_parse_error(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "ParseError"


def test_parse_errors_are_made_in_errors_only():
    # a ParseError made elsewhere names its fault in a form of its own;
    # errors.py makes each at the field path of its object
    breaches = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                if path.name != "errors.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and _is_parse_error(node.func)
                or isinstance(node, ast.Raise) and _is_parse_error(node.exc)]
    assert breaches == []


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
        UsageError,
        "gates[0]: cond_rotation gate field 'qubit' must name a qubit (dim 2), got dim 3",
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
    # the array call is only a probe: a scalar it returns is not broadcast,
    # which here would give sum(t) = 2.5 at every sample
    assert qst.on_off_ratio(lambda t: np.sum(t), 1.0, (0.0, 1.0), 5) == 1.0


@pytest.mark.parametrize("call", [
    lambda: trotter.otoc_series(np.eye(3), np.eye(3), HAMILTONIAN, (t for t in [0.0, 0.5])),
    lambda: qst.detuning_sweep(_matched_config(), (d for d in [0.0, 0.1])),
], ids=["otoc_series.times_s", "detuning_sweep.delta_list"])
def test_generator_where_a_list_is_read_is_a_shape_error(call):
    # list() once read a generator; the array rule reads sequences and arrays
    with pytest.raises(ShapeError, match=r"must be 1-D, got \(\)$"):
        call()


def test_sech_pitch_far_tail_is_zero_without_a_warning():
    # the product kappa*t overflowed with a RuntimeWarning
    assert qst.sech_pitch(1e300, 1e10) == 0.0
    np.testing.assert_array_equal(qst.sech_pitch(1e300, np.array([1e10, -1e10])), [0.0, 0.0])


def test_results_are_python_numbers_whatever_numpy_scalar_went_in():
    channel = noise.photon_loss_channel(1.0, 1e-4, 3)
    assert type(qst.on_off_ratio([1.0, 3.0], np.float32(3))) is float
    assert type(noise.NoiseChannel(channel.shape, channel.kraus, np.float32(1e-4)).dt_s) is float
    assert type(noise.dephasing_channel(np.float32(2), np.float32(1e-4), 3).dt_s) is float
    trajectory = noise.apply_channel_trajectory(channel, basis_state(3, 2), 2, np.int64(5))
    assert type(trajectory.seed) is int
    assert type(device.fock_t1(PARAMS, np.int64(2))) is float
    assert type(device.stark_shifted_freq(PARAMS, np.int64(2))) is float
    assert type(device.multimode_drive_freq(PARAMS, [(1, np.float32(2e5))])) is float


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
