"""The capacity rule (`errors.require_capacity`) at every site that uses it.

Each count a request sets is capped before the work or the arrays it sets
are allocated: steps × trajectories of a trajectory unraveling,
max(steps_list) × N of a Trotter sweep, segments × streams of a GRAPE
schedule and of a synthesized SNAP pulse, the levels of a displaced mode and
the RK4 steps of a transfer.
A violation raises `CapacityError` (exit 4 on the command line); every cap
is inclusive.
"""

import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cavityq import errors, fock, gates, noise, pulse, trotter
from cavityq.errors import CapacityError
from golden import run_cli

LOSS = noise.photon_loss_channel(1.0, 1e-4, 4)
PSI = fock.basis_state(4, 2)
HAMILTONIAN = trotter.QuditHamiltonian([0.0, 0.5, 0.25], [0.1, 0.0, -0.3])  # N = 3
QUBIT = pulse.qubit_model()
TWO_STREAMS = pulse.dispersive_model(1e6, 2, cavity_drive=True)
SNAP_MODEL = pulse.dispersive_model(1e6, 3)


def _snap(model, n_segments):
    # 8 µs, above the selective-drive bound 2π/χ = 6.3 µs
    return pulse.synthesize_snap_pulse(model, [0.0] * model.shape.dims[1], 8e-6,
                                       dt_s=8e-6 / n_segments, precompensate=False)


def test_rule_is_inclusive_and_names_the_count():
    errors.require_capacity("x", 10, 10, "steps")
    with pytest.raises(CapacityError, match=r"^x is 11 steps, above the cap of 10$"):
        errors.require_capacity("x", 11, 10, "steps")


@pytest.mark.parametrize("count, shown", [
    (10**15 - 1, "999999999999999"), (10**15, "1e+15"), (1000.5, "1000.5"),
    (2.5e307, "2.5e+307"), (10**400, "over 1e+308")], ids=repr)
def test_rule_shows_the_count(count, shown):
    with pytest.raises(CapacityError, match=f"^x is {re.escape(shown)} steps, "):
        errors.require_capacity("x", count, 10, "steps")


def _schedule(n_streams, n_segments):
    return pulse.PulseSchedule(1e-8, np.zeros((n_streams, n_segments), dtype=complex),
                               (0.0,) * n_streams)


def _grape(model, n_segments):
    target = fock.identity(model.shape)
    return pulse.grape_optimize(model, target, _schedule(model.n_streams, n_segments),
                                iterations=1, seed=1)


def _gradient(model, n_segments):
    return pulse.grape_gradient(model, _schedule(model.n_streams, n_segments),
                                fock.identity(model.shape))


# site: (module, cap constant, patched cap, the call at the cap, one past it)
CAPPED_SITES = {
    "run_trajectories steps": (
        noise, "MAX_TRAJECTORY_STEPS", 12,
        lambda: noise.run_trajectories(LOSS, PSI, 4, 3, base_seed=1),
        lambda: noise.run_trajectories(LOSS, PSI, 13, 1, base_seed=1)),
    "run_trajectories trajectories": (
        noise, "MAX_TRAJECTORY_STEPS", 12,
        lambda: noise.run_trajectories(LOSS, PSI, 1, 12, base_seed=1),
        lambda: noise.run_trajectories(LOSS, PSI, 2, 7, base_seed=1)),
    "apply_channel_trajectory": (
        noise, "MAX_TRAJECTORY_STEPS", 12,
        lambda: noise.apply_channel_trajectory(LOSS, PSI, 12, 1),
        lambda: noise.apply_channel_trajectory(LOSS, PSI, 13, 1)),
    "trotter_convergence": (
        trotter, "MAX_LEVEL_STEPS", 30,
        lambda: trotter.trotter_convergence(HAMILTONIAN, 1.0, [2, 10]),
        lambda: trotter.trotter_convergence(HAMILTONIAN, 1.0, [11, 2])),
    "evolve_trotter": (
        trotter, "MAX_LEVEL_STEPS", 30,
        lambda: trotter.evolve_trotter(HAMILTONIAN, 1.0, 10),
        lambda: trotter.evolve_trotter(HAMILTONIAN, 1.0, 11)),
    "grape_optimize": (
        pulse, "MAX_GRAPE_SEGMENTS", 6, lambda: _grape(QUBIT, 6), lambda: _grape(QUBIT, 7)),
    "grape_optimize two streams": (
        pulse, "MAX_GRAPE_SEGMENTS", 6,
        lambda: _grape(TWO_STREAMS, 3), lambda: _grape(TWO_STREAMS, 4)),
    "grape_gradient": (
        pulse, "MAX_GRAPE_SEGMENTS", 6,
        lambda: _gradient(TWO_STREAMS, 3), lambda: _gradient(TWO_STREAMS, 4)),
    "synthesize_snap_pulse": (
        pulse, "MAX_SNAP_SEGMENTS", 1600,
        lambda: _snap(SNAP_MODEL, 1600), lambda: _snap(SNAP_MODEL, 1601)),
    "synthesize_snap_pulse two streams": (
        pulse, "MAX_SNAP_SEGMENTS", 1600,
        lambda: _snap(TWO_STREAMS, 800), lambda: _snap(TWO_STREAMS, 801)),
    "displacement": (
        gates, "MAX_DISPLACEMENT_LEVELS", 37,
        lambda: gates.displacement(0.3, 37), lambda: gates.displacement(0.3, 38)),
    "ecd": (
        gates, "MAX_DISPLACEMENT_LEVELS", 37,
        lambda: gates.ecd(0.3, 37), lambda: gates.ecd(0.3, 38)),
    "displacement gate": (
        gates, "MAX_DISPLACEMENT_LEVELS", 37,
        lambda: gates.circuit_from_json(
            '{"shape": [2, 37], "gates": [{"kind": "displacement", "target": 1, "alpha": 0.3}]}'),
        lambda: gates.circuit_from_json(
            '{"shape": [2, 38], "gates": [{"kind": "displacement", "target": 1, "alpha": 0.3}]}')),
}


@pytest.mark.parametrize("site", CAPPED_SITES)
def test_cap_is_inclusive(site, monkeypatch):
    module, constant, cap, at_cap, past_cap = CAPPED_SITES[site]
    monkeypatch.setattr(module, constant, cap)
    gates._quadrature_eigensystem.cache_clear()  # a cached size skips the check
    at_cap()
    with pytest.raises(CapacityError, match=f"above the cap of {cap}$"):
        past_cap()


# calls far over the real caps, which must fail before allocating
OVER_CAP_CALLS = {
    "run_trajectories steps": lambda: noise.run_trajectories(LOSS, PSI, 10**13, 1, 1),
    "run_trajectories trajectories": lambda: noise.run_trajectories(LOSS, PSI, 1, 10**13, 1),
    # a numpy count must not wrap around in the product
    "run_trajectories numpy count": lambda: noise.run_trajectories(
        LOSS, PSI, 10**13, np.int64(10**6), 1),
    "apply_channel_trajectory": lambda: noise.apply_channel_trajectory(LOSS, PSI, 10**13, 1),
    "trotter_convergence": lambda: trotter.trotter_convergence(HAMILTONIAN, 1.0, [3, 10**13]),
    "evolve_trotter": lambda: trotter.evolve_trotter(HAMILTONIAN, 1.0, 10**13),
    # 9e11 and 1e12 segments by the default density and by dt_s, and a count
    # that overflows: numpy's MemoryError or round()'s OverflowError
    "synthesize_snap_pulse": lambda: pulse.synthesize_snap_pulse(SNAP_MODEL, [0.0] * 3, 1e3),
    "synthesize_snap_pulse dt_s": lambda: pulse.synthesize_snap_pulse(
        SNAP_MODEL, [0.0] * 3, 1e-5, dt_s=1e-17),
    "synthesize_snap_pulse overflowed count": lambda: pulse.synthesize_snap_pulse(
        SNAP_MODEL, [0.0] * 3, 1e300, dt_s=1e-300),
    "displacement": lambda: gates.displacement(0.1, 65536),
    "ecd": lambda: gates.ecd(0.1, 65536),
}


@pytest.mark.parametrize("site", OVER_CAP_CALLS)
def test_over_cap_fails_before_allocating(site):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above the cap of"):
            OVER_CAP_CALLS[site]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_grape_over_cap_runs_no_pass(monkeypatch):
    monkeypatch.setattr(pulse, "MAX_GRAPE_SEGMENTS", 6)
    with mock.patch.object(pulse, "_grape_pass", side_effect=AssertionError("ran a pass")):
        with pytest.raises(CapacityError, match="n_segments 7 × n_streams 1 is 7 stream "
                                                "segments, above the cap of 6$"):
            _grape(QUBIT, 7)


def test_trotter_over_cap_runs_no_transform():
    with mock.patch.object(np.fft, "fft", side_effect=AssertionError("ran a step")):
        with pytest.raises(CapacityError, match=r"^max\(steps_list\) 10000000000000 × "
                                                r"n_levels 3 is 30000000000000 level-steps"):
            trotter.trotter_convergence(HAMILTONIAN, 1.0, [10**13, 5])


CODE = {"alpha": [1.0, 0.0], "n_levels": 12, "t1_s": 1.0, "dt_s": 1e-4}
GRAPE = {"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"}, "dt_s": 1e-8,
         "iterations": 1}
TROTTER = {"diagonal": [0.3, -0.1, 0.25, 0.05], "kinetic_diagonal": [0.1, 0.3, -0.2, 0.15],
           "t_total_s": 1.0}


def _displaced(n):
    return {"shape": [n], "gates": [{"kind": "displacement", "target": 0, "alpha": [0.1, 0.0]}]}


# the over-cap probes of the command line: (command, config, first words of the error)
CLI_OVER_CAP = {
    "code": ("code", dict(CODE, steps=10**13),
             "steps 10000000000000 × n_trajectories 1 is 10000000000000 trajectory steps"),
    "grape": ("grape", dict(GRAPE, n_segments=10**13),
              "n_segments 10000000000000 × n_streams 1 is 10000000000000 stream segments"),
    "trotter": ("trotter", dict(TROTTER, steps_list=[10**13]),
                "max(steps_list) 10000000000000 × n_levels 4 is 40000000000000 level-steps"),
    "run": ("run", _displaced(65536), "a displaced mode is 65536 levels"),
    # counts too large for a float, which float fields refuse
    "grape 10**400": ("grape", dict(GRAPE, n_segments=10**400),
                      f"n_segments {10**400} × n_streams 1 is over 1e+308 stream segments"),
    "trotter 10**400": ("trotter", dict(TROTTER, steps_list=[10**400]),
                        f"max(steps_list) {10**400} × n_levels 4 is over 1e+308 level-steps"),
}


@pytest.mark.parametrize("case", CLI_OVER_CAP)
def test_cli_over_cap_exits_4_before_allocating(case, tmp_path):
    command, doc, fragment = CLI_OVER_CAP[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = [tmp_path / "out", command, str(config)]
    run_cli(*argv)  # first imports and caches, untraced
    tracemalloc.start()
    try:
        run = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (run.code, run.stdout, run.wrote) == (4, "", False)
    [line] = run.stderr
    assert re.fullmatch(rf"error: {re.escape(fragment)}, above the cap of \d+", line)
    assert peak < 1 << 20


# (command, module, constant, patched cap, config at the cap, config one past it)
CLI_AT_CAP = {
    "code": ("code", noise, "MAX_TRAJECTORY_STEPS", 12,
             dict(CODE, steps=4, n_trajectories=3), dict(CODE, steps=13)),
    "grape": ("grape", pulse, "MAX_GRAPE_SEGMENTS", 6,
              dict(GRAPE, n_segments=6), dict(GRAPE, n_segments=7)),
    "trotter": ("trotter", trotter, "MAX_LEVEL_STEPS", 40,
                dict(TROTTER, steps_list=[10, 5]), dict(TROTTER, steps_list=[5, 11])),
    "run": ("run", gates, "MAX_DISPLACEMENT_LEVELS", 37, _displaced(37), _displaced(38)),
}


@pytest.mark.parametrize("case", CLI_AT_CAP)
def test_cli_cap_is_inclusive(case, tmp_path, monkeypatch):
    command, module, constant, cap, at_cap, past_cap = CLI_AT_CAP[case]
    monkeypatch.setattr(module, constant, cap)
    gates._quadrature_eigensystem.cache_clear()
    for doc, expected in ((at_cap, 0), (past_cap, 4)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        run = run_cli(tmp_path, command, str(config))
        assert run.code == expected, run.stderr
    assert run.stderr[-1].endswith(f"above the cap of {cap}")


# the GRAPE cap on segments × block entries (Σ B·b² over the block layout):
# TWO_STREAMS is one 4×4 block, 16 entries a segment
@pytest.mark.parametrize("call", [_grape, _gradient], ids=["grape_optimize", "grape_gradient"])
def test_grape_entry_cap_is_inclusive(call, monkeypatch):
    monkeypatch.setattr(pulse, "MAX_GRAPE_ENTRIES", 48)
    call(TWO_STREAMS, 3)
    with pytest.raises(CapacityError, match=r"^n_segments 4 × block entries 16 is 64 segment "
                                            r"block entries, above the cap of 48$"):
        call(TWO_STREAMS, 4)


def test_grape_entry_cap_leaves_the_qubit_limit():
    # one 2×2 block: the stream cap, not the entry cap, stops a qubit schedule
    pulse._require_segment_room(QUBIT, pulse.MAX_GRAPE_SEGMENTS)
    with pytest.raises(CapacityError, match="stream segments, above the cap of 200000$"):
        pulse._require_segment_room(QUBIT, pulse.MAX_GRAPE_SEGMENTS + 1)


WIDE = {"model": {"kind": "dispersive", "chi_hz": 1e6, "n_levels": 64, "cavity_drive": True},
        "target": {"kind": "identity"}, "n_segments": 10**4, "dt_s": 1e-8}


def test_cli_grape_entry_cap_exits_4_before_the_schedule(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WIDE))
    with mock.patch.object(pulse, "PulseSchedule", side_effect=AssertionError("allocated")), \
            mock.patch.object(pulse, "_grape_pass", side_effect=AssertionError("ran a pass")):
        run = run_cli(tmp_path / "out", "grape", str(config))
    assert (run.code, run.wrote) == (4, False)
    assert run.stderr == ["error: n_segments 10000 × block entries 16384 is 163840000 segment "
                          "block entries, above the cap of 800000"]
