"""The six numeric subcommands of `cli` and their config parsers. `cli.main`
imports this module, and with it numpy, for any command but `device`.
"""

from __future__ import annotations

import numpy as np

# all seven, used or not, only because the perfbench tracer raises KeyError
# for an unloaded layer (`spans.Tracer.install`); to go with ROADMAP item 1
from . import codes, fock, gates, noise, pulse, qst, trotter
from .cli import _Result
from .errors import (ParseError, UsageError, decode_object, is_json_int, is_json_number_rows,
                     read_field, read_kind, read_numbers, read_object, require_count,
                     require_index)

_PROB_FLOOR = 1e-12


def _columns(names: list[str], rows) -> dict:
    """The named columns of a list of row tuples."""
    return dict(zip(names, list(zip(*rows)) or [()] * len(names)))


def _parse_state_spec(spec: str, shape: fock.HilbertShape) -> fock.StateVector:
    try:
        occupations = [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise UsageError(
            f"state spec must be comma-separated occupation numbers, "
            f"got {spec!r}"
        ) from exc
    return fock.basis_state(shape, occupations)


def cmd_run(args, text: str) -> _Result:
    circuit = gates.circuit_from_json(text)
    spec = args.state if args.state else ",".join("0" for _ in circuit.shape.dims)
    psi0 = _parse_state_spec(spec, circuit.shape)
    final = gates.apply_circuit(circuit, psi0)
    probs = np.abs(final.amplitudes.reshape(-1)) ** 2
    kept = np.flatnonzero(probs > _PROB_FLOOR)
    return "run_probabilities", {"basis_index": kept, "probability": probs[kept]}, {
        "gates": len(circuit.gates),
        "kept_rows": len(kept),
        "total_probability": float(probs.sum()),
    }


def _qst_config_and_sweep(text: str):
    """The transfer config and detuning sweep (None for a single run) of a
    qst config: a transfer config, or {"transfer": ..., "delta_sweep_hz":
    [...]}."""
    doc = decode_object(text, "transfer config")
    if "transfer" not in doc:
        return qst.qst_config_from_json(doc), None
    read_object(doc, "transfer config", ("transfer",), ("delta_sweep_hz",))
    config = qst.qst_config_from_json(
        read_field(doc, "transfer", dict, "transfer config"))
    return config, read_numbers(doc, "delta_sweep_hz", "transfer config", None)


def cmd_qst(args, text: str) -> _Result:
    config, sweep = _qst_config_and_sweep(text)
    if sweep is None:
        res = qst.simulate_transfer(config)
        rows = [(config.delta_omega_hz, res.eta,
                 float(np.sqrt(max(0.0, 1.0 - res.eta))))]
        summary = {"eta": res.eta, "fidelity": res.fidelity}
    else:
        result = qst.detuning_sweep(config, sweep)
        rows = list(result.rows)
        summary = {
            "baseline_eta": result.baseline_eta,
            "slope": result.slope,
            "intercept": result.intercept,
            "r_squared": result.r_squared,
        }
    columns = _columns(["delta_omega_hz", "eta", "sqrt_one_minus_eta"], rows)
    return "qst_sweep", columns, summary


_GRAPE_MODELS = {"qubit": ((), ("detuning_hz",)),
                 "dispersive": (("chi_hz", "n_levels"), ("cavity_drive",))}
# operator specs read for the grape target and for the otoc W and V
_OPERATORS = {"snap": (("theta",), ()), "matrix": (("re", "im"), ())}


def _grape_model(doc: dict):
    kind, spec = read_kind(read_field(doc, "model", dict, "grape config"),
                           "grape model", _GRAPE_MODELS)
    if kind == "qubit":
        detuning = read_field(spec, "detuning_hz", float, "grape model", 0.0)
        return pulse.qubit_model(float(detuning))
    chi_hz = read_field(spec, "chi_hz", float, "grape model")
    n_levels = read_field(spec, "n_levels", int, "grape model")
    drive = read_field(spec, "cavity_drive", bool, "grape model", False)
    return pulse.dispersive_model(float(chi_hz), int(n_levels), cavity_drive=drive)


def _snap_or_matrix(spec: dict, kind: str, n: int, what: str) -> np.ndarray:
    """The n×n matrix of a "snap" or "matrix" operator spec."""
    if kind == "snap":
        theta = read_numbers(spec, "theta", what)
        if len(theta) != n:
            raise ParseError(f"{what}: snap needs {n} phases, got {len(theta)}")
        return np.diag(np.exp(1j * np.array(theta)))
    re, im = spec["re"], spec["im"]
    if not (is_json_number_rows(re) and is_json_number_rows(im)):
        raise ParseError(f"{what}: 're' and 'im' must be lists of rows of numbers")
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except ValueError as exc:  # ragged rows
        raise ParseError(f"{what}: bad matrix: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ParseError(f"{what}: matrix must be {n}x{n}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError(f"{what}: matrix entries must be finite")
    return re + 1j * im


def _grape_target(doc: dict, shape: fock.HilbertShape) -> fock.Operator:
    kind, spec = read_kind(read_field(doc, "target", dict, "grape config"),
                           "grape target",
                           {"identity": ((), ()), "pauli_x": ((), ()), **_OPERATORS})
    dim = shape.total_dim
    if kind == "identity":
        return fock.Operator(shape, np.eye(dim, dtype=complex))
    if kind == "pauli_x":
        if dim != 2:
            raise ParseError("grape target: pauli_x needs a 2-level model")
        return fock.Operator(shape, np.array([[0, 1], [1, 0]], dtype=complex))
    return fock.Operator(shape, _snap_or_matrix(spec, kind, dim, "grape target"))


def cmd_grape(args, text: str) -> _Result:
    doc = read_object(text, "grape config", ("model", "target", "n_segments", "dt_s"),
                      ("iterations", "learning_rate", "tol"))
    model = _grape_model(doc)
    target = _grape_target(doc, model.shape)
    n_segments = read_field(doc, "n_segments", int, "grape config")
    dt_s = read_field(doc, "dt_s", float, "grape config")
    iterations = read_field(doc, "iterations", int, "grape config", 500)
    learning_rate = read_field(doc, "learning_rate", float, "grape config", 0.2)
    tol = read_field(doc, "tol", float, "grape config", 1e-8)
    n_segments = require_count("n_segments", n_segments, 1)
    schedule0 = pulse.PulseSchedule(
        dt_s=float(dt_s),
        streams=np.zeros((model.n_streams, n_segments), dtype=complex),
        carriers_hz=tuple(0.0 for _ in range(model.n_streams)),
    )
    result = pulse.grape_optimize(
        model, target, schedule0,
        iterations=iterations,
        learning_rate=learning_rate,
        seed=args.seed,
        tol=tol,
    )
    columns = _columns(["iteration", "infidelity", "step_size"], result.trace)
    return "grape_trace", columns, {
        "fidelity": result.fidelity,
        "infidelity": result.infidelity,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def cmd_code(args, text: str) -> _Result:
    doc = read_object(text, "code config", ("alpha", "n_levels", "t1_s", "dt_s", "steps"),
                      ("parity", "n_trajectories"))
    alpha_pair = read_numbers(doc, "alpha", "code config")
    if len(alpha_pair) != 2:
        raise ParseError("code config: 'alpha' must be [re, im]")
    sign = read_field(doc, "parity", str, "code config", "+")
    n_levels = read_field(doc, "n_levels", int, "code config")
    t1_s = read_field(doc, "t1_s", float, "code config")
    dt_s = read_field(doc, "dt_s", float, "code config")
    steps = read_field(doc, "steps", int, "code config")
    n_traj = read_field(doc, "n_trajectories", int, "code config", 1)
    psi = codes.cat_state(complex(alpha_pair[0], alpha_pair[1]), sign,
                          int(n_levels))
    channel = noise.photon_loss_channel(float(t1_s), float(dt_s), int(n_levels))
    results = noise.run_trajectories(channel, psi, int(steps), int(n_traj),
                                     base_seed=args.seed)
    # trajectory-major rows: every step of the first trajectory, then the next
    columns = {
        "seed": np.repeat([t.seed for t in results], steps),
        "step": np.tile(np.arange(1, steps + 1), len(results)),
        "jump_count": np.concatenate([t.jump_counts for t in results]),
        "parity": np.concatenate([t.parities for t in results]),
        "mean_n": np.concatenate([t.mean_occupations for t in results]),
    }
    return "code_trajectories", columns, {
        "initial_parity": codes.parity(psi),
        "n_trajectories": len(results),
        "total_jumps": sum(len(t.jump_steps) for t in results),
    }


def _hamiltonian_from_doc(doc: dict, what: str) -> trotter.QuditHamiltonian:
    diag = read_numbers(doc, "diagonal", what)
    kin = read_numbers(doc, "kinetic_diagonal", what)
    return trotter.QuditHamiltonian(diag, kin)


def _initial_level_state(doc: dict, n: int, what: str):
    level = read_field(doc, "initial_level", int, what, 0)
    return fock.basis_state(n, require_index("initial_level", level, n))


def cmd_trotter(args, text: str) -> _Result:
    doc = read_object(text, "trotter config",
                      ("diagonal", "kinetic_diagonal", "t_total_s", "steps_list"),
                      ("initial_level",))
    h = _hamiltonian_from_doc(doc, "trotter config")
    t_total = read_field(doc, "t_total_s", float, "trotter config")
    steps_list = read_field(doc, "steps_list", list, "trotter config")
    if not all(is_json_int(s) for s in steps_list):
        raise ParseError("trotter config: 'steps_list' must be integers")
    psi0 = _initial_level_state(doc, h.n_levels, "trotter config")
    rows = trotter.trotter_convergence(h, float(t_total),
                                       [int(s) for s in steps_list], psi0)
    return "trotter_convergence", _columns(["steps", "dt_s", "infidelity"], rows), {
        "n_levels": h.n_levels,
        "best_infidelity": min(float(r[2]) for r in rows),
    }


def _otoc_operator(doc: dict, name: str, n: int) -> np.ndarray:
    what = f"otoc config {name}"
    kind, spec = read_kind(read_field(doc, name, dict, "otoc config"), what,
                           {"fourier": ((), ()), **_OPERATORS})
    if kind == "fourier":
        return gates.fourier(n).matrix
    return _snap_or_matrix(spec, kind, n, what)


def cmd_otoc(args, text: str) -> _Result:
    doc = read_object(text, "otoc config",
                      ("diagonal", "kinetic_diagonal", "times_s", "w", "v"),
                      ("initial_level",))
    h = _hamiltonian_from_doc(doc, "otoc config")
    times = read_numbers(doc, "times_s", "otoc config")
    if not times:
        raise ParseError("otoc config: 'times_s' must be non-empty")
    w = _otoc_operator(doc, "w", h.n_levels)
    v = _otoc_operator(doc, "v", h.n_levels)
    psi0 = _initial_level_state(doc, h.n_levels, "otoc config")
    rows = trotter.otoc_series(w, v, h, times, psi0)
    return "otoc_series", _columns(["t_s", "re_otoc", "im_otoc", "abs_otoc"], rows), {
        "n_levels": h.n_levels,
        "min_abs_otoc": min(float(r[3]) for r in rows),
    }
