"""The six numeric subcommands of `cli` and their config parsers. `cli.main`
imports this module, and with it numpy, for any command but `device`.
Each `cmd_<name>` reads its config, building what it describes, then
returns its computation: a closure over what it built and over the
fields that only the engine call they feed reads, by its rule; never over
the config text or the decoded object. `cli._parse` is the config's
`errors.parse_errors` boundary, and each object nested in it has its
own, keyed by the object's field name.
"""

from __future__ import annotations

import numpy as np

# all seven, used or not, only because the perfbench tracer raises KeyError
# for an unloaded layer (`spans.Tracer.install`); to go with ROADMAP item 1
from . import codes, fock, gates, noise, pulse, qst, trotter
from .cli import _Computation, _Result
from .errors import (NumericError, UsageError, decode_object, parse_errors, read_fields,
                     read_kind, require_array, require_count, require_index)

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


def cmd_run(args, text: str) -> _Computation:
    circuit = gates.circuit_from_json(text)

    def compute() -> _Result:  # reads --state, which is not config: a fault in it exits 1
        spec = args.state or ",".join("0" for _ in circuit.shape.dims)
        final = gates.apply_circuit(circuit, _parse_state_spec(spec, circuit.shape))
        probs = np.abs(final.amplitudes.reshape(-1)) ** 2
        kept = np.flatnonzero(probs > _PROB_FLOOR)
        return "run_probabilities", {"basis_index": kept, "probability": probs[kept]}, {
            "gates": len(circuit.gates),
            "kept_rows": len(kept),
            "total_probability": float(probs.sum()),
        }
    return compute


def _qst_config_and_sweep(text: str):
    """The transfer config and detuning sweep (None for a single run) of a
    qst config: a transfer config, or {"transfer": ..., "delta_sweep_hz":
    [...]}."""
    doc = decode_object(text, "")
    if "transfer" not in doc:
        return qst.qst_config_from_json(doc), None
    f = read_fields(doc, "", {"transfer": dict}, {"delta_sweep_hz": (object, None)})
    with parse_errors("transfer"):
        return qst.qst_config_from_json(f["transfer"]), f["delta_sweep_hz"]


def cmd_qst(args, text: str) -> _Computation:
    config, sweep = _qst_config_and_sweep(text)

    def compute() -> _Result:
        if sweep is None:
            res = qst.simulate_transfer(config)
            rows = [(config.delta_omega_hz, res.eta,
                     float(np.sqrt(max(0.0, 1.0 - res.eta))))]
            summary = {"eta": res.eta, "fidelity": res.fidelity}
        else:
            # read under the field's name: the library names it delta_list
            result = qst.detuning_sweep(
                config, require_array("delta_sweep_hz", sweep, (None,), float, least=2))
            rows = list(result.rows)
            summary = {
                "baseline_eta": result.baseline_eta,
                "slope": result.slope,
                "intercept": result.intercept,
                "r_squared": result.r_squared,
            }
        columns = _columns(["delta_omega_hz", "eta", "sqrt_one_minus_eta"], rows)
        return "qst_sweep", columns, summary
    return compute


_GRAPE_MODELS = {"qubit": ({}, {"detuning_hz": (object, 0.0)}),
                 "dispersive": ({"chi_hz": object, "n_levels": object},
                                {"cavity_drive": (object, False)})}
# operator specs read for the grape target and for the otoc W and V; the
# matrix rows are checked by _matrix
_OPERATORS = {"snap": ({"theta": object}, {}), "matrix": ({"re": object, "im": object}, {})}


def _grape_model(spec: dict):
    kind, f = read_kind(spec, "model", _GRAPE_MODELS)
    with parse_errors("model"):
        if kind == "qubit":
            return pulse.qubit_model(f["detuning_hz"])
        return pulse.dispersive_model(f["chi_hz"], f["n_levels"], cavity_drive=f["cavity_drive"])


def _matrix(f: dict, n: int) -> np.ndarray:
    """The n×n matrix of a "matrix" operator spec's fields, its 're' and 'im'
    rows read by the array rule (`errors.require_array`) and named on a fault."""
    re, im = (require_array(f"field '{name}'", f[name], (n, n), float) for name in ("re", "im"))
    return re + 1j * im


def _grape_target(spec: dict, shape: fock.HilbertShape) -> fock.Operator:
    """The target of a grape config on the model's register; a "snap" spec
    is `gates.multisnap`, bitwise the matrix of `gates.snap`."""
    kind, f = read_kind(spec, "target",
                        {"identity": ({}, {}), "pauli_x": ({}, {}), **_OPERATORS})
    dim = shape.total_dim
    with parse_errors("target"):
        if kind == "identity":
            return fock.Operator(shape, np.eye(dim, dtype=complex))
        if kind == "pauli_x":
            if dim != 2:
                raise UsageError("pauli_x needs a 2-level model")
            return fock.Operator(shape, np.array([[0, 1], [1, 0]], dtype=complex))
        if kind == "snap":
            return gates.multisnap(f["theta"], shape)
        return fock.Operator(shape, _matrix(f, dim))


def cmd_grape(args, text: str) -> _Computation:
    f = read_fields(text, "",
                    {"model": dict, "target": dict, "n_segments": object, "dt_s": object},
                    {"iterations": (object, 500), "learning_rate": (object, 0.2),
                     "tol": (object, 1e-8)})
    model = _grape_model(f["model"])
    target = _grape_target(f["target"], model.shape)
    n_segments = require_count("n_segments", f["n_segments"], 1)
    pulse._require_segment_room(model, n_segments)  # before the zero schedule
    schedule0 = pulse.PulseSchedule(f["dt_s"],
                                    np.zeros((model.n_streams, n_segments), dtype=complex),
                                    (0.0,) * model.n_streams)
    iterations, learning_rate, tol, seed = f["iterations"], f["learning_rate"], f["tol"], args.seed

    def compute() -> _Result:
        result = pulse.grape_optimize(model, target, schedule0, iterations=iterations,
                                      learning_rate=learning_rate, seed=seed, tol=tol)
        columns = _columns(["iteration", "infidelity", "step_size"], result.trace)
        return "grape_trace", columns, {
            "fidelity": result.fidelity,
            "infidelity": result.infidelity,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    return compute


def cmd_code(args, text: str) -> _Computation:
    f = read_fields(text, "",
                    {"alpha": object, "n_levels": object, "t1_s": object, "dt_s": object,
                     "steps": object},
                    {"parity": (object, "+"), "n_trajectories": (object, 1)})
    re, im = require_array("alpha", f["alpha"], (2,), float).tolist()
    [n_levels] = fock.shape_of((f["n_levels"],), "n_levels").dims  # the library names it n
    psi = codes.cat_state(complex(re, im), f["parity"], n_levels)
    channel = noise.photon_loss_channel(f["t1_s"], f["dt_s"], n_levels)
    steps, n_trajectories, seed = f["steps"], f["n_trajectories"], args.seed

    def compute() -> _Result:
        results = noise.run_trajectories(channel, psi, steps, n_trajectories, base_seed=seed)
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
    return compute


def _qudit(f: dict) -> tuple[trotter.QuditHamiltonian, fock.StateVector]:
    """The Hamiltonian and initial basis state of a trotter or otoc config's fields."""
    h = trotter.QuditHamiltonian(f["diagonal"], f["kinetic_diagonal"])
    level = require_index("initial_level", f["initial_level"], h.n_levels)
    return h, fock.basis_state(h.n_levels, level)


def cmd_trotter(args, text: str) -> _Computation:
    f = read_fields(text, "",
                    {"diagonal": object, "kinetic_diagonal": object, "t_total_s": object,
                     "steps_list": object}, {"initial_level": (object, 0)})
    h, psi0 = _qudit(f)
    t_total_s, steps_list = f["t_total_s"], f["steps_list"]

    def compute() -> _Result:
        rows = trotter.trotter_convergence(h, t_total_s, steps_list, psi0)
        return "trotter_convergence", _columns(["steps", "dt_s", "infidelity"], rows), {
            "n_levels": h.n_levels,
            "best_infidelity": min(float(r[2]) for r in rows),
        }
    return compute


def _otoc_operator(spec: dict, key: str, n: int):
    """W or V for `trotter.otoc_series`: a "matrix" spec as its array, a
    "snap" or "fourier" spec as a one-gate circuit, which acts on the
    eigenbasis as a phase multiply or an FFT."""
    kind, f = read_kind(spec, key, {"fourier": ({}, {}), **_OPERATORS})
    params = {"target": 0, **({"theta": f["theta"]} if kind == "snap" else {})}
    with parse_errors(key):
        if kind == "matrix":
            return _matrix(f, n)
        try:
            return gates.Circuit(fock.HilbertShape((n,)), (gates.GateSpec(kind, params),))
        except (UsageError, NumericError) as exc:  # at the spec, not at its circuit's gates[0]
            raise exc.__cause__ from None


def cmd_otoc(args, text: str) -> _Computation:
    f = read_fields(text, "",
                    {"diagonal": object, "kinetic_diagonal": object, "times_s": object,
                     "w": dict, "v": dict}, {"initial_level": (object, 0)})
    h, psi0 = _qudit(f)
    w = _otoc_operator(f["w"], "w", h.n_levels)
    v = _otoc_operator(f["v"], "v", h.n_levels)
    # one time at least: the summary takes the minimum over the rows
    times = require_array("times_s", f["times_s"], (None,), float, least=1)

    def compute() -> _Result:
        rows = trotter.otoc_series(w, v, h, times, psi0)
        return "otoc_series", _columns(["t_s", "re_otoc", "im_otoc", "abs_otoc"], rows), {
            "n_levels": h.n_levels,
            "min_abs_otoc": min(float(r[3]) for r in rows),
        }
    return compute
