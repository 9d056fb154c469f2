"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

`_COMMANDS` declares each subcommand once: the name of its positional
config argument, its help text and its function. `build_parser` builds one
subparser per entry, and `main` is the one driver: it reads the config
file, calls the command on the text, writes the artifact the command
names with the config's sha256 in its header, adds the artifact path to
the summary as "output" and prints the summary as JSON. A command
`cmd_*(args, text)` only computes: it returns (artifact name, columns,
summary), with None for the name when it writes no artifact (`device`).
A new command is one function and one `_COMMANDS` entry.

Every config, and every object nested in it, is read by
`errors.read_object` (`errors.read_kind` for an object with a "kind"),
which lists the fields the object may hold: a missing required field or
an unlisted one is a parse error that names the field. The fields
themselves are read with `errors.read_field` and `errors.read_numbers`.

Every artifact file starts with a header recording the tool version, the
rng seed, the --threads value and a sha256 of the input config, and is
written atomically (temp file in the target directory, then rename), so
interrupted runs never leave half-written outputs. Commands hand their
results over as columns; `_emit_artifact` fixes each column's text kind
once (str for integers, repr of Python floats otherwise) and streams the
rows into the temp file in chunks, for CSV and for JSON alike. Within a
chunk each distinct value is formatted once and every cell looked up, with
float cells keyed on their bit patterns, so trajectories that repeat one
no-jump path cost a dict lookup per repeated cell. The JSON text is
byte for byte that of json.dumps(doc, indent=2, sort_keys=True). Every
command runs in one thread and --threads is only recorded, so with a fixed
seed reruns are byte-identical apart from the header line that records
--threads.

Exit codes: 0 success, 1 usage errors, 2 parse errors, 3 numeric errors,
4 capacity errors, mapped from the error roots by `_EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, codes, device, gates, fock, noise, pulse, qst, trotter
from .errors import (CapacityError, NumericError, ParseError, UsageError,
                     decode_object, is_json_int, is_json_number, is_json_number_rows,
                     read_field, read_kind, read_numbers, read_object)

_PROB_FLOOR = 1e-12
# what a command returns: artifact name (None: no artifact), columns, summary
_Result = tuple[str | None, dict, dict]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_atomic(path: Path, pieces) -> None:
    """Write an iterable of text pieces to path via a temp file in the same
    directory and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_CHUNK_ROWS = 4096  # rows formatted and written per piece


def _format_once(keys: list, to_text, floats: np.ndarray | None = None) -> list[str]:
    """The texts of a chunk's cells, one key per cell: the cell values
    themselves, or, given the float64 cells as floats, their int64 bit
    patterns. Each distinct key (in first-seen order, as the keys of a
    dict) is formatted once by to_text and every cell is then looked up.
    When no key repeats, the cells are formatted in order with no lookup."""
    distinct = dict.fromkeys(keys)
    if len(distinct) == len(keys):
        return list(map(to_text, keys if floats is None else floats.tolist()))
    values = distinct
    if floats is not None:
        values = np.fromiter(distinct, np.int64, len(distinct)).view(float).tolist()
    return list(map(dict(zip(distinct, map(to_text, values))).__getitem__, keys))


def _column_text(values: np.ndarray, json_floats: bool):
    """A function giving the cell texts of a slice of one column, which
    formats each distinct value of the slice once (`_format_once`). The
    kind is fixed once per column: str for integer columns, keyed on the
    values; for all others repr of Python floats, and for non-finite JSON
    floats the json module's text (NaN, Infinity, -Infinity), keyed on the
    float64 bit patterns, so -0.0 stays apart from 0.0 and every NaN
    matches itself."""
    if values.dtype.kind in "iu":
        return lambda part: _format_once(part.tolist(), str)
    to_text = repr if not json_floats or np.isfinite(values).all() else json.dumps

    def float_texts(part: np.ndarray) -> list[str]:
        floats = part.astype(float, copy=False)
        return _format_once(floats.view(np.int64).tolist(), to_text, floats)
    return float_texts


def _row_pieces(columns: list[np.ndarray], json_floats: bool, lead: str,
                cell_sep: str, row_sep: str):
    """The rows of equal-length columns as text, one piece per
    _CHUNK_ROWS rows: cells joined by cell_sep, rows by row_sep, and the
    first row led by lead."""
    formats = [_column_text(col, json_floats) for col in columns]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [fmt(col[start:start + _CHUNK_ROWS])
                 for fmt, col in zip(formats, columns)]
        yield lead + row_sep.join(map(cell_sep.join, zip(*cells)))
        lead = row_sep


def _emit_artifact(args, name: str, columns: dict, input_sha: str) -> str:
    """Write the columns (name -> equal-length array or list) as CSV or
    JSON with the provenance header, streamed in chunks of rows; returns
    the artifact path. The JSON text is that of json.dumps(doc,
    indent=2, sort_keys=True) plus a newline."""
    names = list(columns)
    values = [np.asarray(col) for col in columns.values()]
    if len({len(v) for v in values}) > 1:
        raise ValueError("artifact columns differ in length")
    out_dir = Path(args.out)
    if args.format == "json":
        path = out_dir / f"{name}.json"
        doc = {
            "tool": "cavityq",
            "version": __version__,
            "seed": args.seed,
            "threads": args.threads,
            "input_sha256": input_sha,
            "columns": names,
            "rows": [],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        pieces = [text]
        if len(values[0]):
            head, tail = text.split('"rows": []')
            pieces = itertools.chain(
                [head, '"rows": ['],
                _row_pieces(values, True, "\n    [\n      ", ",\n      ",
                            "\n    ],\n    [\n      "),
                ["\n    ]\n  ]", tail],
            )
    else:
        path = out_dir / f"{name}.csv"
        header = "\n".join([
            f"# cavityq {__version__}",
            f"# seed: {args.seed}",
            f"# threads: {args.threads}",
            f"# input_sha256: {input_sha}",
            ",".join(names),
        ])
        pieces = itertools.chain([header], _row_pieces(values, False, "\n", ",", "\n"),
                                 ["\n"])
    _write_atomic(path, pieces)
    return str(path)


def _columns(names: list[str], rows) -> dict:
    """The named columns of a list of row tuples."""
    return dict(zip(names, list(zip(*rows)) or [()] * len(names)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_device(args, text: str) -> _Result:
    return None, {}, device.device_summary(device.DeviceParams.from_json(text))


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
    if n_segments < 1:
        raise UsageError(f"n_segments must be >= 1, got {n_segments}")
    schedule0 = pulse.PulseSchedule(
        dt_s=float(dt_s),
        streams=np.zeros((model.n_streams, int(n_segments)), dtype=complex),
        carriers_hz=tuple(0.0 for _ in range(model.n_streams)),
    )
    result = pulse.grape_optimize(
        model, target, schedule0,
        iterations=int(iterations),
        learning_rate=float(learning_rate),
        seed=args.seed,
        tol=float(tol),
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
    if not 0 <= level < n:
        raise UsageError(f"initial_level {level} outside 0..{n - 1}")
    return fock.basis_state(fock.HilbertShape((n,)), [int(level)])


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


# ---------------------------------------------------------------------------
# parser and dispatch


_COMMANDS = {  # name: (config argument, help, command)
    "device": ("params_file", "derived device quantities as JSON", cmd_device),
    "run": ("circuit_file", "run a circuit, emit basis probabilities", cmd_run),
    "qst": ("config_file", "state-transfer run or detuning sweep", cmd_qst),
    "grape": ("config_file", "piecewise-constant pulse optimization", cmd_grape),
    "code": ("config_file", "cat-state photon-loss trajectories", cmd_code),
    "trotter": ("config_file", "splitting-error convergence sweep", cmd_trotter),
    "otoc": ("config_file", "out-of-time-order correlator series", cmd_otoc),
}

# the error roots, tested in this order, and their exit codes
_EXIT_CODES = {ParseError: 2, CapacityError: 4, NumericError: 3, UsageError: 1}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityq",
        description="Cavity-qudit simulation experiments.",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="rng seed recorded in every artifact")
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in artifact headers only; every "
                             "command runs in one thread, so rows do not "
                             "depend on it")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (config_arg, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text).add_argument(config_arg)
    sub.choices["run"].add_argument(
        "--state", default="", help="comma-separated initial occupations (default all 0)")
    return parser


_parser = functools.cache(build_parser)  # parse_args leaves a parser unchanged


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    config_arg, _, command = _COMMANDS[args.command]
    try:
        text = _read_text(getattr(args, config_arg))
        name, columns, summary = command(args, text)
        if name is not None:
            summary["output"] = _emit_artifact(args, name, columns, _sha256(text))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for root, code in _EXIT_CODES.items() if isinstance(exc, root))
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
