"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

`_COMMANDS` declares each subcommand once: the name of its positional
config argument and its help text. `build_parser` builds one subparser
per entry, and `main` is the one driver. Parse, then compute: `_parse`
reads the config file, takes its sha256 (for the numeric commands, which
write an artifact) and calls the command `cmd_<name>(args, text)`, which
reads and checks the whole config and returns its computation, a
zero-argument callable closed over the checked inputs alone (arrays,
models, circuits, numbers), never over the text or the decoded JSON.
`main` calls it only after `_parse` has returned, so neither is alive
while an engine runs. The computation returns (artifact name, columns,
summary), with None for the name when it writes no artifact (`device`);
`main` writes the artifact with the sha256 in its header, adds its path
to the summary as "output" and prints the summary as JSON. A new command
is one function and one `_COMMANDS` entry. This module loads no numpy:
the numeric commands are in `_numeric_commands`, imported only for them.

Every config, and every object nested in it, states its fields once, in
a table read by `errors.read_fields` (`errors.read_kind` for an object
with a "kind"): each field, and an optional field with its default. A
missing required field or an unlisted one is a parse error that names
the field. Every field the reader does not walk itself goes, as decoded,
to the call it feeds, whose rule reads it.

Every artifact file starts with a header recording the tool version, the
rng seed, the --threads value and a sha256 of the input config, and is
written atomically (temp file in the target directory, then rename), so
interrupted runs never leave half-written outputs. Commands hand their
results over as columns; `_emit_artifact` fixes each column's text kind
once (str for integers, repr of Python floats otherwise) and streams the
rows into the temp file in chunks, for CSV and for JSON alike. Within a
chunk np.unique finds the distinct values, float cells keyed on their bit
patterns; each is formatted once and every cell gathers its text through
the inverse, so trajectories that repeat one no-jump path format each
value once. The JSON text is byte for byte that of json.dumps(doc,
indent=2, sort_keys=True). Every command runs in one thread and --threads
is only recorded. BLAS is pinned to one thread as well: when `main` first
loads numpy it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, since a threaded BLAS sums in an order that follows
the thread count. So with a
fixed seed reruns are byte-identical on any core count, apart from the
header line that records --threads. The pin needs a fresh process: once
numpy is loaded (a library caller, an in-process `main` call) BLAS keeps
the thread count it started with.

Exit codes: 0 success, 1 usage errors, 2 parse errors, 3 numeric errors,
4 capacity errors, mapped from the error roots by `_EXIT_CODES`. A fault
that a command finds while it reads its config is a ParseError (exit 2)
at the field path of its object, put under the command's name by
`_parse`, the config's `errors.parse_errors` boundary ("grape.model: ...");
one found by the computation exits by its error root with the rule's
message, and a CapacityError exits 4 wherever it is found.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import __version__, device
from .errors import CapacityError, NumericError, ParseError, UsageError, parse_errors

# what a command's computation returns: artifact name (None: no artifact),
# columns, summary; a command returns the computation
_Result = tuple[str | None, dict, dict]
_Computation = Callable[[], _Result]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _sha256(text: str) -> str:
    import hashlib  # here, so that `device`, which writes no artifact, never loads it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_atomic(path: Path, pieces) -> None:
    """Write an iterable of text pieces to path via a temp file in the same
    directory and a rename."""
    import tempfile  # here, like hashlib in _sha256
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


def _format_once(keys: np.ndarray, to_text, values: np.ndarray | None = None) -> list[str]:
    """The texts of a chunk's cells, one key per cell: the cell values
    themselves, or, given the float64 cells as values, their int64 bit
    patterns. np.unique finds the distinct keys, each is formatted once by
    to_text, and every cell takes its text through the inverse from an
    object array. When no key repeats, the cells are formatted in order."""
    import numpy as np
    values = keys if values is None else values
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(distinct) == len(keys):
        return list(map(to_text, values.tolist()))
    return np.array(list(map(to_text, values[first].tolist())), dtype=object)[inverse].tolist()


def _column_text(values: np.ndarray, json_floats: bool):
    """A function giving the cell texts of a slice of one column, which
    formats each distinct value of the slice once (`_format_once`). The
    kind is fixed once per column: str for integer columns, keyed on the
    values; for all others repr of Python floats, and for non-finite JSON
    floats the json module's text (NaN, Infinity, -Infinity), keyed on the
    float64 bit patterns, so -0.0 stays apart from 0.0 and every NaN
    matches itself."""
    import numpy as np
    if values.dtype.kind in "iu":
        return lambda part: _format_once(part, str)
    to_text = repr if not json_floats or np.isfinite(values).all() else json.dumps

    def float_texts(part: np.ndarray) -> list[str]:
        floats = part.astype(float, copy=False)
        return _format_once(floats.view(np.int64), to_text, floats)
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
    import numpy as np
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_device(args, text: str) -> _Computation:
    params = device.DeviceParams.from_json(text)
    return lambda: (None, {}, device.device_summary(params))


# ---------------------------------------------------------------------------
# parser and dispatch


_COMMANDS = {  # name: (config argument, help); the command is _command(name)
    "device": ("params_file", "derived device quantities as JSON"),
    "run": ("circuit_file", "run a circuit, emit basis probabilities"),
    "qst": ("config_file", "state-transfer run or detuning sweep"),
    "grape": ("config_file", "piecewise-constant pulse optimization"),
    "code": ("config_file", "cat-state photon-loss trajectories"),
    "trotter": ("config_file", "splitting-error convergence sweep"),
    "otoc": ("config_file", "out-of-time-order correlator series"),
}


# pinned to one thread before numpy loads, so that BLAS sums in one order
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _command(name: str):
    """cmd_<name>: cmd_device here, any other from `_numeric_commands`,
    whose first import loads numpy, with one BLAS thread when this is the
    process's first numpy import."""
    if name == "device":
        return cmd_device
    if "numpy" not in sys.modules:  # BLAS reads these once, when numpy loads
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    from . import _numeric_commands
    return getattr(_numeric_commands, f"cmd_{name}")


def _parse(args) -> tuple[_Computation, str | None]:
    """Read the config of args.command, take its sha256 (None for `device`,
    which writes no artifact and so loads no hashlib) and parse it: the
    command's computation and the sha256. The text and the decoded JSON
    end with this call."""
    text = _read_text(getattr(args, _COMMANDS[args.command][0]))
    command = _command(args.command)
    input_sha = None if command is cmd_device else _sha256(text)
    with parse_errors(args.command):
        return command(args, text), input_sha


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
    for name, (config_arg, help_text) in _COMMANDS.items():
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
    try:
        compute, input_sha = _parse(args)
        name, columns, summary = compute()
        if name is not None:
            summary["output"] = _emit_artifact(args, name, columns, input_sha)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for root, code in _EXIT_CODES.items() if isinstance(exc, root))
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
