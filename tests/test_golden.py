"""The README examples: every command's config against its stored golden
result, each config through a fresh `python -W error -m cavityq`, and the
python blocks as one script.

The artifact's header lines, integer cells and strings must match exactly;
float cells and summary floats to a relative 1e-12, which leaves room only
for the last bits of a BLAS kernel on another host. `tests/golden.py`
rewrites the stored files.
"""

import json
import math
import re

import numpy as np
import pytest

from cavityq import cli
from golden import CASES, ROOT, fresh_python, golden_paths, readme_command, run_case

RTOL = 1e-12


def _same_cell(got: str, want: str) -> bool:
    """Integers and strings exactly, floats to RTOL."""
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return g == w or (math.isnan(g) and math.isnan(w)) or math.isclose(g, w, rel_tol=RTOL)


def _same_value(got, want) -> bool:
    """A summary value: floats to RTOL, anything else exactly, recursively."""
    if isinstance(want, float) and isinstance(got, float):
        return _same_cell(repr(got), repr(want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same_value(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same_value, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("command", CASES)
def test_readme_config_matches_golden(command):
    artifact, summary = run_case(command)
    artifact_path, summary_path = golden_paths(command)
    want_summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert _same_value(summary, want_summary), (summary, want_summary)
    if artifact is None:
        assert not artifact_path.exists()
        return
    got_lines = artifact.splitlines()
    want_lines = artifact_path.read_text(encoding="utf-8").splitlines()
    assert len(got_lines) == len(want_lines)
    n_head = sum(line.startswith("#") for line in want_lines) + 1  # and the column names
    assert got_lines[:n_head] == want_lines[:n_head]
    for got, want in zip(got_lines[n_head:], want_lines[n_head:]):
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), (got, want)
        assert all(map(_same_cell, got_cells, want_cells)), (got, want)


def test_readme_python_blocks_run_as_one_script():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    script = "".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert "qst.simulate_transfer" in script
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", CASES)
def test_readme_config_through_the_entry_point(command, tmp_path):
    proc = fresh_python("-m", "cavityq", *readme_command(command, tmp_path))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    summary.pop("output", None)
    want = json.loads(golden_paths(command)[1].read_text(encoding="utf-8"))
    assert _same_value(summary, want), (summary, want)


def _data_rows(path):
    """The rows of a CSV artifact after its four provenance lines and header."""
    return path.read_bytes().splitlines(keepends=True)[5:]


def test_readme_sweep_rows_equal_single_runs(tmp_path):
    # each detuning of the sweep as a single run of its transfer config: its
    # data row is the sweep's row, byte for byte
    assert cli.main(readme_command("qst", tmp_path)) == 0
    doc = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    rows = _data_rows(tmp_path / "out" / "qst_sweep.csv")
    assert len(rows) == len(doc["delta_sweep_hz"])
    for i, (row, delta) in enumerate(zip(rows, doc["delta_sweep_hz"])):
        single = tmp_path / f"single-{i}.json"
        single.write_text(json.dumps(dict(doc["transfer"], delta_omega_hz=delta)))
        assert cli.main(["--out", str(tmp_path / f"single-{i}"), "qst", str(single)]) == 0
        assert _data_rows(tmp_path / f"single-{i}" / "qst_sweep.csv") == [row]


def test_readme_otoc_gates_equal_their_matrix_specs(tmp_path):
    # the README OTOC config, and its Fourier W and SNAP V written out as
    # dense "matrix" specs: every column of every row to 1e-12
    assert cli.main(readme_command("otoc", tmp_path)) == 0
    doc = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    assert doc["w"] == {"kind": "fourier"} and doc["v"]["kind"] == "snap", doc
    k = np.arange(len(doc["diagonal"]))
    dense = {"w": np.exp(2j * np.pi * np.outer(k, k) / len(k)) / np.sqrt(len(k)),
             "v": np.diag(np.exp(1j * np.array(doc["v"]["theta"])))}
    for name, m in dense.items():
        doc[name] = {"kind": "matrix", "re": m.real.tolist(), "im": m.imag.tolist()}
    (tmp_path / "matrix.json").write_text(json.dumps(doc))
    assert cli.main(["--out", str(tmp_path / "matrix"), "otoc", str(tmp_path / "matrix.json")]) == 0
    gates, matrix = (np.loadtxt(tmp_path / out / "otoc_series.csv", delimiter=",", skiprows=5,
                                ndmin=2) for out in ("out", "matrix"))
    assert gates.shape == matrix.shape == (4, 4)
    assert np.max(np.abs(gates - matrix)) <= 1e-12
