"""The README config of every command against its stored golden result.

The artifact's header lines, integer cells and strings must match exactly;
float cells and summary floats to a relative 1e-12, which leaves room only
for the last bits of a BLAS kernel on another host. `tests/golden.py`
rewrites the stored files.
"""

import json
import math

import pytest

from golden import CASES, golden_paths, run_case

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


@pytest.mark.filterwarnings("ignore::cavityq.fock.TruncationWarning")
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
