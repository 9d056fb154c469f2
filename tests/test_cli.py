import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityq import cli, pulse
from cavityq.errors import ParseError

PAPER_DEVICE = {
    "omega_q_hz": 5.0e9,
    "omega_c_hz": 7.0e9,
    "g_hz": 10.0e6,
    "chi_prime_hz": 0.0,
    "alpha_hz": -200.0e6,
    "t1_fock0_s": 1.0,
    "t1_min_s": 200.0e-6,
}

QST_SWEEP_DOC = {
    "transfer": {
        "kappa_hz": 1e6,
        "t_span_s": [-2e-5, 2e-5],
        "dt_s": 4e-8,
        "emit_waveform": {"kind": "sech"},
        "catch_waveform": {"kind": "sech"},
    },
    "delta_sweep_hz": [0.0, 1e4, 2e4, 3e4, 4e4, 5e4],
}

CODE_DOC = {
    "alpha": [2.0, 0.0],
    "parity": "+",
    "n_levels": 20,
    "t1_s": 1.0,
    "dt_s": 4e-5,
    "steps": 2500,
    "n_trajectories": 4,
}

TROTTER_DOC = {
    "diagonal": [0.3, -0.1, 0.25, 0.05, -0.3, 0.2, -0.15, 0.1],
    "kinetic_diagonal": [0.1, 0.3, -0.2, 0.15, -0.1, 0.05, 0.25, -0.3],
    "t_total_s": 1.0,
    "steps_list": [50, 100, 200],
}

OTOC_DOC = {
    "diagonal": TROTTER_DOC["diagonal"],
    "kinetic_diagonal": TROTTER_DOC["kinetic_diagonal"],
    "times_s": [0.0, 0.5, 1.0, 2.0],
    "w": {"kind": "snap", "theta": [0.1, 1.3, 2.2, 0.4, 1.9, 2.8, 0.7, 1.1]},
    "v": {"kind": "snap", "theta": [2.1, 0.3, 1.2, 2.4, 0.9, 1.8, 0.2, 2.6]},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, *argv, seed=7):
    return cli.main(["--out", str(tmp_path), "--seed", str(seed), *argv])


def read_csv(path):
    """Split a CSV artifact into (comment lines, header fields, data rows)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


class TestDevice:
    def test_paper_parameter_set(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "dev.json", PAPER_DEVICE)
        assert run_cli(tmp_path, "device", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["critical_photon_number"] == 10000.0
        assert out["max_fock"] == 5000
        assert out["snap_min_gate_time_s"] == pytest.approx(
            2 * np.pi / 50e3, rel=1e-12
        )

    def test_missing_field_names_it(self, tmp_path, capsys):
        doc = dict(PAPER_DEVICE)
        del doc["t1_min_s"]
        cfg = write_json(tmp_path / "dev.json", doc)
        assert run_cli(tmp_path, "device", cfg) == 2
        assert "t1_min_s" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "device", str(tmp_path / "nope.json")) == 1


class TestRun:
    def empty_circuit(self, tmp_path):
        return write_json(
            tmp_path / "circ.json",
            {"shape": [3], "displacement_convention": "standard", "gates": []},
        )

    def test_empty_circuit_single_row(self, tmp_path, capsys):
        cfg = self.empty_circuit(tmp_path)
        assert run_cli(tmp_path, "run", cfg) == 0
        _, header, rows = read_csv(tmp_path / "run_probabilities.csv")
        assert header == ["basis_index", "probability"]
        assert rows == [["0", "1.0"]]

    def test_fourier_uniform_probabilities(self, tmp_path):
        cfg = write_json(
            tmp_path / "circ.json",
            {
                "shape": [4],
                "displacement_convention": "standard",
                "gates": [{"kind": "fourier", "target": 0}],
            },
        )
        assert run_cli(tmp_path, "run", cfg) == 0
        _, _, rows = read_csv(tmp_path / "run_probabilities.csv")
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        for r in rows:
            assert float(r[1]) == pytest.approx(0.25, abs=1e-12)

    def test_custom_initial_state(self, tmp_path):
        cfg = self.empty_circuit(tmp_path)
        assert run_cli(tmp_path, "run", cfg, "--state", "2") == 0
        _, _, rows = read_csv(tmp_path / "run_probabilities.csv")
        assert rows == [["2", "1.0"]]

    def test_bad_json_exit_2(self, tmp_path):
        bad = tmp_path / "circ.json"
        bad.write_text("{broken", encoding="utf-8")
        assert run_cli(tmp_path, "run", str(bad)) == 2

    def test_gate_error_reports_position(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "circ.json",
            {
                "shape": [3],
                "displacement_convention": "standard",
                "gates": [{"kind": "snap", "target": 0, "theta": [0.0, 0.0]}],
            },
        )
        code = run_cli(tmp_path, "run", cfg)
        assert code in (1, 2)
        assert "gate 0" in capsys.readouterr().err

    def test_bad_state_spec_exit_1(self, tmp_path, capsys):
        cfg = self.empty_circuit(tmp_path)
        assert run_cli(tmp_path, "run", cfg, "--state", "banana") == 1

    def test_capacity_exit_4(self, tmp_path):
        cfg = write_json(
            tmp_path / "circ.json",
            {"shape": [3000000], "displacement_convention": "standard",
             "gates": []},
        )
        assert run_cli(tmp_path, "run", cfg) == 4


class TestQst:
    def test_single_run_row(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "qst.json", QST_SWEEP_DOC["transfer"])
        assert run_cli(tmp_path, "qst", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta"] >= 0.999
        _, header, rows = read_csv(tmp_path / "qst_sweep.csv")
        assert header == ["delta_omega_hz", "eta", "sqrt_one_minus_eta"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) >= 0.999

    def test_sweep_fit_quality(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "qst.json", QST_SWEEP_DOC)
        assert run_cli(tmp_path, "qst", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["r_squared"] >= 0.99
        assert out["baseline_eta"] >= 0.999
        _, _, rows = read_csv(tmp_path / "qst_sweep.csv")
        assert len(rows) == len(QST_SWEEP_DOC["delta_sweep_hz"])

    def test_threads_preserve_row_data(self, tmp_path):
        cfg = write_json(tmp_path / "qst.json", QST_SWEEP_DOC)
        assert run_cli(tmp_path, "qst", cfg) == 0
        _, _, rows1 = read_csv(tmp_path / "qst_sweep.csv")
        assert cli.main([
            "--out", str(tmp_path), "--seed", "7", "--threads", "3",
            "qst", cfg,
        ]) == 0
        _, _, rows3 = read_csv(tmp_path / "qst_sweep.csv")
        assert rows1 == rows3

    def test_boolean_rate_exit_2(self, tmp_path, capsys):
        doc = dict(QST_SWEEP_DOC["transfer"], kappa_hz=True)
        cfg = write_json(tmp_path / "qst.json", doc)
        assert run_cli(tmp_path, "qst", cfg) == 2
        assert "kappa_hz" in capsys.readouterr().err

    def test_step_size_violation_exit_3(self, tmp_path):
        doc = dict(QST_SWEEP_DOC["transfer"])
        doc["dt_s"] = 1e-6  # max kappa * dt = 1 >> 0.05
        cfg = write_json(tmp_path / "qst.json", doc)
        assert run_cli(tmp_path, "qst", cfg) == 3


class TestGrape:
    def test_identity_converges_at_iteration_zero(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": {"kind": "qubit"},
                "target": {"kind": "identity"},
                "n_segments": 8,
                "dt_s": 1e-7,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["iterations"] == 0
        assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)
        _, header, rows = read_csv(tmp_path / "grape_trace.csv")
        assert header == ["iteration", "infidelity", "step_size"]
        assert len(rows) == 1

    def test_x_gate_target(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": {"kind": "qubit"},
                "target": {"kind": "pauli_x"},
                "n_segments": 16,
                "dt_s": 1e-7,
                "iterations": 300,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["infidelity"] < 1e-6

    def test_unknown_target_kind_exit_2(self, tmp_path):
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": {"kind": "qubit"},
                "target": {"kind": "hadamard-ish"},
                "n_segments": 8,
                "dt_s": 1e-7,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 2

    DISPERSIVE = {"kind": "dispersive", "chi_hz": 1e6, "n_levels": 3}

    def test_dispersive_identity_converges_at_iteration_zero(self, tmp_path,
                                                             capsys):
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": self.DISPERSIVE,
                "target": {"kind": "identity"},
                "n_segments": 10,
                "dt_s": 1e-7,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["iterations"] == 0
        assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_dispersive_snap_target(self, tmp_path, capsys):
        # one phase per basis state of the (2, 3) qubit-cavity space
        theta = [0.0, 0.7, -1.1, 0.0, 0.7, -1.1]
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": self.DISPERSIVE,
                "target": {"kind": "snap", "theta": theta},
                "n_segments": 20,
                "dt_s": 5e-8,
                "iterations": 15,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        _, header, rows = read_csv(tmp_path / "grape_trace.csv")
        infid = [float(r[1]) for r in rows]
        assert infid == sorted(infid, reverse=True)
        assert infid[-1] == pytest.approx(out["infidelity"], rel=1e-10)
        assert out["infidelity"] < infid[0]

    def test_dispersive_snap_wrong_phase_count_exit_2(self, tmp_path):
        cfg = write_json(
            tmp_path / "grape.json",
            {
                "model": self.DISPERSIVE,
                "target": {"kind": "snap", "theta": [0.0, 0.7, -1.1]},
                "n_segments": 10,
                "dt_s": 1e-7,
            },
        )
        assert run_cli(tmp_path, "grape", cfg) == 2


class TestCode:
    def test_parity_flips_at_first_jump(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        assert run_cli(tmp_path, "code", cfg) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total_jumps"] >= 1
        _, header, rows = read_csv(tmp_path / "code_trajectories.csv")
        assert header == ["seed", "step", "jump_count", "parity", "mean_n"]
        flips = 0
        by_seed = {}
        for seed, step, jumps, parity, _ in rows:
            by_seed.setdefault(seed, []).append((int(jumps), float(parity)))
        for series in by_seed.values():
            for (j0, p0), (j1, p1) in zip(series, series[1:]):
                if j0 == 0 and j1 == 1:
                    assert p0 > 0.9 and p1 < -0.9
                    flips += 1
        assert flips >= 1

    def test_artifact_bytes_match_trajectories(self, tmp_path):
        # the CSV and JSON artifacts hold every trajectory array cell for
        # cell, floats as their repr
        from cavityq import __version__, codes, noise

        doc = dict(CODE_DOC, alpha=[1.2, 0.3], n_levels=14, dt_s=1.5e-4,
                   steps=300, n_trajectories=4)
        cfg = write_json(tmp_path / "code.json", doc)
        text = (tmp_path / "code.json").read_text(encoding="utf-8")
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        psi = codes.cat_state(1.2 + 0.3j, "+", 14)
        channel = noise.photon_loss_channel(1.0, 1.5e-4, 14)
        results = noise.run_trajectories(channel, psi, 300, 4, base_seed=7)
        assert sum(len(t.jump_steps) for t in results) > 0
        rows = [
            (t.seed, s + 1, int(t.jump_counts[s]), float(t.parities[s]),
             float(t.mean_occupations[s]))
            for t in results for s in range(t.steps)
        ]
        csv = "".join(
            f"{seed},{step},{jumps},{parity!r},{mean_n!r}\n"
            for seed, step, jumps, parity, mean_n in rows
        )
        expected_csv = (
            f"# cavityq {__version__}\n# seed: 7\n# threads: 2\n"
            f"# input_sha256: {sha}\nseed,step,jump_count,parity,mean_n\n{csv}"
        )
        expected_json = json.dumps({
            "tool": "cavityq", "version": __version__, "seed": 7, "threads": 2,
            "input_sha256": sha,
            "columns": ["seed", "step", "jump_count", "parity", "mean_n"],
            "rows": [list(row) for row in rows],
        }, indent=2, sort_keys=True) + "\n"
        for fmt, expected in (("csv", expected_csv), ("json", expected_json)):
            assert cli.main(["--out", str(tmp_path), "--seed", "7", "--threads",
                             "2", "--format", fmt, "code", cfg]) == 0
            path = tmp_path / f"code_trajectories.{fmt}"
            assert path.read_bytes() == expected.encode("utf-8")

    def test_artifacts_identical_across_processes(self, tmp_path):
        # the writer's per-chunk dicts must not make output depend on the
        # interpreter's hash seed: fresh processes give the same bytes
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for fmt in ("csv", "json"):
            artifacts = []
            for hash_seed in ("0", "1"):
                out = tmp_path / f"{fmt}-{hash_seed}"
                proc = subprocess.run(
                    [sys.executable, "-m", "cavityq", "--out", str(out), "--seed", "7",
                     "--format", fmt, "code", cfg],
                    capture_output=True, text=True,
                    env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
                )
                assert proc.returncode == 0, proc.stderr
                artifacts.append((out / f"code_trajectories.{fmt}").read_bytes())
            assert artifacts[0] == artifacts[1]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        assert run_cli(tmp_path, "code", cfg) == 0
        first = (tmp_path / "code_trajectories.csv").read_bytes()
        assert run_cli(tmp_path, "code", cfg) == 0
        assert (tmp_path / "code_trajectories.csv").read_bytes() == first

    def test_different_seed_changes_trajectories(self, tmp_path):
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        assert run_cli(tmp_path, "code", cfg, seed=7) == 0
        first = (tmp_path / "code_trajectories.csv").read_bytes()
        assert run_cli(tmp_path, "code", cfg, seed=8) == 0
        assert (tmp_path / "code_trajectories.csv").read_bytes() != first


class TestTrotterCommands:
    def test_convergence_rows_improve(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert run_cli(tmp_path, "trotter", cfg) == 0
        _, header, rows = read_csv(tmp_path / "trotter_convergence.csv")
        assert header == ["steps", "dt_s", "infidelity"]
        infids = [float(r[2]) for r in rows]
        assert infids[0] > infids[1] > infids[2]

    def test_otoc_series(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "otoc.json", OTOC_DOC)
        assert run_cli(tmp_path, "otoc", cfg) == 0
        _, header, rows = read_csv(tmp_path / "otoc_series.csv")
        assert header == ["t_s", "re_otoc", "im_otoc", "abs_otoc"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
        assert all(float(r[3]) <= 1 + 1e-12 for r in rows)

    def test_bad_steps_list_exit_2(self, tmp_path):
        doc = dict(TROTTER_DOC)
        doc["steps_list"] = [50, "many"]
        cfg = write_json(tmp_path / "trot.json", doc)
        assert run_cli(tmp_path, "trotter", cfg) == 2

    def test_otoc_empty_time_grid_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "otoc.json", dict(OTOC_DOC, times_s=[]))
        assert run_cli(tmp_path, "otoc", cfg) == 2
        assert "'times_s' must be non-empty" in capsys.readouterr().err
        assert not (tmp_path / "otoc_series.csv").exists()


# "matrix" operator specs, read for the grape target and the otoc W and V:
# the site's config with a given spec in place, and the spec's size there
_MATRIX_SITES = {
    "grape_target": (2, lambda spec: {"model": {"kind": "qubit"}, "target": spec,
                                      "n_segments": 8, "dt_s": 1e-7}),
    "otoc_w": (8, lambda spec: dict(OTOC_DOC, w=spec)),
    "otoc_v": (8, lambda spec: dict(OTOC_DOC, v=spec)),
}

# an entry of im set to each value: the reason exit 2 must give
_BAD_MATRIX_ENTRIES = {
    "nan_string": ("nan", "'re' and 'im' must be lists of rows of numbers"),
    "numeric_string": ("0.5", "'re' and 'im' must be lists of rows of numbers"),
    "boolean": (True, "'re' and 'im' must be lists of rows of numbers"),
    "null": (None, "'re' and 'im' must be lists of rows of numbers"),
    "nested_list": ([0.0], "'re' and 'im' must be lists of rows of numbers"),
    "nan": (math.nan, "matrix entries must be finite"),  # json NaN
    "infinity": (-math.inf, "matrix entries must be finite"),  # json -Infinity
}


def _identity_spec(n):
    return {"kind": "matrix", "re": np.eye(n).tolist(),
            "im": np.zeros((n, n)).tolist()}


@pytest.mark.parametrize("site", sorted(_MATRIX_SITES))
@pytest.mark.parametrize("entry", sorted(_BAD_MATRIX_ENTRIES))
def test_bad_matrix_entry_exit_2(tmp_path, capsys, site, entry):
    n, config = _MATRIX_SITES[site]
    value, message = _BAD_MATRIX_ENTRIES[entry]
    spec = _identity_spec(n)
    spec["im"][n - 1][0] = value
    cfg = write_json(tmp_path / "config.json", config(spec))
    assert run_cli(tmp_path, site.split("_")[0], cfg) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("site", sorted(_MATRIX_SITES))
def test_matrix_shape_errors_exit_2(tmp_path, capsys, site):
    n, config = _MATRIX_SITES[site]
    ragged = _identity_spec(n)
    ragged["re"][0] = ragged["re"][0][:-1]
    small = dict(_identity_spec(n), im=np.zeros((n - 1, n - 1)).tolist())
    for spec, message in ((ragged, "bad matrix"), (small, f"matrix must be {n}x{n}")):
        cfg = write_json(tmp_path / "config.json", config(spec))
        assert run_cli(tmp_path, site.split("_")[0], cfg) == 2
        assert message in capsys.readouterr().err


def test_identity_matrix_specs_run(tmp_path, capsys):
    n, config = _MATRIX_SITES["grape_target"]
    cfg = write_json(tmp_path / "grape.json", config(_identity_spec(n)))
    assert run_cli(tmp_path, "grape", cfg) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 0
    # W = V = I makes C(t) = 1 at every time
    doc = dict(OTOC_DOC, w=_identity_spec(8), v=_identity_spec(8))
    cfg = write_json(tmp_path / "otoc.json", doc)
    assert run_cli(tmp_path, "otoc", cfg) == 0
    assert json.loads(capsys.readouterr().out)["min_abs_otoc"] == pytest.approx(
        1.0, abs=1e-12)


def _circuit(shape, gate):
    return {"shape": shape, "displacement_convention": "standard",
            "gates": [gate] if gate else []}


# every place that reads a JSON integer, fed a boolean: (subcommand, config,
# the error text that must name it)
_BOOLEAN_INTEGER_SITES = {
    "cli_int_field": ("grape", {"model": {"kind": "qubit"},
                                "target": {"kind": "identity"},
                                "n_segments": True, "dt_s": 1e-7},
                      "grape config: field 'n_segments' has the wrong type"),
    "trotter_steps_list": ("trotter", dict(TROTTER_DOC, steps_list=[50, True]),
                           "trotter config: 'steps_list' must be integers"),
    "gate_subsystem": ("run", _circuit([3], {"kind": "snap", "target": True,
                                             "theta": [0.0, 0.0, 0.0]}),
                       "snap gate field 'target' must be an integer index"),
    "cond_rotation_n": ("run", _circuit([2, 3], {
        "kind": "cond_rotation", "qubit": 0, "mode": 1, "n": True,
        "theta": 0.1, "phi": 0.0}),
        "cond_rotation gate field 'n' must be an integer"),
    "givens_m": ("run", _circuit([3], {"kind": "givens", "target": 0, "m": True,
                                       "n": 1, "theta": 0.1}),
                 "givens gate field 'm' must be an integer"),
    "phase_swap_n": ("run", _circuit([3], {"kind": "phase_swap", "target": 0,
                                           "m": 0, "n": True}),
                     "phase_swap gate field 'n' must be an integer"),
    "circuit_shape": ("run", _circuit([3, True], None),
                      "circuit 'shape' must be a non-empty list of integers"),
}


@pytest.mark.parametrize("site", sorted(_BOOLEAN_INTEGER_SITES))
def test_boolean_is_not_a_json_integer(tmp_path, capsys, site):
    command, doc, message = _BOOLEAN_INTEGER_SITES[site]
    cfg = write_json(tmp_path / "config.json", doc)
    assert run_cli(tmp_path, command, cfg) in (1, 2)
    assert message in capsys.readouterr().err


GRAPE_DOC = {"model": {"kind": "qubit"}, "target": {"kind": "identity"},
             "n_segments": 8, "dt_s": 1e-7}
SCHEDULE_DOC = {"dt_s": 1e-9, "controls": [{"carrier_hz": 0.0, "amps": [[0.0, 0.0]]}]}


def _with(doc, path, **fields):
    """A deep copy of doc with fields added to the object at path (a tuple
    of keys and list indices)."""
    doc = json.loads(json.dumps(doc))
    obj = doc
    for key in path:
        obj = obj[key]
    obj.update(fields)
    return doc


_CODE_TYPO = {k: v for k, v in CODE_DOC.items() if k != "n_trajectories"}

# every config object read from JSON, given a misspelled or extra field:
# (subcommand, or None for a PulseSchedule document, config, the field)
_UNKNOWN_FIELD_SITES = {
    "grape": ("grape", _with(GRAPE_DOC, (), iteration=3), "iteration"),
    "grape_model": ("grape", _with(GRAPE_DOC, ("model",), detunning_hz=1e5),
                    "detunning_hz"),
    "grape_model_dispersive": ("grape", _with(
        dict(GRAPE_DOC, model=TestGrape.DISPERSIVE), ("model",), cavity_driv=True),
        "cavity_driv"),
    "grape_target": ("grape", _with(GRAPE_DOC, ("target",), theta=[0.0, 0.0]),
                     "theta"),
    "code": ("code", dict(_CODE_TYPO, n_trajectory=4), "n_trajectory"),
    "trotter": ("trotter", _with(TROTTER_DOC, (), initial_levl=3), "initial_levl"),
    "otoc": ("otoc", _with(OTOC_DOC, (), time_s=[1.0]), "time_s"),
    "otoc_w": ("otoc", _with(OTOC_DOC, ("w",), phases=[0.0]), "phases"),
    "otoc_v": ("otoc", dict(OTOC_DOC, v={"kind": "fourier", "inverse": True}),
               "inverse"),
    "qst_wrapper": ("qst", _with(QST_SWEEP_DOC, (), delta_sweep=[0.0]), "delta_sweep"),
    "qst_transfer": ("qst", _with(QST_SWEEP_DOC, ("transfer",), detuning_hz=1e4),
                     "detuning_hz"),
    "qst_single_run": ("qst", _with(QST_SWEEP_DOC["transfer"], (), kapa_hz=1e6),
                       "kapa_hz"),
    "qst_waveform": ("qst", _with(QST_SWEEP_DOC, ("transfer", "emit_waveform"),
                                  kapa_hz=2e6), "kapa_hz"),
    "device": ("device", dict(PAPER_DEVICE, g_khz=1.0), "g_khz"),
    "circuit": ("run", {"shape": [3], "gate": []}, "gate"),
    "schedule": (None, _with(SCHEDULE_DOC, (), control=[]), "control"),
    "schedule_control": (None, _with(SCHEDULE_DOC, ("controls", 0), phase=0.0),
                         "phase"),
}


@pytest.mark.parametrize("site", sorted(_UNKNOWN_FIELD_SITES))
def test_unknown_field_exit_2(tmp_path, capsys, site):
    command, doc, name = _UNKNOWN_FIELD_SITES[site]
    message = f"unknown field '{name}'"
    if command is None:
        with pytest.raises(ParseError, match=message):
            pulse.PulseSchedule.from_json(json.dumps(doc))
        return
    cfg = write_json(tmp_path / "config.json", doc)
    assert run_cli(tmp_path, command, cfg) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# gate entries that ran with exit 0 (a wrong gate) or died with a raw
# traceback before gate entries were read by the shared reader: (circuit,
# the text that exit 2 must print)
_BAD_GATE_ENTRIES = {
    "fourier_invers": (_circuit([4], {"kind": "fourier", "target": 0, "invers": True}),
                       "fourier gate: unknown field 'invers'"),
    "givens_phi": (_circuit([3], {"kind": "givens", "target": 0, "m": 0, "n": 1,
                                  "theta": 0.4, "phi": 0.3}),
                   "givens gate: unknown field 'phi'"),
    "cond_rotation_qubit_is_mode": (
        _circuit([2, 3], {"kind": "cond_rotation", "qubit": 0, "mode": 0, "n": 1,
                          "theta": 1.0, "phi": 0.0}),
        "cond_rotation qubit and mode must differ"),
    "snap_string_phase": (_circuit([3], {"kind": "snap", "target": 0,
                                         "theta": [0, "a", 0]}),
                          "snap gate field 'theta' must be a list of numbers"),
    "snap_boolean_phase": (_circuit([3], {"kind": "snap", "target": 0,
                                          "theta": [0, True, 0]}),
                           "snap gate field 'theta' must be a list of numbers"),
    "multisnap_boolean_phase": (
        _circuit([3], {"kind": "multisnap", "targets": [0], "theta": [0, True, 0]}),
        "multisnap gate field 'theta' must be a list of numbers"),
}


@pytest.mark.parametrize("site", sorted(_BAD_GATE_ENTRIES))
def test_bad_gate_entry_exit_2(tmp_path, capsys, site):
    doc, message = _BAD_GATE_ENTRIES[site]
    cfg = write_json(tmp_path / "circ.json", doc)
    assert run_cli(tmp_path, "run", cfg) == 2
    err = capsys.readouterr().err
    assert "gate 0: " in err
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["circ.json"]


class TestArtifactPlumbing:
    def test_headers_record_provenance(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert run_cli(tmp_path, "trotter", cfg, seed=123) == 0
        comments, _, _ = read_csv(tmp_path / "trotter_convergence.csv")
        text = "\n".join(comments)
        assert "cavityq" in text
        assert "seed: 123" in text
        assert "input_sha256: " in text
        import hashlib

        digest = hashlib.sha256(
            (tmp_path / "trot.json").read_bytes()
        ).hexdigest()
        assert digest in text

    def test_json_format(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert cli.main([
            "--out", str(tmp_path), "--seed", "9", "--format", "json",
            "trotter", cfg,
        ]) == 0
        doc = json.loads((tmp_path / "trotter_convergence.json").read_text())
        assert doc["seed"] == 9
        assert doc["columns"] == ["steps", "dt_s", "infidelity"]
        assert len(doc["rows"]) == 3
        assert doc["rows"][0][0] == 50

    def test_out_directory_created(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        nested = tmp_path / "a" / "b"
        assert cli.main([
            "--out", str(nested), "--seed", "1", "trotter", cfg,
        ]) == 0
        assert (nested / "trotter_convergence.csv").exists()

    def test_shared_parser_keeps_calls_apart(self, tmp_path, capsys):
        # one parser serves every call of main in a process; no call's
        # options, nor a rejected call, reach the next one
        otoc_cfg = write_json(tmp_path / "otoc.json", OTOC_DOC)
        trot_cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        cli._parser.cache_clear()
        assert cli.main(["--out", str(tmp_path / "a"), "--format", "json",
                         "--seed", "5", "otoc", otoc_cfg]) == 0
        assert cli.main(["--out", str(tmp_path / "b"), "--seed", "1",
                         "trotter", trot_cfg]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "c"), "--seed", "-1",
                      "trotter", trot_cfg])
        assert exc.value.code == 2
        assert cli.main(["--out", str(tmp_path / "d"), "trotter", trot_cfg]) == 0
        assert cli._parser.cache_info().misses == 1

        doc = json.loads((tmp_path / "a" / "otoc_series.json").read_text())
        assert (doc["seed"], doc["threads"]) == (5, 1)
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "trotter_convergence.csv"]
        comments, _, _ = read_csv(tmp_path / "b" / "trotter_convergence.csv")
        assert "# seed: 1" in comments
        assert not (tmp_path / "c").exists()
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "trotter_convergence.csv"]
        comments, _, _ = read_csv(tmp_path / "d" / "trotter_convergence.csv")
        assert "# seed: 0" in comments and "# threads: 1" in comments

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported only by the non-Hermitian expm fallback
        code = "import sys, cavityq.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_entry_point(self, tmp_path):
        cfg = write_json(tmp_path / "dev.json", PAPER_DEVICE)
        proc = subprocess.run(
            [sys.executable, "-m", "cavityq", "device", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_fock"] == 5000


# ---------------------------------------------------------------------------
# the streamed column writer against the per-cell row writer it replaced

def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_cell(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _per_cell_artifact(args, columns: list[str], rows, input_sha: str) -> str:
    """The artifact text of the row-tuple writer, cell by cell."""
    meta = {
        "tool": "cavityq",
        "version": cli.__version__,
        "seed": args.seed,
        "threads": args.threads,
        "input_sha256": input_sha,
    }
    if args.format == "json":
        doc = dict(meta)
        doc["columns"] = columns
        doc["rows"] = [[_json_cell(v) for v in row] for row in rows]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [
        f"# cavityq {cli.__version__}",
        f"# seed: {args.seed}",
        f"# threads: {args.threads}",
        f"# input_sha256: {input_sha}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# a few values drawn often, so chunks hold repeats, plus any value at all
_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 0.1])
_FLOAT_CELLS = st.one_of(_SPECIAL_FLOATS, st.floats())
_INT_CELLS = st.one_of(st.sampled_from([0, 1, -1, 7]), st.integers(-2**63, 2**63 - 1))


# nan, a sign-bit NaN and a payload NaN, twice over
_ODD_NANS = np.tile(np.concatenate([
    [math.nan, np.copysign(math.nan, -1.0)],
    np.array([0x7ff8000000000001], dtype=np.uint64).view(float),
]), 2)


@st.composite
def _tables(draw):
    """(names, columns): one to four equal-length columns, each a Python
    list or a numpy array of one integer or float kind."""
    n_rows = draw(st.integers(0, 40))
    cells = lambda elements: draw(st.lists(elements, min_size=n_rows, max_size=n_rows))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["int", "int64", "int32", "uint64",
                                     "float", "float64", "float32"]))
        if kind == "int":
            columns.append(cells(_INT_CELLS))
        elif kind == "int64":
            columns.append(np.array(cells(_INT_CELLS), dtype=np.int64))
        elif kind == "int32":
            columns.append(np.array(cells(st.integers(-2**31, 2**31 - 1)), dtype=np.int32))
        elif kind == "uint64":
            columns.append(np.array(cells(st.integers(0, 2**64 - 1)), dtype=np.uint64))
        elif kind == "float":
            columns.append(cells(_FLOAT_CELLS))
        elif kind == "float64":
            columns.append(np.array(cells(_FLOAT_CELLS)))
        else:
            columns.append(np.array(cells(st.floats(width=32)), dtype=np.float32))
    return [f"c{i}" for i in range(len(columns))], columns


class TestArtifactWriter:
    @staticmethod
    def check(names, columns, fmt, chunk, seed=7, threads=1):
        with tempfile.TemporaryDirectory() as out:
            args = types.SimpleNamespace(out=out, seed=seed, threads=threads, format=fmt)
            with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
                path = cli._emit_artifact(args, "table", dict(zip(names, columns)), "ab12")
            got = Path(path).read_bytes()
        rows = list(zip(*columns))
        expected = _per_cell_artifact(args, names, rows, "ab12")
        assert got == expected.encode("utf-8")

    @settings(max_examples=150)
    @given(table=_tables(), fmt=st.sampled_from(["csv", "json"]),
           chunk=st.sampled_from([1, 2, 7, 100_000]),
           seed=st.integers(0, 2**40), threads=st.integers(1, 64))
    @example(table=(["a"], [[]]), fmt="json", chunk=2, seed=0, threads=1)
    @example(table=(["a"], [[]]), fmt="csv", chunk=2, seed=0, threads=1)
    @example(table=(["a", "b"], [[np.int64(3)], [-0.0]]), fmt="json", chunk=1,
             seed=0, threads=1)
    # -0.0 and 0.0 in one chunk: equal as floats, different text
    @example(table=(["a", "b"], [np.array([0.0, -0.0, 0.0, -0.0]), [-0.0, 0.0, -0.0, 0.0]]),
             fmt="csv", chunk=7, seed=0, threads=1)
    @example(table=(["a"], [np.array([-0.0, 0.0, 1.0, 0.0, -0.0])]), fmt="json", chunk=7,
             seed=0, threads=1)
    # NaNs with other bit patterns (sign bit, payload) still print nan / NaN
    @example(table=(["a", "b"], [_ODD_NANS, list(_ODD_NANS)]), fmt="csv", chunk=7,
             seed=0, threads=1)
    @example(table=(["a", "b"], [_ODD_NANS, list(_ODD_NANS)]), fmt="json", chunk=7,
             seed=0, threads=1)
    @example(table=(["a"], [np.array([0.1, -0.0, 0.1, 0.0, np.nan, 0.1], dtype=np.float32)]),
             fmt="csv", chunk=7, seed=0, threads=1)
    @example(table=(["a"], [np.array([0.1, -0.0, 0.1, np.inf, np.nan], dtype=np.float32)]),
             fmt="json", chunk=7, seed=0, threads=1)
    # chunks with no repeated value: -0.0, NaN and both infinities formatted in order
    @example(table=(["a"], [np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, -2.5])]),
             fmt="json", chunk=7, seed=0, threads=1)
    @example(table=(["a", "b"], [[-np.inf, -0.0, np.nan, 1e308], np.array(
        [np.inf, 0.1, -0.0, np.nan], dtype=np.float32)]), fmt="csv", chunk=7, seed=0,
             threads=1)
    # one value in rows on both sides of the chunk boundary after row 7
    @example(table=(["i", "f"], [[5] * 10, np.full(10, 0.1)]), fmt="csv", chunk=7,
             seed=0, threads=1)
    @example(table=(["i", "f"], [np.arange(10) // 4, [0.5] * 6 + [-0.0] * 4]), fmt="json",
             chunk=7, seed=0, threads=1)
    def test_matches_per_cell_writer(self, table, fmt, chunk, seed, threads):
        names, columns = table
        self.check(names, columns, fmt, chunk, seed, threads)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_code_shaped_table(self, fmt, chunk):
        # the layout of `cavityq code`: 40 trajectories x 50 steps that all
        # follow one no-jump path until a jump, so most cells repeat
        rng = np.random.default_rng(11)
        n_traj, steps = 40, 50
        jump_count = np.zeros((n_traj, steps), dtype=np.int64)
        mean_n = np.tile(4.0 * np.exp(-0.01 * np.arange(1, steps + 1)), (n_traj, 1))
        for i in range(0, n_traj, 3):
            first = int(rng.integers(steps))
            jump_count[i, first:] = 1 + (np.arange(steps - first) > 20)
            mean_n[i, first:] = rng.uniform(0.0, 4.0, steps - first)
        parity = np.where(jump_count % 2, -1.0, 1.0)
        assert len(set(mean_n.ravel().tolist())) < mean_n.size // 2
        columns = [np.repeat(rng.integers(0, 2**32, n_traj), steps),
                   np.tile(np.arange(1, steps + 1), n_traj),
                   jump_count.ravel(), parity.ravel(), mean_n.ravel()]
        self.check(["seed", "step", "jump_count", "parity", "mean_n"], columns, fmt,
                   chunk)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 100_000])
    def test_edge_cells(self, fmt, chunk):
        # nan, ±inf and -0.0 beside numpy and Python ints, in zero, one
        # and many rows
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 2.5, -1e-300, 1e300]
        ints = [np.int64(-5), np.int64(2**62), 0, 3, -(2**63), 2**63 - 1, 1, 1]
        for n in (0, 1, len(floats)):
            columns = [ints[:n], np.array(floats[:n]), floats[:n],
                       np.array([int(v) for v in ints[:n]], dtype=np.int64)]
            self.check(["i", "f", "g", "j"], columns, fmt, chunk)


# ---------------------------------------------------------------------------
# the command table: `--help` text, and one run of every subcommand

# `--help` of cavityq and of each subcommand at 80 columns
_SUBCOMMAND_HELP = """\
usage: cavityq {name} [-h] {arg}

positional arguments:
  {arg}

options:
  -h, --help   show this help message and exit
"""
HELP_TEXT = {
    "": """\
usage: cavityq [-h] [--out OUT] [--seed SEED] [--threads THREADS]
               [--format {csv,json}]
               {device,run,qst,grape,code,trotter,otoc} ...

Cavity-qudit simulation experiments.

positional arguments:
  {device,run,qst,grape,code,trotter,otoc}
    device              derived device quantities as JSON
    run                 run a circuit, emit basis probabilities
    qst                 state-transfer run or detuning sweep
    grape               piecewise-constant pulse optimization
    code                cat-state photon-loss trajectories
    trotter             splitting-error convergence sweep
    otoc                out-of-time-order correlator series

options:
  -h, --help            show this help message and exit
  --out OUT             output directory
  --seed SEED           rng seed recorded in every artifact
  --threads THREADS     recorded in artifact headers only; every command runs
                        in one thread, so rows do not depend on it
  --format {csv,json}   artifact format
""",
    "device": _SUBCOMMAND_HELP.format(name="device", arg="params_file"),
    "run": """\
usage: cavityq run [-h] [--state STATE] circuit_file

positional arguments:
  circuit_file

options:
  -h, --help     show this help message and exit
  --state STATE  comma-separated initial occupations (default all 0)
""",
    **{name: _SUBCOMMAND_HELP.format(name=name, arg="config_file")
       for name in ("qst", "grape", "code", "trotter", "otoc")},
}


@pytest.mark.parametrize("command", list(HELP_TEXT))
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]


# (command, config, artifact name or None, summary keys besides "output")
_ONE_RUN_EACH = [
    ("device", PAPER_DEVICE, None,
     {"chi_hz", "critical_photon_number", "max_fock", "snap_min_gate_time_s"}),
    ("run", {"shape": [4], "gates": [{"kind": "fourier", "target": 0}]},
     "run_probabilities", {"gates", "kept_rows", "total_probability"}),
    ("qst", QST_SWEEP_DOC["transfer"], "qst_sweep", {"eta", "fidelity"}),
    ("qst", QST_SWEEP_DOC, "qst_sweep",
     {"baseline_eta", "slope", "intercept", "r_squared"}),
    ("grape", {"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
               "n_segments": 8, "dt_s": 1e-7, "iterations": 5},
     "grape_trace", {"converged", "fidelity", "infidelity", "iterations"}),
    ("code", dict(CODE_DOC, steps=50), "code_trajectories",
     {"initial_parity", "n_trajectories", "total_jumps"}),
    ("trotter", TROTTER_DOC, "trotter_convergence", {"best_infidelity", "n_levels"}),
    ("otoc", OTOC_DOC, "otoc_series", {"min_abs_otoc", "n_levels"}),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_command_through_main(tmp_path, capsys, fmt):
    # the driver reads each config, writes the artifact the command names
    # (device writes none), adds its path as "output" and prints the summary
    assert {run[0] for run in _ONE_RUN_EACH} == set(HELP_TEXT) - {""}
    for i, (command, doc, artifact, keys) in enumerate(_ONE_RUN_EACH):
        out_dir = tmp_path / f"out{i}"
        cfg = write_json(tmp_path / f"{i}.json", doc)
        assert cli.main(["--out", str(out_dir), "--format", fmt, command, cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        if artifact is None:
            assert set(summary) == keys
            assert not out_dir.exists()
        else:
            assert set(summary) == keys | {"output"}
            assert summary["output"] == str(out_dir / f"{artifact}.{fmt}")
            assert [p.name for p in out_dir.iterdir()] == [f"{artifact}.{fmt}"]


@pytest.mark.parametrize("field", list(PAPER_DEVICE))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_device_non_finite_field_exit_2(tmp_path, capsys, field, value):
    cfg = write_json(tmp_path / "dev.json", dict(PAPER_DEVICE, **{field: value}))
    assert run_cli(tmp_path, "device", cfg) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite" in captured.err
