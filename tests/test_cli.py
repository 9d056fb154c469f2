import dataclasses
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityq import cli, errors, gates, pulse, qst, trotter
from cavityq.errors import NumericError, ParseError, StepSizeError, UsageError
from golden import CASES, fresh_python, readme_command, readme_example

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

    @pytest.mark.parametrize("learning_rate", [0, -0.1])
    def test_non_positive_learning_rate_exit_1(self, tmp_path, capsys, learning_rate):
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, learning_rate=learning_rate))
        assert run_cli(tmp_path, "grape", cfg) == 1
        assert "learning_rate must be positive and finite" in capsys.readouterr().err

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

    def test_huge_learning_rate_runs_without_a_warning(self, tmp_path, capsys):
        # printed "RuntimeWarning: overflow encountered in multiply" and
        # reported a schedule the simulator refuses; then gave up after 60
        # refused trials and returned its start after 0 iterations
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, target={"kind": "pauli_x"}, n_segments=20,
                              dt_s=1e-8, learning_rate=1e300))
        assert run_cli(tmp_path, "grape", cfg) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["iterations"] > 0 and out["fidelity"] > 0.999

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

    def test_bad_parity_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "code.json", dict(CODE_DOC, parity="x"))
        assert run_cli(tmp_path, "code", cfg) == 2
        assert capsys.readouterr().err == (
            "error: code config: sign must be one of ('+', '-'), got 'x'\n")

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
        for fmt in ("csv", "json"):
            artifacts = []
            for hash_seed in ("0", "1"):
                out = tmp_path / f"{fmt}-{hash_seed}"
                proc = fresh_python("-m", "cavityq", "--out", str(out), "--seed", "7",
                                    "--format", fmt, "code", cfg,
                                    env={"PYTHONHASHSEED": hash_seed})
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

    def test_bad_steps_list_exit_1(self, tmp_path, capsys):
        # steps_list is read by trotter_convergence, when the command computes
        doc = dict(TROTTER_DOC)
        doc["steps_list"] = [50, "many"]
        cfg = write_json(tmp_path / "trot.json", doc)
        assert run_cli(tmp_path, "trotter", cfg) == 1
        assert "steps must be a positive integer, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [("trotter", TROTTER_DOC), ("otoc", OTOC_DOC)])
    def test_initial_level_outside_exit_2(self, tmp_path, capsys, command, doc):
        cfg = write_json(tmp_path / "config.json", dict(doc, initial_level=8))
        assert run_cli(tmp_path, command, cfg) == 2
        assert f"{command} config: initial_level 8 outside [0, 8)" in capsys.readouterr().err

    def test_otoc_empty_time_grid_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "otoc.json", dict(OTOC_DOC, times_s=[]))
        assert run_cli(tmp_path, "otoc", cfg) == 2
        assert ("otoc config: times_s must be 1-D with at least 1 entry, got length 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "otoc_series.csv").exists()


def _raise(*args, **kwargs):
    raise AssertionError("otoc built a dense SNAP or Fourier matrix")


def test_otoc_builds_no_dense_snap_or_fourier(tmp_path, capsys, monkeypatch):
    # snap and fourier specs reach otoc_series as compiled one-gate circuits
    n = len(OTOC_DOC["diagonal"])
    theta = OTOC_DOC["v"]["theta"]
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    dense = {"w": f, "v": np.diag(np.exp(1j * np.array(theta)))}
    matrix_doc = dict(OTOC_DOC, **{name: {"kind": "matrix", "re": m.real.tolist(),
                                          "im": m.imag.tolist()} for name, m in dense.items()})
    assert run_cli(tmp_path / "matrix", "otoc", write_json(tmp_path / "m.json", matrix_doc)) == 0
    monkeypatch.setattr(gates, "fourier", _raise)
    monkeypatch.setattr(gates, "snap", _raise)
    doc = dict(OTOC_DOC, w={"kind": "fourier"})
    assert run_cli(tmp_path / "gates", "otoc", write_json(tmp_path / "g.json", doc)) == 0
    rows = {side: np.array(read_csv(tmp_path / side / "otoc_series.csv")[2], dtype=float)
            for side in ("matrix", "gates")}
    np.testing.assert_allclose(rows["gates"], rows["matrix"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["w", "v"])
def test_otoc_snap_phase_count_exit_2(tmp_path, capsys, name):
    doc = dict(OTOC_DOC, **{name: {"kind": "snap", "theta": [0.1, 0.2, 0.3]}})
    assert run_cli(tmp_path, "otoc", write_json(tmp_path / "otoc.json", doc)) == 2
    assert (f"otoc config {name}: gate 0: snap gate field 'theta' must be 1-D of length 8, "
            "got length 3") in capsys.readouterr().err


def test_grape_snap_phase_count_exit_2(tmp_path, capsys):
    doc = dict(GRAPE_DOC, target={"kind": "snap", "theta": [0.1, 0.2, 0.3]})
    assert run_cli(tmp_path, "grape", write_json(tmp_path / "grape.json", doc)) == 2
    assert "grape target: theta must be 1-D of length 2, got length 3" in capsys.readouterr().err


# "matrix" operator specs, read for the grape target and the otoc W and V:
# the site's config with a given spec in place, and the spec's size there
_MATRIX_SITES = {
    "grape_target": (2, lambda spec: {"model": {"kind": "qubit"}, "target": spec,
                                      "n_segments": 8, "dt_s": 1e-7}),
    "otoc_w": (8, lambda spec: dict(OTOC_DOC, w=spec)),
    "otoc_v": (8, lambda spec: dict(OTOC_DOC, v=spec)),
}

# an entry of im set to each value: the reason exit 2 must give, for a spec of size n
_BAD_MATRIX_ENTRIES = {
    "nan_string": ("nan", "field 'im' entries must be real numbers, got 'nan'"),
    "numeric_string": ("0.5", "field 'im' entries must be real numbers, got '0.5'"),
    "boolean": (True, "field 'im' entries must be real numbers, got True"),
    "null": (None, "field 'im' entries must be real numbers, got None"),
    "nested_list": ([0.0], "field 'im' must be {n}x{n}, got ragged rows"),
    "nan": (math.nan, "non-finite entries in field 'im'"),  # json NaN
    "infinity": (-math.inf, "non-finite entries in field 'im'"),  # json -Infinity
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
    assert message.format(n=n) in capsys.readouterr().err


@pytest.mark.parametrize("site", sorted(_MATRIX_SITES))
def test_matrix_shape_errors_exit_2(tmp_path, capsys, site):
    n, config = _MATRIX_SITES[site]
    ragged = _identity_spec(n)
    ragged["re"][0] = ragged["re"][0][:-1]
    small = dict(_identity_spec(n), im=np.zeros((n - 1, n - 1)).tolist())
    for spec, message in ((ragged, f"field 're' must be {n}x{n}, got ragged rows"),
                          (small, f"field 'im' must be {n}x{n}, got length {n - 1}")):
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
                      "n_segments must be a positive integer, got True"),
    "trotter_steps_list": ("trotter", dict(TROTTER_DOC, steps_list=[50, True]),
                           "steps must be a positive integer, got True"),
    "gate_subsystem": ("run", _circuit([3], {"kind": "snap", "target": True,
                                             "theta": [0.0, 0.0, 0.0]}),
                       "snap gate field 'target' must be an integer index"),
    "cond_rotation_n": ("run", _circuit([2, 3], {
        "kind": "cond_rotation", "qubit": 0, "mode": 1, "n": True,
        "theta": 0.1, "phi": 0.0}),
        "selector level must be an integer index, got True"),
    "givens_m": ("run", _circuit([3], {"kind": "givens", "target": 0, "m": True,
                                       "n": 1, "theta": 0.1}),
                 "level must be an integer index, got True"),
    "phase_swap_n": ("run", _circuit([3], {"kind": "phase_swap", "target": 0,
                                           "m": 0, "n": True}),
                     "level must be an integer index, got True"),
    "circuit_shape": ("run", _circuit([3, True], None),
                      "circuit shape invalid: subsystem dimension must be a positive integer, "
                      "got True"),
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
    # the README config of each command
    **{f"readme_{command}": (command, dict(json.loads(readme_example(heading)[0]),
                                           bogus_field=1), "bogus_field")
       for command, heading in CASES.items()},
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
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line
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
        "cond_rotation qubit and mode must be distinct, got (0, 0)"),
    "snap_string_phase": (_circuit([3], {"kind": "snap", "target": 0,
                                         "theta": [0, "a", 0]}),
                          "snap gate field 'theta' entries must be real numbers, got 'a'"),
    "snap_boolean_phase": (_circuit([3], {"kind": "snap", "target": 0,
                                          "theta": [0, True, 0]}),
                           "snap gate field 'theta' entries must be real numbers, got True"),
    "multisnap_boolean_phase": (
        _circuit([3], {"kind": "multisnap", "targets": [0], "theta": [0, True, 0]}),
        "multisnap gate field 'theta' entries must be real numbers, got True"),
    "multisnap_repeated_target": (
        _circuit([2, 3], {"kind": "multisnap", "targets": [1, 1], "theta": [0.0] * 9}),
        "multisnap gate field 'targets' must be distinct, got (1, 1)"),
    "controlled_increment_control_is_target": (
        _circuit([3, 3], {"kind": "controlled_increment", "control": 1, "target": 1}),
        "controlled_increment control and target must be distinct, got (1, 1)"),
    "controlled_increment_unequal_dims": (
        _circuit([3, 4], {"kind": "controlled_increment", "control": 0, "target": 1}),
        "controlled_increment needs equal control/target dims, got 3 and 4"),
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


# config faults found while a command reads its config: fields that read but
# do not fit together, and faulty fields named by the field (n_levels was
# reported as "subsystem dimension must be a positive integer", and the
# transfer config's own kappa_hz as the emit waveform's, whose sech rate
# defaults to it): (command, config, the one error line's text after "error: ")
_CONFIG_FAULTS = {
    "grape_model_without_kind": ("grape", dict(GRAPE_DOC, model={"detuning_hz": 0.0}),
                                 "grape model: missing field 'kind'"),
    "grape_pauli_x_on_dispersive": ("grape", dict(GRAPE_DOC, model=TestGrape.DISPERSIVE,
                                                  target={"kind": "pauli_x"}),
                                    "grape target: pauli_x needs a 2-level model"),
    "code_three_entry_alpha": ("code", dict(CODE_DOC, alpha=[2.0, 0.0, 0.0]),
                               "code config: alpha must be 1-D of length 2, got length 3"),
    "code_n_levels": ("code", dict(CODE_DOC, n_levels="x"),
                      "code config: n_levels: subsystem dimension must be a positive integer, "
                      "got 'x'"),
    "grape_dispersive_n_levels": (
        "grape", dict(GRAPE_DOC, model=dict(TestGrape.DISPERSIVE, n_levels="x")),
        "grape config: n_levels: subsystem dimension must be a positive integer, got 'x'"),
    "qst_kappa_hz": ("qst", _with(QST_SWEEP_DOC, ("transfer",), kappa_hz="x"),
                     "transfer config: kappa_hz must be a real number, got 'x'"),
    "qst_negative_kappa_hz": ("qst", _with(QST_SWEEP_DOC, ("transfer",), kappa_hz=-1),
                              "transfer config: kappa_hz must be positive and finite, got -1.0"),
}


@pytest.mark.parametrize("site", sorted(_CONFIG_FAULTS))
def test_config_fault_exit_2(tmp_path, capsys, site):
    command, doc, message = _CONFIG_FAULTS[site]
    cfg = write_json(tmp_path / "config.json", doc)
    assert run_cli(tmp_path, command, cfg) == 2
    assert _one_error_line(capsys) == f"error: {message}"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _field_paths(doc: dict):
    """The path of each field of a config and of each object nested in it,
    one level deep, "kind" fields aside."""
    for name, value in doc.items():
        if name != "kind":
            yield (name,)
        if isinstance(value, dict):
            yield from ((name, inner) for inner in value if inner != "kind")


# fields that only a command's computation reads, by the rule of the engine
# call they feed: a fault in one exits by its error root, 1 for the values
# below; a fault in any other field is found while the command reads its
# config and exits 2
_COMPUTATION_READ = {("grape", "iterations"), ("grape", "learning_rate"), ("grape", "tol"),
                     ("code", "steps"), ("code", "n_trajectories"), ("trotter", "t_total_s"),
                     ("trotter", "steps_list"), ("qst", "delta_sweep_hz")}
_WRONG_VALUES = {"str": "x", "true": True, "null": None, "object": {}}
_VALID_VALUES = {("cavity_drive", "true"), ("delta_sweep_hz", "null")}
_FIELD_CASES = [
    pytest.param(command, path, value, id=f"{command}-{'.'.join(path)}-{label}")
    for command, heading in CASES.items()
    for path in _field_paths(json.loads(readme_example(heading)[0]))
    for label, value in _WRONG_VALUES.items() if (path[-1], label) not in _VALID_VALUES]


@pytest.mark.parametrize("command, path, value", _FIELD_CASES)
def test_each_config_field_has_one_exit_code(tmp_path, capsys, command, path, value):
    # a field was read by a JSON type check and then by its call's rule, with
    # two exit codes: "n_segments": "x" exited 2 but 0 exited 1
    doc = json.loads(readme_example(CASES[command])[0])
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    cfg = write_json(tmp_path / "config.json", doc)
    code = 1 if (command, path[-1]) in _COMPUTATION_READ else 2
    assert run_cli(tmp_path, command, cfg) == code
    _one_error_line(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_no_config_field_is_typed_as_a_number(tmp_path, monkeypatch):
    # read_field is a plain isinstance check, under which a float type would
    # refuse a JSON 1; a number goes on as decoded, to the rule of its call
    read_field, seen = errors.read_field, []

    def traced(doc, name, types, what, *default):
        seen.append((f"{what}: {name}", types if isinstance(types, tuple) else (types,)))
        return read_field(doc, name, types, what, *default)

    monkeypatch.setattr(errors, "read_field", traced)
    names = set()
    for command, heading in CASES.items():
        names.update(path[-1] for path in _field_paths(json.loads(readme_example(heading)[0])))
        args = cli.build_parser().parse_args(readme_command(command, tmp_path))
        cli._command(command)(args, Path(getattr(args, cli._COMMANDS[command][0])).read_text())
    qst.qst_config_from_json(dict(QST_SWEEP_DOC["transfer"], emit_waveform={
        "kind": "sampled", "dt_s": 1e-6, "values": [0.0, 1e6, 0.0]}))
    pulse.PulseSchedule.from_json(pulse.PulseSchedule.from_json(json.dumps(SCHEDULE_DOC)).to_json())
    assert names | {"values", "controls", "amps", "carrier_hz"} <= {
        field.rsplit(": ", 1)[1] for field, _ in seen}
    assert [field for field, types in seen if {float, int} & set(types)] == []


def test_zero_threads_is_a_usage_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "grape.json", GRAPE_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "out"), "--threads", "0", "grape", cfg])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: --threads must be >= 1")
    assert not (tmp_path / "out").exists()


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
        proc = fresh_python("-c", "import sys, cavityq.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_entry_point(self, tmp_path):
        cfg = write_json(tmp_path / "dev.json", PAPER_DEVICE)
        proc = fresh_python("-m", "cavityq", "device", cfg)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["max_fock"] == 5000


# the numeric layer: the modules that import numpy
NUMERIC_MODULES = {f"cavityq.{m}" for m in
                   ("codes", "fock", "gates", "noise", "pulse", "qst", "trotter")}

# small configs of the six numeric commands, and the modules each one uses
NUMERIC_CONFIGS = {
    "run": ({"shape": [3], "gates": [{"kind": "fourier", "target": 0}]},
            {"fock", "gates"}),
    "qst": (QST_SWEEP_DOC["transfer"], {"qst"}),
    "grape": ({"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
               "n_segments": 4, "dt_s": 1e-8, "iterations": 2}, {"fock", "pulse"}),
    "code": (dict(CODE_DOC, steps=10, n_trajectories=1), {"codes", "noise"}),
    "trotter": (dict(TROTTER_DOC, steps_list=[5]), {"fock", "trotter"}),
    "otoc": (dict(OTOC_DOC, times_s=[0.0, 0.5]), {"gates", "trotter"}),
}

# the tail of a `python -c` script that runs `python -m cavityq <argv>`;
# the script's head imports runpy and sys
_RUN_CAVITYQ = ("sys.argv[0] = 'cavityq'; "
                "runpy.run_module('cavityq', run_name='__main__', alter_sys=True)")

# runs `python -m cavityq <argv>` and then lists sys.modules on stderr's last line
_RUN_MODULE = ("import atexit, runpy, sys; "
               "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); "
               + _RUN_CAVITYQ)


def _loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules loaded in a fresh interpreter once `python -c code argv`
    has ended; code must list them on the last line of stderr."""
    proc = fresh_python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


class TestImportContract:
    """`import cavityq` and `cavityq device` (on the README device config)
    load no numpy and no numeric module; every other command loads numpy and
    the modules it uses."""

    def test_device_command_loads_no_numpy(self, tmp_path):
        loaded = _loaded_modules(_RUN_MODULE, *readme_command("device", tmp_path))
        assert {"cavityq.cli", "cavityq.device"} <= loaded
        assert "numpy" not in loaded and not loaded & NUMERIC_MODULES

    def test_device_command_loads_no_hashlib(self, tmp_path):
        # device writes no artifact, so it never hashes its config
        assert "hashlib" not in _loaded_modules(_RUN_MODULE, *readme_command("device", tmp_path))

    def test_device_command_loads_no_dataclasses(self, tmp_path):
        # DeviceParams is a plain class: `dataclasses` and the `inspect` it
        # imports were 6–9 ms of the call's start-up
        loaded = _loaded_modules(_RUN_MODULE, *readme_command("device", tmp_path))
        assert not loaded & {"dataclasses", "inspect"}

    def test_bare_import_loads_no_submodule(self):
        loaded = _loaded_modules(
            "import sys, cavityq; print(*sys.modules, file=sys.stderr)")
        assert not {m for m in loaded if m.startswith(("cavityq.", "numpy"))}

    def test_submodule_loads_on_first_access(self):
        code = ("import sys, cavityq; "
                "rho = cavityq.noise.apply_channel(cavityq.noise.dephasing_channel("
                "0.0, 1e-3, 2), cavityq.noise.density_matrix(cavityq.basis_state(2, 1))); "
                "assert rho[1, 1] == 1; print(*sys.modules, file=sys.stderr)")
        loaded = _loaded_modules(code)
        assert {"cavityq.noise", "cavityq.fock", "numpy"} <= loaded
        assert "cavityq.cli" not in loaded

    @pytest.mark.parametrize("command", sorted(NUMERIC_CONFIGS))
    def test_numeric_command_loads_what_it_uses(self, tmp_path, command):
        # a fresh interpreter, so that cli.main itself makes the first
        # import of the numeric layer, which in-process tests never see
        doc, uses = NUMERIC_CONFIGS[command]
        cfg = write_json(tmp_path / "cfg.json", doc)
        loaded = _loaded_modules(_RUN_MODULE, "--out", str(tmp_path), command, cfg)
        assert {f"cavityq.{m}" for m in uses} | {"numpy"} <= loaded

    def test_star_import_binds_all(self):
        import cavityq
        namespace = {}
        exec("from cavityq import *", namespace)
        assert set(cavityq.__all__) <= set(namespace)
        assert set(cavityq.__all__) <= set(dir(cavityq))
        assert namespace["StateVector"] is cavityq.fock.StateVector
        assert namespace["__version__"] == cli.__version__ == "0.1.0"

    def test_fock_names_are_fock_objects(self):
        import cavityq
        assert cavityq.fock.StateVector is cavityq.StateVector
        assert cavityq.propagator is cavityq.fock.propagator
        assert cavityq.cli is cli

    @pytest.mark.parametrize("name", ["no_such_name", "shape_of", "np"])
    def test_unknown_attribute_raises(self, name):
        import cavityq
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(cavityq, name)
        assert not hasattr(cavityq, name)


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


def _code_shaped():
    """(names, columns) laid out as a `code` artifact: 3 trajectories of 6
    steps whose float column repeats -0.0, 0.0 and the odd NaNs."""
    floats = np.concatenate([[-0.0, 0.0, -0.0], _ODD_NANS[:3]])
    return ["seed", "step", "x"], [np.repeat([9, 2**40, 9], 6), np.tile(np.arange(1, 7), 3),
                                   np.tile(floats, 3)]


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
    # the layout of `cavityq code`: repeated and tiled int columns beside a
    # repeated float column of ±0.0 and odd NaNs, in chunks that split the runs
    @example(table=_code_shaped(), fmt="csv", chunk=5, seed=0, threads=1)
    @example(table=_code_shaped(), fmt="json", chunk=7, seed=0, threads=1)
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

    def test_each_distinct_key_formatted_once(self):
        # keyed on the values for ints and on the bit patterns for floats, so
        # -0.0 and 0.0 and each NaN pattern are separate keys
        ints = np.repeat([7, -3, 2**40], 5)
        floats = np.array([0.5, -0.0, 0.5, 0.0, -0.0, *_ODD_NANS, 0.5])
        for keys, values, to_text in ((ints, None, str), (floats.view(np.int64), floats, repr)):
            counting = mock.Mock(side_effect=to_text)
            texts = cli._format_once(keys, counting, values)
            cells = (keys if values is None else values).tolist()
            assert texts == list(map(to_text, cells))
            seen = np.array([call.args[0] for call in counting.call_args_list])
            assert counting.call_count == len(set(keys.tolist()))
            assert sorted(seen.view(keys.dtype).tolist()) == sorted(set(keys.tolist()))

    def test_chunk_without_repeats_formatted_in_order(self):
        floats = np.array([0.25, -0.0, 0.0, math.inf, *_ODD_NANS[:3]])
        counting = mock.Mock(side_effect=repr)
        assert cli._format_once(floats.view(np.int64), counting, floats) == list(
            map(repr, floats.tolist()))
        seen = np.array([call.args[0] for call in counting.call_args_list])
        assert seen.view(np.int64).tolist() == floats.view(np.int64).tolist()

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
    ("qst", {"transfer": QST_SWEEP_DOC["transfer"]}, "qst_sweep", {"eta", "fidelity"}),
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


@pytest.mark.parametrize("doc, message", [
    (dict(QST_SWEEP_DOC["transfer"], input_state=[[math.nan, 0.0], [1.0, 0.0]]),
     "transfer config: non-finite entries in field 'input_state'"),
    (dict(QST_SWEEP_DOC["transfer"], kappa_hz=math.inf),
     "kappa_hz must be positive and finite, got inf"),
    (_with(QST_SWEEP_DOC["transfer"], ("catch_waveform",), kappa_hz=math.inf),
     "catch waveform: kappa_hz must be positive and finite, got inf"),
], ids=["nan_input_state", "infinite_kappa", "infinite_sech_kappa"])
def test_qst_non_finite_field_exit_2(tmp_path, capsys, doc, message):
    cfg = write_json(tmp_path / "qst.json", doc)
    assert run_cli(tmp_path, "qst", cfg) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_grape_negative_iterations_exit_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "grape.json", dict(GRAPE_DOC, iterations=-1))
    assert run_cli(tmp_path, "grape", cfg) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "iterations must be a nonnegative integer, got -1" in captured.err


def _dense_otoc_doc(n: int) -> dict:
    """An n-level otoc config with a dense, seeded V matrix."""
    rng = np.random.default_rng(11)
    return {
        "diagonal": rng.uniform(-1.0, 1.0, n).tolist(),
        "kinetic_diagonal": rng.uniform(-1.0, 1.0, n).tolist(),
        "times_s": [0.0, 0.25, 0.5, 1.0, 2.0],
        "w": {"kind": "fourier"},
        "v": {"kind": "matrix", "re": rng.normal(size=(n, n)).tolist(),
              "im": rng.normal(size=(n, n)).tolist()},
    }


def test_otoc_artifact_does_not_depend_on_blas_threads(tmp_path):
    # a fresh CLI process pins BLAS to one thread before numpy loads, so an
    # outer OPENBLAS_NUM_THREADS, or none, leaves the bytes unchanged; at
    # N = 128, 400 times go in several time blocks
    doc = _dense_otoc_doc(128)
    for times in (doc["times_s"], np.linspace(0.0, 2.0, 400).tolist()):
        cfg = write_json(tmp_path / f"otoc-{len(times)}.json", dict(doc, times_s=times))
        artifacts = {}
        for threads in ("1", "2", None):
            out = tmp_path / f"{len(times)}-threads-{threads}"
            proc = fresh_python("-m", "cavityq", "--out", str(out), "otoc", cfg,
                                env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None})
            assert proc.returncode == 0, proc.stderr
            artifacts[threads] = (out / "otoc_series.csv").read_bytes()
        assert artifacts["2"] == artifacts["1"] and artifacts[None] == artifacts["1"]
        # four provenance lines and the header, then one row per time
        assert len(artifacts["1"].splitlines()) == 5 + len(times)


def test_code_without_loss_through_the_entry_point(tmp_path):
    # T1 = Infinity is no loss: no jumps, and the parity every row reports
    # stays put, across more than three 64-step blocks of the unraveling
    cfg = write_json(tmp_path / "no-loss.json", {
        "alpha": [2.0, 0.0], "n_levels": 20, "t1_s": math.inf, "dt_s": 4e-5, "steps": 200,
        "n_trajectories": 3})
    proc = fresh_python("-m", "cavityq", "--out", str(tmp_path / "out"), "code", cfg)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total_jumps"] == 0
    _, _, rows = read_csv(tmp_path / "out" / "code_trajectories.csv")
    assert len(rows) == 600
    assert len({row[3] for row in rows}) == 1


# circuits whose dense operators would be 16 TiB, 4 TiB and 64 GiB
_GATES_AT_THE_DIMENSION_CAP = {
    "controlled_increment": ([1024, 1024], [
        {"kind": "fourier", "target": 0},
        {"kind": "controlled_increment", "control": 0, "target": 1}]),
    "cond_rotation": ([2, 524288], [
        {"kind": "qubit_rotation", "target": 0, "theta": 1.0, "phi": 0.3},
        {"kind": "cond_rotation", "qubit": 0, "mode": 1, "n": 0, "theta": 1.0, "phi": 0.0}]),
    "givens": ([65536], [
        {"kind": "givens", "target": 0, "m": 0, "n": 65535, "theta": 0.7853981633974483}]),
}

# runs `python -m cavityq <argv>` in 3 GB of address space: the compiled
# kernels touch only the state
_RUN_IN_3_GB = ("import resource, runpy, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (3_000_000 << 10,) * 2); "
                + _RUN_CAVITYQ)


@pytest.mark.parametrize("gate", list(_GATES_AT_THE_DIMENSION_CAP))
def test_gates_at_the_dimension_cap_run_in_3_gb(tmp_path, gate):
    shape, circuit = _GATES_AT_THE_DIMENSION_CAP[gate]
    cfg = write_json(tmp_path / "circuit.json", {"shape": shape, "gates": circuit})
    proc = fresh_python("-c", _RUN_IN_3_GB, "--out", str(tmp_path), "run", cfg)
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["total_probability"] - 1) < 1e-12


def test_trotter_rows_do_not_depend_on_the_order_of_steps_list(tmp_path):
    # the README Trotter config with its steps_list in two orders, each in a
    # fresh `python -W error -m cavityq`: the same three rows, byte for byte
    config, _ = readme_example("Example Trotter config")
    rows = []
    for order in ("10, 20, 40", "40, 10, 20"):
        text = re.sub(r'"steps_list": \[[^]]*\]', f'"steps_list": [{order}]', config)
        assert f'"steps_list": [{order}]' in text
        cfg, out = tmp_path / f"trotter-{order[:2]}.json", tmp_path / f"order-{order[:2]}"
        cfg.write_text(text, encoding="utf-8")
        proc = fresh_python("-m", "cavityq", "--out", str(out), "trotter", str(cfg))
        assert proc.returncode == 0, proc.stderr
        # four provenance lines and the header, then one data row per step count
        lines = (out / "trotter_convergence.csv").read_bytes().splitlines(keepends=True)
        rows.append(sorted(lines[5:]))
        assert len(rows[-1]) == 3
    assert rows[0] == rows[1]


# t_total_s or a diagonal entry whose phases overflow: exit 3 before any
# RuntimeWarning; 1e308 wrote infidelity 0.0 and exited 0
_TROTTER_OVERFLOW_CASES = {
    # every step phase within MAX_PHASE_RAD, max|E|*t = 3.1e6 rad above it
    "t_total": (dict(TROTTER_DOC, t_total_s=1e6), "t_total_s 1000000.0: the phase max|E|*t"),
    "t_total_one_step": (dict(TROTTER_DOC, t_total_s=1e308, steps_list=[1, 2]),
                         "t_total_s 1e+308: the step phase"),
    "diagonal": (dict(TROTTER_DOC, diagonal=[1e308] + TROTTER_DOC["diagonal"][1:]),
                 "t_total_s 1.0: the step phase"),
}


@pytest.mark.parametrize("case", list(_TROTTER_OVERFLOW_CASES))
def test_trotter_phase_overflow_exits_3_with_one_error_line(tmp_path, capsys, case):
    doc, fragment = _TROTTER_OVERFLOW_CASES[case]
    cfg = write_json(tmp_path / "trotter.json", doc)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "trotter", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and fragment in line
    assert not out.exists()


# configs whose derived sizes or values overflow: (command, config, exit code,
# a fragment of the one error line)
_OVERFLOW_CASES = {
    "qst_span_start": ("qst", dict(QST_SWEEP_DOC["transfer"], t_span_s=[-1e308, 2e-5]),
                       4, "t_span_s (-1e+308, 2e-05) over dt_s 4e-08"),
    "qst_span_both": ("qst", dict(QST_SWEEP_DOC["transfer"], t_span_s=[-1e308, 1e308]),
                      4, "is not a finite step count"),
    "qst_span_steps": ("qst", dict(QST_SWEEP_DOC["transfer"], t_span_s=[-1e300, 2e-5]),
                       4, "t_span_s (-1e+300, 2e-05) over dt_s 4e-08 is 2.5e+307 RK4 steps"),
    "code_alpha": ("code", dict(CODE_DOC, alpha=[1e308, 0]),
                   2, "cat state has no support at this truncation"),
    "device_g_large": ("device", dict(PAPER_DEVICE, g_hz=1e308),
                       3, "chi_hz is not finite"),
    "device_g_small": ("device", dict(PAPER_DEVICE, g_hz=5e-192),
                       3, "critical_photon_number is not finite"),
    "otoc_time": ("otoc", dict(OTOC_DOC, times_s=[0.0, -1e308]),
                  3, "times_s entry -1e+308"),
    # NaN and Infinity, which the JSON decoder accepts, named before any arithmetic
    "run_snap_theta": ("run", {"shape": [3], "gates": [
        {"kind": "snap", "target": 0, "theta": [0.0, math.inf, 0.0]}]},
                       2, "gate 0: non-finite entries in snap gate field 'theta'"),
    # gate angles and amplitudes: a traceback and exit 1 for the rotations' math
    # domain error, exit 3 "non-finite entries in amplitudes" for alpha and beta
    "run_rotation_theta": ("run", {"shape": [2], "gates": [
        {"kind": "qubit_rotation", "target": 0, "theta": math.inf, "phi": 0.0}]},
                           2, "gate 0: theta must be finite, got inf"),
    "run_givens_theta": ("run", {"shape": [3], "gates": [
        {"kind": "givens", "target": 0, "m": 0, "n": 2, "theta": -math.inf}]},
                         2, "gate 0: theta must be finite, got -inf"),
    "run_cond_rotation_phi": ("run", {"shape": [2, 3], "gates": [
        {"kind": "cond_rotation", "qubit": 0, "mode": 1, "n": 1, "theta": 1.0, "phi": math.nan}]},
                              2, "gate 0: phi must be finite, got nan"),
    "run_displacement_alpha": ("run", {"shape": [4], "gates": [
        {"kind": "displacement", "target": 0, "alpha": math.inf}]},
                               2, "gate 0: alpha must be finite"),
    "run_ecd_beta": ("run", {"shape": [2, 4], "gates": [
        {"kind": "ecd", "qubit": 0, "mode": 1, "beta": [math.nan, 0.0]}]},
                     2, "gate 0: non-finite entries in ecd gate field 'beta'"),
    "code_alpha_nan": ("code", dict(CODE_DOC, alpha=[math.nan, 0]),
                       2, "code config: non-finite entries in alpha"),
    "code_t1_nan": ("code", dict(CODE_DOC, t1_s=math.nan), 2, "t1_s must be positive, got nan"),
    # "invalid value encountered in multiply" before the error line
    "grape_chi": ("grape", dict(GRAPE_DOC, model={"kind": "dispersive", "chi_hz": 1e308,
                                                  "n_levels": 3}),
                  2, "chi_hz 1e+308: the drift's largest entry 2*pi*chi_hz*(n_levels-1)"),
    "grape_dt": ("grape", dict(GRAPE_DOC, dt_s=1e308),
                 3, "dt_s 1e+308 overflows the drive area 2*pi*dt_s"),
    # six RuntimeWarnings, then exit 0 with "fidelity": NaN and a row 0,nan,0.0
    "grape_segment_phase": ("grape", {"model": {"kind": "qubit", "detuning_hz": 1e10},
                                      "target": {"kind": "pauli_x"}, "n_segments": 4,
                                      "dt_s": 1e300, "iterations": 2},
                            3, "dt_s 1e+300: the segment phase d*max|H|*dt_s is "),
    "otoc_snap_theta": ("otoc", dict(OTOC_DOC, w={"kind": "snap", "theta": [
        0.1, math.nan, 2.2, 0.4, 1.9, 2.8, 0.7, 1.1]}),
                        2, "otoc config w: gate 0: non-finite entries in snap gate field"),
    "grape_snap_theta": ("grape", dict(GRAPE_DOC, target={"kind": "snap",
                                                          "theta": [0.0, math.nan]}),
                         2, "grape target: non-finite entries in theta"),
    "code_t1_dt_inf": ("code", dict(CODE_DOC, t1_s=math.inf, dt_s=math.inf),
                       2, "dt_s must be positive and finite, got inf"),
}


@pytest.mark.parametrize("case", list(_OVERFLOW_CASES))
def test_overflow_exits_with_one_error_line(tmp_path, capsys, case):
    command, doc, code, fragment = _OVERFLOW_CASES[case]
    cfg = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), command, cfg]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and fragment in line
    assert not out.exists()


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


# a detuning whose |delta|*dt/2 = 4.29 leaves RK4's stability interval: nine
# RuntimeWarnings and eta NaN with exit 0, or a row "2147483648.0,nan,0.0"
_FAST_TRANSFER = dict(QST_SWEEP_DOC["transfer"], dt_s=4e-9)
_UNSTABLE_DETUNING = {
    "run": dict(_FAST_TRANSFER, delta_omega_hz=2147483648),
    "sweep": {"transfer": _FAST_TRANSFER, "delta_sweep_hz": [0.0, 1e5, 2147483648]},
}


@pytest.mark.parametrize("case", list(_UNSTABLE_DETUNING))
def test_qst_detuning_beyond_rk4_stability_exits_3(tmp_path, capsys, case):
    cfg = write_json(tmp_path / "qst.json", _UNSTABLE_DETUNING[case])
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "qst", cfg]) == 3
    message = "delta_omega_hz 2147483648.0: |delta_omega_hz|*dt/2 = 4.29 exceeds RK4's"
    assert message in _one_error_line(capsys)
    assert not out.exists()
    config = qst.qst_config_from_json(_FAST_TRANSFER)
    with pytest.raises(StepSizeError, match=re.escape(message)):
        qst.simulate_transfer(dataclasses.replace(config, delta_omega_hz=2147483648.0))
    with pytest.raises(StepSizeError, match=re.escape(message)):
        qst.detuning_sweep(config, [0.0, 1e5, 2147483648.0])
    # and an eta that is not finite is refused, not clamped into a row
    with pytest.raises(NumericError, match="non-finite eta"):
        qst._final_eta(complex(math.nan, 0.0))


@pytest.mark.parametrize("deltas, code, message", [
    (["x", 0], 1, "delta_sweep_hz entries must be real numbers, got 'x'"),
    ([10**400, 0], 3, "delta_sweep_hz holds a number too large for a float"),
    ([0.0], 1, "delta_sweep_hz must be 1-D with at least 2 entries, got length 1"),
], ids=["str", "big", "short"])
def test_qst_sweep_fault_names_delta_sweep_hz(tmp_path, capsys, deltas, code, message):
    # both named the library's argument, delta_list, which no config holds
    cfg = write_json(tmp_path / "qst.json", dict(QST_SWEEP_DOC, delta_sweep_hz=deltas))
    assert run_cli(tmp_path, "qst", cfg) == code
    assert _one_error_line(capsys) == f"error: {message}"


# |values| whose squares sum to 0 or overflow: np.polyfit's column scale
# underflowed (a LinAlgError traceback, exit 1) or overflowed (RuntimeWarnings)
_UNFITTABLE_SWEEPS = {
    "underflow": (QST_SWEEP_DOC["transfer"], [0.0, 1e-300]),
    "overflow": ({"kappa_hz": 2e150, "t_span_s": [-1e-149, 1e-149], "dt_s": 4e-155,
                  "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}},
                 [0.0, 1.5e154]),
}


@pytest.mark.parametrize("case", list(_UNFITTABLE_SWEEPS))
def test_qst_sweep_unfittable_detunings_exit_1(tmp_path, capsys, case):
    transfer, deltas = _UNFITTABLE_SWEEPS[case]
    cfg = write_json(tmp_path / "qst.json", {"transfer": transfer, "delta_sweep_hz": deltas})
    assert run_cli(tmp_path, "qst", cfg) == 1
    assert "squares sum to a finite nonzero float" in _one_error_line(capsys)
    with pytest.raises(UsageError, match="squares sum to a finite nonzero float"):
        qst.detuning_sweep(qst.qst_config_from_json(transfer), deltas)


# an amplitude whose phase |alpha|*max(Lambda) overflows: three RuntimeWarnings,
# then "non-finite entries in amplitudes"; now refused before any array product
_OVERFLOWING_DISPLACEMENTS = {
    "displacement": ({"shape": [4], "gates": [
        {"kind": "displacement", "target": 0, "alpha": [1e308, 0.2]}]},
                     "gate 0: alpha: the displacement phase",
                     lambda: gates.displacement(1e308, 4), "alpha"),
    "ecd": ({"shape": [2, 16], "gates": [
        {"kind": "ecd", "qubit": 0, "mode": 1, "beta": [1e308, 0.0]}]},
            "gate 0: beta: the displacement phase",
            lambda: gates.ecd(1e308, 16), "beta"),
}


@pytest.mark.parametrize("case", list(_OVERFLOWING_DISPLACEMENTS))
def test_displacement_phase_overflow_exits_2(tmp_path, capsys, case):
    doc, fragment, build, name = _OVERFLOWING_DISPLACEMENTS[case]
    cfg = write_json(tmp_path / "run.json", doc)
    assert run_cli(tmp_path, "run", cfg) == 2
    assert fragment in _one_error_line(capsys)
    with pytest.raises(NumericError, match=f"^{name}: the displacement phase"):
        build()


class TestParseThenCompute:
    @pytest.mark.parametrize("command", list(CASES))
    def test_computation_holds_no_config_text_or_dict(self, tmp_path, command):
        # the README config of each command, read as tests/golden.py reads it
        args = cli.build_parser().parse_args(readme_command(command, tmp_path))
        text = Path(getattr(args, cli._COMMANDS[command][0])).read_text(encoding="utf-8")
        compute = cli._command(command)(args, text)
        cells = [cell.cell_contents for cell in compute.__closure__ or ()]
        assert cells and not [c for c in cells if isinstance(c, (str, dict))]

    # command: (engine module, entry point, bytes of the dense operands it is
    # given); a dispersive model's three 64×64 operators and its target alone
    # take more than the config's text, so the operands are not counted
    RELEASE_CASES = {
        "otoc": (trotter, "otoc_series", lambda w, v, h, times, psi0: v.nbytes),
        "grape": (pulse, "grape_optimize", lambda model, target, schedule, **_: sum(
            op.matrix.nbytes for op in (target, model.drift, *model.controls))),
    }

    @pytest.mark.parametrize("command", list(RELEASE_CASES))
    def test_config_is_released_before_the_engine_runs(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # config text or decoded lists kept alive through the engine fail this
        doc = _dense_otoc_doc(128)
        if command == "grape":
            rng = np.random.default_rng(3)
            q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
            doc = {"model": {"kind": "dispersive", "chi_hz": 1e6, "n_levels": 32},
                   "target": {"kind": "matrix", "re": q.real.tolist(), "im": q.imag.tolist()},
                   "n_segments": 4, "dt_s": 1e-8, "iterations": 1}
        cfg = write_json(tmp_path / "config.json", doc)
        size = Path(cfg).stat().st_size
        module, entry, operand_bytes = self.RELEASE_CASES[command]
        engine, traced = getattr(module, entry), []

        def entered(*args, **kwargs):
            traced.append(tracemalloc.get_traced_memory()[0] - operand_bytes(*args, **kwargs))
            return engine(*args, **kwargs)

        monkeypatch.setattr(module, entry, entered)
        tracemalloc.start()
        try:
            assert run_cli(tmp_path, command, cfg) == 0
        finally:
            tracemalloc.stop()
        [held] = traced
        assert held < size, (held, size)
