import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from cavityq import cli

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
