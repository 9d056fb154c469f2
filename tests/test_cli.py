import dataclasses
import functools
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityq import cli, errors, gates, pulse, qst, trotter
from cavityq.errors import NumericError, StepSizeError, UsageError
from golden import CASES, fresh_python, readme_command, readme_example, run_cli

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
TRANSFER_DOC = QST_SWEEP_DOC["transfer"]

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

GRAPE_DOC = {"model": {"kind": "qubit"}, "target": {"kind": "identity"},
             "n_segments": 8, "dt_s": 1e-7}
DISPERSIVE = {"kind": "dispersive", "chi_hz": 1e6, "n_levels": 3}
SCHEDULE_DOC = {"dt_s": 1e-9, "controls": [{"carrier_hz": 0.0, "amps": [[0.0, 0.0]]}]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    """Split a CSV artifact into (comment lines, header fields, data rows)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


class TestDevice:
    def test_paper_parameter_set(self, tmp_path):
        cfg = write_json(tmp_path / "dev.json", PAPER_DEVICE)
        run = run_cli(tmp_path, "device", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        assert out["critical_photon_number"] == 10000.0
        assert out["max_fock"] == 5000
        assert out["snap_min_gate_time_s"] == pytest.approx(
            2 * np.pi / 50e3, rel=1e-12
        )

    def test_t1_min_above_the_photon_lifetime_is_max_fock_zero(self, tmp_path):
        # printed max_fock's UserWarning, which named a line inside the
        # package, to say what "max_fock": 0 says
        cfg = write_json(tmp_path / "dev.json", dict(_README_CONFIGS["device"], t1_min_s=2.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = run_cli(tmp_path, "device", cfg)
        assert (run.code, run.stderr, caught) == (0, [], [])
        assert json.loads(run.stdout)["max_fock"] == 0


class TestRun:
    def empty_circuit(self, tmp_path):
        return write_json(
            tmp_path / "circ.json",
            {"shape": [3], "displacement_convention": "standard", "gates": []},
        )

    def test_empty_circuit_single_row(self, tmp_path):
        cfg = self.empty_circuit(tmp_path)
        assert run_cli(tmp_path, "run", cfg).code == 0
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
        assert run_cli(tmp_path, "run", cfg).code == 0
        _, _, rows = read_csv(tmp_path / "run_probabilities.csv")
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        for r in rows:
            assert float(r[1]) == pytest.approx(0.25, abs=1e-12)

    def test_custom_initial_state(self, tmp_path):
        cfg = self.empty_circuit(tmp_path)
        assert run_cli(tmp_path, "run", cfg, "--state", "2").code == 0
        _, _, rows = read_csv(tmp_path / "run_probabilities.csv")
        assert rows == [["2", "1.0"]]


class TestQst:
    def test_single_run_row(self, tmp_path):
        cfg = write_json(tmp_path / "qst.json", TRANSFER_DOC)
        run = run_cli(tmp_path, "qst", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        assert out["eta"] >= 0.999
        _, header, rows = read_csv(tmp_path / "qst_sweep.csv")
        assert header == ["delta_omega_hz", "eta", "sqrt_one_minus_eta"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) >= 0.999

    def test_sweep_fit_quality(self, tmp_path):
        cfg = write_json(tmp_path / "qst.json", QST_SWEEP_DOC)
        run = run_cli(tmp_path, "qst", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        assert out["r_squared"] >= 0.99
        assert out["baseline_eta"] >= 0.999
        _, _, rows = read_csv(tmp_path / "qst_sweep.csv")
        assert len(rows) == len(QST_SWEEP_DOC["delta_sweep_hz"])

    def test_threads_preserve_row_data(self, tmp_path):
        cfg = write_json(tmp_path / "qst.json", QST_SWEEP_DOC)
        assert run_cli(tmp_path, "qst", cfg).code == 0
        _, _, rows1 = read_csv(tmp_path / "qst_sweep.csv")
        assert run_cli(tmp_path, "--threads", "3", "qst", cfg).code == 0
        _, _, rows3 = read_csv(tmp_path / "qst_sweep.csv")
        assert rows1 == rows3


class TestGrape:
    def test_identity_converges_at_iteration_zero(self, tmp_path):
        cfg = write_json(tmp_path / "grape.json", GRAPE_DOC)
        run = run_cli(tmp_path, "grape", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        assert out["converged"] is True
        assert out["iterations"] == 0
        assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)
        _, header, rows = read_csv(tmp_path / "grape_trace.csv")
        assert header == ["iteration", "infidelity", "step_size"]
        assert len(rows) == 1

    def test_x_gate_target(self, tmp_path):
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, target={"kind": "pauli_x"}, n_segments=16,
                              iterations=300))
        run = run_cli(tmp_path, "grape", cfg)
        assert run.code == 0
        assert json.loads(run.stdout)["infidelity"] < 1e-6

    def test_huge_learning_rate_runs_without_a_warning(self, tmp_path):
        # printed "RuntimeWarning: overflow encountered in multiply" and
        # reported a schedule the simulator refuses; then gave up after 60
        # refused trials and returned its start after 0 iterations
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, target={"kind": "pauli_x"}, n_segments=20,
                              dt_s=1e-8, learning_rate=1e300))
        run = run_cli(tmp_path, "grape", cfg)
        assert (run.code, run.stderr) == (0, [])
        out = json.loads(run.stdout)
        assert out["iterations"] > 0 and out["fidelity"] > 0.999

    def test_dispersive_identity_converges_at_iteration_zero(self, tmp_path):
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, model=DISPERSIVE, n_segments=10))
        run = run_cli(tmp_path, "grape", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        assert out["converged"] is True
        assert out["iterations"] == 0
        assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_dispersive_snap_target(self, tmp_path):
        # one phase per basis state of the (2, 3) qubit-cavity space
        theta = [0.0, 0.7, -1.1, 0.0, 0.7, -1.1]
        cfg = write_json(tmp_path / "grape.json",
                         dict(GRAPE_DOC, model=DISPERSIVE, target={"kind": "snap", "theta": theta},
                              n_segments=20, dt_s=5e-8, iterations=15))
        run = run_cli(tmp_path, "grape", cfg)
        assert run.code == 0
        out = json.loads(run.stdout)
        _, header, rows = read_csv(tmp_path / "grape_trace.csv")
        infid = [float(r[1]) for r in rows]
        assert infid == sorted(infid, reverse=True)
        assert infid[-1] == pytest.approx(out["infidelity"], rel=1e-10)
        assert out["infidelity"] < infid[0]


class TestCode:
    def test_parity_flips_at_first_jump(self, tmp_path):
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        run = run_cli(tmp_path, "--seed", "7", "code", cfg)
        assert run.code == 0
        assert json.loads(run.stdout)["total_jumps"] >= 1
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
            assert run_cli(tmp_path, "--seed", "7", "--threads", "2", "--format", fmt,
                           "code", cfg).code == 0
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
        assert run_cli(tmp_path, "--seed", "7", "code", cfg).code == 0
        first = (tmp_path / "code_trajectories.csv").read_bytes()
        assert run_cli(tmp_path, "--seed", "7", "code", cfg).code == 0
        assert (tmp_path / "code_trajectories.csv").read_bytes() == first

    def test_different_seed_changes_trajectories(self, tmp_path):
        cfg = write_json(tmp_path / "code.json", CODE_DOC)
        assert run_cli(tmp_path, "--seed", "7", "code", cfg).code == 0
        first = (tmp_path / "code_trajectories.csv").read_bytes()
        assert run_cli(tmp_path, "--seed", "8", "code", cfg).code == 0
        assert (tmp_path / "code_trajectories.csv").read_bytes() != first


class TestTrotterCommands:
    def test_convergence_rows_improve(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert run_cli(tmp_path, "trotter", cfg).code == 0
        _, header, rows = read_csv(tmp_path / "trotter_convergence.csv")
        assert header == ["steps", "dt_s", "infidelity"]
        infids = [float(r[2]) for r in rows]
        assert infids[0] > infids[1] > infids[2]

    def test_otoc_series(self, tmp_path):
        cfg = write_json(tmp_path / "otoc.json", OTOC_DOC)
        assert run_cli(tmp_path, "otoc", cfg).code == 0
        _, header, rows = read_csv(tmp_path / "otoc_series.csv")
        assert header == ["t_s", "re_otoc", "im_otoc", "abs_otoc"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
        assert all(float(r[3]) <= 1 + 1e-12 for r in rows)


def _raise(*args, **kwargs):
    raise AssertionError("otoc built a dense SNAP or Fourier matrix")


def test_otoc_builds_no_dense_snap_or_fourier(tmp_path, monkeypatch):
    # snap and fourier specs reach otoc_series as compiled one-gate circuits
    n = len(OTOC_DOC["diagonal"])
    theta = OTOC_DOC["v"]["theta"]
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    dense = {"w": f, "v": np.diag(np.exp(1j * np.array(theta)))}
    matrix_doc = dict(OTOC_DOC, **{name: {"kind": "matrix", "re": m.real.tolist(),
                                          "im": m.imag.tolist()} for name, m in dense.items()})
    assert run_cli(tmp_path / "matrix", "otoc",
                   write_json(tmp_path / "m.json", matrix_doc)).code == 0
    monkeypatch.setattr(gates, "fourier", _raise)
    monkeypatch.setattr(gates, "snap", _raise)
    doc = dict(OTOC_DOC, w={"kind": "fourier"})
    assert run_cli(tmp_path / "gates", "otoc", write_json(tmp_path / "g.json", doc)).code == 0
    rows = {side: np.array(read_csv(tmp_path / side / "otoc_series.csv")[2], dtype=float)
            for side in ("matrix", "gates")}
    np.testing.assert_allclose(rows["gates"], rows["matrix"], rtol=0, atol=1e-12)


def _identity_spec(n):
    return {"kind": "matrix", "re": np.eye(n).tolist(),
            "im": np.zeros((n, n)).tolist()}


def test_identity_matrix_specs_run(tmp_path):
    cfg = write_json(tmp_path / "grape.json", dict(GRAPE_DOC, target=_identity_spec(2)))
    run = run_cli(tmp_path, "grape", cfg)
    assert run.code == 0
    assert json.loads(run.stdout)["iterations"] == 0
    # W = V = I makes C(t) = 1 at every time
    doc = dict(OTOC_DOC, w=_identity_spec(8), v=_identity_spec(8))
    cfg = write_json(tmp_path / "otoc.json", doc)
    run = run_cli(tmp_path, "otoc", cfg)
    assert run.code == 0
    assert json.loads(run.stdout)["min_abs_otoc"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# config faults: every config that the command line refuses, one table under
# one error contract

def _set(doc, path: str, value):
    """A deep copy of doc with the field at path ("transfer.kappa_hz",
    "gates[0].theta[1]") set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    obj = doc
    for key in parents:
        obj = obj[key]
    obj[last] = value
    return doc


def _circuit(shape, *gate_list):
    return {"shape": shape, "gates": list(gate_list)}


def _field_paths(doc: dict):
    """The path of each field of a config and of each object nested in it,
    one level deep, "kind" fields aside."""
    for name, value in doc.items():
        if name != "kind":
            yield (name,)
        if isinstance(value, dict):
            yield from ((name, inner) for inner in value if inner != "kind")


class Fault(NamedTuple):
    """A config that the command line refuses: the exit code; the error
    line after "error: " and, on exit 2, after the object path of the key
    (`_object_path`), as a re.fullmatch pattern where a temporary path or
    interpreter text appears (None in a row of the README-field walk); the
    config, a dict written as JSON, raw text, or None for no file; the
    arguments after the config path; and the environment."""
    code: int
    line: str | re.Pattern | None
    config: dict | str | None
    argv: tuple = ()
    env: dict | None = None


# fields that only a command's computation reads, by the rule of the engine
# call they feed: a fault in one exits by its error root, 1 for the values
# below; a fault in any other field is found while the command reads its
# config and exits 2
_COMPUTATION_READ = {("grape", "iterations"), ("grape", "learning_rate"), ("grape", "tol"),
                     ("code", "steps"), ("code", "n_trajectories"), ("trotter", "t_total_s"),
                     ("trotter", "steps_list"), ("qst", "delta_sweep_hz")}
_WRONG_VALUES = {"str": "x", "true": True, "null": None, "object": {}}
_README_CONFIGS = {command: json.loads(readme_example(heading)[0])
                   for command, heading in CASES.items()}
_VALID_VALUES = {("cavity_drive", "true"), ("delta_sweep_hz", "null")}
# the fields that the README configs hold as objects: set to {}, one is an
# object whose fields are missing
_README_OBJECTS = {".".join((command, *path)) for command, doc in _README_CONFIGS.items()
                   for path in _field_paths(doc)
                   if isinstance(functools.reduce(dict.get, path, doc), dict)}

# the "matrix" operator specs, read for the grape target and the otoc W and V:
# (key prefix, size n, the config with a given spec in place)
_MATRIX_SITES = [
    ("grape.target", 2, lambda spec: dict(GRAPE_DOC, target=spec)),
    ("otoc.w", 8, lambda spec: dict(OTOC_DOC, w=spec)),
    ("otoc.v", 8, lambda spec: dict(OTOC_DOC, v=spec)),
]
# an entry of im set to each value, and the reason for a spec of size n
_BAD_MATRIX_ENTRIES = [
    ("nan", "field 'im' entries must be real numbers, got 'nan'"),
    ("0.5", "field 'im' entries must be real numbers, got '0.5'"),
    (True, "field 'im' entries must be real numbers, got True"),
    (None, "field 'im' entries must be real numbers, got None"),
    ([0.0], "field 'im' must be {n}x{n}, got ragged rows"),
    (math.nan, "non-finite entries in field 'im'"),  # JSON NaN
    (-math.inf, "non-finite entries in field 'im'"),  # JSON -Infinity
]

# a JSON integer too large for a float: a field read as a float ended in an
# OverflowError traceback and exit 1
BIG = 10**400
# a detuning whose |delta|*dt/2 = 4.29 leaves RK4's stability interval
_FAST_TRANSFER = dict(TRANSFER_DOC, dt_s=4e-9)
_RK4_LIMIT = ("delta_omega_hz 2147483648.0: |delta_omega_hz|*dt/2 = 4.29 exceeds RK4's "
              "stability limit 2*sqrt(2); reduce dt below 2.634e-09 s")
# a transfer whose rates make the detunings' squares overflow
_SCALED_TRANSFER = {"kappa_hz": 2e150, "t_span_s": [-1e-149, 1e-149], "dt_s": 4e-155,
                    "emit_waveform": {"kind": "sech"}, "catch_waveform": {"kind": "sech"}}
_UNFITTABLE = ("detunings must span more than one |value| to fit, with |values| whose "
               "squares sum to a finite nonzero float")
_PHASE_LIMIT = "above MAX_PHASE_RAD = 2**20 rad"

# keyed "<command>.<field path> <value>" (a fault that is not one field in
# the same shape); the rows of the README-field walk come first, and a
# hand-written row of the same key replaces one and adds its message
FAULTS = {
    # the README-field walk: a field read by a JSON type check and then by its
    # call's rule had two exit codes ("n_segments": "x" exited 2 but 0 exited 1)
    **{f"{command}.{'.'.join(path)} {value!r}": Fault(
        1 if (command, path[-1]) in _COMPUTATION_READ else 2, None,
        _set(doc, ".".join(path), value))
       for command, doc in _README_CONFIGS.items() for path in _field_paths(doc)
       for label, value in _WRONG_VALUES.items() if (path[-1], label) not in _VALID_VALUES},
    # an unknown field in each command's README config
    **{f"{command}.bogus_field 1": Fault(2, "unknown field 'bogus_field'",
                                         dict(_README_CONFIGS[command], bogus_field=1))
       for command in cli._COMMANDS},

    "device <missing file>": Fault(1, re.compile(
        r"cannot read (\S+): \[Errno 2\] No such file or directory: '\1'"), None),
    "device.t1_min_s <missing>": Fault(2, "missing field 't1_min_s'",
                                       {k: v for k, v in PAPER_DEVICE.items() if k != "t1_min_s"}),
    "device.g_khz 1.0": Fault(2, "unknown field 'g_khz'",
                              dict(PAPER_DEVICE, g_khz=1.0)),
    **{f"device.{field} {value!r}": Fault(
        2, f"{field} must be finite, got {value!r}",
        dict(PAPER_DEVICE, **{field: value}))
       for field in PAPER_DEVICE for value in (math.nan, math.inf, -math.inf)},
    "device.g_hz 1e+308": Fault(3, "chi_hz is not finite", dict(PAPER_DEVICE, g_hz=1e308)),
    "device.g_hz 5e-192": Fault(3, "critical_photon_number is not finite",
                                dict(PAPER_DEVICE, g_hz=5e-192)),
    "device.g_hz 10**400": Fault(2, "g_hz is too large for a float",
                                 dict(PAPER_DEVICE, g_hz=BIG)),

    "run <file> '{broken'": Fault(2, re.compile(r"invalid JSON: .+"), "{broken"),
    "run --state 'banana'": Fault(
        1, "state spec must be comma-separated occupation numbers, got 'banana'",
        _circuit([3]), ("--state", "banana")),
    "run.shape [3000000]": Fault(4, "total dimension 3000000 exceeds cap 1048576",
                                 _circuit([3000000])),
    "run.shape [100] CAVITYQ_DIM_CAP=64": Fault(4, "total dimension 100 exceeds cap 64",
                                                _circuit([100]), env={"CAVITYQ_DIM_CAP": "64"}),
    "run.shape [3, True]": Fault(
        2, "subsystem dimension must be a positive integer, got True",
        _circuit([3, True])),
    "run.gates[0].target 1 (shape [3, 4])": Fault(
        2, "controlled_increment needs equal control/target dims, got 3 and 4",
        _circuit([3, 4], {"kind": "controlled_increment", "control": 0, "target": 1})),
    "run.gate []": Fault(2, "unknown field 'gate'", {"shape": [3], "gate": []}),
    "run.gates[0].theta [0.0, 0.0]": Fault(
        2, "snap gate field 'theta' must be 1-D of length 3, got length 2",
        _circuit([3], {"kind": "snap", "target": 0, "theta": [0.0, 0.0]})),
    "run.gates[0].target True": Fault(
        2, "snap gate field 'target' must be an integer index, got True",
        _circuit([3], {"kind": "snap", "target": True, "theta": [0.0, 0.0, 0.0]})),
    "run.gates[0].n True (cond_rotation)": Fault(
        2, "selector level must be an integer index, got True",
        _circuit([2, 3], {"kind": "cond_rotation", "qubit": 0, "mode": 1, "n": True,
                          "theta": 0.1, "phi": 0.0})),
    "run.gates[0].m True": Fault(
        2, "level must be an integer index, got True",
        _circuit([3], {"kind": "givens", "target": 0, "m": True, "n": 1, "theta": 0.1})),
    "run.gates[0].n True (phase_swap)": Fault(
        2, "level must be an integer index, got True",
        _circuit([3], {"kind": "phase_swap", "target": 0, "m": 0, "n": True})),
    "run.gates[0].invers True": Fault(
        2, "fourier gate: unknown field 'invers'",
        _circuit([4], {"kind": "fourier", "target": 0, "invers": True})),
    "run.gates[0].phi 0.3": Fault(
        2, "givens gate: unknown field 'phi'",
        _circuit([3], {"kind": "givens", "target": 0, "m": 0, "n": 1, "theta": 0.4,
                       "phi": 0.3})),
    "run.gates[0].mode 0": Fault(
        2, "cond_rotation qubit and mode must be distinct, got (0, 0)",
        _circuit([2, 3], {"kind": "cond_rotation", "qubit": 0, "mode": 0, "n": 1,
                          "theta": 1.0, "phi": 0.0})),
    "run.gates[0].theta [0, 'a', 0]": Fault(
        2, "snap gate field 'theta' entries must be real numbers, got 'a'",
        _circuit([3], {"kind": "snap", "target": 0, "theta": [0, "a", 0]})),
    "run.gates[0].theta [0, True, 0] (snap)": Fault(
        2, "snap gate field 'theta' entries must be real numbers, got True",
        _circuit([3], {"kind": "snap", "target": 0, "theta": [0, True, 0]})),
    "run.gates[0].theta [0, True, 0] (multisnap)": Fault(
        2, "multisnap gate field 'theta' entries must be real numbers, got True",
        _circuit([3], {"kind": "multisnap", "targets": [0], "theta": [0, True, 0]})),
    "run.gates[0].targets [1, 1]": Fault(
        2, "multisnap gate field 'targets' must be distinct, got (1, 1)",
        _circuit([2, 3], {"kind": "multisnap", "targets": [1, 1], "theta": [0.0] * 9})),
    "run.gates[0].target 1": Fault(
        2, "controlled_increment control and target must be distinct, got (1, 1)",
        _circuit([3, 3], {"kind": "controlled_increment", "control": 1, "target": 1})),
    # NaN and Infinity, which the JSON decoder accepts, named before any
    # arithmetic; the rotations' angles ended in a math domain error traceback
    "run.gates[0].theta [0.0, inf, 0.0]": Fault(
        2, "non-finite entries in snap gate field 'theta'",
        _circuit([3], {"kind": "snap", "target": 0, "theta": [0.0, math.inf, 0.0]})),
    "run.gates[0].theta inf": Fault(
        2, "theta must be finite, got inf",
        _circuit([2], {"kind": "qubit_rotation", "target": 0, "theta": math.inf, "phi": 0.0})),
    "run.gates[0].theta -inf": Fault(
        2, "theta must be finite, got -inf",
        _circuit([3], {"kind": "givens", "target": 0, "m": 0, "n": 2, "theta": -math.inf})),
    "run.gates[0].phi nan": Fault(
        2, "phi must be finite, got nan",
        _circuit([2, 3], {"kind": "cond_rotation", "qubit": 0, "mode": 1, "n": 1,
                          "theta": 1.0, "phi": math.nan})),
    "run.gates[0].alpha inf": Fault(
        2, "alpha must be finite, got (inf+0j)",
        _circuit([4], {"kind": "displacement", "target": 0, "alpha": math.inf})),
    "run.gates[0].beta [nan, 0.0]": Fault(
        2, "non-finite entries in ecd gate field 'beta'",
        _circuit([2, 4], {"kind": "ecd", "qubit": 0, "mode": 1, "beta": [math.nan, 0.0]})),
    # the phase |alpha|*max(Lambda) overflowed: RuntimeWarnings, then exit 3
    "run.gates[0].alpha [1e+308, 0.2]": Fault(
        2, f"alpha: the displacement phase |amplitude|*max(Lambda) is inf rad, {_PHASE_LIMIT}",
        _circuit([4], {"kind": "displacement", "target": 0, "alpha": [1e308, 0.2]})),
    "run.gates[0].beta [1e+308, 0.0]": Fault(
        2, f"beta: the displacement phase |amplitude|*max(Lambda) is inf rad, {_PHASE_LIMIT}",
        _circuit([2, 16], {"kind": "ecd", "qubit": 0, "mode": 1, "beta": [1e308, 0.0]})),
    "run.gates[0].alpha 10**400": Fault(
        2, "alpha is too large for a float",
        _circuit([8], {"kind": "displacement", "target": 0, "alpha": BIG})),
    "run.gates[0].theta [0.0, 10**400, 0.0]": Fault(
        2, "snap gate field 'theta' holds a number too large for a float",
        _circuit([3], {"kind": "snap", "target": 0, "theta": [0.0, BIG, 0.0]})),
    **{f"run.gates[0].beta {beta!r}": Fault(2, reason, _circuit(
        [2, 3], {"kind": "ecd", "qubit": 0, "mode": 1, "beta": beta}))
       for beta, reason in [("x", "beta must be a complex number, got 'x'"),
                            (None, "beta must be a complex number, got None"),
                            (True, "beta must be a complex number, got True"),
                            ([1, "x"], "ecd gate field 'beta' entries must be real numbers, "
                                       "got 'x'")]},

    "qst.kappa_hz True": Fault(2, "kappa_hz must be a real number, got True",
                               dict(TRANSFER_DOC, kappa_hz=True)),
    "qst.kappa_hz inf": Fault(2, "kappa_hz must be positive and finite, got inf",
                              dict(TRANSFER_DOC, kappa_hz=math.inf)),
    "qst.kappa_hz 10**400": Fault(2, "kappa_hz is too large for a float",
                                  dict(TRANSFER_DOC, kappa_hz=BIG)),
    "qst.kapa_hz 1000000.0": Fault(2, "unknown field 'kapa_hz'",
                                   dict(TRANSFER_DOC, kapa_hz=1e6)),
    "qst.dt_s 1e-06": Fault(3, "max(kappa)*dt = 1 exceeds 0.05; reduce dt below 5.000e-08 s",
                            dict(TRANSFER_DOC, dt_s=1e-6)),
    "qst.input_state [[nan, 0.0], [1.0, 0.0]]": Fault(
        2, "non-finite entries in field 'input_state'",
        dict(TRANSFER_DOC, input_state=[[math.nan, 0.0], [1.0, 0.0]])),
    "qst.input_state [[0.0, 0.0], [10**400, 0.0]]": Fault(
        2, "field 'input_state' holds a number too large for a float",
        dict(TRANSFER_DOC, input_state=[[0.0, 0.0], [BIG, 0.0]])),
    "qst.catch_waveform.kappa_hz inf": Fault(
        2, "kappa_hz must be positive and finite, got inf",
        _set(TRANSFER_DOC, "catch_waveform.kappa_hz", math.inf)),
    **{f"qst.t_span_s {span!r}": Fault(4, f"t_span_s {tuple(span)!r} over dt_s 4e-08 {reason}",
                                       dict(TRANSFER_DOC, t_span_s=span))
       for span, reason in [([-1e308, 2e-5], "is not a finite step count"),
                            ([-1e308, 1e308], "is not a finite step count"),
                            ([-1e300, 2e-5], "is 2.5e+307 RK4 steps, above the cap of 1000000")]},
    "qst.delta_omega_hz 2147483648": Fault(3, _RK4_LIMIT,
                                           dict(_FAST_TRANSFER, delta_omega_hz=2147483648)),
    "qst.delta_sweep [0.0]": Fault(2, "unknown field 'delta_sweep'",
                                   dict(QST_SWEEP_DOC, delta_sweep=[0.0])),
    "qst.transfer.detuning_hz 10000.0": Fault(
        2, "unknown field 'detuning_hz'",
        _set(QST_SWEEP_DOC, "transfer.detuning_hz", 1e4)),
    "qst.transfer.emit_waveform.kapa_hz 2000000.0": Fault(
        2, "unknown field 'kapa_hz'",
        _set(QST_SWEEP_DOC, "transfer.emit_waveform.kapa_hz", 2e6)),
    "qst.transfer.kappa_hz 'x'": Fault(
        2, "kappa_hz must be a real number, got 'x'",
        _set(QST_SWEEP_DOC, "transfer.kappa_hz", "x")),
    "qst.transfer.kappa_hz -1": Fault(
        2, "kappa_hz must be positive and finite, got -1.0",
        _set(QST_SWEEP_DOC, "transfer.kappa_hz", -1)),
    # named the library's argument, delta_list, which no config holds
    "qst.delta_sweep_hz ['x', 0]": Fault(
        1, "delta_sweep_hz entries must be real numbers, got 'x'",
        dict(QST_SWEEP_DOC, delta_sweep_hz=["x", 0])),
    "qst.delta_sweep_hz [10**400, 0]": Fault(
        3, "delta_sweep_hz holds a number too large for a float",
        dict(QST_SWEEP_DOC, delta_sweep_hz=[BIG, 0])),
    "qst.delta_sweep_hz [0.0]": Fault(
        1, "delta_sweep_hz must be 1-D with at least 2 entries, got length 1",
        dict(QST_SWEEP_DOC, delta_sweep_hz=[0.0])),
    "qst.delta_sweep_hz [0.0, 100000.0, 2147483648]": Fault(
        3, _RK4_LIMIT, {"transfer": _FAST_TRANSFER, "delta_sweep_hz": [0.0, 1e5, 2147483648]}),
    # np.polyfit's column scale underflowed (a LinAlgError traceback, exit 1)
    # or overflowed (RuntimeWarnings)
    "qst.delta_sweep_hz [0.0, 1e-300]": Fault(
        1, _UNFITTABLE, dict(QST_SWEEP_DOC, delta_sweep_hz=[0.0, 1e-300])),
    "qst.delta_sweep_hz [0.0, 1.5e+154]": Fault(
        1, _UNFITTABLE, {"transfer": _SCALED_TRANSFER, "delta_sweep_hz": [0.0, 1.5e154]}),

    "grape.iteration 3": Fault(2, "unknown field 'iteration'",
                               dict(GRAPE_DOC, iteration=3)),
    "grape.n_segments True": Fault(
        2, "n_segments must be a positive integer, got True",
        dict(GRAPE_DOC, n_segments=True)),
    "grape.n_segments 0": Fault(2, "n_segments must be a positive integer, got 0",
                                dict(GRAPE_DOC, n_segments=0)),
    **{f"grape.learning_rate {rate!r}": Fault(
        1, f"learning_rate must be positive and finite, got {float(rate)!r}",
        dict(GRAPE_DOC, learning_rate=rate)) for rate in (0, -0.1)},
    "grape.iterations -1": Fault(1, "iterations must be a nonnegative integer, got -1",
                                 dict(GRAPE_DOC, iterations=-1)),
    "grape.dt_s 1e+308": Fault(3, "dt_s 1e+308 overflows the drive area 2*pi*dt_s",
                               dict(GRAPE_DOC, dt_s=1e308)),
    # six RuntimeWarnings, then exit 0 with "fidelity": NaN
    "grape.dt_s 1e+300": Fault(
        3, f"dt_s 1e+300: the segment phase d*max|H|*dt_s is inf rad, {_PHASE_LIMIT}",
        {"model": {"kind": "qubit", "detuning_hz": 1e10}, "target": {"kind": "pauli_x"},
         "n_segments": 4, "dt_s": 1e300, "iterations": 2}),
    "grape.dt_s 10**400": Fault(2, "dt_s is too large for a float",
                                dict(GRAPE_DOC, dt_s=BIG)),
    # json.loads raised a bare ValueError past 4300 digits
    "grape.dt_s 1<5000 zeros>": Fault(
        2, re.compile(r"invalid JSON: .+"),
        json.dumps(GRAPE_DOC).replace("1e-07", "1" + "0" * 5000)),
    "grape.model.kind <missing>": Fault(2, "missing field 'kind'",
                                        dict(GRAPE_DOC, model={"detuning_hz": 0.0})),
    "grape.model.detunning_hz 100000.0": Fault(
        2, "unknown field 'detunning_hz'",
        _set(GRAPE_DOC, "model.detunning_hz", 1e5)),
    "grape.model.cavity_driv True": Fault(
        2, "unknown field 'cavity_driv'",
        dict(GRAPE_DOC, model=dict(DISPERSIVE, cavity_driv=True))),
    "grape.model.n_levels 'x'": Fault(
        2, "n_levels: subsystem dimension must be a positive integer, got 'x'",
        dict(GRAPE_DOC, model=dict(DISPERSIVE, n_levels="x"))),
    # "invalid value encountered in multiply" before the error line
    "grape.model.chi_hz 1e+308": Fault(
        2, "chi_hz 1e+308: the drift's largest entry "
           "2*pi*chi_hz*(n_levels-1) overflows (n_levels = 3)",
        dict(GRAPE_DOC, model=dict(DISPERSIVE, chi_hz=1e308))),
    "grape.target.kind 'hadamard-ish'": Fault(
        2, "unknown kind 'hadamard-ish'",
        dict(GRAPE_DOC, target={"kind": "hadamard-ish"})),
    "grape.target.kind 'pauli_x'": Fault(  # on a dispersive model
        2, "pauli_x needs a 2-level model",
        dict(GRAPE_DOC, model=DISPERSIVE, target={"kind": "pauli_x"})),
    "grape.target.theta [0.0, 0.0]": Fault(  # on an identity target
        2, "unknown field 'theta'", _set(GRAPE_DOC, "target.theta", [0.0, 0.0])),
    "grape.target.theta [0.1, 0.2, 0.3]": Fault(
        2, "theta must be 1-D of length 2, got length 3",
        dict(GRAPE_DOC, target={"kind": "snap", "theta": [0.1, 0.2, 0.3]})),
    "grape.target.theta [0.0, 0.7, -1.1]": Fault(  # on a dispersive model
        2, "theta must be 1-D of length 6, got length 3",
        dict(GRAPE_DOC, model=DISPERSIVE, target={"kind": "snap", "theta": [0.0, 0.7, -1.1]})),
    "grape.target.theta [0.0, nan]": Fault(
        2, "non-finite entries in theta",
        dict(GRAPE_DOC, target={"kind": "snap", "theta": [0.0, math.nan]})),
    **{f"{site}.im[{n - 1}][0] {value!r}": Fault(
        2, reason.format(n=n), config(_set(_identity_spec(n), f"im[{n - 1}][0]", value)))
       for site, n, config in _MATRIX_SITES for value, reason in _BAD_MATRIX_ENTRIES},
    **{f"{site}.re[0] <one entry short>": Fault(
        2, f"field 're' must be {n}x{n}, got ragged rows",
        config(_set(_identity_spec(n), "re[0]", _identity_spec(n)["re"][0][:-1])))
       for site, n, config in _MATRIX_SITES},
    **{f"{site}.im <{n - 1}x{n - 1} zeros>": Fault(
        2, f"field 'im' must be {n}x{n}, got length {n - 1}",
        config(dict(_identity_spec(n), im=np.zeros((n - 1, n - 1)).tolist())))
       for site, n, config in _MATRIX_SITES},

    "code.parity 'x'": Fault(2, "sign must be one of ('+', '-'), got 'x'",
                             dict(CODE_DOC, parity="x")),
    "code.n_trajectory 4": Fault(2, "unknown field 'n_trajectory'", {
        k: v for k, v in CODE_DOC.items() if k != "n_trajectories"} | {"n_trajectory": 4}),
    "code.n_levels 'x'": Fault(
        2, "n_levels: subsystem dimension must be a positive integer, got 'x'",
        dict(CODE_DOC, n_levels="x")),
    "code.n_levels 100 CAVITYQ_DIM_CAP=64": Fault(4, "total dimension 100 exceeds cap 64",
                                                  dict(CODE_DOC, n_levels=100),
                                                  env={"CAVITYQ_DIM_CAP": "64"}),
    "code.alpha [2.0, 0.0, 0.0]": Fault(
        2, "alpha must be 1-D of length 2, got length 3",
        dict(CODE_DOC, alpha=[2.0, 0.0, 0.0])),
    "code.alpha [1e+308, 0]": Fault(2, "cat state has no support at this truncation",
                                    dict(CODE_DOC, alpha=[1e308, 0])),
    "code.alpha [nan, 0]": Fault(2, "non-finite entries in alpha",
                                 dict(CODE_DOC, alpha=[math.nan, 0])),
    "code.alpha[0] 10**400": Fault(2, "alpha holds a number too large for a float",
                                   _set(CODE_DOC, "alpha[0]", BIG)),
    "code.t1_s nan": Fault(2, "t1_s must be positive, got nan",
                           dict(CODE_DOC, t1_s=math.nan)),
    "code.dt_s inf": Fault(  # with t1_s = inf, which is no loss
        2, "dt_s must be positive and finite, got inf",
        dict(CODE_DOC, t1_s=math.inf, dt_s=math.inf)),

    # steps_list is read by trotter_convergence, when the command computes
    "trotter.steps_list[1] 'many'": Fault(1, "steps must be a positive integer, got 'many'",
                                          _set(TROTTER_DOC, "steps_list[1]", "many")),
    "trotter.steps_list[1] True": Fault(1, "steps must be a positive integer, got True",
                                        _set(TROTTER_DOC, "steps_list[1]", True)),
    "trotter.initial_level 8": Fault(2, "initial_level 8 outside [0, 8)",
                                     dict(TROTTER_DOC, initial_level=8)),
    "trotter.initial_levl 3": Fault(2, "unknown field 'initial_levl'",
                                    dict(TROTTER_DOC, initial_levl=3)),
    # a phase above MAX_PHASE_RAD: exit 3 before any RuntimeWarning; 1e308
    # wrote infidelity 0.0 and exited 0
    "trotter.t_total_s 1000000.0": Fault(
        3, f"t_total_s 1000000.0: the phase max|E|*t is 3.08e+06 rad, {_PHASE_LIMIT}",
        dict(TROTTER_DOC, t_total_s=1e6)),
    "trotter.t_total_s 1e+308": Fault(  # with steps_list [1, 2]
        3, f"t_total_s 1e+308: the step phase 2*pi*max(|V|, |K|)*dt is inf rad, {_PHASE_LIMIT}",
        dict(TROTTER_DOC, t_total_s=1e308, steps_list=[1, 2])),
    "trotter.diagonal[0] 1e+308": Fault(
        3, f"t_total_s 1.0: the step phase 2*pi*max(|V|, |K|)*dt is inf rad, {_PHASE_LIMIT}",
        _set(TROTTER_DOC, "diagonal[0]", 1e308)),
    "trotter.diagonal[1] 10**400": Fault(
        2, "diagonal holds a number too large for a float",
        _set(TROTTER_DOC, "diagonal[1]", BIG)),

    "otoc.initial_level 8": Fault(2, "initial_level 8 outside [0, 8)",
                                  dict(OTOC_DOC, initial_level=8)),
    "otoc.times_s []": Fault(
        2, "times_s must be 1-D with at least 1 entry, got length 0",
        dict(OTOC_DOC, times_s=[])),
    "otoc.times_s [0.0, -1e+308]": Fault(
        3, f"times_s entry -1e+308: the phase max|E|*|t| is inf rad, {_PHASE_LIMIT}",
        dict(OTOC_DOC, times_s=[0.0, -1e308])),
    "otoc.time_s [1.0]": Fault(2, "unknown field 'time_s'",
                               dict(OTOC_DOC, time_s=[1.0])),
    **{f"otoc.{name}.theta [0.1, 0.2, 0.3]": Fault(
        2, "snap gate field 'theta' must be 1-D of length 8, got length 3",
        _set(OTOC_DOC, f"{name}.theta", [0.1, 0.2, 0.3]))
       for name in ("w", "v")},
    "otoc.w.theta[1] nan": Fault(
        2, "non-finite entries in snap gate field 'theta'",
        _set(OTOC_DOC, "w.theta[1]", math.nan)),
    "otoc.w.phases [0.0]": Fault(2, "unknown field 'phases'",
                                 _set(OTOC_DOC, "w.phases", [0.0])),
    "otoc.v.inverse True": Fault(2, "unknown field 'inverse'",
                                 dict(OTOC_DOC, v={"kind": "fourier", "inverse": True})),
    "otoc.v.re[0][0] 10**400": Fault(
        2, "field 're' holds a number too large for a float",
        dict(OTOC_DOC, v=_set(_identity_spec(8), "re[0][0]", BIG))),
}


def _object_path(key: str) -> str:
    """The path an exit-2 line of key's fault starts with: the key's field
    path less its last field and that field's indices, or the bare command
    for a key with no field. A field that its README config holds as an
    object, set to {}, is that object, whose fields are missing."""
    field, value = key.split(" ", 1)
    if value == "{}" and field in _README_OBJECTS:
        return field
    return re.sub(r"\.\w+(\[\d+\])*$", "", field)


@pytest.mark.parametrize("key", list(FAULTS))
def test_config_fault(key, tmp_path, monkeypatch):
    # the error contract: the exit code, nothing on stdout, exactly one
    # "error: " line on stderr, no output directory and no warning; on exit
    # 2 the line starts with the path of the object at fault
    code, line, config, argv, env = FAULTS[key]
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config),
                        encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = run_cli(tmp_path / "out", re.match(r"[a-z]+", key)[0], str(path), *argv)
    assert [str(w.message) for w in caught] == []
    assert (run.code, run.stdout, run.wrote) == (code, "", False), run.stderr
    [error] = run.stderr
    prefix = f"error: {_object_path(key)}: " if code == 2 else "error: "
    assert error.startswith(prefix), error
    if isinstance(line, str):
        assert error == prefix + line
    elif line is not None:
        assert line.fullmatch(error.removeprefix(prefix)), error


def test_faults_cover_every_command_and_exit_code():
    assert {re.match(r"[a-z]+", key)[0] for key in FAULTS} == set(cli._COMMANDS)
    assert {fault.code for fault in FAULTS.values()} == set(cli._EXIT_CODES.values())


def test_no_config_field_is_typed_as_a_number(tmp_path, monkeypatch):
    # read_field is a plain isinstance check, under which a float type would
    # refuse a JSON 1; a number goes on as decoded, to the rule of its call
    read_field, seen = errors.read_field, []

    def traced(doc, name, types, key, *default):
        seen.append((f"{key}.{name}", types if isinstance(types, tuple) else (types,)))
        return read_field(doc, name, types, key, *default)

    monkeypatch.setattr(errors, "read_field", traced)
    names = set()
    for command, doc in _README_CONFIGS.items():
        names.update(path[-1] for path in _field_paths(doc))
        args = cli.build_parser().parse_args(readme_command(command, tmp_path))
        cli._command(command)(args, Path(getattr(args, cli._COMMANDS[command][0])).read_text())
    qst.qst_config_from_json(dict(TRANSFER_DOC, emit_waveform={
        "kind": "sampled", "dt_s": 1e-6, "values": [0.0, 1e6, 0.0]}))
    pulse.PulseSchedule.from_json(pulse.PulseSchedule.from_json(json.dumps(SCHEDULE_DOC)).to_json())
    assert names | {"values", "controls", "amps", "carrier_hz"} <= {
        field.rsplit(".", 1)[1] for field, _ in seen}
    assert [field for field, types in seen if {float, int} & set(types)] == []


def test_zero_threads_is_a_usage_error(tmp_path):
    # argparse refuses it before any config is read, with its usage lines
    cfg = write_json(tmp_path / "grape.json", GRAPE_DOC)
    run = run_cli(tmp_path / "out", "--threads", "0", "grape", cfg)
    assert (run.code, run.stdout, run.wrote) == (2, "", False)
    assert run.stderr[-1].endswith("error: --threads must be >= 1")


class TestArtifactPlumbing:
    def test_headers_record_provenance(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert run_cli(tmp_path, "--seed", "123", "trotter", cfg).code == 0
        comments, _, _ = read_csv(tmp_path / "trotter_convergence.csv")
        text = "\n".join(comments)
        assert "cavityq" in text
        assert "seed: 123" in text
        assert "input_sha256: " in text
        digest = hashlib.sha256(
            (tmp_path / "trot.json").read_bytes()
        ).hexdigest()
        assert digest in text

    def test_json_format(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        assert run_cli(tmp_path, "--seed", "9", "--format", "json", "trotter", cfg).code == 0
        doc = json.loads((tmp_path / "trotter_convergence.json").read_text())
        assert doc["seed"] == 9
        assert doc["columns"] == ["steps", "dt_s", "infidelity"]
        assert len(doc["rows"]) == 3
        assert doc["rows"][0][0] == 50

    def test_out_directory_created(self, tmp_path):
        cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        nested = tmp_path / "a" / "b"
        assert run_cli(nested, "--seed", "1", "trotter", cfg).code == 0
        assert (nested / "trotter_convergence.csv").exists()

    def test_shared_parser_keeps_calls_apart(self, tmp_path):
        # one parser serves every call of main in a process; no call's
        # options, nor a rejected call, reach the next one
        otoc_cfg = write_json(tmp_path / "otoc.json", OTOC_DOC)
        trot_cfg = write_json(tmp_path / "trot.json", TROTTER_DOC)
        cli._parser.cache_clear()
        assert run_cli(tmp_path / "a", "--format", "json", "--seed", "5", "otoc",
                       otoc_cfg).code == 0
        assert run_cli(tmp_path / "b", "--seed", "1", "trotter", trot_cfg).code == 0
        assert run_cli(tmp_path / "c", "--seed", "-1", "trotter", trot_cfg).code == 2
        assert run_cli(tmp_path / "d", "trotter", trot_cfg).code == 0
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
    "qst": (TRANSFER_DOC, {"qst"}),
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
def test_help_text(command, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    run = run_cli(tmp_path, *filter(None, [command, "--help"]))
    assert (run.code, run.stdout) == (0, HELP_TEXT[command])


# (command, config, artifact name or None, summary keys besides "output")
_ONE_RUN_EACH = [
    ("device", PAPER_DEVICE, None,
     {"chi_hz", "critical_photon_number", "max_fock", "snap_min_gate_time_s"}),
    ("run", {"shape": [4], "gates": [{"kind": "fourier", "target": 0}]},
     "run_probabilities", {"gates", "kept_rows", "total_probability"}),
    ("qst", TRANSFER_DOC, "qst_sweep", {"eta", "fidelity"}),
    ("qst", QST_SWEEP_DOC, "qst_sweep",
     {"baseline_eta", "slope", "intercept", "r_squared"}),
    ("qst", {"transfer": TRANSFER_DOC}, "qst_sweep", {"eta", "fidelity"}),
    ("grape", {"model": {"kind": "qubit"}, "target": {"kind": "pauli_x"},
               "n_segments": 8, "dt_s": 1e-7, "iterations": 5},
     "grape_trace", {"converged", "fidelity", "infidelity", "iterations"}),
    ("code", dict(CODE_DOC, steps=50), "code_trajectories",
     {"initial_parity", "n_trajectories", "total_jumps"}),
    ("trotter", TROTTER_DOC, "trotter_convergence", {"best_infidelity", "n_levels"}),
    ("otoc", OTOC_DOC, "otoc_series", {"min_abs_otoc", "n_levels"}),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_command_through_main(tmp_path, fmt):
    # the driver reads each config, writes the artifact the command names
    # (device writes none), adds its path as "output" and prints the summary
    assert {run[0] for run in _ONE_RUN_EACH} == set(HELP_TEXT) - {""}
    for i, (command, doc, artifact, keys) in enumerate(_ONE_RUN_EACH):
        out_dir = tmp_path / f"out{i}"
        cfg = write_json(tmp_path / f"{i}.json", doc)
        run = run_cli(out_dir, "--format", fmt, command, cfg)
        assert (run.code, run.stderr) == (0, [])
        summary = json.loads(run.stdout)
        if artifact is None:
            assert set(summary) == keys
            assert not run.wrote
        else:
            assert set(summary) == keys | {"output"}
            assert summary["output"] == str(out_dir / f"{artifact}.{fmt}")
            assert [p.name for p in out_dir.iterdir()] == [f"{artifact}.{fmt}"]


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


def test_qst_detuning_beyond_rk4_stability_is_a_step_size_error():
    # nine RuntimeWarnings and eta NaN with exit 0, or a row "2147483648.0,nan,0.0"
    config = qst.qst_config_from_json(_FAST_TRANSFER)
    with pytest.raises(StepSizeError, match=re.escape(_RK4_LIMIT)):
        qst.simulate_transfer(dataclasses.replace(config, delta_omega_hz=2147483648.0))
    with pytest.raises(StepSizeError, match=re.escape(_RK4_LIMIT)):
        qst.detuning_sweep(config, [0.0, 1e5, 2147483648.0])
    # and an eta that is not finite is refused, not clamped into a row
    with pytest.raises(NumericError, match="non-finite eta"):
        qst._final_eta(complex(math.nan, 0.0))


@pytest.mark.parametrize("transfer, deltas", [(TRANSFER_DOC, [0.0, 1e-300]),
                                              (_SCALED_TRANSFER, [0.0, 1.5e154])],
                         ids=["underflow", "overflow"])
def test_qst_sweep_unfittable_detunings_are_a_usage_error(transfer, deltas):
    with pytest.raises(UsageError, match=re.escape(_UNFITTABLE)):
        qst.detuning_sweep(qst.qst_config_from_json(transfer), deltas)


@pytest.mark.parametrize("build, name", [(lambda: gates.displacement(1e308, 4), "alpha"),
                                         (lambda: gates.ecd(1e308, 16), "beta")],
                         ids=["displacement", "ecd"])
def test_displacement_phase_overflow_is_a_numeric_error(build, name):
    # three RuntimeWarnings, then "non-finite entries in amplitudes"
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
    def test_config_is_released_before_the_engine_runs(self, tmp_path, monkeypatch, command):
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
            assert run_cli(tmp_path, command, cfg).code == 0
        finally:
            tracemalloc.stop()
        [held] = traced
        assert held < size, (held, size)
