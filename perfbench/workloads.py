"""Seeded job lists for the three workloads, and the output check of each job.

A job is one experiment a user would run: a `cavityq` subcommand called
in-process through `cli.main` on a config written here, or a library call
for the experiments the CLI does not offer. Everything a job needs is made
before timing starts; `run` is the timed part and `check` compares what it
returned with an oracle that does not share the package's code path.

The seed picks the physics (phases, targets, Hamiltonians, amplitudes,
rates, detunings); the sizes follow a fixed schedule per cycle, so every
seed does the same amount of work and runs of different seeds compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg

import cavityq
from cavityq import codes, fock, gates, noise, pulse


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    gate_applications: int = 0   # from the inputs, for gates.reuse_frac
    distinct_gates: int = 0


# ---------------------------------------------------------------------------
# CLI plumbing


@dataclass
class CliOutput:
    code: int
    summary: dict | None
    stderr: str
    out_dir: Path


def _cli_job(kind: str, workdir: Path, command: str, config: dict,
             check: Callable[[CliOutput, dict], None], options=(), tail=(),
             **gate_counts) -> Job:
    job_dir = workdir / f"{len(list(workdir.iterdir())):04d}-{kind}"
    job_dir.mkdir()
    cfg_path = job_dir / "config.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["--out", str(job_dir), *options, command, str(cfg_path), *tail]

    def run() -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cavityq.cli.main(argv)
        summary = json.loads(out.getvalue()) if code == 0 else None
        return CliOutput(code, summary, err.getvalue(), job_dir)

    def checked(res: CliOutput) -> None:
        _require(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
        check(res, config)

    return Job(kind, run, checked, **gate_counts)


def _artifact(res: CliOutput, name: str) -> np.ndarray:
    # four provenance lines, then the column header
    return np.loadtxt(res.out_dir / f"{name}.csv", delimiter=",", skiprows=5,
                      ndmin=2)


def _nonincreasing(values, what: str) -> None:
    values = np.asarray(values)
    _require(np.all(np.diff(values) <= 0), f"{what} increases")


# ---------------------------------------------------------------------------
# snap_control: pulse-level control design

# (N, duration in units of 2*pi/chi), taken two per cycle in this order
SNAP_SIZES = [(6, 4), (5, 2), (8, 2), (4, 4), (7, 2), (6, 2), (5, 4), (8, 4),
              (4, 2), (7, 4)]
# Equal-cost CLI pulse jobs. The six heavier jobs of a cycle sit above them,
# so both the median and the 11th-slowest job fall inside this group and
# read the typical cost of many jobs, not of one.
GRAPE_CLI_JOBS = 28


def _snap_job(rng, n: int, factor: float) -> Job:
    chi = float(rng.uniform(0.5e6, 2e6))
    theta = rng.uniform(-math.pi, math.pi, n)

    def run():
        model = pulse.dispersive_model(chi, n)
        sched = pulse.synthesize_snap_pulse(model, theta, factor * 2 * math.pi / chi,
                                            enforce_bound=False)
        u = pulse.simulate_schedule(model, sched, return_propagator=True)
        return u, pulse.snap_average_fidelity(u, theta)

    def check(out):
        u, fid = out
        m = u.matrix
        _require(np.allclose(m.conj().T @ m, np.eye(2 * n), atol=1e-8),
                 "propagator is not unitary")
        block = np.exp(-1j * theta)[:, None] * m[:n, :n]
        ref = (abs(np.trace(block)) ** 2
               + np.vdot(block, block).real) / (n * (n + 1))
        _require(abs(ref - fid) <= 1e-9, f"fidelity {fid} != reference {ref}")
        _require(1 - ref < 1e-2, f"SNAP infidelity {1 - ref:.3e} >= 1e-2")

    return Job("snap_pulse", run, check)


def _grape_dispersive_job(rng, n: int) -> Job:
    chi = float(rng.uniform(0.5e6, 2e6))
    theta = rng.uniform(-math.pi, math.pi, n)
    seed = int(rng.integers(2**31))
    n_seg = 40
    target_mat = np.kron(np.eye(2), np.diag(np.exp(1j * theta)))

    def run():
        model = pulse.dispersive_model(chi, n)
        target = fock.Operator(model.shape, target_mat)
        sched0 = pulse.PulseSchedule(dt_s=0.2 / chi,
                                     streams=(np.zeros(n_seg, dtype=complex),),
                                     carriers_hz=(0.0,))
        return model, pulse.grape_optimize(model, target, sched0, iterations=40,
                                           seed=seed, tol=1e-12)

    def check(out):
        model, res = out
        _nonincreasing([row[1] for row in res.trace], "GRAPE infidelity trace")
        u = pulse.simulate_schedule(model, res.schedule, return_propagator=True)
        ref = abs(np.trace(target_mat.conj().T @ u.matrix) / (2 * n)) ** 2
        _require(abs(ref - res.fidelity) <= 1e-9,
                 f"GRAPE fidelity {res.fidelity} != re-simulated {ref}")

    return Job("grape_dispersive", run, check)


def _seqprep_job(rng, dim: int) -> Job:
    target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    seed = int(rng.integers(2**31))

    def run():
        # the cap keeps a hard seeded target from costing several times
        # another seed's; most dimension 8 and 10 targets reach it
        return pulse.optimize_snap_displacement_sequence(target, seed=seed, tol=1e-3,
                                                         iterations=200)

    def check(res):
        n = res.n_levels
        psi = np.zeros(n, dtype=complex)
        psi[0] = 1.0
        for k, alpha in enumerate(res.alphas):
            psi = gates.displacement(alpha, n).matrix @ psi
            if k < len(res.thetas):
                psi = gates.snap(res.thetas[k]).matrix @ psi
        padded = np.zeros(n, dtype=complex)
        padded[:dim] = target / np.linalg.norm(target)
        ref = abs(np.vdot(padded, psi)) ** 2
        _require(abs(ref - res.fidelity) <= 1e-9,
                 f"sequence fidelity {res.fidelity} != rebuilt {ref}")

    return Job("seqprep", run, check)


def _check_grape_cli(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "grape_trace")
    _nonincreasing(rows[:, 1], "GRAPE infidelity trace")
    _require(abs(rows[-1, 1] - res.summary["infidelity"]) <= 1e-9,
             "last trace row disagrees with the reported infidelity")


def _grape_cli_job(rng, workdir: Path, i: int) -> Job:
    target = ({"kind": "pauli_x"} if i % 2 == 0 else
              {"kind": "snap", "theta": list(rng.uniform(-math.pi, math.pi, 2))})
    config = {"model": {"kind": "qubit",
                        "detuning_hz": float(rng.uniform(-2e5, 2e5))},
              "target": target, "n_segments": 50, "dt_s": 1e-8,
              # converging takes 14-19 iterations: stop short of it, so every
              # seed does the same work
              "iterations": 12, "tol": 1e-15}
    return _cli_job("grape_cli", workdir, "grape", config, _check_grape_cli,
                    options=("--seed", str(int(rng.integers(2**31)))))


def snap_control(rng, cycles: int, workdir: Path) -> list[Job]:
    jobs = []
    for c in range(cycles):
        for k in (2 * c, 2 * c + 1):
            jobs.append(_snap_job(rng, *SNAP_SIZES[k % len(SNAP_SIZES)]))
        jobs += [_grape_dispersive_job(rng, n) for n in (3, 4)]
        jobs += [_seqprep_job(rng, dim) for dim in (8, 10)]
        jobs += [_grape_cli_job(rng, workdir, i) for i in range(GRAPE_CLI_JOBS)]
    return jobs


def snap_control_warmup(rng, workdir: Path) -> list[Job]:
    return [_snap_job(rng, 3, 2), _grape_dispersive_job(rng, 2),
            _seqprep_job(rng, 4), _grape_cli_job(rng, workdir, 0)]


# ---------------------------------------------------------------------------
# qudit_dynamics: Trotterized dynamics through the CLI

# (N, steps list) of the Trotter jobs of one cycle
TROTTER_SIZES = [(32, [125, 250, 500]), (32, [1000]), (64, [125, 250, 500]),
                 (64, [1000]), (128, [125, 250]), (128, [500])]
OTOC_SIZES = [32, 64, 128]
OTOC_JOBS = 10   # per size and cycle
OTOC_TIMES = 200


def _hamiltonian(rng, n: int) -> dict:
    return {"diagonal": list(rng.uniform(-2.0, 2.0, n)),
            "kinetic_diagonal": list(rng.uniform(-2.0, 2.0, n)),
            "initial_level": int(rng.integers(n))}


def _dense_h(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """Fourier matrix and dense H (rad/s) built from the config alone."""
    v = np.array(config["diagonal"])
    k = np.array(config["kinetic_diagonal"])
    n = len(v)
    idx = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
    return f, 2 * np.pi * (np.diag(v) + f @ np.diag(k) @ f.conj().T)


def _check_trotter(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "trotter_convergence")
    f, h = _dense_h(config)
    n = h.shape[0]
    psi0 = np.zeros(n, dtype=complex)
    psi0[config["initial_level"]] = 1.0
    t = config["t_total_s"]
    exact = scipy.linalg.expm(-1j * t * h) @ psi0
    v = np.array(config["diagonal"])
    k = np.array(config["kinetic_diagonal"])
    _require([int(s) for s in rows[:, 0]] == config["steps_list"], "steps column")
    for steps, dt, infid in rows:
        step = (f * np.exp(-2j * np.pi * k * dt)) @ f.conj().T * np.exp(-2j * np.pi * v * dt)
        psi = np.linalg.matrix_power(step, int(steps)) @ psi0
        ref = 1.0 - abs(np.vdot(exact, psi)) ** 2
        _require(abs(dt - t / steps) <= 1e-15 * t, "dt column")
        _require(abs(max(ref, 0.0) - infid) <= 1e-9,
                 f"steps {int(steps)}: infidelity {infid} != expm reference {ref}")


def _trotter_job(rng, workdir: Path, n: int, steps_list: list[int]) -> Job:
    config = {**_hamiltonian(rng, n), "t_total_s": 1.0, "steps_list": steps_list}
    return _cli_job("trotter_cli", workdir, "trotter", config, _check_trotter,
                    gate_applications=4 * sum(steps_list),
                    distinct_gates=2 * len(steps_list) + 2)


def _check_otoc(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "otoc_series")
    _, h = _dense_h(config)
    n = h.shape[0]
    psi = np.zeros(n, dtype=complex)
    psi[config["initial_level"]] = 1.0
    w = np.diag(np.exp(1j * np.array(config["w"]["theta"])))
    vspec = config["v"]
    if vspec["kind"] == "matrix":
        v = np.array(vspec["re"]) + 1j * np.array(vspec["im"])
    else:
        v = scipy.linalg.dft(n).conj() / math.sqrt(n)  # F_jk = e^{+2 pi i jk/N}/sqrt(N)
    _require(len(rows) == len(config["times_s"]), "row count")
    # an expm per row is the expensive part of the check: compare 16 rows
    for i in np.unique(np.linspace(0, len(rows) - 1, 16).astype(int)):
        t, re, im, mag = rows[i]
        u = scipy.linalg.expm(-1j * h * t)
        wt = u.conj().T @ w @ u
        ref = np.vdot(psi, wt.conj().T @ v.conj().T @ wt @ v @ psi)
        _require(abs(complex(re, im) - ref) <= 1e-9 and abs(mag - abs(ref)) <= 1e-9,
                 f"t={t}: OTOC {complex(re, im)} != expm reference {ref}")


def _otoc_job(rng, workdir: Path, n: int, i: int) -> Job:
    config = _hamiltonian(rng, n)
    config["times_s"] = list(np.linspace(0.0, rng.uniform(0.5, 2.0), OTOC_TIMES))
    config["w"] = {"kind": "snap", "theta": list(rng.uniform(-math.pi, math.pi, n))}
    if i % 2 == 0:
        config["v"] = {"kind": "fourier"}
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        config["v"] = {"kind": "matrix", "re": q.real.tolist(), "im": q.imag.tolist()}
    return _cli_job("otoc_cli", workdir, "otoc", config, _check_otoc)


def qudit_dynamics(rng, cycles: int, workdir: Path) -> list[Job]:
    jobs = []
    for _ in range(cycles):
        jobs += [_trotter_job(rng, workdir, n, steps) for n, steps in TROTTER_SIZES]
        jobs += [_otoc_job(rng, workdir, n, i) for n in OTOC_SIZES for i in range(OTOC_JOBS)]
    return jobs


def qudit_dynamics_warmup(rng, workdir: Path) -> list[Job]:
    return [_trotter_job(rng, workdir, 16, [10, 20]), _otoc_job(rng, workdir, 16, 0),
            _otoc_job(rng, workdir, 16, 1)]


# ---------------------------------------------------------------------------
# open_system: loss, codes and transfer

CODE_SIZES = [16, 30, 20, 24, 18, 28]   # two per cycle
CODE_STEPS, CODE_TRAJECTORIES = 400, 100
QST_POINTS = [6, 11, 21, 16, 9, 13]      # two per cycle, the second with 2 threads
# Circuits of one size make an equal-cost group that holds the 11th-slowest
# job of a cycle; the loss evolutions make another that holds the median.
# Four more circuits cover the rest of N 100-300.
RUN_GROUP_N, RUN_GROUP_JOBS = 220, 12
RUN_SIZES = [100, 150, 200, 300]
RUN_BLOCKS = 4
CHANNEL_N, CHANNEL_JOBS, CHANNEL_STEPS = 24, 24, 1500


def _loss_dt(n: int) -> float:
    # photon_loss_channel accepts ((n-1) dt/t1 / 2)^2 <= 1e-6; t1 = 1 s
    return 1.8e-3 / (n - 1)


def _cat_params(rng) -> tuple[complex, str]:
    alpha = rng.uniform(1.0, 1.6) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return complex(alpha), "+" if rng.integers(2) else "-"


def _check_code(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "code_trajectories")
    steps, n_traj = config["steps"], config["n_trajectories"]
    _require(rows.shape == (steps * n_traj, 5), f"artifact shape {rows.shape}")
    p0 = res.summary["initial_parity"]
    _require(abs(abs(p0) - 1) <= 1e-9, f"initial parity {p0}")
    expected = p0 * (-1.0) ** rows[:, 2]
    _require(np.all(np.abs(rows[:, 3] - expected) <= 1e-9),
             "parity does not flip sign exactly at the jumps")
    _require(int(np.sum(rows[rows[:, 1] == steps, 2])) == res.summary["total_jumps"],
             "jump counts disagree with the summary")


def _code_job(rng, workdir: Path, n: int) -> Job:
    alpha, sign = _cat_params(rng)
    config = {"alpha": [alpha.real, alpha.imag], "parity": sign, "n_levels": n,
              "t1_s": 1.0, "dt_s": _loss_dt(n), "steps": CODE_STEPS,
              "n_trajectories": CODE_TRAJECTORIES}
    return _cli_job("code_cli", workdir, "code", config, _check_code,
                    options=("--seed", str(int(rng.integers(2**31)))))


def _check_qst(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "qst_sweep")
    _require(len(rows) == len(config["delta_sweep_hz"]), "row count")
    _require(res.summary["baseline_eta"] >= 0.99,
             f"baseline eta {res.summary['baseline_eta']}")
    _require(res.summary["r_squared"] >= 0.99, f"R^2 {res.summary['r_squared']}")


def _qst_job(rng, workdir: Path, points: int, threads: int) -> Job:
    kappa = float(rng.uniform(0.5e6, 2e6))
    dmax = kappa * rng.uniform(0.01, 0.05)
    config = {"transfer": {"kappa_hz": kappa, "t_span_s": [-20 / kappa, 20 / kappa],
                           "dt_s": 0.004 / kappa,   # 10k RK4 steps
                           "emit_waveform": {"kind": "sech"},
                           "catch_waveform": {"kind": "sech"}},
              "delta_sweep_hz": [0.0] + sorted(rng.uniform(0, dmax, points - 1))}
    # a pool never larger than the machine
    return _cli_job("qst_cli", workdir, "qst", config, _check_qst,
                    options=("--threads", str(min(threads, os.cpu_count() or 1))))


def _check_run(res: CliOutput, config: dict) -> None:
    rows = _artifact(res, "run_probabilities")
    total = res.summary["total_probability"]
    _require(abs(total - 1) <= 1e-9, f"total probability {total}")
    _require(abs(rows[:, 1].sum() - 1) <= 1e-9, "artifact probabilities do not sum to 1")


def _run_job(rng, workdir: Path, n: int) -> Job:
    circuit = []
    for _ in range(RUN_BLOCKS):
        circuit.append({"kind": "displacement", "target": 0,
                        "alpha": list(rng.normal(0, 0.5, 2))})
        circuit.append({"kind": "snap", "target": 0,
                        "theta": list(rng.uniform(-math.pi, math.pi, n))})
    config = {"shape": [n], "gates": circuit}
    # every displacement gets a fresh alpha, so no gate repeats
    return _cli_job("run_cli", workdir, "run", config, _check_run,
                    tail=("--state", str(int(rng.integers(4)))),
                    gate_applications=len(circuit), distinct_gates=len(circuit))


def _channel_job(rng, n: int) -> Job:
    alpha, sign = _cat_params(rng)

    def run():
        channel = noise.photon_loss_channel(1.0, _loss_dt(n), n)
        rho = noise.density_matrix(codes.cat_state(alpha, sign, n))
        for _ in range(CHANNEL_STEPS):
            rho = noise.apply_channel(channel, rho)
        return rho

    def check(rho):
        tr = np.trace(rho)
        _require(abs(tr - 1) <= 1e-9, f"trace {tr}")

    return Job("loss_channel", run, check)


def open_system(rng, cycles: int, workdir: Path) -> list[Job]:
    jobs = []
    for c in range(cycles):
        for k in (2 * c, 2 * c + 1):
            jobs.append(_code_job(rng, workdir, CODE_SIZES[k % len(CODE_SIZES)]))
            jobs.append(_qst_job(rng, workdir, QST_POINTS[k % len(QST_POINTS)], 1 + k % 2))
        jobs += [_channel_job(rng, CHANNEL_N) for _ in range(CHANNEL_JOBS)]
        jobs += [_run_job(rng, workdir, n)
                 for n in RUN_SIZES + [RUN_GROUP_N] * RUN_GROUP_JOBS]
    return jobs


def open_system_warmup(rng, workdir: Path) -> list[Job]:
    return [_code_job(rng, workdir, 8), _qst_job(rng, workdir, 3, 2),
            _channel_job(rng, 8), _run_job(rng, workdir, 16)]


WORKLOADS = {
    "snap_control": (snap_control, snap_control_warmup),
    "qudit_dynamics": (qudit_dynamics, qudit_dynamics_warmup),
    "open_system": (open_system, open_system_warmup),
}
