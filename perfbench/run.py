"""cavityq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload snap_control --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. The workload's job list is a closed loop with one client: each job
starts when the previous one has returned. The list holds
round(seconds / (PASSES * CYCLE_S)) cycles of jobs, at least one, and runs
PASSES times over; timings are medians over the passes, in seconds at the
reference host speed (hostspeed.py). On the reference machine that is about
`--seconds` of work, and every run of a workload does the same work whatever
the speed of the code (see README.md). Outputs are checked against oracles
after timing stops.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same passes
untraced and then traced, and reports the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Exits 2 without a result when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS pools start with numpy, so pin them before anything imports it
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import hostspeed  # noqa: E402

# one pass over one cycle of any workload takes about this long (s) on the
# reference machine
CYCLE_S = 8.0
SETUP_REPEATS = 6
# the job list runs this many times over and the timings are medians over
# the passes: they follow the host's usual load, which neighbours on the
# same cores raise and lower for stretches of ten seconds to a minute
PASSES = 3
TAIL_BEYOND = 10

END_TO_END = [
    ("wall_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
]

_TIMED = ["pulse.simulate_schedule", "pulse.synthesize_snap_pulse",
          "pulse.grape_optimize", "pulse.optimize_snap_displacement_sequence",
          "gates.fourier", "gates.apply_circuit", "gates.apply_embedded",
          "gates.displacement", "fock.propagator", "gates.circuit_from_json",
          "trotter.evolve_trotter", "trotter.exact_propagator", "trotter.otoc_series",
          "noise.apply_channel_trajectory", "noise.apply_channel",
          "noise.photon_loss_channel", "codes.cat_state", "qst.simulate_transfer",
          "qst.detuning_sweep", "cli.main"]
_CALLED = ["gates.fourier", "gates.apply_circuit", "gates.displacement",
           "fock.propagator", "trotter.exact_propagator", "noise.apply_channel",
           "qst.simulate_transfer"]
_COUNTED = ["pulse.simulate_schedule.segments", "pulse.grape.iterations",
            "pulse.grape.backtracks", "pulse.seqprep.iterations",
            "pulse.seqprep.backtracks", "gates.gate_applications", "trotter.steps",
            "noise.trajectory_steps", "noise.jumps", "qst.rk4_steps"]
_COMPUTED = ["computed.segment_propagator", "computed.trotter_step",
             "computed.trajectory_step"]
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in _TIMED]
    + [(f"{name}.calls", "count") for name in _CALLED]
    + [(name, "count") for name in _COUNTED] + [("cli.artifact_bytes", "B")]
    + [("pulse.segments_per_s", "1/s"), ("pulse.grape.accept_ratio", "ratio"),
       ("gates.reuse_frac", "ratio"), ("noise.trajectory_steps_per_s", "1/s"),
       ("qst.rk4_steps_per_s", "1/s"), ("setup.import_s", "s"),
       ("trace.overhead_frac", "ratio")]
    + [(f"{k}.terms", "count") for k in _COMPUTED]
    + [(f"{k}.bytes", "B") for k in _COMPUTED]
)


def _fresh_interpreter_s(argv: list[str], repeats: int) -> list[float]:
    """Times of `python argv` in fresh interpreters, in seconds at the
    reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        times.append(hostspeed.ref_seconds(wall, before, hostspeed.probe()))
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def _setup_argv(trace: int, workdir: Path) -> list[str]:
    """The fresh-interpreter call whose time is the set-up metric: the
    cheapest real CLI call, or for the traced run the bare import."""
    if trace:
        return ["-c", "import cavityq"]
    params = workdir / "device.json"
    params.write_text(json.dumps({
        "omega_q_hz": 6.0e9, "omega_c_hz": 4.0e9, "g_hz": 10.0e6,
        "chi_prime_hz": 0.0, "alpha_hz": -200.0e6,
        "t1_fock0_s": 1.0, "t1_min_s": 200e-6}))
    return ["-m", "cavityq", "device", str(params)]


def _run_passes(jobs, passes: int, tracer=None):
    """Run the job list `passes` times over, one job at a time, with a host
    speed probe between jobs. Returns one row per execution, with its wall
    time and its time at the reference speed, and the outputs of each job's
    last execution."""
    rows, outputs = [], [None] * len(jobs)
    for p in range(passes):
        probe_before = hostspeed.probe()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = len(rows)
            t0 = time.perf_counter()
            try:
                out, error = job.run(), None
            except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            probe_after = hostspeed.probe()
            rows.append({"job": i, "kind": job.kind, "pass": p, "wall_s": wall,
                         "ref_s": hostspeed.ref_seconds(wall, probe_before, probe_after),
                         "probes_s": [probe_before, probe_after], "error": error})
            outputs[i] = out
            probe_before = probe_after
    return rows, outputs


def _pass_sums(rows, key: str) -> list[float]:
    """Each pass's total of `key` over its executions."""
    sums = defaultdict(float)
    for row in rows:
        sums[row["pass"]] += row[key]
    return [sums[p] for p in sorted(sums)]


def _check_all(jobs, rows, outputs) -> int:
    """Check each job's last output; returns the number of failed executions."""
    last = {row["job"]: row for row in rows}
    for i, job in enumerate(jobs):
        if last[i]["error"] is None:
            try:
                job.check(outputs[i])
            except Exception as exc:  # a check that cannot run fails the job
                last[i]["error"] = f"check: {type(exc).__name__}: {exc}"
    failed = [row for row in rows if row["error"] is not None]
    for row in failed:
        print(f"# job failed: {row['kind']}: {row['error']}", file=sys.stderr)
    return len(failed)


def _job_medians(jobs, rows) -> list[float]:
    """Each job's median time at the reference speed over the passes."""
    walls = [[] for _ in jobs]
    for row in rows:
        walls[row["job"]].append(row["ref_s"])
    return [statistics.median(w) for w in walls]


def _tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest-ranked job time that still has
    TAIL_BEYOND samples above it."""
    ordered = sorted(walls)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _artifact_bytes(outputs) -> int:
    total = 0
    for out in outputs:
        summary = getattr(out, "summary", None)
        if summary and "output" in summary:
            total += os.path.getsize(summary["output"])
    return total


def _layer_metrics(tracer, jobs, rows, outputs, overhead_frac, import_s):
    """Per-layer metrics of the traced passes, as amounts per pass. Self
    times are in seconds at the reference speed, scaled as their job was."""
    from spans import self_times
    passes = 1 + max(row["pass"] for row in rows)
    selfs = self_times(tracer.spans)
    self_by_name = defaultdict(float)
    calls = Counter()
    per_execution = defaultdict(float)
    for sid, _, name, execution, _, _ in tracer.spans:
        row = rows[execution]
        scale = row["ref_s"] / row["wall_s"] if row["wall_s"] else 1.0
        self_by_name[name] += selfs.get(sid, 0.0) * scale / passes
        calls[name] += 1
        per_execution[execution] += selfs.get(sid, 0.0)
    for i, row in enumerate(rows):
        row["span_self_s"] = per_execution[i]
    counts = {k: v // passes for k, v in tracer.counts.items()}
    counts["gates.gate_applications"] = calls["gates.apply_embedded"] // passes
    counts["cli.artifact_bytes"] = _artifact_bytes(outputs)

    def rate(num, den):
        return num / den if den else 0.0

    m = {f"{n}.self_s": self_by_name[n] for n in _TIMED}
    m.update({f"{n}.calls": calls[n] // passes for n in _CALLED})
    m.update({n: counts.get(n, 0) for n in _COUNTED + ["cli.artifact_bytes"]})
    m.update({f"{k}.{u}": counts.get(f"{k}.{u}", 0) for k in _COMPUTED
              for u in ("terms", "bytes")})
    its, back = counts.get("pulse.grape.iterations", 0), counts.get("pulse.grape.backtracks", 0)
    apps = sum(j.gate_applications for j in jobs)
    m.update({
        "pulse.segments_per_s": rate(m["pulse.simulate_schedule.segments"],
                                     m["pulse.simulate_schedule.self_s"]),
        "pulse.grape.accept_ratio": rate(its, its + back),
        "gates.reuse_frac": rate(apps - sum(j.distinct_gates for j in jobs), apps),
        "noise.trajectory_steps_per_s": rate(m["noise.trajectory_steps"],
                                             m["noise.apply_channel_trajectory.self_s"]),
        "qst.rk4_steps_per_s": rate(m["qst.rk4_steps"], m["qst.simulate_transfer.self_s"]),
        "setup.import_s": import_s,
        "trace.overhead_frac": overhead_frac,
    })
    layers = {n: {"self_s_per_pass": self_by_name[n], "calls": calls[n]}
              for n in sorted(calls)}
    return m, layers


def _blas_info() -> dict:
    import numpy as np
    import scipy
    info = {}
    for mod in (np, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            info[mod.__name__] = "unknown"
    return info


def _source_identity() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _run_record(args, cycles, jobs) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles,
        "jobs_by_kind": dict(Counter(j.kind for j in jobs)),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas_info(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(), **_source_identity(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np
    from spans import Tracer

    warnings.simplefilter("ignore")  # truncation warnings would flood stderr
    make_jobs, make_warmup = WORKLOADS[args.workload]
    cycles = max(1, round(args.seconds / (PASSES * CYCLE_S)))
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warmup = make_warmup(np.random.default_rng([args.seed, 0]), workdir)
        jobs = make_jobs(np.random.default_rng([args.seed, 1]), cycles, workdir)
        record = _run_record(args, cycles, jobs)
        setup_argv = _setup_argv(args.trace, workdir)
        hostspeed.warm()
        _fresh_interpreter_s(setup_argv, 1)  # leaves the bytecode cache warm
        # half the set-up samples before the timed passes and half after, so
        # their median does not hang on one stretch of machine load
        setup_times = _fresh_interpreter_s(setup_argv, SETUP_REPEATS // 2)
        warm_rows, warm_out = _run_passes(warmup, 1)
        if _check_all(warmup, warm_rows, warm_out):
            print("# warm-up jobs failed", file=sys.stderr)
        rows, outputs = _run_passes(jobs, PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += _fresh_interpreter_s(setup_argv, SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_s = statistics.median(setup_times)
        pass_walls, pass_ref = _pass_sums(rows, "wall_s"), _pass_sums(rows, "ref_s")
        wall_s = statistics.median(pass_ref)
        failed = _check_all(jobs, rows, outputs)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_rows, traced_out = _run_passes(jobs, PASSES, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(_pass_sums(traced_rows, "ref_s")) / wall_s - 1.0
            metrics, layers = _layer_metrics(tracer, jobs, traced_rows, traced_out,
                                             overhead, setup_s)
            failed += _check_all(jobs, traced_rows, traced_out)
            rows += traced_rows
        else:
            job_s = _job_medians(jobs, rows)
            tail, pct = _tail(job_s)
            metrics = {
                "setup_s": setup_s, "wall_s": wall_s,
                "job_s_p50": statistics.median(job_s), "job_s_tail": tail,
                "peak_rss_mb": peak_rss_mb, "ok_frac": 1.0 - failed / len(rows),
            }
            record.update({"job_s_tail_percentile": pct, "job_samples": len(job_s)})
            layers = None
        record.update({"pass_walls_s": pass_walls,
                       "pass_ref_s": pass_ref, "attempted": len(rows), "failed": failed,
                       "fail_frac": failed / len(rows)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "layers": layers, "executions": rows},
        indent=1, default=str))
    if args.trace:
        with open(results / f"{stem}-spans.csv", "w") as fh:
            fh.write("id,parent,name,execution,start_s,end_s\n")
            for span in tracer.spans:
                fh.write(",".join(map(str, span)) + "\n")

    print(f"# record {json.dumps(record, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"# job_s_tail is p{record['job_s_tail_percentile']:.1f} of "
              f"{record['job_samples']} jobs")
    print(f"# fail_frac = {record['fail_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} job executions)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(rows), "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "cavityq" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
