"""Self-test of the benchmark: every workload, briefly and traced, on a seed
the benchmark was not tuned on.

    python3 perfbench/selftest.py

For each workload it checks that no job failed (fail_frac == 0), that the
traced run reports every per-layer metric BENCHMARK.json lists, and that in
every job the self times of the layer spans add up to no more than the
job's wall time. Takes about three and a half minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _fail(workload: str, what: str) -> None:
    print(f"{workload}: FAIL: {what}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            _fail(workload, f"exit code {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"] or not result["correct"]:
            _fail(workload, f"{result['failed']} of {result['attempted']} jobs failed: "
                            f"{proc.stderr.strip()}")
        if set(result["metrics"]) != wanted:
            _fail(workload, f"per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ wanted)}")
        detail = json.loads((ROOT / ".perfbench_out" / "results"
                             / f"{workload}-seed{SEED}-trace1.json").read_text())
        traced = [row for row in detail["executions"] if "span_self_s" in row]
        for row in traced:
            if row["span_self_s"] > row["wall_s"]:
                _fail(workload, f"{row['kind']}: span self times {row['span_self_s']} s "
                                f"exceed the job's wall time {row['wall_s']} s")
        print(f"{workload}: ok: {result['attempted']} job executions passed, "
              f"{len(wanted)} per-layer metrics, {len(traced)} traced executions "
              f"within their wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
