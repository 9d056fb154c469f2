"""Golden artifacts of the README configs, and the script that rewrites them.

Each of the seven commands has one example config in README.md, followed by
the command line that runs it. `run_case` reads both from the README, runs
the command in-process through `cli.main` and returns the artifact text
(without its `# cavityq <version>` line) and the stdout summary (without
its "output" path). For `code`, whose 4,000 rows take about 200 kB, the
artifact is replaced by a per-trajectory summary: the final jump count and
parity, and the final and step-averaged mean photon number.

`tests/test_golden.py` compares each case with the files stored under
`tests/golden/`. Run this file to rewrite them:

    PYTHONPATH=src python tests/golden.py

`run_cli` runs `cavityq` in-process through `cli.main` and returns its exit
code, what it printed and whether its output directory exists. `fresh_python` runs a fresh `python -W error` on this
checkout's `src`, for the checks that need a new interpreter: the
`python -m cavityq` entry point, the modules a command loads, and the
environment a process starts with.
"""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cavityq import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# command: the README paragraph that introduces its example config
CASES = {
    "device": "Example device config",
    "run": "Example circuit",
    "qst": "Example transfer sweep",
    "grape": "Example GRAPE config",
    "code": "Example code config",
    "trotter": "Example Trotter config",
    "otoc": "Example OTOC config",
}


def readme_example(heading: str) -> tuple[str, list[str]]:
    """The config after the README paragraph starting with heading (a
    ```json block, or a heredoc) and the arguments of the first `cavityq`
    command line after it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n" + heading):]
    block = re.search(r"```json\n(.*?)```|<<'EOF'\n(.*?)\nEOF\n", section, re.S)
    command = re.search(r"^cavityq (.*)$", section[block.end():], re.M)
    return block.group(1) or block.group(2) + "\n", shlex.split(command.group(1))


def readme_command(command: str, tmp: Path) -> list[str]:
    """The README command line of a command, with its config written to
    tmp/config.json and its output directory tmp/out."""
    config, argv = readme_example(CASES[command])
    path = tmp / "config.json"
    path.write_text(config, encoding="utf-8")
    return [str(tmp / "out") if a == "results" else str(path) if a.endswith(".json") else a
            for a in argv]


class CliRun(NamedTuple):
    code: int  # the exit code
    stdout: str
    stderr: list[str]  # its lines
    wrote: bool  # whether the output directory exists afterwards


def run_cli(out: Path, *argv: str) -> CliRun:
    """`cavityq --out out *argv` in-process through `cli.main`. An argparse
    exit (a bad flag, `--help`) returns its code like any other."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(["--out", str(out), *argv])
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, stdout.getvalue(), stderr.getvalue().splitlines(), Path(out).exists())


def fresh_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """`python -W error *args` in a fresh interpreter, such as
    `fresh_python("-m", "cavityq", "device", path)`, with this checkout's `src`
    first on PYTHONPATH and env over os.environ (None unsets a variable).
    Output is captured as text."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])), **(env or {})}
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          env={k: v for k, v in env.items() if v is not None})


def _code_summary(artifact: str) -> str:
    """The per-trajectory summary of a code_trajectories CSV: its header
    lines, then one row per trajectory."""
    lines = artifact.splitlines()
    head = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    out = head + ["seed,steps,jump_count,parity,final_mean_n,mean_mean_n"]
    for seed in dict.fromkeys(row["seed"] for row in rows):
        mine = [row for row in rows if row["seed"] == seed]
        mean_n = np.array([float(row["mean_n"]) for row in mine])
        last = mine[-1]
        out.append(",".join([seed, last["step"], last["jump_count"], last["parity"],
                             repr(float(mean_n[-1])), repr(float(mean_n.mean()))]))
    return "\n".join(out) + "\n"


def run_case(command: str) -> tuple[str | None, dict]:
    """The command's README config run in-process: the artifact text (None
    for `device`), without its version line, and the stdout summary,
    without the artifact path."""
    with tempfile.TemporaryDirectory() as tmp:
        run = run_cli(Path(tmp) / "out", *readme_command(command, Path(tmp)))
        assert run.code == 0, f"{command} exited {run.code}: {run.stderr}"
        summary = json.loads(run.stdout)
        artifact = None
        if "output" in summary:
            text = Path(summary.pop("output")).read_text(encoding="utf-8")
            assert text.startswith("# cavityq "), text[:40]
            artifact = text.split("\n", 1)[1]
    if command == "code":
        artifact = _code_summary(artifact)
    return artifact, summary


def golden_paths(command: str) -> tuple[Path, Path]:
    """The stored artifact and summary files of a command."""
    return GOLDEN / f"{command}.csv", GOLDEN / f"{command}.summary.json"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for command in CASES:
        artifact, summary = run_case(command)
        artifact_path, summary_path = golden_paths(command)
        if artifact is not None:
            artifact_path.write_text(artifact, encoding="utf-8")
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
        print(f"wrote {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
