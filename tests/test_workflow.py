"""The CI workflow runs this suite and nothing else that checks the code.

Its only `run:` steps are the dependency install, the tier-1 command and
the benchmark self-test, and its only `uses:` steps are checkout and
setup-python, so a new check lands as a test here. The workflow is read as
plain text: CI installs no YAML package.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_runs_only_install_tier1_and_the_benchmark_self_test():
    text = WORKFLOW.read_text(encoding="utf-8")
    install, tier1, selftest = re.findall(r"^\s*(?:- )?run:(.*)$", text, re.M)
    assert install.strip().startswith("python -m pip install ")
    assert tier1.strip() == ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
                             "python -m pytest -q --continue-on-collection-errors")
    assert selftest.strip() == "python3 perfbench/selftest.py"
    uses = re.findall(r"^\s*(?:- )?uses:(.*)$", text, re.M)
    assert [u.strip().split("@")[0] for u in uses] == ["actions/checkout",
                                                       "actions/setup-python"]
