"""The CI workflow runs the tier-1 command that ROADMAP.md names and the benchmark's self-test."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_runs_the_roadmap_command_and_the_benchmark_selftest():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    runs = [step["run"].strip() for step in steps if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    assert tier1 in runs
    assert "python3 perfbench/selftest.py" in runs
    versions = [str(step["with"]["python-version"]) for step in steps
                if step.get("uses", "").startswith("actions/setup-python")]
    assert versions == ["3.11"]
