"""The CI workflow runs the tier-1 command that ROADMAP.md names and the benchmark's self-test.

The tier-1 step adds --durations=15, so each log shows where the suite's
time goes.

It installs the package with its test extra, and that extra names every
third-party module the tests import, so no test skips for a missing module.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_runs_the_roadmap_command_and_the_benchmark_selftest():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    runs = [step["run"].strip() for step in steps if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    assert tier1 + " --durations=15" in runs  # the log lists the slowest tests
    assert "python3 perfbench/selftest.py" in runs
    versions = [str(step["with"]["python-version"]) for step in steps
                if step.get("uses", "").startswith("actions/setup-python")]
    assert versions == ["3.11"]


def _requirements(pyproject: str, key: str) -> set[str]:
    """Distribution names in the one-line TOML array `key = [...]`."""
    array = re.search(rf"^{key} = \[([^\]]*)\]$", pyproject, re.M).group(1)
    return {name.lower() for name in re.findall(r'"([A-Za-z0-9_.-]+)', array)}


def _imported_modules(path: Path) -> set[str]:
    """Top-level modules a test file imports, pytest.importorskip included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip"
              and isinstance(node.args[0], ast.Constant)):
            found.add(node.args[0].value.split(".")[0])
    return found


def test_workflow_installs_the_test_extra_which_covers_every_test_import():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step.get("run", "").strip() for job in workflow["jobs"].values() for step in job["steps"]]
    assert 'python -m pip install -e ".[test]"' in runs

    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    installed = _requirements(pyproject, "dependencies") | _requirements(pyproject, "test")
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {"softsrv", "perfbench"} | {path.stem for path in tests}
    distribution = {"yaml": "pyyaml"}  # import name -> the name pip installs
    third_party = set().union(*map(_imported_modules, tests)) - local - set(sys.stdlib_module_names)
    assert {distribution.get(m, m) for m in third_party} <= installed, third_party
