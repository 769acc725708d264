"""The benchmark's hold on the program: wrapped names and a parseable result.

perfbench/tracing.py times the program by replacing module attributes under
the names the callers look up. A name that no longer resolves drops its
metrics, and a non-finite metric prints as NaN, which is not JSON; either
ends a traced run without a result line a strict parser accepts.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPPERS

    unresolved = [
        f"{module}.{attr}" for module, attr, _, _ in WRAPPERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []


def test_traced_smoke_run_prints_a_strict_json_result_with_every_layer_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "softprompt", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert out.returncode == 0, out.stderr[-800:]
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] and result["failed"] == 0, result
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
