"""Self-test of the benchmark on the smoke shape (each workload in seconds).

    python3 perfbench/selftest.py

Run from the repository root. Checks that

* each workload emits exactly the metric names and units BENCHMARK.json
  declares, untraced and traced, with no failed operation;
* traced counts agree with the config: prefix-gradient calls equal the
  prompt-training steps, weight-gradient calls equal the pretrain plus
  fine-tune steps, and ``sample`` calls are at least ``n_raw``;
* a wrapper that cannot be installed leaves its metrics out instead of
  reporting zeros.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class SelfTestFailure(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-800:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_names_and_counts() -> None:
    from perfbench.workloads import PIPELINE_SIZES

    for workload in ("softprompt", "template", "curate"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = declared(kind)
            check(got == want, f"{workload} trace={trace}: names/units differ: "
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"unit mismatches {sorted(n for n in got.keys() & want.keys() if got[n] != want[n])}")
            if trace and workload in PIPELINE_SIZES:
                size = PIPELINE_SIZES[workload]["smoke"]
                value = {name: m["value"] for name, m in result["metrics"].items()}
                check(value["backbone.batch_loss_and_grads.prefix_calls"] == size["prompt_steps"],
                      f"{workload}: prefix-grad calls != trainer steps")
                weight_steps = (size["backbone_steps"] + size["embedder_steps"]
                                + size["student_pretrain"] + size["student_finetune"])
                check(value["backbone.batch_loss_and_grads.weights_calls"] == weight_steps,
                      f"{workload}: weight-grad calls != pretrain + fine-tune steps")
                if workload == "softprompt":
                    check(value["backbone.sample.calls"] >= size["n_raw"], "sample calls < n_raw")
        print(f"ok  {workload}: names, units and traced counts")


def test_missing_wrapper_is_absent_not_zero() -> None:
    from perfbench import tracing, workloads

    workdir = ROOT / ".perfbench_out" / "selftest"
    workload = workloads.make_workload("softprompt", 3, True, workdir)
    workload.setup()
    tracer = tracing.Tracer("selftest")
    tracing.install_all(tracer)
    # a renamed program function: the wrapper for it cannot be installed
    tracer.wrap("softsrv.prompts", "no_such_function", "prompts.param_grad")
    try:
        ops = workload.iteration(tracer, 0, tracer.counts)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    check(ops.failed == 0, f"smoke iteration failed: {ops.notes}")
    metrics = tracing.layer_metrics(tracer)
    check(not any(name.startswith("prompts.param_grad.") for name in metrics),
          "metrics of an uninstalled wrapper were reported")
    check(metrics.get("prompts.materialize.calls", 0) > 0, "installed wrappers stopped reporting")
    print("ok  missing wrapper: its metrics are absent, the others present")


def main() -> int:
    try:
        test_names_and_counts()
        test_missing_wrapper_is_absent_not_zero()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
