"""softsrv benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload softprompt --seed 1 --seconds 36 --trace 0

Run it from the repository root; it imports the package from ``src/``
and writes only under ``.perfbench_out/``. Each run starts fresh child
processes: a few that only set up (to time set-up), then one that sets up
and repeats the workload until ``--seconds`` is spent. With ``--trace 1``
the time is split between an untraced child and a traced one, and the
result holds the per-layer metrics plus the tracing overhead.

The last stdout line is the result; the line before it is a detail record
with per-stage times and provenance. Exit status is non-zero, with no
result line, when the package or a child fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

SETUP_CHILDREN = 2
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

# Stages whose amount of work the workload's inputs fix. The stages that
# sample text (generate, answers) and those that consume sampled text
# (postprocess, mauve, student on the pipelines) do work that swings by a
# quarter from seed to seed with sample lengths, so the gated time metric
# leaves them out; they are reported in the detail line.
FIXED_WORK = {
    "softprompt": ("backbone", "embedder", "train"),
    "template": ("backbone", "embedder"),
    "curate": ("postprocess", "mauve"),
}

# per-workload stage groups reported in the detail line
STAGE_GROUPS = {
    "softprompt": ("pretrain_s", "train_s", "synth_s", "decode_tokens_per_s", "student_s"),
    "template": ("pretrain_s", "synth_s", "decode_tokens_per_s", "student_s"),
    "curate": ("postprocess_s", "mauve_s"),
}
_GROUP_STAGES = {
    "pretrain_s": ("backbone", "embedder"),
    "train_s": ("train",),
    "synth_s": ("generate", "answers"),
    "student_s": ("student",),
    "postprocess_s": ("postprocess",),
    "mauve_s": ("mauve",),
}


def unit_of(name: str) -> str:
    """Units follow the last word of the metric name."""
    if name.endswith("per_s"):
        return "1/s"
    last = name.replace(".", "_").rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "frac": "ratio", "mb": "MB"}.get(last, "count")


# ---------------------------------------------------------------------------
# child processes

def _provenance(root: Path, seed: int, config_text: str) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
        "config": config_text,
    }


def child_main(args) -> dict:
    """Set up, then (unless only timing set-up) repeat the workload."""
    t0 = time.perf_counter()
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import tracing, workloads

    workdir = root / OUT_DIR / args.run_id
    workload = workloads.make_workload(args.workload, args.seed, args.smoke, workdir)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.child == "setup":
        return {"setup_s": setup_s}

    tracer = tracing.Tracer(args.run_id)
    if args.trace:
        tracing.install_all(tracer)
    else:
        for module_name, attr in (("softsrv.generation", "sample"), ("softsrv.generation", "continue_tokens"),
                                  ("softsrv.templates", "continue_tokens")):
            tracer.count_tokens(module_name, attr, "decode")
    attempted = failed = 0
    notes: list[str] = []
    decode_per_iter = []
    start = time.perf_counter()
    last = 0.0
    index = 0
    # stop before an iteration that would overrun the budget (at least one runs)
    while index == 0 or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        ops = workload.iteration(tracer, index, tracer.counts)
        decode_per_iter.append(tracer.counts.pop("synth_tokens", 0))
        last = time.perf_counter() - began
        attempted += ops.attempted
        failed += ops.failed
        notes += ops.notes
        index += 1
        if ops.failed:
            break
    tracer.uninstall()

    its = tracing.iterations(tracer)
    stage_s = {}
    for group, stages in _GROUP_STAGES.items():
        stage_s[group] = statistics.median(sum(it.stage_s(st) for st in stages) for it in its)
    synth = [sum(it.stage_s(st) for st in _GROUP_STAGES["synth_s"]) for it in its]
    stage_s["decode_tokens_per_s"] = statistics.median(
        n / s if s else 0.0 for n, s in zip(decode_per_iter, synth))
    resume = [tracing.dur(s) for it in its for s in it.get("check.resume")]
    result = {
        "setup_s": setup_s,
        "run_s": [it.run_s() for it in its],
        "fixed_work_s": [sum(it.stage_s(st) for st in FIXED_WORK[args.workload]) for it in its],
        "stages": stage_s,
        "resume_ms": statistics.median(resume) * 1e3 if resume else None,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(root, args.seed, workload.config_text()),
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing_spans"] = sorted(tracer.missing)
        trace_file = root / OUT_DIR / "traces" / f"{args.run_id}.jsonl"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_file)
        result["trace_file"] = str(trace_file.relative_to(root))
    return result


# ---------------------------------------------------------------------------
# parent process

def _spawn(args, child: str, seconds: float, trace: int, deadline: float) -> dict:
    run_id = f"{args.workload}-{args.seed}-{child}-{uuid.uuid4().hex[:8]}"
    cmd = [sys.executable, os.path.abspath(__file__), "--child", child, "--run-id", run_id,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    cmd += ["--smoke"] if args.smoke else []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{child} child for {args.workload} ran past the deadline")
    finally:
        shutil.rmtree(Path.cwd() / OUT_DIR / run_id, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{child} child for {args.workload} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parent_main(args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (Path.cwd() / "src" / "softsrv" / "__init__.py").is_file():
        print("run from the repository root: src/softsrv is missing", file=sys.stderr)
        return 2
    setups = [_spawn(args, "setup", 0, 0, deadline)["setup_s"] for _ in range(SETUP_CHILDREN)]
    if args.trace:
        plain = _spawn(args, "measure", args.seconds / 2.0, 0, deadline)
        traced = _spawn(args, "measure", args.seconds / 2.0, 1, deadline)
        runs = [plain, traced]
    else:
        plain = _spawn(args, "measure", args.seconds, 0, deadline)
        runs = [plain]
    setups.append(plain["setup_s"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    run_s = statistics.median(plain["run_s"])

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = statistics.median(traced["run_s"]) / run_s - 1.0
        metrics = {name: _metric(v, unit_of(name)) for name, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "fixed_work_s": _metric(statistics.median(plain["fixed_work_s"]), "s"),
            "peak_rss_mb": _metric(plain["peak_rss_mb"], "MB"),
        }
    detail = {
        "workload": args.workload,
        "setup_s": setups,
        "fixed_work_s": plain["fixed_work_s"],
        "run_s": plain["run_s"],
        "stages": {k: plain["stages"][k] for k in STAGE_GROUPS[args.workload]},
        "resume_ms": plain["resume_ms"],
        "peak_rss_mb": plain["peak_rss_mb"],
        "notes": [n for r in runs for n in r["notes"]],
        "provenance": plain["provenance"],
    }
    if args.trace:
        detail["traced_run_s"] = traced["run_s"]
        detail["missing_spans"] = traced["missing_spans"]
        detail["trace_file"] = traced["trace_file"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("softprompt", "template", "curate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--run-id", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    try:
        return parent_main(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
