"""Command-line harness.

Subcommands map to pipeline stages; `run` executes everything. Exit codes:
0 success, 2 bad configuration or arguments, 10+ a stage failure (one code
per stage, see pipeline.STAGE_EXIT_CODES).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ExperimentConfig,
    METHODS,
    load_config,
    override_master_seed,
    preset_config,
)
from .errors import ConfigError, SoftSRVError, StageError
from .pipeline import Pipeline, STAGE_EXIT_CODES
from .records import read_records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softsrv",
        description="Soft-prompt data synthesis against a frozen toy decoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file; omitted keys come from the preset")
        p.add_argument("--preset", choices=("desk", "paper"), help="named preset to start from")
        p.add_argument("--out", help="run directory (overrides paths.out_dir)")
        p.add_argument("--seed", type=int, help="master seed; stage seeds become seed+1..seed+9")

    p = sub.add_parser("pretrain", help="build corpus and pretrain the frozen models")
    common(p)

    p = sub.add_parser("train", help="train soft-prompt parameters against the frozen backbone")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")

    p = sub.add_parser("generate", help="synthesize question/answer records")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")

    p = sub.add_parser("postprocess", help="dedup, diverse-subsample, decontaminate")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")

    p = sub.add_parser("mauve", help="distribution similarity score")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")
    p.add_argument("--gen", help="score this records/text file instead of the run's output")
    p.add_argument("--ref", help="reference records/text file (requires --gen)")

    p = sub.add_parser("student-eval", help="fine-tune the proxy student on the synthetic set")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")

    p = sub.add_parser("run", help="all stages, then print the summary")
    common(p)
    p.add_argument("--method", choices=METHODS, help="overrides generation.method")

    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config, preset=args.preset)
    else:
        cfg = preset_config(args.preset or "desk")
    if args.seed is not None:
        override_master_seed(cfg, args.seed)
    if getattr(args, "method", None):
        cfg.generation.method = args.method
    if args.out:
        cfg.paths.out_dir = args.out
    return cfg.validate()


def _read_texts(path: str) -> list[str]:
    if path.endswith(".jsonl"):
        return [r.question for r in read_records(path)]
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip()]


def _standalone_mauve(pipe: Pipeline, gen_path: str, ref_path: str) -> int:
    report = pipe.mauve_report(_read_texts(gen_path), _read_texts(ref_path))
    sys.stdout.write(report.to_text())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        pipe = Pipeline(cfg)
        if args.command == "pretrain":
            pipe.ensure_backbone()
            pipe.ensure_embedder()
            pipe.ensure_student_base()
            print(f"frozen models ready in {pipe.out}")
        elif args.command == "train":
            pipe.ensure_params()
            print(f"soft-prompt parameters ready in {pipe.out}")
        elif args.command == "generate":
            records = pipe.ensure_answers()
            print(f"{len(records)} answered records in {pipe.out}")
        elif args.command == "postprocess":
            final = pipe.ensure_postprocess()
            print(f"{len(final)} records kept in {pipe.out}")
        elif args.command == "mauve":
            if args.gen or args.ref:
                if not (args.gen and args.ref):
                    raise ConfigError("--gen and --ref must be given together")
                return _standalone_mauve(pipe, args.gen, args.ref)
            score = pipe.ensure_mauve()
            print(f"mauve_score\t{score:.10g}")
        elif args.command == "student-eval":
            result = pipe.ensure_student()
            print(f"student_ppl_ratio\t{result['ratio']:.10g}")
        elif args.command == "run":
            sys.stdout.write(pipe.run_all())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    except SoftSRVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
