"""Staged experiment runner with artifact-based resume.

STAGE_TABLE declares each stage's artifacts, the config it reads and the
stages it reads from. A stage's fingerprint is a sha256 over those config
values and its upstream fingerprints. The reuse rule: a stage is built
unless all its artifacts exist and fingerprints.tsv records its current
fingerprint. Builders only write artifacts; a stage's value is always what
its loader reads back from them, so a fresh Pipeline and one resumed on
the same directory hold the same values. The record is dropped before a
build and written back once all its artifacts are written, so a config
change rebuilds the stages it touches and everything downstream, and an
interrupted build is never trusted. A build that may replace artifacts of
another fingerprint (the stage is recorded with one, or has artifacts but no
record) also drops the records of every stage downstream of it, so no stage
stays recorded as current on top of artifacts a later command replaced.
Builds are deterministic, so rebuilding a stage under its recorded
fingerprint, or building one that has no artifacts yet, leaves the
records downstream of it standing. Every stage is seeded from the config,
artifacts serialize deterministically, and summary.txt excludes wall-clock,
so two runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .backbone import BackboneModel, load_backbone, pretrain_backbone, save_backbone
from .config import ExperimentConfig, VARIANTS, save_config, to_ini_text
from .embedder import embed_sequence
from .errors import StageError, ValidationError
from .generation import ANSWER_TEMPERATURE, QUESTION_TEMPERATURE, generate_answers, generate_questions
from .mauve import MauveReport, mauve_score
from .optim import HELPER_LR, LossTrace
from .postprocess import decontaminate_report, diverse_subsample
from .prompts import init_params
from .records import SyntheticRecord, read_records, write_records
from .student import evaluate_student
from .templates import PT_TEMPERATURE, load_builtin_templates, pt_generate, pt_generate_answers, ptsr_generate
from .toygrammar import CorpusExample, builtin_grammar, generic_corpus, make_toy_corpus
from .training import load_params, save_params, train
from .vocab import Vocabulary, build_vocab

FINGERPRINTS = "fingerprints.tsv"


class Stage(NamedTuple):
    name: str  # the STAGES entry its failures report
    artifacts: str  # files its builder writes; its loader reads the first
    keys: str  # config read: "section" or "section.field,field"; "*" is all of it
    upstream: str  # stage keys whose fingerprints feed its own


# Rows follow dependency order; Pipeline._load_<key> and _build_<key> get the
# artifact paths. A row may declare more config than its stage reads, never
# less. The models are built with the vocabulary, which the corpus and
# backbone.vocab_size determine, and each stage encodes a model's input with
# the vocabulary that model holds; summary.txt embeds the config.
STAGE_TABLE = {
    "corpus": Stage("corpus", "corpus.json", "corpus seeds.corpus", ""),
    "backbone": Stage("backbone", "backbone.ckpt backbone_trace.tsv", "backbone seeds.backbone", "corpus"),
    "embedder": Stage("embedder", "embedder.ckpt embedder_trace.tsv",
                      "embedder backbone.max_seq,vocab_size seeds.embedder", "corpus"),
    "params": Stage("train", "params.ckpt train_trace.tsv",
                    "generation.method softsrv trainer embedder.d_e seeds.train", "corpus backbone embedder"),
    "questions": Stage("generate", "questions.jsonl",
                       "generation.method,n_raw,max_new_tokens,pt_template,ptsr_max_rounds seeds.generate",
                       "corpus backbone embedder params"),
    "answers": Stage("answers", "answered.jsonl",
                     "generation.method,max_new_tokens seeds.answers",
                     "corpus backbone questions"),
    "postprocess": Stage("postprocess", "final.jsonl selected.jsonl contaminated.jsonl",
                         "postprocess seeds.postprocess", "corpus answers"),
    "mauve": Stage("mauve", "mauve_report.txt", "mauve embedder.d_e seeds.mauve", "corpus embedder postprocess"),
    "student_base": Stage("student", "student_base.ckpt student_base_trace.tsv",
                          "student.d,n_layers,n_heads,ffn_dim,pretrain_steps "
                          "backbone.max_seq,vocab_size seeds.student", "corpus"),
    "student": Stage("student", "student_report.txt",
                     "student.finetune_steps seeds.student",
                     "corpus student_base postprocess"),
    "summary": Stage("summary", "summary.txt", "*", "corpus params questions answers postprocess mauve student"),
}

# the stage names in first-seen row order; exit codes 10.. keep stage
# failures distinguishable from argparse (2)
STAGES = tuple(dict.fromkeys(stage.name for stage in STAGE_TABLE.values()))
STAGE_EXIT_CODES = {name: 10 + i for i, name in enumerate(STAGES)}


def _downstream(key: str) -> set[str]:
    """The stage key and every stage that reads from it, directly or not."""
    found = {key}
    for other, stage in STAGE_TABLE.items():  # rows follow dependency order
        if found.intersection(stage.upstream.split()):
            found.add(other)
    return found


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _config_text(cfg: ExperimentConfig, key: str) -> str:
    if key == "*":
        return to_ini_text(cfg)
    section, _, names = key.partition(".")
    target = getattr(cfg, section)
    names = names.split(",") if names else [f.name for f in fields(target)]
    return "".join(f"{section}.{n} = {getattr(target, n)!r}\n" for n in names)


def _trace_text(trace: LossTrace) -> str:
    lines = ["step\tloss\tgrad_norm"]
    for i, (loss, norm) in enumerate(zip(trace.losses, trace.grad_norms)):
        lines.append(f"{i}\t{loss:.10g}\t{norm:.10g}")
    return "\n".join(lines) + "\n"


def _read_trace_losses(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [float(line.split("\t")[1]) for line in lines[1:]]


def _qa_text(ex: CorpusExample | SyntheticRecord) -> str:
    return ex.question + " " + ex.answer


class Pipeline:
    """One run directory; methods materialize stages on demand."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str | Path | None = None):
        self.cfg = cfg.validate()
        self.out = Path(out_dir if out_dir is not None else cfg.paths.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        save_config(self.out / "config.ini", cfg)
        self._memo: dict[str, object] = {}
        self._vocab: Vocabulary | None = None

    # ------------------------------------------------------------------
    # the reuse rule

    def _fingerprints(self) -> dict[str, str]:
        """The current fingerprint of every stage, upstream rows first."""
        fingerprints = {}
        for key, stage in STAGE_TABLE.items():
            text = "".join(_config_text(self.cfg, k) for k in stage.keys.split())
            text += "".join(f"{up}\t{fingerprints[up]}\n" for up in stage.upstream.split())
            fingerprints[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return fingerprints

    def _recorded(self) -> dict[str, str]:
        path = self.out / FINGERPRINTS
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        return dict(line.partition("\t")[::2] for line in text.splitlines())

    def _record(self, key: str, fingerprint: str | None, stale: set[str] = frozenset()) -> None:
        """Drop the entries in stale and key's own, then record fingerprint unless None."""
        recorded = self._recorded()
        for name in stale | {key}:
            recorded.pop(name, None)
        if fingerprint is not None:
            recorded[key] = fingerprint
        _write_text(self.out / FINGERPRINTS, "".join(f"{k}\t{v}\n" for k, v in sorted(recorded.items())))

    def _get(self, key: str):
        """Memoized stage value, always read by its loader; built first unless its artifacts are current."""
        if key not in self._memo:
            stage = STAGE_TABLE[key]
            paths = [self.out / name for name in stage.artifacts.split()]
            try:
                fingerprint = self._fingerprints()[key]
                recorded = self._recorded().get(key)
                if recorded != fingerprint or not all(p.exists() for p in paths):
                    replaces = recorded != fingerprint and (recorded is not None or any(p.exists() for p in paths))
                    self._record(key, None, _downstream(key) if replaces else set())
                    getattr(self, "_build_" + key)(*paths)
                    self._record(key, fingerprint)
                self._memo[key] = getattr(self, "_load_" + key)(*paths)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(stage.name, exc) from exc
        return self._memo[key]

    def ensure_corpus(self) -> dict:
        return self._get("corpus")

    def ensure_backbone(self) -> BackboneModel:
        return self._get("backbone")

    def ensure_embedder(self) -> BackboneModel:
        return self._get("embedder")

    def ensure_student_base(self) -> BackboneModel:
        return self._get("student_base")

    def ensure_params(self):
        return self._get("params")

    def ensure_questions(self) -> list[SyntheticRecord]:
        return self._get("questions")

    def ensure_answers(self) -> list[SyntheticRecord]:
        return self._get("answers")

    def ensure_postprocess(self) -> list[SyntheticRecord]:
        return self._get("postprocess")

    def ensure_mauve(self) -> float:
        return self._get("mauve")

    def ensure_student(self) -> dict:
        return self._get("student")

    def run_all(self) -> str:
        return self._get("summary")

    # ------------------------------------------------------------------
    # corpus and frozen models

    def _load_corpus(self, path: Path) -> dict:
        raw = json.loads(path.read_text(encoding="utf-8"))
        return {
            "grammar": raw["grammar"],
            "train": [CorpusExample(**d) for d in raw["train"]],
            "test": [CorpusExample(**d) for d in raw["test"]],
            "aux": [CorpusExample(**d) for d in raw["aux"]],
            "generic": list(raw["generic"]),
        }

    def _build_corpus(self, path: Path) -> None:
        c = self.cfg.corpus
        grammar = builtin_grammar(c.grammar)
        train_fold, test_fold = make_toy_corpus(grammar, c.n_examples, self.cfg.seeds.corpus)
        other_id = "truefalse" if c.grammar == "arithmetic" else "arithmetic"
        aux_fold, _ = make_toy_corpus(builtin_grammar(other_id), c.n_aux, self.cfg.seeds.corpus + 1)
        payload = {
            "grammar": c.grammar,
            "train": [asdict(e) for e in train_fold],
            "test": [asdict(e) for e in test_fold],
            "aux": [asdict(e) for e in aux_fold],
            "generic": generic_corpus(c.n_generic, self.cfg.seeds.corpus + 2),
        }
        _write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    def vocabulary(self) -> Vocabulary:
        if self._vocab is not None:
            return self._vocab
        data = self.ensure_corpus()
        texts = []
        for fold in ("train", "test", "aux"):
            for ex in data[fold]:
                texts.append(ex.question)
                texts.append(ex.answer)
        texts.extend(data["generic"])
        for tpl in load_builtin_templates(data["grammar"]).values():
            texts.append(tpl.body)
        self._vocab = build_vocab(texts, max_size=self.cfg.backbone.vocab_size)
        return self._vocab

    def _pretrain_sequences(self) -> list[list[int]]:
        data = self.ensure_corpus()
        vocabulary = self.vocabulary()
        seqs = [vocabulary.encode(_qa_text(ex)) for ex in data["train"]]
        seqs += [vocabulary.encode(ex.question) for ex in data["train"]]
        seqs += [vocabulary.encode(_qa_text(ex)) for ex in data["aux"]]
        seqs += [vocabulary.encode(s) for s in data["generic"]]
        return seqs

    def _frozen(self, section: str, seqs, ckpt: Path, trace: Path) -> None:
        """Pretrain one frozen model from its config section and seed, and save it."""
        s = getattr(self.cfg, section)
        model, losses = pretrain_backbone(
            seqs, self.vocabulary(), self.cfg.model_config(section), steps=s.pretrain_steps,
            lr=HELPER_LR, seed=getattr(self.cfg.seeds, section),
        )
        save_backbone(ckpt, model)
        _write_text(trace, _trace_text(losses))

    def _load_frozen(self, ckpt: Path, trace: Path) -> BackboneModel:
        return load_backbone(ckpt)

    _load_backbone = _load_embedder = _load_student_base = _load_frozen

    def _build_backbone(self, *paths: Path) -> None:
        self._frozen("backbone", self._pretrain_sequences(), *paths)

    def _build_embedder(self, *paths: Path) -> None:
        self._frozen("embedder", self._pretrain_sequences(), *paths)

    def _build_student_base(self, *paths: Path) -> None:
        # the proxy student never sees either grammar before fine-tuning
        seqs = [self.vocabulary().encode(t) for t in self.ensure_corpus()["generic"]]
        self._frozen("student", seqs, *paths)

    # ------------------------------------------------------------------
    # soft-prompt training

    def _load_params(self, ckpt: Path, trace: Path):
        return load_params(ckpt, self.ensure_backbone())

    def _build_params(self, ckpt: Path, trace: Path) -> None:
        method = self.cfg.generation.method
        if method not in VARIANTS:
            raise ValidationError(f"method {method!r} does not train soft prompts")
        backbone = self.ensure_backbone()
        s = self.cfg.softsrv
        tr = self.cfg.trainer
        embedder = self.ensure_embedder() if method != "ss_np" else None
        dataset = [backbone.vocab.encode(ex.question) for ex in self.ensure_corpus()["train"]]
        # passed inline, so train's working copy is the only one it keeps alive
        trained, losses = train(
            backbone, embedder, dataset,
            init_params(method, backbone, t=s.t, d_e=self.cfg.embedder.d_e, seed=self.cfg.seeds.train,
                        k=s.k, mlp_hidden=s.mlp_hidden, mlp_layers=s.mlp_layers),
            tr.steps, tr.lr, self.cfg.seeds.train, tr.batch_size,
        )
        save_params(ckpt, trained)
        _write_text(trace, _trace_text(losses))

    # ------------------------------------------------------------------
    # synthesis and postprocess

    def _load_records(self, path: Path, *others: Path) -> list[SyntheticRecord]:
        return read_records(path)

    _load_questions = _load_answers = _load_postprocess = _load_records

    def _build_questions(self, path: Path) -> None:
        g = self.cfg.generation
        backbone = self.ensure_backbone()
        data = self.ensure_corpus()
        if g.method in VARIANTS:
            params = self.ensure_params()
            embedder = self.ensure_embedder() if g.method != "ss_np" else None
            seeds = [backbone.vocab.encode(ex.question) for ex in data["train"]]
            records = generate_questions(
                backbone, embedder, params, seeds, g.n_raw,
                temperature=QUESTION_TEMPERATURE,
                seed=self.cfg.seeds.generate, max_len=g.max_new_tokens,
            )
        else:
            templates = load_builtin_templates(data["grammar"])
            seeds = [ex.question for ex in data["train"]]
            key = "question" if g.pt_template == "diversified" else "question_undiversified"
            if g.method == "pt":
                records = pt_generate(
                    backbone, templates, seeds, g.n_raw,
                    temperature=PT_TEMPERATURE, seed=self.cfg.seeds.generate,
                    max_new=g.max_new_tokens, template_key=key,
                )
            else:
                records = ptsr_generate(
                    backbone, templates, seeds, g.n_raw,
                    temperature=PT_TEMPERATURE, seed=self.cfg.seeds.generate,
                    max_new=g.max_new_tokens, max_rounds=g.ptsr_max_rounds,
                )
        write_records(path, records)

    def _build_answers(self, path: Path) -> None:
        g = self.cfg.generation
        backbone = self.ensure_backbone()
        questions = self.ensure_questions()
        sampling = (ANSWER_TEMPERATURE, self.cfg.seeds.answers, g.max_new_tokens)
        if g.method in VARIANTS:
            records = generate_answers(backbone, questions, *sampling)
        else:
            templates = load_builtin_templates(self.ensure_corpus()["grammar"])
            records = pt_generate_answers(backbone, templates, questions, *sampling)
        write_records(path, records)

    def _build_postprocess(self, final_path: Path, selected_path: Path, contaminated_path: Path) -> None:
        p = self.cfg.postprocess
        answered = self.ensure_answers()
        data = self.ensure_corpus()

        picked = diverse_subsample(
            [r.question for r in answered], p.n_select,
            svd_dims=p.svd_dims, k=p.kmeans_k, batch_size=p.kmeans_batch,
            iterations=p.kmeans_iterations, seed=self.cfg.seeds.postprocess,
        )
        selected = [answered[i] for i in picked]
        write_records(selected_path, selected)

        candidates = [_qa_text(r) for r in selected]
        reference = [_qa_text(ex) for ex in data["test"]]
        kept_idx, removed = decontaminate_report(candidates, reference, n=p.decontam_n)
        final = [selected[i] for i in kept_idx]
        audited = [
            replace(selected[i], provenance={**selected[i].provenance, "matched_ngram": list(gram)})
            for i, gram in removed
        ]
        write_records(contaminated_path, audited)
        write_records(final_path, final)

    # ------------------------------------------------------------------
    # evaluation and summary

    def _load_mauve(self, path: Path) -> float:
        first = path.read_text(encoding="utf-8").splitlines()[0]
        return float(first.split("\t")[1])

    def mauve_report(self, gen_texts: list[str], ref_texts: list[str]) -> MauveReport:
        """MAUVE of two text lists, embedded by the run's embedder, at its mauve.k and seeds.mauve."""
        if not gen_texts or not ref_texts:
            raise ValidationError("MAUVE needs at least one generated and one reference text")
        embedder = self.ensure_embedder()
        d_e = self.cfg.embedder.d_e

        def cloud(texts: list[str]) -> np.ndarray:
            return np.stack([embed_sequence(embedder, embedder.vocab.encode(t), d_e) for t in texts])

        return mauve_score(cloud(gen_texts), cloud(ref_texts), k=self.cfg.mauve.k, seed=self.cfg.seeds.mauve)

    def _build_mauve(self, path: Path) -> None:
        final = self.ensure_postprocess()
        data = self.ensure_corpus()
        report = self.mauve_report([r.question for r in final], [ex.question for ex in data["test"]])
        _write_text(path, report.to_text())

    def _load_student(self, path: Path) -> dict:
        report = dict(line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line)
        return {key: float(report[key]) for key in ("base_ppl", "tuned_ppl", "ratio")}

    def _build_student(self, path: Path) -> None:
        base = self.ensure_student_base()
        final = self.ensure_postprocess()
        if not final:
            raise ValidationError("no synthetic records survived postprocessing")
        data = self.ensure_corpus()
        test_fold = [base.vocab.encode(_qa_text(ex)) for ex in data["test"]]
        report = evaluate_student(base, final, test_fold, data["grammar"], self.cfg.student.finetune_steps,
                                  self.cfg.seeds.student)
        _write_text(path, report.to_text())

    def _load_summary(self, path: Path) -> str:
        return path.read_text(encoding="utf-8")

    def _build_summary(self, path: Path) -> None:
        data = self.ensure_corpus()
        self.ensure_backbone()
        if self.cfg.generation.method in VARIANTS:
            self.ensure_embedder()
            self.ensure_params()
        questions = self.ensure_questions()
        answered = self.ensure_answers()
        final = self.ensure_postprocess()
        selected = read_records(self.out / "selected.jsonl")
        mauve = self.ensure_mauve()
        student = self.ensure_student()

        lines = ["experiment summary", "=" * 18, ""]
        lines.append(f"method\t{self.cfg.generation.method}")
        lines.append(f"grammar\t{data['grammar']}")
        lines.append(f"train_examples\t{len(data['train'])}")
        lines.append(f"test_examples\t{len(data['test'])}")
        if self.cfg.generation.method in VARIANTS:
            losses = _read_trace_losses(self.out / "train_trace.tsv")
            head = np.mean(losses[:100]) if losses else float("nan")
            tail = np.mean(losses[-100:]) if losses else float("nan")
            lines.append(f"train_loss_first100\t{head:.10g}")
            lines.append(f"train_loss_last100\t{tail:.10g}")
        lines.append(f"questions_raw\t{len(questions)}")
        lines.append(f"questions_answered\t{len(answered)}")
        lines.append(f"selected\t{len(selected)}")
        lines.append(f"contaminated_removed\t{len(selected) - len(final)}")
        lines.append(f"final_records\t{len(final)}")
        lines.append(f"mauve_score\t{mauve:.10g}")
        lines.append(f"student_base_ppl\t{student['base_ppl']:.10g}")
        lines.append(f"student_tuned_ppl\t{student['tuned_ppl']:.10g}")
        lines.append(f"student_ppl_ratio\t{student['ratio']:.10g}")
        lines.append(f"student_success\t{student['ratio'] <= 0.8}")
        lines.append("")
        lines.append("resolved config")
        lines.append("-" * 15)
        lines.append(to_ini_text(self.cfg))
        _write_text(path, "\n".join(lines))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> str:
    """Run every stage and return the summary text."""
    return Pipeline(cfg, out_dir).run_all()
