"""The three benchmark workloads: inputs from a seed, timed stages, checks.

Every workload keeps the desk model shapes (backbone d64/L4/4 heads,
prompt width t=16, ss_mc MLP 128x3, batch 8, 48 new tokens) and cuts only
step and record counts, because per-step and per-token costs are what
optimisations move, while a full desk run is far too long to repeat.

* softprompt: the whole pipeline with method ss_mc. Exercises backbone
  forward/backward with prefix gradients, the prompt layer, and decode
  from a dense prefix (``sample``).
* template: the whole pipeline with method ptsr. Same decode layer used
  differently: long rendered-template contexts, many ``continue_tokens``
  calls per record, no soft prompt; the prompt/training layers never run.
* curate: no generator model. diverse_subsample -> decontaminate_report ->
  mauve_score on a seeded pool of noisy grammar documents with exact
  duplicates and reference overlap. Bypasses decode and training.

A stage that raises, or whose output check fails, is one failed operation.
Checks run inside ``check.*`` spans, which the run time excludes.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from softsrv import vocab as V
from softsrv.backbone import (
    BackboneConfig,
    checksum,
    continuation_logits,
    continue_tokens,
    forward_logits,
    pretrain_backbone,
    sample,
)
from softsrv.config import ExperimentConfig, override_master_seed, preset_config, to_ini_text
from softsrv.embedder import embed_sequence
from softsrv.mauve import mauve_score
from softsrv.pipeline import Pipeline
from softsrv.postprocess import decontaminate_report, diverse_subsample, normalize_tokens
from softsrv.prompts import materialize
from softsrv.records import read_records
from softsrv.templates import load_builtin_templates, render
from softsrv.toygrammar import builtin_grammar
from softsrv.vocab import build_vocab

# Run lengths. "full" is what the benchmark measures; "smoke" runs each
# workload in seconds for the self-test.
PIPELINE_SIZES = {
    "softprompt": {
        "full": dict(n_examples=120, n_aux=40, n_generic=60, backbone_steps=30, embedder_steps=30,
                     prompt_steps=12, n_raw=4, n_select=3, student_pretrain=10, student_finetune=10),
        "smoke": dict(n_examples=30, n_aux=10, n_generic=10, backbone_steps=3, embedder_steps=2,
                      prompt_steps=3, n_raw=3, n_select=2, student_pretrain=2, student_finetune=2),
    },
    "template": {
        "full": dict(n_examples=120, n_aux=40, n_generic=60, backbone_steps=60, embedder_steps=60,
                     prompt_steps=0, n_raw=1, n_select=1, student_pretrain=10, student_finetune=10),
        "smoke": dict(n_examples=30, n_aux=10, n_generic=10, backbone_steps=3, embedder_steps=2,
                      prompt_steps=0, n_raw=1, n_select=1, student_pretrain=2, student_finetune=2),
    },
}
CURATE_SIZES = {
    "full": dict(n_docs=12000, n_reference=600, n_select=3000, svd_dims=64, k=128, batch=256,
                 iterations=50, mauve_k=32),
    "smoke": dict(n_docs=600, n_reference=60, n_select=150, svd_dims=16, k=16, batch=64,
                  iterations=10, mauve_k=8),
}

ORACLE_TOKENS = 8


def greedy_oracle(backbone, prefixes, contexts) -> bool:
    """Greedy decodes equal the token-by-token argmax of a full forward pass.

    Guards any faster decode path (such as a KV cache): ``sample`` from a
    dense prefix is compared with ``forward_logits``, ``continue_tokens``
    from real tokens with ``continuation_logits``.
    """
    for prefix in prefixes:
        ids = sample(backbone, prefix, ORACLE_TOKENS, 0.0, 0)
        target = ids + ([V.EOS] if len(ids) < ORACLE_TOKENS else [])
        rows = forward_logits(backbone, prefix, target)
        if [int(np.argmax(r)) for r in rows] != target:
            return False
    for context in contexts:
        got = continue_tokens(backbone, context, ORACLE_TOKENS, 0.0, 0)
        ids, want = list(context), []
        while len(want) < ORACLE_TOKENS:
            nxt = int(np.argmax(continuation_logits(backbone, ids)))
            if nxt == V.EOS:
                break
            ids.append(nxt)
            want.append(nxt)
        if got != want:
            return False
    return True


class _Ops:
    """Attempted and failed operation counts for one iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def stage(self, name: str, call):
        """Run one timed stage call; None if it raised."""
        with self.tracer.span("stage." + name):
            return self.call(name, call)

    def call(self, name: str, call):
        """One operation: a failure is counted and recorded, not raised."""
        self.attempted += 1
        try:
            return call()
        except Exception as exc:  # the benchmark reports failed operations
            self.failed += 1
            self.notes.append(f"{name}: {exc!r}")
            return None

    def check(self, name: str, ok) -> bool:
        """Run a check outside the timed region; a False counts one failed operation."""
        with self.tracer.span("check." + name):
            passed = bool(ok())
        if not passed:
            self.failed += 1
            self.notes.append(f"{name}: check failed")
        return passed


# ---------------------------------------------------------------------------
# softprompt and template: the whole Pipeline

class PipelineWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path):
        self.name = name
        self.size = PIPELINE_SIZES[name]["smoke" if smoke else "full"]
        self.seed = seed
        self.workdir = workdir
        self.cfg = self._config()

    def _config(self) -> ExperimentConfig:
        s = self.size
        cfg = override_master_seed(preset_config("desk"), self.seed)
        cfg.corpus.n_examples = s["n_examples"]
        cfg.corpus.n_aux = s["n_aux"]
        cfg.corpus.n_generic = s["n_generic"]
        cfg.backbone.pretrain_steps = s["backbone_steps"]
        cfg.embedder.pretrain_steps = s["embedder_steps"]
        cfg.trainer.steps = s["prompt_steps"]
        cfg.generation.method = "ss_mc" if self.name == "softprompt" else "ptsr"
        cfg.generation.n_raw = s["n_raw"]
        # one critique/refine round keeps a ptsr iteration near 5 s, so a run
        # repeats the fixed-work stages often enough for a steady median
        cfg.generation.ptsr_max_rounds = 1
        cfg.postprocess.n_select = s["n_select"]
        cfg.postprocess.svd_dims = 4
        cfg.postprocess.kmeans_k = 2
        cfg.postprocess.kmeans_batch = 4
        cfg.postprocess.kmeans_iterations = 10
        cfg.mauve.k = 2
        cfg.student.pretrain_steps = s["student_pretrain"]
        cfg.student.finetune_steps = s["student_finetune"]
        cfg.paths.out_dir = str(self.workdir)
        return cfg.validate()

    def config_text(self) -> str:
        return to_ini_text(self.cfg)

    def setup(self) -> None:
        """Generate the corpus once; each iteration starts from a copy."""
        self.inputs = self.workdir / "inputs"
        pipe = Pipeline(self.cfg, self.inputs)
        pipe.ensure_corpus()
        pipe.vocabulary()

    def iteration(self, tracer, index: int, counts: dict) -> _Ops:
        run_dir = self.workdir / f"iter{index}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        shutil.copyfile(self.inputs / "corpus.json", run_dir / "corpus.json")
        pipe = Pipeline(self.cfg, run_dir)
        corpus = pipe.ensure_corpus()
        vocabulary = pipe.vocabulary()
        g = self.cfg.generation
        ops = _Ops(tracer)
        with tracer.span("iteration") as root:
            ok = self._stages(pipe, ops, counts, corpus, vocabulary)
            if ok and g.method == "ptsr":
                questions = read_records(run_dir / "questions.jsonl")
                root.attrs["ptsr_rounds"] = [r.provenance["rounds"] for r in questions]
                root.attrs["ptsr_accepted"] = [int(r.provenance["accepted"]) for r in questions]
        shutil.rmtree(run_dir, ignore_errors=True)
        return ops

    def _stages(self, pipe, ops: _Ops, counts: dict, corpus, vocabulary) -> bool:
        """Timed stage calls, each followed by its check; False stops the iteration."""
        g = self.cfg.generation
        backbone = ops.stage("backbone", pipe.ensure_backbone)
        if backbone is None:
            return False
        embedder = ops.stage("embedder", pipe.ensure_embedder)
        if embedder is None:
            return False
        before = (checksum(backbone), checksum(embedder))

        params = None
        if g.method == "ss_mc":
            params = ops.stage("train", pipe.ensure_params)
            frozen = ops.check("frozen", lambda: (checksum(backbone), checksum(embedder)) == before)
            if params is None or not frozen:
                return False

        decoded = counts.get("decode", 0)
        questions = ops.stage("generate", pipe.ensure_questions)
        if questions is None or not ops.check("questions", lambda: len(questions) == g.n_raw):
            return False
        answered = ops.stage("answers", pipe.ensure_answers)
        if answered is None or not ops.check(
            "answers", lambda: len(answered) == g.n_raw and all(r.answer is not None for r in answered)
        ):
            return False
        counts["synth_tokens"] = counts.get("decode", 0) - decoded
        if not ops.check("greedy_oracle", lambda: self._oracle_ok(backbone, embedder, params, vocabulary, corpus)):
            return False

        final = ops.stage("postprocess", pipe.ensure_postprocess)
        if final is None or not ops.check("postprocess", lambda: self._postprocess_ok(pipe, questions, final)):
            return False
        score = ops.stage("mauve", pipe.ensure_mauve)
        if score is None or not ops.check("mauve", lambda: 0.0 <= score <= 1.0):
            return False
        student = ops.stage("student", pipe.ensure_student)
        if student is None or not ops.check("student", lambda: all(np.isfinite(v) and v > 0 for v in student.values())):
            return False
        summary = ops.stage("summary", pipe.run_all)
        if summary is None or not ops.check("resume", lambda: self._resume_ok(pipe, summary)):
            return False
        return ops.check("frozen_end", lambda: (checksum(backbone), checksum(embedder)) == before)

    def _resume_ok(self, pipe, summary: str) -> bool:
        """Reopening the finished run directory returns the same summary bytes."""
        reopened = Pipeline(self.cfg, pipe.out).run_all()
        return reopened == summary and (pipe.out / "summary.txt").read_bytes() == summary.encode("utf-8")

    def _oracle_ok(self, backbone, embedder, params, vocabulary, corpus) -> bool:
        """Greedy oracle on two prefixes and two contexts of the workload's kind.

        Prefixes are the materialized prompts when a soft prompt was
        trained, else seeded random matrices; contexts are the seed
        questions, or rendered templates on the template workload.
        """
        examples = corpus["train"][:2]
        seeds = [vocabulary.encode(ex.question) for ex in examples]
        if params is not None:
            prefixes = [materialize(params, embed_sequence(embedder, s, self.cfg.embedder.d_e)) for s in seeds]
        else:
            rng = np.random.default_rng(self.seed)
            scale = float(np.std(backbone.weights["tok_emb"]))
            prefixes = [rng.normal(0.0, scale, (backbone.d, self.cfg.softsrv.t)) for _ in seeds]
        contexts = seeds
        if self.cfg.generation.method == "ptsr":
            templates = load_builtin_templates(corpus["grammar"])
            contexts = [vocabulary.encode(render(templates["question"], ex.question)) for ex in examples]
        return greedy_oracle(backbone, prefixes, contexts)

    def _postprocess_ok(self, pipe, questions, final) -> bool:
        selected = read_records(pipe.out / "selected.jsonl")
        contaminated = read_records(pipe.out / "contaminated.jsonl")
        want = min(self.cfg.postprocess.n_select, len({r.question for r in questions}))
        return len(selected) == want and len(final) + len(contaminated) == len(selected)


# ---------------------------------------------------------------------------
# curate: postprocess and MAUVE on a large seeded document pool

_NOISE_WORDS = (
    "quickly maybe really almost often again also still just even very quite rather "
    "perhaps indeed surely only twice nearly later soon each every other another same such"
).split()


def make_pool(seed: int, n_docs: int, n_reference: int) -> tuple[list[str], list[str]]:
    """Noisy grammar documents with exact duplicates, and a clean reference fold.

    About a quarter of the pool repeats an earlier document verbatim. The
    rest are grammar samples with seeded word noise, so many still share
    13-grams with the reference fold and some do not.
    """
    rng = np.random.default_rng(seed)
    grammars = [builtin_grammar("arithmetic"), builtin_grammar("truefalse")]
    reference = []
    for _ in range(n_reference):
        _, _, q, a = grammars[int(rng.integers(2))].sample_example(rng)
        reference.append(q + " " + a)
    docs: list[str] = []
    while len(docs) < n_docs:
        if docs and rng.random() < 0.23:
            docs.append(docs[int(rng.integers(len(docs)))])
            continue
        _, _, q, a = grammars[int(rng.integers(2))].sample_example(rng)
        words = []
        for word in (q + " " + a).split():
            u = rng.random()
            if u < 0.04:
                continue
            words.append(word)
            if u > 0.94:
                words.append(_NOISE_WORDS[int(rng.integers(len(_NOISE_WORDS)))])
        docs.append(" ".join(words))
    return docs, reference


class CurateWorkload:
    def __init__(self, seed: int, smoke: bool):
        self.size = CURATE_SIZES["smoke" if smoke else "full"]
        self.seed = seed

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in sorted(self.size.items())) + f"seed = {self.seed}\n"

    def setup(self) -> None:
        s = self.size
        self.docs, self.reference = make_pool(self.seed, s["n_docs"], s["n_reference"])
        self.vocab = build_vocab(self.docs + self.reference, max_size=512)
        config = BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128, max_seq=256)
        # MAUVE reads only embedding rows, so the embedder stays at its
        # seeded initialisation (zero pretrain steps)
        self.embedder, _ = pretrain_backbone(
            [self.vocab.encode(t) for t in self.reference], self.vocab, config,
            steps=0, lr=1e-3, seed=self.seed,
        )
        self.ref_grams = set()
        for doc in self.reference:
            toks = normalize_tokens(doc)
            self.ref_grams.update(tuple(toks[i:i + 13]) for i in range(len(toks) - 12))

    def iteration(self, tracer, index: int, counts: dict) -> _Ops:
        s = self.size
        ops = _Ops(tracer)
        with tracer.span("iteration"):
            with tracer.span("stage.postprocess"):
                picked = ops.call("diverse_subsample", lambda: diverse_subsample(
                    self.docs, s["n_select"], svd_dims=s["svd_dims"], k=s["k"],
                    batch_size=s["batch"], iterations=s["iterations"], seed=self.seed))
                if picked is None:
                    return ops
                candidates = [self.docs[i] for i in picked]
                report = ops.call("decontaminate_report",
                                  lambda: decontaminate_report(candidates, self.reference, n=13))
                if report is None:
                    return ops
            kept, removed = report
            ops.check("picked", lambda: self._picked_ok(picked))
            ops.check("decontam", lambda: self._removed_ok(candidates, kept, removed))
            with tracer.span("stage.mauve"):
                result = ops.call("mauve_score", lambda: mauve_score(
                    self._cloud(candidates[i] for i in kept), self._cloud(self.reference),
                    k=s["mauve_k"], seed=self.seed))
            if result is not None:
                ops.check("mauve", lambda: 0.0 <= result.score <= 1.0)
        return ops

    def _cloud(self, texts) -> np.ndarray:
        return np.stack([embed_sequence(self.embedder, self.vocab.encode(t), 32) for t in texts])

    def _picked_ok(self, picked) -> bool:
        want = min(self.size["n_select"], len(set(self.docs)))
        return len(picked) == want and all(a < b for a, b in zip(picked, picked[1:]))

    def _removed_ok(self, candidates, kept, removed) -> bool:
        if sorted(kept + [i for i, _ in removed]) != list(range(len(candidates))):
            return False
        for i, gram in removed:
            toks = normalize_tokens(candidates[i])
            grams = {tuple(toks[j:j + len(gram)]) for j in range(len(toks) - len(gram) + 1)}
            if gram not in grams or gram not in self.ref_grams:
                return False
        return True


def make_workload(name: str, seed: int, smoke: bool, workdir: Path):
    if name in PIPELINE_SIZES:
        return PipelineWorkload(name, seed, smoke, workdir)
    return CurateWorkload(seed, smoke)
