"""In-memory spans around the public functions of each softsrv module.

A span records name, start, end, parent and the run id. Wrappers are
installed by replacing a module attribute with a timing shim, under the
name the *caller* looks up (``softsrv.training.batch_loss_and_grads`` is a
different attribute from ``softsrv.backbone.batch_loss_and_grads`` even
though both hold the same function). Nothing is written until the run
ends. A wrapper that could not be installed never produces a zero: the
metrics that depend on it are left out of the result.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass(slots=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder. Without installed wrappers it only records the spans
    the benchmark opens itself (stages and checks), which is what the
    untraced runs use to time stages."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, _clock())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def count_tokens(self, module_name: str, attr: str, key: str) -> None:
        """Clock-free shim: add the length of each result to counts[key]."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        counts = self.counts

        def shim(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key] = counts.get(key, 0) + len(result)
            return result

        setattr(module, attr, shim)
        self._restore.append((module, attr, original))

    def wrap(self, module_name: str, attr: str, span_name: str, describe=None) -> None:
        """Replace module_name.attr with a timing shim.

        A span name counts as installed only when every attribute it wraps
        was found; one absent attribute marks it missing for good.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.add(span_name)
            self.installed.discard(span_name)
            return
        tracer = self

        def shim(*args, **kwargs):
            span = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        shim.__wrapped__ = original
        setattr(module, attr, shim)
        self._restore.append((module, attr, original))
        if span_name not in self.missing:
            self.installed.add(span_name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.span)


# ---------------------------------------------------------------------------
# what each wrapper remembers about its call

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _describe_grads(args, kwargs, _result) -> dict:
    if kwargs.get("want_weight_grads", args[3] if len(args) > 3 else False):
        return {"kind": "weights"}
    if kwargs.get("want_prefix_grads", args[4] if len(args) > 4 else False):
        return {"kind": "prefix"}
    return {"kind": "forward"}


def _describe_sample(args, kwargs, result) -> dict:
    limit = _arg(args, kwargs, 2, "max_len")
    return {"tokens": len(result), "eos": len(result) < limit}


def _describe_continue(args, kwargs, result) -> dict:
    limit = _arg(args, kwargs, 2, "max_new")
    context = _arg(args, kwargs, 1, "context_ids")
    return {"tokens": len(result), "eos": len(result) < limit, "context": len(context)}


def _describe_dedup(args, kwargs, result) -> dict:
    return {"kept": len(result), "docs": len(_arg(args, kwargs, 0, "docs"))}


def _describe_decontam(args, kwargs, result) -> dict:
    return {"removed": len(result[1]), "candidates": len(_arg(args, kwargs, 0, "candidates"))}


# (module the caller looks the name up in, attribute, span name, describe)
WRAPPERS = [
    ("softsrv.training", "batch_loss_and_grads", "backbone.batch_loss_and_grads", _describe_grads),
    ("softsrv.backbone", "batch_loss_and_grads", "backbone.batch_loss_and_grads", _describe_grads),
    ("softsrv.student", "batch_loss_and_grads", "backbone.batch_loss_and_grads", _describe_grads),
    ("softsrv.generation", "sample", "backbone.sample", _describe_sample),
    ("softsrv.generation", "continue_tokens", "backbone.continue_tokens", _describe_continue),
    ("softsrv.templates", "continue_tokens", "backbone.continue_tokens", _describe_continue),
    ("softsrv.training", "materialize", "prompts.materialize", None),
    ("softsrv.generation", "materialize", "prompts.materialize", None),
    ("softsrv.training", "param_grad", "prompts.param_grad", None),
    ("softsrv.training", "zeros_like_params", "prompts.zeros_like_params", None),
    ("softsrv.prompts", "zeros_like_params", "prompts.zeros_like_params", None),
    ("softsrv.training", "adam_step", "optim.adam_step", None),
    ("softsrv.backbone", "adam_step", "optim.adam_step", None),
    ("softsrv.training", "clip_global_norm", "optim.clip_global_norm", None),
    ("softsrv.backbone", "clip_global_norm", "optim.clip_global_norm", None),
    ("softsrv.pipeline", "train", "training.train", None),
    ("softsrv.pipeline", "pretrain_backbone", "backbone.pretrain_backbone", None),
    ("softsrv.training", "embed_sequence", "embedder.embed_sequence", None),
    ("softsrv.generation", "embed_sequence", "embedder.embed_sequence", None),
    ("softsrv.pipeline", "embed_sequence", "embedder.embed_sequence", None),
    ("perfbench.workloads", "embed_sequence", "embedder.embed_sequence", None),
    ("softsrv.pipeline", "generate_questions", "generation.generate_questions", None),
    ("softsrv.pipeline", "generate_answers", "generation.generate_answers", None),
    ("softsrv.pipeline", "ptsr_generate", "templates.ptsr_generate", None),
    ("softsrv.templates", "pt_generate", "templates.pt_generate", None),
    ("softsrv.pipeline", "pt_generate_answers", "templates.pt_generate_answers", None),
    ("softsrv.postprocess", "dedup_exact", "postprocess.dedup_exact", _describe_dedup),
    ("softsrv.postprocess", "tfidf_vectorize", "postprocess.tfidf_vectorize", None),
    ("softsrv.postprocess", "svd_reduce", "postprocess.svd_reduce", None),
    ("softsrv.postprocess", "minibatch_kmeans", "postprocess.minibatch_kmeans", None),
    ("softsrv.postprocess", "round_robin_subsample", "postprocess.round_robin_subsample", None),
    ("softsrv.pipeline", "diverse_subsample", "postprocess.diverse_subsample", None),
    ("perfbench.workloads", "diverse_subsample", "postprocess.diverse_subsample", None),
    ("softsrv.pipeline", "decontaminate_report", "postprocess.decontaminate_report", _describe_decontam),
    ("perfbench.workloads", "decontaminate_report", "postprocess.decontaminate_report", _describe_decontam),
    ("softsrv.mauve", "quantize", "mauve.quantize", None),
    ("softsrv.mauve", "divergence_curve", "mauve.divergence_curve", None),
    ("softsrv.pipeline", "mauve_score", "mauve.mauve_score", None),
    ("perfbench.workloads", "mauve_score", "mauve.mauve_score", None),
    ("softsrv.student", "perplexity", "student.perplexity", None),
    ("softsrv.student", "finetune_student", "student.finetune_student", None),
    ("softsrv.backbone", "write_checkpoint", "checkpoint.write_checkpoint", None),
    ("softsrv.training", "write_checkpoint", "checkpoint.write_checkpoint", None),
    ("softsrv.backbone", "read_checkpoint", "checkpoint.read_checkpoint", None),
    ("softsrv.training", "read_checkpoint", "checkpoint.read_checkpoint", None),
    ("softsrv.pipeline", "write_records", "records.write_records", None),
    ("softsrv.pipeline", "read_records", "records.read_records", None),
]


def install_all(tracer: Tracer) -> None:
    for module_name, attr, span_name, describe in WRAPPERS:
        tracer.wrap(module_name, attr, span_name, describe)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
STAGES = ("backbone", "embedder", "train", "generate", "answers", "postprocess", "mauve", "student", "summary")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Below 20 samples no percentile qualifies and the median is returned.
    """
    values = sorted(values)
    n = len(values)
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            pos = (n - 1) * p / 100.0
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            return values[lo] + (values[hi] - values[lo]) * (pos - lo)
    return _median(values)


def dur(s: Span) -> float:
    return s.end - s.start


class _Iteration:
    """Spans below one iteration span, indexed by name (outermost only)."""

    def __init__(self, root: Span, kids: dict[int, list[Span]]):
        self.root = root
        self.kids = kids
        self.by_name: dict[str, list[Span]] = {}
        stack = [(child, frozenset()) for child in kids.get(root.sid, ())]
        while stack:
            span, outer = stack.pop()
            if span.name not in outer:
                self.by_name.setdefault(span.name, []).append(span)
            if span.name.startswith("check."):
                continue  # calls made by output checks are not the workload's
            inner = outer | {span.name}
            stack.extend((child, inner) for child in kids.get(span.sid, ()))
        for spans in self.by_name.values():
            spans.sort(key=lambda s: s.start)

    def get(self, name: str, kind: str | None = None) -> list[Span]:
        spans = self.by_name.get(name, [])
        if kind is not None:
            spans = [s for s in spans if s.attrs.get("kind") == kind]
        return spans

    def self_time(self, span: Span) -> float:
        return dur(span) - sum(dur(c) for c in self.kids.get(span.sid, ()))

    def excluded(self) -> float:
        return sum(dur(c) for c in self.kids.get(self.root.sid, ()) if c.name.startswith("check."))

    def run_s(self) -> float:
        return dur(self.root) - self.excluded()

    def stage_s(self, stage: str) -> float:
        return sum(dur(s) for s in self.get("stage." + stage))


def iterations(tracer: Tracer) -> list[_Iteration]:
    kids: dict[int, list[Span]] = {}
    for s in tracer.spans:
        kids.setdefault(s.parent, []).append(s)
    return [_Iteration(s, kids) for s in tracer.spans if s.name == "iteration" and s.end > 0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric whose wrappers were all installed."""
    its = iterations(tracer)
    out: dict[str, float] = {}

    def put(name: str, needs: tuple[str, ...], value) -> None:
        if all(n in tracer.installed for n in needs):
            out[name] = float(value())

    def per_iter(fn) -> float:
        return _median([fn(it) for it in its])

    def calls(span: str, kind: str | None = None):
        return lambda: per_iter(lambda it: len(it.get(span, kind)))

    def busy(span: str, kind: str | None = None):
        return lambda: per_iter(lambda it: sum(dur(s) for s in it.get(span, kind)))

    def self_s(span: str):
        return lambda: per_iter(lambda it: sum(it.self_time(s) for s in it.get(span)))

    def per_call(span: str, scale: float, kind: str | None = None, stat=_median):
        return lambda: stat([dur(s) * scale for it in its for s in it.get(span, kind)])

    def ratio(num, den):
        def value():
            def one(it):
                d = den(it)
                return num(it) / d if d else 0.0
            return per_iter(one)
        return value

    def attr_sum(span: str, key: str):
        return lambda it: sum(s.attrs.get(key, 0) for s in it.get(span))

    def timed(prefix: str, span: str, unit: str, scale: float, kind: str | None = None):
        put(f"{prefix}{unit}", (span,), per_call(span, scale, kind))
        put(f"{prefix}tail_{unit}", (span,), per_call(span, scale, kind, tail))
        put(f"{prefix}calls", (span,), calls(span, kind))

    blg = "backbone.batch_loss_and_grads"
    timed("backbone.batch_loss_and_grads.prefix_", blg, "ms", 1e3, "prefix")
    timed("backbone.batch_loss_and_grads.weights_", blg, "ms", 1e3, "weights")
    for fn, extra in (("sample", ()), ("continue_tokens", ("context_tokens",))):
        span = "backbone." + fn
        put(f"{span}.calls", (span,), calls(span))
        for key in extra:
            put(f"{span}.{key}", (span,), lambda span=span: per_iter(attr_sum(span, "context")))
        put(f"{span}.tokens", (span,), lambda span=span: per_iter(attr_sum(span, "tokens")))
        put(f"{span}.tokens_per_s", (span,), ratio(attr_sum(span, "tokens"),
                                                   lambda it, span=span: sum(dur(s) for s in it.get(span))))
    decode = ("backbone.sample", "backbone.continue_tokens")
    put("backbone.decode.eos_frac", decode, ratio(
        lambda it: sum(s.attrs["eos"] for n in decode for s in it.get(n)),
        lambda it: sum(len(it.get(n)) for n in decode)))

    for fn in ("prompts.materialize", "prompts.param_grad", "prompts.zeros_like_params",
               "optim.adam_step", "optim.clip_global_norm"):
        timed(fn + ".", fn, "us", 1e6)

    def step_ends(it):
        # a prompt-training step ends when its Adam update returns
        return [[c.end for c in it.kids.get(span.sid, ()) if c.name == "optim.adam_step"]
                for span in it.get("training.train")]

    def step_ms(it):
        return [(b - a) * 1e3 for ends in step_ends(it) for a, b in zip(ends, ends[1:])]

    needs = ("training.train", "optim.adam_step")
    put("training.train.step_ms", needs, lambda: _median([s for it in its for s in step_ms(it)]))
    put("training.train.step_tail_ms", needs, lambda: tail([s for it in its for s in step_ms(it)]))
    put("training.train.steps", needs, lambda: per_iter(lambda it: sum(map(len, step_ends(it)))))
    put("training.train.self_s", ("training.train",), self_s("training.train"))

    put("embedder.embed_sequence.calls", ("embedder.embed_sequence",), calls("embedder.embed_sequence"))
    put("embedder.embed_sequence.busy_s", ("embedder.embed_sequence",), busy("embedder.embed_sequence"))

    for fn in ("generation.generate_questions", "generation.generate_answers", "templates.ptsr_generate"):
        put(f"{fn}.self_s", (fn,), self_s(fn))
    put("generation.retry_frac", ("backbone.sample",), ratio(
        lambda it: sum(1 for s in it.get("backbone.sample") if s.attrs["tokens"] == 0),
        lambda it: len(it.get("backbone.sample"))))
    put("templates.ptsr.rounds_mean", (), ratio(lambda it: sum(it.root.attrs.get("ptsr_rounds", ())),
                                                 lambda it: len(it.root.attrs.get("ptsr_rounds", ()))))
    put("templates.ptsr.accept_frac", (), ratio(lambda it: sum(it.root.attrs.get("ptsr_accepted", ())),
                                                 lambda it: len(it.root.attrs.get("ptsr_accepted", ()))))

    for fn in ("dedup_exact", "tfidf_vectorize", "svd_reduce", "minibatch_kmeans",
               "round_robin_subsample", "decontaminate_report"):
        span = "postprocess." + fn
        put(f"{span}.ms", (span,), per_call(span, 1e3))
    put("postprocess.dedup.kept_frac", ("postprocess.dedup_exact",), ratio(
        attr_sum("postprocess.dedup_exact", "kept"), attr_sum("postprocess.dedup_exact", "docs")))
    put("postprocess.decontam.removed_frac", ("postprocess.decontaminate_report",), ratio(
        attr_sum("postprocess.decontaminate_report", "removed"),
        attr_sum("postprocess.decontaminate_report", "candidates")))
    for fn in ("mauve.quantize", "mauve.divergence_curve"):
        put(f"{fn}.ms", (fn,), per_call(fn, 1e3))

    for fn in ("student.perplexity", "student.finetune_student", "checkpoint.write_checkpoint",
               "checkpoint.read_checkpoint", "records.write_records", "records.read_records"):
        put(f"{fn}.busy_s", (fn,), busy(fn))

    for stage in STAGES:
        put(f"pipeline.{stage}.self_s", (), self_s("stage." + stage))
    put("pipeline.resume.ms", (), per_call("check.resume", 1e3))
    put("pipeline.uncovered_s", (), lambda: per_iter(
        lambda it: it.run_s() - sum(it.stage_s(st) for st in STAGES)))
    put("pipeline.run_s", (), lambda: per_iter(_Iteration.run_s))
    return out
