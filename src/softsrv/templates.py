"""Few-shot template baselines: plain prompting and self-refinement.

A template is plain text with exactly one [[EXAMPLE]] placeholder. The
plain-template path (PT) renders a seed example into the question template,
samples a continuation, and splits it into up to ten candidates at
"Question <n>:" / "Passage and Question <n>:" markers. The self-refinement
path (PT_SR) then alternates critique and refine rounds per candidate, up
to max_rounds of them, accepting as soon as a refine output begins with
STOP_TEXT after whitespace trimming. Answers for both render the answer
template around each question and continue it through
generation.generate_answers, the loop the soft-prompt methods use. The
caller sets temperature, seed and length; the pipeline samples questions,
critiques and refinements at PT_TEMPERATURE and passes its [generation]
seed and length. Every context is held to the backbone's capacity before
the first decode: the rendered question and answer contexts themselves,
and the critique and refine contexts by their worst cases, which
check_worst_cases declares for ptsr_generate and, with the answer's, for
ExperimentConfig.validate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .backbone import BackboneModel, check_capacity, continue_tokens
from .errors import ValidationError
from .generation import generate_answers, record_stream
from .records import SyntheticRecord
from .vocab import split_text

PLACEHOLDER = "[[EXAMPLE]]"
STOP_TEXT = "Stop"  # what every refine template tells the model to say; declared nowhere else
PT_TEMPERATURE = 2.0

_MARKER_RE = re.compile(r"(?:Passage and )?Question\s*\d+\s*:")
_MAX_SPLIT = 10

_CRITIQUE_PHASE, _REFINE_PHASE = 11, 12


@dataclass(frozen=True)
class PromptTemplate:
    body: str

    def __post_init__(self):
        if not self.body:
            raise ValidationError("template body must be nonempty")
        n = self.body.count(PLACEHOLDER)
        if n != 1:
            raise ValidationError(f"template must contain exactly one placeholder, found {n}")


def render(template: PromptTemplate, example_text: str) -> str:
    """Substitute the example into the placeholder slot."""
    return template.body.replace(PLACEHOLDER, example_text)


def load_builtin_templates(domain: str) -> dict[str, PromptTemplate]:
    """Template fixtures shipped with the package, keyed by kind.

    Kinds: question, question_undiversified, answer, critique, refine.
    """
    base = resources.files("softsrv") / "templates"
    out = {}
    for kind in ("question", "question_undiversified", "answer", "critique", "refine"):
        name = f"{domain}_{kind}.txt"
        path = base / name
        try:
            body = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ValidationError(f"no builtin template {name!r}") from None
        out[kind] = PromptTemplate(body=body.strip("\n"))
    return out


def split_questions(text: str) -> list[str]:
    """Split a sampled continuation at enumeration markers, max ten candidates.

    With no marker present the whole continuation is the single candidate.
    """
    parts = [p.strip() for p in _MARKER_RE.split(text)]
    parts = [p for p in parts if p]
    if not parts:
        return []
    return parts[:_MAX_SPLIT]


def _check_fits(max_seq: int, kind: str, context_len: int, max_new: int) -> None:
    """CapacityError unless a kind-template context of context_len tokens and max_new more fit max_seq."""
    check_capacity(max_seq, context_len + max_new,
                   f"the {kind} template's context of {context_len} tokens plus {max_new} new tokens")


def check_worst_cases(templates: dict[str, PromptTemplate], kinds: tuple[str, ...], max_seq: int,
                      max_new: int) -> None:
    """CapacityError unless each kind's longest context and max_new more fit max_seq.

    Every decode is at most max_new tokens, so a question or a critique
    is too: the critique and answer templates hold one question, and the
    refine template a question, "Critique:" and a critique (2 * max_new +
    2). A rendered template has the same token count in any vocabulary,
    so the bounds depend only on the templates and max_new.
    """
    for kind in kinds:
        if kind not in templates:
            raise ValidationError(f"missing template {kind!r}")
        filled = 2 * max_new + 2 if kind == "refine" else max_new
        _check_fits(max_seq, kind, len(split_text(render(templates[kind], ""))) + filled, max_new)


def _continuation_text(model: BackboneModel, prompt_text: str, max_new: int, temperature: float, stream) -> str:
    ids = model.vocab.encode(prompt_text)
    return model.vocab.decode(continue_tokens(model, ids, max_new, temperature, stream))


def pt_generate(
    backbone: BackboneModel,
    templates: dict[str, PromptTemplate],
    seeds: list[str],
    n_raw: int,
    temperature: float,
    seed: int,
    max_new: int,
    template_key: str = "question",
    method_tag: str = "PT",
) -> list[SyntheticRecord]:
    """Render/sample/split until n_raw question records exist.

    Each visit yields at least one record, so the visits render only the
    first n_raw seeds; every one of them is checked to fit with max_new
    sampled tokens before the first is sampled.
    """
    if not seeds:
        raise ValidationError("no seed examples")
    if n_raw < 1:
        raise ValidationError("n_raw must be >= 1")
    if template_key not in templates:
        raise ValidationError(f"missing template {template_key!r}")
    tpl = templates[template_key]
    contexts = [render(tpl, text) for text in seeds[:n_raw]]
    _check_fits(backbone.config.max_seq, template_key, max(map(len, map(split_text, contexts))), max_new)
    records: list[SyntheticRecord] = []
    visit = 0
    while len(records) < n_raw:
        si = visit % len(seeds)
        text = _continuation_text(
            backbone, contexts[si], max_new, temperature, record_stream(seed, method_tag, visit)
        )
        candidates = split_questions(text) or ["<unk>"]
        for part in candidates:
            if len(records) == n_raw:
                break
            records.append(
                SyntheticRecord(
                    question=part,
                    seed_index=si,
                    method_tag=method_tag,
                    provenance={
                        "master_seed": int(seed),
                        "visit": visit,
                        "temperature": temperature,
                    },
                )
            )
        visit += 1
    return records


def ptsr_generate(
    backbone: BackboneModel,
    templates: dict[str, PromptTemplate],
    seeds: list[str],
    n_raw: int,
    temperature: float,
    seed: int,
    max_new: int,
    max_rounds: int = 3,
) -> list[SyntheticRecord]:
    """PT candidates followed by up to max_rounds critique/refine rounds per candidate.

    The critique and refine worst cases (check_worst_cases) are checked
    before anything is sampled.
    """
    if max_rounds < 1:
        raise ValidationError("max_rounds must be >= 1")
    check_worst_cases(templates, ("critique", "refine"), backbone.config.max_seq, max_new)
    base = pt_generate(
        backbone, templates, seeds, n_raw,
        temperature=temperature, seed=seed, max_new=max_new, method_tag="PT_SR",
    )
    out = []
    for idx, rec in enumerate(base):
        question = rec.question
        rounds_used = 0
        accepted = False
        for rnd in range(max_rounds):
            rounds_used = rnd + 1
            critique = _continuation_text(
                backbone,
                render(templates["critique"], question),
                max_new, temperature,
                record_stream(seed, "PT_SR", idx, rnd, _CRITIQUE_PHASE),
            )
            composite = f"{question}\nCritique: {critique}"
            refined = _continuation_text(
                backbone,
                render(templates["refine"], composite),
                max_new, temperature,
                record_stream(seed, "PT_SR", idx, rnd, _REFINE_PHASE),
            ).strip()
            if refined.startswith(STOP_TEXT):
                accepted = True
                break
            if refined:  # an empty rewrite keeps the previous question
                question = refined
        prov = dict(rec.provenance)
        prov.update({"rounds": rounds_used, "accepted": accepted})
        out.append(
            SyntheticRecord(
                question=question,
                seed_index=rec.seed_index,
                method_tag="PT_SR",
                provenance=prov,
            )
        )
    return out


def pt_generate_answers(
    backbone: BackboneModel,
    templates: dict[str, PromptTemplate],
    records: list[SyntheticRecord],
    temperature: float,
    seed: int,
    max_new: int,
) -> list[SyntheticRecord]:
    """Answers via the answer template rendered around each question."""
    if "answer" not in templates:
        raise ValidationError("missing template 'answer'")
    prompts = [render(templates["answer"], rec.question) for rec in records]
    _check_fits(backbone.config.max_seq, "answer", max(map(len, map(split_text, prompts)), default=0), max_new)
    return generate_answers(backbone, records, temperature, seed, max_new, prompts)
