"""Synthetic question/answer generation from trained soft prompts.

Questions: contexts cycle round-robin over the seed examples (record j uses
seed j mod |seeds|); each record samples from the backbone conditioned on
the materialized prompt alone. Answers: plain continuation of an embedded
token prompt, no soft prompt. The prompt is the question itself for the
soft-prompt methods (stream phase 97) and the rendered answer template for
the template methods (phase 98, see templates.pt_generate_answers). Every
record draws from its own RNG stream derived by hashing (master seed,
method, record index, phase), so the full record list is a pure function
of its inputs and is insensitive to generation order. The functions take
their temperature from the caller; the pipeline samples soft-prompt
questions at QUESTION_TEMPERATURE and every method's answers at
ANSWER_TEMPERATURE.
"""

from __future__ import annotations

import numpy as np

from . import vocab as V
from .backbone import BackboneModel, continue_tokens, sample
from .config import VARIANTS
from .embedder import embed_sequence
from .errors import ValidationError
from .prompts import NonContextualParams, SoftSRVParams, materialize
from .records import METHOD_TAGS, SyntheticRecord

# Distinct stream codes 1..5, in METHOD_TAGS' order, keep provenance streams disjoint.
_METHOD_CODE = {tag: code for code, tag in enumerate(METHOD_TAGS, start=1)}
_ANSWER_PHASE, _TEMPLATE_ANSWER_PHASE = 97, 98
QUESTION_TEMPERATURE = 1.0
ANSWER_TEMPERATURE = 1.0

# VARIANTS and the first METHOD_TAGS name the soft-prompt methods in one order
_VARIANT_TO_TAG = dict(zip(VARIANTS, METHOD_TAGS))


def record_stream(master_seed: int, method_tag: str, index: int, *extra: int) -> np.random.SeedSequence:
    """Per-record seed stream: hash of (master seed, method, index, ...)."""
    if method_tag not in _METHOD_CODE:
        raise ValidationError(f"unknown method_tag {method_tag!r}")
    return np.random.SeedSequence([int(master_seed), _METHOD_CODE[method_tag], int(index), *map(int, extra)])


def _nonempty_sample(model: BackboneModel, prefix, max_len, temperature, stream) -> list[int]:
    """Sample until EOS; retry on an immediate-EOS draw so questions stay nonempty.

    Draws keep consuming the record's own stream, so the result is still a
    pure function of the documented inputs. Greedy decoding cannot retry
    (it would loop), so it falls back to the UNK surface immediately.
    """
    rng = np.random.default_rng(stream)
    retries = 8 if temperature > 0 else 1
    for _ in range(retries):
        ids = sample(model, prefix, max_len, temperature, rng)
        if ids:
            return ids
    return [V.UNK]


def generate_questions(
    backbone: BackboneModel,
    embedder: BackboneModel | None,
    params: SoftSRVParams,
    seeds: list[list[int]],
    n_raw: int,
    temperature: float,
    seed: int,
    max_len: int,
) -> list[SyntheticRecord]:
    """Sample n_raw question records, cycling contexts over the seed examples."""
    if params is None:
        raise ValidationError("missing soft-prompt parameters")
    if not seeds:
        raise ValidationError("no seed examples")
    if n_raw < 1:
        raise ValidationError("n_raw must be >= 1")
    tag = _VARIANT_TO_TAG[params.variant]
    contextual = not isinstance(params, NonContextualParams)

    prompts = {}  # only the seeds the n_raw records use are embedded
    records = []
    for j in range(n_raw):
        si = j % len(seeds)
        if si not in prompts:
            context = embed_sequence(embedder, seeds[si], params.d_e) if contextual else None
            prompts[si] = materialize(params, context)
        ids = _nonempty_sample(
            backbone, prompts[si], max_len, temperature, record_stream(seed, tag, j)
        )
        records.append(
            SyntheticRecord(
                question=backbone.vocab.decode(ids),
                seed_index=si,
                method_tag=tag,
                provenance={"master_seed": int(seed), "index": j, "temperature": temperature},
            )
        )
    return records


def generate_answers(
    backbone: BackboneModel,
    records: list[SyntheticRecord],
    temperature: float,
    seed: int,
    max_new: int,
    prompts: list[str] | None = None,
) -> list[SyntheticRecord]:
    """Attach sampled answers: answer j continues prompts[j], or the question."""
    phase = _ANSWER_PHASE if prompts is None else _TEMPLATE_ANSWER_PHASE
    out = []
    for j, rec in enumerate(records):
        ids = backbone.vocab.encode(rec.question if prompts is None else prompts[j])
        stream = record_stream(seed, rec.method_tag, j, phase)
        a_ids = continue_tokens(backbone, ids, max_new, temperature, stream)
        prov = dict(rec.provenance)
        prov["answer_seed"] = int(seed)
        prov["answer_temperature"] = temperature
        out.append(
            SyntheticRecord(
                question=rec.question,
                answer=backbone.vocab.decode(a_ids),
                seed_index=rec.seed_index,
                method_tag=rec.method_tag,
                provenance=prov,
            )
        )
    return out
