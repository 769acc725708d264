"""Soft-prompt data synthesis against a frozen toy decoder, end to end.

The package trains a small soft-prompt module to steer a frozen numpy
transformer toward a target task distribution, samples synthetic
question/answer records from it, filters them for diversity and overlap,
and scores the result with a distribution-similarity curve plus a proxy
student fine-tune. Everything is seeded and reproducible down to the byte.
"""

from .backbone import BackboneConfig, checksum, continue_tokens, pretrain_backbone
from .config import preset_config
from .embedder import embed_sequence
from .generation import generate_questions
from .mauve import mauve_score
from .pipeline import run_experiment
from .postprocess import (
    decontaminate,
    dedup_exact,
    diverse_subsample,
    minibatch_kmeans,
    normalize_tokens,
    svd_reduce,
    tfidf_vectorize,
)
from .prompts import init_params, materialize
from .templates import (
    load_builtin_templates,
    pt_generate,
    ptsr_generate,
    render,
    split_questions,
)
from .toygrammar import builtin_grammar, generic_corpus, make_toy_corpus
from .training import train
from .vocab import build_vocab

__all__ = [
    "BackboneConfig",
    "build_vocab",
    "builtin_grammar",
    "checksum",
    "continue_tokens",
    "decontaminate",
    "dedup_exact",
    "diverse_subsample",
    "embed_sequence",
    "generate_questions",
    "generic_corpus",
    "init_params",
    "load_builtin_templates",
    "make_toy_corpus",
    "materialize",
    "mauve_score",
    "minibatch_kmeans",
    "normalize_tokens",
    "preset_config",
    "pretrain_backbone",
    "pt_generate",
    "ptsr_generate",
    "render",
    "run_experiment",
    "split_questions",
    "svd_reduce",
    "tfidf_vectorize",
    "train",
]
