"""Soft-prompt data synthesis against a frozen toy decoder, end to end.

The package trains a small soft-prompt module to steer a frozen numpy
transformer toward a target task distribution, samples synthetic
question/answer records from it, filters them for diversity and overlap,
and scores the result with a distribution-similarity curve plus a proxy
student fine-tune. Everything is seeded and reproducible down to the byte.
"""

from .backbone import (
    BackboneConfig,
    BackboneModel,
    checksum,
    clone_unfrozen,
    continue_tokens,
    init_backbone,
    load_backbone,
    pretrain_backbone,
    sample,
    save_backbone,
)
from .config import ExperimentConfig, load_config, preset_config, save_config
from .embedder import embed_corpus, embed_sequence
from .errors import (
    CapacityError,
    CheckpointFormatError,
    ConfigError,
    FormatError,
    RecordFormatError,
    SoftSRVError,
    StageError,
    TrainingDivergedError,
    ValidationError,
)
from .generation import generate_answers, generate_questions
from .mauve import MauveReport, mauve_score, quantize
from .pipeline import Pipeline, run_experiment
from .postprocess import (
    decontaminate,
    decontaminate_report,
    dedup_exact,
    diverse_subsample,
    minibatch_kmeans,
    normalize_tokens,
    round_robin_subsample,
    svd_reduce,
    tfidf_vectorize,
)
from .prompts import (
    MixtureParams,
    MlpConcatParams,
    NonContextualParams,
    init_params,
    materialize,
)
from .records import SyntheticRecord, read_records, write_records
from .student import StudentEvalReport, evaluate_student, finetune_student, perplexity
from .templates import (
    PromptTemplate,
    RefineConfig,
    load_builtin_templates,
    render,
    pt_generate,
    pt_generate_answers,
    ptsr_generate,
    split_questions,
)
from .toygrammar import CorpusExample, builtin_grammar, generic_corpus, make_toy_corpus
from .training import TrainConfig, load_params, save_params, train
from .vocab import Vocabulary, build_vocab

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "BackboneModel",
    "CapacityError",
    "CheckpointFormatError",
    "ConfigError",
    "CorpusExample",
    "ExperimentConfig",
    "FormatError",
    "MauveReport",
    "MixtureParams",
    "MlpConcatParams",
    "NonContextualParams",
    "Pipeline",
    "PromptTemplate",
    "RecordFormatError",
    "RefineConfig",
    "SoftSRVError",
    "StageError",
    "StudentEvalReport",
    "SyntheticRecord",
    "TrainConfig",
    "TrainingDivergedError",
    "ValidationError",
    "Vocabulary",
    "build_vocab",
    "builtin_grammar",
    "checksum",
    "clone_unfrozen",
    "continue_tokens",
    "decontaminate",
    "decontaminate_report",
    "dedup_exact",
    "diverse_subsample",
    "embed_corpus",
    "embed_sequence",
    "evaluate_student",
    "finetune_student",
    "generate_answers",
    "generate_questions",
    "generic_corpus",
    "init_backbone",
    "init_params",
    "load_backbone",
    "load_builtin_templates",
    "load_config",
    "load_params",
    "make_toy_corpus",
    "materialize",
    "mauve_score",
    "minibatch_kmeans",
    "normalize_tokens",
    "perplexity",
    "preset_config",
    "pretrain_backbone",
    "pt_generate",
    "pt_generate_answers",
    "ptsr_generate",
    "quantize",
    "read_records",
    "render",
    "round_robin_subsample",
    "run_experiment",
    "sample",
    "save_backbone",
    "save_config",
    "save_params",
    "split_questions",
    "svd_reduce",
    "tfidf_vectorize",
    "train",
    "write_records",
]
