"""Shared fixtures: the stage values of two Pipelines.

Every model, fold and vocabulary here is what Pipeline builds for its
config, so each verdict is about the models `softsrv run` builds. Two
tiers: "tiny" (second-scale, for mechanical unit tests) runs the desk
preset shrunk by tiny_config, and "desk" (minute-scale, the acceptance
scale) runs the desk preset itself. Stages are built lazily, once per
session. desk_trained records the wall time of each train() call so the
acceptance budget checks measure real training cost. live_backbone is
the one model here that no Pipeline builds: a backbone whose residual
branches start live, for the tests that need every path active.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, BackboneModel, _weight_shapes, init_backbone
from softsrv.config import VARIANTS, ExperimentConfig, preset_config
from softsrv.pipeline import Pipeline
from softsrv.prompts import init_params
from softsrv.training import train
from softsrv.vocab import Vocabulary


def tiny_config() -> ExperimentConfig:
    """The desk preset with a small corpus, a small float64 backbone and a smaller embedder."""
    cfg = preset_config("desk")
    cfg.corpus.n_examples = 60
    cfg.corpus.n_aux = 30
    cfg.corpus.n_generic = 40
    cfg.backbone.d = 16
    cfg.backbone.n_layers = 2
    cfg.backbone.n_heads = 2
    cfg.backbone.ffn_dim = 32
    cfg.backbone.max_seq = 96
    cfg.backbone.dtype = "float64"
    cfg.backbone.pretrain_steps = 300
    cfg.generation.max_new_tokens = 47  # a student example, 2 * 47 + 2 tokens, fits max_seq
    cfg.embedder.d = 8
    cfg.embedder.n_layers = 1
    cfg.embedder.n_heads = 1
    cfg.embedder.ffn_dim = 16
    cfg.embedder.d_e = 8
    cfg.embedder.pretrain_steps = 40
    cfg.seeds.corpus = 11
    cfg.seeds.backbone = 21
    cfg.seeds.embedder = 22
    return cfg


def live_backbone(config: BackboneConfig, vocabulary: Vocabulary, seed: int) -> BackboneModel:
    """init_backbone's model with wo and w2 drawn too, so no residual branch is dead.

    A fresh rng of the same seed redraws, in _weight_shapes order, every
    weight that is neither a norm gain nor head_b, so the finite-difference,
    sampling and training fixtures that need every path active keep the
    exact weights they were written against.
    """
    model = init_backbone(config, vocabulary, seed)
    rng = np.random.default_rng(seed)
    for name, shape in _weight_shapes(config, len(vocabulary)).items():
        if not name.endswith("_g") and name != "head_b":
            model.weights[name] = (0.02 * rng.standard_normal(shape)).astype(config.dtype)
    return model


def _folds(pipeline: Pipeline):
    data = pipeline.ensure_corpus()
    return data["train"], data["test"], data["aux"], data["generic"]


# ---------------------------------------------------------------------------
# tiny tier

@pytest.fixture(scope="session")
def tiny_pipeline(tmp_path_factory):
    return Pipeline(tiny_config(), tmp_path_factory.mktemp("tiny"))


@pytest.fixture(scope="session")
def tiny_folds(tiny_pipeline):
    return _folds(tiny_pipeline)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_pipeline):
    return tiny_pipeline.vocabulary()


@pytest.fixture(scope="session")
def tiny_backbone(tiny_pipeline):
    return tiny_pipeline.ensure_backbone()


@pytest.fixture(scope="session")
def tiny_embedder(tiny_pipeline):
    return tiny_pipeline.ensure_embedder()


# ---------------------------------------------------------------------------
# desk tier (acceptance scale)

@pytest.fixture(scope="session")
def desk_pipeline(tmp_path_factory):
    return Pipeline(preset_config("desk"), tmp_path_factory.mktemp("desk"))


@pytest.fixture(scope="session")
def desk_folds(desk_pipeline):
    return _folds(desk_pipeline)


@pytest.fixture(scope="session")
def desk_vocab(desk_pipeline):
    return desk_pipeline.vocabulary()


@pytest.fixture(scope="session")
def desk_backbone(desk_pipeline):
    return desk_pipeline.ensure_backbone()


@pytest.fixture(scope="session")
def desk_embedder(desk_pipeline):
    return desk_pipeline.ensure_embedder()


@pytest.fixture(scope="session")
def desk_student_base(desk_pipeline):
    return desk_pipeline.ensure_student_base()


@pytest.fixture(scope="session")
def desk_question_ids(desk_folds, desk_vocab):
    return [desk_vocab.encode(ex.question) for ex in desk_folds[0]]


@pytest.fixture(scope="session")
def desk_trained(desk_pipeline, desk_backbone, desk_embedder, desk_question_ids):
    """All three variants trained under the desk config, as its train stage trains one.

    Returns {variant: (params, trace, elapsed_seconds)}; the elapsed time
    covers exactly the train() call so budget checks see the real cost.
    """
    cfg = desk_pipeline.cfg
    s, tr, seed = cfg.softsrv, cfg.trainer, cfg.seeds.train
    out = {}
    for variant in VARIANTS:
        p0 = init_params(variant, desk_backbone, t=s.t, d_e=cfg.embedder.d_e, seed=seed,
                         k=s.k, mlp_hidden=s.mlp_hidden, mlp_layers=s.mlp_layers)
        embedder = None if variant == "ss_np" else desk_embedder
        t0 = time.time()
        params, trace = train(desk_backbone, embedder, desk_question_ids, p0, tr.steps, tr.lr, seed, tr.batch_size)
        out[variant] = (params, trace, time.time() - t0)
    return out
