"""Shared fixtures.

Two tiers: "tiny" fixtures (second-scale, for mechanical unit tests) and
"desk" fixtures (minute-scale, built lazily and reused across the whole
session by the acceptance tests). Desk fixtures record their build wall
time so the acceptance budget checks measure real training cost.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, checksum, pretrain_backbone
from softsrv.config import preset_config
from softsrv.templates import load_builtin_templates
from softsrv.toygrammar import builtin_grammar, generic_corpus, make_toy_corpus
from softsrv.training import train
from softsrv.prompts import init_params
from softsrv.vocab import build_vocab


def corpus_texts(train_fold, test_fold, aux_fold, generic):
    texts = []
    for fold in (train_fold, test_fold, aux_fold):
        for ex in fold:
            texts.append(ex.question)
            texts.append(ex.answer)
    texts.extend(generic)
    for domain in ("arithmetic", "truefalse"):
        for tpl in load_builtin_templates(domain).values():
            texts.append(tpl.body)
    return texts


def pretrain_sequences(vocab, train_fold, aux_fold, generic):
    seqs = [vocab.encode(ex.question + " " + ex.answer) for ex in train_fold]
    seqs += [vocab.encode(ex.question) for ex in train_fold]
    seqs += [vocab.encode(ex.question + " " + ex.answer) for ex in aux_fold]
    seqs += [vocab.encode(s) for s in generic]
    return seqs


# ---------------------------------------------------------------------------
# tiny tier

@pytest.fixture(scope="session")
def tiny_folds():
    train_fold, test_fold = make_toy_corpus(builtin_grammar("arithmetic"), 60, 11)
    aux_fold, _ = make_toy_corpus(builtin_grammar("truefalse"), 30, 12)
    return train_fold, test_fold, aux_fold, generic_corpus(40, 13)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_folds):
    return build_vocab(corpus_texts(*tiny_folds))


@pytest.fixture(scope="session")
def tiny_backbone(tiny_folds, tiny_vocab):
    train_fold, _, aux_fold, generic = tiny_folds
    seqs = pretrain_sequences(tiny_vocab, train_fold, aux_fold, generic)
    cfg = BackboneConfig(d=16, n_layers=2, n_heads=2, ffn_dim=32, max_seq=96)
    model, _ = pretrain_backbone(seqs, tiny_vocab, cfg, steps=300, lr=1e-3, seed=21)
    return model


@pytest.fixture(scope="session")
def tiny_embedder(tiny_folds, tiny_vocab):
    train_fold, _, aux_fold, generic = tiny_folds
    seqs = pretrain_sequences(tiny_vocab, train_fold, aux_fold, generic)
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=1, ffn_dim=16, max_seq=96)
    model, _ = pretrain_backbone(seqs, tiny_vocab, cfg, steps=40, lr=1e-3, seed=22)
    return model


# ---------------------------------------------------------------------------
# desk tier (acceptance scale)

DESK_SEEDS = {
    "corpus": 101, "backbone": 102, "embedder": 103, "train": 104,
    "generate": 105, "answers": 106, "postprocess": 107, "mauve": 108,
    "student": 109,
}


@pytest.fixture(scope="session")
def desk_folds():
    train_fold, test_fold = make_toy_corpus(builtin_grammar("arithmetic"), 400, DESK_SEEDS["corpus"])
    aux_fold, _ = make_toy_corpus(builtin_grammar("truefalse"), 200, DESK_SEEDS["corpus"] + 1)
    return train_fold, test_fold, aux_fold, generic_corpus(300, DESK_SEEDS["corpus"] + 2)


@pytest.fixture(scope="session")
def desk_vocab(desk_folds):
    return build_vocab(corpus_texts(*desk_folds))


# checksums taken the moment each frozen model finishes pretraining, so the
# frozen-weights invariant can compare against the true build-time state no
# matter which test runs first
BUILD_CHECKSUMS: dict[str, str] = {}


@pytest.fixture(scope="session")
def desk_backbone(desk_folds, desk_vocab):
    train_fold, _, aux_fold, generic = desk_folds
    seqs = pretrain_sequences(desk_vocab, train_fold, aux_fold, generic)
    # the shipped [backbone] model, dtype included, so the gate measures what runs
    model, trace = pretrain_backbone(
        seqs, desk_vocab, preset_config("desk").model_config("backbone"), steps=2000, lr=1e-3,
        seed=DESK_SEEDS["backbone"],
    )
    BUILD_CHECKSUMS["backbone"] = checksum(model)
    return model


@pytest.fixture(scope="session")
def desk_embedder(desk_folds, desk_vocab):
    train_fold, _, aux_fold, generic = desk_folds
    seqs = pretrain_sequences(desk_vocab, train_fold, aux_fold, generic)
    cfg = BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128)
    model, _ = pretrain_backbone(
        seqs, desk_vocab, cfg, steps=800, lr=1e-3, seed=DESK_SEEDS["embedder"],
    )
    BUILD_CHECKSUMS["embedder"] = checksum(model)
    return model


@pytest.fixture(scope="session")
def desk_student_base(desk_folds, desk_vocab):
    _, _, _, generic = desk_folds
    cfg = BackboneConfig(d=32, n_layers=2, n_heads=2, ffn_dim=128)
    model, _ = pretrain_backbone(
        [desk_vocab.encode(t) for t in generic], desk_vocab, cfg,
        steps=800, lr=1e-3, seed=DESK_SEEDS["student"],
    )
    return model


@pytest.fixture(scope="session")
def desk_question_ids(desk_folds, desk_vocab):
    train_fold = desk_folds[0]
    return [desk_vocab.encode(ex.question) for ex in train_fold]


@pytest.fixture(scope="session")
def desk_trained(desk_backbone, desk_embedder, desk_question_ids):
    """All three variants trained at the desk preset.

    Returns {variant: (params, trace, elapsed_seconds)}; the elapsed time
    covers exactly the train() call so budget checks see the real cost.
    """
    out = {}
    for variant in ("ss_np", "ss_mp", "ss_mc"):
        p0 = init_params(variant, desk_backbone, t=16, d_e=32, seed=DESK_SEEDS["train"])
        embedder = None if variant == "ss_np" else desk_embedder
        t0 = time.time()
        params, trace = train(desk_backbone, embedder, desk_question_ids, p0,
                              steps=2000, lr=1e-3, seed=DESK_SEEDS["train"], batch_size=8)
        out[variant] = (params, trace, time.time() - t0)
    return out
