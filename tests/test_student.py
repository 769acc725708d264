"""Student proxy: perplexity bookkeeping and fine-tune descent."""

import numpy as np
import pytest

from softsrv.backbone import (
    BackboneConfig,
    batch_loss_and_grads,
    checksum,
    clone_unfrozen,
    init_backbone,
)
from softsrv.errors import ValidationError
from softsrv.optim import HELPER_LR
from softsrv.records import SyntheticRecord
from softsrv.student import StudentEvalReport, evaluate_student, finetune_student, perplexity
from softsrv.vocab import build_vocab


@pytest.fixture(scope="module")
def flat_model():
    # zero-residual default plus zeroed head weight: logits are all zero,
    # so every next-token distribution is exactly uniform
    vocab = build_vocab(["alpha beta gamma delta"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=8, max_seq=32)
    model = init_backbone(cfg, vocab, seed=1)
    model.weights["head_w"][:] = 0.0
    model.frozen = True
    return model


def test_uniform_model_perplexity_is_vocab_size(flat_model):
    fold = [[1, 2, 3, 4], [5, 6]]
    got = perplexity(flat_model, fold)
    assert got == pytest.approx(len(flat_model.vocab), rel=1e-12)


def test_perplexity_is_token_weighted_mean(tiny_backbone):
    fold = [[3, 4, 5, 6, 7], [8, 9], [10, 11, 12]]
    per_example = []
    for ids in fold:
        _, means, _, _ = batch_loss_and_grads(tiny_backbone, None, [ids])
        per_example.append(float(means[0]))
    weights = [len(ids) - 1 for ids in fold]
    weighted = sum(m * w for m, w in zip(per_example, weights)) / sum(weights)
    assert perplexity(tiny_backbone, fold) == pytest.approx(np.exp(weighted), rel=1e-12)


def test_single_token_sequences_are_skipped(flat_model):
    with_runt = perplexity(flat_model, [[1, 2, 3], [4]])
    without = perplexity(flat_model, [[1, 2, 3]])
    assert with_runt == without


def test_fold_with_no_scorable_positions_rejected(flat_model):
    with pytest.raises(ValidationError):
        perplexity(flat_model, [[1], [2]])
    with pytest.raises(ValidationError):
        perplexity(flat_model, [])


def make_records(fold, n):
    return [
        SyntheticRecord(question=ex.question, seed_index=i, method_tag="SS_MC", answer=ex.answer)
        for i, ex in enumerate(fold[:n])
    ]


def test_finetuning_on_the_test_material_drops_perplexity(tiny_folds, tiny_vocab, tiny_backbone):
    train_fold, _, _, _ = tiny_folds
    records = make_records(train_fold, 12)
    eval_fold = [tiny_vocab.encode(r.question) + tiny_vocab.encode(r.answer) for r in records]
    report = evaluate_student(tiny_backbone, records, eval_fold, dataset_tag="tiny", steps=40, seed=7)
    assert report.tuned_ppl < report.base_ppl
    assert report.ratio < 1.0
    assert np.isfinite(report.base_ppl) and report.base_ppl > 0


def test_evaluation_leaves_the_base_student_untouched(tiny_folds, tiny_vocab, tiny_backbone):
    train_fold, _, _, _ = tiny_folds
    records = make_records(train_fold, 4)
    eval_fold = [tiny_vocab.encode(r.question) for r in records]
    before = checksum(tiny_backbone)
    evaluate_student(tiny_backbone, records, eval_fold, dataset_tag="tiny", steps=3, seed=8)
    assert checksum(tiny_backbone) == before


def test_evaluation_is_deterministic(tiny_folds, tiny_vocab, tiny_backbone):
    train_fold, _, _, _ = tiny_folds
    records = make_records(train_fold, 6)
    eval_fold = [tiny_vocab.encode(r.question) for r in records]
    kwargs = dict(dataset_tag="tiny", steps=5, seed=9)
    a = evaluate_student(tiny_backbone, records, eval_fold, **kwargs)
    b = evaluate_student(tiny_backbone, records, eval_fold, **kwargs)
    assert a.tuned_ppl == b.tuned_ppl
    assert a.base_ppl == b.base_ppl


def test_finetune_rejects_frozen_or_empty(tiny_folds, tiny_backbone):
    train_fold, _, _, _ = tiny_folds
    records = make_records(train_fold, 3)
    with pytest.raises(ValidationError, match="model is frozen"):
        finetune_student(tiny_backbone, records, steps=1, seed=0)
    student = clone_unfrozen(tiny_backbone)
    with pytest.raises(ValidationError, match="empty training corpus"):
        finetune_student(student, [], steps=1, seed=0)
    unanswered = [SyntheticRecord(question="q?", seed_index=0, method_tag="SS_NP")]
    with pytest.raises(ValidationError, match="must have answers"):
        finetune_student(student, unanswered, steps=1, seed=0)


def test_report_text_is_parseable():
    report = StudentEvalReport(
        base_ppl=12.5, tuned_ppl=5.0, dataset_tag="demo", steps=10, seed=3,
    )
    lines = dict(line.split("\t") for line in report.to_text().strip().splitlines())
    assert float(lines["base_ppl"]) == 12.5
    assert float(lines["tuned_ppl"]) == 5.0
    assert float(lines["ratio"]) == pytest.approx(0.4)
    assert lines["dataset"] == "demo"
    assert int(lines["steps"]) == 10
    assert float(lines["lr"]) == HELPER_LR
