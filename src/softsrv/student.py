"""Downstream-utility proxy: fine-tune a small student on synthetic records.

The student is a fresh backbone (half the generator's width) pretrained on
generic text only, never on the target grammar. Fine-tuning is standard
full-weight causal training at optim.HELPER_LR on question+answer
concatenations, encoded with the student's own vocabulary; utility is
measured as perplexity on the target distribution's held-out fold before
and after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import BackboneModel, batch_loss_and_grads, clone_unfrozen, train_full_weights
from .errors import ValidationError
from .optim import HELPER_LR, LossTrace
from .records import SyntheticRecord


@dataclass
class StudentEvalReport:
    base_ppl: float
    tuned_ppl: float
    dataset_tag: str
    steps: int
    seed: int

    @property
    def ratio(self) -> float:
        return self.tuned_ppl / self.base_ppl

    def to_text(self) -> str:
        return (
            f"dataset\t{self.dataset_tag}\n"
            f"steps\t{self.steps}\n"
            f"lr\t{HELPER_LR:.10g}\n"
            f"seed\t{self.seed}\n"
            f"base_ppl\t{self.base_ppl:.10g}\n"
            f"tuned_ppl\t{self.tuned_ppl:.10g}\n"
            f"ratio\t{self.ratio:.10g}\n"
        )


def perplexity(model: BackboneModel, fold: list[list[int]]) -> float:
    """exp of the token-level mean NLL with no conditioning prefix.

    Position 0 of each sequence has no context and is excluded; the mean is
    token-weighted across the fold.
    """
    if not fold:
        raise ValidationError("empty evaluation fold")
    total_nll = 0.0
    total_tokens = 0
    for ids in fold:
        if len(ids) < 2:
            continue
        _, per_example, _, _ = batch_loss_and_grads(model, None, [ids])
        total_nll += float(per_example[0]) * (len(ids) - 1)
        total_tokens += len(ids) - 1
    if total_tokens == 0:
        raise ValidationError("no scorable positions in fold")
    return float(np.exp(total_nll / total_tokens))


def finetune_student(student: BackboneModel, records: list[SyntheticRecord], steps: int, seed: int) -> LossTrace:
    """Full-weight training at HELPER_LR on question+answer concatenations in the student's vocabulary."""
    seqs = []
    for rec in records:
        if rec.answer is None:
            raise ValidationError("fine-tuning records must have answers")
        seqs.append(student.vocab.encode(rec.question) + student.vocab.encode(rec.answer))
    return train_full_weights(student, seqs, steps, HELPER_LR, seed)


def evaluate_student(
    base_student: BackboneModel,
    records: list[SyntheticRecord],
    test_fold: list[list[int]],
    dataset_tag: str,
    steps: int,
    seed: int,
) -> StudentEvalReport:
    """Clone, measure, fine-tune, measure again."""
    base_ppl = perplexity(base_student, test_fold)
    tuned = clone_unfrozen(base_student)
    finetune_student(tuned, records, steps, seed)
    return StudentEvalReport(base_ppl, perplexity(tuned, test_fold), dataset_tag, steps, seed)
