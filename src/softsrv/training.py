"""Reconstruction training of soft-prompt parameters against a frozen LM.

Each step: look up the batch's context vectors (embedded once, up front),
materialize the whole batch of prompts in one call, take the teacher-forced
NLL of each sequence (EOS appended so generation learns to stop), backprop
through the frozen body to dL/dP, chain the batch-averaged dL/dP into the
variant's parameters in one call, reusing the hidden activations that
materialize kept, and apply one in-place Adam update to the stacked
parameters. The parameters, their Adam moments, the step's gradients and
prompts all hold the backbone's dtype, which train holds the params to
through check_prompt. The step's one gradient dict, named by
param_stacks, is what clip_global_norm scales and adam_step reads.
Nothing a step allocates outlives it, so no two steps' gradients are
alive at once. Only the prompt parameters move; the backbone and embedder
are frozen and their checksums must not change.

train works on a copy and drops its reference to the input as soon as the
copy exists. A caller that passes init_params(...) inline keeps no
reference either, so only one copy of the prompt lives through training.
Its schedule arguments are backbone.train_full_weights' (steps, lr, seed,
batch_size), and both loops take the rest of the recipe from optim:
check_schedule, batch_schedule, Adam at ADAM_BETAS and ADAM_EPS and
clipping to CLIP_NORM. Each step records its loss and pre-clip gradient norm. Both
loops check every sequence before the first step, sampled or not.

A checkpoint's meta is prompts.params_meta, dtype included, and its
tensors are the arrays that prompts.param_stacks names, each prefixed
param.: the same arrays the optimizer steps. load_params reads the header
alone first, rebuilds the layout from the meta through zero_params, which
checks it, holds the meta's dtype to the backbone's when given one, and
holds the header's tensors to that layout's names, shapes and dtype; only
then does it read each payload straight into its place, so a load holds
one copy of the parameters.
"""

from __future__ import annotations

import copy

import numpy as np

from . import vocab as V
from .backbone import BackboneModel, batch_loss_and_grads, check_prompt
from .checkpoint import CheckpointReader, check_tensors, write_checkpoint
from .checkpoint import read_checkpoint  # noqa: F401  perfbench/tracing.py wraps it under this module
from .embedder import embed_sequence
from .errors import CheckpointFormatError, TrainingDivergedError, ValidationError
from .optim import CLIP_NORM, LossTrace, adam_step, batch_schedule, check_schedule, clip_global_norm, init_adam
from .prompts import (
    NonContextualParams,
    SoftSRVParams,
    materialize,
    param_grad,
    param_stacks,
    params_dtype,
    params_meta,
    zero_params,
    zeros_like_params,  # noqa: F401  perfbench/tracing.py wraps it under this module
)


def train(
    backbone: BackboneModel,
    embedder: BackboneModel | None,
    dataset: list[list[int]],
    params: SoftSRVParams,
    steps: int,
    lr: float,
    seed: int,
    batch_size: int = 8,
) -> tuple[SoftSRVParams, LossTrace]:
    """Train a copy of params; the input object is never mutated."""
    check_schedule(steps, lr, batch_size)
    if not backbone.frozen:
        raise ValidationError("backbone must be frozen")
    contextual = not isinstance(params, NonContextualParams)
    if contextual:
        if embedder is None:
            raise ValidationError(f"variant {params.variant} requires an embedder")
        if embedder is backbone:
            raise ValidationError("embedder must be distinct from the backbone")
    if not dataset:
        raise ValidationError("empty dataset")
    check_prompt(backbone, params.d, params.t, params_dtype(params))

    targets = [V.check_ids(ids, backbone.vocab_size).tolist() + [V.EOS] for ids in dataset]
    if min(map(len, targets)) == 1:
        raise ValidationError("empty sequence in dataset")
    if contextual:  # embed_sequence rejects an embedder that is not frozen
        contexts = np.stack([embed_sequence(embedder, ids, params.d_e) for ids in dataset])
    else:
        contexts = np.zeros((len(dataset), params.d_e))  # only the batch size is read

    work = copy.deepcopy(params)
    del params  # the input is never mutated, and the caller may hold no other reference
    trace = LossTrace()
    if steps == 0:
        return work, trace

    stacks = dict(param_stacks(work))
    adam = init_adam(stacks)
    for step, batch in enumerate(batch_schedule(len(targets), steps, batch_size, seed)):
        z = contexts[batch]
        acts: list[np.ndarray] = []
        prompts = materialize(work, z, acts)  # (B, d, t)
        loss, _, prefix_grads, _ = batch_loss_and_grads(
            backbone,
            prompts.transpose(0, 2, 1),  # row-major core
            [targets[i] for i in batch],
            want_prefix_grads=True,
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(step, loss)

        grads = dict(param_stacks(param_grad(work, z, prefix_grads.transpose(0, 2, 1) / len(batch), acts)))
        norm = clip_global_norm(grads, CLIP_NORM)  # scales grads in place for adam_step
        adam_step(adam, stacks, grads, lr)
        trace.record(loss, norm)
        # one gradient generation: none of this step's arrays outlive it
        del prompts, acts, prefix_grads, grads
    return work, trace


# ---------------------------------------------------------------------------
# parameter checkpoints

def save_params(path, params: SoftSRVParams) -> None:
    tensors = {f"param.{name}": arr for name, arr in param_stacks(params)}
    write_checkpoint(path, "softsrv_params", params_meta(params), tensors)


def load_params(path, backbone: BackboneModel | None = None) -> SoftSRVParams:
    """Read a params checkpoint; raises CheckpointFormatError unless meta and tensors match."""
    with CheckpointReader(path, expect_kind="softsrv_params") as ckpt:
        meta = ckpt.meta
        if not isinstance(meta, dict):
            raise CheckpointFormatError(f"params meta is a {type(meta).__name__}, not an object")
        try:
            params = zero_params(meta.get("variant"), meta.get("d"), meta.get("t"), meta.get("d_e"),
                                 meta.get("dtype"), meta.get("k"), meta.get("layer_sizes"))
        except ValidationError as exc:
            raise CheckpointFormatError(f"bad params meta: {exc}") from exc
        dtype = params_dtype(params)
        if backbone is not None:
            if dtype != backbone.config.dtype:
                raise CheckpointFormatError(f"the params are {dtype}, but the backbone computes in "
                                            f"{backbone.config.dtype}")
            check_prompt(backbone, params.d, params.t, dtype)
        views = {f"param.{name}": view for name, view in param_stacks(params)}
        check_tensors(ckpt.entries, {name: view.shape for name, view in views.items()}, dtype)
        for name, view in views.items():
            ckpt.read_into(name, view)
    return params
