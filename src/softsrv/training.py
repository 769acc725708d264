"""Reconstruction training of soft-prompt parameters against a frozen LM.

Each step: look up the batch's context vectors (embedded once, up front),
materialize the whole batch of prompts in one call, take the teacher-forced
NLL of each sequence (EOS appended so generation learns to stop), backprop
through the frozen body to dL/dP, chain the batch-averaged dL/dP into the
variant's parameters in one call, reusing the hidden activations that
materialize kept, and apply one in-place Adam update to the stacked
parameters. Nothing a step allocates outlives it, so no two steps' gradients
are alive at once. Only the prompt parameters move; the backbone and
embedder are frozen and their checksums must not change.

train works on a copy and drops its reference to the input as soon as the
copy exists. A caller that passes init_params(...) inline keeps no
reference either, so only one copy of the prompt lives through training.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import vocab as V
from .backbone import BackboneModel, batch_loss_and_grads
from .checkpoint import check_tensors, read_checkpoint, write_checkpoint
from .embedder import embed_sequence
from .errors import CheckpointFormatError, TrainingDivergedError, ValidationError
from .optim import LossTrace, adam_step, clip_global_norm, init_adam
from .config import VARIANTS
from .prompts import (
    MixtureParams,
    MlpConcatParams,
    NonContextualParams,
    SoftSRVParams,
    materialize,
    param_arrays,
    param_grad,
    param_stacks,
    zero_params,
    zeros_like_params,  # noqa: F401  perfbench/tracing.py wraps it under this module
)


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 1e-3
    batch_size: int = 8
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValidationError("steps >= 0, batch_size >= 1, lr > 0 required")


def train(
    backbone: BackboneModel,
    embedder: BackboneModel | None,
    dataset: list[list[int]],
    params: SoftSRVParams,
    cfg: TrainConfig,
) -> tuple[SoftSRVParams, LossTrace]:
    """Train a copy of params; the input object is never mutated."""
    if not backbone.frozen:
        raise ValidationError("backbone must be frozen")
    contextual = not isinstance(params, NonContextualParams)
    if contextual:
        if embedder is None:
            raise ValidationError(f"variant {params.variant} requires an embedder")
        if embedder is backbone:
            raise ValidationError("embedder must be distinct from the backbone")
        if not embedder.frozen:
            raise ValidationError("embedder must be frozen")
    if not dataset:
        raise ValidationError("empty dataset")
    if params.d != backbone.d:
        raise ValidationError(f"params.d={params.d} does not match backbone d={backbone.d}")
    if not 0 < params.t < backbone.config.max_seq:
        raise ValidationError(f"prompt width t={params.t} exceeds backbone capacity")

    targets = []
    for ids in dataset:
        ids = [int(i) for i in ids]
        if not ids:
            raise ValidationError("empty sequence in dataset")
        targets.append(ids + [V.EOS])
    if contextual:
        contexts = np.stack([embed_sequence(embedder, ids, params.d_e) for ids in dataset])
    else:
        contexts = np.zeros((len(dataset), params.d_e))  # only the batch size is read

    work = copy.deepcopy(params)
    del params  # the input is never mutated, and the caller may hold no other reference
    trace = LossTrace()
    if cfg.steps == 0:
        return work, trace

    stacks = dict(param_stacks(work))
    adam = init_adam(stacks)
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    for step in range(cfg.steps):
        if len(order) < cfg.batch_size:
            order += [int(i) for i in rng.permutation(len(targets))]
        batch = order[: cfg.batch_size]
        order = order[cfg.batch_size:]

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

        grads = param_grad(work, z, prefix_grads.transpose(0, 2, 1) / len(batch), acts)
        # summed per column and layer, in the checkpoint's order
        clip_global_norm(dict(param_arrays(grads)), cfg.grad_clip)
        adam_step(adam, stacks, dict(param_stacks(grads)), cfg.lr, cfg.betas, cfg.eps)
        trace.record(loss)
        # one gradient generation: none of this step's arrays outlive it
        del prompts, acts, prefix_grads, grads
    return work, trace


# ---------------------------------------------------------------------------
# parameter checkpoints

def _params_meta(params: SoftSRVParams) -> dict:
    meta = {"variant": params.variant, "d": params.d, "t": params.t, "d_e": params.d_e}
    if isinstance(params, MixtureParams):
        meta["k"] = params.k
    if isinstance(params, MlpConcatParams):
        meta["layer_sizes"] = [list(w.shape[1:]) for w in params.weights]
    return meta


def save_params(path, params: SoftSRVParams) -> None:
    tensors = {f"param.{name}": arr for name, arr in param_arrays(params)}
    write_checkpoint(path, "softsrv_params", _params_meta(params), tensors)


def _is_int(value, lo: int) -> bool:
    return type(value) is int and value >= lo  # bool is a subclass of int


def _check_params_meta(meta) -> None:
    """Raise CheckpointFormatError unless meta has the fields zero_params reads."""
    if not isinstance(meta, dict) or meta.get("variant") not in VARIANTS:
        raise CheckpointFormatError(f"checkpoint meta lacks a known variant: {meta!r}")
    for key, lo in (("d", 1), ("t", 1), ("d_e", 0)):
        if not _is_int(meta.get(key), lo):
            raise CheckpointFormatError(f"checkpoint meta {key!r} must be an int >= {lo}, got {meta.get(key)!r}")
    if meta["variant"] == "ss_mp" and not _is_int(meta.get("k"), 1):
        raise CheckpointFormatError(f"checkpoint meta 'k' must be an int >= 1, got {meta.get('k')!r}")
    if meta["variant"] == "ss_mc":
        sizes = meta.get("layer_sizes")
        pairs = isinstance(sizes, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(_is_int(n, 1) for n in pair) for pair in sizes)
        # two layers or more, as init_params builds; each takes the last one's outputs, d_e first, d out
        if not (pairs and len(sizes) >= 2 and
                [meta["d_e"]] + [out for out, _ in sizes] == [n_in for _, n_in in sizes] + [meta["d"]]):
            raise CheckpointFormatError(f"checkpoint meta 'layer_sizes' must be [out, in] int pairs chaining "
                                        f"d_e={meta['d_e']} to d={meta['d']}, got {sizes!r}")


def load_params(path, backbone: BackboneModel | None = None) -> SoftSRVParams:
    """Read a params checkpoint; raises CheckpointFormatError unless meta and tensors match."""
    _, meta, tensors = read_checkpoint(path, expect_kind="softsrv_params")
    _check_params_meta(meta)
    d, t = meta["d"], meta["t"]
    if backbone is not None:
        if d != backbone.d:
            raise ValidationError(f"checkpoint d={d} does not match backbone d={backbone.d}")
        if not 0 < t < backbone.config.max_seq:
            raise ValidationError(f"checkpoint t={t} exceeds backbone capacity")
    params = zero_params(meta["variant"], d, t, meta["d_e"], meta.get("k", 1), meta.get("layer_sizes", ()))
    views = {f"param.{name}": view for name, view in param_arrays(params)}
    check_tensors(tensors, {name: view.shape for name, view in views.items()}, "float64")
    for name, view in views.items():
        view[...] = tensors[name]
    return params
