"""Soft-prompt parameterizations and their gradients.

Three ways to produce a (d, t) prompt matrix for the frozen backbone:

- non-contextual: the matrix itself is the parameter set; every context
  gets the same prompt.
- mixture: k basis matrices combined by softmax weights from a learned
  affine map of the context vector.
- per-column MLPs: t independent small ReLU MLPs, each mapping the context
  vector to one prompt column.

param_grad chains an upstream dL/dP into gradients over each variant's own
parameters; like the backbone, all backward math is manual and is checked
against finite differences in the tests. Both functions also take a whole
minibatch of contexts at once (materialize returns a (B, d, t) stack,
param_grad sums the batch); a single context is the B=1 case of that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import BackboneModel
from .config import VARIANTS
from .errors import ValidationError


@dataclass
class NonContextualParams:
    variant = "ss_np"
    d: int
    t: int
    d_e: int
    prompt: np.ndarray  # (d, t)


@dataclass
class MixtureParams:
    variant = "ss_mp"
    d: int
    t: int
    d_e: int
    bases: list[np.ndarray]  # k matrices, each (d, t)
    gate_w: np.ndarray       # (k, d_e)
    gate_b: np.ndarray       # (k,)

    @property
    def k(self) -> int:
        return len(self.bases)


@dataclass
class MlpConcatParams:
    variant = "ss_mc"
    d: int
    t: int
    d_e: int
    # columns[j] is the layer list [(W, b), ...] of the MLP emitting column j
    columns: list[list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=list)


SoftSRVParams = NonContextualParams | MixtureParams | MlpConcatParams


def _check_contexts(params: SoftSRVParams, z) -> tuple[np.ndarray, bool]:
    """A (B, d_e) context batch, and whether z was a single (d_e,) vector.

    A single context is the B=1 case of the batch, so every variant has one
    code path.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != params.d_e:
        raise ValidationError(
            f"contexts must have shape ({params.d_e},) or (B, {params.d_e}), got {z.shape}"
        )
    single = z.ndim == 1
    if single:
        z = z[None]
    if not np.all(np.isfinite(z)):
        raise ValidationError("context vector contains non-finite entries")
    return z, single


def init_params(
    variant: str,
    backbone: BackboneModel,
    t: int,
    d_e: int,
    seed: int,
    k: int = 2,
    mlp_hidden: int = 128,
    mlp_layers: int = 3,
) -> SoftSRVParams:
    """Seeded initialization anchored to the backbone's embedding table.

    Prompt columns (and the MLPs' output biases) start as sampled rows of
    the token-embedding table, so the initial prompt looks like embedded
    text. MLP hidden layers get fan-in-scaled uniform noise with zero final
    weights, making the initial output independent of the context.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    d = backbone.d
    if not 0 < t < backbone.config.max_seq:
        raise ValidationError(f"prompt width t={t} outside (0, {backbone.config.max_seq})")
    if mlp_layers < 2:
        raise ValidationError("per-column MLPs need at least two layers")
    rng = np.random.default_rng(seed)
    table = backbone.weights["tok_emb"]

    def sampled_columns() -> np.ndarray:
        rows = rng.integers(0, table.shape[0], size=t)
        return table[rows].T.astype(np.float64).copy()  # (d, t)

    if variant == "ss_np":
        return NonContextualParams(d=d, t=t, d_e=d_e, prompt=sampled_columns())

    if variant == "ss_mp":
        if k < 1:
            raise ValidationError("mixture needs k >= 1 bases")
        bases = [sampled_columns() for _ in range(k)]
        return MixtureParams(
            d=d, t=t, d_e=d_e, bases=bases,
            gate_w=np.zeros((k, d_e)), gate_b=np.zeros(k),
        )

    sizes = [d_e] + [mlp_hidden] * (mlp_layers - 1) + [d]
    columns = []
    for _ in range(t):
        layers = []
        for li in range(mlp_layers):
            fan_in = sizes[li]
            bound = 1.0 / np.sqrt(fan_in)
            if li < mlp_layers - 1:
                w = rng.uniform(-bound, bound, size=(sizes[li + 1], fan_in))
                b = np.zeros(sizes[li + 1])
            else:
                w = np.zeros((sizes[li + 1], fan_in))
                b = table[int(rng.integers(0, table.shape[0]))].astype(np.float64).copy()
            layers.append((w, b))
        columns.append(layers)
    return MlpConcatParams(d=d, t=t, d_e=d_e, columns=columns)


def mixture_weights(params: MixtureParams, z) -> np.ndarray:
    """Softmax gate output, a point on the k-simplex per context.

    z is one (d_e,) context, giving (k,), or a (B, d_e) batch, giving (B, k).
    """
    z, single = _check_contexts(params, z)
    w = _gate(params, z)
    return w[0] if single else w


def _gate(params: MixtureParams, z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the affine gate over a checked (B, d_e) batch."""
    logits = z @ params.gate_w.T + params.gate_b
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _mlp_forward(layers, h) -> tuple[np.ndarray, list]:
    """Linear chain with ReLU between layers over an (in, B) batch of inputs.

    Returns the (out, B) output and each layer's (input, pre-activation).
    """
    acts = []
    for li, (w, b) in enumerate(layers):
        pre = w @ h + b[:, None]
        acts.append((h, pre))
        h = np.maximum(pre, 0.0) if li < len(layers) - 1 else pre
    return h, acts


def materialize(params: SoftSRVParams, z=None) -> np.ndarray:
    """Produce the (d, t) prompt matrix for a context.

    A (B, d_e) batch of contexts gives a (B, d, t) stack of prompts. The
    non-contextual variant ignores the context values (z may be omitted);
    contextual variants require them.
    """
    if isinstance(params, NonContextualParams):
        if z is None or np.ndim(z) < 2:
            return params.prompt.copy()
        return np.repeat(params.prompt[None], len(z), axis=0)
    if z is None:
        raise ValidationError(f"variant {params.variant} requires a context vector")
    z, single = _check_contexts(params, z)
    if isinstance(params, MixtureParams):
        bases = np.stack(params.bases).reshape(params.k, -1)
        out = (_gate(params, z) @ bases).reshape(len(z), params.d, params.t)
    else:
        out = np.empty((len(z), params.d, params.t))
        for j, layers in enumerate(params.columns):
            h, _ = _mlp_forward(layers, z.T)
            out[:, :, j] = h.T
    return out[0] if single else out


def zeros_like_params(params: SoftSRVParams) -> SoftSRVParams:
    """Same structure, all arrays zero; used as a gradient container."""
    if isinstance(params, NonContextualParams):
        return replace(params, prompt=np.zeros_like(params.prompt))
    if isinstance(params, MixtureParams):
        return replace(
            params,
            bases=[np.zeros_like(b) for b in params.bases],
            gate_w=np.zeros_like(params.gate_w),
            gate_b=np.zeros_like(params.gate_b),
        )
    columns = [[(np.zeros_like(w), np.zeros_like(b)) for w, b in layers] for layers in params.columns]
    return replace(params, columns=columns)


def param_arrays(params: SoftSRVParams) -> list[tuple[str, np.ndarray]]:
    """Named, ordered views of every trainable array in the variant."""
    if isinstance(params, NonContextualParams):
        return [("prompt", params.prompt)]
    if isinstance(params, MixtureParams):
        out = [(f"basis_{i}", b) for i, b in enumerate(params.bases)]
        return out + [("gate_w", params.gate_w), ("gate_b", params.gate_b)]
    out = []
    for j, layers in enumerate(params.columns):
        for li, (w, b) in enumerate(layers):
            out.append((f"col{j}_w{li}", w))
            out.append((f"col{j}_b{li}", b))
    return out


def param_grad(params: SoftSRVParams, z, upstream: np.ndarray) -> SoftSRVParams:
    """Chain dL/dP into a same-structure gradient object.

    upstream is (d, t) for one context z, or (B, d, t) for a (B, d_e) batch
    of contexts, in which case the gradient is summed over the batch.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape[-2:] != (params.d, params.t) or upstream.ndim not in (2, 3):
        raise ValidationError(
            f"upstream must have shape ({params.d}, {params.t}) or (B, {params.d}, {params.t}), "
            f"got {upstream.shape}"
        )
    single = upstream.ndim == 2
    if single:
        upstream = upstream[None]
    grads = zeros_like_params(params)

    if isinstance(params, NonContextualParams):
        np.sum(upstream, axis=0, out=grads.prompt)
        return grads

    if z is None:
        raise ValidationError(f"variant {params.variant} requires a context vector")
    z, single_z = _check_contexts(params, z)
    if single_z != single or len(z) != len(upstream):
        raise ValidationError("context batch and upstream batch differ in size")
    if isinstance(params, MixtureParams):
        flat = upstream.reshape(len(z), -1)  # (B, d*t)
        w = _gate(params, z)  # (B, k)
        scores = flat @ np.stack(params.bases).reshape(params.k, -1).T  # (B, k)
        glogits = w * (scores - np.sum(w * scores, axis=1, keepdims=True))  # softmax Jacobian
        gbases = (w.T @ flat).reshape(params.k, params.d, params.t)
        for i in range(params.k):
            grads.bases[i][...] = gbases[i]
        np.matmul(glogits.T, z, out=grads.gate_w)
        np.sum(glogits, axis=0, out=grads.gate_b)
        return grads

    for j, layers in enumerate(params.columns):
        _, acts = _mlp_forward(layers, z.T)
        delta = upstream[:, :, j].T  # (d, B)
        for li in reversed(range(len(layers))):
            w, _ = layers[li]
            h, pre = acts[li]
            if li < len(layers) - 1:
                delta = delta * (pre > 0)
            gw, gb = grads.columns[j][li]
            np.matmul(delta, h.T, out=gw)  # (out, B) @ (B, in) sums the batch
            np.sum(delta, axis=1, out=gb)
            if li > 0:
                delta = w.T @ delta
    return grads
