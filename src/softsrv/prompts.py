"""Soft-prompt parameterizations and their gradients.

Three ways to produce a (d, t) prompt matrix for the frozen backbone:

- non-contextual: the matrix itself is the parameter set; every context
  gets the same prompt.
- mixture: k basis matrices combined by softmax weights from a learned
  affine map of the context vector. The bases are stored as one (k, d, t)
  stack, which materialize and param_grad use as one (k, d*t) matrix.
- per-column MLPs: t independent small ReLU MLPs, each mapping the context
  vector to one prompt column. Layer li of all t MLPs is stored as one
  (t, out, in) weight stack and one (t, out) bias stack, and runs as one
  stacked matmul; each column's slice of a stack is its own MLP's layer,
  computed with the same BLAS call, so the bits match a loop over columns.

param_stacks names every trainable array once, as stored: what the
optimizer steps, the gradient clip sums and a checkpoint holds. zero_params
declares and checks each variant's layout once, from the fields that
params_meta derives and a checkpoint's meta stores: init_params draws into
its arrays, load_params fills them through param_stacks, and
zeros_like_params rebuilds them as a gradient container.

Every array of a prompt holds one dtype, that of the backbone it steers
(see the backbone module's Precision note): init_params reads it from the
backbone, zero_params allocates in it, params_meta records it and
params_dtype reads it back. Contexts and upstream gradients are cast to
it, so materialize and param_grad compute in it, and so do the gradient
containers and Adam moments built from the arrays.

param_grad chains an upstream dL/dP into gradients over each variant's own
parameters; like the backbone, all backward math is manual and is checked
against finite differences in the tests. Both functions also take a whole
minibatch of contexts at once (materialize returns a (B, d, t) stack,
param_grad sums the batch); a single context is the B=1 case of that path.
materialize can hand the per-column MLPs' hidden activations to the
param_grad of the same contexts, so a training step runs the MLP forward
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import DTYPES, BackboneModel, check_prompt
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
    bases: np.ndarray        # (k, d, t); bases[i] is basis i
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
    # layer li of every column's MLP: weights[li] is (t, out, in) and
    # biases[li] is (t, out); column j's MLP is the j-th slice of each
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)


SoftSRVParams = NonContextualParams | MixtureParams | MlpConcatParams


def _check_contexts(params: SoftSRVParams, z) -> tuple[np.ndarray, bool]:
    """A (B, d_e) context batch, and whether z was a single (d_e,) vector.

    A single context is the B=1 case of the batch, so every variant has one
    code path.
    """
    z = np.asarray(z, dtype=params_dtype(params))
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


def _is_int(value, lo: int) -> bool:
    return type(value) is int and value >= lo  # bool is a subclass of int


def zero_params(variant: str, d: int, t: int, d_e: int, dtype: str, k: int | None = None,
                mlp_hidden: int | None = None, mlp_layers: int | None = None) -> SoftSRVParams:
    """A variant's parameters, all zero: the one declaration and check of their layout.

    The arguments are the checkpoint meta fields that params_meta writes. d
    and t are ints >= 1 and d_e an int >= 0; dtype names one a backbone
    computes in, and every array is allocated in it; the mixture's k
    counts its bases (>= 1); each per-column MLP has mlp_layers >= 2
    layers, d_e inputs, mlp_hidden >= 1 units in every hidden layer and d
    outputs. Raises ValidationError otherwise.
    """
    for name, value, lo in (("d", d, 1), ("t", t, 1), ("d_e", d_e, 0)):
        if not _is_int(value, lo):
            raise ValidationError(f"{name} must be an int >= {lo}, got {value!r}")
    if dtype not in DTYPES:
        raise ValidationError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    if variant == "ss_np":
        return NonContextualParams(d=d, t=t, d_e=d_e, prompt=np.zeros((d, t), dtype))
    if variant == "ss_mp":
        if not _is_int(k, 1):
            raise ValidationError(f"the mixture needs an int k >= 1 of bases, got {k!r}")
        return MixtureParams(d=d, t=t, d_e=d_e, bases=np.zeros((k, d, t), dtype),
                             gate_w=np.zeros((k, d_e), dtype), gate_b=np.zeros(k, dtype))
    if variant == "ss_mc":
        if not (_is_int(mlp_hidden, 1) and _is_int(mlp_layers, 2)):
            raise ValidationError(f"the per-column MLPs need an int mlp_hidden >= 1 and an int mlp_layers >= 2, "
                                  f"got {mlp_hidden!r} and {mlp_layers!r}")
        sizes = [d_e] + [mlp_hidden] * (mlp_layers - 1) + [d]
        return MlpConcatParams(d=d, t=t, d_e=d_e,
                               weights=[np.zeros((t, out, n_in), dtype) for n_in, out in zip(sizes, sizes[1:])],
                               biases=[np.zeros((t, out), dtype) for out in sizes[1:]])
    raise ValidationError(f"unknown variant {variant!r}")


def params_meta(params: SoftSRVParams) -> dict:
    """The zero_params arguments that declare params' layout; the checkpoint meta."""
    meta = {"variant": params.variant, "d": params.d, "t": params.t, "d_e": params.d_e,
            "dtype": params_dtype(params)}
    if isinstance(params, MixtureParams):
        meta["k"] = params.k
    if isinstance(params, MlpConcatParams):
        meta["mlp_hidden"], meta["mlp_layers"] = params.weights[0].shape[1], len(params.weights)
    return meta


def params_dtype(params: SoftSRVParams) -> str:
    """The dtype, by name, that zero_params allocated every array of params in."""
    return param_stacks(params)[0][1].dtype.name


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

    The parameters take the backbone's dtype. Prompt columns (and the MLPs'
    output biases) start as sampled rows of the token-embedding table, so
    the initial prompt looks like embedded text. MLP hidden layers get
    fan-in-scaled uniform noise, drawn in float64 and rounded to the
    dtype, with zero final weights, making the initial output independent
    of the context. zero_params checks the layout: k >= 1 bases, two or
    more MLP layers.
    """
    d, dtype = backbone.d, backbone.config.dtype
    check_prompt(backbone, d, t, dtype)
    params = zero_params(variant, d, t, d_e, dtype, k, mlp_hidden, mlp_layers)
    rng = np.random.default_rng(seed)
    table = backbone.weights["tok_emb"]

    if isinstance(params, MlpConcatParams):
        for j in range(t):  # draws go column by column, layer by layer
            for w in params.weights[:-1]:
                bound = 1.0 / np.sqrt(w.shape[2])  # fan-in
                w[j] = rng.uniform(-bound, bound, size=w.shape[1:])
            params.biases[-1][j] = table[int(rng.integers(0, table.shape[0]))]
    else:  # the prompt, or each basis in turn, is t sampled rows of the table
        for block in params.bases if isinstance(params, MixtureParams) else params.prompt[None]:
            block[...] = table[rng.integers(0, table.shape[0], size=t)].T
    return params


def _gate(params: MixtureParams, z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the affine gate over a checked (B, d_e) batch."""
    logits = z @ params.gate_w.T + params.gate_b
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _mlp_hidden(params: MlpConcatParams, z: np.ndarray) -> list[np.ndarray]:
    """Each hidden layer's (t, out, B) ReLU output over a checked (B, d_e) batch.

    These are the inputs of layers 1.. of every column's MLP; layer 0's is
    z.T, shared by all columns.
    """
    hidden = []
    h = z.T
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = w @ h
        h += b[:, :, None]
        np.maximum(h, 0.0, out=h)
        hidden.append(h)
    return hidden


def materialize(params: SoftSRVParams, z=None, acts: list | None = None) -> np.ndarray:
    """Produce the (d, t) prompt matrix for a context.

    A (B, d_e) batch of contexts gives a (B, d, t) stack of prompts. The
    non-contextual variant ignores the context values (z may be omitted);
    contextual variants require them. Given a list as acts, the per-column
    MLPs append their hidden activations to it, for param_grad on the same
    contexts; the other variants leave it empty.
    """
    if isinstance(params, NonContextualParams):
        if z is None or np.ndim(z) < 2:
            return params.prompt.copy()
        return np.repeat(params.prompt[None], len(z), axis=0)
    if z is None:
        raise ValidationError(f"variant {params.variant} requires a context vector")
    z, single = _check_contexts(params, z)
    if isinstance(params, MixtureParams):
        bases = params.bases.reshape(params.k, -1)
        out = (_gate(params, z) @ bases).reshape(len(z), params.d, params.t)
    else:
        hidden = _mlp_hidden(params, z)
        h = params.weights[-1] @ hidden[-1]
        h += params.biases[-1][:, :, None]
        out = np.ascontiguousarray(h.transpose(2, 1, 0))  # (t, d, B) -> (B, d, t)
        if acts is not None:
            acts += hidden
    return out[0] if single else out


def zeros_like_params(params: SoftSRVParams) -> SoftSRVParams:
    """Same layout, all arrays zero; used as a gradient container."""
    return zero_params(**params_meta(params))


def param_stacks(params: SoftSRVParams) -> list[tuple[str, np.ndarray]]:
    """Named arrays that hold every trainable value once, as stored.

    The prompt matrix; the mixture's (k, d, t) bases and its gate; the
    per-column MLPs' (t, ...) layer stacks w{li}, b{li}, layer by layer.
    """
    if isinstance(params, NonContextualParams):
        return [("prompt", params.prompt)]
    if isinstance(params, MixtureParams):
        return [("bases", params.bases), ("gate_w", params.gate_w), ("gate_b", params.gate_b)]
    return [
        (f"{kind}{li}", stack)
        for li in range(len(params.weights))
        for kind, stack in (("w", params.weights[li]), ("b", params.biases[li]))
    ]


def param_grad(params: SoftSRVParams, z, upstream: np.ndarray, acts: list | None = None) -> SoftSRVParams:
    """Chain dL/dP into a same-structure gradient object.

    upstream is (d, t) for one context z, or (B, d, t) for a (B, d_e) batch
    of contexts, in which case the gradient is summed over the batch; both
    are cast to the params' dtype, which the gradient takes. acts are the
    hidden activations that materialize kept for these contexts; without
    them the per-column MLPs run their forward again.
    """
    upstream = np.asarray(upstream, dtype=params_dtype(params))
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
        scores = flat @ params.bases.reshape(params.k, -1).T  # (B, k)
        glogits = w * (scores - np.sum(w * scores, axis=1, keepdims=True))  # softmax Jacobian
        grads.bases[...] = (w.T @ flat).reshape(params.bases.shape)
        np.matmul(glogits.T, z, out=grads.gate_w)
        np.sum(glogits, axis=0, out=grads.gate_b)
        return grads

    if acts is None:
        acts = _mlp_hidden(params, z)
    if len(acts) != len(params.weights) - 1:
        raise ValidationError(f"expected {len(params.weights) - 1} hidden activations, got {len(acts)}")
    inputs = [z.T] + list(acts)  # each layer's input, (in, B) or (t, in, B)
    delta = upstream.transpose(2, 1, 0)  # (t, d, B)
    for li in reversed(range(len(params.weights))):
        if li < len(params.weights) - 1:
            delta = delta * (inputs[li + 1] > 0)  # ReLU mask: output > 0 iff pre-activation > 0
        # (out, B) @ (B, in) per column sums the batch
        np.matmul(delta, inputs[li].swapaxes(-1, -2), out=grads.weights[li])
        np.sum(delta, axis=2, out=grads.biases[li])
        if li > 0:
            delta = params.weights[li].transpose(0, 2, 1) @ delta
    return grads
