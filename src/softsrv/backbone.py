"""Tiny decoder-only transformer with hand-derived gradients.

The model factors into a token-embedding table and a transformer body that
consumes an arbitrary dense prefix, so a learned soft prompt can stand in
for embedded tokens. Public APIs speak the column convention (prefix and
token embeddings are (d, t) matrices); internally sequences are row-major.

Architecture: learned token + absolute positional embeddings (positions
attach to token positions only, never to prefix columns), pre-norm blocks
of causal multi-head attention and a ReLU MLP with residual connections,
RMS normalization, and an untied output head with bias.

Training and decode share one packed core. A batch of ragged streams
(each its prefix rows, then its token rows) is held as one (N, d) matrix
of real rows with no padding, so every norm, projection, FFN and
weight-gradient product is a single 2-D GEMM. The attention contraction
scatters Q/K/V into a zeroed grid padded to the longest stream; the
causal mask gives padding exactly zero weight, so nothing crosses between
streams. In training the output head runs stream by stream over the same
grid, one GEMM per stream, and the cross-entropy reads only the scored
rows; decode sends only the row it samples from to the head.

A training step holds little at its peak. The backward cache keeps only
what the requested gradients read, and each RMS norm caches only its input
and scale: _backward recomputes the normed rows, by the same ops on the
same operands and so to the same bits, where a weight gradient reads them.
_backward frees each layer's cache as it consumes it, and the logits
buffer is overwritten with dlogits once the loss temporaries are gone.
Both training loops, train_full_weights here and training.train, keep one
rule: nothing a step allocates outlives it, so no two steps' gradients are
alive at once.

sample and continue_tokens share one decode loop, _decode. It has no KV
cache: every sampled token reruns a full forward pass of its stream. Decode
is the largest slice of a desk run; ROADMAP item 5 plans the batched,
KV-cached engine that replaces _decode.

Each token-sequence rule has one implementation, which every module
calls: vocab.check_ids holds ids to ints in [0, V), check_prompt a (d, t)
prompt to the model's d and dtype and 0 < t < max_seq. Every batch enters
the core through _build_streams, which checks its longest stream against
max_seq (CapacityError) and its ids. The single-sequence ops also check
their prefix and ids up front, decode checks its whole length before the
first token, and both training loops, train_full_weights and
training.train, check every sequence before the first step. load_backbone checks a
checkpoint's config and vocabulary, then holds its tensors to the one
weight table, _weight_shapes, which init_backbone also draws from.

Precision. A model computes in its config's dtype, float64 or float32:
weights, activations, logits and gradients all stay in it, and every scalar
the core mixes in is a Python float so that no float32 op runs through a
float64 loop. BackboneConfig defaults to float64, which the
finite-difference fixtures need; the experiment config's [backbone]
section defaults to float32, so the frozen generator of the desk and paper
presets computes in float32. The soft prompt it is steered by takes its
dtype: the prompt's parameters, Adam moments and gradients, its context
batch and the prompts it materializes, since a float64 prompt would be
rounded to the model's dtype on the way in and its gradient comes back in
it. check_prompt holds a trained prompt to the model's dtype; a prefix
passed to the single-sequence ops is cast to it. The embedder and the
student stay float64. _draw's softmax runs in float64 whatever the model's
dtype. It is one vocabulary-sized row per token, so it costs nothing next
to the forward pass, and the cumulative sum it searches adds up the whole
vocabulary: in float32 that sum carries rounding of up to about 1e-5,
enough to move the token a uniform draw near a boundary picks and to leave
the total short of the draw.

Gradients are written out manually (no autodiff) and verified against
central finite differences in the test suite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import vocab as V
from .checkpoint import check_tensors, read_checkpoint, write_checkpoint
from .errors import CapacityError, CheckpointFormatError, TrainingDivergedError, ValidationError
from .optim import CLIP_NORM, LossTrace, adam_step, batch_schedule, check_schedule, clip_global_norm, init_adam
from .vocab import Vocabulary

_RMS_EPS = 1e-5
_NEG = -1e30  # additive mask value; finite to stay NaN-free in float32
DTYPES = ("float64", "float32")  # what a model computes in, and so the soft prompts that steer it


@dataclass
class BackboneConfig:
    d: int = 64
    n_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 256
    max_seq: int = 256
    dtype: str = "float64"

    def __post_init__(self):
        sizes = (self.d, self.n_layers, self.n_heads, self.ffn_dim, self.max_seq)
        # bool is a subclass of int; every size must be a plain positive int
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise ValidationError(f"sizes must be ints >= 1: {self}")
        if self.d % self.n_heads != 0:
            raise ValidationError("d must divide evenly into heads")
        if self.dtype not in DTYPES:
            raise ValidationError(f"unsupported dtype {self.dtype!r}")


@dataclass
class BackboneModel:
    config: BackboneConfig
    vocab: Vocabulary
    weights: dict[str, np.ndarray]
    frozen: bool = False

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def _weight_shapes(config: BackboneConfig, vs: int) -> dict[str, tuple[int, ...]]:
    """The shape of every weight, keyed by name, for a vocabulary of vs tokens."""
    d, ffn = config.d, config.ffn_dim
    shapes = {"tok_emb": (vs, d), "pos_emb": (config.max_seq, d)}
    for i in range(config.n_layers):
        p = f"layers.{i}."
        shapes.update({p + "attn_norm_g": (d,), p + "wq": (d, d), p + "wk": (d, d), p + "wv": (d, d),
                       p + "wo": (d, d), p + "ffn_norm_g": (d,), p + "w1": (ffn, d), p + "w2": (d, ffn)})
    shapes.update({"final_norm_g": (d,), "head_w": (vs, d), "head_b": (vs,)})
    return shapes


def init_backbone(config: BackboneConfig, vocabulary: Vocabulary, seed: int) -> BackboneModel:
    """Seeded initialization, drawn weight by weight in _weight_shapes order.

    Norm gains start at one, the head bias and the residual-branch output
    projections (wo, w2) at zero, so the initial model is near uniform,
    and every other weight at 0.02 * N(0, 1).
    """
    rng = np.random.default_rng(seed)
    dt = np.dtype(config.dtype)
    w: dict[str, np.ndarray] = {}
    for name, shape in _weight_shapes(config, len(vocabulary)).items():
        if name.endswith("_g"):
            w[name] = np.ones(shape, dtype=dt)
        elif name == "head_b" or name.endswith((".wo", ".w2")):
            w[name] = np.zeros(shape, dtype=dt)
        else:
            w[name] = (0.02 * rng.standard_normal(shape)).astype(dt)
    return BackboneModel(config=config, vocab=vocabulary, weights=w)


def freeze(model: BackboneModel) -> BackboneModel:
    for arr in model.weights.values():
        arr.setflags(write=False)
    model.frozen = True
    return model


def clone_unfrozen(model: BackboneModel) -> BackboneModel:
    """Writable deep copy; the source stays frozen."""
    return BackboneModel(
        config=replace(model.config),
        vocab=model.vocab,
        weights={k: a.copy() for k, a in model.weights.items()},
        frozen=False,
    )


def checksum(model: BackboneModel) -> str:
    """SHA-256 over all weight tensors in canonical order."""
    h = hashlib.sha256()
    for name in sorted(model.weights):
        arr = np.ascontiguousarray(model.weights[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes(order="C"))
    return h.hexdigest()


def save_backbone(path, model: BackboneModel) -> None:
    meta = {"config": asdict(model.config), "frozen": model.frozen, "tokens": model.vocab.tokens}
    write_checkpoint(path, "backbone", meta, model.weights)


def load_backbone(path) -> BackboneModel:
    """Read a backbone; raises CheckpointFormatError unless meta and tensors match."""
    _, meta, tensors = read_checkpoint(path, expect_kind="backbone")
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"backbone meta is a {type(meta).__name__}, not an object")
    raw, tokens = meta.get("config"), meta.get("tokens")
    if not isinstance(raw, dict) or set(raw) != {f.name for f in fields(BackboneConfig)}:
        raise CheckpointFormatError(f"backbone meta config must hold the BackboneConfig fields: {raw!r}")
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise CheckpointFormatError("backbone meta tokens must be a list of strings")
    try:
        config, vocabulary = BackboneConfig(**raw), Vocabulary(tokens)
    except ValidationError as exc:
        raise CheckpointFormatError(f"bad backbone meta: {exc}") from exc
    check_tensors(tensors, _weight_shapes(config, len(vocabulary)), config.dtype)
    model = BackboneModel(config=config, vocab=vocabulary, weights=tensors)
    if meta.get("frozen"):
        freeze(model)
    return model


# ---------------------------------------------------------------------------
# validation helpers: the prompt rule has its one implementation here, the id rule in vocab

def check_prompt(model: BackboneModel, d: int, t: int, dtype) -> None:
    """ValidationError unless a (d, t) prompt of dtype fits the model: d and dtype equal, 0 < t < max_seq."""
    if d != model.d or not 0 < t < model.config.max_seq or dtype != model.config.dtype:
        raise ValidationError(f"a {dtype} prompt of d={d}, width t={t} does not fit the backbone: it needs "
                              f"{model.config.dtype}, d={model.d} and 0 < t < {model.config.max_seq}")


def _check_prefix(model: BackboneModel, prefix: np.ndarray) -> np.ndarray:
    """A prefix of any float dtype, cast to the model's, then held to the prompt rule."""
    prefix = np.asarray(prefix, dtype=model.config.dtype)
    if prefix.ndim != 2:
        raise ValidationError(f"prefix must be a (d, t) matrix, got shape {prefix.shape}")
    check_prompt(model, *prefix.shape, prefix.dtype)
    if not np.all(np.isfinite(prefix)):
        raise ValidationError("prefix contains non-finite entries")
    return prefix


def _nonempty_ids(model: BackboneModel, ids) -> list[int]:
    ids = V.check_ids(ids, model.vocab_size).tolist()
    if not ids:
        raise ValidationError("empty token sequence")
    return ids


def _check_capacity(model: BackboneModel, total: int) -> None:
    if total > model.config.max_seq:
        raise CapacityError(f"sequence length {total} exceeds capacity {model.config.max_seq}")


# ---------------------------------------------------------------------------
# forward / backward core (packed rows, row-major streams)
#
# In the padded grid a stream's padding comes after its last real row, so
# the causal mask gives it exactly zero weight from every real query. Padded
# queries do attend to real rows, but the backward pass gives them a zero
# upstream gradient, so they send nothing back.


class _Layout(NamedTuple):
    """Where the packed rows of a batch sit in its padded (B, T) grid."""

    B: int
    T: int  # padded stream length, t + the longest token row
    t: int  # prefix rows per stream (0 for token-only streams)
    lens: np.ndarray  # token rows per stream
    starts: np.ndarray  # packed index of each stream's first row
    real: np.ndarray  # flat grid index b*T + i of each packed row
    tok_rows: np.ndarray  # packed index of each token row, stream by stream
    pos: np.ndarray  # position of each token row within its token segment


def _rms_forward(x: np.ndarray, g: np.ndarray):
    """Normalized and scaled rows (x * s) * g, and the cache (x, s)."""
    s = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _RMS_EPS)
    return x * s * g, (x, s)


def _rms_backward(dy: np.ndarray, g: np.ndarray, cache) -> np.ndarray:
    """dx; the gain gradient is sum(dy * x * s, axis=0), left to the caller."""
    x, s = cache
    d = x.shape[-1]
    dxhat = dy * g
    dot = np.sum(x * dxhat, axis=-1, keepdims=True)
    return s * (dxhat - x * (s * s / d) * dot)


def _to_grid(rows: np.ndarray, layout: _Layout) -> np.ndarray:
    """Packed (N, k) rows -> the (B, T, k) grid, zero on padding."""
    B, T = layout.B, layout.T
    if len(rows) < B * T:
        grid = np.zeros((B * T, rows.shape[1]), dtype=rows.dtype)
        grid[layout.real] = rows
        rows = grid
    return rows.reshape(B, T, -1)


def _from_grid(grid: np.ndarray, layout: _Layout) -> np.ndarray:
    """(B, T, k) grid -> the packed (N, k) real rows."""
    rows = grid.reshape(layout.B * layout.T, -1)
    return rows if len(rows) == len(layout.real) else rows[layout.real]


def _to_heads(rows: np.ndarray, layout: _Layout, n_heads: int) -> np.ndarray:
    """Packed (N, d) rows -> head-major (B, H, T, dh), zero on padding."""
    B, T = layout.B, layout.T
    return _to_grid(rows, layout).reshape(B, T, n_heads, -1).transpose(0, 2, 1, 3)


def _from_heads(heads: np.ndarray, layout: _Layout) -> np.ndarray:
    """Head-major (B, H, T, dh) -> the packed (N, d) real rows."""
    B, H, T, dh = heads.shape
    return _from_grid(heads.transpose(0, 2, 1, 3).reshape(B, T, H * dh), layout)


def _forward(
    model: BackboneModel,
    x0: np.ndarray,
    layout: _Layout,
    head_rows=None,
    want_weight_grads: bool = False,
):
    """Packed rows x0 (N, d) -> logits plus the backward cache.

    With head_rows None the head runs stream by stream over the padded
    grid and the logits are (B, T, V); this is the form _backward takes.
    Otherwise only the listed packed rows reach the final norm and the
    head, the logits are (len(head_rows), V), and no layer's activations
    are kept: the cache is None.

    The cache keeps only what the requested gradients read, and each norm
    keeps only its input x and scale s: _backward recomputes the normed
    rows from them where a weight gradient reads them. For dx0 alone a
    layer keeps both norms' (x, s), q, k, v, the attention weights and
    the ReLU's boolean mask. With want_weight_grads it also keeps the
    attention output o and the ReLU output f (whose mask f > 0 equals
    pre > 0, so pre is not kept), and the cache keeps the final h.
    """
    cfg = model.config
    w = model.weights
    H, dh = cfg.n_heads, x0.shape[1] // cfg.n_heads
    mask = np.triu(np.full((layout.T, layout.T), _NEG, dtype=x0.dtype), k=1)

    x = x0
    layer_caches = [] if head_rows is None else None
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        a, nc1 = _rms_forward(x, w[p + "attn_norm_g"])
        qh = _to_heads(a @ w[p + "wq"].T, layout, H)
        kh = _to_heads(a @ w[p + "wk"].T, layout, H)
        vh = _to_heads(a @ w[p + "wv"].T, layout, H)
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores /= math.sqrt(dh)  # a Python float keeps a float32 grid in a float32 loop
        scores += mask
        scores -= scores.max(axis=-1, keepdims=True)
        attn_w = np.exp(scores, out=scores)
        attn_w /= attn_w.sum(axis=-1, keepdims=True)
        o = _from_heads(attn_w @ vh, layout)
        x_mid = x + o @ w[p + "wo"].T

        b, nc2 = _rms_forward(x_mid, w[p + "ffn_norm_g"])
        f = b @ w[p + "w1"].T
        np.maximum(f, 0.0, out=f)  # relu(pre), in place
        x = x_mid + f @ w[p + "w2"].T
        if layer_caches is None:
            continue
        if want_weight_grads:
            layer_caches.append((nc1, qh, kh, vh, attn_w, o, nc2, f))
        else:
            layer_caches.append((nc1, qh, kh, vh, attn_w, None, nc2, f > 0))

    if head_rows is not None:
        h, _ = _rms_forward(x[head_rows], w["final_norm_g"])
        return h @ w["head_w"].T + w["head_b"], None
    h, ncf = _rms_forward(x, w["final_norm_g"])
    h = _to_grid(h, layout)
    logits = h @ w["head_w"].T + w["head_b"]
    return logits, (layout, layer_caches, ncf, h if want_weight_grads else None)


def _xhat(cache) -> np.ndarray:
    """A norm's normalized rows x * s, recomputed from its cache."""
    x, s = cache
    return x * s


def _backward(model: BackboneModel, cache, dlogits: np.ndarray):
    """Grid dlogits (B, T, V) -> (dx0 over the packed rows, weight_grads or None).

    Weight gradients come back when _forward kept their inputs
    (want_weight_grads). Each layer's cache is popped as it is consumed,
    so the cache's list of layers is empty afterwards. Never mutates
    model weights.
    """
    cfg = model.config
    w = model.weights
    layout, layer_caches, ncf, h = cache
    dh = cfg.d // cfg.n_heads
    want_weight_grads = h is not None
    wg: dict[str, np.ndarray] | None = {} if want_weight_grads else None

    if want_weight_grads:
        vs = dlogits.shape[-1]
        wg["head_w"] = dlogits.reshape(-1, vs).T @ h.reshape(-1, h.shape[-1])
        wg["head_b"] = dlogits.sum(axis=(0, 1))
    dy = _from_grid(dlogits @ w["head_w"], layout)
    dx = _rms_backward(dy, w["final_norm_g"], ncf)
    if want_weight_grads:
        wg["final_norm_g"] = np.sum(dy * _xhat(ncf), axis=0)

    for i in reversed(range(cfg.n_layers)):
        p = f"layers.{i}."
        # f is relu(pre), or its boolean mask when no weight gradient reads
        # it; f > 0 is the mask either way
        nc1, qh, kh, vh, attn_w, o, nc2, f = layer_caches.pop()

        # ffn branch: x = x_mid + relu(b @ w1.T) @ w2.T, b = xhat2 * g2
        df = dx @ w[p + "w2"]
        dpre = df * (f > 0)
        db = dpre @ w[p + "w1"]
        if want_weight_grads:
            wg[p + "w2"] = dx.T @ f
            xhat = _xhat(nc2)
            wg[p + "w1"] = dpre.T @ (xhat * w[p + "ffn_norm_g"])
            wg[p + "ffn_norm_g"] = np.sum(db * xhat, axis=0)
        dx_mid = _rms_backward(db, w[p + "ffn_norm_g"], nc2)
        dx_mid += dx  # residual

        # attention branch: x_mid = x + (attn_w @ v) @ wo.T, a = xhat1 * g1
        do = _to_heads(dx_mid @ w[p + "wo"], layout, cfg.n_heads)
        if want_weight_grads:
            wg[p + "wo"] = dx_mid.T @ o
        dscores = do @ vh.transpose(0, 1, 3, 2)
        dscores -= np.sum(attn_w * dscores, axis=-1, keepdims=True)
        dscores *= attn_w
        # a Python float keeps a float32 model's gradients float32
        dq = _from_heads(dscores @ kh, layout) / math.sqrt(dh)
        dk = _from_heads(dscores.transpose(0, 1, 3, 2) @ qh, layout) / math.sqrt(dh)
        dv = _from_heads(attn_w.transpose(0, 1, 3, 2) @ do, layout)
        da = dq @ w[p + "wq"] + dk @ w[p + "wk"] + dv @ w[p + "wv"]
        if want_weight_grads:
            xhat = _xhat(nc1)
            a = xhat * w[p + "attn_norm_g"]
            wg[p + "wq"] = dq.T @ a
            wg[p + "wk"] = dk.T @ a
            wg[p + "wv"] = dv.T @ a
            wg[p + "attn_norm_g"] = np.sum(da * xhat, axis=0)
        dx = _rms_backward(da, w[p + "attn_norm_g"], nc1) + dx_mid  # residual

    return dx, wg


def _build_streams(model: BackboneModel, prefixes, token_rows):
    """Pack a ragged batch into (N, d) input rows and their grid layout.

    prefixes: None (token-only streams) or B row-major (t, d) prefixes, all
    the same width. Token rows get tok_emb + pos_emb with positions indexed
    within the token segment; prefix rows get none. The layout's real
    holds the flat indices of the real rows (every prefix row and every
    token row) in the padded (B, T) grid. Raises CapacityError when the
    longest stream exceeds max_seq and ValidationError when a token id
    is not an int in [0, V): a negative id would silently index from the end.
    """
    cfg = model.config
    w = model.weights
    B = len(token_rows)
    t = 0 if prefixes is None else len(prefixes[0])
    lens = np.fromiter(map(len, token_rows), dtype=np.intp, count=B)
    T = t + int(lens.max())
    _check_capacity(model, T)
    spans = t + lens
    starts = np.cumsum(spans) - spans
    n_real = int(spans.sum())
    real = np.arange(n_real) + np.repeat(np.arange(B) * T - starts, spans)
    tok_starts = np.cumsum(lens) - lens
    n_tok = int(lens.sum())
    ramp = np.arange(n_tok)
    tok_rows = ramp + np.repeat(starts + t - tok_starts, lens)
    pos = ramp - np.repeat(tok_starts, lens)
    layout = _Layout(B, T, t, lens, starts, real, tok_rows, pos)

    ids = V.check_ids(chain.from_iterable(token_rows), model.vocab_size)
    x0 = np.empty((n_real, cfg.d), dtype=np.dtype(cfg.dtype))
    if t:
        x0[_prefix_rows(layout)] = np.reshape(prefixes, (B * t, cfg.d))
    x0[tok_rows] = w["tok_emb"][ids] + w["pos_emb"][pos]
    return x0, layout, ids


def _prefix_rows(layout: _Layout) -> np.ndarray:
    """Packed indices of the prefix rows, stream by stream."""
    return (layout.starts[:, None] + np.arange(layout.t)).ravel()


def _loss_rows(layout: _Layout, has_prefix: bool):
    """Scored packed rows, the flat token index each predicts, and each stream's count.

    With a prefix, stream row t-1+j predicts token j. Without one, token 0
    has no conditioning and stream row j-1 predicts token j.
    """
    lens = layout.lens
    counts = lens if has_prefix else np.maximum(lens - 1, 0)
    first_row, first_target = (layout.t - 1, 0) if has_prefix else (0, 1)
    within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(layout.starts + first_row, counts) + within
    targets = np.repeat(np.cumsum(lens) - lens + first_target, counts) + within
    return rows, targets, counts


def batch_loss_and_grads(
    model: BackboneModel,
    prefixes,
    token_rows,
    want_weight_grads: bool = False,
    want_prefix_grads: bool = False,
):
    """Mean-of-per-example-mean NLL over a ragged batch, with gradients.

    The batch runs packed: its real rows (prefix rows, then token rows,
    stream after stream) form one (N, d) matrix with no padding. Only
    attention and the output head see the padded (B, T) grid; the head
    runs stream by stream over it, as one GEMM per stream. The
    cross-entropy runs in one pass over the scored rows of the whole batch
    (see _loss_rows). Each scored row's gradient is weighted
    1/(count * B), where count is its stream's number of scored rows. A
    stream with nothing to score (one token, no prefix) has loss 0 and
    still counts in the mean.

    Returns (mean_loss, per_example_losses, prefix_grads, weight_grads).
    prefix_grads is a (B, t, d) array (row-major) when requested.
    """
    has_prefix = prefixes is not None
    x0, layout, ids = _build_streams(model, prefixes, token_rows)
    rows, targets, counts = _loss_rows(layout, has_prefix)
    grid_logits, cache = _forward(model, x0, layout, want_weight_grads=want_weight_grads)
    B, T, vs = grid_logits.shape
    scored = layout.real[rows]  # flat grid index of each scored row
    logits = grid_logits.reshape(B * T, vs)[scored]

    picked = (np.arange(len(rows)), ids[targets])
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    nll = lse - logits[picked]
    stream = np.repeat(np.arange(B), counts)
    per_example = np.bincount(stream, weights=nll, minlength=B) / np.maximum(counts, 1)

    mean_loss = float(per_example.mean())
    if not (want_weight_grads or want_prefix_grads):
        return mean_loss, per_example, None, None
    probs = np.exp(logits - lse[:, None])
    probs[picked] -= 1.0
    probs /= (counts * B).astype(probs.dtype)[stream, None]
    # the scored-row temporaries die before the backward pass allocates its
    # own, and the grid logits buffer is overwritten with dlogits
    del logits, mx, lse, nll
    grid_logits.fill(0)
    grid_logits.reshape(B * T, vs)[scored] = probs
    del probs
    dx0, wg = _backward(model, cache, grid_logits)
    if want_weight_grads:
        # scatter token-row gradients into the embedding tables, stream by stream
        dtok = dx0[layout.tok_rows]
        wg["tok_emb"] = np.zeros_like(model.weights["tok_emb"])
        wg["pos_emb"] = np.zeros_like(model.weights["pos_emb"])
        np.add.at(wg["tok_emb"], ids, dtok)
        np.add.at(wg["pos_emb"], layout.pos, dtok)
    prefix_grads = None
    if want_prefix_grads and has_prefix:
        prefix_grads = dx0[_prefix_rows(layout)].reshape(B, layout.t, -1)
    return mean_loss, per_example, prefix_grads, wg


# ---------------------------------------------------------------------------
# public single-sequence operations (column convention at the boundary)

def forward_logits(model: BackboneModel, prefix: np.ndarray, target) -> np.ndarray:
    """Next-token logits, one row per target position.

    Row j holds logits over the vocabulary for predicting target[j] given
    the prefix columns plus embedded tokens target[0..j-1].
    """
    prefix = _check_prefix(model, prefix)
    ids = _nonempty_ids(model, target)
    x0, layout, _ = _build_streams(model, [prefix.T], [ids])
    rows, _, _ = _loss_rows(layout, has_prefix=True)
    logits, _ = _forward(model, x0, layout, rows)
    return logits


def _next_logits(model: BackboneModel, prefixes, ids: list[int]) -> np.ndarray:
    """Logits after the last row of one stream; only that row reaches the head."""
    x0, layout, _ = _build_streams(model, prefixes, [ids])
    logits, _ = _forward(model, x0, layout, [len(x0) - 1])
    return logits[0]


def continuation_logits(model: BackboneModel, ids) -> np.ndarray:
    """Logits for the token following a plain token sequence (no prefix)."""
    ids = _nonempty_ids(model, ids)
    _check_capacity(model, len(ids) + 1)
    return _next_logits(model, None, ids)


def _draw(rng: np.random.Generator, logits: np.ndarray, temperature: float) -> int:
    if temperature == 0:
        return int(np.argmax(logits))  # ties resolve to the lowest id
    z = logits.astype(np.float64) / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


def _decode(model: BackboneModel, prefix_rows, ids: list[int], max_new: int, temperature: float, seed) -> list[int]:
    """Up to max_new tokens drawn after the stream prefix_rows + ids, EOS not returned.

    prefix_rows is None or a list of one row-major (t, d) prefix; ids is never extended.
    """
    if max_new < 1:
        raise ValidationError(f"decode length must be >= 1, got {max_new}")
    if temperature < 0:
        raise ValidationError("temperature must be >= 0")
    t = 0 if prefix_rows is None else len(prefix_rows[0])
    _check_capacity(model, t + len(ids) + max_new)
    rng = np.random.default_rng(seed)
    stream = list(ids)
    while len(stream) - len(ids) < max_new:
        nxt = _draw(rng, _next_logits(model, prefix_rows, stream), temperature)
        if nxt == V.EOS:
            break
        stream.append(nxt)
    return stream[len(ids):]


def sample(model: BackboneModel, prefix: np.ndarray, max_len: int, temperature: float, seed) -> list[int]:
    """Autoregressive decoding from a dense prefix until EOS or max_len.

    Temperature 0 is greedy argmax; otherwise logits are divided by the
    temperature before the softmax draw. EOS is consumed, not returned.
    """
    prefix = _check_prefix(model, prefix)
    return _decode(model, [prefix.T], [], max_len, temperature, seed)


def continue_tokens(model: BackboneModel, context_ids, max_new: int, temperature: float, seed) -> list[int]:
    """Sample a continuation of a real token sequence.

    The context enters as embedded tokens (with positional encodings) and
    generated tokens extend the position indices; only the continuation is
    returned. Used for answer generation and the template baselines.
    """
    context = _nonempty_ids(model, context_ids)
    return _decode(model, None, context, max_new, temperature, seed)


# ---------------------------------------------------------------------------
# full-weight training (backbone pretraining, student fine-tuning)

def train_full_weights(
    model: BackboneModel,
    sequences: list[list[int]],
    steps: int,
    lr: float,
    seed: int,
    batch_size: int = 8,
) -> LossTrace:
    """Next-token training over BOS-wrapped sequences by optim's recipe; modifies the model."""
    if model.frozen:
        raise ValidationError("model is frozen")
    if not sequences:
        raise ValidationError("empty training corpus")
    check_schedule(steps, lr, batch_size)
    wrapped = [[V.BOS] + _nonempty_ids(model, s) + [V.EOS] for s in sequences]
    for s in wrapped:
        _check_capacity(model, len(s))
    schedule = batch_schedule(len(wrapped), steps, batch_size, seed)
    adam = init_adam(model.weights)
    trace = LossTrace()
    for step, batch in enumerate(schedule):
        loss, _, _, wg = batch_loss_and_grads(model, None, [wrapped[i] for i in batch], want_weight_grads=True)
        if not np.isfinite(loss):
            raise TrainingDivergedError(step, loss)
        norm = clip_global_norm(wg, CLIP_NORM)
        adam_step(adam, model.weights, wg, lr)
        del wg  # applied; no two steps' gradients are alive at once
        trace.record(loss, norm)
    return trace


def pretrain_backbone(
    corpus: list[list[int]],
    vocabulary: Vocabulary,
    config: BackboneConfig,
    steps: int,
    lr: float,
    seed: int,
    batch_size: int = 8,
) -> tuple[BackboneModel, LossTrace]:
    """Initialize, train on the corpus, and return the model frozen.

    With steps=0 the returned weights equal the seeded initialization.
    """
    model = init_backbone(config, vocabulary, seed)
    trace = train_full_weights(model, corpus, steps, lr, seed, batch_size)
    freeze(model)
    return model, trace
