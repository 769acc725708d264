"""Tiny decoder-only transformer with hand-derived gradients.

The model factors into a token-embedding table and a transformer body that
consumes an arbitrary dense prefix, so a learned soft prompt can stand in
for embedded tokens. Public APIs speak the column convention (prefix and
token embeddings are (d, t) matrices); internally sequences are row-major.

Architecture: learned token + absolute positional embeddings (positions
attach to token positions only, never to prefix columns), pre-norm blocks
of causal multi-head attention and a ReLU MLP with residual connections,
RMS normalization, and an untied output head with bias. No KV cache;
sampling reruns the full forward per step, which is fine at desk scale.

Gradients are written out manually (no autodiff) and verified against
central finite differences in the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import vocab as V
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import CapacityError, TrainingDivergedError, ValidationError
from .optim import LossTrace, adam_step, clip_global_norm, init_adam
from .vocab import Vocabulary

_RMS_EPS = 1e-5
_NEG = -1e30  # additive mask value; finite to stay NaN-free in float32


@dataclass
class BackboneConfig:
    d: int = 64
    n_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 256
    max_seq: int = 256
    dtype: str = "float64"

    def __post_init__(self):
        if self.d % self.n_heads != 0:
            raise ValidationError("d must divide evenly into heads")
        if self.dtype not in ("float64", "float32"):
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


def weight_names(config: BackboneConfig) -> list[str]:
    names = ["tok_emb", "pos_emb"]
    for i in range(config.n_layers):
        names += [
            f"layers.{i}.attn_norm_g",
            f"layers.{i}.wq",
            f"layers.{i}.wk",
            f"layers.{i}.wv",
            f"layers.{i}.wo",
            f"layers.{i}.ffn_norm_g",
            f"layers.{i}.w1",
            f"layers.{i}.w2",
        ]
    names += ["final_norm_g", "head_w", "head_b"]
    return names


def init_backbone(
    config: BackboneConfig,
    vocabulary: Vocabulary,
    seed: int,
    zero_residual: bool = True,
) -> BackboneModel:
    """Seeded initialization.

    Residual-branch output projections (wo, w2) start at zero by default so
    the initial model is near uniform; gradient-check fixtures pass
    zero_residual=False to keep every path active.
    """
    rng = np.random.default_rng(seed)
    dt = np.dtype(config.dtype)
    d, ffn, vs = config.d, config.ffn_dim, len(vocabulary)

    def noise(*shape):
        return (0.02 * rng.standard_normal(shape)).astype(dt)

    def residual(*shape):
        return noise(*shape) if not zero_residual else np.zeros(shape, dtype=dt)

    w: dict[str, np.ndarray] = {
        "tok_emb": noise(vs, d),
        "pos_emb": noise(config.max_seq, d),
    }
    for i in range(config.n_layers):
        w[f"layers.{i}.attn_norm_g"] = np.ones(d, dtype=dt)
        w[f"layers.{i}.wq"] = noise(d, d)
        w[f"layers.{i}.wk"] = noise(d, d)
        w[f"layers.{i}.wv"] = noise(d, d)
        w[f"layers.{i}.wo"] = residual(d, d)
        w[f"layers.{i}.ffn_norm_g"] = np.ones(d, dtype=dt)
        w[f"layers.{i}.w1"] = noise(ffn, d)
        w[f"layers.{i}.w2"] = residual(d, ffn)
    w["final_norm_g"] = np.ones(d, dtype=dt)
    w["head_w"] = noise(vs, d)
    w["head_b"] = np.zeros(vs, dtype=dt)
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
    meta = {
        "config": {
            "d": model.config.d,
            "n_layers": model.config.n_layers,
            "n_heads": model.config.n_heads,
            "ffn_dim": model.config.ffn_dim,
            "max_seq": model.config.max_seq,
            "dtype": model.config.dtype,
        },
        "frozen": model.frozen,
        "tokens": model.vocab.tokens,
    }
    write_checkpoint(path, "backbone", meta, model.weights)


def load_backbone(path) -> BackboneModel:
    _, meta, tensors = read_checkpoint(path, expect_kind="backbone")
    config = BackboneConfig(**meta["config"])
    model = BackboneModel(config=config, vocab=Vocabulary(list(meta["tokens"])), weights=tensors)
    missing = set(weight_names(config)) ^ set(tensors)
    if missing:
        raise ValidationError(f"checkpoint weight set mismatch: {sorted(missing)}")
    if meta.get("frozen"):
        freeze(model)
    return model


# ---------------------------------------------------------------------------
# validation helpers

def _check_prefix(model: BackboneModel, prefix: np.ndarray) -> np.ndarray:
    prefix = np.asarray(prefix)
    if prefix.ndim != 2 or prefix.shape[0] != model.d:
        raise ValidationError(f"prefix must be (d={model.d}, t), got {prefix.shape}")
    t = prefix.shape[1]
    if not 0 < t < model.config.max_seq:
        raise ValidationError(f"prefix width t={t} outside (0, {model.config.max_seq})")
    if not np.all(np.isfinite(prefix)):
        raise ValidationError("prefix contains non-finite entries")
    return prefix.astype(model.config.dtype, copy=False)


def _check_ids(model: BackboneModel, ids, allow_empty: bool = False) -> list[int]:
    ids = [int(i) for i in ids]
    if not ids and not allow_empty:
        raise ValidationError("empty token sequence")
    for i in ids:
        if not 0 <= i < model.vocab_size:
            raise ValidationError(f"token id {i} out of vocabulary range")
    return ids


def _check_capacity(model: BackboneModel, total: int) -> None:
    if total > model.config.max_seq:
        raise CapacityError(f"sequence length {total} exceeds capacity {model.config.max_seq}")


# ---------------------------------------------------------------------------
# forward / backward core (batched, row-major streams)

def _rms_forward(x: np.ndarray, g: np.ndarray):
    s = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _RMS_EPS)
    xhat = x * s
    return xhat * g, (x, xhat, s)


def _rms_backward(dy: np.ndarray, g: np.ndarray, cache):
    x, xhat, s = cache
    d = x.shape[-1]
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dot = np.sum(x * dxhat, axis=-1, keepdims=True)
    dx = s * (dxhat - x * (s * s / d) * dot)
    return dx, dg


def _forward(model: BackboneModel, x0: np.ndarray):
    """x0 (B, T, d) -> logits (B, T, V) plus the backward cache."""
    cfg = model.config
    w = model.weights
    B, T, d = x0.shape
    H, dh = cfg.n_heads, d // cfg.n_heads
    mask = np.triu(np.full((T, T), _NEG, dtype=x0.dtype), k=1)

    x = x0
    layer_caches = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        a, nc1 = _rms_forward(x, w[p + "attn_norm_g"])
        q = a @ w[p + "wq"].T
        k = a @ w[p + "wk"].T
        v = a @ w[p + "wv"].T
        # head-major (B, H, T, dh) views so the contractions run as batched matmuls
        qh = q.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        scores = (qh @ kh.transpose(0, 1, 3, 2)) / np.sqrt(dh)
        scores = scores + mask
        scores -= scores.max(axis=-1, keepdims=True)
        ew = np.exp(scores)
        attn_w = ew / ew.sum(axis=-1, keepdims=True)
        o = (attn_w @ vh).transpose(0, 2, 1, 3).reshape(B, T, d)
        x_mid = x + o @ w[p + "wo"].T

        b, nc2 = _rms_forward(x_mid, w[p + "ffn_norm_g"])
        pre = b @ w[p + "w1"].T
        f = np.maximum(pre, 0.0)
        x = x_mid + f @ w[p + "w2"].T
        layer_caches.append((nc1, a, qh, kh, vh, attn_w, o, x_mid, nc2, b, pre, f))

    h, ncf = _rms_forward(x, w["final_norm_g"])
    logits = h @ w["head_w"].T + w["head_b"]
    return logits, (x0.shape, layer_caches, ncf, h)


def _batch_outer(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over batch and time of outer(dy[b, t], x[b, t]): a weight gradient."""
    return dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def _backward(model: BackboneModel, cache, dlogits: np.ndarray, want_weight_grads: bool):
    """Returns (dx0, weight_grads or None). Never mutates model weights."""
    cfg = model.config
    w = model.weights
    (B, T, d), layer_caches, ncf, h = cache
    H, dh = cfg.n_heads, d // cfg.n_heads
    wg: dict[str, np.ndarray] | None = {} if want_weight_grads else None

    if want_weight_grads:
        wg["head_w"] = _batch_outer(dlogits, h)
        wg["head_b"] = dlogits.sum(axis=(0, 1))
    dh_final = dlogits @ w["head_w"]
    dx, dgf = _rms_backward(dh_final, w["final_norm_g"], ncf)
    if want_weight_grads:
        wg["final_norm_g"] = dgf

    for i in reversed(range(cfg.n_layers)):
        p = f"layers.{i}."
        nc1, a, qh, kh, vh, attn_w, o, x_mid, nc2, b, pre, f = layer_caches[i]

        # ffn branch: x = x_mid + relu(b @ w1.T) @ w2.T
        dffn_out = dx
        df = dffn_out @ w[p + "w2"]
        dpre = df * (pre > 0)
        db = dpre @ w[p + "w1"]
        if want_weight_grads:
            wg[p + "w2"] = _batch_outer(dffn_out, f)
            wg[p + "w1"] = _batch_outer(dpre, b)
        dx_mid, dg2 = _rms_backward(db, w[p + "ffn_norm_g"], nc2)
        dx_mid = dx_mid + dx  # residual
        if want_weight_grads:
            wg[p + "ffn_norm_g"] = dg2

        # attention branch: x_mid = x + (attn_w @ v) @ wo.T
        dattn_out = dx_mid
        do = (dattn_out @ w[p + "wo"]).reshape(B, T, H, dh).transpose(0, 2, 1, 3)
        if want_weight_grads:
            wg[p + "wo"] = _batch_outer(dattn_out, o)
        dw_attn = do @ vh.transpose(0, 1, 3, 2)
        dvh = attn_w.transpose(0, 1, 3, 2) @ do
        dscores = attn_w * (dw_attn - np.sum(attn_w * dw_attn, axis=-1, keepdims=True))
        dqh = (dscores @ kh) / np.sqrt(dh)
        dkh = (dscores.transpose(0, 1, 3, 2) @ qh) / np.sqrt(dh)
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, d)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, d)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, d)
        da = dq @ w[p + "wq"] + dk @ w[p + "wk"] + dv @ w[p + "wv"]
        if want_weight_grads:
            wg[p + "wq"] = _batch_outer(dq, a)
            wg[p + "wk"] = _batch_outer(dk, a)
            wg[p + "wv"] = _batch_outer(dv, a)
        dx_in, dg1 = _rms_backward(da, w[p + "attn_norm_g"], nc1)
        dx = dx_in + dx_mid  # residual
        if want_weight_grads:
            wg[p + "attn_norm_g"] = dg1

    return dx, wg


def _build_streams(model: BackboneModel, prefixes, token_rows):
    """Assemble padded (B, T, d) input embeddings.

    prefixes: None (token-only streams) or a list of (t, d) row-major
    prefixes, all the same width. Token rows get tok_emb + pos_emb with
    positions indexed within the token segment; prefix rows get none.
    """
    cfg = model.config
    w = model.weights
    dt = np.dtype(cfg.dtype)
    B = len(token_rows)
    t = 0 if prefixes is None else prefixes[0].shape[0]
    lens = [len(ids) for ids in token_rows]
    T = t + max(lens)
    _check_capacity(model, T)
    x0 = np.zeros((B, T, cfg.d), dtype=dt)
    for bi, ids in enumerate(token_rows):
        if prefixes is not None:
            x0[bi, :t] = prefixes[bi]
        if ids:
            x0[bi, t:t + len(ids)] = w["tok_emb"][ids] + w["pos_emb"][: len(ids)]
    return x0, t, lens


def _loss_rows(t: int, n_tokens: int, has_prefix: bool):
    """Stream rows whose logits are scored, and the token index they predict."""
    if has_prefix:
        # row t-1+j predicts token j
        return np.arange(t - 1, t - 1 + n_tokens), np.arange(0, n_tokens)
    # no conditioning for token 0; row j-1 predicts token j
    return np.arange(0, n_tokens - 1), np.arange(1, n_tokens)


def batch_loss_and_grads(
    model: BackboneModel,
    prefixes,
    token_rows,
    want_weight_grads: bool = False,
    want_prefix_grads: bool = False,
):
    """Mean-of-per-example-mean NLL over a padded batch, with gradients.

    Returns (mean_loss, per_example_losses, prefix_grads, weight_grads).
    prefix_grads is a (B, t, d) array (row-major) when requested.
    """
    has_prefix = prefixes is not None
    x0, t, lens = _build_streams(model, prefixes, token_rows)
    logits, cache = _forward(model, x0)
    B, T, vs = logits.shape

    per_example = np.zeros(B, dtype=np.float64)
    dlogits = np.zeros_like(logits)
    for bi, ids in enumerate(token_rows):
        rows, targets = _loss_rows(t, lens[bi], has_prefix)
        if len(rows) == 0:
            continue
        sel = logits[bi, rows]  # (L, V)
        mx = sel.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(sel - mx).sum(axis=1))
        tgt = np.asarray(ids, dtype=np.intp)[targets]
        nll = lse - sel[np.arange(len(rows)), tgt]
        per_example[bi] = float(nll.mean())
        probs = np.exp(sel - lse[:, None])
        probs[np.arange(len(rows)), tgt] -= 1.0
        dlogits[bi, rows] = probs / (len(rows) * B)

    mean_loss = float(per_example.mean())
    if not (want_weight_grads or want_prefix_grads):
        return mean_loss, per_example, None, None
    dx0, wg = _backward(model, cache, dlogits, want_weight_grads)
    if want_weight_grads:
        # scatter token-row gradients into the embedding tables
        wg["tok_emb"] = np.zeros_like(model.weights["tok_emb"])
        wg["pos_emb"] = np.zeros_like(model.weights["pos_emb"])
        for bi, ids in enumerate(token_rows):
            if ids:
                np.add.at(wg["tok_emb"], ids, dx0[bi, t:t + len(ids)])
                wg["pos_emb"][: len(ids)] += dx0[bi, t:t + len(ids)]
    prefix_grads = dx0[:, :t, :].copy() if (want_prefix_grads and has_prefix) else None
    return mean_loss, per_example, prefix_grads, wg


# ---------------------------------------------------------------------------
# public single-sequence operations (column convention at the boundary)

def forward_logits(model: BackboneModel, prefix: np.ndarray, target) -> np.ndarray:
    """Next-token logits, one row per target position.

    Row j holds logits over the vocabulary for predicting target[j] given
    the prefix columns plus embedded tokens target[0..j-1].
    """
    prefix = _check_prefix(model, prefix)
    ids = _check_ids(model, target)
    t = prefix.shape[1]
    _check_capacity(model, t + len(ids))
    x0, _, _ = _build_streams(model, [prefix.T], [ids])
    logits, _ = _forward(model, x0)
    rows, _ = _loss_rows(t, len(ids), has_prefix=True)
    return logits[0, rows]


def causal_loss(model: BackboneModel, prefix: np.ndarray, target) -> float:
    """Mean NLL of target under teacher forcing with the prefix as sole context."""
    prefix = _check_prefix(model, prefix)
    ids = _check_ids(model, target)
    _check_capacity(model, prefix.shape[1] + len(ids))
    loss, _, _, _ = batch_loss_and_grads(model, [prefix.T], [ids])
    return loss


def loss_and_prefix_grad(model: BackboneModel, prefix: np.ndarray, target) -> tuple[float, np.ndarray]:
    """causal_loss plus its gradient with respect to the prefix, shape (d, t)."""
    prefix = _check_prefix(model, prefix)
    ids = _check_ids(model, target)
    _check_capacity(model, prefix.shape[1] + len(ids))
    loss, _, pg, _ = batch_loss_and_grads(
        model, [prefix.T], [ids], want_prefix_grads=True
    )
    return loss, pg[0].T.copy()


def continuation_logits(model: BackboneModel, ids) -> np.ndarray:
    """Logits for the token following a plain token sequence (no prefix)."""
    ids = _check_ids(model, ids)
    _check_capacity(model, len(ids) + 1)
    x0, _, _ = _build_streams(model, None, [ids])
    logits, _ = _forward(model, x0)
    return logits[0, len(ids) - 1]


def _draw(rng: np.random.Generator, logits: np.ndarray, temperature: float) -> int:
    if temperature < 0:
        raise ValidationError("temperature must be >= 0")
    if temperature == 0:
        return int(np.argmax(logits))  # ties resolve to the lowest id
    z = logits.astype(np.float64) / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


def sample(model: BackboneModel, prefix: np.ndarray, max_len: int, temperature: float, seed) -> list[int]:
    """Autoregressive decoding from a dense prefix until EOS or max_len.

    Temperature 0 is greedy argmax; otherwise logits are divided by the
    temperature before the softmax draw. EOS is consumed, not returned.
    """
    prefix = _check_prefix(model, prefix)
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    t = prefix.shape[1]
    _check_capacity(model, t + max_len)
    rng = np.random.default_rng(seed)
    prefix_rows = prefix.T
    ids: list[int] = []
    while len(ids) < max_len:
        x0, _, _ = _build_streams(model, [prefix_rows], [ids])
        logits, _ = _forward(model, x0)
        nxt = _draw(rng, logits[0, t - 1 + len(ids)], temperature)
        if nxt == V.EOS:
            break
        ids.append(nxt)
    return ids


def continue_tokens(model: BackboneModel, context_ids, max_new: int, temperature: float, seed) -> list[int]:
    """Sample a continuation of a real token sequence.

    The context enters as embedded tokens (with positional encodings) and
    generated tokens extend the position indices; only the continuation is
    returned. Used for answer generation and the template baselines.
    """
    context = _check_ids(model, context_ids)
    if max_new < 1:
        raise ValidationError("max_new must be >= 1")
    _check_capacity(model, len(context) + max_new)
    rng = np.random.default_rng(seed)
    ids = list(context)
    out: list[int] = []
    while len(out) < max_new:
        x0, _, _ = _build_streams(model, None, [ids])
        logits, _ = _forward(model, x0)
        nxt = _draw(rng, logits[0, len(ids) - 1], temperature)
        if nxt == V.EOS:
            break
        ids.append(nxt)
        out.append(nxt)
    return out


# ---------------------------------------------------------------------------
# full-weight training (backbone pretraining, student fine-tuning)

def train_full_weights(
    model: BackboneModel,
    sequences: list[list[int]],
    steps: int,
    lr: float,
    seed: int,
    batch_size: int = 8,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    grad_clip: float | None = 1.0,
) -> LossTrace:
    """Next-token training over BOS-wrapped sequences; modifies the model."""
    if model.frozen:
        raise ValidationError("model is frozen")
    if not sequences:
        raise ValidationError("empty training corpus")
    wrapped = [[V.BOS] + _check_ids(model, s) + [V.EOS] for s in sequences]
    for s in wrapped:
        _check_capacity(model, len(s))
    rng = np.random.default_rng(seed)
    adam = init_adam(model.weights)
    trace = LossTrace()
    order: list[int] = []
    for step in range(steps):
        if len(order) < batch_size:
            order += [int(i) for i in rng.permutation(len(wrapped))]
        batch = [wrapped[i] for i in order[:batch_size]]
        order = order[batch_size:]
        loss, _, _, wg = batch_loss_and_grads(model, None, batch, want_weight_grads=True)
        if not np.isfinite(loss):
            raise TrainingDivergedError(step, loss)
        if grad_clip is not None:
            clip_global_norm(wg, grad_clip)
        deltas = adam_step(adam, wg, lr, betas, eps)
        for key, delta in deltas.items():
            model.weights[key] += delta
        trace.record(loss)
    trace.finish()
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
