"""Forward-pass oracles.

The reference implementation below recomputes everything with plain
per-position loops and head slicing, sharing no code with the vectorized
forward. Agreement is required to near machine precision.
"""

import re

import numpy as np
import pytest

from conftest import live_backbone

from softsrv.backbone import (
    BackboneConfig,
    _weight_shapes,
    batch_loss_and_grads,
    continuation_logits,
    forward_logits,
    freeze,
    init_backbone,
)
from softsrv.embedder import embed_sequence
from softsrv.errors import CapacityError, ValidationError
from softsrv.prompts import init_params
from softsrv.student import perplexity
from softsrv.training import train
from softsrv.vocab import build_vocab

RMS_EPS = 1e-5


def small_model(seed=3, dtype="float64", live=True):
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta"])
    cfg = BackboneConfig(d=8, n_layers=2, n_heads=2, ffn_dim=12, max_seq=32, dtype=dtype)
    return (live_backbone if live else init_backbone)(cfg, vocab, seed)


def _rms(x, g):
    return x / np.sqrt(np.mean(x * x) + RMS_EPS) * g


def oracle_stream_logits(model, x0):
    """x0 (T, d) -> (T, V), loops only."""
    cfg = model.config
    w = model.weights
    T, d = x0.shape
    H, dh = cfg.n_heads, d // cfg.n_heads
    x = [x0[i].copy() for i in range(T)]
    for li in range(cfg.n_layers):
        p = f"layers.{li}."
        a = [_rms(x[i], w[p + "attn_norm_g"]) for i in range(T)]
        q = [w[p + "wq"] @ a[i] for i in range(T)]
        k = [w[p + "wk"] @ a[i] for i in range(T)]
        v = [w[p + "wv"] @ a[i] for i in range(T)]
        o = []
        for i in range(T):
            heads = []
            for h in range(H):
                sl = slice(h * dh, (h + 1) * dh)
                scores = np.array([q[i][sl] @ k[j][sl] / np.sqrt(dh) for j in range(i + 1)])
                weights = np.exp(scores - scores.max())
                weights = weights / weights.sum()
                heads.append(sum(weights[j] * v[j][sl] for j in range(i + 1)))
            o.append(np.concatenate(heads))
        x = [x[i] + w[p + "wo"] @ o[i] for i in range(T)]
        b = [_rms(x[i], w[p + "ffn_norm_g"]) for i in range(T)]
        f = [np.maximum(w[p + "w1"] @ b[i], 0.0) for i in range(T)]
        x = [x[i] + w[p + "w2"] @ f[i] for i in range(T)]
    h = [_rms(x[i], w["final_norm_g"]) for i in range(T)]
    return np.stack([w["head_w"] @ h[i] + w["head_b"] for i in range(T)])


def build_x0(model, prefix, ids):
    w = model.weights
    rows = [prefix[:, j] for j in range(prefix.shape[1])]
    rows += [w["tok_emb"][tid] + w["pos_emb"][j] for j, tid in enumerate(ids)]
    return np.stack(rows)


def test_forward_matches_loop_oracle():
    model = small_model()
    rng = np.random.default_rng(5)
    prefix = rng.standard_normal((8, 3))
    ids = [4, 5, 6, 7, 4]
    got = forward_logits(model, prefix, ids)
    stream = oracle_stream_logits(model, build_x0(model, prefix, ids))
    # row t-1+j of the stream scores target j
    np.testing.assert_allclose(got, stream[2:7], rtol=1e-10, atol=1e-12)


def test_continuation_logits_match_oracle_last_row():
    model = small_model(seed=9)
    ids = [5, 6, 4]
    x0 = np.stack([model.weights["tok_emb"][t] + model.weights["pos_emb"][j] for j, t in enumerate(ids)])
    want = oracle_stream_logits(model, x0)[-1]
    np.testing.assert_allclose(continuation_logits(model, ids), want, rtol=1e-10, atol=1e-12)


def test_causal_loss_matches_manual_cross_entropy():
    model = small_model(seed=11)
    rng = np.random.default_rng(6)
    prefix = rng.standard_normal((8, 4))
    target = [5, 7, 4]
    logits = oracle_stream_logits(model, build_x0(model, prefix, target))
    # with a width-4 prefix, stream rows 3..5 predict the three targets
    total = 0.0
    for j, tid in enumerate(target):
        row = logits[prefix.shape[1] - 1 + j]
        total += np.log(np.sum(np.exp(row - row.max()))) + row.max() - row[tid]
    loss, _, _, _ = batch_loss_and_grads(model, [prefix.T], [target])
    assert loss == pytest.approx(total / len(target), rel=1e-12)


def test_zero_residual_init_reduces_to_direct_readout():
    # with wo = w2 = 0 the stream never mixes, so every row's logits are a
    # direct readout of its own input embedding
    model = small_model(seed=7, live=False)
    ids = [4, 5, 6]
    x0 = build_x0(model, np.zeros((8, 0)), ids)
    w = model.weights
    want = np.stack([w["head_w"] @ _rms(x0[i], w["final_norm_g"]) + w["head_b"] for i in range(3)])
    got = forward_logits(model, np.zeros((8, 1)), ids)
    # returned rows: the zero prefix row (reads out as head_b) then tokens 0..1
    np.testing.assert_allclose(got[0], w["head_b"], atol=1e-12)
    np.testing.assert_allclose(got[1:], want[:2], rtol=1e-10, atol=1e-12)


def test_future_tokens_cannot_affect_earlier_rows():
    model = small_model(seed=13)
    rng = np.random.default_rng(8)
    prefix = rng.standard_normal((8, 2))
    a = forward_logits(model, prefix, [4, 5, 6, 7])
    b = forward_logits(model, prefix, [4, 5, 4, 4])
    # rows scoring targets 0..2 see only tokens 0..1, which agree
    np.testing.assert_array_equal(a[:3], b[:3])
    assert not np.array_equal(a[3], b[3])


@pytest.mark.parametrize("dtype, rel", [("float64", 1e-12), ("float32", 1e-6)], ids=["float64", "float32"])
def test_padded_batch_rows_match_single_example_losses(dtype, rel):
    # the mask value _NEG gives padding exactly zero weight, and no NaN, in
    # either dtype, so a padded stream scores as it does alone, to float32
    # rounding in float32
    model = small_model(seed=15, dtype=dtype)
    rng = np.random.default_rng(10)
    prefixes = [rng.standard_normal((4, 8)) for _ in range(3)]
    rows = [[4, 5], [6, 7, 4, 5, 6], [7]]
    mean_loss, per_example, prefix_grads, _ = batch_loss_and_grads(model, prefixes, rows, want_prefix_grads=True)
    assert np.all(np.isfinite(per_example)) and np.all(np.isfinite(prefix_grads))
    for i in range(3):
        single, _, _, _ = batch_loss_and_grads(model, [prefixes[i]], [rows[i]])
        assert per_example[i] == pytest.approx(single, rel=rel)
    assert mean_loss == pytest.approx(np.mean(per_example), rel=1e-12)


def test_prefix_shape_and_finiteness_validated():
    model = small_model()
    with pytest.raises(ValidationError):
        forward_logits(model, np.zeros((7, 2)), [4])
    bad = np.full((8, 2), np.nan)
    with pytest.raises(ValidationError):
        forward_logits(model, bad, [4])


def test_sequence_capacity_enforced():
    model = small_model()
    with pytest.raises(CapacityError):
        forward_logits(model, np.zeros((8, 30)), [4, 5, 6])


_ID_OPS = {
    "train": lambda m, ids: train(m, None, [ids], init_params("ss_np", m, 2, 4, seed=1), steps=1, lr=1e-3, seed=0),
    "perplexity": lambda m, ids: perplexity(m, [ids]),
    "batch_loss_and_grads": lambda m, ids: batch_loss_and_grads(m, None, [[4, 5], ids]),
}


@pytest.mark.parametrize("bad", ["-1", "V", "2**70"])
@pytest.mark.parametrize("op", sorted(_ID_OPS))
def test_token_ids_outside_the_vocabulary_rejected(op, bad):
    # -1 would otherwise index the last embedding row, V raise IndexError
    # and 2**70 an OverflowError from the conversion to intp
    model = freeze(small_model())
    bad_id = {"-1": -1, "V": model.vocab_size, "2**70": 2**70}[bad]
    _ID_OPS[op](model, [4, 5])  # the same call with ids in range runs
    with pytest.raises(ValidationError, match=f"token id {bad_id} out of vocabulary range"):
        _ID_OPS[op](model, [4, bad_id, 5, -2])


_NOT_INTS = {"3.7": 3.7, "float64 4.0": np.float64(4.0), "'5'": "5", "True": True, "bool_": np.bool_(True)}


@pytest.mark.parametrize("bad", sorted(_NOT_INTS))
@pytest.mark.parametrize("op", sorted(_ID_OPS) + ["forward_logits", "embed_sequence"])
def test_token_ids_that_are_not_ints_rejected(op, bad):
    # int(i) would truncate a float id and read a string or bool as an id
    model = freeze(small_model())
    run = {
        "forward_logits": lambda ids: forward_logits(model, np.zeros((8, 2)), ids),
        "embed_sequence": lambda ids: embed_sequence(model, ids, d_e=4),
        **{name: (lambda ids, f=f: f(model, ids)) for name, f in _ID_OPS.items()},
    }[op]
    run([4, np.int32(5), np.int64(6)])  # Python ints and NumPy integers run
    with pytest.raises(ValidationError, match=re.escape(f"token id {_NOT_INTS[bad]!r} is not an int")):
        run([4, _NOT_INTS[bad], 5, 2**70])


def test_weight_names_cover_model_exactly():
    model = small_model()
    shapes = {name: arr.shape for name, arr in model.weights.items()}
    assert _weight_shapes(model.config, model.vocab_size) == shapes
