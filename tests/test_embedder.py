"""Context embedding: mean pooling, truncation, deliberate lossiness."""

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, init_backbone, freeze
from softsrv.embedder import embed_sequence
from softsrv.errors import ValidationError
from softsrv.vocab import build_vocab


def make_embedder(d=8, seed=2):
    vocab = build_vocab(["p q r s t u v"])
    cfg = BackboneConfig(d=d, n_layers=1, n_heads=1, ffn_dim=8, max_seq=32)
    return freeze(init_backbone(cfg, vocab, seed))


def test_embedding_is_truncated_token_mean():
    model = make_embedder()
    ids = [4, 6, 5, 4]
    want = model.weights["tok_emb"][ids].mean(axis=0)[:5]
    got = embed_sequence(model, ids, d_e=5)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got.shape == (5,)
    assert got.dtype == np.float64


def test_embedding_ignores_token_order():
    model = make_embedder()
    a = embed_sequence(model, [4, 5, 6], d_e=4)
    b = embed_sequence(model, [6, 4, 5], d_e=4)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_compression_is_lossy_by_construction():
    # two different sequences with the same bag of tokens collapse to one
    # context vector; the map from text to context cannot be injective
    model = make_embedder()
    a = embed_sequence(model, [4, 4, 5, 6], d_e=4)
    b = embed_sequence(model, [5, 4, 6, 4], d_e=4)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    c = embed_sequence(model, [4, 5, 6, 6], d_e=4)
    assert np.max(np.abs(a - c)) > 1e-6


def test_unfrozen_embedder_rejected():
    vocab = build_vocab(["p q"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=1, ffn_dim=8, max_seq=32)
    model = init_backbone(cfg, vocab, 2)
    with pytest.raises(ValidationError):
        embed_sequence(model, [4], d_e=4)


def test_d_e_cannot_exceed_model_width():
    model = make_embedder(d=8)
    with pytest.raises(ValidationError):
        embed_sequence(model, [4], d_e=9)


def test_empty_sequence_rejected():
    model = make_embedder()
    with pytest.raises(ValidationError):
        embed_sequence(model, [], d_e=4)


def test_out_of_range_ids_rejected():
    model = make_embedder()
    for bad in ([4, -1], [model.vocab_size], [4, 5, model.vocab_size + 3], [2**70]):
        with pytest.raises(ValidationError, match=f"token id {bad[-1]} "):
            embed_sequence(model, bad, d_e=4)


def loop_embed(model, ids, d_e):
    """embed_sequence as it was: a per-token range check, then ndarray.mean."""
    ids = [int(i) for i in ids]
    for i in ids:
        assert 0 <= i < model.vocab_size
    return model.weights["tok_emb"][ids].mean(axis=0)[:d_e].astype(np.float64).copy()


def test_embedding_equals_the_per_token_loop_exactly():
    model = make_embedder(d=16, seed=3)
    rng = np.random.default_rng(4)
    for length in (1, 2, 7, 8, 9, 33, 200):
        ids = rng.integers(0, model.vocab_size, size=length)
        for seq in (ids.tolist(), ids, tuple(ids.tolist())):
            np.testing.assert_array_equal(embed_sequence(model, seq, d_e=11), loop_embed(model, seq, 11))
