"""Decoding behavior: greedy ties, temperature, EOS, determinism."""

import numpy as np
import pytest

from conftest import live_backbone

from softsrv import backbone
from softsrv.backbone import (
    BackboneConfig,
    continuation_logits,
    continue_tokens,
    forward_logits,
    init_backbone,
    sample,
)
from softsrv.errors import CapacityError, ValidationError
from softsrv.vocab import EOS, build_vocab


def flat_model():
    # zero-residual init with zero head bias: every position is argmax id 0
    vocab = build_vocab(["a b c d e"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=8, max_seq=64)
    model = init_backbone(cfg, vocab, 1)
    model.weights["head_w"][:] = 0.0
    return model


def test_greedy_ties_resolve_to_lowest_id():
    model = flat_model()
    ids = sample(model, np.zeros((8, 2)), max_len=4, temperature=0.0, seed=0)
    assert ids == [0, 0, 0, 0]


def random_model():
    """Every path active; a sharper head makes both EOS stops and full-length decodes occur."""
    vocab = build_vocab(["a b c d e"])
    cfg = BackboneConfig(d=8, n_layers=2, n_heads=2, ffn_dim=16, max_seq=32)
    model = live_backbone(cfg, vocab, 4)
    model.weights["head_w"] *= 5.0
    return model


def reference_decode(next_logits, max_new, temperature, seed):
    """The per-token loop: one full forward per token, draws as the sampler makes them."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < max_new:
        logits = next_logits(out)
        if temperature == 0:
            nxt = int(np.argmax(logits))
        else:
            z = logits.astype(np.float64) / temperature
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            nxt = min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), len(p) - 1)
        if nxt == EOS:
            break
        out.append(nxt)
    return out


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_decode_equals_the_per_token_reference_loop(temperature):
    model = random_model()
    prefix = np.random.default_rng(9).normal(0.0, 0.5, (8, 3))
    context = [4, 6, 5]
    lengths = []
    for seed in range(8):
        # the dense prefix: the last row of a teacher-forced pass, one dummy token past the stream
        want = reference_decode(
            lambda out: forward_logits(model, prefix, out + [EOS])[-1], 12, temperature, seed)
        assert sample(model, prefix, 12, temperature, seed) == want
        want = reference_decode(lambda out: continuation_logits(model, context + out), 12, temperature, seed)
        got_context = list(context)
        assert continue_tokens(model, got_context, 12, temperature, seed) == want
        assert got_context == context
        lengths.append(len(want))
    assert 0 < max(lengths) and min(lengths) < 12  # tokens were drawn, and EOS stopped decodes
    if temperature:
        assert 12 in lengths and len(set(lengths)) > 2  # the seeds drew different streams


@pytest.fixture
def forward_calls(monkeypatch):
    """A list that gains one entry per backbone forward pass."""
    calls = []
    real_forward = backbone._forward

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(backbone, "_forward", counting_forward)
    return calls


def test_negative_temperature_rejected(forward_calls):
    model = flat_model()
    with pytest.raises(ValidationError):
        sample(model, np.zeros((8, 2)), max_len=4, temperature=-1.0, seed=0)
    with pytest.raises(ValidationError):
        continue_tokens(model, [4], max_new=4, temperature=-0.5, seed=0)
    assert forward_calls == []  # checked once, before the first forward


def test_bad_lengths_rejected_before_any_forward(forward_calls):
    model = random_model()
    prefix = np.zeros((8, 2))
    with pytest.raises(ValidationError):
        sample(model, prefix, max_len=0, temperature=1.0, seed=0)
    with pytest.raises(ValidationError):
        continue_tokens(model, [4], max_new=0, temperature=1.0, seed=0)
    # prefix or context plus the tokens asked for must fit in max_seq=32
    with pytest.raises(CapacityError):
        sample(model, prefix, max_len=31, temperature=1.0, seed=0)
    with pytest.raises(CapacityError):
        continue_tokens(model, [4] * 20, max_new=13, temperature=1.0, seed=0)
    assert forward_calls == []
    sample(model, prefix, max_len=30, temperature=1.0, seed=0)
    continue_tokens(model, [4] * 20, max_new=12, temperature=1.0, seed=0)
    assert forward_calls


def test_sampling_is_deterministic_per_seed():
    model = flat_model()
    a = sample(model, np.ones((8, 2)), max_len=8, temperature=1.0, seed=42)
    b = sample(model, np.ones((8, 2)), max_len=8, temperature=1.0, seed=42)
    c = sample(model, np.ones((8, 2)), max_len=8, temperature=1.0, seed=43)
    assert a == b
    assert a != c or len(a) == 0  # different seeds almost surely diverge


def test_eos_is_consumed_not_returned():
    model = flat_model()
    # bias the head so EOS dominates everywhere
    model.weights["head_b"][EOS] = 50.0
    ids = sample(model, np.ones((8, 2)), max_len=8, temperature=0.0, seed=0)
    assert ids == []
    cont = continue_tokens(model, [4, 5], max_new=8, temperature=0.0, seed=0)
    assert cont == []


def test_high_temperature_matches_softmax_frequencies():
    model = flat_model()
    rng = np.random.default_rng(3)
    model.weights["head_b"][:] = rng.uniform(-1.0, 1.0, size=model.vocab_size)
    logits = continuation_logits(model, [4])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    draws = 10000
    counts = np.zeros(model.vocab_size)
    for s in range(draws):
        out = continue_tokens(model, [4], max_new=1, temperature=1.0, seed=s)
        counts[out[0] if out else EOS] += 1
    np.testing.assert_allclose(counts / draws, p, atol=0.02)


def test_temperature_zero_ignores_seed():
    model = flat_model()
    rng = np.random.default_rng(5)
    model.weights["head_b"][:] = rng.uniform(-1.0, 1.0, size=model.vocab_size)
    a = continue_tokens(model, [4, 5], max_new=6, temperature=0.0, seed=1)
    b = continue_tokens(model, [4, 5], max_new=6, temperature=0.0, seed=999)
    assert a == b


def test_continue_tokens_returns_only_the_continuation(tiny_backbone):
    ctx = tiny_backbone.vocab.encode("How many apples")
    out = continue_tokens(tiny_backbone, ctx, max_new=5, temperature=1.0, seed=7)
    assert len(out) <= 5
    assert all(0 <= t < tiny_backbone.vocab_size for t in out)


def test_generator_stream_passes_through():
    # passing a Generator (not an int) lets one stream drive several calls
    model = flat_model()
    rng = np.random.default_rng(5)
    model.weights["head_b"][:] = rng.uniform(-1.0, 1.0, size=model.vocab_size)
    g1 = np.random.default_rng(11)
    first = continue_tokens(model, [4], max_new=3, temperature=1.5, seed=g1)
    second = continue_tokens(model, [4], max_new=3, temperature=1.5, seed=g1)
    g2 = np.random.default_rng(11)
    replay = [
        continue_tokens(model, [4], max_new=3, temperature=1.5, seed=g2),
        continue_tokens(model, [4], max_new=3, temperature=1.5, seed=g2),
    ]
    assert [first, second] == replay
