"""Finite-difference checks for every gradient path.

Central differences in float64; analytic and numeric must agree to 1e-4
relative on coordinates of meaningful size (smaller ones drown in FD
round-off). Models come from conftest.live_backbone, whose wo and w2 are
drawn, so no branch is dead.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import live_backbone

from softsrv.backbone import BackboneConfig, BackboneModel, batch_loss_and_grads, forward_logits
from softsrv.prompts import init_params, materialize, param_grad, param_stacks
from softsrv.vocab import build_vocab

FD_STEP = 1e-5
REL_TOL = 1e-4
FLOOR = 1e-6  # coordinates below this are skipped (relative error unstable)


def tiny_model(seed=3):
    vocab = build_vocab(["alpha beta gamma delta epsilon"])
    cfg = BackboneConfig(d=8, n_layers=2, n_heads=2, ffn_dim=10, max_seq=24)
    return live_backbone(cfg, vocab, seed)


def prefix_loss(model, prefix, target):
    """Mean NLL of target after a (d, t) prefix: a batch of one stream."""
    return batch_loss_and_grads(model, [prefix.T], [target])[0]


def prefix_grad(model, prefix, target):
    """The gradient of prefix_loss with respect to the prefix, shape (d, t)."""
    _, _, pg, _ = batch_loss_and_grads(model, [prefix.T], [target], want_prefix_grads=True)
    return pg[0].T


def check_close(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    mask = np.maximum(np.abs(analytic), np.abs(numeric)) > FLOOR
    assert mask.any(), "every coordinate fell below the comparison floor"
    denom = np.maximum(np.abs(analytic[mask]), np.abs(numeric[mask]))
    rel = np.abs(analytic[mask] - numeric[mask]) / denom
    assert float(rel.max()) < REL_TOL


def fd_full(f, x):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + FD_STEP
        hi = f()
        flat[i] = keep - FD_STEP
        lo = f()
        flat[i] = keep
        g.ravel()[i] = (hi - lo) / (2 * FD_STEP)
    return g


def fd_sampled(f, x, rng, n=6):
    idx = rng.choice(x.size, size=min(n, x.size), replace=False)
    flat = x.ravel()
    out = []
    for i in idx:
        keep = flat[i]
        flat[i] = keep + FD_STEP
        hi = f()
        flat[i] = keep - FD_STEP
        lo = f()
        flat[i] = keep
        out.append((hi - lo) / (2 * FD_STEP))
    return idx, np.array(out)


def test_prefix_gradient_matches_fd():
    model = tiny_model()
    rng = np.random.default_rng(4)
    prefix = rng.standard_normal((8, 3))
    target = [4, 5, 6, 7]
    analytic = prefix_grad(model, prefix, target)
    numeric = fd_full(lambda: prefix_loss(model, prefix, target), prefix)
    check_close(analytic, numeric)


def test_weight_gradients_match_fd_prefix_streams():
    model = tiny_model(seed=9)
    rng = np.random.default_rng(5)
    prefixes = [rng.standard_normal((3, 8)) for _ in range(2)]
    rows = [[4, 5, 6], [7, 4]]
    _, _, _, wg = batch_loss_and_grads(model, prefixes, rows, want_weight_grads=True)

    def loss():
        val, _, _, _ = batch_loss_and_grads(model, prefixes, rows)
        return val

    for name in sorted(model.weights):
        arr = model.weights[name]
        idx, numeric = fd_sampled(loss, arr, rng)
        analytic = wg[name].ravel()[idx]
        keep = np.maximum(np.abs(analytic), np.abs(numeric)) > FLOOR
        if keep.any():
            check_close(analytic[keep], numeric[keep])


def test_weight_gradients_match_fd_token_streams():
    # no-prefix path: position 0 is unconditioned, embeddings get scatter-adds
    model = tiny_model(seed=11)
    rng = np.random.default_rng(6)
    rows = [[4, 5, 6, 4], [6, 7]]
    _, _, _, wg = batch_loss_and_grads(model, None, rows, want_weight_grads=True)

    def loss():
        val, _, _, _ = batch_loss_and_grads(model, None, rows)
        return val

    for name in ("tok_emb", "pos_emb", "layers.0.wq", "layers.1.w2", "head_w", "head_b"):
        arr = model.weights[name]
        idx, numeric = fd_sampled(loss, arr, rng, n=8)
        analytic = wg[name].ravel()[idx]
        keep = np.maximum(np.abs(analytic), np.abs(numeric)) > FLOOR
        if keep.any():
            check_close(analytic[keep], numeric[keep])


def test_batch_prefix_grads_match_single_runs():
    model = tiny_model(seed=13)
    rng = np.random.default_rng(7)
    prefixes = [rng.standard_normal((3, 8)) for _ in range(3)]
    rows = [[4, 5], [6, 7, 4], [5]]
    _, _, pg, _ = batch_loss_and_grads(model, prefixes, rows, want_prefix_grads=True)
    for i in range(3):
        single = prefix_grad(model, prefixes[i].T, rows[i])
        # batch mean divides by B; single-sequence runs are a batch of one
        np.testing.assert_allclose(pg[i].T * 3, single, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_full_chain_parameter_gradients_match_fd(variant):
    model = tiny_model(seed=15)
    params = init_params(variant, model, t=3, d_e=4, seed=8, k=2, mlp_hidden=5, mlp_layers=3)
    rng = np.random.default_rng(9)
    z = None if variant == "ss_np" else rng.standard_normal(4)
    target = [4, 6, 5]

    def loss():
        return prefix_loss(model, materialize(params, z), target)

    upstream = prefix_grad(model, materialize(params, z), target)
    grads = dict(param_stacks(param_grad(params, z, upstream)))
    for name, arr in param_stacks(params):
        idx, numeric = fd_sampled(loss, arr, rng)
        analytic = grads[name].ravel()[idx]
        keep = np.maximum(np.abs(analytic), np.abs(numeric)) > FLOOR
        if keep.any():
            check_close(analytic[keep], numeric[keep])


ORACLE_RTOL = 1e-12  # norm-wise; packing only reorders float64 sums


def assert_close_normwise(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert np.linalg.norm(actual - expected) <= ORACLE_RTOL * np.linalg.norm(expected)


# max_seq is 24 and prefixes are 3 wide. Each ragged batch has a stream that
# fills max_seq (24 tokens, or 21 under a prefix) and a one-token stream,
# which is unscored without a prefix; the unpadded batches have equal lengths.
BATCHES = {
    "tokens-ragged": (0, [[4, 5, 6], list(range(4, 9)) * 4 + [4, 5, 6, 7], [6], [7, 4]]),
    "tokens-unpadded": (0, [[4, 5, 6], [7, 4, 5], [6, 6, 7]]),
    "prefix-ragged": (3, [[5], [4, 6, 7, 5], [4, 5, 6, 7, 8] * 4 + [4], [7, 5]]),
    "prefix-unpadded": (3, [[4, 5], [6, 7], [8, 4]]),
}


@pytest.mark.parametrize("t, rows", BATCHES.values(), ids=BATCHES.keys())
def test_packed_batch_equals_weighted_single_stream_calls(t, rows):
    # the batch loss is the mean over streams of each stream's mean NLL, so
    # its gradients are the B=1 gradients of each stream divided by B
    model = tiny_model(seed=17)
    rng = np.random.default_rng(11)
    B = len(rows)
    prefixes = rng.standard_normal((B, t, 8)) if t else None
    want_prefix = prefixes is not None
    loss, per_example, pg, wg = batch_loss_and_grads(
        model, prefixes, rows, want_weight_grads=True, want_prefix_grads=want_prefix
    )
    singles = [
        batch_loss_and_grads(
            model,
            None if prefixes is None else prefixes[b:b + 1],
            [rows[b]],
            want_weight_grads=True,
            want_prefix_grads=want_prefix,
        )
        for b in range(B)
    ]
    assert_close_normwise(per_example, [s[1][0] for s in singles])
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=ORACLE_RTOL)
    for name in sorted(model.weights):
        assert_close_normwise(wg[name], sum(s[3][name] for s in singles) / B)
    if want_prefix:
        assert_close_normwise(pg, np.concatenate([s[2] for s in singles]) / B)


@pytest.mark.parametrize(
    "t, rows",
    [*BATCHES.values(), (3, [[6]])],
    ids=[*BATCHES.keys(), "prefix-one-token"],
)
def test_lean_cache_gives_the_same_bits_as_the_full_one(t, rows):
    # without weight gradients the forward keeps a smaller backward cache
    # (no attention output o, no final h, the ReLU as a boolean mask; the
    # norms keep (x, s) either way); what the prefix gradients read from it
    # must be the same bits either way
    model = tiny_model(seed=17)
    rng = np.random.default_rng(11)
    prefixes = rng.standard_normal((len(rows), t, 8)) if t else None
    lean = batch_loss_and_grads(model, prefixes, rows, want_prefix_grads=True)
    full = batch_loss_and_grads(model, prefixes, rows, want_weight_grads=True, want_prefix_grads=True)
    assert lean[3] is None and full[3] is not None
    assert lean[0] == full[0]
    np.testing.assert_array_equal(lean[1], full[1])
    if t:
        np.testing.assert_array_equal(lean[2], full[2])
    else:
        assert lean[2] is None and full[2] is None


def test_float32_model_gives_float32_gradients():
    vocab = build_vocab(["alpha beta gamma delta epsilon"])
    cfg = BackboneConfig(d=8, n_layers=2, n_heads=2, ffn_dim=10, max_seq=24, dtype="float32")
    model = live_backbone(cfg, vocab, 3)
    rng = np.random.default_rng(5)
    prefixes = [rng.standard_normal((3, 8)).astype(np.float32) for _ in range(2)]
    _, _, prefix_grads, weight_grads = batch_loss_and_grads(
        model, prefixes, [[4, 5, 6], [7, 4]], want_weight_grads=True, want_prefix_grads=True)
    assert prefix_grads.dtype == np.float32
    assert {k: g.dtype for k, g in weight_grads.items() if g.dtype != np.float32} == {}


FLOAT32_RTOL = 1e-5  # norm-wise; d64/L4 measured 3e-7 on the logits, 9e-7 on the worst weight key


def assert_float32_close(actual, expected):
    assert actual.dtype == np.float32
    expected = np.asarray(expected, dtype=np.float64)
    err = np.linalg.norm(actual.astype(np.float64) - expected)
    assert err <= FLOAT32_RTOL * np.linalg.norm(expected), err / np.linalg.norm(expected)


@pytest.mark.parametrize("t, rows", [BATCHES["tokens-ragged"], BATCHES["prefix-ragged"]],
                         ids=["tokens-ragged", "prefix-ragged"])
def test_float32_model_matches_float64_on_the_same_weights(t, rows):
    # the oracle for the float32 generator: a float64 model holding the
    # float32 model's weights, exactly, and fed the same float32 prefixes
    vocab = build_vocab(["alpha beta gamma delta epsilon"])
    cfg = BackboneConfig(d=64, n_layers=4, n_heads=4, ffn_dim=256, max_seq=24, dtype="float32")
    fast = live_backbone(cfg, vocab, 23)
    exact = BackboneModel(replace(cfg, dtype="float64"), vocab,
                          {k: w.astype(np.float64) for k, w in fast.weights.items()})
    rng = np.random.default_rng(29)
    prefixes = rng.standard_normal((len(rows), t, 64)).astype(np.float32) if t else None
    prompt = rng.standard_normal((64, 3)).astype(np.float32)

    assert_float32_close(forward_logits(fast, prompt, rows[1][:20]), forward_logits(exact, prompt, rows[1][:20]))
    want_prefix = prefixes is not None
    got, want = (batch_loss_and_grads(m, prefixes, rows, want_weight_grads=True, want_prefix_grads=want_prefix)
                 for m in (fast, exact))
    assert got[0] == pytest.approx(want[0], rel=FLOAT32_RTOL)
    np.testing.assert_allclose(got[1], want[1], rtol=FLOAT32_RTOL)
    for name in sorted(exact.weights):
        assert_float32_close(got[3][name], want[3][name])
    if want_prefix:
        assert_float32_close(got[2], want[2])
