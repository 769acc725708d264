"""Prompt parameterizations: shapes, gating, contextuality."""

from dataclasses import replace

import numpy as np
import pytest

from softsrv.backbone import BackboneConfig, init_backbone
from softsrv.errors import ValidationError
from softsrv.prompts import (
    MixtureParams,
    MlpConcatParams,
    NonContextualParams,
    init_params,
    materialize,
    param_grad,
    param_stacks,
    zeros_like_params,
)
from softsrv.vocab import build_vocab


@pytest.fixture(scope="module")
def model():
    vocab = build_vocab(["one two three four five six seven eight"])
    cfg = BackboneConfig(d=8, n_layers=1, n_heads=2, ffn_dim=8, max_seq=32)
    return init_backbone(cfg, vocab, 4)


def test_variant_dispatch(model):
    assert isinstance(init_params("ss_np", model, 3, 4, 0), NonContextualParams)
    assert isinstance(init_params("ss_mp", model, 3, 4, 0), MixtureParams)
    assert isinstance(init_params("ss_mc", model, 3, 4, 0), MlpConcatParams)
    with pytest.raises(ValidationError):
        init_params("nope", model, 3, 4, 0)


def test_initial_columns_come_from_the_embedding_table(model):
    params = init_params("ss_np", model, t=4, d_e=4, seed=9)
    table = model.weights["tok_emb"]
    for j in range(4):
        col = params.prompt[:, j]
        assert any(np.allclose(col, row) for row in table)


def test_non_contextual_ignores_context(model):
    params = init_params("ss_np", model, t=3, d_e=4, seed=1)
    a = materialize(params)
    b = materialize(params, np.ones(4))
    np.testing.assert_array_equal(a, b)
    assert a is not params.prompt  # caller cannot mutate the stored prompt


def test_contextual_variants_require_context(model):
    for variant in ("ss_mp", "ss_mc"):
        params = init_params(variant, model, t=3, d_e=4, seed=1)
        with pytest.raises(ValidationError):
            materialize(params)


def gate_weights(params, z):
    """The mixture's gate output for context z, read through materialize.

    With basis i the i-th unit vector of the flattened (d, t) prompt, the
    prompt's first k entries are the k softmax weights, to the bit.
    """
    unit = np.eye(params.d * params.t)[:params.k].reshape(params.k, params.d, params.t)
    return materialize(replace(params, bases=unit), z).ravel()[:params.k]


def test_mixture_weights_live_on_the_simplex(model):
    params = init_params("ss_mp", model, t=3, d_e=4, seed=2, k=5)
    rng = np.random.default_rng(0)
    params.gate_w[...] = rng.standard_normal(params.gate_w.shape)  # a gate that is not uniform
    for _ in range(20):
        w = gate_weights(params, rng.standard_normal(4) * 10)
        assert w.shape == (5,)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_mixture_prompt_is_convex_combination(model):
    params = init_params("ss_mp", model, t=3, d_e=4, seed=2, k=3)
    z = np.array([0.3, -1.2, 0.7, 0.0])
    w = gate_weights(params, z)
    want = sum(wi * basis for wi, basis in zip(w, params.bases))
    np.testing.assert_allclose(materialize(params, z), want, rtol=1e-12)


def test_mixture_gate_starts_uniform(model):
    # gate weights start at zero, so every context mixes the bases equally
    params = init_params("ss_mp", model, t=3, d_e=4, seed=3, k=4)
    w = gate_weights(params, np.array([5.0, -2.0, 0.1, 9.0]))
    np.testing.assert_allclose(w, np.full(4, 0.25), rtol=1e-12)


def test_init_params_rejects_one_mlp_layer_and_no_mixture_bases(model):
    # zero_params checks the layout that init_params asks for
    with pytest.raises(ValidationError, match="mlp_layers >= 2"):
        init_params("ss_mc", model, t=2, d_e=4, seed=4, mlp_layers=1)
    with pytest.raises(ValidationError, match="k >= 1"):
        init_params("ss_mp", model, t=2, d_e=4, seed=4, k=0)


def test_mlp_columns_are_context_sensitive_after_perturbation(model):
    params = init_params("ss_mc", model, t=2, d_e=4, seed=4, mlp_hidden=6, mlp_layers=3)
    # at init the final linear layer is zero, so output equals its bias
    a = materialize(params, np.zeros(4))
    b = materialize(params, np.ones(4))
    np.testing.assert_array_equal(a, b)
    # give column 0's final layer weight, and contexts separate
    params.weights[-1][0] = 1.0
    assert not np.array_equal(materialize(params, np.zeros(4)), materialize(params, np.ones(4)))


def test_mlp_layer_sizing(model):
    params = init_params("ss_mc", model, t=2, d_e=4, seed=5, mlp_hidden=6, mlp_layers=3)
    assert [len(w) for w in params.weights] == [2, 2, 2]
    for j in range(2):
        shapes = [w[j].shape for w in params.weights]
        assert shapes == [(6, 4), (6, 6), (8, 6)]


def test_param_stacks_and_zeros_cover_every_parameter(model):
    # the names are the checkpoint's tensor names, so they are pinned here
    expected = {"ss_np": ["prompt"], "ss_mp": ["bases", "gate_w", "gate_b"],
                "ss_mc": ["w0", "b0", "w1", "b1", "w2", "b2"]}
    for variant, want in expected.items():
        params = init_params(variant, model, t=2, d_e=4, seed=6, k=3, mlp_hidden=5)
        assert [n for n, _ in param_stacks(params)] == want
        zeros = zeros_like_params(params)
        for (na, a), (nz, z) in zip(param_stacks(params), param_stacks(zeros)):
            assert na == nz
            assert a.shape == z.shape
            assert not np.any(z)


def test_context_width_validated(model):
    params = init_params("ss_mp", model, t=2, d_e=4, seed=7)
    with pytest.raises(ValidationError):
        materialize(params, np.ones(5))


@pytest.mark.parametrize("variant", ["ss_np", "ss_mp", "ss_mc"])
def test_batched_calls_match_stacked_and_summed_per_example_calls(model, variant):
    # oracle for the batched fast path: one call over B contexts must equal
    # B single-context calls, stacked (prompts) or summed (gradients)
    rng = np.random.default_rng(12)
    params = init_params(variant, model, t=3, d_e=4, seed=8, k=3, mlp_hidden=6)
    for _, arr in param_stacks(params):
        arr[...] = rng.standard_normal(arr.shape)
    z = rng.standard_normal((5, 4))
    upstream = rng.standard_normal((5, model.d, 3))

    def close(got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    close(materialize(params, z), np.stack([materialize(params, zi) for zi in z]))
    batched = param_stacks(param_grad(params, z, upstream))
    singles = [param_stacks(param_grad(params, zi, ui)) for zi, ui in zip(z, upstream)]
    for i, (name, got) in enumerate(batched):
        assert [g[i][0] for g in singles] == [name] * len(z)
        close(got, sum(g[i][1] for g in singles))


def _column_loop_materialize(params, z):
    """The per-column reference: column j's MLP is slice j of every stack."""
    out = np.empty((len(z), params.d, params.t))
    for j in range(params.t):
        h = z.T
        for li, (w, b) in enumerate(zip(params.weights, params.biases)):
            pre = w[j] @ h + b[j][:, None]
            h = np.maximum(pre, 0.0) if li < len(params.weights) - 1 else pre
        out[:, :, j] = h.T
    return out


def _column_loop_param_grad(params, z, upstream):
    grads = zeros_like_params(params)
    n = len(params.weights)
    for j in range(params.t):
        h, acts = z.T, []
        for li in range(n):
            pre = params.weights[li][j] @ h + params.biases[li][j][:, None]
            acts.append((h, pre))
            h = np.maximum(pre, 0.0) if li < n - 1 else pre
        delta = upstream[:, :, j].T  # (d, B)
        for li in reversed(range(n)):
            h, pre = acts[li]
            if li < n - 1:
                delta = delta * (pre > 0)
            np.matmul(delta, h.T, out=grads.weights[li][j])
            np.sum(delta, axis=1, out=grads.biases[li][j])
            if li > 0:
                delta = params.weights[li][j].T @ delta
    return grads


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("layers", [2, 3])
def test_stacked_mlp_layers_equal_the_column_loop_exactly(model, layers, batch):
    # one stacked matmul per layer runs each column's GEMM as the loop did,
    # so prompts and gradients must match bit for bit, with the hidden
    # activations kept by materialize and without them
    rng = np.random.default_rng(layers * 10 + batch)
    params = init_params("ss_mc", model, t=5, d_e=4, seed=14, mlp_hidden=6, mlp_layers=layers)
    for _, arr in param_stacks(params):
        arr[...] = rng.standard_normal(arr.shape)
    z = rng.standard_normal((batch, 4))
    acts = []
    np.testing.assert_array_equal(materialize(params, z, acts), _column_loop_materialize(params, z))
    assert len(acts) == layers - 1
    # a contiguous upstream, and the transposed one training passes
    for upstream in (rng.standard_normal((batch, model.d, 5)),
                     rng.standard_normal((batch, 5, model.d)).transpose(0, 2, 1) / batch):
        want = param_stacks(_column_loop_param_grad(params, z, upstream))
        for kept in (acts, None):
            got = param_stacks(param_grad(params, z, upstream, kept))
            assert [n for n, _ in got] == [n for n, _ in want]
            for (_, g), (_, w) in zip(got, want):
                np.testing.assert_array_equal(g, w)
