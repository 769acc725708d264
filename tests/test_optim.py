"""Optimizer math against hand-derived expected values."""

import tracemalloc

import numpy as np
import pytest

from softsrv.errors import ValidationError
from softsrv.optim import BLOCK, adam_step, clip_global_norm, init_adam


def test_first_adam_step_matches_hand_formula():
    # with zero moments, one step moves every coordinate by
    # -lr * g/(1-b1) / (sqrt(g^2/(1-b2)) + eps), independent of |g|'s scale
    params = {"w": np.zeros(3)}
    before = params["w"].copy()
    state = init_adam(params)
    g = np.array([0.5, -2.0, 1e-3])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert adam_step(state, params, {"w": g}, lr, (b1, b2), eps) is None
    m_hat = g * (1 - b1) / (1 - b1)
    v_hat = g * g * (1 - b2) / (1 - b2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(params["w"], before + expected, rtol=1e-12)
    assert state.step == 1


def test_two_steps_accumulate_moments():
    params = {"w": np.zeros(1)}
    state = init_adam(params)
    g1, g2 = np.array([1.0]), np.array([-0.5])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    adam_step(state, params, {"w": g1}, lr, (b1, b2), eps)
    before = params["w"].copy()
    adam_step(state, params, {"w": g2}, lr, (b1, b2), eps)
    m = (1 - b1) * (b1 * g1 + g2)
    v = (1 - b2) * (b2 * g1**2 + g2**2)
    m_hat = m / (1 - b1**2)
    v_hat = v / (1 - b2**2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(params["w"], before + expected, rtol=1e-12)


def test_adam_rejects_mismatched_keys():
    state = init_adam({"w": np.zeros(2)})
    with pytest.raises(ValidationError):
        adam_step(state, {"b": np.zeros(2)}, {"b": np.zeros(2)}, 0.1, (0.9, 0.999), 1e-8)


def test_clip_rescales_exactly_to_bound():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    np.testing.assert_allclose(grads["a"], [0.6])
    np.testing.assert_allclose(grads["b"], [0.8])


def test_clip_leaves_small_gradients_alone():
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])


def _reference_step(m, v, g, t, lr, b1, b2, eps):
    """Advance m and v in place and return the update, as the plain expression.

    -lr * m_hat is taken in the gradient's dtype and the update is stored in
    the moment's. With one dtype throughout this is the plain expression;
    with a float32 moment and a float64 gradient, as a float32 model's wq
    gets, it is the rounding adam_step has always had.
    """
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = (m / (1.0 - b1**t)).astype(g.dtype)
    v_hat = v / (1.0 - b2**t)
    return (-lr * m_hat / (np.sqrt(v_hat) + eps)).astype(v.dtype)


def _check_steps_exactly(shapes, param_dtype, grad_dtypes):
    rng = np.random.default_rng(0)
    lr, b1, b2, eps = 3e-3, 0.9, 0.98, 1e-8
    state = init_adam({k: np.zeros(s, param_dtype) for k, s in shapes.items()})
    m = {k: np.zeros(s, param_dtype) for k, s in shapes.items()}
    v = {k: np.zeros(s, param_dtype) for k, s in shapes.items()}

    def draw():
        return {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2)).astype(grad_dtypes[k])
                for k, s in shapes.items()}

    for t in range(1, 6):
        # zero parameters, so after the step they hold the update itself
        params = {k: np.zeros(s, param_dtype) for k, s in shapes.items()}
        grads = draw()
        adam_step(state, params, grads, lr, (b1, b2), eps)
        for k, g in grads.items():
            update = _reference_step(m[k], v[k], g, t, lr, b1, b2, eps)
            assert params[k].dtype == param_dtype
            np.testing.assert_array_equal(params[k], update)
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])
    # one more step on non-zero parameters: the update is added to them
    params = {k: rng.standard_normal(s).astype(param_dtype) for k, s in shapes.items()}
    before = {k: p.copy() for k, p in params.items()}
    grads = draw()
    adam_step(state, params, grads, lr, (b1, b2), eps)
    for k, g in grads.items():
        update = _reference_step(m[k], v[k], g, 6, lr, b1, b2, eps)
        np.testing.assert_array_equal(params[k], before[k] + update)


def test_adam_steps_equal_the_plain_expression_exactly():
    # the in-place update must round exactly as the plain expression; "big"
    # spans two whole BLOCK slices and a partial third
    shapes = {"w": (5, 3), "b": (3,), "emb": (7, 2, 2), "big": (3, 2 * BLOCK // 3 + 5)}
    _check_steps_exactly(shapes, np.float64, dict.fromkeys(shapes, np.float64))


def test_float32_adam_steps_round_as_before_with_a_float64_gradient():
    # a float32 model's wq, wk, attn_norm_g and prefix gradients come back
    # float64 (backbone._backward); the moments and parameters stay float32
    shapes = {"w": (5, 3), "wq": (3, 3), "emb": (7, 2, 2), "big": (3, 2 * BLOCK // 3 + 5)}
    grad_dtypes = {"w": np.float32, "wq": np.float64, "emb": np.float32, "big": np.float64}
    _check_steps_exactly(shapes, np.float32, grad_dtypes)


def test_adam_steps_after_the_first_allocate_nothing_parameter_sized():
    # the first step allocates the scratch rows; later steps reuse them
    rng = np.random.default_rng(1)
    shapes = {"w": (500, 400), "b": (400,)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
    state = init_adam(params)
    adam_step(state, params, grads, 1e-3)
    tracemalloc.start()
    try:
        adam_step(state, params, grads, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * params["w"].nbytes, peak
