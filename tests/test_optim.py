"""Optimizer math against hand-derived expected values."""

import numpy as np
import pytest

from softsrv.errors import ValidationError
from softsrv.optim import adam_step, clip_global_norm, init_adam


def test_first_adam_step_matches_hand_formula():
    # with zero moments, one step moves every coordinate by
    # -lr * g/(1-b1) / (sqrt(g^2/(1-b2)) + eps), independent of |g|'s scale
    params = {"w": np.zeros(3)}
    state = init_adam(params)
    g = np.array([0.5, -2.0, 1e-3])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    deltas = adam_step(state, {"w": g}, lr, (b1, b2), eps)
    m_hat = g * (1 - b1) / (1 - b1)
    v_hat = g * g * (1 - b2) / (1 - b2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(deltas["w"], expected, rtol=1e-12)
    assert state.step == 1


def test_two_steps_accumulate_moments():
    params = {"w": np.zeros(1)}
    state = init_adam(params)
    g1, g2 = np.array([1.0]), np.array([-0.5])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    adam_step(state, {"w": g1}, lr, (b1, b2), eps)
    deltas = adam_step(state, {"w": g2}, lr, (b1, b2), eps)
    m = (1 - b1) * (b1 * g1 + g2)
    v = (1 - b2) * (b2 * g1**2 + g2**2)
    m_hat = m / (1 - b1**2)
    v_hat = v / (1 - b2**2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(deltas["w"], expected, rtol=1e-12)


def test_adam_rejects_mismatched_keys():
    state = init_adam({"w": np.zeros(2)})
    with pytest.raises(ValidationError):
        adam_step(state, {"b": np.zeros(2)}, 0.1, (0.9, 0.999), 1e-8)


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


def test_adam_steps_equal_the_plain_expression_exactly():
    # the in-place update must round exactly as the plain expression below
    rng = np.random.default_rng(0)
    shapes = {"w": (5, 3), "b": (3,), "emb": (7, 2, 2)}
    lr, b1, b2, eps = 3e-3, 0.9, 0.98, 1e-8
    state = init_adam({k: np.zeros(s) for k, s in shapes.items()})
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 6):
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2) for k, s in shapes.items()}
        deltas = adam_step(state, grads, lr, (b1, b2), eps)
        assert set(deltas) == set(shapes)
        for k, g in grads.items():
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            np.testing.assert_array_equal(deltas[k], -lr * m_hat / (np.sqrt(v_hat) + eps))
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])
