"""Optimizer math against hand-derived expected values."""

import tracemalloc

import numpy as np
import pytest

from softsrv.errors import ValidationError
from softsrv.optim import ADAM_BETAS, ADAM_EPS, BLOCK, adam_step, batch_schedule, clip_global_norm, init_adam


def test_first_adam_step_matches_hand_formula():
    # with zero moments, one step moves every coordinate by
    # -lr * g/(1-b1) / (sqrt(g^2/(1-b2)) + eps), independent of |g|'s scale
    params = {"w": np.zeros(3)}
    before = params["w"].copy()
    state = init_adam(params)
    g = np.array([0.5, -2.0, 1e-3])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert adam_step(state, params, {"w": g}, lr) is None
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
    adam_step(state, params, {"w": g1}, lr)
    before = params["w"].copy()
    adam_step(state, params, {"w": g2}, lr)
    m = (1 - b1) * (b1 * g1 + g2)
    v = (1 - b2) * (b2 * g1**2 + g2**2)
    m_hat = m / (1 - b1**2)
    v_hat = v / (1 - b2**2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(params["w"], before + expected, rtol=1e-12)


def test_adam_rejects_mismatched_keys():
    state = init_adam({"w": np.zeros(2)})
    with pytest.raises(ValidationError):
        adam_step(state, {"b": np.zeros(2)}, {"b": np.zeros(2)}, 0.1)


def test_clip_rescales_exactly_to_bound():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_global_norm(grads)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    np.testing.assert_allclose(grads["a"], [0.6])
    np.testing.assert_allclose(grads["b"], [0.8])


def test_clip_leaves_small_gradients_alone():
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_global_norm(grads)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])


def test_clip_of_a_stack_allocates_nothing_stack_sized():
    # a (t, out, in) prompt stack is summed one BLOCK slice at a time; the
    # float64 squares of the whole stack were a stack-sized temporary
    rng = np.random.default_rng(2)
    grads = {"w1": rng.standard_normal((16, 128, 128)), "b1": rng.standard_normal((16, 128))}
    want = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    tracemalloc.start()
    try:
        norm = clip_global_norm(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == pytest.approx(want, rel=1e-14)
    assert peak < 0.2 * grads["w1"].nbytes, peak

def _reference_step(m, v, g, t, lr, b1, b2, eps):
    """Advance m and v in place and return the update, as the plain expression."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return -lr * m_hat / (np.sqrt(v_hat) + eps)


def _check_steps_exactly(shapes, dtype):
    rng = np.random.default_rng(0)
    lr, (b1, b2), eps = 3e-3, ADAM_BETAS, ADAM_EPS
    state = init_adam({k: np.zeros(s, dtype) for k, s in shapes.items()})
    m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    v = {k: np.zeros(s, dtype) for k, s in shapes.items()}

    def draw():
        return {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                for k, s in shapes.items()}

    for t in range(1, 6):
        # zero parameters, so after the step they hold the update itself
        params = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        grads = draw()
        adam_step(state, params, grads, lr)
        for k, g in grads.items():
            update = _reference_step(m[k], v[k], g, t, lr, b1, b2, eps)
            assert params[k].dtype == update.dtype == dtype
            np.testing.assert_array_equal(params[k], update)
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])
    # one more step on non-zero parameters: the update is added to them
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    before = {k: p.copy() for k, p in params.items()}
    grads = draw()
    adam_step(state, params, grads, lr)
    for k, g in grads.items():
        update = _reference_step(m[k], v[k], g, 6, lr, b1, b2, eps)
        np.testing.assert_array_equal(params[k], before[k] + update)


def test_adam_steps_equal_the_plain_expression_exactly():
    # the in-place update must round exactly as the plain expression, in
    # float64 (the fixtures' models and their prompts) and float32 (the desk
    # generator and its prompt); "big" spans two whole BLOCK slices and a
    # partial third
    shapes = {"w": (5, 3), "b": (3,), "emb": (7, 2, 2), "big": (3, 2 * BLOCK // 3 + 5)}
    _check_steps_exactly(shapes, np.float64)
    _check_steps_exactly(shapes, np.float32)


def test_adam_rejects_a_gradient_of_another_dtype_than_its_moments():
    # the scratch rows are in the moments' dtype; a float64 gradient of a
    # float32 model would be rounded to float32 before its update
    params = {"w": np.ones(3, np.float32), "wq": np.ones((2, 2), np.float32)}
    state = init_adam(params)
    grads = {"w": np.ones(3, np.float32), "wq": np.ones((2, 2), np.float64)}
    with pytest.raises(ValidationError, match="'wq' is float64"):
        adam_step(state, params, grads, 0.1)
    # checked before anything moves
    assert state.step == 0
    np.testing.assert_array_equal(params["w"], 1.0)
    np.testing.assert_array_equal(state.m["w"], 0.0)


def test_init_adam_rejects_arrays_of_mixed_dtypes():
    with pytest.raises(ValidationError, match="one dtype"):
        init_adam({"w": np.zeros(2), "b": np.zeros(2, np.float32)})


def test_adam_steps_after_the_first_allocate_nothing_parameter_sized():
    # init_adam allocates the scratch rows, so no step allocates anything
    # parameter-sized, the first one included
    rng = np.random.default_rng(1)
    shapes = {"w": (500, 400), "b": (400,)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
    state = init_adam(params)
    tracemalloc.start()
    try:
        adam_step(state, params, grads, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * params["w"].nbytes, peak


@pytest.mark.parametrize("n, steps, batch_size", [(10, 7, 4), (3, 5, 8), (6, 0, 2)])
def test_batch_schedule_takes_seeded_permutations_in_turn(n, steps, batch_size):
    # the running order is one seeded permutation of range(n) after another;
    # a step takes its next batch_size indices, topping the order up first
    # whenever fewer remain, so a step takes all n when batch_size > n
    rng = np.random.default_rng(9)
    order, expected = [], []
    for _ in range(steps):
        if len(order) < batch_size:
            order += list(rng.permutation(n))
        expected.append(order[:batch_size])
        order = order[batch_size:]
    assert batch_schedule(n, steps, batch_size, 9) == expected
    assert all(type(i) is int for batch in batch_schedule(n, steps, batch_size, 9) for i in batch)
