"""Adam with bias correction, global-norm clipping, and the loss trace type.

All training loops in the package (backbone pretraining, soft-prompt
training, student fine-tuning) share these pieces. adam_step updates the
parameters, its moment buffers and its scratch in place, so no step after
the first allocates anything parameter-sized. A key larger than BLOCK
elements is updated one flat BLOCK-element slice at a time, so the slices
of the parameter, gradient, moments and scratch that one pass reads stay in
cache; the update is elementwise, so the slicing does not change its bits.
LossTrace holds the per-step losses only, no wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BLOCK = 32768  # elements of one key that adam_step updates per pass


@dataclass
class AdamState:
    """First/second moment buffers keyed like the gradient dict.

    scratch holds the rows an update is built in, keyed by row and dtype.
    The first step that needs a row allocates it, sized to the largest key
    or to BLOCK if that is smaller, and later steps reuse it.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    scratch: dict[tuple[int, np.dtype], np.ndarray] = field(default_factory=dict)


def init_adam(arrays: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros(a.shape, a.dtype) for k, a in arrays.items()},
        v={k: np.zeros(a.shape, a.dtype) for k, a in arrays.items()},
    )


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """Advance one step, adding each key's update to params[key] in place.

    The update is -lr * m_hat / (sqrt(v_hat) + eps) with the bias-corrected
    moments, built by in-place ops in the order that expression evaluates
    in two scratch rows: the scaled moments in one, of the gradient's
    dtype, and the denominator and then the update in the other, of the
    moment's dtype. These are the dtypes the plain expression gives, so
    the update rounds exactly as it does. A parameter larger than BLOCK
    must be C-contiguous, as the moments are, so that its flat slices are
    views.
    """
    if set(grads) != set(state.m):
        raise ValidationError("gradient keys do not match optimizer state")
    b1, b2 = betas
    state.step += 1
    t = state.step
    for key, grad in grads.items():
        for p, m, v, g in _blocks(key, params[key], state.m[key], state.v[key], grad):
            scratch = _scratch_row(state, 0, g.dtype, g)
            delta = _scratch_row(state, 1, v.dtype, g)
            np.multiply(g, 1.0 - b1, out=scratch)
            m *= b1
            m += scratch
            np.multiply(g, 1.0 - b2, out=scratch)
            scratch *= g
            v *= b2
            v += scratch
            np.divide(m, 1.0 - b1**t, out=scratch)
            scratch *= -lr
            np.divide(v, 1.0 - b2**t, out=delta)
            np.sqrt(delta, out=delta)
            delta += eps
            np.divide(scratch, delta, out=delta)
            p += delta


def _blocks(key: str, param, m, v, grad) -> list:
    """The arrays themselves if they fit in one block, else their flat BLOCK slices."""
    if grad.size <= BLOCK:
        return [(param, m, v, grad)]
    if not param.flags.c_contiguous or param.shape != grad.shape:
        raise ValidationError(f"parameter {key!r} must be C-contiguous and shaped like its gradient")
    flat = [a.reshape(-1) for a in (param, m, v, grad)]
    return [[a[lo:lo + BLOCK] for a in flat] for lo in range(0, grad.size, BLOCK)]


def _scratch_row(state: AdamState, row: int, dtype: np.dtype, like: np.ndarray) -> np.ndarray:
    """A view of one scratch row of the given dtype, shaped like `like`."""
    buf = state.scratch.get((row, dtype))
    if buf is None:
        size = min(max(m.size for m in state.m.values()), BLOCK)
        buf = state.scratch[row, dtype] = np.empty(size, dtype=dtype)
    return buf[:like.size].reshape(like.shape)


def check_schedule(steps: int, lr: float, batch_size: int) -> None:
    """Raise ValidationError unless steps >= 0, batch_size >= 1 and lr > 0."""
    if steps < 0 or batch_size < 1 or not lr > 0:
        raise ValidationError(f"steps >= 0, batch_size >= 1 and lr > 0 required, "
                              f"got steps={steps}, batch_size={batch_size}, lr={lr}")


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))  # float64 sum, no float64 copy of g
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class LossTrace:
    """Per-step mean losses of a training run."""

    losses: list[float] = field(default_factory=list)

    def record(self, loss: float) -> None:
        self.losses.append(float(loss))
