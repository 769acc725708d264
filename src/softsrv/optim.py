"""Adam with bias correction, global-norm clipping, and the loss trace type.

All training loops in the package (backbone pretraining, soft-prompt
training, student fine-tuning) share these pieces. adam_step is functional
in spirit but updates its moment buffers in place; callers apply the
returned deltas themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass
class AdamState:
    """First/second moment buffers keyed like the gradient dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(arrays: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(a) for k, a in arrays.items()},
        v={k: np.zeros_like(a) for k, a in arrays.items()},
    )


def adam_step(
    state: AdamState,
    grads: dict[str, np.ndarray],
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> dict[str, np.ndarray]:
    """Advance one step and return the parameter deltas (to be added).

    Each delta is -lr * m_hat / (sqrt(v_hat) + eps) with the bias-corrected
    moments, built in its own buffer by in-place ops in the order that
    expression evaluates, plus one scratch buffer per key for the scaled
    first moment.
    """
    if set(grads) != set(state.m):
        raise ValidationError("gradient keys do not match optimizer state")
    b1, b2 = betas
    state.step += 1
    t = state.step
    deltas = {}
    for key, g in grads.items():
        m = state.m[key]
        v = state.v[key]
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        np.divide(m, 1.0 - b1**t, out=scratch)
        scratch *= -lr
        delta = np.divide(v, 1.0 - b2**t)
        np.sqrt(delta, out=delta)
        delta += eps
        np.divide(scratch, delta, out=delta)
        deltas[key] = delta
    return deltas


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64, copy=False) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class LossTrace:
    """Per-step mean losses plus wall-clock metadata for a training run."""

    losses: list[float] = field(default_factory=list)
    started_unix: float = field(default_factory=time.time)
    elapsed_s: float = 0.0

    def record(self, loss: float) -> None:
        self.losses.append(float(loss))

    def finish(self) -> None:
        self.elapsed_s = time.time() - self.started_unix
