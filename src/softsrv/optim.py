"""The one training recipe, declared nowhere else: Adam, clipping, batches.

Every training loop (backbone pretraining, soft-prompt training, student
fine-tuning) runs Adam at ADAM_BETAS and ADAM_EPS, clips to a global
norm of CLIP_NORM and draws batch_schedule's batches; its steps, lr,
seed and batch size are its only settings. Only the soft prompt's lr
and batch size are configured: train_full_weights, which trains the
helper models (backbone, embedder, student), draws HELPER_BATCH-sized
batches, and every caller runs it at HELPER_LR.
adam_step updates the parameters and moments in place, in two scratch
rows that init_adam allocates in the moments' dtype, so no step
allocates anything parameter-sized. A key larger than BLOCK elements is
updated one flat BLOCK-element slice at a time, so one pass stays in
cache; the update is elementwise, so the slicing does not change its
bits. clip_global_norm sums the squares of such a key one slice at a
time too. LossTrace holds each step's loss and pre-clip gradient norm,
no wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BLOCK = 32768  # elements of one key that adam_step updates per pass
ADAM_BETAS = (0.9, 0.999)  # every training loop's Adam moment decay rates
ADAM_EPS = 1e-8  # and the constant in its update's denominator
CLIP_NORM = 1.0  # the global gradient norm every training loop clips to
HELPER_LR = 1e-3  # the frozen backbone's, the embedder's and the student's Adam step size
HELPER_BATCH = 8  # and their batch size


@dataclass
class AdamState:
    """First/second moment buffers keyed like the gradient dict.

    scratch holds the two rows an update is built in, in the moments'
    dtype, each sized to the largest key or to BLOCK if that is smaller.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: np.ndarray
    step: int = 0


def init_adam(arrays: dict[str, np.ndarray]) -> AdamState:
    """Zero moments shaped like arrays, which must share exactly one dtype."""
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) != 1:
        raise ValidationError(f"optimizer arrays must share exactly one dtype, got {sorted(map(str, dtypes))}")
    size = min(max(a.size for a in arrays.values()), BLOCK)
    return AdamState(
        m={k: np.zeros(a.shape, a.dtype) for k, a in arrays.items()},
        v={k: np.zeros(a.shape, a.dtype) for k, a in arrays.items()},
        scratch=np.empty((2, size), dtypes.pop()),
    )


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
    """Advance one step, adding each key's update to params[key] in place.

    The update is -lr * m_hat / (sqrt(v_hat) + ADAM_EPS) with the moments
    bias-corrected at ADAM_BETAS, built by in-place ops in the order that
    expression evaluates in the two scratch rows: the scaled moments in
    one, and the denominator and then the update in the other. Every
    gradient must have its moments' dtype, so the update rounds exactly as
    the plain expression does. A parameter larger than BLOCK must be
    C-contiguous, as the moments are, so that its flat slices are views.
    """
    if set(grads) != set(state.m):
        raise ValidationError("gradient keys do not match optimizer state")
    for key, grad in grads.items():
        if grad.dtype != state.m[key].dtype:
            raise ValidationError(f"gradient {key!r} is {grad.dtype}, its moments {state.m[key].dtype}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for key, grad in grads.items():
        for p, m, v, g in _blocks(key, params[key], state.m[key], state.v[key], grad):
            scratch, delta = (row[:g.size].reshape(g.shape) for row in state.scratch)
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
            delta += ADAM_EPS
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


def check_schedule(steps: int, lr: float, batch_size: int) -> None:
    """Raise ValidationError unless steps >= 0, batch_size >= 1 and lr is finite and positive."""
    if steps < 0 or batch_size < 1 or not 0 < lr < float("inf"):
        raise ValidationError(f"steps >= 0, batch_size >= 1 and lr > 0 and finite required, "
                              f"got steps={steps}, batch_size={batch_size}, lr={lr}")


def batch_schedule(n: int, steps: int, batch_size: int, seed) -> list[list[int]]:
    """Each step's indices: the next batch_size of seeded permutations of range(n), one after another.

    A permutation is appended whenever fewer than batch_size indices remain.
    """
    rng = np.random.default_rng(seed)
    order: list[int] = []
    batches = []
    for _ in range(steps):
        if len(order) < batch_size:
            order += [int(i) for i in rng.permutation(n)]
        batches.append(order[:batch_size])
        order = order[batch_size:]
    return batches


def clip_global_norm(grads: dict[str, np.ndarray]) -> float:
    """Scale all gradients in place so their joint L2 norm is <= CLIP_NORM; return the norm before."""
    total = 0.0
    for g in grads.values():  # float64 squares of at most BLOCK elements at once
        parts = [g] if g.size <= BLOCK else np.split(g.reshape(-1), range(BLOCK, g.size, BLOCK))
        total += sum(float(np.sum(np.square(part, dtype=np.float64))) for part in parts)
    norm = float(np.sqrt(total))
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class LossTrace:
    """Per-step mean losses of a training run and their pre-clip gradient norms."""

    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)

    def record(self, loss: float, grad_norm: float) -> None:
        self.losses.append(float(loss))
        self.grad_norms.append(float(grad_norm))
