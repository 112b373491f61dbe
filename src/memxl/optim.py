"""Adam with bias correction, cosine learning-rate annealing, and global
gradient-norm clipping, as whole-array passes over a flat parameter arena."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

CHUNK = 1 << 16  # elements per pass of Adam's scratch buffers


def cosine_lr(step: int, base_lr: float, max_iters: int) -> float:
    """Half-cosine decay from ``base_lr`` to 0; flat 0 past ``max_iters``."""
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    frac = min(step, max_iters) / max_iters
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient buffer ``grad`` in place so its L2 norm is at
    most ``max_norm``. Returns the pre-clip norm.

    The squares are summed by numpy's pairwise reduction over the buffer, an
    order its length alone fixes (BLAS's dot would split by thread count)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(float(np.add.reduce(np.square(grad), axis=None)))
    if total > max_norm:
        grad *= max_norm / total
    return total


def arena_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of ``flat`` at ``shapes``, back to back: the arena's layout, given its parameters' shapes."""
    out, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        out.append(flat[start:end].reshape(shape))
    return out


class AdamState:
    """Adam's step count and moments over a flat parameter arena.

    Building one copies every parameter, in order, into the contiguous
    ``params`` and rebinds each parameter's ``data`` to its C-contiguous view
    there. The moments ``m`` and ``v`` and the gradient buffer ``grad`` are
    flat arrays of the same layout; ``table`` lists ``(name, tensor, view)``
    and ``grads`` each parameter's view of ``grad``. Each such view becomes
    its parameter's ``grad_buffer``, so ``backward`` accumulates straight into
    ``grad`` and binds the view to ``p.grad``: a caller that keeps a grad past
    the next step or clip must copy it.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]]):
        dtypes = {p.dtype for _, p in named_params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        self.shapes = [p.shape for _, p in named_params]
        size, dtype = sum(p.size for _, p in named_params), dtypes.pop() if dtypes else np.float64
        self.params, self.m, self.v, self.grad = (np.zeros(size, dtype) for _ in range(4))
        self.t = 0
        self.table = []
        for (name, p), view in zip(named_params, arena_views(self.params, self.shapes)):
            view[...] = p.data
            p.data = view
            self.table.append((name, p, view))
        self.grads = arena_views(self.grad, self.shapes)
        for (_, p, _), g in zip(self.table, self.grads):
            p.grad_buffer = g
        self.scratch = np.empty((2, min(CHUNK, self.params.size)), self.params.dtype)

    def gather_grads(self) -> np.ndarray:
        """Fill ``grad`` and return it. ``backward`` has already written each
        parameter's grad into its view, so this only zero-fills a parameter
        with no grad (such as a skipped layer's) and copies one bound to some
        other array. A parameter whose ``data`` is no longer its arena view
        would train a detached copy, so it is refused."""
        for (name, p, view), g in zip(self.table, self.grads):
            if p.data is not view:
                raise RuntimeError(f"parameter {name!r} was rebound away from the optimizer's arena")
            if p.grad is not g:
                g[...] = 0 if p.grad is None else p.grad
        return self.grad


def adam_update(state: AdamState, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam step of the arena from the gradient buffer, in
    place, chunk by chunk through the scratch buffers. The arithmetic, in
    this order, is m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for lo in range(0, state.params.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        p, g, m, v = state.params[part], state.grad[part], state.m[part], state.v[part]
        a, b = state.scratch[:, : p.size]
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - beta2, out=a)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += eps
        np.multiply(np.divide(m, bc1, out=b), lr, out=b)
        p -= np.divide(b, a, out=b)
