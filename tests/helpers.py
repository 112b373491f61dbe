"""Graph ops and checkpoint writers that only the tests need."""

import copy

import numpy as np

from memxl import RngHub, TrainConfig, Trainer
from memxl.autodiff import Tensor, _make, _unbroadcast
from memxl.data import batchify


def save_trainer_checkpoint(path, model, vocab=None) -> None:
    """Write a copy of ``model``, with ``vocab`` when given, as a step-0
    trainer checkpoint, the kind ``load_model`` reads; ``model`` is untouched."""
    block = model.config.block_len
    batches = batchify(np.zeros(block + 1, dtype=np.int64), 1, block)
    Trainer(copy.deepcopy(model), TrainConfig(steps=1), batches, None, RngHub(0), vocab=vocab).save(path)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum of ``a`` as one autodiff node, for building scalar test losses."""
    def vjp(g):
        g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reachable(loss: Tensor, requires_grad_only: bool = False) -> list[Tensor]:
    """``loss`` and every node reachable from it through ``_parents``; with
    ``requires_grad_only``, only through parents that require grad."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if (parent.requires_grad or not requires_grad_only) and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def split_heads(rows: np.ndarray, d_head: int) -> np.ndarray:
    """[B, T, H * d_h] rows as [B, H, T, d_h] heads, one column slice per head."""
    return np.stack(np.split(rows, rows.shape[-1] // d_head, axis=-1), axis=1)


def merge_heads(heads: np.ndarray) -> np.ndarray:
    """[B, H, T, d_h] heads laid side by side, head by head, as [B, T, H * d_h] rows."""
    return np.concatenate(list(heads.swapaxes(0, 1)), axis=-1)


def gather_attention(q, keys, values, positions, u, v, offsets) -> Tensor:
    """Reference for ``ad.attention_core``: the same scores on the same
    [B, T, H * d_h] rows, cut into heads by column slices, with the position
    term gathered through the [L, K] offset matrix by ``np.take_along_axis``
    and scattered back through a one-hot map, and the textbook softmax VJP.
    ``positions`` is in shift order: row n - 1 - o holds offset o. The output
    and the gradients are merged head by head into rows, as the core's are."""
    d_head = u.shape[-1]
    qh, kh, vh, ph = (split_heads(x.data, d_head) for x in (q, keys, values, positions))
    span = ph.shape[-2]
    future = offsets < 0
    index = np.where(future, 0, span - 1 - offsets)
    onehot = (index[..., None] == np.arange(span)) & ~future[..., None]  # [L, K, n]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    qu, qv = qh + u.data, qh + v.data
    grid = np.matmul(qv, ph.swapaxes(-1, -2))
    p = np.matmul(qu, kh.swapaxes(-1, -2))
    p += np.take_along_axis(grid, index[None, None], axis=-1)
    p *= scale
    p[..., future] = -np.inf
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = np.matmul(p, vh)

    def vjp(g):
        g = split_heads(g, d_head)
        dp = np.matmul(g, vh.swapaxes(-1, -2))
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * scale
        gpos = np.einsum("...lk,lkn->...ln", ds, onehot.astype(ds.dtype))
        gqu, gqv = np.matmul(ds, kh), np.matmul(gpos, ph)
        return (
            merge_heads(gqu + gqv),
            merge_heads(np.matmul(ds.swapaxes(-1, -2), qu)),
            merge_heads(np.matmul(p.swapaxes(-1, -2), g)),
            merge_heads(_unbroadcast(np.matmul(gpos.swapaxes(-1, -2), qv), ph.shape)),
            _unbroadcast(gqu, u.shape),
            _unbroadcast(gqv, v.shape),
        )

    return _make(merge_heads(out), (q, keys, values, positions, u, v), vjp)
