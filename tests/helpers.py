"""Graph ops that only the tests need."""

import numpy as np

from memxl.autodiff import Tensor, _make, _unbroadcast


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum of ``a`` as one autodiff node, for building scalar test losses."""
    def vjp(g):
        g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def gather_attention(q, keys, values, positions, u, v, offsets) -> Tensor:
    """Reference for ``ad.attention_core``: the same scores, with the position
    term gathered through the [L, K] offset matrix by ``np.take_along_axis``
    and scattered back through a one-hot map, and the textbook softmax VJP.
    ``positions`` is in shift order: row n - 1 - o holds offset o. The output
    is merged head by head into [B, L, H * d_h] rows, as the core's is."""
    span, d_head = positions.shape[-2:]
    future = offsets < 0
    index = np.where(future, 0, span - 1 - offsets)
    onehot = (index[..., None] == np.arange(span)) & ~future[..., None]  # [L, K, n]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    qu, qv = q.data + u.data, q.data + v.data
    grid = np.matmul(qv, positions.data.swapaxes(-1, -2))
    p = np.matmul(qu, keys.data.swapaxes(-1, -2))
    p += np.take_along_axis(grid, index[None, None], axis=-1)
    p *= scale
    p[..., future] = -np.inf
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    out = np.matmul(p, values.data)
    batch, n_heads, length = out.shape[:3]

    def vjp(g):
        g = g.reshape(batch, length, n_heads, -1).swapaxes(1, 2)
        dp = np.matmul(g, values.data.swapaxes(-1, -2))
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * scale
        gpos = np.einsum("...lk,lkn->...ln", ds, onehot.astype(ds.dtype))
        gqu, gqv = np.matmul(ds, keys.data), np.matmul(gpos, positions.data)
        return (
            gqu + gqv,
            _unbroadcast(np.matmul(ds.swapaxes(-1, -2), qu), keys.shape),
            _unbroadcast(np.matmul(p.swapaxes(-1, -2), g), values.shape),
            _unbroadcast(np.matmul(gpos.swapaxes(-1, -2), qv), positions.shape),
            _unbroadcast(gqu, u.shape),
            _unbroadcast(gqv, v.shape),
        )

    merged = out.swapaxes(1, 2).reshape(batch, length, -1)
    return _make(merged, (q, keys, values, positions, u, v), vjp)
