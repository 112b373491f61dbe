"""Graph ops that only the tests need."""

import numpy as np

from memxl.autodiff import Tensor, _make


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum of ``a`` as one autodiff node, for building scalar test losses."""
    def vjp(g):
        g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)
