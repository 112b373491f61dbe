"""Multi-head attention with decomposed relative-position scores and
stochastic cross-head matching.

The score for query head M against key/value head N = sigma(M) is the sum
of four terms: content-content, content-position, global content bias and
global position bias, all computed with head N's key projections.
With the identity assignment this reduces exactly to the baseline
relative-position attention. Cross-head matching is sampled per layer per
training pass; evaluation always uses the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .relpos import OffsetEncodings
from .rng import normal


@dataclass
class HeadAssignment:
    """Bijective map from query-head index to key/value-head index."""

    sigma: np.ndarray  # int array [n_heads]
    cross_active: bool

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.int64)
        heads, identity = sigma.tolist(), list(range(sigma.size))  # checked on Python ints
        if sigma.ndim != 1 or sorted(heads) != identity:
            raise ValueError(f"head assignment must be a bijection, got {sigma}")
        if not self.cross_active and heads != identity:
            raise ValueError("cross_active=False requires the identity assignment")
        self.sigma = sigma

    @staticmethod
    def identity(n_heads: int) -> "HeadAssignment":
        return HeadAssignment(sigma=np.arange(n_heads, dtype=np.int64), cross_active=False)


def sample_head_assignment(rng: np.random.Generator, beta: float, n_heads: int) -> HeadAssignment:
    """With probability ``beta`` match query heads to a uniformly random
    permutation of key/value heads; otherwise identity.

    The sampled permutation may itself be the identity. ``beta`` = 0
    consumes no RNG draws.
    """
    if n_heads < 1:
        raise ValueError(f"need at least one head, got {n_heads}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be a probability, got {beta}")
    if beta == 0.0:
        return HeadAssignment.identity(n_heads)
    u = rng.random()
    if u >= beta:
        return HeadAssignment.identity(n_heads)
    return HeadAssignment(sigma=rng.permutation(n_heads).astype(np.int64), cross_active=True)


@dataclass
class LayerAttentionParams:
    """Per-head projections stacked on a leading head axis, plus the shared
    output matrix and the global content/position bias vectors."""

    w_q: Tensor   # [H, d_h, d]
    w_ke: Tensor  # [H, d_h, d]
    w_kr: Tensor  # [H, d_h, d]
    w_v: Tensor   # [H, d_h, d]
    w_o: Tensor   # [d, H * d_h]
    u: Tensor     # [d_h]
    v: Tensor     # [d_h]

    @staticmethod
    def init(n_heads: int, d_head: int, d_model: int, std: float, rng: np.random.Generator, dtype) -> "LayerAttentionParams":
        def w(*shape):
            return Tensor(normal(rng, std, shape, dtype), requires_grad=True)

        return LayerAttentionParams(
            w_q=w(n_heads, d_head, d_model),
            w_ke=w(n_heads, d_head, d_model),
            w_kr=w(n_heads, d_head, d_model),
            w_v=w(n_heads, d_head, d_model),
            w_o=w(d_model, n_heads * d_head),
            u=w(d_head),
            v=w(d_head),
        )

    def crossed(self, sigma: HeadAssignment | None) -> "LayerAttentionParams":
        """The parameters under ``sigma``: query head M reads the key, position
        key and value projections of head sigma(M). ``self`` when no
        assignment is active."""
        if sigma is None or not sigma.cross_active:
            return self
        pick = sigma.sigma
        return replace(self, w_ke=ad.index_rows(self.w_ke, pick), w_kr=ad.index_rows(self.w_kr, pick),
                       w_v=ad.index_rows(self.w_v, pick))


def position_keys(enc: OffsetEncodings, w_kr: Tensor) -> Tensor:
    """Each head's projection of the encoded offsets, [1, n, H * d_h] rows, in
    the encoding's shift order, which is the order ``ad.attention_core`` reads."""
    return ad.linear(Tensor(enc.vectors[None].astype(w_kr.dtype, copy=False)), w_kr)


def multi_head_forward(
    x_n: Tensor,
    keys: Tensor,
    values: Tensor,
    enc: OffsetEncodings,
    params: LayerAttentionParams,
    positions: Tensor,
    grids: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Attention sublayer body on [..., L, d] normalised query rows: query
    projection, the fused attention core (head split, scores, softmax and
    merged head outputs in one node) and output projection.
    Returns [..., L, d].

    ``keys`` and ``values`` are the [..., K, H * d_h] rows the queries attend
    to, the memory's first and the block's own last, projected with the same
    (possibly crossed) ``params``. ``positions`` holds the [1, n, H * d_h]
    position keys of ``enc`` (``position_keys``). Cross-head matching
    happens before this call, in ``params.crossed``. ``grids``, under
    ``no_grad`` only, are the flat buffers whose fronts the core writes its
    score grids into (``ad.attention_core``).
    """
    q = ad.linear(x_n, params.w_q)
    merged = ad.attention_core(q, keys, values, positions, params.u, params.v, enc, grids)  # [..., L, H * d_h]
    return ad.linear(merged, params.w_o)
