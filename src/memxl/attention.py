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


@dataclass
class HeadAssignment:
    """Bijective map from query-head index to key/value-head index."""

    sigma: np.ndarray  # int array [n_heads]
    cross_active: bool

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.int64)
        n = sigma.size
        if not np.array_equal(np.sort(sigma), np.arange(n)):
            raise ValueError(f"head assignment must be a bijection, got {sigma}")
        if not self.cross_active and not np.array_equal(sigma, np.arange(n)):
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

    @property
    def n_heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_head(self) -> int:
        return self.w_q.shape[1]

    @staticmethod
    def init(n_heads: int, d_head: int, d_model: int, std: float, rng: np.random.Generator, dtype) -> "LayerAttentionParams":
        def w(*shape):
            return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=True)

        return LayerAttentionParams(
            w_q=w(n_heads, d_head, d_model),
            w_ke=w(n_heads, d_head, d_model),
            w_kr=w(n_heads, d_head, d_model),
            w_v=w(n_heads, d_head, d_model),
            w_o=w(d_model, n_heads * d_head),
            u=w(d_head),
            v=w(d_head),
        )

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w_q", self.w_q),
            (f"{prefix}.w_ke", self.w_ke),
            (f"{prefix}.w_kr", self.w_kr),
            (f"{prefix}.w_v", self.w_v),
            (f"{prefix}.w_o", self.w_o),
            (f"{prefix}.u", self.u),
            (f"{prefix}.v", self.v),
        ]


def _project_heads(x: Tensor, w: Tensor) -> Tensor:
    """[B, T, d] x [H, d_h, d] -> [B, H, T, d_h]."""
    return ad.matmul(ad.reshape(x, (x.shape[0], 1, *x.shape[1:])), ad.transpose(w, (0, 2, 1)))


def attention_scores(
    queries_src: Tensor,
    keys_src: Tensor,
    enc: OffsetEncodings,
    params: LayerAttentionParams,
) -> Tensor:
    """Masked four-term attention scores, [B, H, L, K], from [B, L, d]
    queries and [B, K, d] keys.

    Future keys are set to -inf; scores are scaled by 1/sqrt(d_head).
    """
    n_keys = keys_src.shape[1]
    if enc.n_keys != n_keys:
        raise RuntimeError(f"encoding count {enc.n_keys} does not match key count {n_keys}")

    q = _project_heads(queries_src, params.w_q)           # [B, H, L, d_h]
    ke = _project_heads(keys_src, params.w_ke)            # [B, H, K, d_h]
    content = ad.matmul(ad.add(q, params.u), ad.transpose(ke, (0, 1, 3, 2)))

    rel = Tensor(enc.vectors.astype(queries_src.dtype, copy=False))  # [n, d]
    pos_proj = ad.matmul(ad.reshape(rel, (1, *rel.shape)), ad.transpose(params.w_kr, (0, 2, 1)))  # [H, n, d_h]
    pos_all = ad.matmul(ad.add(q, params.v), ad.transpose(pos_proj, (0, 2, 1)))                   # [B, H, L, n]
    position = ad.gather_last(pos_all, enc.index)

    scale = 1.0 / np.sqrt(params.d_head)
    scores = ad.mul(ad.add(content, position), ad._as_tensor(scale, queries_src.dtype))
    return ad.masked_fill(scores, enc.future[None, None, :, :], -np.inf)


def attention_probs(scores: Tensor) -> Tensor:
    """Softmax over keys; masked entries must already be -inf."""
    finite_any = np.isfinite(scores.data).any(axis=-1)
    if not finite_any.all():
        raise RuntimeError("attention row with no attendable key; a token always attends to itself")
    return ad.softmax(scores, axis=-1)


def head_output(probs: Tensor, values_src: Tensor, params: LayerAttentionParams) -> Tensor:
    """Probability-weighted value vectors, [B, H, L, d_h], from [B, H, L, K]
    probabilities and [B, K, d] value sources."""
    v = _project_heads(values_src, params.w_v)  # [B, H, K, d_h]
    return ad.matmul(probs, v)


def multi_head_forward(
    x_block: Tensor,
    memory: Tensor | None,
    enc: OffsetEncodings,
    params: LayerAttentionParams,
    sigma: HeadAssignment | None = None,
    prune: np.ndarray | None = None,
) -> Tensor:
    """Full attention sublayer body on [B, L, d] queries and [B, M, d]
    memory: scores, softmax, per-head outputs, pruning, concatenation and
    output projection. Returns [B, L, d].

    Under an active cross-head assignment, query head M reads the key,
    position and value projections of head sigma(M); the permuted weights
    are gathered once here and serve both the scores and the values.
    """
    keys_src = x_block if memory is None else ad.concat([memory, x_block], axis=1)
    if sigma is not None and sigma.cross_active:
        params = replace(
            params,
            w_ke=ad.index_rows(params.w_ke, sigma.sigma),
            w_kr=ad.index_rows(params.w_kr, sigma.sigma),
            w_v=ad.index_rows(params.w_v, sigma.sigma),
        )

    scores = attention_scores(x_block, keys_src, enc, params)
    probs = attention_probs(scores)
    heads = head_output(probs, keys_src, params)  # [B, H, L, d_h]

    if prune is not None:
        prune = np.asarray(prune, dtype=bool)
        if prune.shape != (params.n_heads,):
            raise ValueError(f"prune mask must have length {params.n_heads}, got {prune.shape}")
        heads = ad.mul(heads, Tensor(prune[None, :, None, None].astype(heads.dtype)))

    batch, n_heads, length, d_head = heads.shape
    merged = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (batch, length, n_heads * d_head))
    return ad.matmul(merged, ad.transpose(params.w_o))
