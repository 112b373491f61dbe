"""Dense-tensor engine with reverse-mode automatic differentiation.

numpy stores the raw arrays; this module records the operation graph and
derives gradients by walking it backwards. Double precision is the
default so finite-difference verification has headroom; float32 is
accepted for faster training runs.

Contract notes:
  * A leaf (a parameter or a constant) is its own graph node. A recorded
    op's output is a ``Tensor`` whose ``Node`` holds its parents' nodes, its
    VJP and its incoming grad, not its value; a VJP captures the arrays and
    shapes it reads, never an input ``Tensor``. So an output's array lives
    only while its ``Tensor`` or a VJP that read it does.
  * ``backward`` may run once per recorded graph; the caller zeroes
    grads between steps. It drops each VJP, and the arrays only it kept,
    once it has run: the graph can still be walked through ``_parents``
    but holds no VJPs, and only the loss and the leaves hold grads.
  * A leaf with a ``grad_buffer`` (an optimizer-registered parameter: its
    view of ``AdamState.grad``) accumulates its grad there, in place, and its
    ``grad`` is that view. The next step overwrites it and clipping scales it
    in place, so a caller that keeps a grad must copy it.
  * ``Tensor.detach`` is a stop-gradient boundary: nothing behind it
    ever accumulates grad.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording (evaluation, pruning sweeps, numeric probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether operations are being recorded for ``backward``."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Node:
    """A recorded op in the graph: its parents' nodes, its VJP (None once
    ``backward`` has run it) and, during ``backward``, its grad; no value."""

    __slots__ = ("_parents", "_vjp", "grad")
    requires_grad, grad_buffer = True, None

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], tuple]):
        self._parents, self._vjp, self.grad = parents, vjp, None


class Tensor:
    """N-dimensional real array participating in a reverse-mode gradient
    graph: a leaf is its own node, a recorded op's output has a ``_node``."""

    __slots__ = ("data", "grad", "grad_buffer", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.grad_buffer: np.ndarray | None = None  # where backward writes this leaf's grad, if set
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        """Stop-gradient boundary: same values, no history, never accumulates grad."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any([p.requires_grad for p in parents]):
        out.requires_grad = True
        out._node = Node(tuple([p._node or p for p in parents]), vjp)  # a leaf is its own node
    return out


# -- primitive operations -----------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _make(a_data * b_data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def vjp(g):  # out > 0 exactly where a > 0, NaN and -0 included
        return (g * (out > 0),)

    return _make(out, (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def index_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """out = table[ids]; backward scatter-adds into the indexed rows."""
    ids, shape = np.asarray(ids), table.data.shape

    def vjp(g):
        gt = np.zeros(shape, dtype=g.dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(table.data[ids], (table,), vjp)


# -- fused functions: one node each, with a hand-written VJP ----------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    rows, weight, x_grad = x.data, gain.data, x.requires_grad
    centered = rows - rows.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)

    def vjp(g):
        normed = (rows - rows.mean(axis=-1, keepdims=True)) / std  # the forward's rows, rebuilt, not kept
        gx = None  # no input gradient for rows that take none, such as cached memory
        if x_grad:
            gn = g * weight
            gx = (gn - gn.mean(axis=-1, keepdims=True) - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
        # gain and bias broadcast over every leading axis, so their grads sum over them
        lead = tuple(range(g.ndim - 1))
        return gx, (g * normed).sum(axis=lead), g.sum(axis=lead)

    return _make(centered / std * weight + bias.data, (x, gain, bias), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """[..., n_in] rows through a weight whose last axis is n_in and whose
    leading axes, flattened, are the n_out outputs ([n_out, n_in], or
    [H, d_h, n_in] per-head weights giving H * d_h outputs, head by head),
    plus an optional [n_out] bias, as one [N, n_in] @ [n_in, n_out] GEMM; a
    [B, S, L, n_in] stack runs one GEMM per segment, which rounds as that
    segment alone would (BLAS rounding may depend on the row count)."""
    n_in = w.shape[-1]
    w2d = w.data.reshape(-1, n_in)
    n_out = w2d.shape[0]
    if x.shape[-1] != n_in or (b is not None and b.shape != (n_out,)):
        raise ValueError(f"linear shape mismatch: rows {x.shape}, weight {w.shape}, bias {None if b is None else b.shape}")
    rows, x_grad, w_shape, has_bias = x.data, x.requires_grad, w.data.shape, b is not None
    out = np.matmul(rows.reshape(-1, n_in) if rows.ndim < 4 else rows.reshape(-1, *rows.shape[-2:]), w2d.T)
    if has_bias:
        out += b.data

    def vjp(g):
        g2d, x2d = g.reshape(-1, n_out), rows.reshape(-1, n_in)
        gx = (g2d @ w2d).reshape(rows.shape) if x_grad else None  # none for constant rows
        gw = (g2d.T @ x2d).reshape(w_shape)
        return (gx, gw, _unbroadcast(g, (n_out,))) if has_bias else (gx, gw)

    return _make(out.reshape(x.shape[:-1] + (n_out,)), (x, w) if b is None else (x, w, b), vjp)


def _relative_shift(grid: np.ndarray, length: int, span: int) -> np.ndarray:
    """The [..., L, n] view of a C-contiguous [..., L, W] ``grid``, W >= n,
    whose entry (i, c) is grid[..., i, L - 1 - i + c]: each row starts one
    column to the left of the row above (Transformer-XL's relative shift, as
    strides). Where L - 1 - i + c >= W, the entry reads the next row's start,
    as Transformer-XL's pad-and-reshape does; that only happens for c > n - L + i."""
    *lead, row, col = grid.strides
    return as_strided(grid[..., length - 1:], grid.shape[:-1] + (span,), (*lead, row - col, col))


def attention_core(q: Tensor, keys: Tensor, values: Tensor, positions: Tensor, u: Tensor, v: Tensor, layout,
                   grids: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Relative-position attention of [..., L, H * d_h] query rows over
    [..., K, H * d_h] key rows and [..., K, H * d_v] value rows, with d_h the
    width of ``u`` and ``v``: each head's softmax(S) @ values, merged head by
    head into [..., L, H * d_v] rows, with

        S[i, j] = ((q_i + u) . k_j + (q_i + v) . r_ij) / sqrt(d_h)

    where r_ij is the position key for the offset of query i to key j.
    ``layout`` is the ``relpos.OffsetEncodings`` of those offsets, and
    ``positions`` holds its [1, n, H * d_h] position keys in shift order. The
    last L keys are the queries' own, so the future slots are the trailing
    [L, L] upper triangle; they get -inf.

    The rows are split into heads by a [..., H, T, d_h] view, and the head
    outputs merged back by a copy of the swapped view; the VJP undoes both,
    so every gradient comes back in rows. The relative shift of
    (q + v) @ positions^T scores every query against the n positions of the
    layout's gap-filled run; each run of keys reads one column slice of it.
    The VJP uses rowsum(dP * P) = rowsum(dO * O) (FlashAttention), so the
    softmax backward needs no second [B, H, L, K] array.

    ``grids``, when given, are C-contiguous [..., H, L, n] and [..., H, L, K]
    arrays that the position and key score grids are written into, in place
    of fresh ones; a caller that evaluates block after block hands the same
    pair to every call. The softmax is taken in the key grid, which the VJP
    would keep, so grids are refused while a graph is being recorded.
    """
    d_head = u.shape[-1]
    n_heads = q.shape[-1] // d_head

    def heads(rows):
        return rows.reshape(rows.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)

    def merge(split):
        return split.swapaxes(-2, -3).reshape(split.shape[:-3] + (split.shape[-2], -1))

    qh, kh, vh, ph = (heads(x.data) for x in (q, keys, values, positions))
    u_data, v_data, runs = u.data, v.data, layout.runs
    length, n_keys, span = qh.shape[-2], kh.shape[-2], ph.shape[-2]
    first, last, _ = runs[-1]
    if last != n_keys or last - first < length:
        raise ValueError(f"encoding runs {runs} do not match {length} queries by {n_keys} keys")
    if grids is not None and _grad_enabled:
        raise RuntimeError("attention score grids are reused from call to call; pass them under no_grad only")
    pos_grid, key_grid = (None, None) if grids is None else grids
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    shifted = _relative_shift(np.matmul(qh + v_data, ph.swapaxes(-1, -2), out=pos_grid), length, span)
    p = np.matmul(qh + u_data, kh.swapaxes(-1, -2), out=key_grid)
    for a, b, c in runs:
        p[..., a:b] += shifted[..., c:c + b - a]
    p *= scale
    np.copyto(p[..., n_keys - length:], -np.inf, where=np.triu(np.ones((length, length), bool), 1))
    peak = p.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():  # a row's max is -inf only when every score in it is
        if np.isneginf(peak[~np.isfinite(peak)]).all():
            raise RuntimeError("attention row with no attendable key; a token always attends to itself")
        raise RuntimeError("non-finite scores in attention (NaN or +inf)")
    p -= peak
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, vh))

    # the VJP keeps p and rebuilds q + u and q + v; it reads the head outputs
    # through a head view of the node's own merged output
    def vjp(g):
        g = heads(g)
        ds = np.matmul(g, vh.swapaxes(-1, -2))
        ds -= np.sum(g * heads(out), axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        # L - 1 padding columns keep the future slots' zeros off the real ones
        gpos = np.zeros(ds.shape[:-1] + (span + length - 1,), ds.dtype)
        gshift = _relative_shift(gpos, length, span)
        for a, b, c in runs:
            gshift[..., c:c + b - a] = ds[..., a:b]
        gpos = gpos[..., :span]
        gqu = np.matmul(ds, kh)
        gqv = np.matmul(gpos, ph)
        return (
            merge(gqu + gqv),
            merge(_unbroadcast(np.matmul(ds.swapaxes(-1, -2), qh + u_data), kh.shape)),
            merge(_unbroadcast(np.matmul(p.swapaxes(-1, -2), g), vh.shape)),
            merge(_unbroadcast(np.matmul(gpos.swapaxes(-1, -2), qh + v_data), ph.shape)),
            _unbroadcast(gqu, u_data.shape),
            _unbroadcast(gqv, v_data.shape),
        )

    return _make(out, (q, keys, values, positions, u, v), vjp)


def token_nll(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token NLL [..., 1] in nats of ``targets`` in [0, V) under logits ``x``
    [..., V], with the exp(x - max) and sums that ``cross_entropy``'s VJP reads."""
    shift = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=-1, keepdims=True)
    return np.log(total) + shift - np.take_along_axis(x, targets[..., None], axis=-1), e, total


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood in nats of ``targets`` under ``logits``.

    ``logits`` is [T, V] or [B, T, V]; ``targets`` matches the leading shape.
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError(f"target id out of range [0, {vocab})")
    per_token, e, total = token_nll(logits.data, targets)

    def vjp(g):
        onehot = np.arange(vocab) == targets[..., None]
        return ((e / total - onehot) * (g / targets.size),)

    return _make(per_token.mean(), (logits,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Zero entries i.i.d. with probability ``rate`` and rescale survivors.

    Identity at evaluation time and at rate 0 (no RNG consumed in either case).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    return mul(x, Tensor((keep / (1.0 - rate)).astype(x.dtype)))


# -- backward ------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate grads of the leaves (such as parameters) reachable from the
    scalar ``loss``, which keeps its grad; each node's grad and VJP are
    dropped once the VJP has run. A leaf with a ``grad_buffer`` gets its
    first contribution copied there and later ones added in place. A graph
    that backward has already run through is rejected."""
    if loss.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise RuntimeError("loss does not require grad: no graph was recorded")

    topo, visited, stack = [], set(), [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._vjp is None:
            raise RuntimeError("backward already ran on this graph; rebuild the graph before calling again")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if type(parent) is Node and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = loss._node.grad = np.ones((), dtype=loss.dtype)
    for node in reversed(topo):
        vjp, node._vjp = node._vjp, None  # frees what only this VJP kept once it has run
        if node.grad is None:
            continue
        for parent, pg in zip(node._parents, vjp(node.grad)):
            if not parent.requires_grad or pg is None:
                continue
            if parent.grad_buffer is None:  # a VJP's arrays may alias each other, so never add into one
                parent.grad = pg if parent.grad is None else parent.grad + pg
            elif parent.grad is None:
                parent.grad = parent.grad_buffer
                parent.grad[...] = pg
            else:
                parent.grad = np.add(parent.grad, pg, out=parent.grad_buffer)
        node.grad = None


# -- finite-difference verification ---------------------------------------

@dataclass
class ParamCheck:
    """Per-parameter comparison of analytic and central-difference grads."""

    analytic_absmax: float
    numeric_absmax: float
    rel_error: float


@dataclass
class FiniteDiffReport:
    checks: dict[str, ParamCheck]
    step: float
    tol: float

    @property
    def max_rel_error(self) -> float:
        return max((c.rel_error for c in self.checks.values()), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def failures(self) -> list[str]:
        return [n for n, c in self.checks.items() if c.rel_error >= self.tol]

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}: max relative error {self.max_rel_error:.3e} over {len(self.checks)} parameters (tol {self.tol:g})"


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    step: float = 1e-5,
    tol: float = 1e-5,
) -> FiniteDiffReport:
    """Compare analytic grads of ``f()`` against central finite differences.

    ``f`` must be a deterministic scalar-valued map of the current
    parameter values (fix all stochastic inputs before calling). The
    relative error of a parameter is its max elementwise discrepancy
    normalized by the larger of the two gradients' max magnitudes.
    """
    params = list(params)

    probe_a = f()
    probe_b = f()
    if probe_a.data.tobytes() != probe_b.data.tobytes():
        raise RuntimeError(
            "finite-diff check aborted: f() is not deterministic "
            f"({float(probe_a.data)!r} vs {float(probe_b.data)!r}); fix RNG draws and masks first"
        )

    for _, p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros(p.shape, dtype=p.dtype))
        for name, p in params
    }

    checks: dict[str, ParamCheck] = {}
    with no_grad():
        for name, p in params:
            flat = p.data.reshape(-1)
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(f().data)
                flat[i] = orig - step
                f_minus = float(f().data)
                flat[i] = orig
                numeric[i] = (f_plus - f_minus) / (2.0 * step)
            numeric = numeric.reshape(p.shape)
            a = analytic[name]
            scale = max(np.abs(a).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
            checks[name] = ParamCheck(
                analytic_absmax=float(np.abs(a).max(initial=0.0)),
                numeric_absmax=float(np.abs(numeric).max(initial=0.0)),
                rel_error=float(np.abs(a - numeric).max(initial=0.0) / scale),
            )
    return FiniteDiffReport(checks=checks, step=step, tol=tol)
