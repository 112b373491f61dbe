"""Memory-augmented autoregressive transformer stack.

Each layer caches its most recent input activations (detached) together
with their absolute positions. ``MemoryLM.forward`` joins each layer's
memory to the block in one place: the layer attends to the keys and values
of its cached rows followed by the block's own. A layer can be skipped for
a step, in which case it passes its input through unchanged and keeps its
cache as-is, growing the relative offsets its next update will see.

Streaming evaluation runs under fixed parameters, so it caches each
layer's projected keys and values instead of the raw rows, and its position
keys, built once (``StreamState``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor
from .attention import HeadAssignment, LayerAttentionParams, multi_head_forward, position_keys
from .relpos import OffsetEncodings, block_tags, encode_offsets, relative_offsets


@dataclass
class ModelConfig:
    n_layers: int
    d_model: int
    d_inner: int
    n_heads: int
    d_head: int
    mem_len: int
    block_len: int
    vocab_size: int
    dropout: float = 0.0
    beta: float = 0.0
    init_std: float = 0.02
    param_dtype: str = "float64"

    def __post_init__(self):
        for name in ("n_layers", "d_model", "d_inner", "n_heads", "d_head", "block_len", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.mem_len < 0:
            raise ValueError(f"mem_len must be nonnegative, got {self.mem_len}")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even for sinusoidal encodings, got {self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.param_dtype not in ("float32", "float64"):
            raise ValueError(f"param_dtype must be float32 or float64, got {self.param_dtype}")

    @property
    def dtype(self):
        return np.dtype(self.param_dtype)


@dataclass
class LayerParams:
    """One layer: attention sublayer, feed-forward sublayer, their norms."""

    attn: LayerAttentionParams
    ln_attn_g: Tensor
    ln_attn_b: Tensor
    w_ff1: Tensor  # [d_inner, d]
    b_ff1: Tensor  # [d_inner]
    w_ff2: Tensor  # [d, d_inner]
    b_ff2: Tensor  # [d]
    ln_ffn_g: Tensor
    ln_ffn_b: Tensor

    @staticmethod
    def init(cfg: ModelConfig, rng: np.random.Generator) -> "LayerParams":
        dt = cfg.dtype

        def w(*shape):
            return Tensor(rng.normal(0.0, cfg.init_std, size=shape).astype(dt), requires_grad=True)

        def ones(n):
            return Tensor(np.ones(n, dtype=dt), requires_grad=True)

        def zeros(n):
            return Tensor(np.zeros(n, dtype=dt), requires_grad=True)

        return LayerParams(
            attn=LayerAttentionParams.init(cfg.n_heads, cfg.d_head, cfg.d_model, cfg.init_std, rng, dt),
            ln_attn_g=ones(cfg.d_model),
            ln_attn_b=zeros(cfg.d_model),
            w_ff1=w(cfg.d_inner, cfg.d_model),
            b_ff1=zeros(cfg.d_inner),
            w_ff2=w(cfg.d_model, cfg.d_inner),
            b_ff2=zeros(cfg.d_model),
            ln_ffn_g=ones(cfg.d_model),
            ln_ffn_b=zeros(cfg.d_model),
        )


def named_fields(params, prefix: str) -> list[tuple[str, Tensor]]:
    """``(prefix.field, tensor)`` for each field of the dataclass ``params``,
    in definition order, with fields that hold parameter dataclasses expanded
    in place."""
    out = []
    for f in fields(params):
        value, name = getattr(params, f.name), f"{prefix}.{f.name}"
        out += [(name, value)] if isinstance(value, Tensor) else named_fields(value, name)
    return out


@dataclass
class LayerMemory:
    """Cached input activations of one layer with their positions.

    ``buffer`` never carries gradient history. ``staleness`` counts steps
    since the last refresh; skips increment it.
    """

    buffer: np.ndarray  # [B, rows, d], rows <= mem_len
    tags: np.ndarray    # [rows] absolute positions
    staleness: int = 0

    def advanced(self, x, step_tags, mem_len: int) -> "LayerMemory":
        """The newest ``mem_len`` rows of (buffer ++ detached ``x``), joined
        from the kept tails alone, so no dropped row stays alive."""
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        tags = np.concatenate([self.tags, np.asarray(step_tags, dtype=np.int64)])
        drop, rows = max(0, len(tags) - mem_len), self.buffer.shape[1]
        buffer = np.concatenate([self.buffer[:, drop:], data[:, max(0, drop - rows):]], axis=1)
        return LayerMemory(buffer=buffer, tags=tags[drop:])


@dataclass
class MemoryState:
    layers: list[LayerMemory]
    mem_len: int
    next_position: int = 0

    @property
    def batch(self) -> int:
        return self.layers[0].buffer.shape[0]

    @staticmethod
    def fresh(n_layers: int, mem_len: int, batch: int, d_model: int, dtype=np.float64) -> "MemoryState":
        if mem_len < 0:
            raise ValueError(f"mem_len must be nonnegative, got {mem_len}")
        return MemoryState(
            layers=[
                LayerMemory(
                    buffer=np.zeros((batch, 0, d_model), dtype=dtype),
                    tags=np.zeros(0, dtype=np.int64),
                )
                for _ in range(n_layers)
            ],
            mem_len=mem_len,
        )


@dataclass
class StreamLayer:
    """One layer's memory in a stream: the projected keys and values of its
    newest rows, rows <= mem_len, just before ``stop`` in two stores that
    ``StreamState.fresh`` sizes for the memory and the largest call after
    it, and the layer's position keys of the stream's offset encoding.

    ``extend`` writes a call's keys and values after them, in place, and
    hands each block of the call its window as a view, valid until the next
    ``extend``; ``advanced`` then keeps the newest ``mem_len`` rows, whose
    tags are contiguous, so their count stands for them. A call whose rows
    do not fit after ``stop`` first moves the kept rows to the front of the
    stores (``_compact``).
    """

    keys: np.ndarray       # store, [B, capacity, H * d_h]
    values: np.ndarray     # store, [B, capacity, H * d_h]
    positions: np.ndarray  # [1, n, H * d_h], offsets n - 1 .. 0
    rows: int = 0
    staleness: int = 0
    stop: int = 0          # the kept rows are the stores' rows stop - rows .. stop - 1

    def extend(self, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of each of the call's [B, S, L, H * d_h] blocks
        after the memory rows before it, as [B, S, rows + L, H * d_h]
        windows. For S > 1 the memory must be full, so that every block's
        memory is the ``rows`` rows just before it."""
        batch, segments, length, width = keys.shape
        rows, new = self.rows, segments * length
        if self.stop + new > self.keys.shape[1]:
            self._compact(rows)
        first, self.stop = self.stop - rows, self.stop + new

        def windows(store):  # window s starts at row first + s * length: overlapping views, no copy
            b, r, c = store.strides
            shape = (batch, segments, rows + length, width)
            return Tensor(as_strided(store[:, first:], shape, (b, length * r, r, c), writeable=False))

        self.keys[:, self.stop - new:self.stop] = keys.data.reshape(batch, new, width)
        self.values[:, self.stop - new:self.stop] = values.data.reshape(batch, new, width)
        return windows(self.keys), windows(self.values)

    def _compact(self, rows: int) -> None:
        """Move the kept rows to the front of the stores."""
        batch, _, width = self.keys.shape
        first = self.stop - rows
        for store in (self.keys, self.values):
            # one flat copy per stream row: numpy copies an overlapping 1-D
            # range in place, where a [B, rows, width] one goes through a temporary
            for row in store.reshape(batch, -1):
                row[:rows * width] = row[first * width:self.stop * width]
        self.stop = rows

    def advanced(self, x, step_tags, mem_len: int) -> "StreamLayer":
        """Keep the newest ``mem_len`` of the rows ``extend`` left; ``x`` is
        not read, since the call's keys and values are already projected."""
        self.rows, self.staleness = min(mem_len, self.rows + len(step_tags)), 0
        return self


@dataclass
class StreamState:
    """Memory for streaming evaluation: what stays fixed from block to block
    while the parameters do. ``fresh`` builds it once: each layer's key and
    value stores and position keys (``StreamLayer``), the offset encoding,
    and one pair of flat buffers whose fronts every layer uses as the
    attention core's score grids. It is valid only while the parameters do
    not change, so ``MemoryLM.forward`` takes it under ``no_grad`` only, and
    advances it in place, by one block of at most ``block_len`` tokens or,
    once every layer holds ``mem_len`` rows, up to ``blocks`` whole blocks.
    Every layer runs on every block, so L queries over ``rows`` memory rows
    read n = rows + L contiguous keys at offsets n - 1 .. 0, the tails of
    ``enc`` and of each layer's position keys, and [B, S, H, L, n] grids.
    """

    layers: list[StreamLayer]
    mem_len: int
    block_len: int
    blocks: int                       # S, the most whole blocks per call
    enc: OffsetEncodings              # offsets 0 .. mem_len + block_len - 1
    grids: tuple[np.ndarray, ...]     # flat, B * S * H * block_len * (mem_len + block_len) entries each
    next_position: int = 0

    @property
    def batch(self) -> int:
        return self.layers[0].keys.shape[0]

    @staticmethod
    def fresh(model: "MemoryLM", batch: int, mem_len: int, block_len: int, blocks: int = 1) -> "StreamState":
        config, n = model.config, mem_len + block_len
        # one-block streams compact every other block, chunked ones on every full call
        shape = (batch, mem_len + max(2, blocks) * block_len, config.n_heads * config.d_head)
        grid = batch * blocks * config.n_heads * block_len * n
        enc = encode_offsets(np.arange(n - 1, -1, -1)[None], config.d_model)  # one query, keys at n - 1 .. 0
        with ad.no_grad():
            layers = [
                StreamLayer(np.empty(shape, config.dtype), np.empty(shape, config.dtype),
                            position_keys(enc, lp.attn.w_kr).data)
                for lp in model.layers
            ]
        grids = (np.empty(grid, config.dtype), np.empty(grid, config.dtype))
        return StreamState(layers, mem_len, block_len, blocks, enc, grids)


def update_memory(mem, x, skipped: bool, step_tags: np.ndarray, mem_len: int):
    """Next cache state after one step, for a ``LayerMemory`` or a
    ``StreamLayer``.

    Skipped: the same arrays and tags, staleness up one. Executed: the
    newest ``mem_len`` rows of the old rows followed by this step's, fresh
    staleness. ``x`` holds the layer's input activations for this step.
    """
    if skipped:
        return replace(mem, staleness=mem.staleness + 1)
    return mem.advanced(x, step_tags, mem_len)


@dataclass
class LayerTrace:
    """What one layer saw during a forward call (for audits and tests)."""

    layer: int
    skipped: bool
    staleness: int
    offsets: np.ndarray | None  # [L, K] signed offsets; None when skipped


class MemoryLM:
    """The full model: tied embedding, N cached-attention layers, final norm."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        dt = config.dtype
        self.embedding = Tensor(
            rng.normal(0.0, config.init_std, size=(config.vocab_size, config.d_model)).astype(dt),
            requires_grad=True,
        )
        self.layers = [LayerParams.init(config, rng) for _ in range(config.n_layers)]
        self.ln_out_g = Tensor(np.ones(config.d_model, dtype=dt), requires_grad=True)
        self.ln_out_b = Tensor(np.zeros(config.d_model, dtype=dt), requires_grad=True)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        for i, layer in enumerate(self.layers):
            out += named_fields(layer, f"layers.{i}")
        out += [("ln_out_g", self.ln_out_g), ("ln_out_b", self.ln_out_b)]
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def init_memory(self, batch: int = 1, mem_len: int | None = None) -> MemoryState:
        if mem_len is None:
            mem_len = self.config.mem_len
        return MemoryState.fresh(self.config.n_layers, mem_len, batch, self.config.d_model, self.config.dtype)

    def _check_tokens(self, tokens) -> np.ndarray:
        tokens = np.asarray(tokens)
        if not np.issubdtype(tokens.dtype, np.integer):
            raise ValueError(f"token ids must be integers, got dtype {tokens.dtype}")
        if tokens.size == 0:
            raise ValueError("empty token block")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ValueError(
                f"token id out of range [0, {self.config.vocab_size}): "
                f"min {tokens.min()}, max {tokens.max()}"
            )
        return tokens.astype(np.int64)

    def forward(
        self,
        tokens,
        mems: MemoryState | StreamState,
        skip_mask: np.ndarray | None = None,
        assignments: list[HeadAssignment] | None = None,
        prune: np.ndarray | None = None,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
        record: list[LayerTrace] | None = None,
    ) -> tuple[Tensor, MemoryState | StreamState]:
        """One block step: logits for each position plus the advanced memory.

        ``skip_mask`` (length N) marks layers that pass their input through
        untouched this step and keep their cache; ``assignments`` carries one
        head assignment per layer. Both default to the inactive case.

        A ``MemoryState`` holds raw rows, which each call normalises and
        projects again, with the graph attached; the call returns a new
        state. A ``StreamState`` holds projections of the current
        parameters through each layer's own heads, so it is accepted only
        under ``no_grad``, with no crossed heads and no skip mask; the call
        encodes and projects no position, and advances it in place and
        returns it. Under a full stream, ``tokens`` may hold up to the
        stream's S whole blocks, [B, S * L]: each layer runs over them as
        one [B, S, L] stack, since a block's memory is the layer below's
        output over the rows before it, which the call has already computed.
        """
        cfg = self.config
        stream = isinstance(mems, StreamState)
        if stream and ad.grad_enabled():
            raise RuntimeError("a stream state holds projections of fixed parameters; use it under no_grad only")
        tokens = self._check_tokens(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [B, L], got shape {tokens.shape}")
        batch, n_tokens = tokens.shape

        if len(mems.layers) != cfg.n_layers:
            raise ValueError(f"memory has {len(mems.layers)} layers, model has {cfg.n_layers}")
        if mems.batch != batch:
            raise ValueError(f"memory batch {mems.batch} does not match tokens batch {batch}")
        if stream and skip_mask is not None:
            raise ValueError("a stream state runs every layer on every block; it takes no skip mask")
        if skip_mask is None:
            skip_mask = np.zeros(cfg.n_layers, dtype=bool)
        skip_mask = np.asarray(skip_mask, dtype=bool)
        if skip_mask.shape != (cfg.n_layers,):
            raise ValueError(f"skip mask must have length {cfg.n_layers}, got shape {skip_mask.shape}")
        if assignments is not None and len(assignments) != cfg.n_layers:
            raise ValueError(f"need one head assignment per layer, got {len(assignments)}")
        if stream and assignments is not None and any(a.cross_active for a in assignments):
            raise ValueError("a stream state caches its own heads' keys; it takes no crossed head assignment")
        prune = self._check_prune(prune)
        length = min(n_tokens, mems.block_len) if stream else n_tokens
        if n_tokens > length:
            full = all(lm.rows == mems.mem_len for lm in mems.layers)
            if n_tokens % length or n_tokens > mems.blocks * length or not full:
                raise ValueError(f"a stream call holds up to {mems.blocks} whole blocks, several only over full memory")

        h = ad.index_rows(self.embedding, tokens.reshape(batch, -1, length) if stream else tokens)
        h = ad.dropout(h, cfg.dropout, dropout_rng, training)
        tags = block_tags(mems.next_position, n_tokens)
        q_tags = tags[:length]  # the first block's; every block of a call shares its offsets

        # training: one offset matrix and encoding per layout of cache tags
        # relative to the block, shared by the layers whose caches hold it
        layouts: dict[bytes, tuple[np.ndarray, OffsetEncodings]] = {}
        new_layers = []
        for i, (lp, lm) in enumerate(zip(self.layers, mems.layers)):
            if skip_mask[i]:
                new_layers.append(update_memory(lm, h, True, tags, mems.mem_len))
                if record is not None:
                    record.append(LayerTrace(layer=i, skipped=True, staleness=lm.staleness, offsets=None))
                continue

            layer_input = h
            attn_params = lp.attn.crossed(assignments[i] if assignments is not None else None)
            grids = None
            if stream:  # n contiguous keys at offsets n - 1 .. 0: the tails of what fresh built
                n = lm.rows + length
                enc = OffsetEncodings(mems.enc.offsets[:n], mems.enc.vectors[-n:], [(0, n, 0)])
                positions = Tensor(lm.positions[:, -n:])
                offsets = None if record is None else relative_offsets(q_tags, block_tags(q_tags[0] - lm.rows, n))
                shape = (*h.shape[:-2], cfg.n_heads, length, n)  # [B, S, H, L, n]
                grids = tuple(g[:math.prod(shape)].reshape(shape) for g in mems.grids)
            else:
                key = (lm.tags - mems.next_position).tobytes()
                if key not in layouts:
                    offsets = relative_offsets(q_tags, np.concatenate([lm.tags, q_tags]))
                    layouts[key] = offsets, encode_offsets(offsets, cfg.d_model)
                offsets, enc = layouts[key]
                positions = position_keys(enc, attn_params.w_kr)
            if record is not None:
                record.append(LayerTrace(layer=i, skipped=False, staleness=lm.staleness, offsets=offsets))

            x_n = ad.layer_norm(h, lp.ln_attn_g, lp.ln_attn_b)
            keys, values = ad.linear(x_n, attn_params.w_ke), ad.linear(x_n, attn_params.w_v)
            # the layer attends to its memory's rows followed by the block's
            if stream:
                keys, values = lm.extend(keys, values)
            elif lm.buffer.shape[1] > 0:
                rows = ad.layer_norm(Tensor(lm.buffer.astype(cfg.dtype, copy=False)), lp.ln_attn_g, lp.ln_attn_b)
                keys = ad.concat([ad.linear(rows, attn_params.w_ke), keys], axis=1)
                values = ad.concat([ad.linear(rows, attn_params.w_v), values], axis=1)
            prune_i = prune[i] if prune is not None else None
            attn = multi_head_forward(x_n, keys, values, enc, attn_params, positions, prune_i, grids)
            attn = ad.dropout(attn, cfg.dropout, dropout_rng, training)
            h = ad.add(h, attn)

            f_n = ad.layer_norm(h, lp.ln_ffn_g, lp.ln_ffn_b)
            z = ad.relu(ad.linear(f_n, lp.w_ff1, lp.b_ff1))
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            z = ad.linear(z, lp.w_ff2, lp.b_ff2)
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            h = ad.add(h, z)

            new_layers.append(update_memory(lm, layer_input, False, tags, mems.mem_len))

        final = ad.layer_norm(h, self.ln_out_g, self.ln_out_b)
        logits = ad.linear(final, self.embedding)  # tied weights: the transposed embedding table

        if stream:
            mems.layers, mems.next_position = new_layers, mems.next_position + n_tokens
            return Tensor(logits.data.reshape(batch, n_tokens, -1)), mems
        return logits, MemoryState(layers=new_layers, mem_len=mems.mem_len, next_position=mems.next_position + n_tokens)

    def _check_prune(self, prune):
        if prune is None:
            return None
        prune = np.asarray(prune, dtype=bool)
        expect = (self.config.n_layers, self.config.n_heads)
        if prune.shape != expect:
            raise ValueError(f"prune mask must have shape {expect}, got {prune.shape}")
        return prune
