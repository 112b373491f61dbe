"""Memory-augmented autoregressive transformer stack.

Each layer caches its most recent input rows, normalised (before gain and
bias) and detached, with their absolute positions (``MemoryState``), and
attends to the keys and values of its cached rows followed by the block's
own. A layer can be skipped for a step, in which case it passes its input
through unchanged and keeps its cache as-is, growing the relative offsets
its next update will see; a run encodes each layout of them once.

Streaming evaluation runs under fixed parameters, so it caches each
layer's projected keys and values instead of the raw rows, and its position
keys, built once (``StreamState``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import HeadAssignment, LayerAttentionParams, multi_head_forward, position_keys
from .relpos import OffsetEncodings, block_tags, encode_offsets, relative_offsets
from .rng import normal


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
            return Tensor(normal(rng, cfg.init_std, shape, dt), requires_grad=True)

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
    """Cached input rows of one layer, normalised, with their positions.

    ``buffer`` holds the rows before gain and bias (``join`` applies the
    current ones) and never carries gradient history. ``staleness`` counts
    steps since the last refresh; skips increment it.
    """

    buffer: np.ndarray  # [B, rows, d], rows <= mem_len
    tags: np.ndarray    # [rows] absolute positions
    staleness: int = 0

    def join(self, keys: Tensor, values: Tensor, lp: LayerParams):
        """The cached rows' keys and values, scaled, shifted and projected with
        the graph attached, followed by the block's ``keys`` and ``values``."""
        if self.buffer.shape[1] == 0:
            return keys, values
        rows = ad.scale_shift(self.buffer, lp.ln_attn_g, lp.ln_attn_b)
        return (ad.concat([ad.linear(rows, lp.attn.w_ke), keys], axis=1),
                ad.concat([ad.linear(rows, lp.attn.w_v), values], axis=1))

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
    """Memory for training: each layer's cached rows and their tags, gapped by
    skips; every call projects the rows again and returns a new state, which
    shares ``encodings``, the ``LAYOUTS`` tag layouts used most recently."""

    LAYOUTS = 32  # a class constant, not a field

    layers: list[LayerMemory]
    mem_len: int
    next_position: int = 0
    encodings: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def batch(self) -> int:
        return self.layers[0].buffer.shape[0]

    def check(self, tokens: np.ndarray, skip_mask) -> np.ndarray:
        """The call's [B, L] tokens: training takes any mask."""
        return tokens

    def layouts(self, q_tags: np.ndarray, record):
        """(layer memory, ``w_kr``) -> (offsets, encoding, position keys, no
        grids); a layout (cache tags relative to the first query, block
        length, width, dtype) met before shares its read-only arrays."""
        cache = self.encodings

        def layout(lm: LayerMemory, w_kr: Tensor):
            key = (lm.tags - q_tags[0]).tobytes(), len(q_tags), w_kr.shape[-1], w_kr.dtype
            if (hit := cache.pop(key, None)) is None:
                offsets = relative_offsets(q_tags, np.concatenate([lm.tags, q_tags]))
                enc = encode_offsets(offsets, w_kr.shape[-1])
                enc.vectors = enc.vectors.astype(w_kr.dtype, copy=False)
                for a in (offsets, enc.offsets, enc.vectors):
                    a.flags.writeable = False
                hit = offsets, enc
                if len(cache) >= self.LAYOUTS:
                    del cache[next(iter(cache))]  # the least recently used
            cache[key] = hit
            return *hit, position_keys(hit[1], w_kr), None

        return layout

    def advanced(self, layers: list[LayerMemory], n_tokens: int, logits: Tensor) -> tuple[Tensor, "MemoryState"]:
        return logits, replace(self, layers=layers, next_position=self.next_position + n_tokens)


@dataclass
class StreamLayer:
    """One layer's memory in a stream: the projected keys and values of its
    newest rows, rows <= mem_len, just before ``stop`` in two stores that
    ``StreamState.fresh`` sizes for the memory and the largest call after
    it, and the layer's position keys of the stream's offset encoding.

    ``join`` writes a call's keys and values after them, in place, and
    hands each block of the call its window as a view, valid until the next
    ``join``; ``advanced`` then keeps the newest ``mem_len`` rows, whose
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

    def join(self, keys: Tensor, values: Tensor, lp: LayerParams):
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
            view = np.ndarray(shape, store.dtype, store, first * r, (b, length * r, r, c))
            view.flags.writeable = False
            return Tensor(view)

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
        """Keep the newest ``mem_len`` of the rows ``join`` left; ``x`` is
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
    ``enc`` and of each layer's position keys, and the fronts of ``grids``.
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

    def check(self, tokens: np.ndarray, skip_mask) -> np.ndarray:
        """Refuse a call this stream cannot take, before any write; its tokens as [B, S, L]."""
        if ad.grad_enabled():
            raise RuntimeError("a stream state holds projections of fixed parameters; use it under no_grad only")
        if skip_mask is not None:
            raise ValueError("a stream state runs every layer on every block; it takes no skip mask")
        batch, n_tokens = tokens.shape
        length = min(n_tokens, self.block_len)
        if n_tokens > length:
            full = all(lm.rows == self.mem_len for lm in self.layers)
            if n_tokens % length or n_tokens > self.blocks * length or not full:
                raise ValueError(f"a stream call holds up to {self.blocks} whole blocks, several only over full memory")
        return tokens.reshape(batch, -1, length)

    def layouts(self, q_tags: np.ndarray, record):
        """(layer memory, ``w_kr``) -> (offsets for a ``record``, encoding,
        position keys, grid buffers): the tails of what ``fresh`` built."""
        def layout(lm: StreamLayer, w_kr: Tensor):
            n = lm.rows + len(q_tags)
            offsets = None if record is None else relative_offsets(q_tags, block_tags(q_tags[0] - lm.rows, n))
            enc = OffsetEncodings(self.enc.offsets[:n], self.enc.vectors[-n:], [(0, n, 0)])
            return offsets, enc, Tensor(lm.positions[:, -n:]), self.grids

        return layout

    def advanced(self, layers: list[StreamLayer], n_tokens: int, logits: Tensor) -> tuple[Tensor, "StreamState"]:
        """Advance in place; the logits of the call's blocks as [B, S * L, V]."""
        self.layers, self.next_position = layers, self.next_position + n_tokens
        return Tensor(logits.data.reshape(self.batch, n_tokens, -1)), self


def update_memory(mem, x, skipped: bool, step_tags: np.ndarray, mem_len: int):
    """Next cache state after one step, for a ``LayerMemory`` or a
    ``StreamLayer``.

    Skipped: the same arrays and tags, staleness up one. Executed: the
    newest ``mem_len`` rows of the old rows followed by this step's, fresh
    staleness. ``x`` holds this step's normalised rows.
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
        self.embedding = Tensor(normal(rng, config.init_std, (config.vocab_size, config.d_model), dt), requires_grad=True)
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
        cfg = self.config
        mem_len = cfg.mem_len if mem_len is None else mem_len
        if mem_len < 0:
            raise ValueError(f"mem_len must be nonnegative, got {mem_len}")
        layers = [
            LayerMemory(buffer=np.zeros((batch, 0, cfg.d_model), dtype=cfg.dtype), tags=np.zeros(0, dtype=np.int64))
            for _ in range(cfg.n_layers)
        ]
        return MemoryState(layers=layers, mem_len=mem_len)

    def forward(
        self,
        tokens,
        mems: MemoryState | StreamState,
        skip_mask: np.ndarray | None = None,
        assignments: list[HeadAssignment] | None = None,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
        record: list[LayerTrace] | None = None,
    ) -> tuple[Tensor, MemoryState | StreamState]:
        """One block step: logits for each position plus the advanced memory.

        ``skip_mask`` (length N) marks layers that pass their input through
        untouched this step and keep their cache; ``assignments`` carries one
        head assignment per layer. Both default to the inactive case.

        The memory kind lays out and joins its keys: ``mems.check`` makes its
        refusals and returns the tokens as [B, L] or, for a stream, [B, S, L]
        blocks; ``mems.layouts`` gives each layer's offsets, encoding,
        position keys and grid buffers; a layer memory's ``join`` puts its
        keys and values before the block's; ``mems.advanced`` returns the
        [B, n_tokens, V] logits and the next state.
        """
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.dtype.kind not in "iu":
            raise ValueError(f"token ids must be integers, got dtype {tokens.dtype}")
        if tokens.size == 0:
            raise ValueError("empty token block")
        low, high = np.minimum.reduce(tokens, axis=None), np.maximum.reduce(tokens, axis=None)
        if low < 0 or high >= cfg.vocab_size:
            raise ValueError(f"token id out of range [0, {cfg.vocab_size}): min {low}, max {high}")
        tokens = tokens.astype(np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [B, L], got shape {tokens.shape}")
        batch, n_tokens = tokens.shape

        if len(mems.layers) != cfg.n_layers:
            raise ValueError(f"memory has {len(mems.layers)} layers, model has {cfg.n_layers}")
        if mems.batch != batch:
            raise ValueError(f"memory batch {mems.batch} does not match tokens batch {batch}")
        blocks = mems.check(tokens, skip_mask)
        if skip_mask is None:
            skip_mask = np.zeros(cfg.n_layers, dtype=bool)
        skip_mask = np.asarray(skip_mask, dtype=bool)
        if skip_mask.shape != (cfg.n_layers,):
            raise ValueError(f"skip mask must have length {cfg.n_layers}, got shape {skip_mask.shape}")
        if assignments is not None and len(assignments) != cfg.n_layers:
            raise ValueError(f"need one head assignment per layer, got {len(assignments)}")
        sigmas = [None] * cfg.n_layers if assignments is None else [a.sigma if a.cross_active else None for a in assignments]

        h = ad.index_rows(self.embedding, blocks)
        h = ad.dropout(h, cfg.dropout, dropout_rng, training)
        tags = block_tags(mems.next_position, n_tokens)
        layout = mems.layouts(tags[:blocks.shape[-1]], record)  # every block of a call shares the first's offsets
        new_layers = []
        for i, (lp, lm) in enumerate(zip(self.layers, mems.layers)):
            if skip_mask[i]:
                new_layers.append(update_memory(lm, h, True, tags, mems.mem_len))
                if record is not None:
                    record.append(LayerTrace(layer=i, skipped=True, staleness=lm.staleness, offsets=None))
                continue

            offsets, enc, positions, grids = layout(lm, lp.attn.w_kr)
            if record is not None:
                record.append(LayerTrace(layer=i, skipped=False, staleness=lm.staleness, offsets=offsets))

            x_n, normed = ad.layer_norm(h, lp.ln_attn_g, lp.ln_attn_b)
            # the layer attends to its memory's rows followed by the block's
            keys, values = lm.join(ad.linear(x_n, lp.attn.w_ke), ad.linear(x_n, lp.attn.w_v), lp)
            attn = multi_head_forward(x_n, keys, values, enc, lp.attn, positions, sigmas[i], grids=grids)
            attn = ad.dropout(attn, cfg.dropout, dropout_rng, training)
            h = ad.add(h, attn)

            f_n, _ = ad.layer_norm(h, lp.ln_ffn_g, lp.ln_ffn_b)
            z = ad.relu(ad.linear(f_n, lp.w_ff1, lp.b_ff1))
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            z = ad.linear(z, lp.w_ff2, lp.b_ff2)
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            h = ad.add(h, z)

            new_layers.append(update_memory(lm, normed, False, tags, mems.mem_len))

        final, _ = ad.layer_norm(h, self.ln_out_g, self.ln_out_b)
        logits = ad.linear(final, self.embedding)  # tied weights: the transposed embedding table

        return mems.advanced(new_layers, n_tokens, logits)
