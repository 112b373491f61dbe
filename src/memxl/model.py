"""Memory-augmented autoregressive transformer stack.

Each layer caches its most recent input activations (detached) together
with their absolute positions; the next step's attention keys extend
over those cached rows. A layer can be skipped for a step, in which case
it passes its input through unchanged and keeps its cache as-is, growing
the relative offsets its next update will see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import HeadAssignment, LayerAttentionParams, multi_head_forward
from .relpos import block_tags, encode_offsets, relative_offsets


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

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.attn.named(f"{prefix}.attn")
        out += [
            (f"{prefix}.ln_attn_g", self.ln_attn_g),
            (f"{prefix}.ln_attn_b", self.ln_attn_b),
            (f"{prefix}.w_ff1", self.w_ff1),
            (f"{prefix}.b_ff1", self.b_ff1),
            (f"{prefix}.w_ff2", self.w_ff2),
            (f"{prefix}.b_ff2", self.b_ff2),
            (f"{prefix}.ln_ffn_g", self.ln_ffn_g),
            (f"{prefix}.ln_ffn_b", self.ln_ffn_b),
        ]
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


def update_memory(mem: LayerMemory, x, skipped: bool, step_tags: np.ndarray, mem_len: int) -> LayerMemory:
    """Next cache state after one step.

    Skipped: buffer and tags unchanged (same arrays), staleness up one.
    Executed: last ``mem_len`` rows of (old buffer ++ detached x), fresh
    staleness. ``x`` holds the layer's input activations for this step.
    """
    if skipped:
        return LayerMemory(buffer=mem.buffer, tags=mem.tags, staleness=mem.staleness + 1)
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if mem_len == 0:
        return LayerMemory(buffer=mem.buffer[:, :0, :], tags=mem.tags[:0], staleness=0)
    buffer = np.concatenate([mem.buffer, data], axis=1)[:, -mem_len:, :]
    tags = np.concatenate([mem.tags, np.asarray(step_tags, dtype=np.int64)])[-mem_len:]
    return LayerMemory(buffer=buffer, tags=tags, staleness=0)


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
            out += layer.named(f"layers.{i}")
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

    def embed(self, tokens: np.ndarray) -> Tensor:
        tokens = self._check_tokens(tokens)
        return ad.index_rows(self.embedding, tokens)

    def project(self, h: Tensor) -> Tensor:
        """Logits via the transposed embedding table (tied weights)."""
        return ad.matmul(h, ad.transpose(self.embedding))

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
        mems: MemoryState,
        skip_mask: np.ndarray | None = None,
        assignments: list[HeadAssignment] | None = None,
        prune: np.ndarray | None = None,
        training: bool = False,
        dropout_rng: np.random.Generator | None = None,
        record: list[LayerTrace] | None = None,
    ) -> tuple[Tensor, MemoryState]:
        """One block step: logits for each position plus the advanced memory.

        ``skip_mask`` (length N) marks layers that pass their input through
        untouched this step and keep their cache; ``assignments`` carries one
        head assignment per layer. Both default to the inactive case.
        """
        cfg = self.config
        tokens = self._check_tokens(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [L] or [B, L], got shape {tokens.shape}")
        batch, length = tokens.shape

        if len(mems.layers) != cfg.n_layers:
            raise ValueError(f"memory has {len(mems.layers)} layers, model has {cfg.n_layers}")
        if mems.batch != batch:
            raise ValueError(f"memory batch {mems.batch} does not match tokens batch {batch}")
        if skip_mask is None:
            skip_mask = np.zeros(cfg.n_layers, dtype=bool)
        skip_mask = np.asarray(skip_mask, dtype=bool)
        if skip_mask.shape != (cfg.n_layers,):
            raise ValueError(f"skip mask must have length {cfg.n_layers}, got shape {skip_mask.shape}")
        if assignments is not None and len(assignments) != cfg.n_layers:
            raise ValueError(f"need one head assignment per layer, got {len(assignments)}")
        prune = self._check_prune(prune)

        h = ad.index_rows(self.embedding, tokens)
        h = ad.dropout(h, cfg.dropout, dropout_rng, training)
        q_tags = block_tags(mems.next_position, length)

        layouts = {}  # cache tags -> (offsets, encodings), shared by layers whose caches hold the same tags
        new_layers: list[LayerMemory] = []
        for i, (lp, lm) in enumerate(zip(self.layers, mems.layers)):
            if skip_mask[i]:
                new_layers.append(update_memory(lm, h, True, q_tags, mems.mem_len))
                if record is not None:
                    record.append(LayerTrace(layer=i, skipped=True, staleness=lm.staleness, offsets=None))
                continue

            layer_input = h
            layout = lm.tags.tobytes()
            if layout not in layouts:
                offsets = relative_offsets(q_tags, np.concatenate([lm.tags, q_tags]))
                layouts[layout] = offsets, encode_offsets(offsets, cfg.d_model)
            offsets, enc = layouts[layout]
            if record is not None:
                record.append(LayerTrace(layer=i, skipped=False, staleness=lm.staleness, offsets=offsets))

            x_n = ad.layer_norm(h, lp.ln_attn_g, lp.ln_attn_b)
            mem_n = None
            if lm.buffer.shape[1] > 0:
                mem_n = ad.layer_norm(Tensor(lm.buffer.astype(cfg.dtype, copy=False)), lp.ln_attn_g, lp.ln_attn_b)
            sigma = assignments[i] if assignments is not None else None
            attn = multi_head_forward(x_n, mem_n, enc, lp.attn, sigma, prune[i] if prune is not None else None)
            attn = ad.dropout(attn, cfg.dropout, dropout_rng, training)
            h = ad.add(h, attn)

            f_n = ad.layer_norm(h, lp.ln_ffn_g, lp.ln_ffn_b)
            z = ad.relu(ad.add(ad.matmul(f_n, ad.transpose(lp.w_ff1)), lp.b_ff1))
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            z = ad.add(ad.matmul(z, ad.transpose(lp.w_ff2)), lp.b_ff2)
            z = ad.dropout(z, cfg.dropout, dropout_rng, training)
            h = ad.add(h, z)

            new_layers.append(update_memory(lm, layer_input, False, q_tags, mems.mem_len))

        final = ad.layer_norm(h, self.ln_out_g, self.ln_out_b)
        logits = self.project(final)
        if squeeze:
            logits = ad.reshape(logits, logits.shape[1:])

        new_state = MemoryState(layers=new_layers, mem_len=mems.mem_len, next_position=mems.next_position + length)
        return logits, new_state

    def _check_prune(self, prune):
        if prune is None:
            return None
        prune = np.asarray(prune, dtype=bool)
        expect = (self.config.n_layers, self.config.n_heads)
        if prune.shape != expect:
            raise ValueError(f"prune mask must have shape {expect}, got {prune.shape}")
        return prune
