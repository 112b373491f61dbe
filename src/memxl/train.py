"""Two-phase training loop with recurrent memory, plus streaming
evaluation and bit-exact trainer checkpointing.

Phase 1 samples a skip mask per step; once evaluation perplexity stops
improving the controller switches to phase 2, which trains the full
stack. Head assignments are sampled in both phases (training only).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import sample_head_assignment
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Batches, Vocabulary, batchify
from .model import LayerMemory, MemoryLM, MemoryState, ModelConfig, StreamState
from .optim import AdamState, adam_update, clip_global_norm, cosine_lr
from .rng import RngHub
from .skip import PhaseController, SkipSchedule, sample_skip_mask


def _ensure_parent(path) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 1
    base_lr: float = 0.00025
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    cosine_max_iters: int | None = None  # defaults to steps
    clip_norm: float = 0.25
    seed: int = 0
    schedule: SkipSchedule = field(default_factory=SkipSchedule.none)
    eval_interval: int = 100
    eval_context: int = 64
    eval_block: int = 32
    window: int = 64000
    threshold: float = 0.2

    def __post_init__(self):
        for name in ("steps", "batch_size", "eval_interval", "eval_block", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("base_lr", "clip_norm", "adam_eps", "threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.cosine_max_iters is not None and self.cosine_max_iters < 1:
            raise ValueError(f"cosine_max_iters must be positive, got {self.cosine_max_iters}")
        if self.eval_context < self.eval_block:
            raise ValueError(
                f"eval_context ({self.eval_context}) must be >= eval_block ({self.eval_block})"
            )

    @property
    def max_iters(self) -> int:
        return self.cosine_max_iters if self.cosine_max_iters is not None else self.steps

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        d["schedule"] = SkipSchedule(**d["schedule"])
        return TrainConfig(**d)


@dataclass
class EvalReport:
    nll: float   # nats per token
    ppl: float
    bpc: float
    tokens: int
    context: int

    def __post_init__(self):
        if self.ppl < 1.0:
            raise ValueError(f"perplexity below 1 ({self.ppl}); NLL must be nonnegative")


# Entries of the [S, H, eval_block, eval_context] attention scores that one
# evaluation call may hold; S, the blocks per call, is the most that fit.
EVAL_SCORES = 2**14


def evaluate(
    model: MemoryLM,
    ids: np.ndarray,
    eval_context: int,
    eval_block: int,
    prune: np.ndarray | None = None,
) -> EvalReport:
    """Stream a split in ``eval_block`` blocks with recurrent memory sized
    ``eval_context - eval_block`` and average NLL over every scored token.

    The memory is a ``StreamState``: from call to call it carries each
    layer's projected keys and values of the newest rows, which cannot
    change while the parameters are fixed. ``StreamState.fresh`` encodes the
    full memory's offsets and projects each layer's position keys once, of
    which every call reads a tail, and sizes the key/value stores and
    score-grid buffers for S blocks per call up front, which the calls
    rewrite in place. It lives for this evaluation only.

    Once the memory is full, one ``MemoryLM.forward`` call runs a chunk of
    S whole blocks, the most whose attention scores fit in ``EVAL_SCORES``
    entries and that the split holds, and at least one. Blocks whose memory
    is still filling, and a short last block, run one per call. The call's
    per-token NLLs are taken in one pass over its logits (``ad.token_nll``);
    each block's mean is summed block by block, so the result does not
    depend on S.

    Deterministic: no skipping, no head resampling, no dropout.
    """
    ids = np.asarray(ids)
    if eval_block < 1:
        raise ValueError(f"eval_block must be positive, got {eval_block}")
    if eval_context < eval_block:
        raise ValueError(f"eval_context ({eval_context}) must be >= eval_block ({eval_block})")
    if len(ids) < eval_block:
        raise ValueError(f"split of {len(ids)} tokens is shorter than one block of {eval_block}")
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:
        raise ValueError(f"token id out of range [0, {model.config.vocab_size})")
    n_scored = len(ids) - 1
    if n_scored < 1:
        raise ValueError("split too short to score any token")
    if prune is not None and not np.asarray(prune, dtype=bool).any(axis=-1).all():
        raise ValueError("every layer needs at least one unpruned head to report perplexity")

    mem_len = eval_context - eval_block
    chunk = max(1, min(EVAL_SCORES // (model.config.n_heads * eval_block * eval_context), n_scored // eval_block))
    mems = StreamState.fresh(model, 1, mem_len, eval_block, chunk)
    total, start = 0.0, 0
    with ad.no_grad():
        while start < n_scored:
            blocks = min(chunk if start >= mem_len else 1, (n_scored - start) // eval_block)
            stop = start + blocks * eval_block if blocks else n_scored
            logits, mems = model.forward(ids[start:stop][None, :], mems, prune=prune)
            token_nll, _, _ = ad.token_nll(logits.data[0], ids[start + 1 : stop + 1])  # [S * L, 1]
            for a in range(0, stop - start, eval_block):
                block = token_nll[a : a + eval_block]
                total += float(block.mean()) * len(block)
            start = stop
    nll = total / n_scored
    try:
        ppl = math.exp(nll)
    except OverflowError:  # nll above ~709.78 nats: finite NLL, infinite perplexity
        ppl = math.inf
    return EvalReport(nll=nll, ppl=ppl, bpc=nll / math.log(2.0), tokens=n_scored, context=eval_context)


LOG_HEADER = "step\tphase\tlr\ttrain_nll\teval_ppl"


@dataclass
class LogRow:
    step: int
    phase: str
    lr: float
    train_nll: float
    eval_ppl: float | None = None
    grad_norm: float | None = None  # before clipping; kept in memory, not written to the log file

    def line(self) -> str:
        tail = "" if self.eval_ppl is None else f"{self.eval_ppl:.6f}"
        return f"{self.step}\t{self.phase}\t{self.lr:.8g}\t{self.train_nll:.8f}\t{tail}"


class Trainer:
    """Owns one training run: model, optimizer, memory, controller, RNG."""

    def __init__(
        self,
        model: MemoryLM,
        cfg: TrainConfig,
        batches: Batches,
        eval_ids: np.ndarray | None,
        hub: RngHub,
        vocab: Vocabulary | None = None,
        log_path=None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
    ):
        self.model = model
        self.cfg = cfg
        self.batches = batches
        self.eval_ids = None if eval_ids is None else np.asarray(eval_ids)
        self.hub = hub
        self.vocab = vocab
        self.adam = AdamState(model.named_parameters())
        self.mems = model.init_memory(batch=batches.batch)
        self.controller = PhaseController(cfg.window, cfg.threshold)
        self.step = 0
        self.log: list[LogRow] = []
        self.log_path = log_path
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        if log_path is not None and not os.path.exists(log_path):
            _ensure_parent(log_path)
            with open(log_path, "w") as f:
                f.write(LOG_HEADER + "\n")

    @property
    def phase(self) -> str:
        return self.controller.phase

    def train_step(self) -> LogRow:
        cfg, model = self.cfg, self.model
        mcfg = model.config
        phase = self.controller.phase

        rng = self.hub.state_dict()  # before this step's draws, so that a .diag replays them
        mask = sample_skip_mask(cfg.schedule, mcfg.n_layers, self.hub["skip"], phase)
        assignments = [
            sample_head_assignment(self.hub["heads"], mcfg.beta, mcfg.n_heads)
            for _ in range(mcfg.n_layers)
        ]
        inputs, targets = self.batches.step(self.step)

        try:  # non-finite scores stop the forward before the loss can go NaN
            logits, new_mems = model.forward(
                inputs,
                self.mems,
                skip_mask=mask,
                assignments=assignments,
                training=True,
                dropout_rng=self.hub["dropout"],
            )
        except RuntimeError as err:
            self._abort(f"{err} at step {self.step}", rng)
        loss = ad.cross_entropy(logits, targets)
        nll = float(loss.data)
        if not math.isfinite(nll):
            self._abort(f"non-finite training loss ({nll}) at step {self.step}", rng)

        for _, p, _ in self.adam.table:
            p.grad = None
        ad.backward(loss)
        grad_norm = clip_global_norm(self.adam.gather_grads(), cfg.clip_norm)
        if not math.isfinite(grad_norm):  # clipping scaled the buffer, but inf * 0 is NaN: the bad entries stay
            bad = [name for (name, _, _), g in zip(self.adam.table, self.adam.grads) if not np.isfinite(g).all()]
            where = f"in {', '.join(bad)}" if bad else "with every entry finite: the sum of squares overflowed"
            self._abort(f"non-finite gradient norm ({grad_norm}) at step {self.step} {where}", rng)
        lr = cosine_lr(self.step, cfg.base_lr, cfg.max_iters)
        adam_update(self.adam, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

        self.mems = new_mems
        self.step += 1
        row = LogRow(step=self.step, phase=phase, lr=lr, train_nll=nll, grad_norm=grad_norm)

        if self.eval_ids is not None and self.step % cfg.eval_interval == 0:
            report = evaluate(model, self.eval_ids, cfg.eval_context, cfg.eval_block)
            self.controller.observe(self.step, report.ppl)
            row.eval_ppl = report.ppl

        self.log.append(row)
        if self.log_path is not None:
            with open(self.log_path, "a") as f:
                f.write(row.line() + "\n")
        return row

    def _abort(self, message: str, rng: dict) -> None:
        """Raise ``message``, first saving the trainer beside the checkpoint as
        ``.diag``; the failed step has not touched its arena, moments or
        memory, and ``rng`` holds the streams as they were before it drew, so
        a trainer resumed from the ``.diag`` replays the step."""
        if self.checkpoint_path is not None:
            diag = str(self.checkpoint_path) + ".diag"
            self.save(diag, rng)
            message += f"; diagnostic checkpoint at {diag}"
        raise RuntimeError(message)

    def run(self, until: int | None = None) -> None:
        target = self.cfg.steps if until is None else until
        while self.step < target:
            self.train_step()
            if (
                self.checkpoint_every
                and self.checkpoint_path is not None
                and self.step % self.checkpoint_every == 0
            ):
                self.save(self.checkpoint_path)

    # -- persistence -------------------------------------------------------

    def save(self, path, rng: dict | None = None) -> None:
        """Write the trainer to ``path``; ``rng``, when given, is the
        ``RngHub.state_dict`` to store in place of the hub's current one."""
        model = self.model
        meta = {
            "kind": "trainer",
            "model_config": asdict(model.config),
            "train_config": self.cfg.to_dict(),
            "step": self.step,
            "controller": self.controller.state_dict(),
            "rng": self.hub.state_dict() if rng is None else rng,
            "adam_t": self.adam.t,
            "mem": {
                "mem_len": self.mems.mem_len,
                "next_position": self.mems.next_position,
                "staleness": [lm.staleness for lm in self.mems.layers],
            },
            "vocab": self.vocab.to_dict() if self.vocab is not None else None,
        }
        arrays: dict[str, np.ndarray] = {}
        adam = self.adam
        for (name, p, _), m, v in zip(adam.table, adam.views(adam.m), adam.views(adam.v)):
            arrays[f"param.{name}"] = p.data
            arrays[f"adam_m.{name}"] = m
            arrays[f"adam_v.{name}"] = v
        for i, lm in enumerate(self.mems.layers):
            arrays[f"mem.{i}.buffer"] = lm.buffer
            arrays[f"mem.{i}.tags"] = lm.tags
        _ensure_parent(path)
        save_checkpoint(path, meta, arrays)

    @staticmethod
    def load(
        path,
        batches: Batches,
        eval_ids: np.ndarray | None = None,
        log_path=None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
    ) -> "Trainer":
        meta, arrays = load_checkpoint(path)
        if meta.get("kind") != "trainer":
            raise ValueError(f"checkpoint kind {meta.get('kind')!r} cannot resume training")
        mcfg = ModelConfig(**meta["model_config"])
        cfg = TrainConfig.from_dict(meta["train_config"])
        hub = RngHub(meta["rng"]["seed"])
        model = MemoryLM(mcfg, hub["init"])
        hub.load_state(meta["rng"])
        vocab = Vocabulary.from_dict(meta["vocab"]) if meta.get("vocab") else None

        trainer = Trainer(
            model,
            cfg,
            batches,
            eval_ids,
            hub,
            vocab=vocab,
            log_path=log_path,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        _restore_parameters(model, arrays)
        adam = trainer.adam
        for (name, _, _), m, v in zip(adam.table, adam.views(adam.m), adam.views(adam.v)):
            m[...] = arrays[f"adam_m.{name}"]
            v[...] = arrays[f"adam_v.{name}"]
        adam.t = int(meta["adam_t"])
        # the arrays are views of the file's bytes: copy what stays live, so the rest is freed
        trainer.mems = MemoryState(
            layers=[
                LayerMemory(
                    buffer=arrays[f"mem.{i}.buffer"].copy(),
                    tags=arrays[f"mem.{i}.tags"].copy(),
                    staleness=int(meta["mem"]["staleness"][i]),
                )
                for i in range(mcfg.n_layers)
            ],
            mem_len=int(meta["mem"]["mem_len"]),
            next_position=int(meta["mem"]["next_position"]),
        )
        trainer.controller = PhaseController.from_state(meta["controller"])
        trainer.step = int(meta["step"])
        return trainer


def _restore_parameters(model: MemoryLM, arrays: dict[str, np.ndarray]) -> None:
    """Copy the checkpoint's ``param.{name}`` arrays into the parameters of the same shape."""
    for name, p in model.named_parameters():
        stored = arrays[f"param.{name}"]
        if stored.shape != p.shape:
            raise ValueError(f"checkpoint parameter {name} has shape {stored.shape}, expected {p.shape}")
        p.data[...] = stored


def save_model(path, model: MemoryLM, vocab: Vocabulary | None = None) -> None:
    """Parameters-only checkpoint, enough for evaluation and pruning."""
    meta = {
        "kind": "model",
        "model_config": asdict(model.config),
        "vocab": vocab.to_dict() if vocab is not None else None,
    }
    _ensure_parent(path)
    save_checkpoint(path, meta, {f"param.{name}": p.data for name, p in model.named_parameters()})


def load_model(path) -> tuple[MemoryLM, Vocabulary | None]:
    """Rebuild a model (and its vocabulary, when stored) from any checkpoint."""
    meta, arrays = load_checkpoint(path)
    if meta.get("kind") not in ("model", "trainer"):
        raise ValueError(f"not a model checkpoint: kind {meta.get('kind')!r}")
    model = MemoryLM(ModelConfig(**meta["model_config"]), np.random.default_rng(0))
    _restore_parameters(model, arrays)
    vocab = Vocabulary.from_dict(meta["vocab"]) if meta.get("vocab") else None
    return model, vocab


def train(
    model: MemoryLM,
    train_ids: np.ndarray,
    cfg: TrainConfig,
    hub: RngHub,
    eval_ids: np.ndarray | None = None,
    vocab: Vocabulary | None = None,
    log_path=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
) -> Trainer:
    """Run a full training job; evaluation defaults to the training split."""
    batches = batchify(train_ids, cfg.batch_size, model.config.block_len)
    trainer = Trainer(
        model,
        cfg,
        batches,
        eval_ids if eval_ids is not None else train_ids,
        hub,
        vocab=vocab,
        log_path=log_path,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )
    trainer.run()
    return trainer
