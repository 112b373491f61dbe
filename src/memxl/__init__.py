"""Memory-recurrent transformer language modeling with stochastic layer
skipping (retained memory) and stochastic cross-head attention."""

from .autodiff import FiniteDiffReport, Tensor, backward, finite_diff_check, no_grad
from .attention import HeadAssignment, LayerAttentionParams, sample_head_assignment
from .analysis import (
    ContextReport,
    PositionAudit,
    PruneReport,
    expected_context_report,
    grad_check_model,
    pct_change,
    position_audit,
    run_prune_experiment,
    sample_stddev,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Batches, Corpus, Vocabulary, batchify, corpus_from_text, load_corpus
from .model import LayerMemory, MemoryLM, MemoryState, ModelConfig, update_memory
from .optim import AdamState, adam_update, clip_global_norm, cosine_lr
from .relpos import block_tags, encode_offsets, relative_offsets
from .rng import RngHub
from .skip import (
    PHASE_SKIP_RETAIN,
    PHASE_VANILLA,
    PhaseController,
    SkipSchedule,
    expected_context_approx,
    expected_context_exact,
    p_skip,
    sample_skip_mask,
    simulate_expected_context,
)
from .train import EvalReport, TrainConfig, Trainer, evaluate, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Batches",
    "ContextReport",
    "Corpus",
    "EvalReport",
    "FiniteDiffReport",
    "HeadAssignment",
    "LayerAttentionParams",
    "LayerMemory",
    "MemoryLM",
    "MemoryState",
    "ModelConfig",
    "PHASE_SKIP_RETAIN",
    "PHASE_VANILLA",
    "PhaseController",
    "PositionAudit",
    "PruneReport",
    "RngHub",
    "SkipSchedule",
    "Tensor",
    "TrainConfig",
    "Trainer",
    "Vocabulary",
    "adam_update",
    "backward",
    "batchify",
    "block_tags",
    "clip_global_norm",
    "corpus_from_text",
    "cosine_lr",
    "encode_offsets",
    "evaluate",
    "expected_context_approx",
    "expected_context_exact",
    "expected_context_report",
    "finite_diff_check",
    "grad_check_model",
    "load_checkpoint",
    "load_corpus",
    "load_model",
    "no_grad",
    "p_skip",
    "pct_change",
    "position_audit",
    "relative_offsets",
    "run_prune_experiment",
    "sample_head_assignment",
    "sample_skip_mask",
    "sample_stddev",
    "save_checkpoint",
    "save_model",
    "simulate_expected_context",
    "train",
    "update_memory",
]
