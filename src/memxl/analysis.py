"""Study harnesses: single-head pruning sweeps, relative-position audits,
expected-context accounting, and finite-difference gradient checks."""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .attention import HeadAssignment
from .autodiff import FiniteDiffReport, Tensor, finite_diff_check
from .data import batchify
from .model import LayerTrace, MemoryLM, ModelConfig
from .rng import RngHub
from .skip import (
    SkipSchedule,
    expected_context_approx,
    expected_context_exact,
    sample_skip_mask,
    schedule_probabilities,
    simulate_expected_context,
)
from .train import evaluate


def sample_stddev(values) -> float:
    """Standard deviation with the n-1 denominator."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError(f"need at least 2 values for a sample stddev, got {values.size}")
    return float(values.std(ddof=1))


def pct_change(new: float, ref: float) -> float:
    if ref == 0:
        raise ValueError("reference value is zero; percent change undefined")
    return 100.0 * (new - ref) / ref


# -- head pruning ----------------------------------------------------------

@dataclass
class PruneReport:
    """Perplexity deltas from zeroing one attention head at a time."""

    baseline_ppl: float
    delta: np.ndarray             # [N, H], pruned PPL minus baseline
    stddev: np.ndarray            # [N], sample stddev of each layer's row
    stddev_change: np.ndarray | None = None  # [N], percent vs a reference

    def table(self) -> str:
        n_layers, n_heads = self.delta.shape
        head_cols = "".join(f"{f'h{h + 1}':>9}" for h in range(n_heads))
        lines = [
            f"baseline PPL {self.baseline_ppl:.4f}",
            f"{'layer':>5}{head_cols}{'stddev':>9}" + ("{:>10}".format("% change") if self.stddev_change is not None else ""),
        ]
        for i in range(n_layers):
            row = f"{i + 1:>5}" + "".join(f"{d:>9.3f}" for d in self.delta[i])
            row += f"{self.stddev[i]:>9.3f}"
            if self.stddev_change is not None:
                row += f"{self.stddev_change[i]:>10.1f}"
            lines.append(row)
        return "\n".join(lines)

    def rows(self) -> list[list]:
        out = []
        for i in range(self.delta.shape[0]):
            change = "" if self.stddev_change is None else f"{self.stddev_change[i]:.6f}"
            out.append([i + 1] + [f"{d:.6f}" for d in self.delta[i]] + [f"{self.stddev[i]:.6f}", change])
        return out


def prune_heads(model: MemoryLM, keep) -> MemoryLM:
    """A shallow copy of ``model`` for evaluation without the heads that
    ``keep``, an [N, H] boolean array, marks False: it shares every parameter
    but each such layer's ``w_o``, a copy with those heads' columns zero."""
    cfg, keep = model.config, np.asarray(keep, dtype=bool)
    if keep.shape != (cfg.n_layers, cfg.n_heads) or not keep.any(axis=1).all():
        raise ValueError(f"keep must be {cfg.n_layers} x {cfg.n_heads} with an unpruned head in each layer: {keep.tolist()}")
    pruned = copy.copy(model)
    pruned.layers = list(model.layers)
    for i in np.flatnonzero(~keep.all(axis=1)):  # head h's columns of w_o: h*d_h .. (h+1)*d_h-1
        w_o = Tensor(np.where(keep[i].repeat(cfg.d_head), model.layers[i].attn.w_o.data, 0.0))
        pruned.layers[i] = replace(model.layers[i], attn=replace(model.layers[i].attn, w_o=w_o))
    return pruned


def run_prune_experiment(
    model: MemoryLM,
    ids: np.ndarray,
    eval_context: int,
    eval_block: int,
    reference_stddev: np.ndarray | None = None,
) -> PruneReport:
    """Evaluate the baseline once, then once per single pruned head.

    Each evaluation is independent, so the sweep is order-invariant. A
    ``reference_stddev`` is checked before the first evaluation.
    """
    n_layers, n_heads = model.config.n_layers, model.config.n_heads
    if n_heads < 2:
        raise ValueError("single-head layers cannot be pruned meaningfully; need n_heads >= 2")
    if reference_stddev is not None:
        reference_stddev = np.asarray(reference_stddev, dtype=np.float64)
        if reference_stddev.shape != (n_layers,):
            raise ValueError(f"reference stddev must have length {n_layers}, got {reference_stddev.shape}")
        if not reference_stddev.all():
            raise ValueError("reference value is zero; percent change undefined")
    baseline = evaluate(model, ids, eval_context, eval_block)
    delta = np.zeros((n_layers, n_heads))
    for layer in range(n_layers):
        for head in range(n_heads):
            keep = np.ones((n_layers, n_heads), dtype=bool)
            keep[layer, head] = False
            delta[layer, head] = evaluate(prune_heads(model, keep), ids, eval_context, eval_block).ppl - baseline.ppl
    stddev = np.array([sample_stddev(row) for row in delta])
    change = None
    if reference_stddev is not None:
        change = np.array([pct_change(new, ref) for new, ref in zip(stddev, reference_stddev)])
    return PruneReport(baseline_ppl=baseline.ppl, delta=delta, stddev=stddev, stddev_change=change)


# -- relative-position audit -------------------------------------------------

SECTIONS = ("phase1", "phase2", "eval")


@dataclass
class PositionAudit:
    """Per-layer histograms of every scored relative offset, collected
    separately for phase-1 training, phase-2 training, and evaluation."""

    phase1: list[dict[int, int]]
    phase2: list[dict[int, int]]
    eval: list[dict[int, int]]

    def section(self, name: str) -> list[dict[int, int]]:
        if name not in SECTIONS:
            raise ValueError(f"unknown section {name!r}; expected one of {SECTIONS}")
        return getattr(self, name)

    def total(self, name: str) -> int:
        return sum(sum(h.values()) for h in self.section(name))

    def max_offset(self, name: str, layer: int) -> int | None:
        hist = self.section(name)[layer]
        return max(hist) if hist else None

    def rows(self) -> list[list]:
        out = []
        for name in SECTIONS:
            for layer, hist in enumerate(self.section(name)):
                for offset in sorted(hist):
                    out.append([name, layer + 1, offset, hist[offset]])
        return out


def _accumulate(record: list[LayerTrace], hists: list[dict[int, int]]) -> None:
    for trace in record:
        if trace.skipped:
            continue
        hist = hists[trace.layer]
        for v, c in Counter(trace.offsets[trace.offsets >= 0].tolist()).items():
            hist[v] = hist.get(v, 0) + c


def position_audit(
    model: MemoryLM,
    ids: np.ndarray,
    schedule: SkipSchedule,
    hub: RngHub,
    steps: int = 50,
    eval_context: int | None = None,
    eval_block: int | None = None,
) -> PositionAudit:
    """Drive the forward loop and histogram the relative offsets each layer
    actually scores. Phase 1 samples skip masks from ``schedule``; phase 2
    and evaluation never skip."""
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    cfg = model.config
    if eval_block is None:
        eval_block = cfg.block_len
    if eval_context is None:
        eval_context = cfg.mem_len + cfg.block_len
    if eval_context < eval_block:
        raise ValueError(f"eval_context ({eval_context}) must be >= eval_block ({eval_block})")
    audit = PositionAudit(*([{} for _ in range(cfg.n_layers)] for _ in SECTIONS))
    sections = (
        (audit.phase1, cfg.block_len, cfg.mem_len, True),
        (audit.phase2, cfg.block_len, cfg.mem_len, False),
        (audit.eval, eval_block, eval_context - eval_block, False),
    )
    with ad.no_grad():
        for hists, block, mem_len, sampled in sections:
            batches = batchify(ids, 1, block)
            mems = model.init_memory(1, mem_len=mem_len)
            for t in range(steps):
                mask = sample_skip_mask(schedule, cfg.n_layers, hub["skip"]) if sampled else None
                record: list[LayerTrace] = []
                _, mems = model.forward(batches.step(t)[0], mems, skip_mask=mask, record=record)
                _accumulate(record, hists)
    return audit


# -- expected context ----------------------------------------------------------

@dataclass
class ContextReport:
    schedule: SkipSchedule
    n_layers: int
    mem_len: int
    probs: np.ndarray
    exact: float
    approx: float
    sim_mean: float
    sim_stderr: float
    samples: int

    def table(self) -> str:
        lines = [f"{'layer':>5}  {'p_skip':>8}"]
        lines += [f"{i + 1:>5}  {p:>8.4f}" for i, p in enumerate(self.probs)]
        lines += [
            f"exact expectation      {self.exact:.4f}",
            f"closed-form estimate   {self.approx:.4f}",
            f"simulated mean         {self.sim_mean:.4f} (stderr {self.sim_stderr:.4f}, {self.samples} samples)",
        ]
        return "\n".join(lines)


def expected_context_report(
    schedule: SkipSchedule,
    n_layers: int,
    mem_len: int,
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ContextReport:
    if rng is None:
        rng = np.random.default_rng(0)
    mean, stderr = simulate_expected_context(schedule, n_layers, mem_len, samples, rng)
    return ContextReport(
        schedule=schedule,
        n_layers=n_layers,
        mem_len=mem_len,
        probs=schedule_probabilities(schedule, n_layers),
        exact=expected_context_exact(schedule, n_layers, mem_len),
        approx=expected_context_approx(n_layers, mem_len),
        sim_mean=mean,
        sim_stderr=stderr,
        samples=samples,
    )


# -- gradient checks ----------------------------------------------------------

def check_config() -> ModelConfig:
    """Small double-precision shape used by the gradient-check command."""
    return ModelConfig(
        n_layers=2,
        d_model=8,
        d_inner=16,
        n_heads=2,
        d_head=4,
        mem_len=4,
        block_len=4,
        vocab_size=11,
        dropout=0.0,
        beta=0.0,
        init_std=0.25,
        param_dtype="float64",
    )


def grad_check_model(
    config: ModelConfig | None = None,
    seed: int = 0,
    step: float = 1e-5,
    tol: float = 1e-5,
) -> dict[str, FiniteDiffReport]:
    """Finite-difference verification of every parameter gradient under
    four regimes: plain, layer 0 skipped, heads crossed, and both, over one
    memory: a warm block, then the same block twice with the last layer
    skipped, so its cache is two blocks stale and its tags stop short of the
    checked block. Stochastic inputs (mask, assignment, memory) are fixed up
    front so the loss is a deterministic function of the parameters.
    """
    cfg = config if config is not None else check_config()
    if cfg.param_dtype != "float64":
        raise ValueError("gradient checking needs the float64 build")
    hub = RngHub(seed)
    model = MemoryLM(cfg, hub["init"])
    data = hub["data"]
    warm = data.integers(0, cfg.vocab_size, size=(1, cfg.block_len))
    tokens = data.integers(0, cfg.vocab_size, size=(1, cfg.block_len))
    targets = data.integers(0, cfg.vocab_size, size=(1, cfg.block_len))
    layer = np.arange(cfg.n_layers)
    with ad.no_grad():
        _, mems = model.forward(warm, model.init_memory(1))
        for _ in range(2):
            _, mems = model.forward(warm, mems, skip_mask=layer == cfg.n_layers - 1)

    identity = [HeadAssignment.identity(cfg.n_heads) for _ in range(cfg.n_layers)]
    rolled = np.roll(np.arange(cfg.n_heads, dtype=np.int64), 1)
    crossed = [HeadAssignment(sigma=rolled.copy(), cross_active=True) for _ in range(cfg.n_layers)]
    no_skip = np.zeros(cfg.n_layers, dtype=bool)
    skip_first = layer == 0
    regimes = {
        "baseline": (no_skip, identity),
        "skip": (skip_first, identity),
        "cross": (no_skip, crossed),
        "skip_cross": (skip_first, crossed),
    }

    reports = {}
    for name, (mask, assigns) in regimes.items():
        def f(mask=mask, assigns=assigns):
            logits, _ = model.forward(tokens, mems, skip_mask=mask, assignments=assigns)
            return ad.cross_entropy(logits, targets)

        reports[name] = finite_diff_check(f, model.named_parameters(), step=step, tol=tol)
    return reports
