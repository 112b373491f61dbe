"""Layer-skip schedules, per-step mask sampling, the two-phase training
controller, and expected-context accounting.

Skipping layer i keeps its cache frozen for the step, so the next time it
runs its keys reach back further than usual. Summing the per-layer skip
probabilities prices that extra reach in expected tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PHASE_SKIP_RETAIN = "skip_retain"
PHASE_VANILLA = "vanilla"

_PARAMETRIC = ("uniform", "protect_first", "protect_last", "protect_both")
VARIANTS = ("none", "linear") + _PARAMETRIC


@dataclass(frozen=True)
class SkipSchedule:
    """Per-layer skip probability rule.

    ``linear`` ramps with depth and never skips the last layer; the
    ``protect_*`` variants hold one or both boundary layers at zero.
    """

    variant: str
    p: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown schedule variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant in _PARAMETRIC:
            if self.p is None:
                raise ValueError(f"schedule {self.variant!r} needs a probability p")
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"schedule probability must be in [0, 1], got {self.p}")
        elif self.p is not None:
            raise ValueError(f"schedule {self.variant!r} takes no probability parameter")

    @staticmethod
    def none() -> "SkipSchedule":
        return SkipSchedule("none")

    @staticmethod
    def linear() -> "SkipSchedule":
        return SkipSchedule("linear")

    @staticmethod
    def uniform(p: float) -> "SkipSchedule":
        return SkipSchedule("uniform", p)

    @staticmethod
    def protect_first(p: float) -> "SkipSchedule":
        return SkipSchedule("protect_first", p)

    @staticmethod
    def protect_last(p: float) -> "SkipSchedule":
        return SkipSchedule("protect_last", p)

    @staticmethod
    def protect_both(p: float) -> "SkipSchedule":
        return SkipSchedule("protect_both", p)


def p_skip(schedule: SkipSchedule, i: int, n_layers: int) -> float:
    """Skip probability of layer ``i`` (1-based) in an ``n_layers`` stack."""
    if not 1 <= i <= n_layers:
        raise ValueError(f"layer index {i} outside 1..{n_layers}")
    v = schedule.variant
    if v == "none":
        return 0.0
    if v == "linear":
        return 0.0 if i == n_layers else 0.5 * (i - 1) / n_layers
    if v == "uniform":
        return schedule.p
    if v == "protect_first":
        return 0.0 if i == 1 else schedule.p
    if v == "protect_last":
        return 0.0 if i == n_layers else schedule.p
    return 0.0 if i in (1, n_layers) else schedule.p


def schedule_probabilities(schedule: SkipSchedule, n_layers: int) -> np.ndarray:
    return np.array([p_skip(schedule, i, n_layers) for i in range(1, n_layers + 1)])


def sample_skip_mask(
    schedule: SkipSchedule,
    n_layers: int,
    rng: np.random.Generator,
    phase: str = PHASE_SKIP_RETAIN,
) -> np.ndarray:
    """Independent Bernoulli draw per layer; True means skip this step.

    Outside the skip-retain phase, and under the ``none`` schedule, the
    mask is all-false and no RNG draws are consumed.
    """
    if phase != PHASE_SKIP_RETAIN or schedule.variant == "none":
        return np.zeros(n_layers, dtype=bool)
    probs = schedule_probabilities(schedule, n_layers)
    return rng.random(n_layers) < probs


def _check_mem_len(mem_len: int) -> None:
    if mem_len < 0:
        raise ValueError(f"mem_len must be nonnegative, got {mem_len}")


def expected_context_exact(schedule: SkipSchedule, n_layers: int, mem_len: int) -> float:
    """Expected extra context in tokens: sum over layers of p_skip * 2M."""
    _check_mem_len(mem_len)
    return float(sum(p_skip(schedule, i, n_layers) * 2.0 * mem_len for i in range(1, n_layers + 1)))


def expected_context_approx(n_layers: int, mem_len: int) -> float:
    """Closed-form estimate M(N-3)/2 for the depth-ramped schedule."""
    if n_layers < 1:
        raise ValueError(f"layer count must be positive, got {n_layers}")
    _check_mem_len(mem_len)
    return mem_len * (n_layers - 3) / 2.0


def simulate_expected_context(
    schedule: SkipSchedule,
    n_layers: int,
    mem_len: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the per-step context gain."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    _check_mem_len(mem_len)
    probs = schedule_probabilities(schedule, n_layers)
    draws = rng.random((samples, n_layers)) < probs[None, :]
    gains = draws.sum(axis=1) * 2.0 * mem_len
    return float(gains.mean()), float(gains.std(ddof=1) / math.sqrt(samples))


@dataclass
class PhaseController:
    """Switches training from the skip-retain phase to the vanilla phase
    once evaluation perplexity stops improving.

    The switch fires when the best perplexity seen so far beats the best
    from at least ``window`` steps ago by strictly less than ``threshold``.
    It fires at most once and never reverses.

    A reading worse than the best so far leaves that best unchanged, so it
    counts as no improvement whether it is 25 or ``inf``: a diverged
    evaluation after finite ones reads as a plateau and switches. Only when
    every reading is infinite does the comparison (``inf - inf``) never fire.
    The quick-start check in ``benchmark/workloads.py`` re-derives this rule
    from the log and treats such readings the same way.
    """

    window: int
    threshold: float
    phase: str = PHASE_SKIP_RETAIN
    history: list[tuple[int, float]] = field(default_factory=list)
    transition_step: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
        if not self.threshold > 0:  # a NaN threshold would never fire
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.phase not in (PHASE_SKIP_RETAIN, PHASE_VANILLA):
            raise ValueError(f"unknown phase {self.phase!r}")

    def observe(self, step: int, eval_ppl: float) -> bool:
        """Record an evaluation result; True when this call transitions."""
        if math.isnan(eval_ppl):
            raise RuntimeError(f"evaluation perplexity is NaN at step {step}; run aborted")
        self.history.append((int(step), float(eval_ppl)))
        if self.phase != PHASE_SKIP_RETAIN:
            return False
        old = [ppl for s, ppl in self.history if s <= step - self.window]
        if not old:
            return False
        best_overall = min(ppl for _, ppl in self.history)
        improvement = min(old) - best_overall
        if improvement < self.threshold:
            self.phase = PHASE_VANILLA
            self.transition_step = int(step)
            return True
        return False

    def state_dict(self) -> dict:
        return {
            "window": self.window,
            "threshold": self.threshold,
            "phase": self.phase,
            "history": [[s, p] for s, p in self.history],
            "transition_step": self.transition_step,
        }

    @staticmethod
    def from_state(state: dict) -> "PhaseController":
        ts = state["transition_step"]
        return PhaseController(int(state["window"]), float(state["threshold"]), phase=state["phase"],
                               history=[(int(s), float(p)) for s, p in state["history"]],
                               transition_step=None if ts is None else int(ts))

