"""The benchmark's three workloads, each with its set-up, its timed round
and the checks that its outputs are right.

Every call into memxl goes through a module attribute looked up at call
time (``T.evaluate``, not a name imported once), so the tracer's wrappers
see the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import importlib
import io
import math
import runpy
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import patched

ROOT = Path(__file__).resolve().parent.parent
# import_module returns the module; the attribute ``memxl.train`` is the train() function
AD, T, M, CLI, DATA, SKIP, ATT, RNG = (
    importlib.import_module(f"memxl.{name}")
    for name in ("autodiff", "train", "model", "cli", "data", "skip", "attention", "rng")
)

# The ROADMAP's middle shape: d128, 4 layers, memory and block of 64.
D128 = dict(n_layers=4, d_model=128, d_inner=512, n_heads=4, d_head=32)
VOCAB = 128
MIN_TAIL_STEPS = 100  # a p90 needs at least this many timed steps


class Ledger:
    """Operations attempted, by kind, and the checks that failed."""

    def __init__(self):
        self.attempted = Counter(dict.fromkeys(("steps", "eval_blocks", "saves", "loads", "checks"), 0))
        self.failures: list[str] = []

    def did(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] += n

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted["checks"] += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


@dataclass
class Round:
    tokens: int
    wall: float         # seconds the user waits for
    steps: list[float]  # CPU seconds per step or block


@contextmanager
def timed_calls(owner, attr: str):
    """Yield a list that gets ``(wall start, CPU seconds, first argument)``
    for every call of ``owner.attr`` inside the block.

    Step and block times are this thread's CPU time, not wall time: on a
    shared machine the process is now and then kept off the CPU, which puts a
    tail on the wall times of short steps that says nothing about memxl.  Over
    five quick-start rounds in one process, the wall-time p90 of train_step
    ranged over 12.4-16.9 ms and its CPU-time p90 over 11.9-12.9 ms.  Wall
    time is what ``tok_s`` measures."""
    calls, clock, cpu_clock = [], time.perf_counter, time.thread_time

    def wrap(fn):
        def timed(*args, **kwargs):
            start, cpu = clock(), cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, cpu_clock() - cpu, args[0] if args else None))

        return timed

    with patched([(owner, attr, wrap)]):
        yield calls


def cpu_times(calls) -> list[float]:
    return [cpu for _, cpu, _ in calls]


def synthetic_ids(rng: np.random.Generator, n: int, vocab: int) -> np.ndarray:
    """``n`` token ids drawn as random phrases from a seeded phrase book, so
    the stream repeats itself the way text does."""
    book = [rng.integers(0, vocab, size=int(rng.integers(4, 33))) for _ in range(64)]
    picks = rng.integers(0, len(book), size=n // 4 + 1)
    return np.concatenate([book[i] for i in picks])[:n]


class Workload:
    """``setup_once`` builds everything up to the first timed step and returns
    its seconds; the rounds use what it built when ``keep`` is true.  ``round``
    runs one timed round.  The hooks run checks outside the timed part."""

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, smoke: bool, ledger: Ledger, workdir: Path):
        self.seed, self.smoke, self.ledger, self.workdir = seed, smoke, ledger, workdir
        self.min_steps = 0 if smoke else MIN_TAIL_STEPS

    def between_rounds(self, elapsed: float, seconds: float) -> None:
        pass

    def ready(self, steps: int) -> bool:
        """Whether the rounds so far give the percentiles and checks what they need."""
        return steps >= self.min_steps

    def final_checks(self) -> None:
        pass

    def facts(self) -> dict:
        """Workload-specific facts for the run's report."""
        return {}


class TrainSkip(Workload):
    """Phase-1 skip-retain training at d128 with a checkpoint every round."""

    name = "train_skip"
    BATCH, BLOCK, MEM = 4, 64, 64
    EPOCH_STEPS = 256  # corpus length in steps; longer runs wrap, as training does
    FD_STEPS = (1e-5, 1e-6)
    FD_DIRECTIONS = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.round_steps = 2 if self.smoke else 10  # also the checkpoint interval
        self.ckpt = self.workdir / "train_skip.ckpt"
        self.snapshot = self.workdir / "train_skip.mid.ckpt"
        self.snapshot_step: int | None = None
        self.next_gradcheck = 0.25  # share of the run; then every quarter
        self.gradchecks: list[dict] = []  # one record per finite-difference check

    def setup_once(self, keep: bool) -> float:
        start = time.perf_counter()
        hub = RNG.RngHub(self.seed)
        ids = synthetic_ids(hub["data"], self.BATCH * self.BLOCK * self.EPOCH_STEPS + 1, VOCAB)
        cfg = M.ModelConfig(**D128, mem_len=self.MEM, block_len=self.BLOCK, vocab_size=VOCAB, beta=0.25)
        model = M.MemoryLM(cfg, hub["init"])
        # no eval split: the controller never leaves phase 1
        train_cfg = T.TrainConfig(steps=10**9, batch_size=self.BATCH, schedule=SKIP.SkipSchedule.linear())
        trainer = T.Trainer(
            model, train_cfg, T.batchify(ids, self.BATCH, self.BLOCK), None, hub,
            checkpoint_path=str(self.ckpt), checkpoint_every=self.round_steps,
        )
        took = time.perf_counter() - start
        if keep:
            self.trainer = trainer
        return took

    def round(self) -> Round:
        trainer = self.trainer
        wall = 0.0
        with timed_calls(T.Trainer, "train_step") as calls:
            for _ in range(self.round_steps):
                self.check_reach()
                start = time.perf_counter()
                trainer.run(until=trainer.step + 1)  # the step, then Trainer.run's own checkpoint rule
                wall += time.perf_counter() - start
        self.ledger.did("steps", self.round_steps)
        self.ledger.did("saves")
        tokens = self.round_steps * self.BATCH * self.BLOCK
        return Round(tokens=tokens, wall=wall, steps=cpu_times(calls))

    def between_rounds(self, elapsed: float, seconds: float) -> None:
        stale = any(lm.staleness for lm in self.trainer.mems.layers)
        if stale and elapsed >= self.next_gradcheck * seconds:
            self.check_gradient()
            self.next_gradcheck += 0.25
        if self.snapshot_step is None and self.trainer.step > 0 and elapsed >= seconds / 2:
            shutil.copyfile(self.ckpt, self.snapshot)
            self.snapshot_step = self.trainer.step

    def ready(self, steps: int) -> bool:
        return (
            super().ready(steps)
            and self.snapshot_step is not None
            and self.trainer.step >= self.snapshot_step + self.round_steps
        )

    def final_checks(self) -> None:
        self.check_resume()

    def facts(self) -> dict:
        return {"gradient_checks": self.gradchecks, "resumed_from_step": self.snapshot_step}

    # -- checks ------------------------------------------------------------

    def check_reach(self) -> None:
        """Every full cache's oldest key sits where the reach law says: the
        deepest offset the next block scores is M + L - 1 + k*L after k skips."""
        mems, L = self.trainer.mems, self.BLOCK
        deepest_query = mems.next_position + L - 1
        bad = []
        for i, lm in enumerate(mems.layers):
            if len(lm.tags) == mems.mem_len:
                got = deepest_query - int(lm.tags.min())
                want = mems.mem_len + L - 1 + lm.staleness * L
                if got != want:
                    bad.append(f"layer {i}: deepest offset {got}, law {want} (staleness {lm.staleness})")
        self.ledger.check("reach_law", not bad, "; ".join(bad))

    def check_gradient(self) -> None:
        """Finite differences of the loss along a random direction against the
        analytic directional derivative, with one fresh layer skipped, every
        layer's heads crossed, and the trainer's memory, where at least one
        cache is stale: its key tags have a gap before the current block."""
        trainer = self.trainer
        model, mcfg = trainer.model, trainer.model.config
        rng = np.random.default_rng([self.seed, 1, len(self.gradchecks)])
        fresh = [i for i, lm in enumerate(trainer.mems.layers) if lm.staleness == 0]
        mask = np.zeros(mcfg.n_layers, dtype=bool)
        mask[rng.choice(fresh or mcfg.n_layers)] = True
        heads = np.arange(mcfg.n_heads)
        crossed = [
            ATT.HeadAssignment(np.roll(heads, 1 + int(rng.integers(mcfg.n_heads - 1))), True)
            for _ in range(mcfg.n_layers)
        ]
        inputs, targets = trainer.batches.step(trainer.step)

        def loss():
            logits, _ = model.forward(inputs, trainer.mems, skip_mask=mask, assignments=crossed, training=True)
            return AD.cross_entropy(logits, targets)

        params = model.parameters()
        model.zero_grad()
        AD.backward(loss())
        grads = [p.grad for p in params]  # None where a parameter got no gradient
        model.zero_grad()
        originals = [p.data for p in params]

        def loss_at(direction, step: float) -> float:
            for p, d, o in zip(params, direction, originals):
                p.data = o + step * d
            with AD.no_grad():
                return float(loss().data)

        # Three-point one-sided differences along a random unit direction,
        #   forward (4 f(h) - f(2h) - 3 f(0)) / 2h,  backward (3 f(0) - 4 f(-h) + f(-2h)) / 2h,
        # are exact to O(h^2) on a smooth piece.  A ReLU kink within 2h of the
        # current point, sometimes much nearer than 1e-6, spoils the side it lies
        # on, so either side may pass; a direction whose both sides miss at both
        # steps is retried with a fresh one.  A wrong gradient misses on every
        # side and every direction.  The allowance adds the formulas' rounding,
        # about 4 eps_64 |f| / h, with a tenfold margin.
        with AD.no_grad():
            f0 = float(loss().data)

        def attempts():
            for _ in range(self.FD_DIRECTIONS):
                direction = [rng.standard_normal(p.shape) for p in params]
                norm = math.sqrt(sum(float(np.vdot(d, d)) for d in direction))
                direction = [d / norm for d in direction]
                analytic = sum(float(np.vdot(d, g)) for d, g in zip(direction, grads) if g is not None)
                for step in self.FD_STEPS:
                    f = {k: loss_at(direction, k * step) for k in (-2, -1, 1, 2)}
                    allowed = 1e-6 * abs(analytic) + 40 * np.finfo(np.float64).eps * abs(f0) / step
                    for side, numeric in (
                        ("forward", (4 * f[1] - f[2] - 3 * f0) / (2 * step)),
                        ("backward", (3 * f0 - 4 * f[-1] + f[-2]) / (2 * step)),
                    ):
                        error = abs(numeric - analytic)
                        scale = abs(analytic) or math.nan
                        yield {"analytic": analytic, "step": step, "side": side, "numeric": numeric,
                               "ok": bool(error <= allowed), "rel_err": error / scale, "rel_allowed": allowed / scale}

        tried = []
        try:
            for attempt in attempts():
                tried.append(attempt)
                if attempt["ok"]:
                    break
        finally:
            for p, o in zip(params, originals):
                p.data = o
        passed = next((t for t in tried if t["ok"]), None)
        staleness = [lm.staleness for lm in trainer.mems.layers]
        self.gradchecks.append({"passed": passed, "tried": len(tried), "mask": mask.tolist(), "staleness": staleness})
        self.ledger.check(
            "finite_difference",
            passed is not None,
            f"tried {tried} (mask {mask.tolist()}, staleness {staleness})",
        )

    def check_resume(self) -> None:
        """Resume from the mid-run checkpoint; the next losses match bit for bit."""
        start = self.snapshot_step
        expected = [row.train_nll for row in self.trainer.log[start : start + self.round_steps]]
        resumed = T.Trainer.load(str(self.snapshot), self.trainer.batches)
        self.ledger.did("loads")
        got = [resumed.train_step().train_nll for _ in expected]
        self.ledger.did("steps", len(got))
        self.ledger.check(
            "bitwise_resume",
            resumed.step == start + len(got) and got == expected,
            f"from step {start}: {got} != {expected}",
        )


class EvalLong(Workload):
    """Streaming evaluation at the CLI defaults (context 640, block 64)."""

    name = "eval_long"
    min_rounds = 2
    CONTEXT, BLOCK = 640, 64
    SHIFT = 1_000_003  # position offset for the shifted re-derivation

    def __init__(self, *args):
        super().__init__(*args)
        self.blocks = 12 if self.smoke else 40  # memory is full after 9 blocks
        self.reports = []

    def setup_once(self, keep: bool) -> float:
        start = time.perf_counter()
        hub = RNG.RngHub(self.seed)
        ids = synthetic_ids(hub["data"], self.blocks * self.BLOCK + 1, VOCAB)
        cfg = M.ModelConfig(**D128, mem_len=64, block_len=self.BLOCK, vocab_size=VOCAB)
        model = M.MemoryLM(cfg, hub["init"])
        took = time.perf_counter() - start
        if keep:
            self.ids, self.model = ids, model
        return took

    def round(self) -> Round:
        with timed_calls(M.MemoryLM, "forward") as calls:
            start = time.perf_counter()
            report = T.evaluate(self.model, self.ids, self.CONTEXT, self.BLOCK)
            wall = time.perf_counter() - start
        self.ledger.did("eval_blocks", len(calls))
        self.reports.append(report)
        self.ledger.check("scored_tokens", report.tokens == len(self.ids) - 1, f"{report.tokens} tokens")
        self.ledger.check("bpc", report.bpc == report.nll / math.log(2.0), f"bpc {report.bpc}, nll {report.nll}")
        return Round(tokens=report.tokens, wall=wall, steps=cpu_times(calls))

    def final_checks(self) -> None:
        first = self.reports[0]
        self.ledger.check(
            "deterministic", all(r.nll == first.nll for r in self.reports), str([r.nll for r in self.reports])
        )
        self.check_shifted(first)

    def check_shifted(self, report) -> None:
        """Re-score the ids from a memory whose positions start SHIFT tokens
        later, with a plain numpy log-softmax.  Scores depend only on relative
        offsets, so the NLL must match to the dtype's rounding."""
        model, ids = self.model, self.ids
        n = len(ids) - 1
        mems = model.init_memory(batch=1, mem_len=self.CONTEXT - self.BLOCK)
        mems.next_position = self.SHIFT
        total = 0.0
        with AD.no_grad():
            for start in range(0, n, self.BLOCK):
                stop = min(start + self.BLOCK, n)
                logits, mems = model.forward(ids[start:stop][None, :], mems)
                x = logits.data[0]
                x = x - x.max(axis=-1, keepdims=True)
                logp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
                total -= float(logp[np.arange(stop - start), ids[start + 1 : stop + 1]].sum())
        nll = total / n
        # summing n per-token terms loses at most about n * eps of the total
        tol = n * np.finfo(model.config.dtype).eps * nll
        self.ledger.check("shifted_positions", abs(nll - report.nll) <= tol, f"{nll!r} vs {report.nll!r}")


class _FirstStep(Exception):
    """Raised at the first training step to end a set-up-only quick start."""

    def __init__(self, at: float):
        self.at = at


def read_cfg(path: Path) -> dict[str, str]:
    """``key = value`` lines with ``#`` comments, read without memxl.config."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class QuickStart(Workload):
    """The README quick start, ``memxl train --config configs/tiny.cfg``,
    run in-process through ``memxl.cli.main`` on make_corpus.py's text."""

    name = "quickstart"

    def __init__(self, *args):
        super().__init__(*args)
        self.switches: list[int | None] = []
        self.unchecked: list[Path] = []  # finished quick starts, checked outside the round
        self.config = ROOT / "configs" / "tiny.cfg"
        self.cfg = read_cfg(self.config)
        self.steps = 50 if self.smoke else int(self.cfg["steps"])

    def _quickstart(self, tmp: Path) -> None:
        """Write the corpus and train, with every output under ``tmp``."""
        argv = ["train", "--config", str(self.config), "--set", f"seed={self.seed}"]
        if self.smoke:
            argv += ["--set", f"steps={self.steps}"]
        for key, name in (("corpus", "tiny.txt"), ("log", "tiny.log"), ("checkpoint", "tiny.ckpt")):
            argv += ["--set", f"{key}={tmp / name}"]
        saved_argv = sys.argv
        sys.argv = ["make_corpus.py", str(tmp / "tiny.txt")]
        try:
            with redirect_stdout(io.StringIO()):
                runpy.run_path(str(ROOT / "scripts" / "make_corpus.py"), run_name="__main__")
                code = CLI.main(argv)
        finally:
            sys.argv = saved_argv
        if code != 0:
            raise RuntimeError(f"memxl train exited with {code}")

    def setup_once(self, keep: bool) -> float:
        """Seconds from the start to the first training step; each round sets
        up again, so nothing is kept."""

        def stop(trainer):
            raise _FirstStep(time.perf_counter())

        tmp = Path(tempfile.mkdtemp(dir=self.workdir))
        start = time.perf_counter()
        try:
            with patched([(T.Trainer, "train_step", lambda fn: stop)]):
                self._quickstart(tmp)
        except _FirstStep as first:
            return first.at - start
        finally:
            shutil.rmtree(tmp)
        raise RuntimeError("the quick start finished without a training step")

    def round(self) -> Round:
        tmp = Path(tempfile.mkdtemp(dir=self.workdir))
        with timed_calls(T.Trainer, "train_step") as calls:
            self._quickstart(tmp)
            end = time.perf_counter()
        batches = calls[-1][2].batches
        self.ledger.did("steps", len(calls))
        self.ledger.did("saves")
        self.unchecked.append(tmp)
        return Round(
            tokens=len(calls) * batches.batch * batches.block,
            wall=end - calls[0][0],
            steps=cpu_times(calls),
        )

    def between_rounds(self, elapsed: float, seconds: float) -> None:
        for tmp in self.unchecked:
            self.check_output(tmp)
            shutil.rmtree(tmp)
        self.unchecked.clear()

    def final_checks(self) -> None:
        self.between_rounds(0.0, 0.0)

    def facts(self) -> dict:
        return {"phase_switch_steps": self.switches}

    def check_output(self, tmp: Path) -> None:
        rows = [line.split("\t") for line in (tmp / "tiny.log").read_text().splitlines()[1:]]
        evals = [(int(r[0]), float(r[4])) for r in rows if r[4]]
        n_scored = len((tmp / "tiny.txt").read_text()) - 1
        self.ledger.did("eval_blocks", len(evals) * math.ceil(n_scored / int(self.cfg["eval_block"])))
        self.ledger.check("steps_logged", len(rows) == self.steps, f"{len(rows)} rows")

        # plateau rule, re-derived: switch at the first evaluation where the best
        # perplexity so far beats the best from >= window steps ago by < threshold
        window, threshold = int(self.cfg["window"]), float(self.cfg["threshold"])
        switch = None
        for k, (step, _) in enumerate(evals):
            seen = [ppl for _, ppl in evals[: k + 1]]
            old = [ppl for s, ppl in evals[: k + 1] if s <= step - window]
            if old and min(old) - min(seen) < threshold:
                switch = step
                break
        self.switches.append(switch)
        want = [
            SKIP.PHASE_SKIP_RETAIN if switch is None or int(r[0]) <= switch else SKIP.PHASE_VANILLA
            for r in rows
        ]
        got = [r[1] for r in rows]
        self.ledger.check("plateau_rule", got == want, f"rule switches at {switch}; log phases {Counter(got)}")

        final_ppl = evals[-1][1]
        model, vocab = T.load_model(str(tmp / "tiny.ckpt"))
        self.ledger.did("loads")
        if not self.smoke:  # a few smoke steps learn too little for this
            self.ledger.check("learned", final_ppl < vocab.size / 4, f"ppl {final_ppl} with {vocab.size} symbols")
        corpus = DATA.load_corpus(tmp / "tiny.txt", vocab.level, vocab)
        report = T.evaluate(model, corpus.ids, int(self.cfg["eval_context"]), int(self.cfg["eval_block"]))
        last = next(r[4] for r in reversed(rows) if r[4])
        self.ledger.check(
            "reload_eval",
            evals[-1][0] == len(rows) and f"{report.ppl:.6f}" == last,
            f"reloaded ppl {report.ppl:.6f}, logged {last} at step {evals[-1][0]}",
        )


WORKLOADS = {w.name: w for w in (TrainSkip, EvalLong, QuickStart)}
