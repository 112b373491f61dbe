import time

import numpy as np
import pytest

from memxl import MemoryLM, ModelConfig, RngHub, TrainConfig, Trainer
from memxl.analysis import grad_check_model
from memxl.data import batchify, corpus_from_text

PANGRAM_TEXT = ("the quick brown fox jumps over the lazy dog. " * 40)[:2000]


def tiny_config(**overrides) -> ModelConfig:
    kwargs = dict(
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
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


@pytest.fixture
def tiny_model():
    hub = RngHub(0)
    return MemoryLM(tiny_config(), hub["init"]), hub


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def trained_lm():
    """A small model overfit on a periodic corpus; shared across tests
    that need a model whose memory actually carries signal."""
    corpus = corpus_from_text(PANGRAM_TEXT, "char")
    mcfg = ModelConfig(
        n_layers=2, d_model=32, d_inner=64, n_heads=2, d_head=16,
        mem_len=16, block_len=16, vocab_size=corpus.vocab.size, init_std=0.05,
    )
    tcfg = TrainConfig(
        steps=250, base_lr=3e-3, cosine_max_iters=3000,
        eval_interval=250, eval_context=32, eval_block=16, seed=3,
    )
    hub = RngHub(tcfg.seed)
    model = MemoryLM(mcfg, hub["init"])
    trainer = Trainer(model, tcfg, batchify(corpus.ids, 1, mcfg.block_len), None, hub)
    trainer.run()
    return model, corpus.ids


@pytest.fixture(scope="session")
def seed0_gradcheck():
    """``memxl gradcheck``'s default run, the seed-0 reports at step and tol
    1e-5, computed once for acceptance check 1 and the CLI test, with the
    seconds it took."""
    t0 = time.monotonic()
    reports = grad_check_model(seed=0, step=1e-5, tol=1e-5)
    return reports, time.monotonic() - t0


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance check, printed after the run."""
    rows = []
    for status, outcome in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            name = nodeid.split("::")[-1]
            rows.append((name, outcome))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for name, outcome in sorted(set(rows)):
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{outcome}  {label}")
