"""End-to-end acceptance checks, one test per required behavior.

Each test carries its own wall-clock budget; the terminal summary prints
one PASS/FAIL line per behavior (see conftest).
"""

import math
import time
from fractions import Fraction

import numpy as np

import memxl.autodiff as ad
from conftest import PANGRAM_TEXT, tiny_config
from memxl import MemoryLM, ModelConfig, RngHub, SkipSchedule, TrainConfig, Trainer, train
from memxl.analysis import pct_change, sample_stddev
from memxl.attention import sample_head_assignment
from memxl.data import batchify, corpus_from_text
from memxl.model import LayerTrace
from memxl.optim import adam_update, clip_global_norm, cosine_lr
from memxl.skip import (
    PHASE_SKIP_RETAIN,
    PHASE_VANILLA,
    expected_context_approx,
    expected_context_exact,
    sample_skip_mask,
    schedule_probabilities,
    simulate_expected_context,
)
from memxl.train import evaluate


def assert_budget(t0: float, seconds: float):
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_01_gradient_fidelity_four_regimes(seed0_gradcheck):
    reports, seconds = seed0_gradcheck
    assert set(reports) == {"baseline", "skip", "cross", "skip_cross"}
    for name, report in reports.items():
        assert report.passed, f"{name}: {report.summary()}"
        assert report.max_rel_error < 1e-5
    assert seconds < 60, f"took {seconds:.1f}s, budget 60s"


def test_02_disabled_mechanisms_change_nothing_bitwise():
    t0 = time.monotonic()
    ids = np.random.default_rng(0).integers(0, 11, size=300)
    cfg = TrainConfig(
        steps=8, base_lr=1e-3, eval_interval=100, eval_context=8, eval_block=4,
        seed=7, schedule=SkipSchedule.none(),
    )

    trainer = Trainer(MemoryLM(tiny_config(beta=0.0), RngHub(7)["init"]), cfg,
                      batchify(ids, 1, 4), None, RngHub(7))
    trainer.run()

    # reference loop with the mechanisms not even wired in
    hub = RngHub(7)
    model = MemoryLM(tiny_config(beta=0.0), hub["init"])
    batches = batchify(ids, 1, 4)
    mems = model.init_memory(1)
    from memxl.optim import AdamState

    adam = AdamState(model.named_parameters())
    losses = []
    for step in range(cfg.steps):
        inputs, targets = batches.step(step)
        logits, mems = model.forward(inputs, mems, training=True, dropout_rng=hub["dropout"])
        loss = ad.cross_entropy(logits, targets)
        losses.append(float(loss.data))
        model.zero_grad()
        ad.backward(loss)
        clip_global_norm(adam.gather_grads(), cfg.clip_norm)
        adam_update(adam, cosine_lr(step, cfg.base_lr, cfg.max_iters),
                    cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

    assert [r.train_nll for r in trainer.log] == losses
    for (_, pa), (_, pb) in zip(trainer.model.named_parameters(), model.named_parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert_budget(t0, 10)


def test_03_skipped_layers_retain_memory_and_extend_reach():
    t0 = time.monotonic()
    cfg = tiny_config(n_layers=3, mem_len=4, block_len=4)
    hub = RngHub(11)
    model = MemoryLM(cfg, hub["init"])
    schedule = SkipSchedule.uniform(0.35)
    ids = hub["data"].integers(0, cfg.vocab_size, size=4 * 201 + 1)
    batches = batchify(ids, 1, 4)

    mems = model.init_memory(1)
    law_cases = 0
    with ad.no_grad():
        for step in range(200):
            mask = sample_skip_mask(schedule, cfg.n_layers, hub["skip"])
            before = list(mems.layers)
            record: list[LayerTrace] = []
            inputs, _ = batches.step(step)
            _, mems = model.forward(inputs, mems, skip_mask=mask, record=record)

            for i, trace in enumerate(record):
                old, new = before[i], mems.layers[i]
                if trace.skipped:
                    # cache held bitwise, age bumped
                    assert new.buffer is old.buffer
                    assert new.tags is old.tags
                    assert new.staleness == old.staleness + 1
                else:
                    assert new.staleness == 0
                    assert trace.staleness == old.staleness
                    if old.buffer.shape[1] == cfg.mem_len:
                        # staleness k stretches the furthest key by k blocks
                        want = cfg.mem_len + cfg.block_len - 1 + old.staleness * cfg.block_len
                        assert trace.offsets.max() == want
                        law_cases += 1

    assert law_cases > 100  # the law was actually exercised
    assert_budget(t0, 30)


def test_04_staleness_walkthrough_on_alphabet_blocks():
    t0 = time.monotonic()
    corpus = corpus_from_text("abcdefghi", "char")
    cfg = ModelConfig(
        n_layers=3, d_model=8, d_inner=16, n_heads=2, d_head=4,
        mem_len=3, block_len=3, vocab_size=corpus.vocab.size, init_std=0.2,
    )
    model = MemoryLM(cfg, RngHub(0)["init"])
    blocks = [corpus.ids[0:3], corpus.ids[3:6], corpus.ids[6:9]]
    masks = [
        np.array([False, False, False]),
        np.array([False, True, False]),   # middle layer sits out the second block
        np.array([False, False, False]),
    ]

    mems = model.init_memory(1)
    record: list[LayerTrace] = []
    with ad.no_grad():
        for block, mask in zip(blocks, masks):
            record = []
            _, mems = model.forward(block[None, :], mems, skip_mask=mask, record=record)

    reach = {trace.layer: int(trace.offsets.max()) for trace in record}
    # on the third block the stale middle layer still keys the first one
    assert reach == {0: 5, 1: 8, 2: 5}
    assert_budget(t0, 5)


def test_05_expected_context_accounting():
    t0 = time.monotonic()
    linear = SkipSchedule.linear()

    assert expected_context_approx(12, 512) == 2304.0
    for m in (1, 16, 512, 1024):
        assert expected_context_approx(15, m) == 6.0 * m

    # closed-form gap, in exact rational arithmetic
    for n in range(4, 33):
        m = 64
        exact = sum(Fraction(i - 1, 2 * n) * 2 * m for i in range(1, n))
        assert exact - Fraction(m * (n - 3), 2) == Fraction(m, n)
        got = expected_context_exact(linear, n, m)
        assert math.isclose(got, float(exact), rel_tol=1e-12)

    exact = expected_context_exact(linear, 12, 512)
    mean, stderr = simulate_expected_context(linear, 12, 512, 100_000, np.random.default_rng(42))
    assert abs(mean - exact) < 3 * stderr
    assert_budget(t0, 10)


def test_06_skip_schedule_values_and_frequencies():
    t0 = time.monotonic()
    from memxl.skip import p_skip

    linear = SkipSchedule.linear()
    assert p_skip(linear, 1, 8) == 0.0
    assert p_skip(linear, 8, 8) == 0.0
    assert p_skip(linear, 5, 8) == 0.25
    uniform = SkipSchedule.uniform(0.3)
    assert schedule_probabilities(uniform, 4).tolist() == [0.3] * 4
    pf = schedule_probabilities(SkipSchedule.protect_first(0.4), 5)
    assert pf[0] == 0.0 and set(pf[1:]) == {0.4}
    pl = schedule_probabilities(SkipSchedule.protect_last(0.4), 5)
    assert pl[-1] == 0.0 and set(pl[:-1]) == {0.4}
    pb = schedule_probabilities(SkipSchedule.protect_both(0.4), 5)
    assert pb[0] == pb[-1] == 0.0 and set(pb[1:-1]) == {0.4}

    gen = np.random.default_rng(5)
    trials = 100_000
    for schedule, n in ((linear, 8), (SkipSchedule.protect_both(0.4), 5)):
        draws = gen.random((trials, n)) < schedule_probabilities(schedule, n)[None, :]
        freq = draws.mean(axis=0)
        np.testing.assert_allclose(freq, schedule_probabilities(schedule, n), atol=0.005)
    assert_budget(t0, 10)


def test_07_head_matching_sampling_statistics():
    t0 = time.monotonic()
    gen = np.random.default_rng(9)
    trials = 100_000
    crossed = 0
    for _ in range(trials):
        a = sample_head_assignment(gen, 0.1, 4)
        if a.cross_active:
            crossed += 1
            np.testing.assert_array_equal(np.sort(a.sigma), np.arange(4))
    assert abs(crossed / trials - 0.1) < 0.005

    # beta zero never touches the stream
    state = gen.bit_generator.state
    assert not sample_head_assignment(gen, 0.0, 4).cross_active
    assert gen.bit_generator.state == state

    # evaluation never resamples head matchings
    hub = RngHub(1)
    model = MemoryLM(tiny_config(beta=0.5), hub["init"])
    heads_state = hub["heads"].bit_generator.state
    evaluate(model, np.arange(60) % 11, eval_context=8, eval_block=4)
    assert hub["heads"].bit_generator.state == heads_state
    assert_budget(t0, 5)


def test_08_prune_dispersion_statistics():
    t0 = time.monotonic()
    deltas = [-0.01] * 7 + [0.77]
    assert abs(sample_stddev(deltas) - 0.28) < 0.005
    assert abs(pct_change(0.008, 0.28) - (-97.1)) < 0.1
    assert_budget(t0, 1)


def test_09_uniform_predictor_baselines():
    t0 = time.monotonic()
    cfg = tiny_config()  # vocabulary of 11
    model = MemoryLM(cfg, RngHub(0)["init"])
    model.embedding.data[:] = 0.0  # head can only emit the uniform distribution
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=120)
    report = evaluate(model, ids, eval_context=8, eval_block=4)
    assert abs(report.ppl - cfg.vocab_size) < 1e-9
    assert abs(report.bpc - math.log2(cfg.vocab_size)) < 1e-12
    assert abs(report.nll - math.log(cfg.vocab_size)) < 1e-12
    assert_budget(t0, 5)


def test_10_two_phase_training_reaches_overfit():
    t0 = time.monotonic()
    corpus = corpus_from_text(PANGRAM_TEXT, "char")
    assert len(PANGRAM_TEXT) <= 2000

    mcfg = ModelConfig(
        n_layers=4, d_model=32, d_inner=64, n_heads=2, d_head=16,
        mem_len=16, block_len=16, vocab_size=corpus.vocab.size,
        beta=0.1, init_std=0.05,
    )
    tcfg = TrainConfig(
        steps=500, base_lr=3e-3, cosine_max_iters=6000,
        schedule=SkipSchedule.linear(), eval_interval=25,
        eval_context=32, eval_block=16, window=200, threshold=0.2, seed=5,
    )
    hub = RngHub(tcfg.seed)
    model = MemoryLM(mcfg, hub["init"])
    trainer = train(model, corpus.ids, tcfg, hub, eval_ids=corpus.ids[:400])

    phases = [row.phase for row in trainer.log]
    switches = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
    assert switches == 1
    assert phases[0] == PHASE_SKIP_RETAIN
    assert phases[-1] == PHASE_VANILLA
    assert trainer.controller.transition_step is not None

    vanilla_losses = [row.train_nll for row in trainer.log if row.phase == PHASE_VANILLA]
    assert min(vanilla_losses) < 0.1
    assert_budget(t0, 600)


def test_11_checkpoint_resumption_is_bitwise(tmp_path):
    t0 = time.monotonic()
    ids = np.random.default_rng(3).integers(0, 11, size=400)

    def fresh_trainer():
        cfg = TrainConfig(
            steps=24, base_lr=2e-3, eval_interval=3, eval_context=8, eval_block=4,
            seed=13, schedule=SkipSchedule.uniform(0.3), window=6, threshold=1e9,
        )
        hub = RngHub(cfg.seed)
        model = MemoryLM(tiny_config(beta=0.2), hub["init"])
        return Trainer(model, cfg, batchify(ids, 1, 4), ids[:40], hub)

    straight = fresh_trainer()
    straight.run()
    reference = [r.train_nll for r in straight.log]
    assert straight.controller.transition_step == 9

    for pause, expected_phase in ((6, PHASE_SKIP_RETAIN), (15, PHASE_VANILLA)):
        runner = fresh_trainer()
        runner.run(until=pause)
        assert runner.phase == expected_phase
        path = tmp_path / f"pause{pause}.ckpt"
        runner.save(path)

        resumed = Trainer.load(path, runner.batches, eval_ids=runner.eval_ids)
        assert resumed.phase == expected_phase
        resumed.run()

        tail = [r.train_nll for r in resumed.log]
        assert tail == reference[pause:]
        for (_, pa), (_, pb) in zip(straight.model.named_parameters(), resumed.model.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()
    assert_budget(t0, 120)
