import mpmath
import numpy as np
import pytest

from conftest import tiny_config
import memxl.analysis as analysis
from memxl import MemoryLM, ModelConfig, RngHub, SkipSchedule
from memxl.analysis import (
    check_config,
    expected_context_report,
    grad_check_model,
    pct_change,
    position_audit,
    prune_heads,
    run_prune_experiment,
    sample_stddev,
)
from memxl.train import evaluate


class TestStatistics:
    def test_sample_stddev_matches_extended_precision(self):
        values = [-0.01] * 7 + [0.77]
        with mpmath.workdps(50):
            mean = mpmath.fsum(values) / 8
            var = mpmath.fsum((mpmath.mpf(v) - mean) ** 2 for v in values) / 7
            oracle = float(mpmath.sqrt(var))
        assert sample_stddev(values) == pytest.approx(oracle, rel=1e-13)
        # the n-1 denominator, not n
        assert sample_stddev([0.0, 2.0]) == pytest.approx(np.sqrt(2.0), rel=1e-13)

    def test_sample_stddev_needs_two_values(self):
        with pytest.raises(ValueError):
            sample_stddev([1.0])

    def test_pct_change(self):
        assert pct_change(0.008, 0.28) == pytest.approx(100 * (0.008 - 0.28) / 0.28, rel=1e-13)
        assert pct_change(2.0, 1.0) == 100.0
        with pytest.raises(ValueError):
            pct_change(1.0, 0.0)


class TestPruneHeads:
    def test_copy_shares_all_but_the_pruned_layers_w_o(self):
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        before = {name: p.data.tobytes() for name, p in model.named_parameters()}
        copy = prune_heads(model, [[True, True], [False, True]])
        assert copy is not model and copy.layers is not model.layers
        for (name, p), (_, q) in zip(model.named_parameters(), copy.named_parameters(), strict=True):
            assert (p is q) == (name != "layers.1.attn.w_o"), name
            assert p.data.tobytes() == before[name], name  # the model itself is untouched
        w_o = copy.layers[1].attn.w_o.data
        d_head = model.config.d_head
        assert not w_o[:, :d_head].any()
        assert w_o[:, d_head:].tobytes() == model.layers[1].attn.w_o.data[:, d_head:].tobytes()

    def test_sweep_evaluates_the_pruned_copies(self, trained_lm):
        model, ids = trained_lm
        report = run_prune_experiment(model, ids[:300], 32, 16)
        keep = np.ones((2, 2), dtype=bool)
        keep[1, 0] = False
        pruned = evaluate(prune_heads(model, keep), ids[:300], 32, 16).ppl
        assert report.delta[1, 0] == pruned - report.baseline_ppl
        assert evaluate(model, ids[:300], 32, 16).ppl == report.baseline_ppl


class TestPruneExperiment:
    def test_baseline_matches_direct_evaluation(self, trained_lm):
        model, ids = trained_lm
        report = run_prune_experiment(model, ids[:600], eval_context=32, eval_block=16)
        direct = evaluate(model, ids[:600], 32, 16)
        assert report.baseline_ppl == direct.ppl
        assert report.delta.shape == (2, 2)
        assert report.stddev.shape == (2,)
        assert report.stddev_change is None

    def test_repeat_runs_identical(self, trained_lm):
        model, ids = trained_lm
        a = run_prune_experiment(model, ids[:300], 32, 16)
        b = run_prune_experiment(model, ids[:300], 32, 16)
        np.testing.assert_array_equal(a.delta, b.delta)
        assert a.baseline_ppl == b.baseline_ppl

    def test_stddev_column_is_sample_form(self, trained_lm):
        model, ids = trained_lm
        report = run_prune_experiment(model, ids[:300], 32, 16)
        for i in range(2):
            assert report.stddev[i] == pytest.approx(sample_stddev(report.delta[i]), rel=1e-12)

    def test_reference_stddev_yields_percent_change(self, trained_lm):
        model, ids = trained_lm
        ref = np.array([0.5, 0.25])
        report = run_prune_experiment(model, ids[:300], 32, 16, reference_stddev=ref)
        want = 100.0 * (report.stddev - ref) / ref
        np.testing.assert_allclose(report.stddev_change, want, rtol=1e-12)
        with pytest.raises(ValueError, match="reference stddev"):
            run_prune_experiment(model, ids[:300], 32, 16, reference_stddev=np.ones(3))

    @pytest.mark.parametrize("reference", [np.ones(3), np.array([0.5, 0.0])], ids=["wrong_length", "zero"])
    def test_bad_reference_rejected_before_any_evaluation(self, monkeypatch, reference):
        calls = []
        monkeypatch.setattr(analysis, "evaluate", lambda *args, **kwargs: calls.append(args) or evaluate(*args, **kwargs))
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        with pytest.raises(ValueError, match="reference (stddev|value)"):
            run_prune_experiment(model, np.arange(50) % 11, 8, 4, reference_stddev=reference)
        assert calls == []

    def test_single_head_model_rejected(self):
        hub = RngHub(0)
        model = MemoryLM(tiny_config(n_heads=1, d_head=8), hub["init"])
        with pytest.raises(ValueError, match="n_heads >= 2"):
            run_prune_experiment(model, np.arange(50) % 11, 8, 4)

    def test_table_and_rows_presentation(self, trained_lm):
        model, ids = trained_lm
        report = run_prune_experiment(model, ids[:300], 32, 16, reference_stddev=np.array([0.5, 0.25]))
        table = report.table()
        assert "baseline PPL" in table
        assert len(table.splitlines()) == 4  # header x2 + one row per layer
        rows = report.rows()
        assert len(rows) == 2
        assert rows[0][0] == 1
        float(rows[0][1])  # deltas serialize as numbers


class TestPositionAudit:
    def make_model(self):
        hub = RngHub(0)
        return MemoryLM(tiny_config(), hub["init"]), hub

    def test_no_skipping_bounds_offsets_by_window(self):
        model, hub = self.make_model()
        ids = np.arange(200) % 11
        audit = position_audit(model, ids, SkipSchedule.none(), hub, steps=6)
        m, l = model.config.mem_len, model.config.block_len
        for layer in range(2):
            assert audit.max_offset("phase1", layer) == m + l - 1
            assert audit.max_offset("phase2", layer) == m + l - 1
        # identical histograms: no schedule means phase 1 is phase 2
        assert audit.phase1 == audit.phase2

    def test_eval_offsets_bounded_by_context(self):
        model, hub = self.make_model()
        ids = np.arange(200) % 11
        audit = position_audit(model, ids, SkipSchedule.none(), hub, steps=8, eval_context=12, eval_block=4)
        for layer in range(2):
            assert audit.max_offset("eval", layer) == 11  # eval_context - 1

    def test_pair_conservation_without_skips(self):
        model, hub = self.make_model()
        ids = np.arange(200) % 11
        steps = 6
        audit = position_audit(model, ids, SkipSchedule.none(), hub, steps=steps)
        m, l = model.config.mem_len, model.config.block_len
        per_layer = 0
        rows = 0
        for _ in range(steps):
            per_layer += l * rows + l * (l + 1) // 2
            rows = min(m, rows + l)
        assert audit.total("phase2") == model.config.n_layers * per_layer

    def test_skipping_layers_reach_past_the_window(self):
        model, hub = self.make_model()
        ids = np.arange(400) % 11
        audit = position_audit(model, ids, SkipSchedule.protect_first(0.5), hub, steps=40)
        m, l = model.config.mem_len, model.config.block_len
        # the protected layer sees the vanilla bound...
        assert audit.max_offset("phase1", 0) == m + l - 1
        # ...while the skippable one reaches strictly past it
        assert audit.max_offset("phase1", 1) > m + l - 1
        # phase 2 and evaluation never skip regardless of schedule
        for layer in range(2):
            assert audit.max_offset("phase2", layer) == m + l - 1
            assert audit.max_offset("eval", layer) == m + l - 1

    def test_rows_are_sorted_and_labeled(self):
        model, hub = self.make_model()
        audit = position_audit(model, np.arange(100) % 11, SkipSchedule.none(), hub, steps=3)
        rows = audit.rows()
        assert {r[0] for r in rows} == {"phase1", "phase2", "eval"}
        assert {r[1] for r in rows} == {1, 2}
        counts = sum(r[3] for r in rows if r[0] == "phase2")
        assert counts == audit.total("phase2")

    def test_validation(self):
        model, hub = self.make_model()
        with pytest.raises(ValueError, match="steps"):
            position_audit(model, np.arange(100) % 11, SkipSchedule.none(), hub, steps=0)
        with pytest.raises(ValueError, match="unknown section"):
            position_audit(model, np.arange(100) % 11, SkipSchedule.none(), hub, steps=1).section("warmup")


class TestExpectedContextReport:
    def test_report_carries_consistent_numbers(self):
        report = expected_context_report(SkipSchedule.linear(), 12, 512, samples=20_000)
        assert report.exact == pytest.approx(2304 + 512 / 12)
        assert report.approx == 2304.0
        assert abs(report.sim_mean - report.exact) < 4 * report.sim_stderr
        assert len(report.probs) == 12
        table = report.table()
        assert "exact expectation" in table
        assert f"{report.approx:.4f}" in table


ONE_LAYER = ModelConfig(
    n_layers=1, d_model=4, d_inner=8, n_heads=2, d_head=2,
    mem_len=2, block_len=2, vocab_size=5, init_std=0.3,
)


@pytest.fixture(scope="module")
def one_layer_gate():
    """``grad_check_model(ONE_LAYER, seed=1)``'s reports, and the memory and
    skip mask of every ``MemoryLM.forward`` call it made, in order."""
    calls, forward = [], MemoryLM.forward

    def spy(self, tokens, mems, skip_mask=None, **kwargs):
        calls.append((mems, skip_mask))
        return forward(self, tokens, mems, skip_mask=skip_mask, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryLM, "forward", spy)
        reports = grad_check_model(ONE_LAYER, seed=1)
    return reports, calls


class TestGradCheckHarness:
    def test_all_regimes_pass_on_a_small_model(self, one_layer_gate):
        reports, _ = one_layer_gate
        assert set(reports) == {"baseline", "skip", "cross", "skip_cross"}
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.summary()}"

    def test_regimes_run_over_a_cache_two_blocks_stale(self, one_layer_gate):
        """Three warm-up calls (the last two skip the last layer), then every
        regime call over the memory they left: the last layer's cache is two
        blocks stale and its tags end before the checked block's first
        position, a gap of two blocks. With one layer, layer 0 is both that
        stale layer and the layer that ``skip`` skips, so here only
        ``baseline`` and ``cross`` run across the gap."""
        _, calls = one_layer_gate
        block = ONE_LAYER.block_len
        assert [None if m is None else m.tolist() for _, m in calls[:3]] == [None, [True], [True]]
        mems = calls[3][0]
        assert all(m is mems for m, _ in calls[3:])
        last = mems.layers[-1]
        assert last.staleness == 2
        assert last.tags.tolist() == [0, 1] and mems.next_position == 3 * block
        assert {tuple(m.tolist()) for _, m in calls[3:]} == {(False,), (True,)}

    def test_skipped_layer_parameters_get_no_gradient(self, one_layer_gate):
        reports, _ = one_layer_gate
        skip_checks = reports["skip"].checks
        for name, check in skip_checks.items():
            if name.startswith("layers.0."):
                assert check.analytic_absmax == 0.0, name
                assert check.numeric_absmax == 0.0, name
        assert skip_checks["embedding"].analytic_absmax > 0
        # with the layer live, its parameters do carry gradient
        assert reports["baseline"].checks["layers.0.attn.w_q"].analytic_absmax > 0

    def test_crossed_heads_still_pass_and_move_key_side(self, one_layer_gate):
        reports, _ = one_layer_gate
        assert reports["cross"].checks["layers.0.attn.w_ke"].analytic_absmax > 0
        assert reports["cross"].passed

    def test_float32_build_rejected(self):
        cfg = tiny_config(param_dtype="float32")
        with pytest.raises(ValueError, match="float64"):
            grad_check_model(cfg)

    def test_default_config_is_the_documented_shape(self):
        cfg = check_config()
        assert (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_head) == (2, 8, 2, 4)
        assert (cfg.mem_len, cfg.block_len, cfg.vocab_size) == (4, 4, 11)
        assert cfg.param_dtype == "float64"
