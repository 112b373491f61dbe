import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memxl import skip
from memxl.skip import PHASE_SKIP_RETAIN, PHASE_VANILLA, PhaseController, SkipSchedule


class TestSchedules:
    def test_linear_values(self):
        # depth-ramped: 0.5*(i-1)/N for inner layers, hard zero at the top
        assert skip.p_skip(SkipSchedule.linear(), 1, 8) == 0.0
        assert skip.p_skip(SkipSchedule.linear(), 5, 8) == 0.25
        assert skip.p_skip(SkipSchedule.linear(), 8, 8) == 0.0
        assert skip.p_skip(SkipSchedule.linear(), 7, 8) == pytest.approx(0.375)

    def test_parametric_values(self):
        n = 6
        assert skip.schedule_probabilities(SkipSchedule.uniform(0.3), n).tolist() == [0.3] * 6
        first = skip.schedule_probabilities(SkipSchedule.protect_first(0.3), n)
        assert first[0] == 0.0 and set(first[1:]) == {0.3}
        last = skip.schedule_probabilities(SkipSchedule.protect_last(0.3), n)
        assert last[-1] == 0.0 and set(last[:-1]) == {0.3}
        both = skip.schedule_probabilities(SkipSchedule.protect_both(0.3), n)
        assert both[0] == both[-1] == 0.0 and set(both[1:-1]) == {0.3}
        assert skip.schedule_probabilities(SkipSchedule.none(), n).tolist() == [0.0] * 6

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_linear_probability_always_below_half(self, n, i):
        if i > n:
            i = n
        assert 0.0 <= skip.p_skip(SkipSchedule.linear(), i, n) < 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            SkipSchedule("sometimes")
        with pytest.raises(ValueError, match="needs a probability"):
            SkipSchedule("uniform")
        with pytest.raises(ValueError, match="must be in"):
            SkipSchedule("uniform", 1.5)
        with pytest.raises(ValueError, match="takes no probability"):
            SkipSchedule("linear", 0.3)
        with pytest.raises(ValueError, match="outside"):
            skip.p_skip(SkipSchedule.none(), 0, 4)
        with pytest.raises(ValueError, match="outside"):
            skip.p_skip(SkipSchedule.none(), 5, 4)


class TestMaskSampling:
    def test_no_draws_outside_skip_phase(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        mask = skip.sample_skip_mask(SkipSchedule.uniform(0.9), 4, gen, phase=PHASE_VANILLA)
        assert not mask.any()
        assert gen.bit_generator.state == before

    def test_no_draws_for_none_schedule(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        mask = skip.sample_skip_mask(SkipSchedule.none(), 4, gen)
        assert not mask.any()
        assert gen.bit_generator.state == before

    def test_protected_layers_never_skip(self):
        gen = np.random.default_rng(1)
        masks = np.stack([skip.sample_skip_mask(SkipSchedule.protect_both(1.0), 5, gen) for _ in range(50)])
        assert not masks[:, 0].any()
        assert not masks[:, -1].any()
        assert masks[:, 1:-1].all()

    def test_empirical_frequency_tracks_probabilities(self):
        gen = np.random.default_rng(7)
        n, trials = 6, 20_000
        masks = np.stack([skip.sample_skip_mask(SkipSchedule.linear(), n, gen) for _ in range(trials)])
        freq = masks.mean(axis=0)
        probs = skip.schedule_probabilities(SkipSchedule.linear(), n)
        np.testing.assert_allclose(freq, probs, atol=0.01)


class TestExpectedContext:
    def test_exact_is_probability_mass_times_window(self):
        # uniform p over N layers: N * p * 2M, checked in exact arithmetic
        from fractions import Fraction

        got = skip.expected_context_exact(SkipSchedule.uniform(0.25), 8, 16)
        assert Fraction(got) == Fraction(8 * 2 * 16) / 4

    def test_exact_minus_approx_is_window_over_depth_for_linear(self):
        from fractions import Fraction

        for n in range(4, 33):
            for m in (8, 512):
                # the law itself, in exact rational arithmetic
                exact = sum(Fraction(i - 1, 2 * n) * 2 * m for i in range(1, n))
                approx = Fraction(m * (n - 3), 2)
                assert exact - approx == Fraction(m, n)
                # the float implementations agree to rounding error
                got = skip.expected_context_exact(SkipSchedule.linear(), n, m)
                assert got == pytest.approx(float(exact), rel=1e-12)
                assert skip.expected_context_approx(n, m) == pytest.approx(float(approx), rel=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        gen = np.random.default_rng(3)
        sched = SkipSchedule.linear()
        exact = skip.expected_context_exact(sched, 12, 512)
        mean, se = skip.simulate_expected_context(sched, 12, 512, 50_000, gen)
        assert abs(mean - exact) < 3 * se
        assert se < 10.0

    def test_simulation_needs_samples(self):
        with pytest.raises(ValueError):
            skip.simulate_expected_context(SkipSchedule.linear(), 4, 8, 1, np.random.default_rng(0))

    def test_negative_memory_is_refused(self):
        linear = SkipSchedule.linear()
        for fn in (lambda: skip.expected_context_exact(linear, 4, -5), lambda: skip.expected_context_approx(4, -5),
                   lambda: skip.simulate_expected_context(linear, 4, -5, 10, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="mem_len must be nonnegative"):
                fn()


class TestPhaseController:
    def test_transitions_when_improvement_stalls(self):
        # binary-exact perplexities so the strict-inequality boundary is sharp
        ctrl = PhaseController(window=5, threshold=0.25)
        assert not ctrl.observe(0, 10.0)
        # improvement of exactly the threshold does not fire (strict <)
        assert not ctrl.observe(5, 9.75)
        assert ctrl.phase == PHASE_SKIP_RETAIN
        assert ctrl.observe(10, 9.6875)
        assert ctrl.phase == PHASE_VANILLA
        assert ctrl.transition_step == 10

    def test_no_transition_before_window_fills(self):
        ctrl = PhaseController(window=100, threshold=5.0)
        for s in range(0, 100, 10):
            assert not ctrl.observe(s, 10.0)
        assert ctrl.phase == PHASE_SKIP_RETAIN
        assert ctrl.observe(100, 10.0)

    def test_fires_at_most_once(self):
        ctrl = PhaseController(window=1, threshold=10.0)
        ctrl.observe(0, 5.0)
        assert ctrl.observe(1, 5.0)
        fired_again = [ctrl.observe(s, 5.0) for s in range(2, 10)]
        assert not any(fired_again)
        assert ctrl.phase == PHASE_VANILLA
        assert ctrl.transition_step == 1

    def test_keeps_running_while_improving(self):
        ctrl = PhaseController(window=2, threshold=0.5)
        ppls = [20.0, 18.0, 16.0, 14.0, 13.9]
        fired = [ctrl.observe(s, p) for s, p in enumerate(ppls)]
        assert not any(fired)
        # best from >= 2 steps ago is 14.0; 13.85 gains only 0.15
        assert ctrl.observe(5, 13.85)

    def test_nan_aborts(self):
        ctrl = PhaseController(window=2, threshold=0.5)
        with pytest.raises(RuntimeError, match="NaN"):
            ctrl.observe(0, float("nan"))

    def test_only_infinite_perplexities_never_switch(self):
        # improvement inf - inf is NaN, which never compares below the threshold
        ctrl = PhaseController(window=1, threshold=0.5)
        fired = [ctrl.observe(s, float("inf")) for s in range(5)]
        assert not any(fired)
        assert ctrl.phase == PHASE_SKIP_RETAIN
        assert ctrl.transition_step is None

    @pytest.mark.parametrize("worse", [25.0, float("inf")])
    def test_reading_worse_than_best_counts_as_no_improvement(self, worse):
        ctrl = PhaseController(window=5, threshold=0.5)
        assert not ctrl.observe(0, 30.0)
        assert not ctrl.observe(5, 20.0)
        assert ctrl.observe(10, worse)
        assert ctrl.phase == PHASE_VANILLA
        assert ctrl.transition_step == 10

    def test_state_round_trip(self):
        ctrl = PhaseController(window=5, threshold=0.2)
        ctrl.observe(0, 10.0)
        ctrl.observe(5, 9.9)
        state = ctrl.state_dict()
        clone = PhaseController.from_state(state)
        assert clone.window == 5 and clone.threshold == 0.2
        assert clone.phase == ctrl.phase
        assert clone.history == ctrl.history
        assert clone.transition_step == ctrl.transition_step
        # the clone continues where the original would
        import copy

        a, b = copy.deepcopy(ctrl), clone
        assert a.observe(10, 9.85) == b.observe(10, 9.85)

    @pytest.mark.parametrize("field, value, match", [("phase", "bogus", "unknown phase"), ("window", 0, "window"),
                                                      ("threshold", 0.0, "threshold")])
    def test_state_is_checked_like_the_constructor(self, field, value, match):
        state = PhaseController(window=5, threshold=0.2).state_dict()
        state[field] = value
        with pytest.raises(ValueError, match=match):
            PhaseController.from_state(state)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseController(window=0, threshold=0.2)
        for bad in (0.0, float("nan")):  # a NaN threshold would never fire
            with pytest.raises(ValueError, match="threshold"):
                PhaseController(window=5, threshold=bad)
        with pytest.raises(ValueError):
            PhaseController(window=5, threshold=0.2, phase="warmup")
