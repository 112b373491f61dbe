import math

import numpy as np
import pytest

from memxl import optim
from memxl.autodiff import Tensor
from memxl.optim import AdamState, adam_update, arena_views, clip_global_norm, cosine_lr


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 0.1, 1000) == pytest.approx(0.1)
        assert cosine_lr(500, 0.1, 1000) == pytest.approx(0.05)
        assert cosine_lr(1000, 0.1, 1000) == pytest.approx(0.0, abs=1e-18)

    def test_flat_zero_past_horizon(self):
        assert cosine_lr(5000, 0.1, 1000) == cosine_lr(1000, 0.1, 1000)

    def test_monotone_decay(self):
        values = [cosine_lr(s, 0.3, 100) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_quarter_point_matches_closed_form(self):
        assert cosine_lr(250, 1.0, 1000) == pytest.approx(0.5 * (1 + math.cos(math.pi / 4)))

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 0.1, 100)
        with pytest.raises(ValueError):
            cosine_lr(0, 0.1, 0)


class TestClipGlobalNorm:
    def make_params(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([3.0, 0.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        return a, b, AdamState([("a", a), ("b", b)])

    def test_small_gradients_untouched(self):
        a, b, state = self.make_params()
        norm = clip_global_norm(state.gather_grads(), max_norm=10.0)
        assert norm == pytest.approx(5.0)
        for got in ((a.grad, b.grad), state.grads):
            np.testing.assert_array_equal(got[0], [3.0, 0.0, 0.0])
            np.testing.assert_array_equal(got[1], [0.0, 4.0])

    def test_large_gradients_scaled_to_max(self):
        a, b, state = self.make_params()
        pre = clip_global_norm(state.gather_grads(), max_norm=1.0)
        assert pre == pytest.approx(5.0)
        ga, gb = state.grads
        post = math.sqrt(float(np.sum(ga**2) + np.sum(gb**2)))
        assert post == pytest.approx(1.0)
        # direction is preserved
        np.testing.assert_allclose(ga, [0.6, 0.0, 0.0], rtol=1e-12)

    def test_none_grads_ignored(self):
        a, _, _ = self.make_params()
        c = Tensor(np.zeros(4), requires_grad=True)
        state = AdamState([("a", a), ("c", c)])
        assert clip_global_norm(state.gather_grads(), max_norm=10.0) == pytest.approx(3.0)
        assert c.grad is None

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_global_norm(np.zeros(0), max_norm=0.0)

    def test_norm_ignores_the_gradients_memory_order(self):
        """C-ordered, Fortran-ordered and strided gradients of the same
        values give the same norm, bit for bit. (Summing each gradient in its
        own memory order gives 79.61369150446511 for C and
        79.6136915044651 for the other two on these values.)"""
        rng = np.random.default_rng(9)
        values = [rng.standard_normal(shape) for shape in ((64, 48), (3, 40, 24), (200,))]
        layouts = {
            "C": [np.ascontiguousarray(v) for v in values],
            "F": [np.asfortranarray(v) for v in values],
            "strided": [np.asfortranarray(np.repeat(v, 2, axis=0))[::2] for v in values],
        }
        norms = {}
        for layout, grads in layouts.items():
            params = [Tensor(np.zeros(v.shape), requires_grad=True) for v in values]
            for p, g in zip(params, grads):
                p.grad = g
            norms[layout] = clip_global_norm(AdamState(list(zip("abc", params))).gather_grads(), 0.25)
        assert norms["C"] > 0.25
        assert norms["F"] == norms["C"] and norms["strided"] == norms["C"]


def per_tensor_adam(named, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor reference loop; missing grads count as zero."""
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    for name, p in named:
        g = p.grad if p.grad is not None else np.zeros(p.shape, dtype=p.dtype)
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = AdamState([("p", p)])
        state.gather_grads()
        adam_update(state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_moves_by_lr_in_gradient_direction(self):
        p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        p.grad = np.array([0.5, -2.0])
        state = AdamState([("p", p)])
        state.gather_grads()
        adam_update(state, lr=0.01)
        # bias-corrected first step is lr * sign(g) up to eps rounding
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -1.0 + 0.01], rtol=1e-6)

    def test_matches_scalar_reference_on_quadratic_bowl(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

        # independent plain-float reference
        x_ref, m_ref, v_ref = 3.0, 0.0, 0.0
        ref_path = []
        for t in range(1, 11):
            g = 2.0 * x_ref
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            x_ref -= lr * (m_ref / (1 - b1**t)) / (math.sqrt(v_ref / (1 - b2**t)) + eps)
            ref_path.append(x_ref)

        p = Tensor(np.array([3.0]), requires_grad=True)
        state = AdamState([("x", p)])
        got_path = []
        for _ in range(10):
            p.grad = 2.0 * p.data
            state.gather_grads()
            adam_update(state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            got_path.append(float(p.data[0]))

        np.testing.assert_allclose(got_path, ref_path, rtol=1e-12)
        assert abs(got_path[-1]) < 3.0  # heading toward the minimum

    def test_unknown_parameter_rejected(self):
        """A parameter whose values no longer live in the arena is one the
        optimizer does not know; its gradient is refused, not applied to the
        arena's stale copy."""
        p = Tensor(np.zeros(2), requires_grad=True)
        state = AdamState([("a", p)])
        p.data = np.zeros(2)
        with pytest.raises(RuntimeError, match="'a'"):
            state.gather_grads()

    def test_moments_keyed_per_parameter(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState([("a", a), ("b", b)])
        a.grad = np.ones(2)
        state.gather_grads()
        adam_update(state, lr=0.1)
        m_a, m_b = arena_views(state.m, state.shapes)
        assert np.abs(m_a).max() > 0
        np.testing.assert_array_equal(m_b, np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_update_matches_per_tensor_reference_bitwise(self, dtype, monkeypatch):
        """Five steps over more than one chunk, with one parameter that never
        gets a gradient: parameters and moments equal the per-tensor loop's."""
        monkeypatch.setattr(optim, "CHUNK", 7)
        rng = np.random.default_rng(3)
        shapes = [(4, 5), (6,), (2, 3, 4), (3,)]
        init = [rng.standard_normal(s).astype(dtype) for s in shapes]
        flat = [(str(i), Tensor(x.copy(), requires_grad=True)) for i, x in enumerate(init)]
        ref = [(str(i), Tensor(x.copy(), requires_grad=True)) for i, x in enumerate(init)]
        state = AdamState(flat)
        m = {name: np.zeros(p.shape, dtype) for name, p in ref}
        v = {name: np.zeros(p.shape, dtype) for name, p in ref}
        for t in range(1, 6):
            for (_, p), (_, q), shape in zip(flat[:-1], ref[:-1], shapes):
                p.grad = q.grad = rng.standard_normal(shape).astype(dtype)
            state.gather_grads()
            adam_update(state, lr=0.01 * t)
            per_tensor_adam(ref, m, v, t, lr=0.01 * t)
        moments = arena_views(state.m, state.shapes), arena_views(state.v, state.shapes)
        for (_, p), (name, q), m_flat, v_flat in zip(flat, ref, *moments):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == q.data.tobytes()
            assert m_flat.tobytes() == m[name].tobytes() and v_flat.tobytes() == v[name].tobytes()
        assert flat[-1][1].data.tobytes() == init[-1].tobytes()  # no gradient, no step


class TestArena:
    def test_parameters_become_views_of_one_array_with_their_values(self):
        rng = np.random.default_rng(0)
        init = [rng.standard_normal(s) for s in ((3, 4), (5,), (2, 2, 2))]
        named = [(f"p{i}", Tensor(x.copy(), requires_grad=True)) for i, x in enumerate(init)]
        state = AdamState(named)
        assert state.params.size == 12 + 5 + 8
        for (_, p), (_, q, view), x in zip(named, state.table, init):
            assert q is p and p.data is view
            assert p.data.flags.c_contiguous and np.shares_memory(p.data, state.params)
            np.testing.assert_array_equal(p.data, x)

    def test_mixed_dtypes_rejected(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="dtype"):
            AdamState([("a", a), ("b", b)])
