import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memxl.autodiff as ad
from memxl import relpos

from helpers import gather_attention, reachable, sum_


def numeric_grad(loss_fn, arrays, index, step=1e-6):
    """Central-difference gradient of loss_fn(*arrays) wrt arrays[index].

    Deliberately independent of the finite-diff helper shipped with the
    package so the two can check each other.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    target = base[index]
    out = np.zeros_like(target)
    flat = target.reshape(-1)
    grad_flat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn(*base)
        flat[i] = orig - step
        lo = loss_fn(*base)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2.0 * step)
    return out


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestElementwise:
    def test_add_mul_grads_match_numeric(self, rng):
        a_np = rng.standard_normal((3, 4))
        b_np = rng.standard_normal((3, 4))

        def loss_fn(a, b):
            return float(np.sum(a * b + a))

        a = ad.Tensor(a_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        loss = sum_(ad.add(ad.mul(a, b), a))
        ad.backward(loss)

        np.testing.assert_allclose(a.grad, numeric_grad(loss_fn, [a_np, b_np], 0), atol=1e-8)
        np.testing.assert_allclose(b.grad, numeric_grad(loss_fn, [a_np, b_np], 1), atol=1e-8)

    def test_relu_gates_gradient(self):
        x = ad.Tensor(np.array([-2.0, -1e-9, 0.0, 1e-9, 3.0]), requires_grad=True)
        ad.backward(sum_(ad.relu(x)))
        # subgradient at exactly zero is taken as zero
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 1.0])

    @given(
        st.sampled_from([((3, 1), (1, 4)), ((2, 3, 4), (4,)), ((5,), (2, 5)), ((1,), (3, 2))]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_broadcast_grads_match_numeric(self, shapes, seed):
        local = np.random.default_rng(seed)
        a_np = local.standard_normal(shapes[0])
        b_np = local.standard_normal(shapes[1])

        def loss_fn(a, b):
            return float(np.sum((a + b) * b))

        a = ad.Tensor(a_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        loss = sum_(ad.mul(ad.add(a, b), b))
        ad.backward(loss)

        assert a.grad.shape == a_np.shape
        assert b.grad.shape == b_np.shape
        np.testing.assert_allclose(a.grad, numeric_grad(loss_fn, [a_np, b_np], 0), atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_grad(loss_fn, [a_np, b_np], 1), atol=1e-7)


class TestLinear:
    """One node: [..., n_in] rows through an [n_out, n_in] weight and an
    optional [n_out] bias by a single GEMM, or one GEMM per segment of a
    [B, S, L, n_in] stack."""

    def test_forward_matches_triple_loop(self, rng):
        x_np = rng.standard_normal((2, 3, 5))
        w_np = rng.standard_normal((4, 5))
        b_np = rng.standard_normal(4)
        plain = ad.linear(ad.Tensor(x_np), ad.Tensor(w_np))
        biased = ad.linear(ad.Tensor(x_np), ad.Tensor(w_np), ad.Tensor(b_np))
        loop = triple_loop_matmul(x_np.reshape(6, 5), w_np.T).reshape(2, 3, 4)
        np.testing.assert_allclose(plain.data, loop, rtol=1e-13)
        np.testing.assert_allclose(biased.data, loop + b_np, rtol=1e-13)
        assert plain.data.tobytes() == (x_np @ w_np.T).tobytes()
        assert biased.data.tobytes() == (x_np @ w_np.T + b_np).tobytes()

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_grads_match_numeric(self, rng, bias):
        x_np = rng.standard_normal((2, 3, 5))
        w_np = rng.standard_normal((4, 5))
        b_np = rng.standard_normal(4) if bias else np.zeros(4)
        g_np = rng.standard_normal((2, 3, 4))
        params = [ad.Tensor(a, requires_grad=True) for a in (x_np, w_np, b_np)[: 3 if bias else 2]]
        out = ad.linear(*params)
        assert out._parents == tuple(params)
        ad.backward(sum_(ad.mul(out, ad.Tensor(g_np))))

        def loss_fn(x, w, b):
            return float(np.sum((x @ w.T + b) * g_np))

        assert params[1].grad.flags.c_contiguous  # a plain copy into the optimizer's gradient buffer
        for i, p in enumerate(params):
            assert p.grad.shape == p.shape
            np.testing.assert_allclose(p.grad, numeric_grad(loss_fn, [x_np, w_np, b_np], i), atol=1e-7)

    @pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 2, 3)], ids=["2d", "3d", "4d"])
    def test_matches_broadcasting_formula(self, rng, lead):
        """Rows of up to three axes run as one GEMM, a 4-D stack as one per
        segment; the weight and bias gradients sum over every leading axis."""
        x_np = rng.standard_normal((*lead, 4))
        w_np = rng.standard_normal((5, 4))
        b_np = rng.standard_normal(5)
        g_np = rng.standard_normal((*lead, 5))
        x, w, b = (ad.Tensor(a, requires_grad=True) for a in (x_np, w_np, b_np))
        out = ad.linear(x, w, b)
        np.testing.assert_allclose(out.data, np.matmul(x_np, w_np.T) + b_np, rtol=1e-13)
        ad.backward(sum_(ad.mul(out, ad.Tensor(g_np))))

        gw = np.matmul(np.swapaxes(g_np, -1, -2), x_np).reshape(-1, 5, 4).sum(axis=0)
        assert w.grad.flags.c_contiguous
        np.testing.assert_allclose(x.grad, np.matmul(g_np, w_np), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b.grad, g_np.reshape(-1, 5).sum(axis=0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_in", [32, 64])
    def test_segment_stack_rounds_each_segment_alone(self, rng, n_in):
        """Each [L, n_in] segment of a [B, S, L, n_in] stack comes out bit for
        bit as it does from a call on that segment alone, whatever BLAS does
        with a longer run of rows."""
        x_np = rng.standard_normal((2, 5, 16, n_in))
        w, b = ad.Tensor(rng.standard_normal((3, 8, n_in))), ad.Tensor(rng.standard_normal(24))
        out = ad.linear(ad.Tensor(x_np), w, b).data
        for i, j in np.ndindex(2, 5):
            assert out[i, j].tobytes() == ad.linear(ad.Tensor(x_np[i, j][None]), w, b).data[0].tobytes()

    def test_per_head_weight_matches_per_head_formula_and_central_differences(self, rng):
        """An [H, d_h, d] weight gives each head's [..., T, d_h] projection,
        laid side by side head by head in [..., T, H * d_h] rows."""
        x_np = rng.standard_normal((2, 3, 5))
        w_np = rng.standard_normal((4, 2, 5))
        g_np = rng.standard_normal((2, 3, 8))
        x = ad.Tensor(x_np, requires_grad=True)
        w = ad.Tensor(w_np, requires_grad=True)
        out = ad.linear(x, w)
        assert out._parents == (x, w)
        per_head = np.matmul(x_np[:, None], w_np.transpose(0, 2, 1))  # [B, 1, T, d] @ [H, d, d_h]
        np.testing.assert_allclose(out.data, np.concatenate(list(per_head.swapaxes(0, 1)), axis=-1), rtol=1e-13)
        assert out.data.tobytes() == (x_np @ w_np.reshape(8, 5).T).tobytes()
        ad.backward(sum_(ad.mul(out, ad.Tensor(g_np))))

        def loss_fn(x, w):
            heads = np.matmul(x[:, None], w.transpose(0, 2, 1))
            return float(np.sum(np.concatenate(list(heads.swapaxes(0, 1)), axis=-1) * g_np))

        assert w.grad.shape == w.shape
        assert w.grad.flags.c_contiguous  # a plain copy into the optimizer's gradient buffer
        np.testing.assert_allclose(x.grad, numeric_grad(loss_fn, [x_np, w_np], 0), atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_grad(loss_fn, [x_np, w_np], 1), atol=1e-7)

    def test_rejects_mismatched_width_or_bias(self):
        x, w = ad.Tensor(np.zeros((2, 3, 5))), ad.Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(x, ad.Tensor(np.zeros((4, 3))))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(x, w, ad.Tensor(np.zeros(5)))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(x, ad.Tensor(np.zeros((2, 3, 4))))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(x, ad.Tensor(np.zeros((2, 3, 5))), ad.Tensor(np.zeros(3)))


class TestProjectHeads:
    """The per-head projection: linear with an [H, d_h, d] weight."""

    def test_float32_stays_float32(self, rng):
        x = ad.Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        out = ad.linear(x, w)
        assert out.dtype == np.float32
        assert out.shape == (1, 3, 6)
        ad.backward(sum_(out))
        assert x.grad.dtype == w.grad.dtype == np.float32

    def test_rejects_mismatched_width(self):
        with pytest.raises(ValueError, match="linear"):
            ad.linear(ad.Tensor(np.zeros((1, 3, 4))), ad.Tensor(np.zeros((2, 3, 5))))


class TestShapeOps:
    def test_concat_roundtrip_and_grad_split(self, rng):
        a_np = rng.standard_normal((2, 3))
        b_np = rng.standard_normal((2, 5))
        a = ad.Tensor(a_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        joined = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(joined.data, np.concatenate([a_np, b_np], axis=1))

        weights = rng.standard_normal((2, 8))
        ad.backward(sum_(ad.mul(joined, ad.Tensor(weights))))
        np.testing.assert_array_equal(a.grad, weights[:, :3])
        np.testing.assert_array_equal(b.grad, weights[:, 3:])

    def test_sum_axis_keepdims(self, rng):
        x_np = rng.standard_normal((3, 4))

        def loss_fn(x):
            return float(np.sum(np.sum(x, axis=0, keepdims=True) ** 2))

        x = ad.Tensor(x_np, requires_grad=True)
        m = sum_(x, axis=0, keepdims=True)
        assert m.shape == (1, 4)
        ad.backward(sum_(ad.mul(m, m)))
        np.testing.assert_allclose(x.grad, numeric_grad(loss_fn, [x_np], 0), atol=1e-7)


class TestIndexingOps:
    def test_index_rows_scatter_adds(self):
        table = ad.Tensor(np.arange(10, dtype=np.float64).reshape(5, 2), requires_grad=True)
        ids = np.array([0, 3, 3, 1])
        rows = ad.index_rows(table, ids)
        np.testing.assert_array_equal(rows.data, table.data[ids])
        coeff = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        ad.backward(sum_(ad.mul(rows, ad.Tensor(coeff))))
        expected = np.zeros((5, 2))
        np.add.at(expected, ids, coeff)
        np.testing.assert_array_equal(table.grad, expected)


class TestComposed:
    def test_layer_norm_statistics(self, rng):
        x = ad.Tensor(rng.standard_normal((3, 16)) * 5.0 + 2.0)
        gain = ad.Tensor(np.ones(16))
        bias = ad.Tensor(np.zeros(16))
        out, normed = ad.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(3), rtol=1e-4)
        assert normed.tobytes() == out.data.tobytes()  # unit gain, zero bias

    def test_layer_norm_grads_match_numeric(self, rng):
        x_np = rng.standard_normal((2, 6))
        g_np = rng.uniform(0.5, 1.5, 6)
        b_np = rng.standard_normal(6)
        w_np = rng.standard_normal((2, 6))
        eps = 1e-5

        def loss_fn(x, g, b):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return float(np.sum(((x - mu) / np.sqrt(var + eps) * g + b) * w_np))

        x = ad.Tensor(x_np, requires_grad=True)
        g = ad.Tensor(g_np, requires_grad=True)
        b = ad.Tensor(b_np, requires_grad=True)
        ad.backward(sum_(ad.mul(ad.layer_norm(x, g, b)[0], ad.Tensor(w_np))))
        np.testing.assert_allclose(x.grad, numeric_grad(loss_fn, [x_np, g_np, b_np], 0), atol=1e-6)
        np.testing.assert_allclose(g.grad, numeric_grad(loss_fn, [x_np, g_np, b_np], 1), atol=1e-6)
        np.testing.assert_allclose(b.grad, numeric_grad(loss_fn, [x_np, g_np, b_np], 2), atol=1e-6)

    def test_cross_entropy_matches_manual(self, rng):
        logits_np = rng.standard_normal((4, 6))
        targets = np.array([0, 5, 2, 2])
        shifted = logits_np - logits_np.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        manual = -logp[np.arange(4), targets].mean()
        loss = ad.cross_entropy(ad.Tensor(logits_np), targets)
        assert loss.ndim == 0
        np.testing.assert_allclose(float(loss.data), manual, rtol=1e-13)

    def test_cross_entropy_grad_matches_numeric(self, rng):
        logits_np = rng.standard_normal((3, 5))
        targets = np.array([1, 4, 0])

        def loss_fn(x):
            shifted = x - x.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            return float(-logp[np.arange(3), targets].mean())

        t = ad.Tensor(logits_np, requires_grad=True)
        ad.backward(ad.cross_entropy(t, targets))
        np.testing.assert_allclose(t.grad, numeric_grad(loss_fn, [logits_np], 0), atol=1e-7)

    def test_cross_entropy_rejects_bad_targets(self):
        logits = ad.Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.array([0, 4]))
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.array([-1, 0]))
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.array([0, 1, 2]))


def np_layer_norm(x, g, b, eps=1e-5):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps) * g + b


def np_cross_entropy(logits, targets):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -np.take_along_axis(logp, targets[..., None], axis=-1).mean()


# memory tags and block tags of the layouts the attention core is checked on
LAYOUTS = {
    "empty": (np.arange(0), np.arange(0, 4)),
    "filling": (np.arange(3), np.arange(3, 7)),
    "full": (np.arange(8), np.arange(8, 12)),
    "one_query": (np.arange(8), np.arange(8, 9)),
    "short_block": (np.arange(8), np.arange(8, 11)),
    "stale1": (np.arange(4), np.arange(8, 12)),   # a full memory of 4 after one skip
    "stale3": (np.arange(4), np.arange(16, 20)),  # ... after three
    "gapped": (np.array([2, 3, 8, 9, 10, 11]), np.arange(12, 16)),  # a gap inside the memory
}


def core_inputs(rng, dtype, layout, batch=2, n_heads=3, d_head=4):
    """Random inputs of the attention core for one of ``LAYOUTS``: [q, keys,
    values, position keys] as [B, T, H * d_h] rows, then u and v, all
    requiring grad, the encoding of their offsets and the offset matrix."""
    mem_tags, q_tags = LAYOUTS[layout]
    offsets = relpos.relative_offsets(q_tags, np.concatenate([mem_tags, q_tags]))
    enc = relpos.encode_offsets(offsets, 8)
    length, n_keys = offsets.shape
    width = n_heads * d_head

    def t(*shape):
        return ad.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    return [
        t(batch, length, width), t(batch, n_keys, width), t(batch, n_keys, width),
        t(1, enc.offsets.size, width), t(d_head), t(d_head),
    ], enc, offsets


def core_run(op, inputs, layout, weights):
    """``op(*inputs, layout)`` and the gradients of sum(output * weights) for each input."""
    for x in inputs:
        x.zero_grad()
    out = op(*inputs, layout)
    ad.backward(sum_(ad.mul(out, ad.Tensor(weights))))
    return out.data, [x.grad for x in inputs]


def heads_in_order(rows, order):
    """[..., T, H * d_h] rows whose head block M is the input's block order[M]."""
    return rows.reshape(rows.shape[:-1] + (order.size, -1))[..., order, :].reshape(rows.shape)


def fused_calls(dtype, rng):
    """Each fused op on [B, T, d] inputs, as (name, output, inputs); linear
    once with an [n_out, d] and once with an [H, d_h, d] weight."""
    x = ad.Tensor(rng.standard_normal((2, 3, 5)).astype(dtype), requires_grad=True)
    g = ad.Tensor(rng.uniform(0.5, 1.5, 5).astype(dtype), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(5).astype(dtype), requires_grad=True)
    logits = ad.Tensor(rng.standard_normal((2, 3, 5)).astype(dtype), requires_grad=True)
    core, enc, _ = core_inputs(rng, dtype, "filling")
    w = ad.Tensor(rng.standard_normal((4, 5)).astype(dtype), requires_grad=True)
    bias = ad.Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True)
    w_heads = ad.Tensor(rng.standard_normal((2, 3, 5)).astype(dtype), requires_grad=True)
    return [
        ("layer_norm", ad.layer_norm(x, g, b)[0], (x, g, b)),
        ("scale_shift", ad.scale_shift(ad.layer_norm(x, g, b)[1], g, b), (g, b)),
        ("cross_entropy", ad.cross_entropy(logits, np.array([[0, 4, 2], [1, 1, 3]])), (logits,)),
        ("attention_core", ad.attention_core(*core, enc), tuple(core)),
        ("linear", ad.linear(x, w, bias), (x, w, bias)),
        ("linear_per_head", ad.linear(x, w_heads), (x, w_heads)),
    ]


class TestFused:
    """layer_norm, scale_shift, cross_entropy, the attention core and linear
    each record one node whose VJP is written by hand; these check it against
    numpy and central differences."""

    def test_each_records_one_node(self, rng):
        for name, out, inputs in fused_calls(np.float64, rng):
            assert len(out._parents) == len(inputs), name
            assert all(p is q for p, q in zip(out._parents, inputs)), name

    def test_grads_match_numeric_on_batched_input(self, rng):
        x_np = rng.standard_normal((2, 3, 5))
        g_np = rng.uniform(0.5, 1.5, 5)
        b_np = rng.standard_normal(5)
        w_np = rng.standard_normal((2, 3, 5))
        targets = np.array([[0, 4, 2], [1, 1, 3]])

        x, g, b = (ad.Tensor(a, requires_grad=True) for a in (x_np, g_np, b_np))
        ad.backward(sum_(ad.mul(ad.layer_norm(x, g, b)[0], ad.Tensor(w_np))))
        for i, p in enumerate((x, g, b)):
            want = numeric_grad(lambda x, g, b: float(np.sum(np_layer_norm(x, g, b) * w_np)), [x_np, g_np, b_np], i)
            assert p.grad.shape == p.shape
            np.testing.assert_allclose(p.grad, want, atol=1e-7)

        logits = ad.Tensor(x_np, requires_grad=True)
        loss = ad.cross_entropy(logits, targets)
        np.testing.assert_allclose(float(loss.data), np_cross_entropy(x_np, targets), rtol=1e-13)
        ad.backward(loss)
        want = numeric_grad(lambda x: float(np_cross_entropy(x, targets)), [x_np], 0)
        np.testing.assert_allclose(logits.grad, want, atol=1e-8)

    def test_float32_stays_float32(self, rng):
        for name, out, inputs in fused_calls(np.float32, rng):
            assert out.dtype == np.float32, name
            if out.ndim:
                weights = ad.Tensor(rng.standard_normal(out.shape).astype(np.float32))
                out = sum_(ad.mul(out, weights))
            ad.backward(out)
            assert [p.grad.dtype for p in inputs] == [np.float32] * len(inputs), name

    @pytest.mark.parametrize("weights", [(5,), (4, 5), (2, 3, 5)], ids=["layer_norm", "linear", "linear_per_head"])
    def test_constant_input_gets_no_gradient_and_the_rest_are_bitwise_unchanged(self, rng, weights):
        """Rows that take no gradient, such as cached memory or encoding
        vectors, get None from the VJP, and the weights' gradients are the
        same bytes as when the rows take one."""
        x_np = rng.standard_normal((2, 3, 5))
        w_np, b_np = rng.standard_normal(weights), rng.standard_normal(weights[0])
        op = (lambda *a: ad.layer_norm(*a)[0]) if len(weights) == 1 else ad.linear
        arrays = (w_np,) if len(weights) == 3 else (w_np, b_np)
        grads = {}
        for live in (True, False):
            out = op(ad.Tensor(x_np, requires_grad=live), *(ad.Tensor(a, requires_grad=True) for a in arrays))
            input_grad, *rest = out._node._vjp(np.random.default_rng(1).standard_normal(out.shape))
            assert (input_grad is not None) == live
            grads[live] = [r.tobytes() for r in rest]
        assert grads[True] == grads[False]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scale_shift_of_normed_rows_is_layer_norm_of_constant_rows(self, rng, dtype):
        """Over the rows layer_norm normalised, scale_shift gives the bytes of
        layer_norm of the constant rows, and its VJP the same gain and bias
        gradients."""
        x = ad.Tensor((rng.standard_normal((2, 3, 5)) * 3 + 1).astype(dtype))
        g, b = (ad.Tensor(rng.standard_normal(5).astype(dtype), requires_grad=True) for _ in range(2))
        grad = rng.standard_normal((2, 3, 5)).astype(dtype)
        full, normed = ad.layer_norm(x, g, b)
        affine = ad.scale_shift(normed, g, b)
        assert affine.data.dtype == dtype and affine.data.tobytes() == full.data.tobytes()
        none, *want = full._node._vjp(grad)
        assert none is None
        assert [a.tobytes() for a in affine._node._vjp(grad)] == [a.tobytes() for a in want]

    def test_layer_norm_rejects_bad_gain_and_bias(self):
        x = ad.Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="gain/bias"):
            ad.layer_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="gain/bias"):
            ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros((1, 4))))


class TestAttentionCore:
    """The fused attention node, which reads every layout's position scores
    through one relative shift, against the gather reference in ``helpers``
    and against central differences."""

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_shift_and_gather_paths_agree(self, rng, layout):
        inputs, enc, offsets = core_inputs(rng, np.float64, layout)
        weights = rng.standard_normal(inputs[0].shape)
        shift_out, shift_grads = core_run(ad.attention_core, inputs, enc, weights)
        gather_out, gather_grads = core_run(gather_attention, inputs, offsets, weights)
        assert shift_out.tobytes() == gather_out.tobytes()
        for a, b in zip(shift_grads, gather_grads):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    # "shift" is the core on the filling layout; "gather" checks the gather
    # reference itself, on the gapped layout, so the agreement above ties both
    # to the math; "crossed" crosses three heads by a 3-cycle, which, unlike a
    # swap of two, is not its own inverse
    @pytest.mark.parametrize("case", ["shift", "gather", "stale1", "stale3", "gapped", "crossed"])
    def test_grads_match_central_differences(self, rng, case):
        layout = {"shift": "filling", "gather": "gapped", "crossed": "stale1"}.get(case, case)
        inputs, enc, offsets = core_inputs(rng, np.float64, layout, n_heads=3 if case == "crossed" else 2, d_head=3)
        sigma = np.array([1, 2, 0]) if case == "crossed" else None
        op, arg = (gather_attention, offsets) if case == "gather" else (lambda *a: ad.attention_core(*a, sigma), enc)
        weights = rng.standard_normal(inputs[0].shape)
        _, grads = core_run(op, inputs, arg, weights)

        def loss_fn(*arrays):
            return float(np.sum(op(*(ad.Tensor(a) for a in arrays), arg).data * weights))

        arrays = [x.data for x in inputs]
        for i, grad in enumerate(grads):
            np.testing.assert_allclose(grad, numeric_grad(loss_fn, arrays, i), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("layout", ["filling", "gapped"])
    def test_crossed_heads_match_the_identity_core_on_gathered_key_heads(self, rng, layout):
        """Crossing inside the core against crossing before it: the key, value
        and position-key head blocks gathered by sigma, a 3-cycle, then the
        identity core. The same output bytes, and the same gradients within
        1e-13 once the gathered blocks' are put back in head order."""
        sigma = np.array([1, 2, 0])
        inputs, enc, _ = core_inputs(rng, np.float64, layout)
        weights = rng.standard_normal(inputs[0].shape)
        out, grads = core_run(lambda *a: ad.attention_core(*a, sigma), inputs, enc, weights)
        gathered = [ad.Tensor(heads_in_order(x.data, sigma) if i in (1, 2, 3) else x.data, requires_grad=True)
                    for i, x in enumerate(inputs)]
        want, want_grads = core_run(ad.attention_core, gathered, enc, weights)
        want_grads[1:4] = [heads_in_order(g, sigma.argsort()) for g in want_grads[1:4]]
        assert out.tobytes() == want.tobytes()
        for a, b in zip(grads, want_grads):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    @pytest.mark.parametrize("layout", ["filling", "gapped"])
    def test_float32_in_float32_out(self, rng, layout):
        inputs, enc, _ = core_inputs(rng, np.float32, layout)
        weights = rng.standard_normal(inputs[0].shape).astype(np.float32)
        out, grads = core_run(ad.attention_core, inputs, enc, weights)
        assert out.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * 6
        wide = [ad.Tensor(x.data.astype(np.float64), requires_grad=True) for x in inputs]
        want_out, want_grads = core_run(ad.attention_core, wide, enc, weights.astype(np.float64))
        np.testing.assert_allclose(out, want_out, rtol=1e-4, atol=1e-5)
        for g, want in zip(grads, want_grads):
            np.testing.assert_allclose(g, want, rtol=1e-3, atol=1e-4)

    def test_future_keys_get_no_weight_and_no_grad(self, rng):
        # the block's last key is in the future of every query but the last
        for layout in ("filling", "stale1"):
            inputs, enc, _ = core_inputs(rng, np.float64, layout)
            weights = rng.standard_normal(inputs[0].shape)
            weights[:, -1] = 0.0
            out, grads = core_run(ad.attention_core, inputs, enc, weights)
            assert np.all(grads[1][:, -1] == 0.0) and np.all(grads[2][:, -1] == 0.0)
            for x in inputs[1:3]:
                x.data[:, -1] = 1e6
            moved, _ = core_run(ad.attention_core, inputs, enc, weights)
            np.testing.assert_array_equal(moved[:, :-1], out[:, :-1])
            assert not np.array_equal(moved[:, -1], out[:, -1])

    @pytest.mark.parametrize("layout", ["filling", "stale3"])
    def test_score_grids_written_into_given_buffers(self, rng, layout):
        """Handed two flat NaN-filled buffers under no_grad, as long as the
        grids or longer, the core writes its [B, H, L, n] and [B, H, L, K]
        score grids into their fronts and returns the same bytes as with
        fresh grids, call after call; the key grid ends up holding the
        softmax, and the tails stay NaN."""
        inputs, enc, offsets = core_inputs(rng, np.float64, layout)
        batch, n_heads = inputs[0].shape[0], 3
        length, n_keys = offsets.shape
        sizes = [batch * n_heads * length * n for n in (enc.offsets.size, n_keys)]
        with ad.no_grad():
            want = ad.attention_core(*inputs, enc).data
            for spare in (0, 7):
                buffers = tuple(np.full(size + spare, np.nan) for size in sizes)
                for _ in range(2):
                    got = ad.attention_core(*inputs, enc, grids=buffers).data
                    assert got.tobytes() == want.tobytes()
                    pos_grid, key_grid = (b[:n].reshape(batch, n_heads, length, -1) for b, n in zip(buffers, sizes))
                    np.testing.assert_allclose(key_grid.sum(axis=-1), 1.0, rtol=1e-13)
                    assert not np.isnan(pos_grid).any()
                    for b, size in zip(buffers, sizes):
                        assert b[size:].size == spare and np.isnan(b[size:]).all()
                        b[...] = np.nan

    def test_score_grids_refused_while_recording(self, rng):
        """The VJP keeps the softmax, which a reused buffer would overwrite."""
        inputs, enc, offsets = core_inputs(rng, np.float64, "full")
        length, n_keys = offsets.shape
        grids = (np.empty(2 * 3 * length * enc.offsets.size), np.empty(2 * 3 * length * n_keys))
        with pytest.raises(RuntimeError, match="no_grad"):
            ad.attention_core(*inputs, enc, grids=grids)

    def test_rejects_layout_of_other_queries_or_keys(self, rng):
        inputs, _, _ = core_inputs(rng, np.float64, "stale1")  # 4 queries, 8 keys
        # a key too many, then a block of 3 that cannot hold 4 queries
        for mem_tags, q_tags in ((np.arange(4), np.arange(8, 13)), (np.arange(5), np.arange(9, 12))):
            enc = relpos.encode_offsets(relpos.relative_offsets(q_tags, np.r_[mem_tags, q_tags]), 8)
            with pytest.raises(ValueError, match="do not match 4 queries by 8 keys"):
                ad.attention_core(*inputs, enc)


class TestDropout:
    def test_identity_at_rate_zero_and_eval(self, rng):
        x = ad.Tensor(rng.standard_normal((3, 3)))
        assert ad.dropout(x, 0.0, None, training=True) is x
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_rate_zero_consumes_no_rng(self):
        gen = np.random.default_rng(7)
        before = gen.bit_generator.state
        ad.dropout(ad.Tensor(np.ones(4)), 0.0, gen, training=True)
        assert gen.bit_generator.state == before

    def test_drop_fraction_and_rescale(self):
        gen = np.random.default_rng(0)
        x = ad.Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.3, gen, training=True).data
        dropped = np.mean(out == 0.0)
        assert abs(dropped - 0.3) < 0.01
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, np.full(survivors.shape, 1.0 / 0.7), rtol=1e-12)
        # rescaling keeps the expectation near the input mean
        assert abs(out.mean() - 1.0) < 0.01

    def test_grad_zero_where_dropped(self):
        gen = np.random.default_rng(3)
        x = ad.Tensor(np.ones(64), requires_grad=True)
        out = ad.dropout(x, 0.5, gen, training=True)
        ad.backward(sum_(out))
        dropped = out.data == 0.0
        assert dropped.any() and (~dropped).any()
        np.testing.assert_array_equal(x.grad[dropped], np.zeros(dropped.sum()))
        np.testing.assert_allclose(x.grad[~dropped], np.full((~dropped).sum(), 2.0), rtol=1e-12)

    def test_invalid_rate_rejected(self):
        x = ad.Tensor(np.ones(2))
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, np.random.default_rng(0), training=True)


class TestGraphMechanics:
    def test_backward_twice_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        loss = sum_(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_backward_needs_scalar_with_graph(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))
        with pytest.raises(RuntimeError):
            ad.backward(sum_(ad.Tensor(np.ones(3))))

    def test_only_the_loss_and_leaves_keep_grads(self, rng):
        """Intermediate grads are dropped once propagated; the leaves' grads
        still match central differences."""
        x_np, w_np, b_np = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)
        x, w, b = (ad.Tensor(a, requires_grad=True) for a in (x_np, w_np, b_np))
        hidden = ad.linear(x, w, b)
        squared = ad.mul(hidden, hidden)
        loss = sum_(ad.relu(squared))
        ad.backward(loss)
        assert hidden.grad is None and squared.grad is None
        assert loss.grad == 1.0
        assert hidden._parents == (x, w, b)  # the graph itself stays walkable

        def loss_fn(x, w, b):
            return float(np.sum((x @ w.T + b) ** 2))

        for i, p in enumerate((x, w, b)):
            np.testing.assert_allclose(p.grad, numeric_grad(loss_fn, [x_np, w_np, b_np], i), atol=1e-6)

    def test_backward_frees_each_vjp_once_it_has_run(self):
        """VJPs run from the loss back, and each is dropped, with the arrays
        only it captured, before the next one runs. Afterwards the graph
        still walks from the loss to the leaf but holds no VJP."""
        refs, seen = [], []

        def op(a):
            kept = np.full(3, 2.0)  # an array only this op's VJP holds
            refs.append(weakref.ref(kept))

            def vjp(g):
                seen.append([r() is None for r in refs])
                return (g * kept,)

            return ad._make(a.data * kept, (a,), vjp)

        x = ad.Tensor(np.ones(3), requires_grad=True)
        loss = sum_(op(op(op(x))))
        ad.backward(loss)
        assert seen == [[False, False, False], [False, False, True], [False, True, True]]
        assert [r() for r in refs] == [None] * 3
        np.testing.assert_array_equal(x.grad, [8.0] * 3)
        nodes = reachable(loss)
        assert x in nodes and all(n._vjp is None for n in nodes if isinstance(n, ad.Node))

    def test_grad_accumulates_across_uses(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        loss = sum_(ad.add(ad.mul(x, x), x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_leaf_with_a_grad_buffer_accumulates_there(self):
        """The first contribution is copied into the buffer and later ones
        added in place; ``add`` hands the same array to both parents, and
        the parent without a buffer keeps it unchanged."""
        x, y = ad.Tensor(np.array([2.0, -1.0]), requires_grad=True), ad.Tensor(np.zeros(2), requires_grad=True)
        x.grad_buffer = buffer = np.full(2, np.nan)
        ad.backward(sum_(ad.add(ad.add(x, y), ad.mul(x, x))))
        assert x.grad is buffer
        np.testing.assert_array_equal(buffer, [5.0, -1.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        ad.backward(sum_(ad.mul(x, x)))  # no reset: the second graph's grads add on
        assert x.grad is buffer
        np.testing.assert_array_equal(buffer, [9.0, -3.0])

    def test_no_grad_records_nothing(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.mul(x, x)
        assert not out.requires_grad
        assert out._parents == ()
        # graph recording resumes on exit
        live = ad.mul(x, x)
        assert live.requires_grad

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with ad.no_grad():
                raise ValueError("boom")
        x = ad.Tensor(np.ones(2), requires_grad=True)
        assert ad.mul(x, x).requires_grad


class TestFiniteDiffChecker:
    def test_accepts_correct_gradient(self):
        p = ad.Tensor(np.array([1.5, -0.5]), requires_grad=True)
        report = ad.finite_diff_check(lambda: sum_(ad.mul(p, p)), [("p", p)])
        assert report.passed
        assert report.max_rel_error < 1e-8
        assert report.failures() == []
        assert "pass" in report.summary()

    def test_flags_wrong_gradient(self):
        p = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def bad():
            # analytic claim (3x) disagrees with the true derivative (2x)
            out = ad._make(p.data * p.data, (p,), lambda g: (3.0 * p.data * g,))
            return sum_(out)

        report = ad.finite_diff_check(bad, [("p", p)])
        assert not report.passed
        assert report.failures() == ["p"]
        assert "FAIL" in report.summary()

    def test_rejects_nondeterministic_function(self):
        gen = np.random.default_rng(0)
        p = ad.Tensor(np.ones(2), requires_grad=True)

        def noisy():
            return sum_(ad.mul(p, ad.Tensor(gen.random(2))))

        with pytest.raises(RuntimeError, match="deterministic"):
            ad.finite_diff_check(noisy, [("p", p)])
