import numpy as np
import pytest

import memxl.autodiff as ad
from memxl import MemoryLM, ModelConfig, attention
from memxl.analysis import prune_heads
from memxl.attention import HeadAssignment, LayerAttentionParams, sample_head_assignment
from memxl.relpos import encode_offsets, relative_offsets

from helpers import split_heads, sum_


def pe_vec(r: int, d: int) -> np.ndarray:
    half = d // 2
    angles = r * np.power(10000.0, -2.0 * np.arange(half) / d)
    return np.concatenate([np.sin(angles), np.cos(angles)])


def make_params(rng, n_heads=3, d_head=2, d_model=6):
    return LayerAttentionParams.init(n_heads, d_head, d_model, std=0.4, rng=rng, dtype=np.float64)


def oracle_forward(x_block, memory, query_tags, key_tags, params, sigma, prune=None):
    """Per-head reimplementation with explicit loops; no shared code paths."""
    keys = x_block if memory is None or len(memory) == 0 else np.concatenate([memory, x_block])
    n_heads, d_head, _ = params.w_q.shape
    length, n_keys = len(query_tags), len(key_tags)
    u, v = params.u.data, params.v.data
    offsets = query_tags[:, None] - key_tags[None, :]

    head_outs = []
    for h in range(n_heads):
        kv = int(sigma[h]) if sigma is not None else h
        q = x_block @ params.w_q.data[h].T
        ke = keys @ params.w_ke.data[kv].T
        vv = keys @ params.w_v.data[kv].T
        scores = np.full((length, n_keys), -np.inf)
        for i in range(length):
            for j in range(n_keys):
                if offsets[i, j] < 0:
                    continue
                r = pe_vec(int(offsets[i, j]), x_block.shape[-1]) @ params.w_kr.data[kv].T
                scores[i, j] = ((q[i] + u) @ ke[j] + (q[i] + v) @ r) / np.sqrt(d_head)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        out = probs @ vv
        if prune is not None and not prune[h]:
            out = np.zeros_like(out)
        head_outs.append(out)
    return np.concatenate(head_outs, axis=-1) @ params.w_o.data.T


def pruned(params, keep):
    """``params`` as ``prune_heads`` leaves them in a one-layer model, with
    the heads that ``keep`` marks False pruned."""
    n_heads, d_head, d_model = params.w_q.shape
    cfg = ModelConfig(n_layers=1, d_model=d_model, d_inner=1, n_heads=n_heads, d_head=d_head, mem_len=0,
                      block_len=1, vocab_size=1)
    model = MemoryLM(cfg, np.random.default_rng(0))
    model.layers[0].attn = params
    return prune_heads(model, np.asarray(keep)[None]).layers[0].attn


def run_forward(x_block, memory, query_tags, key_tags, params, assignment=None):
    """Attention sublayer on one sequence [L, d] or a batch [B, L, d]; the
    output has the shape of ``x_block``."""
    offsets = relative_offsets(query_tags, key_tags)
    enc = encode_offsets(offsets, x_block.shape[-1])
    x_t = ad.Tensor(x_block.reshape(-1, *x_block.shape[-2:]))
    params = params.crossed(assignment)
    keys, values = ad.linear(x_t, params.w_ke), ad.linear(x_t, params.w_v)
    if memory is not None and len(memory):
        mem_t = ad.Tensor(memory.reshape(-1, *memory.shape[-2:]))
        keys = ad.concat([ad.linear(mem_t, params.w_ke), keys], axis=1)
        values = ad.concat([ad.linear(mem_t, params.w_v), values], axis=1)
    positions = attention.position_keys(enc, params.w_kr)
    out = attention.multi_head_forward(x_t, keys, values, enc, params, positions)
    out.data = out.data.reshape(x_block.shape)  # the output projection's VJP reads its gradient flat
    return out


class TestForwardOracle:
    def test_matches_loop_oracle_without_memory(self, rng):
        params = make_params(rng)
        x = rng.standard_normal((4, 6))
        q_tags = np.arange(4)
        got = run_forward(x, None, q_tags, q_tags, params)
        want = oracle_forward(x, None, q_tags, q_tags, params, sigma=None)
        assert got.shape == (4, 6)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    def test_matches_loop_oracle_with_memory(self, rng):
        params = make_params(rng)
        mem = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 6))
        mem_tags = np.arange(0, 3)
        q_tags = np.arange(3, 7)
        key_tags = np.concatenate([mem_tags, q_tags])
        got = run_forward(x, mem, q_tags, key_tags, params)
        want = oracle_forward(x, mem, q_tags, key_tags, params, sigma=None)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    def test_matches_loop_oracle_with_stale_memory(self, rng):
        # gaps in the key tags: the memory's rows are older than the block before
        params = make_params(rng)
        mem = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 6))
        q_tags = np.arange(9, 13)
        key_tags = np.concatenate([[1, 2, 5], q_tags])
        assert len(encode_offsets(relative_offsets(q_tags, key_tags), 6).runs) == 3
        got = run_forward(x, mem, q_tags, key_tags, params)
        want = oracle_forward(x, mem, q_tags, key_tags, params, sigma=None)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("prune", [None, np.array([True, True, False])], ids=["all_heads", "pruned"])
    @pytest.mark.parametrize("sigma", [None, np.array([2, 0, 1])], ids=["identity", "crossed"])
    def test_matches_loop_oracle_batched(self, rng, sigma, prune):
        params = make_params(rng)
        mem = rng.standard_normal((2, 3, 6))
        x = rng.standard_normal((2, 4, 6))
        mem_tags = np.arange(0, 3)
        q_tags = np.arange(3, 7)
        key_tags = np.concatenate([mem_tags, q_tags])
        assignment = None if sigma is None else HeadAssignment(sigma=sigma, cross_active=True)
        got = run_forward(x, mem, q_tags, key_tags, params if prune is None else pruned(params, prune), assignment)
        assert got.shape == (2, 4, 6)
        for b in range(2):
            want = oracle_forward(x[b], mem[b], q_tags, key_tags, params, sigma=sigma, prune=prune)
            np.testing.assert_allclose(got.data[b], want, rtol=1e-12, atol=1e-14)

    def test_cross_assignment_matches_loop_oracle(self, rng):
        params = make_params(rng)
        x = rng.standard_normal((3, 6))
        mem = rng.standard_normal((2, 6))
        q_tags = np.arange(2, 5)
        key_tags = np.arange(0, 5)
        sigma = np.array([2, 0, 1])
        assignment = HeadAssignment(sigma=sigma, cross_active=True)
        got = run_forward(x, mem, q_tags, key_tags, params, assignment)
        want = oracle_forward(x, mem, q_tags, key_tags, params, sigma=sigma)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    def test_identity_assignment_bitwise_equals_none(self, rng):
        params = make_params(rng)
        x = rng.standard_normal((4, 6))
        q_tags = np.arange(4)
        plain = run_forward(x, None, q_tags, q_tags, params, assignment=None)
        ident = run_forward(x, None, q_tags, q_tags, params, assignment=HeadAssignment.identity(3))
        assert plain.data.tobytes() == ident.data.tobytes()


class TestPruning:
    """``prune_heads`` against the loop oracle, which silences a head's output."""

    def test_prune_matches_loop_oracle(self, rng):
        params = make_params(rng)
        x = rng.standard_normal((3, 6))
        q_tags = np.arange(3)
        prune = np.array([False, True, True])
        got = run_forward(x, None, q_tags, q_tags, pruned(params, prune))
        want = oracle_forward(x, None, q_tags, q_tags, params, sigma=None, prune=prune)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    def test_all_kept_equals_no_mask(self, rng):
        params = make_params(rng)
        assert pruned(params, np.ones(3, dtype=bool)) is params

    def test_pruned_head_equals_zeroed_output_columns(self, rng):
        params = make_params(rng)
        clone = pruned(params, [True, False, True])
        w_o_zeroed = params.w_o.data.copy()
        w_o_zeroed[:, 2:4] = 0.0  # head 1 owns columns [d_head, 2*d_head)
        assert clone.w_o.data.tobytes() == w_o_zeroed.tobytes()
        assert clone.w_o is not params.w_o and not clone.w_o.requires_grad
        for name in ("w_q", "w_ke", "w_kr", "w_v", "u", "v"):
            assert getattr(clone, name) is getattr(params, name)

    def test_all_pruned_layer_rejected(self, rng):
        with pytest.raises(ValueError, match="unpruned head in each layer"):
            pruned(make_params(rng), np.zeros(3, dtype=bool))

    def test_wrong_mask_length_rejected(self, rng):
        with pytest.raises(ValueError, match="keep must be 1 x 3"):
            pruned(make_params(rng), np.ones(2, dtype=bool))


def core_probs(x, keys, enc, params):
    """Attention probabilities, [B, H, L, K], of [B, L, d] rows over
    [B, K, H * d_h] projected keys: the fused core's merged output for identity
    values, cut into heads by column slices."""
    batch, n_keys = keys.shape[:2]
    n_heads = params.w_q.shape[0]
    eye = ad.Tensor(np.tile(np.eye(n_keys), (batch, 1, n_heads)))  # each head's values are the identity
    q = ad.linear(x, params.w_q)
    merged = ad.attention_core(q, keys, eye, attention.position_keys(enc, params.w_kr), params.u, params.v, enc)
    return split_heads(merged.data, n_keys)


class TestScores:
    def test_future_keys_get_zero_probability(self, rng):
        params = make_params(rng)
        x = ad.Tensor(rng.standard_normal((1, 4, 6)))
        q_tags = np.arange(4)
        offsets = relative_offsets(q_tags, q_tags)
        enc = encode_offsets(offsets, 6)
        keys = ad.linear(x, params.w_ke)
        probs = core_probs(x, keys, enc, params)[0]
        for i in range(4):
            for j in range(4):
                if j > i:
                    assert probs[:, i, j].max() == 0.0
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((3, 4)), rtol=1e-12)

    def test_query_scaling_cancels_against_projection(self, rng):
        # score terms are bilinear in (query row, W_q) once the biases are off
        d_model, c = 6, 3.7
        params = make_params(rng, n_heads=2, d_head=3, d_model=d_model)
        params.u.data[:] = 0.0
        params.v.data[:] = 0.0
        queries = rng.standard_normal((1, 1, d_model))
        keys = rng.standard_normal((1, 4, d_model))
        enc = encode_offsets(relative_offsets([3], np.arange(4)), d_model)

        keys = ad.linear(ad.Tensor(keys), params.w_ke)
        base = core_probs(ad.Tensor(queries), keys, enc, params)

        scaled_params = LayerAttentionParams(
            w_q=ad.Tensor(params.w_q.data / c), w_ke=params.w_ke, w_kr=params.w_kr,
            w_v=params.w_v, w_o=params.w_o, u=params.u, v=params.v,
        )
        rescaled = core_probs(ad.Tensor(queries * c), keys, enc, scaled_params)
        np.testing.assert_allclose(rescaled, base, rtol=1e-12, atol=1e-14)

    def test_encoding_count_mismatch_rejected(self, rng):
        params = make_params(rng)
        x = ad.Tensor(rng.standard_normal((1, 4, 6)))
        enc = encode_offsets(relative_offsets(np.arange(4), np.arange(3)), 6)
        with pytest.raises(ValueError, match="do not match 4 queries by 4 keys"):
            core_probs(x, ad.linear(x, params.w_ke), enc, params)

    def test_fully_masked_row_rejected(self):
        # query 1 scores -inf against both keys; query 0 is finite
        q = ad.Tensor(np.array([[0.5, 0.5], [-np.inf, 0.0]])[None])  # one head of width 2
        keys = ad.Tensor(np.array([[1.0, 0.0], [1.0, 0.0]])[None])
        zero = ad.Tensor(np.zeros(2))
        enc = encode_offsets(relative_offsets(np.arange(2), np.arange(2)), 4)
        with pytest.raises(RuntimeError, match="no attendable key"):
            ad.attention_core(q, keys, keys, keys, zero, zero, enc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_scores_rejected(self, bad):
        """A NaN or +inf score is named as such, not as a row with no key."""
        q = ad.Tensor(np.array([[0.5, 0.5], [bad, 0.0]])[None])
        keys = ad.Tensor(np.array([[1.0, 0.0], [1.0, 0.0]])[None])
        zero = ad.Tensor(np.zeros(2))
        enc = encode_offsets(relative_offsets(np.arange(2), np.arange(2)), 4)
        with pytest.raises(RuntimeError, match="non-finite scores"):
            ad.attention_core(q, keys, keys, keys, zero, zero, enc)

    def test_rows_sum_to_one_with_large_scores(self, rng):
        params = make_params(rng)
        x = ad.Tensor(rng.standard_normal((1, 4, 6)) * 200.0 + 1e4)
        enc = encode_offsets(relative_offsets(np.arange(4), np.arange(4)), 6)
        probs = core_probs(x, ad.linear(x, params.w_ke), enc, params)
        assert np.abs(ad.linear(x, params.w_q).data).max() > 1e3
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((1, 3, 4)), rtol=1e-12)


class TestCrossHeadGradients:
    def test_gradients_flow_to_matched_head_only(self, rng):
        params = make_params(rng, n_heads=2, d_head=2, d_model=4)
        x = rng.standard_normal((3, 4))
        q_tags = np.arange(3)
        assignment = HeadAssignment(sigma=np.array([1, 0]), cross_active=True)
        # keep only query head 0, whose key/value side is head 1
        out = run_forward(x, None, q_tags, q_tags, pruned(params, [True, False]), assignment)
        ad.backward(sum_(out))

        assert np.abs(params.w_q.grad[0]).max() > 0
        np.testing.assert_array_equal(params.w_q.grad[1], np.zeros((2, 4)))
        for w in (params.w_ke, params.w_kr, params.w_v):
            assert np.abs(w.grad[1]).max() > 0
            np.testing.assert_array_equal(w.grad[0], np.zeros((2, 4)))


class TestCrossedParams:
    def test_crossing_indexes_the_key_side_weights_only(self, rng):
        params = make_params(rng)
        sigma = np.array([2, 0, 1])
        crossed = params.crossed(HeadAssignment(sigma=sigma, cross_active=True))
        for name in ("w_ke", "w_kr", "w_v"):
            np.testing.assert_array_equal(getattr(crossed, name).data, getattr(params, name).data[sigma])
        for name in ("w_q", "w_o", "u", "v"):
            assert getattr(crossed, name) is getattr(params, name)
        assert params.crossed(None) is params
        assert params.crossed(HeadAssignment.identity(3)) is params


class TestAssignmentSampling:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeadAssignment(sigma=np.array([0, 0]), cross_active=True)
        with pytest.raises(ValueError):
            HeadAssignment(sigma=np.array([1, 0]), cross_active=False)
        ident = HeadAssignment.identity(4)
        assert not ident.cross_active
        np.testing.assert_array_equal(ident.sigma, np.arange(4))

    def test_beta_zero_consumes_no_rng(self):
        gen = np.random.default_rng(11)
        before = gen.bit_generator.state
        a = sample_head_assignment(gen, 0.0, 4)
        assert gen.bit_generator.state == before
        assert not a.cross_active

    def test_beta_one_always_crosses(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            assert sample_head_assignment(gen, 1.0, 3).cross_active

    def test_sampled_maps_are_bijections(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            a = sample_head_assignment(gen, 0.8, 5)
            np.testing.assert_array_equal(np.sort(a.sigma), np.arange(5))

    def test_cross_frequency_tracks_beta(self):
        gen = np.random.default_rng(2)
        hits = sum(sample_head_assignment(gen, 0.5, 2).cross_active for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_invalid_arguments(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_head_assignment(gen, -0.1, 2)
        with pytest.raises(ValueError):
            sample_head_assignment(gen, 1.5, 2)
        with pytest.raises(ValueError):
            sample_head_assignment(gen, 0.5, 0)
