import weakref

import numpy as np
import pytest

import memxl.autodiff as ad
import memxl.attention as attention_module
import memxl.model as model_module
from conftest import tiny_config
from helpers import reachable
from memxl import MemoryLM, RngHub, relpos
from memxl.attention import HeadAssignment
from memxl.model import LayerMemory, LayerTrace, update_memory
from test_attention import oracle_forward


def ln_ref(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def fresh_model(**overrides):
    hub = RngHub(0)
    return MemoryLM(tiny_config(**overrides), hub["init"])


D128 = dict(n_layers=4, d_model=128, d_inner=512, n_heads=4, d_head=32, mem_len=64, block_len=64, vocab_size=128)


class TestInit:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [{}, D128], ids=["tiny", "d128"])
    def test_parameters_and_streams_match_numpy_normal(self, monkeypatch, shape, dtype):
        """``rng.normal`` as the initialiser gives every parameter the same
        bytes and leaves every hub stream in the same state."""
        def build():
            hub = RngHub(7)
            model = MemoryLM(tiny_config(**shape, param_dtype=dtype), hub["init"])
            return [(name, p.data.dtype, p.data.tobytes()) for name, p in model.named_parameters()], hub.state_dict()

        new = build()
        for module in (model_module, attention_module):
            monkeypatch.setattr(module, "normal", lambda rng, std, size, dt: rng.normal(0.0, std, size=size).astype(dt))
        assert build() == new


class TestUpdateMemory:
    def setup_method(self):
        self.mem = LayerMemory(
            buffer=np.arange(8, dtype=np.float64).reshape(1, 4, 2),
            tags=np.arange(4, dtype=np.int64),
            staleness=0,
        )

    def test_executed_step_slides_window(self):
        x = np.full((1, 2, 2), 9.0)
        out = update_memory(self.mem, x, skipped=False, step_tags=np.array([4, 5]), mem_len=4)
        np.testing.assert_array_equal(out.tags, [2, 3, 4, 5])
        np.testing.assert_array_equal(out.buffer[0, :2], self.mem.buffer[0, 2:])
        np.testing.assert_array_equal(out.buffer[0, 2:], x[0])
        assert out.staleness == 0

    def test_full_replacement_when_block_fills_window(self):
        x = np.ones((1, 4, 2)) * 7.0
        out = update_memory(self.mem, x, skipped=False, step_tags=np.arange(4, 8), mem_len=4)
        np.testing.assert_array_equal(out.buffer, x)
        np.testing.assert_array_equal(out.tags, [4, 5, 6, 7])

    def test_skip_retains_same_arrays_and_ages(self):
        out = update_memory(self.mem, np.zeros((1, 2, 2)), skipped=True, step_tags=np.array([4, 5]), mem_len=4)
        assert out.buffer is self.mem.buffer
        assert out.tags is self.mem.tags
        assert out.staleness == 1
        again = update_memory(out, np.zeros((1, 2, 2)), skipped=True, step_tags=np.array([6, 7]), mem_len=4)
        assert again.staleness == 2
        assert again.buffer is self.mem.buffer

    def test_zero_window_stays_empty(self):
        empty = LayerMemory(buffer=np.zeros((1, 0, 2)), tags=np.zeros(0, dtype=np.int64))
        out = update_memory(empty, np.ones((1, 3, 2)), skipped=False, step_tags=np.arange(3), mem_len=0)
        assert out.buffer.shape == (1, 0, 2)
        assert out.tags.shape == (0,)

    def test_partial_fill_keeps_all_rows(self):
        empty = LayerMemory(buffer=np.zeros((1, 0, 2)), tags=np.zeros(0, dtype=np.int64))
        x = np.ones((1, 2, 2))
        out = update_memory(empty, x, skipped=False, step_tags=np.array([0, 1]), mem_len=6)
        assert out.buffer.shape == (1, 2, 2)
        np.testing.assert_array_equal(out.tags, [0, 1])

    def test_executed_step_holds_only_the_rows_it_keeps(self):
        """The new buffer owns exactly the kept rows: no view of a longer
        joined array that would keep the dropped rows alive."""
        x = np.full((1, 3, 2), 9.0)
        for mem_len in (4, 2):
            out = update_memory(self.mem, x, skipped=False, step_tags=np.array([4, 5, 6]), mem_len=mem_len)
            want = np.concatenate([self.mem.buffer, x], axis=1)[:, -mem_len:]
            assert out.buffer.base is None and out.buffer.tobytes() == want.tobytes()
            np.testing.assert_array_equal(out.tags, np.arange(7)[-mem_len:])

    def test_detaches_tensor_input(self):
        x = ad.Tensor(np.ones((1, 2, 2)), requires_grad=True)
        out = update_memory(self.mem, x, skipped=False, step_tags=np.array([4, 5]), mem_len=4)
        assert isinstance(out.buffer, np.ndarray)


def straight_line_logits(model, x1, x2, sigma):
    """Logits of a one-layer model for block rows ``x2`` after memory rows
    ``x1``, four of each, with the attention loop oracle under ``sigma``."""
    lp = model.layers[0]
    xn = ln_ref(x2, lp.ln_attn_g.data, lp.ln_attn_b.data)
    memn = ln_ref(x1, lp.ln_attn_g.data, lp.ln_attn_b.data)
    attn = oracle_forward(xn, memn, np.arange(4, 8), np.arange(8), lp.attn, sigma=sigma)
    h = x2 + attn
    fn = ln_ref(h, lp.ln_ffn_g.data, lp.ln_ffn_b.data)
    z = np.maximum(fn @ lp.w_ff1.data.T + lp.b_ff1.data, 0.0) @ lp.w_ff2.data.T + lp.b_ff2.data
    h = h + z
    return ln_ref(h, model.ln_out_g.data, model.ln_out_b.data) @ model.embedding.data.T


class TestForwardOracle:
    def test_single_layer_matches_straight_line_reimplementation(self):
        model = fresh_model(n_layers=1)
        cfg = model.config
        tokens1 = np.array([[1, 2, 3, 4]])
        tokens2 = np.array([[5, 6, 7, 8]])

        mems = model.init_memory(1)
        with ad.no_grad():
            _, mems = model.forward(tokens1, mems)
            logits, _ = model.forward(tokens2, mems)

        E = model.embedding.data
        x1 = E[tokens1[0]]
        x2 = E[tokens2[0]]
        # the rows as the attention layer norm normalised them, before gain and bias
        np.testing.assert_allclose(mems.layers[0].buffer[0], ln_ref(x1, 1.0, 0.0), rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(mems.layers[0].tags, [0, 1, 2, 3])

        want = straight_line_logits(model, x1, x2, sigma=None)
        np.testing.assert_allclose(logits.data[0], want, rtol=1e-11, atol=1e-13)

    def test_crossed_layer_matches_straight_line_reimplementation(self):
        """Under crossing, the memory rows are projected with the matched
        heads' key and value weights too."""
        model = fresh_model(n_layers=1)
        tokens1, tokens2 = np.array([[1, 2, 3, 4]]), np.array([[5, 6, 7, 8]])
        sigma = np.array([1, 0])
        with ad.no_grad():
            _, mems = model.forward(tokens1, model.init_memory(1))
            logits, _ = model.forward(tokens2, mems, assignments=[HeadAssignment(sigma, cross_active=True)])
        E = model.embedding.data
        want = straight_line_logits(model, E[tokens1[0]], E[tokens2[0]], sigma)
        np.testing.assert_allclose(logits.data[0], want, rtol=1e-11, atol=1e-13)

    def test_skip_all_layers_reduces_to_normalized_embedding_projection(self):
        model = fresh_model()
        tokens = np.array([[3, 1, 4, 1]])
        mems = model.init_memory(1)
        logits, new_mems = model.forward(tokens, mems, skip_mask=np.ones(2, dtype=bool))

        E = model.embedding.data
        want = ln_ref(E[tokens], model.ln_out_g.data, model.ln_out_b.data) @ E.T
        np.testing.assert_allclose(logits.data, want, rtol=1e-12, atol=1e-14)

        for lm_old, lm_new in zip(mems.layers, new_mems.layers):
            assert lm_new.buffer is lm_old.buffer
            assert lm_new.staleness == lm_old.staleness + 1
        assert new_mems.next_position == 4

        loss = ad.cross_entropy(logits, np.array([[1, 4, 1, 5]]))
        ad.backward(loss)
        for name, p in model.named_parameters():
            if name.startswith("layers."):
                assert p.grad is None or np.abs(p.grad).max() == 0.0, name
        assert np.abs(model.embedding.grad).max() > 0
        assert np.abs(model.ln_out_g.grad).max() > 0


class TestForwardSemantics:
    def test_identity_inputs_change_nothing_bitwise(self):
        model = fresh_model()
        tokens = np.array([[1, 2, 3, 4]])
        base, _ = model.forward(tokens, model.init_memory(1))
        explicit, _ = model.forward(
            tokens,
            model.init_memory(1),
            skip_mask=np.zeros(2, dtype=bool),
            assignments=[HeadAssignment.identity(2) for _ in range(2)],
        )
        assert base.data.tobytes() == explicit.data.tobytes()

    def test_forward_is_deterministic(self):
        model = fresh_model()
        tokens = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        a, _ = model.forward(tokens, model.init_memory(2))
        b, _ = model.forward(tokens, model.init_memory(2))
        assert a.data.tobytes() == b.data.tobytes()

    def test_future_tokens_cannot_influence_earlier_logits(self):
        model = fresh_model()
        a, _ = model.forward(np.array([[1, 2, 3, 4]]), model.init_memory(1))
        b, _ = model.forward(np.array([[1, 2, 3, 9]]), model.init_memory(1))
        np.testing.assert_array_equal(a.data[0, :3], b.data[0, :3])
        assert not np.array_equal(a.data[0, 3], b.data[0, 3])

    def test_stale_layer_sees_enlarged_offsets(self):
        model = fresh_model(n_layers=1, mem_len=2, block_len=2)
        mems = model.init_memory(1)
        record: list[LayerTrace] = []
        masks = [[False], [True], [True], [False]]
        for step, mask in enumerate(masks):
            tokens = np.array([[1 + 2 * step, 2 + 2 * step]]) % model.config.vocab_size
            _, mems = model.forward(tokens, mems, skip_mask=np.array(mask), record=record)

        assert [t.skipped for t in record] == [False, True, True, False]
        assert [t.staleness for t in record] == [0, 0, 1, 2]
        final = record[-1]
        # M + L - 1 + k*L with M = L = 2 and staleness k = 2
        assert final.offsets.max() == 7
        np.testing.assert_array_equal(mems.layers[0].tags, [6, 7])
        assert mems.layers[0].staleness == 0

    def test_layers_with_one_tag_layout_share_one_encoding(self, monkeypatch):
        """A layout is encoded once per run: the layers that share it on a
        step share one encoding object, a later step with the same tags
        relative to its queries encodes nothing, the cache keeps at most
        ``MemoryState.LAYOUTS`` layouts, the least recently used leaving
        first, and its arrays refuse writes."""
        calls, used = [], []

        def counting(offsets, d):
            calls.append(offsets.shape)
            return relpos.encode_offsets(offsets, d)

        def spying(enc, w_kr):
            used.append(enc)
            return attention_module.position_keys(enc, w_kr)

        monkeypatch.setattr(model_module, "encode_offsets", counting)
        monkeypatch.setattr(model_module, "position_keys", spying)
        model = fresh_model(n_layers=3, mem_len=4, block_len=2)
        mems = model.init_memory(1)
        record: list[LayerTrace] = []

        def step(t, mask=(False, False, False)):
            nonlocal mems
            calls.clear(), used.clear()
            tokens = np.array([[t, t + 1]]) % model.config.vocab_size
            _, mems = model.forward(tokens, mems, skip_mask=np.array(mask), record=record)

        step(1)
        step(3)
        assert len(calls) == 1 and len({id(e) for e in used}) == 1  # every cache holds tags 0, 1
        step(5, (False, True, False))
        assert len(calls) == 1  # tags 0..3 before queries at 4, 5
        step(7)
        assert len(calls) == 1  # layer 1's stale 0..3 before 6, 7; the others' 2..5 were met on the last step
        assert [t.staleness for t in record[-3:]] == [0, 1, 0]
        assert used[0] is used[2] is not used[1]
        q_tags = np.array([6, 7])
        for trace, lm_tags in zip(record[-3:], ([2, 3, 4, 5], [0, 1, 2, 3], [2, 3, 4, 5])):
            np.testing.assert_array_equal(trace.offsets, relpos.relative_offsets(q_tags, np.r_[lm_tags, q_tags]))
        step(9)
        steady = used[0]
        for t in range(11, 19, 2):
            step(t)
            assert calls == [] and all(e is steady for e in used)

        for array in (record[-1].offsets, steady.offsets, steady.vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0
        assert len(mems.encodings) == 5 <= mems.LAYOUTS

        monkeypatch.setattr(model_module.MemoryState, "LAYOUTS", 1)
        mems, counts = model.init_memory(1), []
        for t, mask in ((1, ()), (3, ()), (5, (1,)), (7, ())):
            step(t, np.isin(range(3), mask))
            counts.append(len(calls))
            assert len(mems.encodings) == 1
        assert counts == [1, 1, 1, 2]  # on step 7, layer 1's layout evicts the others', which layer 2 encodes again

    def test_memory_window_slides_over_steps(self):
        model = fresh_model(mem_len=4, block_len=2)
        mems = model.init_memory(1)
        for step in range(3):
            tokens = np.array([[step, step + 1]])
            _, mems = model.forward(tokens, mems)
        np.testing.assert_array_equal(mems.layers[0].tags, [2, 3, 4, 5])
        assert mems.layers[0].buffer.shape == (1, 4, 8)
        assert mems.next_position == 6

    def test_embedding_grad_arrives_from_projection_for_absent_tokens(self):
        model = fresh_model()
        logits, _ = model.forward(np.array([[1, 2]]), model.init_memory(1))
        ad.backward(ad.cross_entropy(logits, np.array([[2, 3]])))
        # token 9 never appears in the input, yet the tied projection
        # touches every vocabulary row
        assert np.abs(model.embedding.grad[9]).max() > 0

    def test_float32_mode_produces_float32(self):
        model = fresh_model(param_dtype="float32")
        assert model.embedding.dtype == np.float32
        logits, _ = model.forward(np.array([[1, 2, 3]]), model.init_memory(1))
        assert logits.dtype == np.float32


class TestNormalisedMemory:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("crossed", [False, True], ids=["identity", "crossed"])
    def test_join_matches_layer_norm_of_the_raw_rows(self, monkeypatch, dtype, crossed):
        """A cache holds its rows normalised, and ``join`` gives the bytes of
        the layer norm of the raw input rows, then their projections, before
        the block's keys and values; layer 0's cache is two steps stale."""
        model = fresh_model(mem_len=4, block_len=2, param_dtype=dtype)
        raw = {id(lp.ln_attn_g): [] for lp in model.layers}  # each layer's input rows, call by call
        layer_norm = ad.layer_norm

        def spy(x, gain, bias):
            raw.get(id(gain), []).append(x.data)
            return layer_norm(x, gain, bias)

        monkeypatch.setattr(ad, "layer_norm", spy)
        sigma = HeadAssignment(np.array([1, 0]), cross_active=True) if crossed else None
        tokens = np.random.default_rng(3).integers(0, model.config.vocab_size, size=(5, 2, 2))
        mems = model.init_memory(2)
        for block, mask in zip(tokens, ([0, 0], [0, 0], [0, 0], [1, 0], [1, 0])):
            _, mems = model.forward(block, mems, skip_mask=np.array(mask, dtype=bool), assignments=[sigma] * 2,
                                    training=True)
        assert [lm.staleness for lm in mems.layers] == [2, 0]

        gen = np.random.default_rng(4)
        keys, values = (ad.Tensor(gen.standard_normal((2, 2, 8)).astype(dtype)) for _ in range(2))
        for lp, lm in zip(model.layers, mems.layers):
            params = lp.attn.crossed(sigma)
            rows = np.concatenate(raw[id(lp.ln_attn_g)], axis=1)[:, -len(lm.tags):]
            normed = layer_norm(ad.Tensor(rows), lp.ln_attn_g, lp.ln_attn_b)[0]
            want = [np.concatenate([ad.linear(normed, w).data, block.data], axis=1)
                    for w, block in ((params.w_ke, keys), (params.w_v, values))]
            got = lm.join(keys, values, lp, params)
            assert [g.data.dtype for g in got] == [np.dtype(dtype)] * 2
            assert [g.data.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_float32_steps_read_one_cached_float32_encoding(self, monkeypatch):
        """Two float32 training steps over one tag layout read the same float32
        encoding object: it is cast once, when the layout is first met."""
        used = []

        def spying(enc, w_kr):
            used.append(enc.vectors)
            return attention_module.position_keys(enc, w_kr)

        monkeypatch.setattr(model_module, "position_keys", spying)
        model = fresh_model(param_dtype="float32")
        tokens = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(4, 1, 4))
        mems = full_memory(model, tokens[:1])
        used.clear()
        for block, targets in zip(tokens[1:3], tokens[2:]):
            logits, mems = model.forward(block, mems, training=True)
            ad.backward(ad.cross_entropy(logits, targets))
        assert len(used) == 4 and all(v is used[0] for v in used) and used[0].dtype == np.float32


class TestStaleCacheGradient:
    def test_gapped_key_tags_match_finite_differences(self):
        """Gradients through layers whose stale caches leave gaps in the key
        tags, which the attention core reads as two runs of its relative shift."""
        model = fresh_model(mem_len=6, block_len=4)
        gen = np.random.default_rng(4)
        blocks = gen.integers(0, model.config.vocab_size, size=(4, 2, 4))
        with ad.no_grad():
            _, mems = model.forward(blocks[0], model.init_memory(2))
            _, mems = model.forward(blocks[1], mems, skip_mask=np.array([True, False]))
        # layer 0: tags 0..3 before the block at 8..11, then 2, 3, 8..11 before 12..15
        for tokens in blocks[2:]:
            record: list[LayerTrace] = []
            with ad.no_grad():
                model.forward(tokens, mems, record=record)
            assert [len(relpos.encode_offsets(t.offsets, 8).runs) for t in record] == [2, 1]

            def f(tokens=tokens):
                logits, _ = model.forward(tokens, mems)
                return ad.cross_entropy(logits, tokens[:, ::-1])

            report = ad.finite_diff_check(f, model.named_parameters())
            assert report.passed, report.summary()
            with ad.no_grad():
                _, mems = model.forward(tokens, mems)


def graph_size(loss) -> int:
    """Tensors ``backward`` visits: ``loss`` and every ancestor that requires
    grad, parameters included (the benchmark's ``autodiff.nodes_per_step`` rule)."""
    return len(reachable(loss, requires_grad_only=True))


def held_bytes(loss) -> int:
    """Bytes a recorded graph keeps alive: the distinct arrays in the closure
    cells of the VJPs of the nodes reached from ``loss`` through ``_parents``,
    each counted once by the array that owns its memory (a view counts as its
    base). A node holds no value, so its VJP's cells are all it keeps."""
    owners = {}
    for node in reachable(loss._node):
        for cell in node._vjp.__closure__ or () if isinstance(node, ad.Node) else ():
            a = cell.cell_contents
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values())


def full_memory(model, tokens):
    """The memory after a no-grad forward over each block of ``tokens``."""
    mems = model.init_memory(tokens.shape[1])
    with ad.no_grad():
        for block in tokens:
            _, mems = model.forward(block, mems)
    return mems


def crossed_step(model, **kwargs):
    """The loss of a training step over a full memory with every layer's two
    heads swapped."""
    tokens = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(4, 2, 4))
    sigma = HeadAssignment(np.array([1, 0]), cross_active=True)
    logits, _ = model.forward(tokens[2], full_memory(model, tokens[:2]), assignments=[sigma] * 2, training=True,
                              **kwargs)
    return ad.cross_entropy(logits, tokens[3])


class TestGraphSize:
    @pytest.mark.parametrize("crossed, want", [(False, 73), (True, 79)], ids=["plain", "crossed"])
    def test_training_step_graph_size(self, crossed, want):
        """Per layer with memory: 15 parameters and 18 nodes, 3 of them the
        memory's scale-shift and projections; crossing adds one index per
        key-side weight. Per step: the embedding, its lookup, the final norm
        and its 2 parameters, the logits and the loss."""
        model = fresh_model()
        tokens = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(3, 2, 4))
        with ad.no_grad():
            _, mems = model.forward(tokens[0], model.init_memory(2))
        sigma = HeadAssignment(np.array([1, 0]), cross_active=True) if crossed else HeadAssignment.identity(2)
        logits, _ = model.forward(tokens[1], mems, assignments=[sigma] * 2, training=True)
        assert graph_size(ad.cross_entropy(logits, tokens[2])) == want

    def test_recorded_step_holds_no_array_it_can_rebuild(self):
        """A crossed step over a full memory holds 30,752 bytes in its VJPs
        (34,528 with the leaves' values; 43,432 when every node also kept its
        own output). A ReLU VJP that read its input, an attention VJP that
        kept q + u, q + v or its head outputs, a layer norm VJP that kept its
        normalised rows, a memory join that normalised its rows again, a
        concat VJP that kept its split points as an array, or a memory buffer
        that viewed its joined rows, would hold more."""
        assert held_bytes(crossed_step(fresh_model())) == 30_752

    def test_no_vjp_keeps_a_tensor(self):
        """A node reaches its inputs' values only through the arrays its VJP
        captured: no closure cell of a recorded crossed step with dropout,
        nested closures included, holds a ``Tensor``."""
        loss = crossed_step(fresh_model(dropout=0.1), dropout_rng=np.random.default_rng(1))
        nodes = [n for n in reachable(loss._node) if isinstance(n, ad.Node)]
        cells = [c.cell_contents for n in nodes for c in n._vjp.__closure__ or ()]
        assert len(nodes) > 40 and cells
        while cells:
            held = cells.pop()
            assert not isinstance(held, ad.Tensor), held
            cells += [c.cell_contents for c in getattr(held, "__closure__", None) or ()]

    def test_forward_frees_what_no_vjp_reads(self, monkeypatch):
        """Once ``forward`` returns, with the graph still alive, these outputs
        are freed: w_ff1's (the pre-ReLU rows, ReLU's VJP reads its own
        output), the memory's and the block's key and value projections
        before their concat, and w_o's and w_ff2's before their residual add."""
        model = fresh_model()
        tokens = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(4, 2, 4))
        mems = full_memory(model, tokens[:2])
        watched = {id(w) for lp in model.layers for w in (lp.w_ff1, lp.attn.w_ke, lp.attn.w_v, lp.attn.w_o, lp.w_ff2)}
        linear, freed = ad.linear, []

        def spy(x, w, b=None):
            out = linear(x, w, b)
            if id(w) in watched:
                owner = out.data
                while owner.base is not None:
                    owner = owner.base
                freed.append(weakref.ref(owner))
            return out

        monkeypatch.setattr(ad, "linear", spy)
        logits, _ = model.forward(tokens[2], mems, training=True)
        loss = ad.cross_entropy(logits, tokens[3])
        assert len(freed) == 7 * model.config.n_layers
        assert [i for i, r in enumerate(freed) if r() is not None] == []
        ad.backward(loss)
        assert all(p.grad is not None for p in model.parameters())


class TestStopGradient:
    def test_no_gradient_flows_through_cached_activations(self):
        model = fresh_model(n_layers=1, vocab_size=8, mem_len=3, block_len=3)
        tokens1 = np.array([[0, 1, 2]])
        tokens2 = np.array([[4, 5, 6]])
        targets2 = np.array([[5, 6, 7]])
        row = 1  # appears in step one only

        with ad.no_grad():
            _, mems1 = model.forward(tokens1, model.init_memory(1))

        model.zero_grad()
        logits, _ = model.forward(tokens2, mems1)
        ad.backward(ad.cross_entropy(logits, targets2))
        analytic = model.embedding.grad[row].copy()

        def loss_with_frozen_memory():
            out, _ = model.forward(tokens2, mems1)
            return float(ad.cross_entropy(out, targets2).data)

        def loss_with_recomputed_memory():
            _, m1 = model.forward(tokens1, model.init_memory(1))
            out, _ = model.forward(tokens2, m1)
            return float(ad.cross_entropy(out, targets2).data)

        step = 1e-5
        frozen = np.zeros_like(analytic)
        flowing = np.zeros_like(analytic)
        with ad.no_grad():
            for c in range(analytic.size):
                orig = model.embedding.data[row, c]
                model.embedding.data[row, c] = orig + step
                f_hi, g_hi = loss_with_frozen_memory(), loss_with_recomputed_memory()
                model.embedding.data[row, c] = orig - step
                f_lo, g_lo = loss_with_frozen_memory(), loss_with_recomputed_memory()
                model.embedding.data[row, c] = orig
                frozen[c] = (f_hi - f_lo) / (2 * step)
                flowing[c] = (g_hi - g_lo) / (2 * step)

        # analytic gradient treats the cache as a constant...
        np.testing.assert_allclose(analytic, frozen, atol=1e-7)
        # ...even though the cache really does depend on the embedding
        assert np.abs(flowing - frozen).max() > 1e-4


class TestValidation:
    def test_token_checks(self):
        model = fresh_model()
        mems = model.init_memory(1)
        with pytest.raises(ValueError, match="out of range"):
            model.forward(np.array([[0, 11]]), mems)
        with pytest.raises(ValueError, match="out of range"):
            model.forward(np.array([[-1]]), mems)
        with pytest.raises(ValueError, match="integers"):
            model.forward(np.array([[0.5]]), mems)
        with pytest.raises(ValueError, match="empty"):
            model.forward(np.zeros((1, 0), dtype=np.int64), mems)
        with pytest.raises(ValueError, match=r"tokens must be \[B, L\]"):
            model.forward(np.array([1, 2]), mems)

    def test_memory_shape_checks(self):
        model = fresh_model()
        with pytest.raises(ValueError, match="memory batch"):
            model.forward(np.array([[1, 2], [3, 4]]), model.init_memory(1))
        bad = fresh_model(n_layers=3).init_memory(1)
        with pytest.raises(ValueError, match="layers"):
            model.forward(np.array([[1, 2]]), bad)
        with pytest.raises(ValueError, match="mem_len must be nonnegative"):
            model.init_memory(1, mem_len=-1)

    def test_mask_shape_checks(self):
        model = fresh_model()
        mems = model.init_memory(1)
        with pytest.raises(ValueError, match="skip mask"):
            model.forward(np.array([[1, 2]]), mems, skip_mask=np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="head assignment"):
            model.forward(np.array([[1, 2]]), mems, assignments=[HeadAssignment.identity(2)])

    def test_config_checks(self):
        with pytest.raises(ValueError, match="even"):
            tiny_config(d_model=7)
        with pytest.raises(ValueError, match="beta"):
            tiny_config(beta=1.5)
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)
        with pytest.raises(ValueError, match="positive"):
            tiny_config(n_layers=0)
        with pytest.raises(ValueError, match="param_dtype"):
            tiny_config(param_dtype="float16")
