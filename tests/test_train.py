import contextlib
import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import memxl.autodiff as ad
import memxl.checkpoint as checkpoint_module
import memxl.model as model_module
from conftest import PANGRAM_TEXT, tiny_config
from helpers import reachable, save_trainer_checkpoint
from memxl import MemoryLM, ModelConfig, RngHub, SkipSchedule, TrainConfig, Trainer, train
from memxl.analysis import prune_heads
from memxl.attention import HeadAssignment
from memxl.checkpoint import load_checkpoint, save_checkpoint
from memxl.data import batchify, corpus_from_text
from memxl.model import StreamState
from memxl.optim import AdamState
from memxl.skip import PHASE_SKIP_RETAIN, PHASE_VANILLA
from memxl.train import LOG_HEADER, EvalReport, evaluate, load_model

train_module = importlib.import_module("memxl.train")  # the package's ``train`` attribute is the function


def make_ids(n=200, vocab=11, seed=0):
    return np.random.default_rng(seed).integers(0, vocab, size=n)


def quick_trainer(steps=6, *, seed=0, ids=None, schedule=None, beta=0.0, **cfg_overrides):
    kwargs = dict(base_lr=1e-3, eval_interval=100, eval_context=8, eval_block=4)
    kwargs.update(cfg_overrides)
    cfg = TrainConfig(
        steps=steps,
        seed=seed,
        schedule=schedule if schedule is not None else SkipSchedule.none(),
        **kwargs,
    )
    hub = RngHub(cfg.seed)
    model = MemoryLM(tiny_config(beta=beta), hub["init"])
    if ids is None:
        ids = make_ids()
    return Trainer(model, cfg, batchify(ids, 1, 4), ids[:40], hub)


class TestEvaluate:
    def test_report_identities(self, tiny_model):
        model, _ = tiny_model
        ids = make_ids(60)
        report = evaluate(model, ids, eval_context=8, eval_block=4)
        assert report.ppl == pytest.approx(math.exp(report.nll), rel=1e-15)
        assert report.bpc == pytest.approx(report.nll / math.log(2), rel=1e-15)
        assert report.bpc == pytest.approx(math.log2(report.ppl), rel=1e-12)
        assert report.tokens == 59
        assert report.context == 8

    def test_deterministic(self, tiny_model):
        model, _ = tiny_model
        ids = make_ids(60)
        a = evaluate(model, ids, 8, 4)
        b = evaluate(model, ids, 8, 4)
        assert a.nll == b.nll

    def test_scores_every_token_including_partial_tail(self, tiny_model):
        model, _ = tiny_model
        # 10 ids -> 9 scored tokens, final chunk is a single token
        report = evaluate(model, make_ids(10), 8, 4)
        assert report.tokens == 9

    def test_keep_all_prune_mask_changes_nothing(self, tiny_model):
        model, _ = tiny_model
        ids = make_ids(40)
        base = evaluate(model, ids, 8, 4)
        kept = evaluate(prune_heads(model, np.ones((2, 2), dtype=bool)), ids, 8, 4)
        assert base.nll == kept.nll

    def test_validation(self, tiny_model):
        model, _ = tiny_model
        with pytest.raises(ValueError, match="shorter than one block"):
            evaluate(model, make_ids(3), 8, 4)
        with pytest.raises(ValueError, match="must be >="):
            evaluate(model, make_ids(40), 2, 4)
        for last in (-1, 11):  # the last id is only ever a target, never a forward input
            ids = make_ids(40)
            ids[-1] = last
            with pytest.raises(ValueError, match="out of range"):
                evaluate(model, ids, 8, 4)
        with pytest.raises(ValueError, match="below 1"):
            EvalReport(nll=-0.5, ppl=math.exp(-0.5), bpc=-0.5 / math.log(2), tokens=1, context=4)

    def test_overflowing_perplexity_is_infinite(self, tiny_model):
        model, _ = tiny_model
        model.ln_out_g.data[:] = 1e4  # logits in the thousands: nll far above log(float max)
        report = evaluate(model, make_ids(60), 8, 4)
        assert report.nll > 710 and math.isfinite(report.nll) and math.isfinite(report.bpc)
        assert report.ppl == math.inf

    def test_longer_context_helps_a_trained_model(self, trained_lm):
        model, ids = trained_lm
        with_memory = evaluate(model, ids, eval_context=32, eval_block=16)
        no_memory = evaluate(model, ids, eval_context=16, eval_block=16)
        assert with_memory.nll <= no_memory.nll + 0.02


def reference_nll(model, ids, eval_context, eval_block):
    """Streaming NLL from MemoryLM.forward over a plain MemoryState, which
    normalises and projects every memory row again on every block."""
    n_scored = len(ids) - 1
    mems = model.init_memory(batch=1, mem_len=eval_context - eval_block)
    total = 0.0
    with ad.no_grad():
        for start in range(0, n_scored, eval_block):
            stop = min(start + eval_block, n_scored)
            logits, mems = model.forward(ids[start:stop][None, :], mems)
            total += float(ad.cross_entropy(logits, ids[start + 1 : stop + 1][None, :]).data) * (stop - start)
    return total / n_scored


def blocks_per_call(monkeypatch, model, context, block, segments):
    """Set evaluate's score budget so that a full-memory call runs ``segments`` blocks."""
    monkeypatch.setattr(train_module, "EVAL_SCORES", segments * model.config.n_heads * block * context)


class TestStreamingEvaluation:
    """evaluate carries projected memory keys and values, the offset encoding
    and the position keys across blocks; it must score exactly like the
    plain forward loop."""

    @pytest.mark.parametrize(
        "n_ids, context, block, dtype, prune",
        [
            (61, 16, 4, "float64", None),            # memory fills over 3 blocks, then stays full
            (59, 16, 4, "float64", None),            # short last block of 2 tokens
            (41, 4, 4, "float64", None),             # context == block: no memory
            (50, 12, 4, "float64", [[True, False], [False, True]]),
            (61, 16, 4, "float32", None),
        ],
        ids=["fill_then_full", "short_last_block", "no_memory", "pruned", "float32"],
    )
    def test_matches_plain_forward_loop(self, n_ids, context, block, dtype, prune):
        model = MemoryLM(tiny_config(param_dtype=dtype), RngHub(0)["init"])
        model = model if prune is None else prune_heads(model, prune)
        ids = make_ids(n_ids)
        assert evaluate(model, ids, context, block).nll == reference_nll(model, ids, context, block)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_one_token_blocks_match_to_rounding(self, block):
        """A one-row projection runs as a matrix-vector product, which rounds
        differently from the matrix product that projects the same row as
        memory; and a call over n <= 3 keys reads n rows of position keys
        that the stream projected among mem_len + L, where the plain loop
        projects n alone, through BLAS's small-matrix kernel. So only the
        summation bound n * eps * nll holds for small blocks."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        ids = make_ids(21)
        got, want = evaluate(model, ids, 4, block).nll, reference_nll(model, ids, 4, block)
        assert abs(got - want) <= 20 * np.finfo(np.float64).eps * want

    def test_trained_model_matches_plain_forward_loop(self, trained_lm):
        model, ids = trained_lm
        ids = ids[:300]
        for context in (48, 16):
            assert evaluate(model, ids, context, 16).nll == reference_nll(model, ids, context, 16)

    @pytest.mark.parametrize("name", ["layers.0.attn.w_ke", "layers.1.attn.w_kr", "layers.0.ln_attn_g"])
    def test_parameter_edit_between_evaluations_is_seen(self, tmp_path, name):
        """Nothing cached survives an evaluate call: after an in-place edit
        of a parameter whose projection a stream keeps, the next evaluate
        equals that of a freshly loaded copy with the same edit."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        ids = make_ids(61)
        save_trainer_checkpoint(tmp_path / "m.ckpt", model)
        before = evaluate(model, ids, 16, 4).nll

        def edit(m):
            with ad.no_grad():
                dict(m.named_parameters())[name].data.reshape(-1)[:3] += 0.5

        edit(model)
        after = evaluate(model, ids, 16, 4).nll
        clone, _ = load_model(tmp_path / "m.ckpt")
        edit(clone)
        assert after != before
        assert after == evaluate(clone, ids, 16, 4).nll

    def test_stream_state_refused_while_recording_gradients(self):
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, 4, 4)
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward(np.array([[1, 2, 3, 4]]), stream)
        with ad.no_grad():
            _, advanced = model.forward(np.array([[1, 2, 3, 4]]), stream)
        assert advanced is stream and stream.next_position == 4 and stream.layers[0].rows == 4

    def test_stream_state_takes_crossed_heads(self):
        """A stream caches the keys and values of each layer's own heads, and
        a crossed call reads them too, since the attention core crosses heads
        by reordering its queries. Crossed stream calls, of one block and of
        two over full memory, give the logit bytes of the same blocks crossed
        the same way on a memory state."""
        model = MemoryLM(tiny_config(n_heads=3), RngHub(0)["init"])
        stream, mems = StreamState.fresh(model, 1, 4, 4, blocks=2), model.init_memory(1, mem_len=4)
        ids = make_ids(20)[None, :]
        cycles = [HeadAssignment(np.array(s), cross_active=True) for s in ([1, 2, 0], [2, 0, 1])]
        with ad.no_grad():
            for k, (a, b) in enumerate(((0, 4), (4, 8), (8, 16), (16, 20))):
                crossed = [cycles[k % 2], cycles[1 - k % 2]]
                got, _ = model.forward(ids[:, a:b], stream, assignments=crossed)
                want = []
                for c in range(a, b, 4):
                    logits, mems = model.forward(ids[:, c:c + 4], mems, assignments=crossed)
                    want.append(logits.data)
                assert got.data.tobytes() == np.concatenate(want, axis=1).tobytes()
        assert stream.next_position == 20

    def test_calls_that_the_benchmark_times_and_traces(self, monkeypatch):
        """One MemoryLM.forward per chunk: one block per call while the memory
        fills, then S whole blocks per call, then the short last block alone.
        Per call, update_memory once per layer with ``skipped`` as its third
        positional argument and a result with ``.staleness``; encode_offsets,
        looked up on memxl.model, once per evaluation, in StreamState.fresh,
        returning ``.offsets``; no ad.cross_entropy, whose span would otherwise count
        evaluation's scoring as training's. At eval_long's shape S is 1: one
        forward per block."""
        calls = {"forward": [], "update": [], "encode": 0, "attention": 0, "cross_entropy": 0}
        forward, update, encode, attend = (
            model_module.MemoryLM.forward, model_module.update_memory,
            model_module.encode_offsets, model_module.multi_head_forward,
        )
        cross_entropy = ad.cross_entropy

        def counting_forward(self, tokens, *args, **kwargs):
            calls["forward"].append(tokens.shape[1])
            return forward(self, tokens, *args, **kwargs)

        def counting_update(*args, **kwargs):
            out = update(*args, **kwargs)
            calls["update"].append((args[2], out.staleness))
            return out

        def counting_encode(*args, **kwargs):
            calls["encode"] += 1
            out = encode(*args, **kwargs)
            assert out.offsets.max() == args[0].max()
            return out

        def counting_attention(*args, **kwargs):
            calls["attention"] += 1
            return attend(*args, **kwargs)

        def counting_cross_entropy(*args, **kwargs):
            calls["cross_entropy"] += 1
            return cross_entropy(*args, **kwargs)

        budget = train_module.EVAL_SCORES
        monkeypatch.setattr(model_module.MemoryLM, "forward", counting_forward)
        monkeypatch.setattr(model_module, "update_memory", counting_update)
        monkeypatch.setattr(model_module, "encode_offsets", counting_encode)
        monkeypatch.setattr(model_module, "multi_head_forward", counting_attention)
        monkeypatch.setattr(ad, "cross_entropy", counting_cross_entropy)
        model = MemoryLM(tiny_config(n_layers=3), RngHub(0)["init"])
        blocks_per_call(monkeypatch, model, 16, 4, 3)
        evaluate(model, make_ids(59), 16, 4)

        # 58 scored tokens: memory of 0, 4 and 8 rows, then 11 whole blocks
        # over full memory as 3 + 3 + 3 + 2, then the short last block
        assert calls["forward"] == [4, 4, 4, 12, 12, 12, 8, 2]
        assert calls["update"] == [(False, 0)] * (3 * len(calls["forward"]))
        assert calls["attention"] == 3 * len(calls["forward"])
        assert calls["encode"] == 1  # every call reads a tail of the full memory's encoding
        assert calls["cross_entropy"] == 0

        # eval_long's model and split: d128, 4 heads, context 640, 40 blocks of 64
        monkeypatch.setattr(train_module, "EVAL_SCORES", budget)
        calls["forward"].clear()
        big = MemoryLM(
            ModelConfig(n_layers=4, d_model=128, d_inner=512, n_heads=4, d_head=32, mem_len=64, block_len=64,
                        vocab_size=128),
            RngHub(0)["init"],
        )
        n_scored = 40 * 64
        evaluate(big, make_ids(n_scored + 1, vocab=128), 640, 64)
        assert calls["forward"] == [64] * math.ceil(n_scored / 64)

    def test_stream_takes_several_blocks_only_over_full_memory(self):
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, 4, 4, blocks=2)
        ids = make_ids(12)[None, :]
        with ad.no_grad():
            with pytest.raises(ValueError, match="whole blocks"):
                model.forward(ids[:, :8], stream)  # the memory is still empty
            model.forward(ids[:, :4], stream)
            for tokens, mask, message in ((ids[:, 4:10], None, "whole blocks"), (ids[:, 4:12], [True, False], "skip")):
                with pytest.raises(ValueError, match=message):
                    model.forward(tokens, stream, skip_mask=mask)
            assert stream.next_position == 4
            logits, _ = model.forward(ids[:, 4:12], stream)
        assert logits.shape == (1, 8, 11) and stream.next_position == 12 and stream.layers[1].rows == 4

    def test_record_matches_a_memory_state(self):
        """A stream keeps a row count, not tags, yet its LayerTrace offsets
        are those of a MemoryState through fill, full and short last calls."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream, mems = StreamState.fresh(model, 1, 8, 4), model.init_memory(batch=1, mem_len=8)
        ids = make_ids(18)[None, :]
        with ad.no_grad():
            for a in range(0, 18, 4):  # memory of 0, 4, 8, 8 and 8 rows; the last call holds 2 tokens
                got, want = [], []
                model.forward(ids[:, a : a + 4], stream, record=got)
                _, mems = model.forward(ids[:, a : a + 4], mems, record=want)
                for g, w in zip(got, want, strict=True):
                    assert (g.layer, g.skipped, g.staleness) == (w.layer, w.skipped, w.staleness)
                    np.testing.assert_array_equal(g.offsets, w.offsets)
        assert got[0].offsets.shape == (2, 10)


CHUNKS = pytest.mark.parametrize("segments", [1, 2, 3, 10**6], ids=["S1", "S2", "S3", "whole_split"])


class TestChunkedEvaluation:
    """Once the memory is full, evaluate runs S blocks per forward call,
    layer by layer over the whole chunk; for every S the NLL is that of the
    plain per-block forward loop, bit for bit. The cases are
    TestStreamingEvaluation's, which run at the module's own budget."""

    @CHUNKS
    @pytest.mark.parametrize(
        "n_ids, context, block, dtype, prune",
        [
            (61, 16, 4, "float64", None),            # memory fills over 3 blocks, then stays full
            (59, 16, 4, "float64", None),            # short last block of 2 tokens
            (41, 4, 4, "float64", None),             # context == block: no memory
            (50, 12, 4, "float64", [[True, False], [False, True]]),
            (61, 16, 4, "float32", None),
        ],
        ids=["fill_then_full", "short_last_block", "no_memory", "pruned", "float32"],
    )
    def test_matches_plain_forward_loop(self, monkeypatch, segments, n_ids, context, block, dtype, prune):
        model = MemoryLM(tiny_config(param_dtype=dtype), RngHub(0)["init"])
        model = model if prune is None else prune_heads(model, prune)
        ids = make_ids(n_ids)
        blocks_per_call(monkeypatch, model, context, block, segments)
        assert evaluate(model, ids, context, block).nll == reference_nll(model, ids, context, block)

    @CHUNKS
    def test_trained_model_matches_plain_forward_loop(self, monkeypatch, trained_lm, segments):
        model, ids = trained_lm
        ids = ids[:300]
        for context in (48, 16):
            blocks_per_call(monkeypatch, model, context, 16, segments)
            assert evaluate(model, ids, context, 16).nll == reference_nll(model, ids, context, 16)

    def test_score_array_stays_within_the_budget(self, monkeypatch):
        """Every call of S > 1 blocks holds at most EVAL_SCORES scores,
        S * H * L * K with K = context keys per query."""
        sizes = []
        forward = model_module.MemoryLM.forward

        def recording(self, tokens, *args, **kwargs):
            sizes.append(tokens.shape[1])
            return forward(self, tokens, *args, **kwargs)

        monkeypatch.setattr(model_module.MemoryLM, "forward", recording)
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        ids = make_ids(101)
        chunked = 0
        for budget in (1, 200, 1000, 2**15):
            monkeypatch.setattr(train_module, "EVAL_SCORES", budget)
            for context, block in ((16, 4), (12, 4), (8, 8), (6, 3)):
                sizes.clear()
                evaluate(model, ids, context, block)
                assert sum(sizes) == 100
                for n in sizes:
                    if n > block:
                        chunked += 1
                        assert n % block == 0 and n // block * model.config.n_heads * block * context <= budget
        assert chunked > 0


def stream_calls(model, ids, stream, length):
    """Run ``ids`` through ``stream`` in [B, length] calls, under no_grad."""
    with ad.no_grad():
        for a in range(0, ids.shape[1], length):
            model.forward(ids[:, a : a + length], stream)


class TestStreamBuffers:
    """A stream owns the arrays it reads or rewrites every block: each
    layer's key and value stores and position keys, the offset encoding, and
    one pair of score-grid buffers that every layer views. StreamState.fresh
    allocates them; no call allocates any of them."""

    CONTEXT, BLOCK = 1024, 16  # a [1, 1, 2, 16, 1024] grid is 256 KiB, four of numpy's 64 KiB ufunc buffers

    def full_stream(self):
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, self.CONTEXT - self.BLOCK, self.BLOCK)
        ids = make_ids(self.CONTEXT + 4 * self.BLOCK)[None, :]
        stream_calls(model, ids[:, : self.CONTEXT], stream, self.BLOCK)  # the last of these reads a full memory
        return model, stream, ids[:, self.CONTEXT :]

    def peak_in_grids(self, model, ids, stream):
        """tracemalloc's peak over one-block calls, in [1, 1, H, BLOCK, CONTEXT] grids."""
        tracemalloc.start()
        try:
            stream_calls(model, ids, stream, self.BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (model.config.n_heads * self.BLOCK * self.CONTEXT * 8)

    def test_steady_calls_allocate_no_score_grid(self):
        """Four calls, two of which compact the stores, peak below one grid;
        grids allocated afresh would put the peak at two grids or more."""
        model, stream, ids = self.full_stream()
        assert self.peak_in_grids(model, ids, stream) < 1

    def test_fill_calls_allocate_no_score_grid(self):
        """The calls over a filling memory, each over more keys than the one
        before, view the grid buffers that fresh allocated, and peak below
        one grid. Eight one-wide heads make a grid outweigh the offsets,
        encodings and position keys that a call used to build."""
        model = MemoryLM(tiny_config(n_heads=8, d_head=1), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, self.CONTEXT - self.BLOCK, self.BLOCK)
        assert self.peak_in_grids(model, make_ids(self.CONTEXT)[None, :], stream) < 1

    def test_fill_and_steady_calls_encode_and_project_no_position(self, monkeypatch):
        """fresh encodes the full memory's offsets and projects each layer's
        position keys; the calls over a filling, then full memory read tails
        of them and call neither encode_offsets nor position_keys."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, 12, 4)
        calls = []
        for name in ("encode_offsets", "position_keys"):
            monkeypatch.setattr(model_module, name, lambda *args, name=name: calls.append(name))
        stream_calls(model, make_ids(28)[None, :], stream, 4)
        assert calls == [] and stream.next_position == 28 and stream.layers[0].rows == 12

    def test_refuses_a_skip_mask_and_more_blocks_than_it_was_sized_for(self):
        model, stream, ids = self.full_stream()
        with ad.no_grad():
            with pytest.raises(ValueError, match="skip mask"):
                model.forward(ids[:, : self.BLOCK], stream, skip_mask=[False, False])
            with pytest.raises(ValueError, match="up to 1 whole blocks"):
                model.forward(ids[:, : 2 * self.BLOCK], stream)
        assert stream.next_position == self.CONTEXT

    REFUSALS = {  # refusal: (tokens the stream holds, tokens of the refused call, message)
        "recording": (4, 4, "no_grad"),
        "skip_mask": (4, 4, "skip mask"),
        "part_block": (8, 6, "whole blocks"),
        "several_before_full": (4, 8, "whole blocks"),
    }

    @pytest.mark.parametrize("refusal", list(REFUSALS))
    def test_refuses_before_it_writes(self, refusal):
        """Each refusal of StreamState.check leaves the stream as it was: its
        position, every layer's row count and stop, and its stores' bytes."""
        filled, n_tokens, match = self.REFUSALS[refusal]
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        stream = StreamState.fresh(model, 1, 8, 4, blocks=2)
        ids = make_ids(filled + n_tokens)[None, :]
        stream_calls(model, ids[:, :filled], stream, 4)
        kwargs = {"skip_mask": {"skip_mask": [False, True]}}.get(refusal, {})

        def state():
            return stream.next_position, [(lm.rows, lm.stop, lm.keys.tobytes(), lm.values.tobytes())
                                          for lm in stream.layers]

        before = state()
        with contextlib.nullcontext() if refusal == "recording" else ad.no_grad():
            with pytest.raises((RuntimeError, ValueError), match=match):
                model.forward(ids[:, filled:], stream, **kwargs)
        assert state() == before

    def test_consecutive_calls_reuse_the_same_buffers(self):
        model, stream, ids = self.full_stream()
        enc, grids = stream.enc, stream.grids
        stores = [(lm.keys, lm.values, lm.positions) for lm in stream.layers]
        stream_calls(model, ids, stream, self.BLOCK)
        assert stream.enc is enc and all(a is b for a, b in zip(stream.grids, grids))
        for lm, (keys, values, positions) in zip(stream.layers, stores):
            assert lm.keys is keys and lm.values is values and lm.positions is positions

    def test_batch_of_two_compacts_its_stores_row_by_row(self):
        """Each stream row keeps its own rows through the compactions that
        move them to the front of the stores, bit for bit as a plain loop."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        ids = np.stack([make_ids(41, seed=1), make_ids(41, seed=2)])
        stream = StreamState.fresh(model, 2, 8, 4)
        stops = []
        with ad.no_grad():
            mems = model.init_memory(batch=2, mem_len=8)
            for a in range(0, 40, 4):
                got, _ = model.forward(ids[:, a : a + 4], stream)
                want, mems = model.forward(ids[:, a : a + 4], mems)
                assert got.data.tobytes() == want.data.tobytes()
                stops.append(stream.layers[0].stop)
        compactions = sum(b < a for a, b in zip(stops, stops[1:]))
        assert stream.layers[0].keys.shape[1] == 16 and compactions >= 3  # moved to the front, not grown

    def test_tiny_shape_chunks_then_a_shorter_chunk_match_the_block_loop(self, monkeypatch):
        """At tiny.cfg's shape a full-memory call runs S = 16 blocks; a shorter
        chunk after it reads the front of the same grid buffers."""
        model = MemoryLM(
            ModelConfig(n_layers=4, d_model=32, d_inner=64, n_heads=2, d_head=16, mem_len=16, block_len=16,
                        vocab_size=11, beta=0.1, init_std=0.05),
            RngHub(5)["init"],
        )
        ids = make_ids(16 * 22 + 8, seed=3)  # a block of filling memory, 16 + 5 blocks, 7 tokens
        want = reference_nll(model, ids, 32, 16)
        calls = []
        attend = model_module.multi_head_forward

        def recording(*args, **kwargs):
            calls.append((args[0].shape[1], kwargs["grids"][1]))
            return attend(*args, **kwargs)

        monkeypatch.setattr(model_module, "multi_head_forward", recording)
        assert evaluate(model, ids, 32, 16).nll == want
        # one call per layer: calls 4-7 run the 16-block chunk, 8-11 the 5-block one
        assert [segments for segments, _ in calls[::4]] == [1, 16, 5, 1]
        assert calls[4][1] is calls[8][1] is calls[11][1] is not None


class TestTrainerLoop:
    def test_repeated_runs_are_bitwise_identical(self):
        a = quick_trainer(steps=6, seed=4)
        b = quick_trainer(steps=6, seed=4)
        a.run()
        b.run()
        assert [r.train_nll for r in a.log] == [r.train_nll for r in b.log]
        for (_, pa), (_, pb) in zip(a.model.named_parameters(), b.model.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_step_uses_the_optimizers_parameter_table(self, monkeypatch):
        trainer = quick_trainer(steps=4, eval_interval=2)
        calls = []
        original = MemoryLM.named_parameters
        monkeypatch.setattr(MemoryLM, "named_parameters", lambda self: calls.append(1) or original(self))
        trainer.run()
        assert trainer.step == 4 and trainer.log[1].eval_ppl is not None
        assert calls == []

    def test_row_keeps_the_gradient_norm_before_clipping(self, monkeypatch):
        """The norm of the gathered gradients, which clipping then scaled down;
        the log file's columns stay as they were."""
        trainer = quick_trainer(steps=3, clip_norm=1e-3)
        gathered = []
        clip = train_module.clip_global_norm
        monkeypatch.setattr(train_module, "clip_global_norm", lambda g, m: gathered.append(g.copy()) or clip(g, m))
        trainer.run()
        for row, grad in zip(trainer.log, gathered, strict=True):
            assert row.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-12) and row.grad_norm > 1e-3
            assert row.line().count("\t") == LOG_HEADER.count("\t")
        assert np.linalg.norm(trainer.adam.grad) == pytest.approx(1e-3, rel=1e-12)  # the last step was clipped

    def test_parameter_rebound_away_from_the_arena_is_refused(self):
        trainer = quick_trainer(steps=4)
        trainer.run(until=1)
        p = trainer.model.layers[0].w_ff1
        p.data = p.data.copy()
        with pytest.raises(RuntimeError, match=re.escape("'layers.0.w_ff1'")):
            trainer.train_step()

    def test_loss_decreases_on_repetitive_data(self):
        ids = np.tile(np.arange(8), 40)
        trainer = quick_trainer(steps=40, ids=ids, base_lr=5e-3)
        trainer.run()
        first = np.mean([r.train_nll for r in trainer.log[:5]])
        last = np.mean([r.train_nll for r in trainer.log[-5:]])
        assert last < first

    def test_run_until_then_resume_in_process(self):
        trainer = quick_trainer(steps=10)
        trainer.run(until=4)
        assert trainer.step == 4
        trainer.run()
        assert trainer.step == 10
        assert [r.step for r in trainer.log] == list(range(1, 11))

    def test_log_file_format(self, tmp_path):
        log_path = tmp_path / "run.log"
        trainer = quick_trainer(steps=4, eval_interval=2)
        trainer.log_path = str(log_path)
        with open(log_path, "w") as f:
            f.write(LOG_HEADER + "\n")
        trainer.run()

        lines = log_path.read_text().strip().split("\n")
        assert lines[0] == LOG_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            step, phase, lr, nll, ppl = line.split("\t")
            assert phase in (PHASE_SKIP_RETAIN, PHASE_VANILLA)
            float(lr), float(nll)
            if int(step) % 2 == 0:
                float(ppl)  # evaluation steps carry a perplexity
            else:
                assert ppl == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostic(self, tmp_path):
        ids = np.tile(np.arange(1, 5), 30)  # token 0 never occurs
        trainer = quick_trainer(steps=4, ids=ids)
        trainer.checkpoint_path = str(tmp_path / "run.ckpt")
        # poison a vocabulary row that is only reachable through the output
        # projection, so the forward pass survives but the loss goes NaN
        trainer.model.embedding.data[0] = np.inf
        with pytest.raises(RuntimeError, match="non-finite"):
            trainer.run()
        assert (tmp_path / "run.ckpt.diag").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_scores_abort_with_diagnostic(self, tmp_path):
        """A NaN key weight stops the forward at its scores, before any loss;
        the step still leaves a diagnostic checkpoint."""
        trainer = quick_trainer(steps=4)
        trainer.checkpoint_path = str(tmp_path / "run.ckpt")
        trainer.model.layers[0].attn.w_ke.data[0, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite scores in attention .* at step 0; diagnostic checkpoint"):
            trainer.run()
        assert (tmp_path / "run.ckpt.diag").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "bad, where",
        [
            (np.inf, r"in layers\.0\.w_ff1"),
            (np.nan, r"in layers\.0\.w_ff1"),
            (1e200, "with every entry finite: the sum of squares overflowed"),
        ],
        ids=["inf", "nan", "overflow"],
    )
    def test_nonfinite_gradient_stops_before_the_arena(self, tmp_path, monkeypatch, bad, where):
        """One poisoned gradient entry raises a named error before Adam: the
        arena, moments, step count, memory and log stay as they were, the
        periodic checkpoint is not rewritten, and the diagnostic one holds
        the state before the step. A finite entry whose square overflows the
        norm is reported as such, since no parameter holds a bad entry."""
        trainer = quick_trainer(steps=4)
        trainer.checkpoint_path, trainer.checkpoint_every = str(tmp_path / "run.ckpt"), 1
        trainer.run(until=2)
        adam, mems = trainer.adam, trainer.mems
        before = [a.tobytes() for a in (adam.params, adam.m, adam.v)], adam.t, len(trainer.log)
        checkpoint = (tmp_path / "run.ckpt").read_bytes()
        backward = ad.backward

        def poisoned(loss):
            backward(loss)
            trainer.model.layers[0].w_ff1.grad[1, 2] = bad

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(RuntimeError, match=rf"non-finite gradient norm \((inf|nan)\) at step 2 {where};"):
            trainer.run()
        assert ([a.tobytes() for a in (adam.params, adam.m, adam.v)], adam.t, len(trainer.log)) == before
        assert trainer.mems is mems and trainer.step == 2
        assert (tmp_path / "run.ckpt").read_bytes() == checkpoint
        diag = Trainer.load(tmp_path / "run.ckpt.diag", trainer.batches)
        assert [a.tobytes() for a in (diag.adam.params, diag.adam.m, diag.adam.v)] == before[0]
        assert diag.adam.t == adam.t and diag.step == 2
        for lm, want in zip(diag.mems.layers, mems.layers):
            assert lm.buffer.tobytes() == want.buffer.tobytes() and lm.tags.tobytes() == want.tags.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diagnostic_checkpoint_replays_the_failed_step(self, tmp_path, monkeypatch):
        """The ``.diag`` of a failed step holds the RNG streams as they were
        before the step drew: those of a clean run's checkpoint at that step.
        A trainer resumed from it draws the failed step's skip mask and head
        assignments again."""
        draws = []

        def recorded(fn):
            def call(*args):
                draws.append(fn(*args))
                return draws[-1]
            return call

        for name in ("sample_skip_mask", "sample_head_assignment"):
            monkeypatch.setattr(train_module, name, recorded(getattr(train_module, name)))

        def replay(trainer):
            draws.clear()
            trainer.train_step()
            return [d.tolist() if isinstance(d, np.ndarray) else (d.sigma.tolist(), d.cross_active) for d in draws]

        runs = {}
        for name in ("clean", "poisoned"):
            trainer = runs[name] = quick_trainer(steps=4, schedule=SkipSchedule.uniform(0.3), beta=1.0)
            trainer.checkpoint_path, trainer.checkpoint_every = str(tmp_path / f"{name}.ckpt"), 1
            trainer.run(until=2)
        clean_rng = load_checkpoint(tmp_path / "clean.ckpt")[0]["rng"]
        want = replay(runs["clean"])
        assert len(want) == 3  # the mask, then one assignment per layer

        backward = ad.backward

        def poisoned(loss):
            backward(loss)
            runs["poisoned"].model.embedding.grad[0, 0] = np.nan

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(RuntimeError, match="non-finite gradient norm"):
            runs["poisoned"].train_step()
        monkeypatch.setattr(ad, "backward", backward)
        diag = tmp_path / "poisoned.ckpt.diag"
        assert load_checkpoint(diag)[0]["rng"] == clean_rng
        assert replay(Trainer.load(diag, runs["poisoned"].batches)) == want

    def test_transition_recorded_once_and_phase_switches(self):
        # threshold so large the controller fires at the first eligible eval
        trainer = quick_trainer(
            steps=12, eval_interval=2, window=4, threshold=1e9,
            schedule=SkipSchedule.uniform(0.4),
        )
        trainer.run()
        ts = trainer.controller.transition_step
        assert ts == 6  # first eval with a >= window-old record: 2 -> old at 6
        phases = [r.phase for r in trainer.log]
        # the row of the transition step still ran under the old phase
        assert phases[ts - 1] == PHASE_SKIP_RETAIN
        assert all(p == PHASE_SKIP_RETAIN for p in phases[:ts])
        assert all(p == PHASE_VANILLA for p in phases[ts:])


class TestGradientArena:
    """``backward`` writes each registered parameter's grad into its view of
    the optimizer's gradient buffer; the values are those of a model with no
    optimizer, bit for bit."""

    @staticmethod
    def stale_step(model, mems, skip):
        """Record one step of a three-layer model: layer 0 crossed over its
        stale cache, layer 1 skipped when ``skip``, layer 2 plain."""
        tokens = np.random.default_rng(7).integers(0, model.config.vocab_size, size=(2, 2, 4))
        sigma = [HeadAssignment(np.array([1, 0]), True), HeadAssignment.identity(2), HeadAssignment.identity(2)]
        logits, _ = model.forward(tokens[0], mems, skip_mask=[False, skip, False], assignments=sigma, training=True)
        return ad.cross_entropy(logits, tokens[1])

    @pytest.fixture
    def case(self):
        model = MemoryLM(tiny_config(n_layers=3), RngHub(0)["init"])
        mems = model.init_memory(2)
        tokens = np.random.default_rng(3).integers(0, 11, size=(2, 2, 4))
        with ad.no_grad():
            _, mems = model.forward(tokens[0], mems)
            _, mems = model.forward(tokens[1], mems, skip_mask=[True, False, False])
        assert [lm.staleness for lm in mems.layers] == [1, 0, 0]
        twin = copy.deepcopy(model)
        return model, twin, mems, AdamState(model.named_parameters())

    def test_arena_grads_equal_a_plain_models(self, case):
        model, twin, mems, adam = case
        ad.backward(self.stale_step(model, mems, skip=False))  # every view now holds a gradient
        model.zero_grad()
        ad.backward(self.stale_step(model, mems, skip=True))
        ad.backward(self.stale_step(twin, mems, skip=True))
        adam.gather_grads()
        skipped = 0
        for (name, p, _), view, (_, q) in zip(adam.table, adam.grads, twin.named_parameters()):
            if q.grad is None:  # layer 1's: zero-filled over the first step's values
                assert name.startswith("layers.1.") and p.grad is None and not view.any()
                skipped += 1
            else:
                assert p.grad is view and view.tobytes() == q.grad.tobytes(), name
        assert skipped == 15
        w_ke = model.layers[2].attn.w_ke  # its grad is the memory rows' contribution plus the block's
        assert sum(n._parents.count(w_ke) for n in reachable(self.stale_step(model, mems, skip=True))) == 2

    def test_two_backward_calls_sum(self, case):
        model, twin, mems, adam = case
        for m in (model, twin):
            for skip in (False, True):
                ad.backward(self.stale_step(m, mems, skip))
        adam.gather_grads()
        for (name, p, _), view, (_, q) in zip(adam.table, adam.grads, twin.named_parameters()):
            assert p.grad is view and view.tobytes() == q.grad.tobytes(), name


class TestPersistence:
    def test_checkpoint_resume_matches_straight_run(self, tmp_path):
        straight = quick_trainer(steps=12, seed=9, schedule=SkipSchedule.uniform(0.3))
        straight.run()

        broken = quick_trainer(steps=12, seed=9, schedule=SkipSchedule.uniform(0.3))
        broken.run(until=5)
        path = tmp_path / "mid.ckpt"
        broken.save(path)

        resumed = Trainer.load(path, broken.batches, eval_ids=broken.eval_ids)
        assert resumed.step == 5
        resumed.run()

        tail_a = [r.train_nll for r in straight.log[5:]]
        tail_b = [r.train_nll for r in resumed.log]
        assert tail_a == tail_b
        for (_, pa), (_, pb) in zip(straight.model.named_parameters(), resumed.model.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_loaded_parameters_and_moments_live_in_the_arena(self, tmp_path):
        trainer = quick_trainer(steps=3)
        trainer.run()
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        resumed = Trainer.load(path, trainer.batches)
        adam = resumed.adam
        assert [name for name, _, _ in adam.table] == [name for name, _ in resumed.model.named_parameters()]
        for (_, p, view), (_, q) in zip(adam.table, trainer.model.named_parameters()):
            assert p.data is view and np.shares_memory(p.data, adam.params)
            assert p.data.tobytes() == q.data.tobytes()
        assert adam.t == trainer.adam.t == 3
        for got, want in ((adam.m, trainer.adam.m), (adam.v, trainer.adam.v)):
            assert got.tobytes() == want.tobytes()

    def test_load_holds_the_file_once_and_copies_the_memory_it_keeps(self, tmp_path):
        """Beyond building the trainer, a load holds about one checkpoint: the
        file's bytes. The memory rows and tags that stay live are copies, so
        those bytes are freed once the load returns."""
        mcfg, cfg = tiny_config(d_model=32, d_inner=128, n_heads=4, d_head=8), TrainConfig(steps=3, eval_block=4)
        batches = batchify(make_ids(), 1, 4)

        def build():
            return Trainer(MemoryLM(mcfg, RngHub(0)["init"]), cfg, batches, None, RngHub(0))

        trainer = build()
        trainer.run()
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        size = path.stat().st_size

        peaks = []
        for make in (build, lambda: Trainer.load(path, batches)):
            tracemalloc.start()
            try:
                resumed = make()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1.3 * size, (peaks, size)
        for lm, want in zip(resumed.mems.layers, trainer.mems.layers):
            assert lm.buffer.flags.owndata and lm.tags.flags.owndata
            assert lm.buffer.tobytes() == want.buffer.tobytes()

    def test_checkpoint_every_writes_file(self, tmp_path):
        path = tmp_path / "auto.ckpt"
        trainer = quick_trainer(steps=4)
        trainer.checkpoint_path = str(path)
        trainer.checkpoint_every = 2
        trainer.run()
        assert path.exists()

    def test_model_save_load_round_trip(self, tmp_path, trained_lm):
        model, ids = trained_lm
        corpus = corpus_from_text("abc", "char")
        path = tmp_path / "model.ckpt"
        save_trainer_checkpoint(path, model, vocab=corpus.vocab)
        clone, vocab = load_model(path)
        assert vocab.tokens == corpus.vocab.tokens
        for (_, pa), (_, pb) in zip(model.named_parameters(), clone.named_parameters(), strict=True):
            assert pa.data.tobytes() == pb.data.tobytes()
        a = evaluate(model, ids, 32, 16)
        b = evaluate(clone, ids, 32, 16)
        assert a.nll == b.nll

    def test_load_model_accepts_trainer_checkpoints(self, tmp_path):
        """``load_model`` gives the trainer's parameters, bitwise, and its
        vocabulary; the clone evaluates exactly as the trained model does."""
        trainer = quick_trainer(steps=3)
        trainer.run()
        trainer.vocab = corpus_from_text("abc", "char").vocab
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        clone, vocab = load_model(path)
        assert clone.config == trainer.model.config
        assert vocab.tokens == trainer.vocab.tokens
        for (_, pa), (_, pb) in zip(trainer.model.named_parameters(), clone.named_parameters(), strict=True):
            assert pa.data.tobytes() == pb.data.tobytes()
        ids = make_ids(60)
        assert evaluate(clone, ids, 8, 4).nll == evaluate(trainer.model, ids, 8, 4).nll

    def test_checkpoint_holds_the_arena_and_its_table(self, tmp_path):
        trainer = quick_trainer(steps=2)
        trainer.run()
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        meta, arrays = load_checkpoint(path)
        n_layers = trainer.model.config.n_layers
        assert list(arrays) == ["params", "adam_m", "adam_v"] + [
            f"mem.{i}.{part}" for i in range(n_layers) for part in ("buffer", "tags")
        ]
        assert meta["arena"] == [[name, list(p.shape)] for name, p in trainer.model.named_parameters()]
        for name, flat in (("params", trainer.adam.params), ("adam_m", trainer.adam.m), ("adam_v", trainer.adam.v)):
            assert arrays[name].tobytes() == flat.tobytes()

    @pytest.mark.parametrize("misfit", ["shape", "name", "missing entry", "extra entry", "params", "adam_v"])
    def test_both_loaders_refuse_an_arena_that_does_not_fit_the_model(self, tmp_path, misfit):
        trainer = quick_trainer(steps=1)
        trainer.run()
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        meta, arrays = load_checkpoint(path)
        table, size = meta["arena"], trainer.adam.params.size
        (name, shape), want = table[1], re.escape(str(table[1]))
        if misfit in ("shape", "name"):
            table[1] = [name, shape + [1]] if misfit == "shape" else [name + "x", shape]
            message = f"arena entry 1 is {re.escape(str(table[1]))}, but the model's is {want}"
        elif misfit == "missing entry":
            del table[1:]
            message = f"arena entry 1 is None, but the model's is {want}"
        elif misfit == "extra entry":
            table.append(["extra", [2]])
            message = re.escape(f"arena entry {len(table) - 1} is ['extra', [2]], but the model's is None")
        else:
            arrays[misfit] = arrays[misfit][:-1]
            message = re.escape(f"{misfit} has shape ({size - 1},), but the arena holds {size} entries")
        save_checkpoint(path, meta, arrays)
        for load in (load_model, lambda p: Trainer.load(p, trainer.batches)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
                load(path)

    def test_both_loaders_refuse_an_older_version(self, tmp_path, monkeypatch):
        """Version 1 stored the arena per parameter, version 2 raw memory rows
        with no CRC32s, and version 3 no CRC32 of the header, which followed
        its length; each, in that layout, is refused by its number."""
        trainer = quick_trainer(steps=1)
        trainer.run()
        path = tmp_path / "t.ckpt"
        for version in (1, 2, 3):
            monkeypatch.setattr(checkpoint_module, "VERSION", version)
            trainer.save(path)
            monkeypatch.undo()
            blob = path.read_bytes()
            path.write_bytes(blob[:12] + blob[16:])  # the header right after its length
            for load in (load_model, lambda p: Trainer.load(p, trainer.batches)):
                with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}; this memxl reads "
                                                     f"version 4"):
                    load(path)

    def test_both_loaders_refuse_a_flipped_byte_in_any_array(self, tmp_path):
        """One byte flipped inside any array of a trainer checkpoint, the
        memory's normalised rows and tags included, is refused by its CRC32,
        and the error names that array."""
        trainer = quick_trainer(steps=2)
        trainer.run()
        path = tmp_path / "t.ckpt"
        trainer.save(path)
        blob = path.read_bytes()
        base = 16 + int.from_bytes(blob[4:12], "little")
        entries = json.loads(blob[16:base])["arrays"]
        assert [e["name"] for e in entries] == ["params", "adam_m", "adam_v", "mem.0.buffer", "mem.0.tags",
                                                "mem.1.buffer", "mem.1.tags"]
        for e in entries:
            assert e["nbytes"] > 0
            flipped = bytearray(blob)
            flipped[base + e["offset"] + e["nbytes"] // 2] ^= 0xFF
            path.write_bytes(flipped)
            for load in (load_model, lambda p: Trainer.load(p, trainer.batches)):
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: array '{e['name']}' is corrupt"):
                    load(path)


class TestTrainHelper:
    def test_runs_and_logs(self, tmp_path):
        ids = make_ids(120)
        cfg = TrainConfig(steps=6, eval_interval=3, eval_context=8, eval_block=4, seed=1)
        hub = RngHub(cfg.seed)
        model = MemoryLM(tiny_config(), hub["init"])
        log_path = tmp_path / "train.log"
        trainer = train(model, ids, cfg, hub, log_path=str(log_path))
        assert trainer.step == 6
        assert len(trainer.log) == 6
        # evaluation defaults to the training split
        assert trainer.log[2].eval_ppl is not None
        assert log_path.read_text().startswith(LOG_HEADER)

    def test_fresh_run_starts_a_new_log_and_a_resumed_one_appends(self, tmp_path):
        ids = make_ids(120)
        cfg = TrainConfig(steps=4, eval_interval=100, eval_context=8, eval_block=4, seed=1)
        log, ckpt = tmp_path / "train.log", tmp_path / "train.ckpt"

        def steps_logged(path):
            lines = path.read_text().splitlines()
            assert lines[0] == LOG_HEADER and LOG_HEADER not in lines[1:]
            return [int(line.split("\t")[0]) for line in lines[1:]]

        for _ in range(2):
            hub = RngHub(cfg.seed)
            train(MemoryLM(tiny_config(), hub["init"]), ids, cfg, hub, log_path=str(log), checkpoint_path=str(ckpt),
                  checkpoint_every=2)
            assert steps_logged(log) == [1, 2, 3, 4]
        for path, want in ((log, [1, 2, 3, 4, 5, 6]), (tmp_path / "new.log", [5, 6])):
            resumed = Trainer.load(ckpt, batchify(ids, 1, 4), ids, log_path=str(path))
            resumed.run(until=6)
            assert steps_logged(path) == want

    def test_resume_onto_a_longer_log_rewrites_it_from_the_checkpoint(self, tmp_path):
        """A run stopped at step 2 and resumed onto the log it went on to
        write through step 4 leaves the log of a straight run, byte for byte,
        evaluation rows included."""
        ids = make_ids(120)
        cfg = TrainConfig(steps=4, eval_interval=2, eval_context=8, eval_block=4, seed=1)

        def start(log):
            hub = RngHub(cfg.seed)
            return Trainer(MemoryLM(tiny_config(), hub["init"]), cfg, batchify(ids, 1, 4), ids, hub, log_path=str(log))

        start(tmp_path / "straight.log").run()
        cut = start(tmp_path / "cut.log")
        cut.run(until=2)
        cut.save(tmp_path / "two.ckpt")
        cut.run()
        Trainer.load(tmp_path / "two.ckpt", cut.batches, ids, log_path=str(tmp_path / "cut.log")).run()
        straight = (tmp_path / "straight.log").read_bytes()
        assert straight.count(b"\n") == 5 and (tmp_path / "cut.log").read_bytes() == straight

    def test_resume_onto_a_log_cut_mid_row_keeps_only_complete_rows(self, tmp_path):
        """A crash one byte into row 12 leaves a last line with no newline;
        resumed from the step-10 checkpoint, the run drops it and leaves the
        log of a straight 14-step run, byte for byte."""
        ids = make_ids(120)
        cfg = TrainConfig(steps=14, eval_interval=100, eval_context=8, eval_block=4, seed=1)

        def start(log, **kwargs):
            hub = RngHub(cfg.seed)
            return Trainer(MemoryLM(tiny_config(), hub["init"]), cfg, batchify(ids, 1, 4), ids, hub,
                           log_path=str(log), **kwargs)

        start(tmp_path / "straight.log").run()
        log, ckpt = tmp_path / "cut.log", tmp_path / "ten.ckpt"
        start(log, checkpoint_path=ckpt, checkpoint_every=10).run(until=12)
        lines = log.read_bytes().split(b"\n")
        log.write_bytes(b"\n".join(lines[:12]) + b"\n" + lines[12][:1])
        Trainer.load(ckpt, batchify(ids, 1, 4), ids, log_path=str(log)).run()
        straight = (tmp_path / "straight.log").read_bytes()
        assert straight.count(b"\n") == 15 and log.read_bytes() == straight

    def test_config_validation(self):
        with pytest.raises(ValueError, match="eval_context"):
            TrainConfig(steps=5, eval_context=4, eval_block=8)
        with pytest.raises(ValueError, match="base_lr"):
            TrainConfig(steps=5, base_lr=0.0)
        for key, bad in (("clip_norm", 0.0), ("clip_norm", -1.0), ("adam_beta1", 1.5), ("adam_beta1", 1.0),
                         ("adam_beta2", -0.1), ("adam_eps", 0.0), ("adam_eps", -1.0),
                         ("threshold", math.nan), ("threshold", 0.0)):
            with pytest.raises(ValueError, match=key):
                TrainConfig(steps=5, **{key: bad})
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=0)

    def test_config_dict_round_trip(self):
        cfg = TrainConfig(steps=7, schedule=SkipSchedule.protect_both(0.25), window=9)
        clone = TrainConfig.from_dict(cfg.to_dict())
        assert clone == cfg


class TestPrecision:
    def test_float32_run_tracks_float64(self):
        """40 skip-retain steps with crossed heads, then a streaming evaluation,
        agree between float32 and float64 parameters to 1e-5 relative, and
        training leaves float32 parameters float32."""
        corpus = corpus_from_text(PANGRAM_TEXT, "char")

        def run(dtype):
            hub = RngHub(7)
            model = MemoryLM(
                tiny_config(
                    n_layers=4, d_model=16, d_inner=32, n_heads=4, d_head=4, mem_len=8, block_len=8,
                    vocab_size=corpus.vocab.size, beta=0.5, init_std=0.02, param_dtype=dtype,
                ),
                hub["init"],
            )
            cfg = TrainConfig(steps=40, batch_size=2, seed=7, schedule=SkipSchedule.uniform(0.4))
            trainer = Trainer(model, cfg, batchify(corpus.ids, 2, 8), None, hub)
            losses = [trainer.train_step().train_nll for _ in range(cfg.steps)]
            assert {p.dtype for _, p in model.named_parameters()} == {np.dtype(dtype)}
            return np.array(losses + [evaluate(model, corpus.ids, 40, 8).nll])

        np.testing.assert_allclose(run("float32"), run("float64"), rtol=1e-5, atol=0)


BLAS_RUN = """
import hashlib, os, numpy as np
from memxl import MemoryLM, ModelConfig, RngHub, SkipSchedule, TrainConfig, Trainer
from memxl.data import batchify
from memxl.train import evaluate
hub = RngHub(3)
ids = hub["data"].integers(0, 64, size=2 * 32 * 4 + 1)
model = MemoryLM(ModelConfig(n_layers=2, d_model=64, d_inner=256, n_heads=2, d_head=32, mem_len=32, block_len=32,
                             vocab_size=64, dropout=0.1, beta=0.5), hub["init"])
trainer = Trainer(model, TrainConfig(steps=3, batch_size=2, schedule=SkipSchedule.uniform(0.3)),
                  batchify(ids, 2, 32), None, hub)
trainer.run()
nll = evaluate(model, ids[:161], 64, 32).nll
status = "/proc/self/status"  # Linux: the thread count, to show that the BLAS setting took
threads = open(status).read().split("Threads:")[1].split()[0] if os.path.exists(status) else "?"
for blob in (np.array([r.train_nll for r in trainer.log]), trainer.adam.params, np.float64(nll)):
    print(hashlib.sha256(blob.tobytes()).hexdigest())
print(threads)
"""


class TestBlasThreads:
    def test_training_and_evaluation_do_not_depend_on_the_blas_thread_count(self):
        """Three d64 training steps, with skipping, crossed heads and dropout,
        then an evaluation, give the same losses, arena and NLL, bit for bit,
        with one and with two BLAS threads. Their [64, 64] by [64, 64] GEMMs
        are large enough for OpenBLAS to split over two threads."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
        procs = {}
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, PYTHONPATH=src)
            procs[n] = subprocess.Popen([sys.executable, "-c", BLAS_RUN], env=env, stdout=subprocess.PIPE, text=True)
        out = {n: proc.communicate(timeout=60)[0].split() for n, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values())
        assert out["1"][:3] == out["2"][:3]
        if out["2"][3] != "?" and len(os.sched_getaffinity(0)) > 1:
            assert (out["1"][3], out["2"][3]) == ("1", "2")  # the setting took: one BLAS thread or two
