"""The hot path calls numpy's C entry points (ufuncs, their ``reduce``,
``ndarray`` methods and the ``ndarray`` constructor), not the numpy functions
written in Python around them. Each rewritten call site gives the bits of the
formula it replaced, and no numpy function written in Python is entered from
memxl code during a training step or a chunked evaluation."""

import os
import sys
from itertools import product

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

import memxl
import memxl.autodiff as ad
from memxl import MemoryLM, RngHub
from memxl.attention import HeadAssignment
from memxl.model import StreamLayer
from memxl.optim import AdamState, adam_update, clip_global_norm
from memxl.relpos import block_tags, encode_offsets, pe_matrix, relative_offsets
from memxl.train import evaluate

from conftest import tiny_config

DTYPES = [np.float64, np.float32]
# [B, T, d] and [B, S, L, d] rows; d = 6 and 10 make each mean an inexact division
SHAPES = [(3, 5, 6), (2, 3, 4, 10)]


def same(a, b) -> bool:
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rows(rng, shape, dtype):
    """Random rows whose scales span seven decades, so sums round."""
    scale = 10.0 ** rng.uniform(-3, 4, size=shape[:-1] + (1,))
    return (rng.standard_normal(shape) * scale + scale).astype(dtype)


# -- the formulas the rewritten call sites replaced -----------------------

def old_layer_norm(x, weight, bias, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = (x - x.mean(axis=-1, keepdims=True)) / std
    gn = g * weight
    gx = (gn - gn.mean(axis=-1, keepdims=True) - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
    lead = tuple(range(g.ndim - 1))
    return centered / std * weight + bias, centered / std, gx, (g * normed).sum(axis=lead), g.sum(axis=lead)


def old_token_nll(x, targets):
    shift = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=-1, keepdims=True)
    return np.log(total) + shift - np.take_along_axis(x, targets[..., None], axis=-1), e, total


def old_unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def old_runs(offsets):
    n = int(offsets.max()) + 1
    columns = n - 1 - offsets[-1]
    starts = [0, *(np.flatnonzero(np.diff(columns) != 1) + 1).tolist()]
    stops = starts[1:] + [len(columns)]
    return n, [(a, b, int(columns[a])) for a, b in zip(starts, stops)]


def old_accepts(sigma, cross_active) -> bool:
    sigma = np.asarray(sigma, dtype=np.int64)
    try:
        if not np.array_equal(np.sort(sigma), np.arange(sigma.size)):
            return False
    except ValueError:  # np.sort of a 0-d array
        return False
    return cross_active or np.array_equal(sigma, np.arange(sigma.size))


# -- parity ------------------------------------------------------------------

class TestParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("width", [3, 5, 6, 7, 10, 32])
    def test_array_mean_divides_as_ndarray_mean(self, dtype, width):
        """Over float32 rows the intp division runs in float64 and casts back."""
        x = rows(np.random.default_rng(width), (2000, width), dtype)
        assert same(ad.array_mean(x), x.mean(axis=-1, keepdims=True))
        assert same(ad.array_mean(x, None).reshape(()), x.mean())

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm_forward_and_vjp(self, dtype, shape):
        rng = np.random.default_rng(1)
        x, g = rows(rng, shape, dtype), rng.standard_normal(shape).astype(dtype)
        weight, bias = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        params = [ad.Tensor(a, requires_grad=True) for a in (x, weight, bias)]
        out, normed = ad.layer_norm(*params)
        want = old_layer_norm(x, weight, bias, g)
        assert same(out.data, want[0]) and same(normed, want[1])
        for got, ref in zip(out._node._vjp(g), want[2:]):
            assert same(got, ref)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES + [(7, 11)])
    def test_token_nll_and_cross_entropy(self, dtype, shape):
        rng = np.random.default_rng(2)
        x = (rng.standard_normal(shape) * 4).astype(dtype)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        for got, ref in zip(ad.token_nll(x, targets), old_token_nll(x, targets)):
            assert same(got, ref)
        assert same(ad.cross_entropy(ad.Tensor(x), targets).data, old_token_nll(x, targets)[0].mean())

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("grad_shape, shape", [
        ((3, 5, 6), (6,)), ((3, 5, 6), (5, 6)), ((3, 5, 6), (1, 5, 1)), ((3, 5, 6), (3, 1, 6)),
        ((2, 3, 4, 10), (10,)), ((2, 3, 4, 10), (1, 1, 4, 1)), ((2, 3, 4, 10), (3, 1, 10)),
        ((2, 3, 4, 10), (2, 3, 4, 10)),
    ])
    def test_unbroadcast(self, dtype, grad_shape, shape):
        grad = rows(np.random.default_rng(3), grad_shape, dtype)
        assert same(ad._unbroadcast(grad, shape), old_unbroadcast(grad, shape))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lead, length, span, width", [
        ((2, 3), 4, 9, 9), ((2, 3), 4, 9, 12), ((2, 2, 3), 5, 7, 7), ((2, 2, 3), 5, 7, 11), ((1, 1), 1, 3, 3),
    ])
    def test_relative_shift_matches_as_strided(self, dtype, lead, length, span, width):
        """The score grid's view (width = span) and the VJP's padded one
        (width = span + L - 1), read and written through."""
        def old_shift(g):
            *outer, row, col = g.strides
            return as_strided(g[..., length - 1:], g.shape[:-1] + (span,), (*outer, row - col, col))

        grid = rows(np.random.default_rng(4), lead + (length, width), dtype)
        old, new = old_shift(grid), ad._relative_shift(grid, length, span)
        assert new.strides == old.strides and same(new, old)
        assert new.__array_interface__["data"] == old.__array_interface__["data"]
        ds = rows(np.random.default_rng(5), lead + (length, span), dtype)
        written = [np.zeros_like(grid) for _ in range(2)]
        ad._relative_shift(written[0], length, span)[...] = ds
        old_shift(written[1])[...] = ds
        assert same(*written)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows_kept, stop, segments", [(0, 0, 1), (4, 4, 1), (4, 8, 2), (4, 12, 2), (4, 13, 3)])
    def test_stream_windows_match_as_strided(self, dtype, rows_kept, stop, segments):
        """Including calls that first compact the kept rows to the front."""
        rng = np.random.default_rng(6)
        batch, length, width, capacity = 2, 4, 6, 16
        store = [rows(rng, (batch, capacity, width), dtype) for _ in range(2)]
        layer = StreamLayer(store[0], store[1], np.zeros((1, 1, width), dtype), rows=rows_kept, stop=stop)
        new = [ad.Tensor(rows(rng, (batch, segments, length, width), dtype)) for _ in range(2)]
        windows = layer.join(*new, None)
        first = layer.stop - segments * length - rows_kept
        for window, s in zip(windows, store):
            b, r, c = s.strides
            old = as_strided(s[:, first:], (batch, segments, rows_kept + length, width), (b, length * r, r, c),
                             writeable=False)
            assert window.data.strides == old.strides and same(window.data, old)
            assert window.data.__array_interface__["data"] == old.__array_interface__["data"]
            assert not window.data.flags.writeable

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shapes, axis", [
        ([(2, 3, 6), (2, 5, 6)], 1), ([(2, 3, 6), (2, 3, 1), (2, 3, 4)], -1), ([(1, 3), (4, 3)], 0),
        ([(2, 3, 4, 10), (2, 3, 2, 10)], 2), ([(2, 3, 0, 10), (2, 3, 4, 10)], -2),
    ])
    def test_concat_vjp_matches_split(self, dtype, shapes, axis):
        rng = np.random.default_rng(7)
        parts = [ad.Tensor(rows(rng, s, dtype), requires_grad=True) for s in shapes]
        out = ad.concat(parts, axis=axis)
        g = rows(rng, out.shape, dtype)
        old = np.split(g, np.cumsum([p.shape[axis] for p in parts])[:-1], axis=axis)
        got = out._node._vjp(g)
        assert len(got) == len(old)
        for a, b in zip(got, old):
            assert a.strides == b.strides and same(a, b)

    @pytest.mark.parametrize("seed", range(40))
    def test_encode_offsets_runs(self, seed):
        """Key tags in gapped runs, as stale caches leave them, before a block."""
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 6))
        runs = int(rng.integers(0, 4))
        tags, position = [], 0
        for _ in range(runs):
            position += int(rng.integers(0, 2)) * int(rng.integers(1, 9))  # a gap, or none
            size = int(rng.integers(1, 6))
            tags += list(range(position, position + size))
            position += size
        q_tags = block_tags(position + int(rng.integers(0, 8)), length)
        offsets = relative_offsets(q_tags, np.concatenate([np.asarray(tags, np.int64), q_tags]))
        enc = encode_offsets(offsets, 8)
        n, old = old_runs(offsets)
        assert enc.runs == old
        assert same(enc.offsets, np.arange(n)) and same(enc.vectors, pe_matrix(np.arange(n - 1, -1, -1), 8))

    def test_head_assignment_accepts_and_rejects_the_same_sigmas(self):
        candidates = [np.array(s) for n in range(5) for s in product(range(-1, n + 1), repeat=n)]
        candidates += [np.array(3), np.array([[0, 1], [1, 0]]), np.array([[0]]), np.array([0.0, 1.0])]
        assert len(candidates) > 1000
        for sigma, cross in product(candidates, (False, True)):
            try:
                HeadAssignment(sigma, cross)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == old_accepts(sigma, cross), (sigma, cross)


# -- the guard -------------------------------------------------------------

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
MEMXL_DIR = os.path.dirname(memxl.__file__) + os.sep
# the array-function dispatchers of two C functions: numpy enters them, in
# Python, on the way into C, and they only name the arrays
DISPATCHERS = {("_core/multiarray.py", "concatenate"), ("_core/multiarray.py", "copyto")}


def numpy_python_calls(fn) -> set[tuple[str, str, str]]:
    """Each numpy function written in Python that memxl code calls directly
    while ``fn`` runs: (file under numpy's directory, name, memxl caller)."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(MEMXL_DIR):
                where = os.path.relpath(frame.f_code.co_filename, NUMPY_DIR).replace(os.sep, "/")
                calls.add((where, frame.f_code.co_name,
                           f"{os.path.basename(caller.f_code.co_filename)}:{caller.f_lineno}"))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestNoPythonWrappers:
    def test_recorded_training_step(self):
        """forward with a skip mask, a stale cache, crossed heads and dropout;
        cross_entropy; backward; clipping; Adam. Sampling is not part of it:
        the mask, the assignments and the dropout generator are given."""
        model = MemoryLM(tiny_config(dropout=0.1), RngHub(0)["init"])
        adam = AdamState(model.named_parameters())
        tokens = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(4, 2, 4))
        with ad.no_grad():
            _, mems = model.forward(tokens[0], model.init_memory(2))
            _, mems = model.forward(tokens[1], mems, skip_mask=np.array([True, False]))

        def step():
            sigma = HeadAssignment(np.array([1, 0]), cross_active=True)
            logits, _ = model.forward(tokens[2], mems, skip_mask=np.array([False, True]), assignments=[sigma] * 2,
                                      training=True, dropout_rng=np.random.default_rng(1))
            loss = ad.cross_entropy(logits, tokens[3])
            ad.backward(loss)
            clip_global_norm(adam.gather_grads(), 0.25)
            adam_update(adam, 1e-3)

        assert mems.layers[0].staleness == 1  # layer 0 runs over a gap in its key tags
        calls = numpy_python_calls(step)
        assert adam.t == 1
        assert {c[:2] for c in calls} <= DISPATCHERS, sorted(calls)

    def test_chunked_evaluation(self):
        """Context 8, block 4: once the memory is full, each call runs up to
        9 blocks (S > 1)."""
        model = MemoryLM(tiny_config(), RngHub(0)["init"])
        ids = np.random.default_rng(0).integers(0, model.config.vocab_size, size=41)
        calls = numpy_python_calls(lambda: evaluate(model, ids, eval_context=8, eval_block=4))
        assert {c[:2] for c in calls} <= DISPATCHERS, sorted(calls)
