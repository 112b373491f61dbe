import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memxl import relpos


def mp_pe(r: int, d: int) -> np.ndarray:
    """Extended-precision reference for one encoding vector."""
    with mpmath.workdps(60):
        half = d // 2
        sines, cosines = [], []
        for i in range(half):
            freq = mpmath.mpf(10000) ** (mpmath.mpf(-2 * i) / d)
            sines.append(float(mpmath.sin(r * freq)))
            cosines.append(float(mpmath.cos(r * freq)))
    return np.array(sines + cosines)


def pe(r: int, d: int) -> np.ndarray:
    """The encoding of a single offset, as one row of ``pe_matrix``."""
    return relpos.pe_matrix(np.array([r]), d)[0]


class TestSinusoidalPe:
    def test_matches_extended_precision_oracle(self):
        np.testing.assert_allclose(pe(7, 8), mp_pe(7, 8), atol=1e-15)
        np.testing.assert_allclose(pe(0, 4), mp_pe(0, 4), atol=1e-15)
        np.testing.assert_allclose(pe(5000, 16), mp_pe(5000, 16), atol=5e-13)

    def test_offset_zero_is_zeros_then_ones(self):
        vec = pe(0, 6)
        np.testing.assert_array_equal(vec[:3], np.zeros(3))
        np.testing.assert_array_equal(vec[3:], np.ones(3))

    @given(st.integers(0, 10_000), st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_sin_cos_pairs_lie_on_unit_circle(self, r, half):
        d = 2 * half
        vec = pe(r, d)
        np.testing.assert_allclose(vec[:half] ** 2 + vec[half:] ** 2, np.ones(half), atol=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            relpos.pe_matrix(np.array([3]), 7)
        with pytest.raises(ValueError):
            relpos.pe_matrix(np.array([3]), 0)

    def test_pe_matrix_rows_match_single_offset_form(self):
        offsets = np.array([0, 3, 11, 64])
        mat = relpos.pe_matrix(offsets, 8)
        for row, r in zip(mat, offsets):
            np.testing.assert_allclose(row, mp_pe(int(r), 8), atol=1e-15)


class TestOffsets:
    def test_block_tags_are_consecutive(self):
        np.testing.assert_array_equal(relpos.block_tags(5, 4), [5, 6, 7, 8])
        assert relpos.block_tags(0, 0).shape == (0,)

    def test_relative_offsets_known_matrix(self):
        got = relpos.relative_offsets([3, 4], [0, 1, 2, 3, 4])
        expected = np.array([[3, 2, 1, 0, -1], [4, 3, 2, 1, 0]])
        np.testing.assert_array_equal(got, expected)

    def test_offset_sign_convention(self):
        # query earlier than key -> negative -> future
        got = relpos.relative_offsets([0], [5])
        assert got[0, 0] == -5

    def test_encode_offsets_indexes_recover_vectors(self):
        # key j of run (a, b, c) sits at column c + j - a of the gap-filled run;
        # query i reads it from vectors row L - 1 - i + that column
        offsets = relpos.relative_offsets([5, 6], [0, 1, 5, 6])
        enc = relpos.encode_offsets(offsets, 6)
        np.testing.assert_array_equal(enc.offsets, np.arange(7))
        assert enc.runs == [(0, 2, 0), (2, 4, 5)]
        length = offsets.shape[0]
        for a, b, c in enc.runs:
            for j in range(a, b):
                for i in range(length):
                    row = length - 1 - i + c + j - a
                    if offsets[i, j] < 0:
                        assert row >= enc.offsets.size
                    else:
                        np.testing.assert_allclose(enc.vectors[row], mp_pe(int(offsets[i, j]), 6), atol=1e-15)

    def test_encode_offsets_fills_gaps_between_runs(self):
        # memory rows 2, 3, 8..11 before the block 12..15
        q_tags = relpos.block_tags(12, 4)
        enc = relpos.encode_offsets(relpos.relative_offsets(q_tags, np.r_[2, 3, 8:12, q_tags]), 4)
        np.testing.assert_array_equal(enc.offsets, np.arange(14))
        assert enc.runs == [(0, 2, 0), (2, 10, 6)]
        np.testing.assert_array_equal(enc.vectors, relpos.pe_matrix(np.arange(13, -1, -1), 4))

    @pytest.mark.parametrize("skips", [0, 1, 2, 3])
    def test_full_cache_after_skips_reaches_back(self, skips):
        # memory M = 4 refreshed with positions 0..3, then k skipped blocks of L = 4
        mem_len = length = 4
        q_tags = relpos.block_tags(mem_len + skips * length, length)
        enc = relpos.encode_offsets(relpos.relative_offsets(q_tags, np.r_[0:mem_len, q_tags]), 4)
        assert enc.offsets.max() == mem_len + length - 1 + skips * length
        if skips:
            assert enc.runs == [(0, 4, 0), (4, 8, 4 + 4 * skips)]
        else:
            assert enc.runs == [(0, 8, 0)]

    def test_stale_memory_tags_expose_larger_offsets(self):
        # a buffer whose tags stopped advancing yields offsets beyond the
        # contiguous range once the query block moves on
        mem_tags = relpos.block_tags(0, 4)      # stale rows: positions 0..3
        query_tags = relpos.block_tags(8, 4)    # current block: positions 8..11
        offsets = relpos.relative_offsets(query_tags, np.concatenate([mem_tags, query_tags]))
        assert offsets.max() == 11
