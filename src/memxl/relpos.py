"""Sinusoidal positional encodings and relative-offset bookkeeping.

Offsets are derived from explicit absolute-position tags carried by the
memory buffers, so a layer whose memory went stale (it was skipped for k
steps) automatically exposes the enlarged offsets, with no special
casing. Offset 0 is the most recent token; larger offset = older token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def pe_matrix(offsets: np.ndarray, d: int) -> np.ndarray:
    """Stack of encoding vectors, one row per offset value: sines in the
    first half, matching cosines in the second, frequency 10000^(-2i/d).

    Computed on demand for any offsets (no table bound).
    """
    if d % 2 != 0 or d < 2:
        raise ValueError(f"encoding width must be even and >= 2, got {d}")
    offsets = np.asarray(offsets, dtype=np.float64)
    half = d // 2
    inv_freq = np.power(10000.0, -2.0 * np.arange(half) / d)
    angles = offsets[:, None] * inv_freq[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def block_tags(start: int, length: int) -> np.ndarray:
    """Consecutive absolute positions for the current block."""
    return np.arange(start, start + length, dtype=np.int64)


def relative_offsets(query_tags: np.ndarray, key_tags: np.ndarray) -> np.ndarray:
    """Offset matrix: entry (i, j) = query position i minus key position j.

    Negative entries mark future keys; attention must mask them.
    """
    query_tags = np.asarray(query_tags, dtype=np.int64)
    key_tags = np.asarray(key_tags, dtype=np.int64)
    return query_tags[:, None] - key_tags[None, :]


@dataclass
class OffsetEncodings:
    """Encodings for the distinct nonnegative offsets of one offset matrix.

    ``index`` maps each (query, key) slot to a row of ``vectors``; future
    slots point at row 0 and are flagged in ``future`` for masking.
    Vectors depend only on the offset value, never on layer or step.

    ``contiguous`` holds when the key tags are one run ending at the last
    query's: then offset (i, j) is K - L + i - j and the distinct offsets
    are 0 .. K-1, so attention can read its position scores through a
    relative shift instead of a gather.
    """

    offsets: np.ndarray  # [n] distinct offsets, ascending
    vectors: np.ndarray  # [n, d]
    index: np.ndarray    # [L, K] into vectors
    future: np.ndarray   # [L, K] bool, True where key is in the future
    contiguous: bool


def encode_offsets(offsets: np.ndarray, d: int) -> OffsetEncodings:
    """Encode every distinct nonnegative offset appearing in the matrix."""
    offsets = np.asarray(offsets, dtype=np.int64)
    future = offsets < 0
    present = np.where(future, 0, offsets)
    uniq = np.unique(present)
    index = np.searchsorted(uniq, present)
    length, n_keys = offsets.shape
    return OffsetEncodings(
        offsets=uniq,
        vectors=pe_matrix(uniq, d),
        index=index,
        future=future,
        contiguous=np.array_equal(offsets, np.arange(n_keys - length, n_keys)[:, None] - np.arange(n_keys)),
    )
