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
    """Encodings for every offset from 0 to n - 1, where n - 1 is the largest
    offset of one offset matrix, and the runs of keys that read them.

    Key tags ascend in a few runs (the kept memory rows, then the block), so
    the keys lie on one gap-filled run of n positions that ends at the last
    query. Key j sits at column n - 1 - offsets[-1, j] of that run; each run
    of keys is one (key start, key stop, column) triple. ``vectors`` is in
    shift order: row r encodes offset n - 1 - r. Vectors depend only on the
    offset value, never on layer or step.
    """

    offsets: np.ndarray  # [n] = 0 .. n-1
    vectors: np.ndarray  # [n, d], offsets n-1 .. 0
    runs: list[tuple[int, int, int]]


def encode_offsets(offsets: np.ndarray, d: int) -> OffsetEncodings:
    """Encode offsets 0 .. max of the matrix and split its keys into runs."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = int(np.maximum.reduce(offsets, axis=None)) + 1
    columns = n - 1 - offsets[-1]
    starts = [0, *((columns[1:] - columns[:-1] != 1).nonzero()[0] + 1).tolist()]
    stops = starts[1:] + [len(columns)]
    return OffsetEncodings(
        offsets=np.arange(n),
        vectors=pe_matrix(np.arange(n - 1, -1, -1), d),
        runs=[(a, b, int(columns[a])) for a, b in zip(starts, stops)],
    )
