"""Self-describing binary checkpoint container.

Layout: 4-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the raw array bytes back to back. The header carries
arbitrary JSON metadata plus one entry per array (name, dtype, shape,
offset). Round trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"MXCK"
VERSION = 1


def _little_endian(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":
        return arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and ``arrays`` to ``path`` atomically: into a temporary
    file beside it, fsynced, then renamed onto it, so a write that fails
    leaves any earlier file at ``path`` as it was and no temporary file
    behind. Each array is written from its own buffer (a copy only for one
    that is not C-contiguous and little-endian)."""
    arrays = {name: np.require(_little_endian(np.asarray(arr)), requirements="C") for name, arr in arrays.items()}
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "dtype": arr.dtype.str.replace("=", "<"), "shape": list(arr.shape),
                        "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({"version": VERSION, "meta": meta, "arrays": entries}).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for arr in arrays.values():
                f.write(arr.reshape(-1).view(np.uint8))  # C-order bytes, 0-d included
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (metadata, arrays by name). The file is read once, into one
    buffer, and the arrays are writable views of it: a caller that keeps an
    array past its own use of the rest copies it."""
    with open(path, "rb") as f:
        blob = bytearray(os.fstat(f.fileno()).st_size)
        f.readinto(blob)
    if blob[:4] != MAGIC:
        raise ValueError(f"{path} is not a checkpoint file (bad magic)")
    if len(blob) < 12:
        raise ValueError(f"{path} is truncated: {len(blob)} bytes, shorter than the header length field")
    (header_len,) = struct.unpack("<Q", blob[4:12])
    if len(blob) < 12 + header_len:
        raise ValueError(f"{path} is truncated: {len(blob)} bytes, shorter than its {header_len}-byte header")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    base = 12 + header_len
    arrays = {}
    for e in header["arrays"]:
        if base + e["offset"] + e["nbytes"] > len(blob):
            raise ValueError(f"{path} is truncated: array {e['name']!r} ends past the file's {len(blob)} bytes")
        arr = np.frombuffer(
            blob,
            dtype=np.dtype(e["dtype"]),
            count=int(np.prod(e["shape"], dtype=np.int64)) if e["shape"] else 1,
            offset=base + e["offset"],
        )
        arrays[e["name"]] = arr.reshape(e["shape"])
    return header["meta"], arrays
