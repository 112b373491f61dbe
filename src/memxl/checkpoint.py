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
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        # tobytes() yields C-order bytes for any layout, including 0-d
        arr = _little_endian(np.asarray(arr))
        raw = arr.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str.replace("=", "<"),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"version": VERSION, "meta": meta, "arrays": entries}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for raw in blobs:
            f.write(raw)


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
