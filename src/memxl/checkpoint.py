"""Self-describing binary checkpoint container.

Layout: 4-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the raw array bytes back to back. The header carries
arbitrary JSON metadata plus one entry per array (name, dtype, shape,
offset, size, CRC32). Round trips are bit-exact; a load checks every CRC32.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"MXCK"
VERSION = 3


def _little_endian(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.byteorder == ">":
        return arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and ``arrays`` to ``path`` atomically: into a temporary
    file beside it, fsynced, then renamed onto it, and the directory fsynced,
    so a write that fails leaves any earlier file at ``path`` as it was and no
    temporary file behind. Each array is written and checksummed from its own
    buffer (a copy only for one that is not C-contiguous and little-endian)."""
    arrays = {name: np.require(_little_endian(np.asarray(arr)), requirements="C") for name, arr in arrays.items()}
    entries, offset = [], 0
    for name, arr in arrays.items():
        entries.append({"name": name, "dtype": arr.dtype.str.replace("=", "<"), "shape": list(arr.shape),
                        "offset": offset, "nbytes": arr.nbytes, "crc32": zlib.crc32(arr)})
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
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (metadata, arrays by name). The file is read once, into one
    buffer, and the arrays are writable views of it: a caller that keeps an
    array past its own use of the rest copies it."""
    with open(path, "rb") as f:
        blob = bytearray(os.fstat(f.fileno()).st_size)
        f.readinto(blob)
    if blob[:4] != MAGIC[:len(blob)]:  # a file cut inside the magic is truncated, below
        raise ValueError(f"{path} is not a checkpoint file (bad magic)")
    if len(blob) < 12:
        raise ValueError(f"{path} is truncated: {len(blob)} bytes, shorter than the header length field")
    (header_len,) = struct.unpack("<Q", blob[4:12])
    if len(blob) < 12 + header_len:
        raise ValueError(f"{path} is truncated: {len(blob)} bytes, shorter than its {header_len}-byte header")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    if (version := header.get("version")) != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}; this memxl reads version {VERSION}")
    base, offset, arrays = 12 + header_len, 0, {}
    for e in header["arrays"]:  # written back to back, each exactly its shape's bytes
        dtype, count = np.dtype(e["dtype"]), int(np.prod(e["shape"], dtype=np.int64))
        if e["nbytes"] != dtype.itemsize * count or e["offset"] != offset:
            raise ValueError(f"{path}: array {e['name']!r} claims {e['nbytes']} bytes at offset {e['offset']}, but "
                             f"shape {e['shape']} of {dtype} is {dtype.itemsize * count} bytes at offset {offset}")
        if base + offset + e["nbytes"] > len(blob):
            raise ValueError(f"{path} is truncated: array {e['name']!r} ends past the file's {len(blob)} bytes")
        arrays[e["name"]] = np.frombuffer(blob, dtype, count, base + offset).reshape(e["shape"])
        offset += e["nbytes"]
    for e in header["arrays"]:  # every array fills its place; now its bytes
        if (crc := zlib.crc32(arrays[e["name"]])) != e["crc32"]:
            raise ValueError(f"{path}: array {e['name']!r} is corrupt: its bytes' CRC32 is {crc:08x}, "
                             f"the header's {e['crc32']:08x}")
    return header["meta"], arrays
