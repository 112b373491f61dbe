import json
import os
import stat
import tracemalloc
import zlib

import numpy as np
import pytest

import memxl.checkpoint as checkpoint
from memxl.checkpoint import MAGIC, PREAMBLE, load_checkpoint, save_checkpoint


class TestRoundTrip:
    def test_arrays_and_meta_survive_bitwise(self, tmp_path, rng):
        path = tmp_path / "state.ckpt"
        arrays = {
            "weights": rng.standard_normal((3, 4)),
            "counts": np.arange(7, dtype=np.int64),
            "single": np.array(3.25, dtype=np.float32),
            "flags": np.array([True, False, True]),
            "empty": np.zeros((2, 0, 5)),
        }
        meta = {"step": 12, "nested": {"phase": "vanilla", "ppl": [1.5, 2.0]}, "note": None}
        save_checkpoint(path, meta, arrays)

        meta_back, arrays_back = load_checkpoint(path)
        assert meta_back == meta
        assert set(arrays_back) == set(arrays)
        for name, arr in arrays.items():
            got = arrays_back[name]
            assert got.dtype == arr.dtype, name
            assert got.shape == arr.shape, name
            assert got.tobytes() == arr.tobytes(), name

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {}, {"x": np.ones(3)})
        _, arrays = load_checkpoint(path)
        arrays["x"][0] = 5.0  # must not raise

    def test_noncontiguous_input_accepted(self, tmp_path, rng):
        path = tmp_path / "state.ckpt"
        base = rng.standard_normal((4, 6))
        view = base[:, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        save_checkpoint(path, {}, {"v": view})
        _, arrays = load_checkpoint(path)
        np.testing.assert_array_equal(arrays["v"], view)


class TestFormatGuards:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"a": 1}, {"x": np.ones(100)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_file_cut_anywhere_is_rejected(self, tmp_path):
        """Inside the magic (an empty file too), inside the length field, just
        after it, inside the header's CRC32, just after the preamble, inside
        the header, at the header's last byte, in the first array or the last."""
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"a": 1}, {"x": np.ones(10), "y": np.arange(3)})
        blob = path.read_bytes()
        header_end = 16 + int.from_bytes(blob[4:12], "little")
        for size in (0, 1, 2, 3, 8, 12, 14, 16, 20, header_end - 1, len(blob) - 100, len(blob) - 1):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, name",
        [
            ({"shape": [8]}, "a"),                    # the next array's bytes would fill it
            ({"shape": [8], "nbytes": 64}, "b"),      # then b no longer starts where a ends
            ({"nbytes": 16}, "a"),                    # fewer bytes than its shape
            ({"offset": 8}, "a"),                     # a gap before the first array
            ({"dtype": "<i4"}, "a"),                  # the same bytes as twice the entries
        ],
        ids=["shape", "shape_and_nbytes", "nbytes", "offset", "dtype"],
    )
    def test_entry_must_fill_its_place_exactly(self, tmp_path, edit, name):
        """Each array is exactly its shape's bytes, right after the one
        before it; a header that says otherwise names the entry."""
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {}, {"a": np.arange(4), "b": np.arange(10, 14)})
        blob = path.read_bytes()
        end = 16 + int.from_bytes(blob[4:12], "little")
        header = json.loads(blob[16:end])
        header["arrays"][0].update(edit)
        new = json.dumps(header).encode()
        path.write_bytes(PREAMBLE.pack(MAGIC, len(new), zlib.crc32(new)) + new + blob[end:])
        with pytest.raises(ValueError, match=f"array '{name}' claims"):
            load_checkpoint(path)

    def test_flipped_byte_in_any_array_is_refused_by_name(self, tmp_path, rng):
        """Each array's CRC32 is checked: a byte flipped at its start, middle
        or end is refused, with the array named."""
        path = tmp_path / "state.ckpt"
        arrays = {"weights": rng.standard_normal((3, 4)), "single": np.array(3.25, dtype=np.float32),
                  "flags": np.array([True, False, True]), "counts": np.arange(7, dtype=np.int64)}
        save_checkpoint(path, {}, arrays)
        blob = path.read_bytes()
        base = 16 + int.from_bytes(blob[4:12], "little")
        for e in json.loads(blob[16:base])["arrays"]:
            for at in (0, e["nbytes"] // 2, e["nbytes"] - 1):
                flipped = bytearray(blob)
                flipped[base + e["offset"] + at] ^= 0xFF
                path.write_bytes(flipped)
                with pytest.raises(ValueError, match=f"array '{e['name']}' is corrupt"):
                    load_checkpoint(path)

    def test_flipped_byte_in_the_header_or_its_preamble_is_refused(self, tmp_path):
        """The header's CRC32 sits in the preamble: a metadata digit changed,
        or any one byte of the length field, the CRC32 or the header flipped,
        is refused as a corrupt header or a truncated file, never loaded and
        never a JSON error."""
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {"step": 12}, {"x": np.arange(3)})
        blob = path.read_bytes()
        base = 16 + int.from_bytes(blob[4:12], "little")
        path.write_bytes(blob.replace(b'"step": 12', b'"step": 13'))
        with pytest.raises(ValueError, match=f"^{path}: the header is corrupt: its bytes' CRC32 is "):
            load_checkpoint(path)
        for at in range(4, base):
            flipped = bytearray(blob)
            flipped[at] ^= 0xFF
            path.write_bytes(flipped)
            with pytest.raises(ValueError, match="the header is corrupt|is truncated"):
                load_checkpoint(path)

    def test_magic_is_stable(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {}, {})
        assert path.read_bytes()[:4] == MAGIC


class TestAtomicWrite:
    @pytest.mark.parametrize("fail", ["write", "fsync", "replace"])
    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch, fail):
        """A save that raises partway, on its first array's write, in the
        fsync or in the rename, leaves the previous file byte-identical and
        loadable, and no temporary file beside it."""
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {"step": 1}, {"x": np.ones(5)})
        before = path.read_bytes()

        def injected(*args):
            raise OSError("injected failure")

        class CutAfterHeader:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:  # the preamble, the header, then the first array
                    injected()
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        if fail == "write":
            monkeypatch.setattr(checkpoint, "open", lambda *a: CutAfterHeader(open(*a)), raising=False)
        else:
            monkeypatch.setattr(os, fail, injected)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(path, {"step": 2}, {"x": np.zeros(5), "y": np.arange(3)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path)[0] == {"step": 1}
        assert os.listdir(tmp_path) == ["state.ckpt"]


class TestDurability:
    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_directory_is_fsynced_after_the_replace(self, tmp_path, monkeypatch, relative):
        """The temporary file's data is fsynced before the rename, and a
        descriptor of the checkpoint's directory after it, so the new entry
        survives a crash too."""
        events, fsync, replace = [], os.fsync, os.replace

        def record_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync", st.st_ino, stat.S_ISDIR(st.st_mode)))
            fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, False))
            replace(src, dst)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_checkpoint("state.ckpt" if relative else tmp_path / "state.ckpt", {}, {"x": np.ones(3)})
        monkeypatch.undo()
        file, directory = os.stat(tmp_path / "state.ckpt").st_ino, os.stat(tmp_path).st_ino  # a rename keeps the inode
        assert events == [("fsync", file, False), ("replace", file, False), ("fsync", directory, True)]
        assert load_checkpoint(tmp_path / "state.ckpt")[1]["x"].tolist() == [1.0, 1.0, 1.0]


class TestMemory:
    def test_save_copies_no_array(self, tmp_path, rng):
        """Each array is written from its own buffer: a save allocates a small
        fraction of the arrays' bytes, where a bytes copy of each made it all
        of them."""
        arrays = {f"a{i}": rng.standard_normal(20_000) for i in range(8)}
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "big.ckpt", {}, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * sum(a.nbytes for a in arrays.values())

    def test_load_holds_one_copy_of_the_file(self, tmp_path, rng):
        """The arrays are views of the one buffer the file is read into, so the
        peak of a load is about one file, where a copy per array made it two."""
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, {}, {f"a{i}": rng.standard_normal(20_000) for i in range(8)})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size <= peak < 1.1 * size
