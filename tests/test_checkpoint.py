import tracemalloc

import numpy as np
import pytest

from memxl.checkpoint import MAGIC, load_checkpoint, save_checkpoint


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
        """Inside the length field, just after it, inside the header, at the
        header's last byte, in the first array or the last."""
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"a": 1}, {"x": np.ones(10), "y": np.arange(3)})
        blob = path.read_bytes()
        header_end = 12 + int.from_bytes(blob[4:12], "little")
        for size in (8, 12, 20, header_end - 1, len(blob) - 100, len(blob) - 1):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)

    def test_magic_is_stable(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, {}, {})
        assert path.read_bytes()[:4] == MAGIC


class TestMemory:
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
