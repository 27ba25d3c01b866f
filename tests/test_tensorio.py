import contextlib
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from eala.numerics import gaussian_matrix
from eala.tensorio import (MAGIC, VERSION, TensorFileError, TensorMagicError,
                           TensorTruncationError, TensorVersionError,
                           read_tensor, write_tensor)


def roundtrip(tmp_path, mat, dtype="f64"):
    p = tmp_path / "t.bin"
    write_tensor(p, mat, dtype=dtype)
    return p, read_tensor(p)


class TestRoundtrip:
    def test_f64_bitwise(self, tmp_path):
        m = gaussian_matrix(7, 5, 42)
        _, back = roundtrip(tmp_path, m)
        np.testing.assert_array_equal(back, m)
        assert back.dtype == np.float64

    def test_f32_narrows_then_widens(self, tmp_path):
        m = gaussian_matrix(4, 3, 7)
        _, back = roundtrip(tmp_path, m, dtype="f32")
        np.testing.assert_array_equal(back, m.astype(np.float32).astype(np.float64))
        assert back.dtype == np.float64

    def test_single_element(self, tmp_path):
        _, back = roundtrip(tmp_path, np.array([[3.25]]))
        assert back.shape == (1, 1) and back[0, 0] == 3.25

    def test_tall_and_wide(self, tmp_path):
        for shape in ((100, 1), (1, 100)):
            m = gaussian_matrix(*shape, 11)
            _, back = roundtrip(tmp_path, m)
            assert back.shape == shape
            np.testing.assert_array_equal(back, m)

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size(self, tmp_path, shape, dtype):
        p, back = roundtrip(tmp_path, np.zeros(shape), dtype=dtype)
        assert back.shape == shape and back.dtype == np.float64
        assert p.stat().st_size == 24

    @pytest.mark.parametrize("dtype, width", [("f64", np.float64), ("f32", np.float32)])
    def test_fortran_ordered(self, tmp_path, dtype, width):
        m = np.asfortranarray(gaussian_matrix(9, 4, 21))
        _, back = roundtrip(tmp_path, m, dtype=dtype)
        np.testing.assert_array_equal(back, m.astype(width).astype(np.float64))
        assert back.flags.c_contiguous

    def test_float32_extremes_round_trip(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        _, back = roundtrip(tmp_path, np.array([[big, -big]]), dtype="f32")
        np.testing.assert_array_equal(back, [[big, -big]])


class TestEncoding:
    def test_2x2_f64_is_56_bytes(self, tmp_path):
        p, _ = roundtrip(tmp_path, np.eye(2))
        assert p.stat().st_size == 4 + 1 + 1 + 2 + 2 * 8 + 4 * 8 == 56

    def test_header_layout(self, tmp_path):
        p, _ = roundtrip(tmp_path, np.array([[1.0, 2.0, 3.0]]))
        raw = p.read_bytes()
        assert raw[:4] == MAGIC == b"EALT"
        version, code, rank = struct.unpack("<BBH", raw[4:8])
        assert version == VERSION == 1 and code == 2 and rank == 2
        assert struct.unpack("<2Q", raw[8:24]) == (1, 3)
        np.testing.assert_array_equal(
            np.frombuffer(raw[24:], dtype="<f8"), [1.0, 2.0, 3.0])

    def test_row_major_payload(self, tmp_path):
        p, _ = roundtrip(tmp_path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(
            np.frombuffer(p.read_bytes()[24:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0])

    def test_f32_code_and_width(self, tmp_path):
        p, _ = roundtrip(tmp_path, np.eye(2), dtype="f32")
        raw = p.read_bytes()
        assert raw[5] == 1 and len(raw) == 24 + 4 * 4

    def test_noncontiguous_input_ok(self, tmp_path):
        m = gaussian_matrix(6, 6, 3)[::2, ::2]
        _, back = roundtrip(tmp_path, m)
        np.testing.assert_array_equal(back, m)

    @pytest.mark.parametrize("dtype, code, width", [("f64", 2, "<f8"), ("f32", 1, "<f4")])
    def test_bytes_are_header_then_row_major_payload(self, tmp_path, dtype, code, width):
        m = np.asfortranarray(gaussian_matrix(5, 3, 8))
        p, _ = roundtrip(tmp_path, m, dtype=dtype)
        want = (MAGIC + struct.pack("<BBH2Q", 1, code, 2, 5, 3)
                + np.ascontiguousarray(m, dtype=width).tobytes())
        assert p.read_bytes() == want


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Each payload is moved once: no whole-payload copy beside the array."""

    SHAPE = (16384, 64)
    SLACK = 64 * 1024

    def test_read_holds_the_array_and_a_finiteness_mask(self, tmp_path):
        p = tmp_path / "big.bin"
        write_tensor(p, gaussian_matrix(*self.SHAPE, 4))
        count = self.SHAPE[0] * self.SHAPE[1]
        assert traced_peak(read_tensor, p) <= 8 * count + count + self.SLACK

    def test_contiguous_f64_write_holds_a_finiteness_mask(self, tmp_path):
        m = gaussian_matrix(*self.SHAPE, 4)
        assert traced_peak(write_tensor, tmp_path / "big.bin", m) <= m.size + self.SLACK


class TestWriteValidation:
    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.bin", np.zeros(3))
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.bin", np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.bin", np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.bin", np.array([[np.inf, 0.0]]))

    def test_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.bin", np.eye(2), dtype="f16")

    @pytest.mark.parametrize("value", [1e300, -1e39])
    def test_rejects_float32_overflow_before_creating_the_file(self, tmp_path, value):
        p = tmp_path / "x.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(ValueError, match="float32"):
                write_tensor(p, np.array([[0.0, value]]), dtype="f32")
        assert not p.exists()


class TestReadValidation:
    def write_raw(self, tmp_path, data):
        p = tmp_path / "bad.bin"
        p.write_bytes(data)
        return p

    def good_bytes(self, tmp_path):
        p = tmp_path / "good.bin"
        write_tensor(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
        return p.read_bytes()

    def test_bad_magic(self, tmp_path):
        raw = self.good_bytes(tmp_path)
        p = self.write_raw(tmp_path, b"NOPE" + raw[4:])
        with pytest.raises(TensorMagicError):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        raw = bytearray(self.good_bytes(tmp_path))
        raw[4] = 99
        with pytest.raises(TensorVersionError):
            read_tensor(self.write_raw(tmp_path, bytes(raw)))

    def test_unknown_dtype_code(self, tmp_path):
        raw = bytearray(self.good_bytes(tmp_path))
        raw[5] = 7
        with pytest.raises(TensorFileError):
            read_tensor(self.write_raw(tmp_path, bytes(raw)))

    def test_truncated_magic(self, tmp_path):
        with pytest.raises(TensorTruncationError):
            read_tensor(self.write_raw(tmp_path, b"EA"))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(TensorTruncationError):
            read_tensor(self.write_raw(tmp_path, b"EALT\x01"))

    def test_truncated_dims(self, tmp_path):
        raw = self.good_bytes(tmp_path)
        with pytest.raises(TensorTruncationError):
            read_tensor(self.write_raw(tmp_path, raw[:12]))

    def test_truncated_payload(self, tmp_path):
        raw = self.good_bytes(tmp_path)
        with pytest.raises(TensorTruncationError):
            read_tensor(self.write_raw(tmp_path, raw[:-8]))

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**62, 8)])
    def test_declared_size_beyond_uint64_is_truncation(self, tmp_path, dims):
        # the element count wraps to zero in 64-bit arithmetic
        header = MAGIC + struct.pack("<BBH", 1, 2, 2) + struct.pack("<2Q", *dims)
        with pytest.raises(TensorTruncationError, match="bad.bin"):
            read_tensor(self.write_raw(tmp_path, header))

    def test_oversized_header_allocates_nothing_payload_sized(self, tmp_path):
        # 8 GiB declared: an allocation would succeed lazily, so trace it
        header = MAGIC + struct.pack("<BBH", 1, 2, 2) + struct.pack("<2Q", 2**20, 2**10)
        p = self.write_raw(tmp_path, header + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(TensorTruncationError, match="bad.bin"):
                read_tensor(p)
            assert tracemalloc.get_traced_memory()[1] < 1024 * 1024
        finally:
            tracemalloc.stop()

    def test_trailing_bytes(self, tmp_path):
        raw = self.good_bytes(tmp_path)
        with pytest.raises(TensorFileError):
            read_tensor(self.write_raw(tmp_path, raw + b"\x00"))

    def test_wrong_rank(self, tmp_path):
        header = MAGIC + struct.pack("<BBH", 1, 2, 1) + struct.pack("<Q", 2)
        payload = struct.pack("<2d", 1.0, 2.0)
        with pytest.raises(TensorFileError):
            read_tensor(self.write_raw(tmp_path, header + payload))

    def test_non_finite_payload(self, tmp_path):
        header = MAGIC + struct.pack("<BBH", 1, 2, 2) + struct.pack("<2Q", 1, 2)
        payload = struct.pack("<2d", np.nan, 1.0)
        with pytest.raises(TensorFileError):
            read_tensor(self.write_raw(tmp_path, header + payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(tmp_path / "absent.bin")

    def test_fifo_is_refused_by_name(self, tmp_path):
        # a pipe has no size to check the header against before allocating
        p = tmp_path / "pipe.bin"
        os.mkfifo(p)
        good = self.good_bytes(tmp_path)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(p, "wb") as fh:
                fh.write(good)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        with pytest.raises(TensorFileError, match="pipe.bin.*not a regular file"):
            read_tensor(p)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_error_hierarchy(self):
        assert issubclass(TensorMagicError, TensorFileError)
        assert issubclass(TensorVersionError, TensorFileError)
        assert issubclass(TensorTruncationError, TensorFileError)
