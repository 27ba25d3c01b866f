import contextlib
import errno
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from eala.numerics import gaussian_matrix
from eala.tensorio import (MAGIC, VERSION, TensorFileError, TensorMagicError,
                           TensorRows, TensorRowWriter, TensorTruncationError,
                           TensorVersionError, read_tensor, write_tensor)


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
    """Each payload is moved once: no whole-payload copy beside the array,
    and finiteness is read off a sum, with no payload-sized mask."""

    SHAPE = (16384, 64)
    SLACK = 64 * 1024

    def test_read_holds_only_the_array(self, tmp_path):
        p = tmp_path / "big.bin"
        write_tensor(p, gaussian_matrix(*self.SHAPE, 4))
        count = self.SHAPE[0] * self.SHAPE[1]
        assert traced_peak(read_tensor, p) <= 8 * count + self.SLACK

    def test_contiguous_f64_write_allocates_nothing_payload_sized(self, tmp_path):
        m = gaussian_matrix(*self.SHAPE, 4)
        assert traced_peak(write_tensor, tmp_path / "big.bin", m) <= self.SLACK

    def test_row_read_holds_only_its_rows(self, tmp_path):
        p = tmp_path / "big.bin"
        write_tensor(p, gaussian_matrix(*self.SHAPE, 4))
        rows = 2048
        assert traced_peak(read_tensor, p, (100, 100 + rows)) <= 8 * rows * self.SHAPE[1] + self.SLACK


# finite entries whose sum overflows: the sum is only a first look
OVERFLOWING_SUMS = [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_read_rejects_each_non_finite_value(self, tmp_path, bad):
        header = MAGIC + struct.pack("<BBH", 1, 2, 2) + struct.pack("<2Q", 2, 2)
        p = tmp_path / "bad.bin"
        p.write_bytes(header + struct.pack("<4d", 1.0, 2.0, 3.0, bad))
        with pytest.raises(TensorFileError, match="bad.bin: payload contains non-finite values"):
            read_tensor(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_each_non_finite_value(self, tmp_path, bad):
        p = tmp_path / "x.bin"
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(p, np.array([[0.0, 1.0], [2.0, bad]]))
        assert not p.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values", OVERFLOWING_SUMS)
    def test_finite_payload_whose_sum_overflows_round_trips(self, tmp_path, values):
        m = np.array([values])
        _, back = roundtrip(tmp_path, m)
        assert np.array_equal(back, m)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f32_payload_whose_sum_overflows_round_trips(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        m = np.full((3, 2), big)
        _, back = roundtrip(tmp_path, m, dtype="f32")
        assert np.array_equal(back, m)

    def test_inf_beside_an_overflowing_sum_is_found(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(tmp_path / "x.bin", np.array([[1.7e308, 1.7e308, np.inf]]))


class TestRowRanges:
    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("lo, hi", [(0, 9), (0, 1), (3, 7), (8, 9), (4, 4), (9, 9)])
    def test_rows_are_the_slice_of_the_whole(self, tmp_path, dtype, lo, hi):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 31), dtype=dtype)
        part = read_tensor(p, rows=(lo, hi))
        assert part.dtype == np.float64 and part.flags.c_contiguous
        assert part.shape == (hi - lo, 5)
        assert np.array_equal(part, whole[lo:hi])

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (0, 10), (5, 4)])
    def test_rejects_rows_outside_the_file(self, tmp_path, lo, hi):
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 32))
        with pytest.raises(ValueError, match="t.bin: rows"):
            read_tensor(p, rows=(lo, hi))

    def test_header_is_checked_on_every_row_read(self, tmp_path):
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 33))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(TensorTruncationError):
            read_tensor(p, rows=(0, 1))

    def test_finiteness_is_checked_on_the_rows_read(self, tmp_path):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 34))
        raw = bytearray(p.read_bytes())
        raw[-8:] = struct.pack("<d", np.nan)
        p.write_bytes(bytes(raw))
        assert np.array_equal(read_tensor(p, rows=(0, 8)), whole[:8])
        with pytest.raises(TensorFileError, match="non-finite"):
            read_tensor(p, rows=(8, 9))


class TestTensorRows:
    def test_shape_and_blocks(self, tmp_path):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 40), dtype="f32")
        rows = TensorRows(p)
        assert rows.shape == (9, 5)
        assert np.array_equal(rows[2:6], whole[2:6])
        assert np.array_equal(rows[0:9], whole)
        assert rows[7:30].shape == (2, 5)  # clamped, as a numpy slice is

    def test_reader_checks_the_header_up_front(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TensorMagicError):
            TensorRows(p)

    @pytest.mark.parametrize("shape", [(5, 9), (10, 5), (8, 5)])
    def test_rewrite_between_block_reads_is_refused(self, tmp_path, shape):
        # another shape of the same size, and two other sizes
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 41))
        rows = TensorRows(p)
        rows[0:4]
        write_tensor(p, gaussian_matrix(*shape, 42))
        with pytest.raises(TensorFileError, match="t.bin: changed between block reads"):
            rows[4:9]

    def test_replaced_file_is_refused(self, tmp_path):
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 43))
        rows = TensorRows(p)
        rows[0:4]
        other = tmp_path / "other.bin"
        write_tensor(other, gaussian_matrix(9, 5, 44))
        os.replace(other, p)
        with pytest.raises(TensorFileError, match="changed between block reads"):
            rows[4:9]

    def test_strided_slices_are_refused(self, tmp_path):
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 45))
        with pytest.raises(ValueError, match="contiguous"):
            TensorRows(p)[0:9:2]


class TestRowWrites:
    """write_tensor(rows=) overwrites rows of an existing file, the mirror
    of read_tensor(rows=), and refuses any block the file cannot take."""

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("lo, hi", [(0, 9), (0, 1), (3, 7), (8, 9), (4, 4)])
    def test_rows_land_in_their_slice(self, tmp_path, dtype, lo, hi):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 50), dtype=dtype)
        size = p.stat().st_size
        block = gaussian_matrix(9, 5, 51)[lo:hi]
        write_tensor(p, block, rows=(lo, hi))  # stored in the file's width
        want = whole.copy()
        want[lo:hi] = block.astype(dtype.replace("f", "float"))
        assert np.array_equal(read_tensor(p), want) and p.stat().st_size == size

    @pytest.mark.parametrize("lo, hi, height", [(-1, 2, 3), (8, 10, 2), (5, 4, 0), (0, 2, 3)])
    def test_rejects_a_range_outside_the_file_or_of_another_height(self, tmp_path, lo, hi,
                                                                    height):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 52))
        with pytest.raises(ValueError, match="t.bin: rows"):
            write_tensor(p, np.ones((height, 5)), rows=(lo, hi))
        assert np.array_equal(read_tensor(p), whole)

    def test_rejects_a_column_mismatch(self, tmp_path):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 53))
        with pytest.raises(ValueError, match="t.bin: has 5 columns"):
            write_tensor(p, np.ones((2, 4)), rows=(0, 2))
        assert np.array_equal(read_tensor(p), whole)

    def test_an_f32_file_refuses_values_beyond_float32(self, tmp_path):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 54), dtype="f32")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(ValueError, match="float32"):
                write_tensor(p, np.full((2, 5), 1e39), rows=(0, 2))
        assert np.array_equal(read_tensor(p), whole)

    @pytest.mark.parametrize("cut", [6, 20, 8])
    def test_rejects_a_short_header_or_payload(self, tmp_path, cut):
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 55))
        p.write_bytes(p.read_bytes()[:cut] if cut != 8 else p.read_bytes()[:-8])
        with pytest.raises(TensorTruncationError, match="t.bin"):
            write_tensor(p, np.ones((1, 5)), rows=(0, 1))

    def test_rejects_a_changed_header(self, tmp_path):
        # the same payload size read as 5 x 9: the columns no longer match
        p, _ = roundtrip(tmp_path, gaussian_matrix(9, 5, 56))
        raw = bytearray(p.read_bytes())
        raw[8:24] = struct.pack("<2Q", 5, 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="t.bin: has 9 columns"):
            write_tensor(p, np.ones((1, 5)), rows=(0, 1))
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorMagicError, match="t.bin"):
            write_tensor(p, np.ones((1, 9)), rows=(0, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_block_before_opening(self, tmp_path, bad):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 57))
        block = np.ones((2, 5))
        block[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(p, block, rows=(2, 4))
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(tmp_path / "missing.bin", block, rows=(2, 4))
        assert np.array_equal(read_tensor(p), whole)


class TestTensorRowWriter:
    def test_blocks_make_the_file_a_whole_write_makes(self, tmp_path):
        mat = gaussian_matrix(9, 5, 60)
        w = TensorRowWriter(tmp_path / "w.bin", (9, 5))
        assert w.shape == (9, 5)
        for lo, hi in ((4, 9), (0, 4)):
            w[lo:hi] = mat[lo:hi]
        write_tensor(tmp_path / "whole.bin", mat)
        assert (tmp_path / "w.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()

    def test_new_file_has_header_and_sized_payload(self, tmp_path):
        TensorRowWriter(tmp_path / "w.bin", (3, 2))
        assert np.array_equal(read_tensor(tmp_path / "w.bin"), np.zeros((3, 2)))
        TensorRowWriter(tmp_path / "e.bin", (0, 4))
        assert read_tensor(tmp_path / "e.bin").shape == (0, 4)

    def test_an_existing_file_is_not_replaced(self, tmp_path):
        p, whole = roundtrip(tmp_path, gaussian_matrix(9, 5, 61))
        with pytest.raises(FileExistsError):
            TensorRowWriter(p, (9, 5))
        assert np.array_equal(read_tensor(p), whole)

    def test_blocks_are_checked(self, tmp_path):
        w = TensorRowWriter(tmp_path / "w.bin", (4, 2))
        with pytest.raises(ValueError, match="non-finite"):
            w[0:1] = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="w.bin: rows 2:4"):
            w[2:6] = np.ones((4, 2))  # clamped to 2:4, as a numpy slice is
        with pytest.raises(ValueError, match="contiguous"):
            w[0:4:2] = np.ones((2, 2))


def write_both(tmp_path, mat, tag):
    """A whole write of mat and a row writer holding its first rows, the
    rest left as zeros; returns the two paths."""
    whole, rowwise = tmp_path / f"whole{tag}.bin", tmp_path / f"rows{tag}.bin"
    write_tensor(whole, mat)
    w = TensorRowWriter(rowwise, mat.shape)
    w[0:3] = mat[0:3]
    return whole, rowwise


class TestPreallocation:
    """Both writers allocate the blocks of the file they make before they
    write it: an overwrite or a rename over another file then leaves no
    delayed allocation to flush."""

    @pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="no posix_fallocate")
    def test_files_are_not_sparse(self, tmp_path):
        mat = gaussian_matrix(1024, 64, 62)
        for p in write_both(tmp_path, mat, ""):
            st = p.stat()
            assert st.st_size == 24 + 8 * mat.size
            assert st.st_blocks * 512 >= st.st_size, p.name

    def test_without_fallocate_the_bytes_are_the_same(self, tmp_path, monkeypatch):
        mat = gaussian_matrix(1024, 64, 63)
        allocated = write_both(tmp_path, mat, "a")
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
        truncated = write_both(tmp_path, mat, "t")
        for a, t in zip(allocated, truncated):
            assert a.read_bytes() == t.read_bytes()
        assert np.array_equal(read_tensor(truncated[0]), mat)

    def test_a_full_disk_removes_the_new_file(self, tmp_path, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        with pytest.raises(OSError) as info:
            TensorRowWriter(tmp_path / "w.bin", (9, 5))
        assert info.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

    def test_a_device_is_written_unallocated(self):
        write_tensor(os.devnull, gaussian_matrix(3, 2, 64))


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
