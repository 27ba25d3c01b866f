"""Binary tensor files: a tiny fixed little-endian container.

Layout, in order:

    4 bytes   magic "EALT"
    1 byte    format version, currently 1
    1 byte    dtype code: 1 = IEEE-754 binary32, 2 = IEEE-754 binary64
    2 bytes   rank, unsigned little-endian
    8 bytes   per dimension, unsigned little-endian
    payload   row-major little-endian scalars, product(dims) of them

Readers always hand back float64 matrices regardless of the stored width.
`read_tensor` reads a whole payload or a range of its rows; `TensorRows`
hands out row blocks of one file on demand, so a caller can stream a
payload larger than memory.  The writers mirror them: `write_tensor`
writes a whole file or overwrites a range of an existing file's rows, and
`TensorRowWriter` creates a file and takes its rows a block at a time.

Both writers preallocate the file they make, header and payload, with
`posix_fallocate` before writing any of it.  ext4's `auto_da_alloc`
starts a synchronous writeback of a file's delayed-allocation blocks
when it replaces another file by rename, or when a truncated file is
written again and closed; a file whose blocks are already allocated has
none to flush.  Where the filesystem lacks fallocate, glibc emulates it
by writing zeros; where `os` has no `posix_fallocate`, the file is sized
with `truncate`.  A full disk fails there, before any row is written.
"""

from __future__ import annotations

import math
import operator
import os
import stat
import struct

import numpy as np

MAGIC = b"EALT"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_NAME = {"f32": 1, "f64": 2}

# Entries per block of the finiteness scan, which runs only when a sum is
# not finite: its boolean mask stays this small whatever the payload size.
_SCAN_ENTRIES = 1 << 17


class TensorFileError(Exception):
    """Malformed tensor file (unknown dtype code, bad rank, bad values)."""


class TensorMagicError(TensorFileError):
    """Leading bytes are not the expected magic."""


class TensorVersionError(TensorFileError):
    """Recognized container but an unsupported version byte."""


class TensorTruncationError(TensorFileError):
    """File ends before the declared header or payload does."""


def _all_finite(m: np.ndarray) -> bool:
    """Whether every entry of the 2-D m is finite, with no m-sized mask.

    NaN or inf in m always reaches its sum, so only a sum that is not finite
    (NaN or inf present, or finite entries that overflow when added) pays
    for a scan, a block of rows at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(m.sum()):
            return True
    step = max(1, _SCAN_ENTRIES // max(1, m.shape[1]))
    return all(np.isfinite(m[lo:lo + step]).all() for lo in range(0, m.shape[0], step))


def _header(code: int, shape: tuple[int, int]) -> bytes:
    return MAGIC + struct.pack("<BBH2Q", VERSION, code, 2, *shape)


def _allocate(fh, size: int) -> None:
    """Size the regular file open as `fh` to `size` bytes, blocks allocated.

    A pipe or device is left alone: it has no blocks.  Errors such as
    ENOSPC propagate.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return
    if hasattr(os, "posix_fallocate"):
        os.posix_fallocate(fh.fileno(), 0, size)
    else:
        fh.truncate(size)


def write_tensor(path, mat, dtype: str = "f64", rows=None) -> None:
    """Write a 2-D float matrix; dtype is "f32" or "f64".

    The payload goes from the array's own buffer to the file: a C-contiguous
    float64 matrix written as f64 is not copied.  NaN or inf raises
    ValueError before the file is opened, and so do values that are finite
    in float64 but beyond the float32 range for "f32".  A whole write
    preallocates the file before writing it, as the module docstring says.

    `rows`, a pair (lo, hi), writes `mat` over rows lo:hi of the existing
    file at `path` instead, the mirror of read_tensor(rows=): its header is
    validated against its size as a read's is, the values are stored in
    the width that header declares (`dtype` is not read), and the file
    must have mat's columns and hold rows lo:hi with hi - lo mat's rows,
    or ValueError naming the file is raised.  Only those rows' bytes change.
    """
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f'dtype must be "f32" or "f64", got {dtype!r}')
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("write_tensor expects a 2-D matrix")
    if not _all_finite(m):
        raise ValueError("refusing to write non-finite values")
    if rows is None:
        code = _CODE_FOR_NAME[dtype]
        payload = _payload(m, _DTYPE_CODES[code])
        header = _header(code, m.shape)
        with open(path, "wb") as fh:
            _allocate(fh, len(header) + payload.nbytes)
            fh.write(header)
            fh.write(payload)
        return
    lo, hi = map(operator.index, rows)
    with open(path, "r+b") as fh:
        (n, c), dt, _ = _read_header(fh, path)
        if c != m.shape[1]:
            raise ValueError(f"{path}: has {c} columns, the rows to write {m.shape[1]}")
        if not (0 <= lo <= hi <= n and hi - lo == m.shape[0]):
            raise ValueError(f"{path}: rows {lo}:{hi} of its {n} rows cannot take "
                             f"{m.shape[0]} rows")
        payload = _payload(m, dt)
        fh.seek(lo * c * dt.itemsize, os.SEEK_CUR)
        fh.write(payload)


def _payload(m: np.ndarray, dt: np.dtype) -> np.ndarray:
    """The finite float64 m as contiguous scalars of dt; a value beyond
    the float32 range raises ValueError when dt is 4 bytes wide."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(m, dtype=dt)
    if dt.itemsize == 4 and not _all_finite(payload):
        raise ValueError("refusing to write f32: a value beyond "
                         f"±{np.finfo(np.float32).max:.8g} overflows float32")
    return payload


def _read_header(fh, path) -> tuple[tuple[int, int], np.dtype, os.stat_result]:
    """Validate the header of the open file `fh` against the file's size.

    Returns the dims, the stored dtype and the file's stat, with `fh` at the
    first payload byte.  Only regular files are read: a pipe's size is
    unknown until it is drained.
    """
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise TensorFileError(f"{path}: not a regular file")
    head = fh.read(8)
    if len(head) < 4:
        raise TensorTruncationError(f"{path}: only {len(head)} bytes, no room for magic")
    if head[:4] != MAGIC:
        raise TensorMagicError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < 8:
        raise TensorTruncationError(f"{path}: header cut short at {len(head)} bytes")
    version, code, rank = struct.unpack("<BBH", head[4:8])
    if version != VERSION:
        raise TensorVersionError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise TensorFileError(f"{path}: unknown dtype code {code}")
    raw_dims = fh.read(8 * rank)
    if len(raw_dims) < 8 * rank:
        raise TensorTruncationError(f"{path}: dimension list cut short")
    dims = struct.unpack(f"<{rank}Q", raw_dims)
    if rank != 2:
        raise TensorFileError(f"{path}: expected rank 2, got {rank}")
    dt = _DTYPE_CODES[code]
    nbytes = math.prod(dims) * dt.itemsize  # exact: a uint64 product would wrap
    available = st.st_size - 8 - 8 * rank
    if available < nbytes:
        raise TensorTruncationError(
            f"{path}: payload has {available} bytes, expected {nbytes}")
    if available > nbytes:
        raise TensorFileError(f"{path}: {available - nbytes} trailing bytes")
    return dims, dt, st


def read_tensor(path, rows=None) -> np.ndarray:
    """Read a tensor file back as a float64 matrix, validating the layout.

    `rows`, a pair (lo, hi) with 0 <= lo <= hi <= n, reads only those rows
    of the n stored; None reads them all.  The header is checked against
    the file's size before anything payload-sized is allocated, and the
    rows are read straight into the array that is returned (float32
    payloads are then widened).  NaN or inf among them raises
    TensorFileError.
    """
    with open(path, "rb") as fh:
        (n, c), dt, _ = _read_header(fh, path)
        lo, hi = (0, n) if rows is None else map(operator.index, rows)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"{path}: rows {lo}:{hi} are not a range of its {n} rows")
        fh.seek(lo * c * dt.itemsize, os.SEEK_CUR)
        nbytes = (hi - lo) * c * dt.itemsize
        data = np.empty((hi - lo, c), dtype=dt)
        view = memoryview(data.reshape(-1).view(np.uint8))
        got = 0
        while got < nbytes:
            n_read = fh.readinto(view[got:])
            if not n_read:
                raise TensorTruncationError(
                    f"{path}: payload has {got} bytes, expected {nbytes}")
            got += n_read
    m = data.astype(np.float64, copy=False)
    if not _all_finite(m):
        raise TensorFileError(f"{path}: payload contains non-finite values")
    return m


def _stamp(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class TensorRows:
    """Row blocks of one tensor file, each read on demand.

    `shape` comes from the header; `rows[lo:hi]` reads those rows through
    `read_tensor` as a float64 array, so nothing beyond the block is held.
    The file is read as the snapshot it was when the reader was made: if
    its shape, size, inode or modification time has changed at a later
    read, that read raises TensorFileError naming the file.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.shape, _, st = _read_header(fh, path)
        self._stamp = _stamp(st)

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("TensorRows reads contiguous row ranges only")
        self._check_unchanged()
        block = read_tensor(self.path, rows=(lo, max(lo, hi)))
        self._check_unchanged()  # a rewrite during the read
        if block.shape[1] != self.shape[1]:
            raise TensorFileError(f"{self.path}: changed between block reads")
        return block

    def _check_unchanged(self) -> None:
        if _stamp(os.stat(self.path)) != self._stamp:
            raise TensorFileError(f"{self.path}: changed between block reads")


class TensorRowWriter:
    """A new f64 tensor file whose rows are written a block at a time.

    Making the writer creates the file at `path`, which must not exist yet,
    with the header of a (rows, cols) float64 matrix and a preallocated
    payload of that size (its rows read as zeros until written); if the
    file cannot be made that size, it is removed and the error raised.
    `w[lo:hi] = block` writes those rows through
    `write_tensor(path, block, rows=(lo, hi))`, so each block is checked as
    a whole write is, and the header is validated again.  Nothing beyond
    the block is held.
    """

    def __init__(self, path, shape):
        rows, cols = map(operator.index, shape)
        self.path, self.shape = path, (rows, cols)
        code = _CODE_FOR_NAME["f64"]
        header = _header(code, self.shape)
        with open(path, "xb") as fh:
            try:
                _allocate(fh, len(header) + rows * cols * _DTYPE_CODES[code].itemsize)
                fh.write(header)
            except BaseException:
                os.remove(path)
                raise

    def __setitem__(self, rows: slice, block) -> None:
        lo, hi, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("TensorRowWriter writes contiguous row ranges only")
        write_tensor(self.path, block, rows=(lo, max(lo, hi)))
