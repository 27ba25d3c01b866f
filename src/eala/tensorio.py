"""Binary tensor files: a tiny fixed little-endian container.

Layout, in order:

    4 bytes   magic "EALT"
    1 byte    format version, currently 1
    1 byte    dtype code: 1 = IEEE-754 binary32, 2 = IEEE-754 binary64
    2 bytes   rank, unsigned little-endian
    8 bytes   per dimension, unsigned little-endian
    payload   row-major little-endian scalars, product(dims) of them

Readers always hand back float64 matrices regardless of the stored width.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

MAGIC = b"EALT"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_NAME = {"f32": 1, "f64": 2}


class TensorFileError(Exception):
    """Malformed tensor file (unknown dtype code, bad rank, bad values)."""


class TensorMagicError(TensorFileError):
    """Leading bytes are not the expected magic."""


class TensorVersionError(TensorFileError):
    """Recognized container but an unsupported version byte."""


class TensorTruncationError(TensorFileError):
    """File ends before the declared header or payload does."""


def write_tensor(path, mat, dtype: str = "f64") -> None:
    """Write a 2-D float matrix; dtype is "f32" or "f64".

    The payload goes from the array's own buffer to the file: a C-contiguous
    float64 matrix written as f64 is not copied.  Values that are finite in
    float64 but beyond the float32 range raise ValueError for "f32", before
    the file is opened.
    """
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f'dtype must be "f32" or "f64", got {dtype!r}')
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("write_tensor expects a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("refusing to write non-finite values")
    code = _CODE_FOR_NAME[dtype]
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(m, dtype=_DTYPE_CODES[code])
    if dtype == "f32" and not np.all(np.isfinite(payload)):
        raise ValueError("refusing to write f32: a value beyond "
                         f"±{np.finfo(np.float32).max:.8g} overflows float32")
    header = MAGIC + struct.pack("<BBH", VERSION, code, m.ndim)
    dims = struct.pack(f"<{m.ndim}Q", *m.shape)
    with open(path, "wb") as fh:
        fh.write(header + dims)
        fh.write(payload)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float64 matrix, validating the layout.

    The header is checked against the file's size before anything
    payload-sized is allocated, and the payload is read straight into the
    array that is returned (float32 payloads are then widened).  Only
    regular files are read: a pipe's size is unknown until it is drained.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise TensorFileError(f"{path}: not a regular file")
        size = st.st_size
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
        count = math.prod(dims)  # exact: a uint64 product would wrap
        nbytes = count * dt.itemsize
        available = size - 8 - 8 * rank
        if available < nbytes:
            raise TensorTruncationError(
                f"{path}: payload has {available} bytes, expected {nbytes}")
        if available > nbytes:
            raise TensorFileError(f"{path}: {available - nbytes} trailing bytes")
        data = np.empty(count, dtype=dt)
        view = memoryview(data.view(np.uint8))
        got = 0
        while got < nbytes:
            n = fh.readinto(view[got:])
            if not n:
                raise TensorTruncationError(
                    f"{path}: payload has {got} bytes, expected {nbytes}")
            got += n
    if not np.all(np.isfinite(data)):
        raise TensorFileError(f"{path}: payload contains non-finite values")
    return data.astype(np.float64, copy=False).reshape(dims)
