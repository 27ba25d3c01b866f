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
    """Write a 2-D float matrix; dtype is "f32" or "f64"."""
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f'dtype must be "f32" or "f64", got {dtype!r}')
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("write_tensor expects a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("refusing to write non-finite values")
    code = _CODE_FOR_NAME[dtype]
    header = MAGIC + struct.pack("<BBH", VERSION, code, m.ndim)
    dims = struct.pack(f"<{m.ndim}Q", *m.shape)
    payload = np.ascontiguousarray(m, dtype=_DTYPE_CODES[code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + dims + payload)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float64 matrix, validating the layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise TensorTruncationError(f"{path}: only {len(raw)} bytes, no room for magic")
    if raw[:4] != MAGIC:
        raise TensorMagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise TensorTruncationError(f"{path}: header cut short at {len(raw)} bytes")
    version, code, rank = struct.unpack("<BBH", raw[4:8])
    if version != VERSION:
        raise TensorVersionError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise TensorFileError(f"{path}: unknown dtype code {code}")
    dims_end = 8 + 8 * rank
    if len(raw) < dims_end:
        raise TensorTruncationError(f"{path}: dimension list cut short")
    dims = struct.unpack(f"<{rank}Q", raw[8:dims_end])
    if rank != 2:
        raise TensorFileError(f"{path}: expected rank 2, got {rank}")
    dt = _DTYPE_CODES[code]
    count = math.prod(dims)  # exact: a uint64 product would wrap
    expected = dims_end + count * dt.itemsize
    if len(raw) < expected:
        raise TensorTruncationError(
            f"{path}: payload has {len(raw) - dims_end} bytes, expected {count * dt.itemsize}"
        )
    if len(raw) > expected:
        raise TensorFileError(f"{path}: {len(raw) - expected} trailing bytes")
    data = np.frombuffer(raw, dtype=dt, count=count, offset=dims_end)
    m = data.astype(np.float64).reshape(dims)
    if not np.all(np.isfinite(m)):
        raise TensorFileError(f"{path}: payload contains non-finite values")
    return m
