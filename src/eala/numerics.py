"""A deterministic counter-based random stream and gaussians drawn from it.

Everything in this module is pure: the same inputs produce bit-identical
outputs on every call, on every platform that implements IEEE-754 doubles.
The determinism guarantees of the report formats downstream rest on that.
"""

from __future__ import annotations

import numpy as np

U64_MASK = 0xFFFFFFFFFFFFFFFF

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53, multiplied into the top 53 bits of a 64-bit word to get a double.
_INV_2_53 = 1.0 / 9007199254740992.0

# Entries per block of gaussian_matrix: its scratch (two uint64 and two
# float64 buffers, plus the counter steps) then stays within a core's L2.
_GAUSSIAN_BLOCK = 8192


def prng_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the seeded splitmix64 stream as a uint64 array.

    The k-th output depends only on (seed, k), so the whole block is
    produced at once from a counter, with the bits of stepping the
    generator `count` times.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    seed = np.uint64(seed & U64_MASK)
    ks = np.arange(1, count + 1, dtype=np.uint64)
    # uint64 arithmetic wraps silently, which is exactly the mask we want
    s = seed + ks * np.uint64(_GAMMA)
    _splitmix_finalize(s, np.empty_like(s))
    return s


def _splitmix_finalize(words: np.ndarray, shifted: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on uint64 counters `words`;
    `shifted` is scratch of the same length."""
    np.right_shift(words, np.uint64(30), out=shifted)
    np.bitwise_xor(words, shifted, out=words)
    np.multiply(words, np.uint64(_MIX1), out=words)
    np.right_shift(words, np.uint64(27), out=shifted)
    np.bitwise_xor(words, shifted, out=words)
    np.multiply(words, np.uint64(_MIX2), out=words)
    np.right_shift(words, np.uint64(31), out=shifted)
    np.bitwise_xor(words, shifted, out=words)


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each stream output."""
    bits = prng_stream(seed, count)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def gaussian_matrix(rows: int, cols: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic rows x cols matrix of N(0, scale^2) draws.

    Each entry consumes exactly two consecutive stream outputs, in
    row-major order, through a Box-Muller transform:

        u1 in (0, 1]   from the first word  (shifted so log(u1) is finite)
        u2 in [0, 1)   from the second word
        entry = scale * sqrt(-2 ln u1) * cos(2 pi u2)

    Fixing the draws-per-entry count keeps the layout independent of
    vectorization, so entry (i, j) is a pure function of (seed, i, j).
    """
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix needs rows >= 1 and cols >= 1")
    if not (np.isfinite(scale) and scale >= 0.0):
        raise ValueError("scale must be finite and nonnegative")
    n = rows * cols
    seed = int(seed) & U64_MASK
    out = np.empty(n, dtype=np.float64)
    size = min(n, _GAUSSIAN_BLOCK)
    # Entry e takes words 2e+1 and 2e+2, so within a block each word's
    # counter steps by twice the stream increment.
    steps = np.arange(size, dtype=np.uint64) * np.uint64((2 * _GAMMA) & U64_MASK)
    words = np.empty(size, dtype=np.uint64)
    shifted = np.empty(size, dtype=np.uint64)
    radius_buf = np.empty(size, dtype=np.float64)
    angle_buf = np.empty(size, dtype=np.float64)
    for start in range(0, n, _GAUSSIAN_BLOCK):
        b = min(_GAUSSIAN_BLOCK, n - start)
        w, radius, angle = words[:b], radius_buf[:b], angle_buf[:b]
        first = (seed + (2 * start + 1) * _GAMMA) & U64_MASK
        for counter, top in ((first, radius), ((first + _GAMMA) & U64_MASK, angle)):
            np.add(steps[:b], np.uint64(counter), out=w)
            _splitmix_finalize(w, shifted[:b])
            np.right_shift(w, np.uint64(11), out=w)
            np.copyto(top, w, casting="unsafe")  # top 53 bits, exact in a double
        np.add(radius, 1.0, out=radius)
        np.multiply(radius, _INV_2_53, out=radius)
        np.log(radius, out=radius)
        np.multiply(radius, -2.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(angle, _INV_2_53, out=angle)
        np.multiply(angle, 2.0 * np.pi, out=angle)
        np.cos(angle, out=angle)
        np.multiply(radius, angle, out=radius)
        np.multiply(radius, scale, out=out[start:start + b])
    return out.reshape(rows, cols)

