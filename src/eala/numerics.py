"""A reference softmax and a deterministic counter-based random stream.

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


def softmax_row(x) -> np.ndarray:
    """Softmax of a nonempty 1-D array of finite scores.

    Output entries are strictly positive and sum to 1 up to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("softmax_row expects a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax_row requires finite scores")
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def prng_next(state: int) -> tuple[int, int]:
    """One step of the splitmix64 stream.

    Returns (output, new_state), both 64-bit unsigned.  The update is a
    fixed odd increment followed by a two-round multiply-xorshift finalizer.
    """
    state = (state + _GAMMA) & U64_MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & U64_MASK
    z = z ^ (z >> 31)
    return z, state


def prng_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the seeded stream as a uint64 array.

    The k-th output depends only on (seed, k), so the whole block is
    produced at once from a counter; the result matches `count` repeated
    calls to prng_next bit for bit.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    seed = np.uint64(seed & U64_MASK)
    ks = np.arange(1, count + 1, dtype=np.uint64)
    # uint64 arithmetic wraps silently, which is exactly the mask we want
    s = seed + ks * np.uint64(_GAMMA)
    z = (s ^ (s >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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
    bits = prng_stream(seed, 2 * n)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return (scale * z).reshape(rows, cols)
