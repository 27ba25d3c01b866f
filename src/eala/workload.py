"""Synthetic attention workloads with a controlled score scale.

The entropy-approximation quality downstream is a function of the centered
score magnitude, so workloads are calibrated: after drawing Gaussian
Q, K, V, the queries are rescaled in one pass until the largest |q . khat|
hits the requested scale exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import center_keys
from .numerics import gaussian_matrix, prng_stream

# Row-block width for the max-|score| scan; keeps the scan O(block * n).
_SCAN_BLOCK = 512


@dataclass
class WorkloadSpec:
    n: int
    c: int
    score_scale: float
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.c < 1:
            raise ValueError("n and c must be at least 1")
        if not (np.isfinite(self.score_scale) and self.score_scale >= 0.0):
            raise ValueError("score_scale must be finite and nonnegative")


def max_abs_score(q_mat: np.ndarray, khat: np.ndarray) -> float:
    """Largest |q_i . khat_j| over all pairs, scanned in row blocks.

    Each block of scores is made in one preallocated (block, n) buffer,
    and its largest magnitude is max(max, -min), with no copy of |s|, so
    the scan holds one block.
    """
    blk = np.empty((min(_SCAN_BLOCK, q_mat.shape[0]), khat.shape[0]))
    m = 0.0
    for lo in range(0, q_mat.shape[0], _SCAN_BLOCK):
        s = q_mat[lo : lo + _SCAN_BLOCK]
        s = np.matmul(s, khat.T, out=blk[: len(s)])
        m = max(m, float(max(s.max(), -s.min())))
    return m


def gen_workload_raw(n: int, c: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncalibrated unit-variance Gaussian (Q, K, V); cost O(n c)."""
    qs, ks, vs = prng_stream(seed, 3).tolist()
    return (
        gaussian_matrix(n, c, qs),
        gaussian_matrix(n, c, ks),
        gaussian_matrix(n, c, vs),
    )


def gen_workload(spec: WorkloadSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Gaussian (Q, K, V) with max |q . khat| calibrated to score_scale.

    One measurement pass plus one rescale of Q; the measured maximum after
    calibration equals the target up to rounding.  score_scale 0 zeroes Q
    outright (all-uniform attention).  When the centered keys are
    identically zero there is nothing to calibrate and Q is returned as
    drawn.
    """
    q, k, v = gen_workload_raw(spec.n, spec.c, spec.seed)
    if spec.score_scale == 0.0:
        return np.zeros_like(q), k, v
    khat, _ = center_keys(k)
    measured = max_abs_score(q, khat)
    if measured > 0.0:
        q = q * (spec.score_scale / measured)
    return q, k, v
