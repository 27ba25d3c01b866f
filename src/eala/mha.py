"""Multi-head self-attention with a swappable attention kernel.

The layer exists to show the linearized kernel dropping into the position
the exact one normally occupies: shared input projections, per-head
attention, concatenation, output projection.  No residuals, normalization,
or feed-forward block; the substitution is isolated on purpose.

Each head writes its output into its own columns of one (n, model_dim)
buffer, and the projected q, k and v are freed before the output
projection, so the layer's peak is q, k, v, that buffer and one head's
scratch.  The exact mode keeps no weight matrix, so a head's scratch is
O(block n), not n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import eala_attention
from .numerics import gaussian_matrix, prng_stream
from .oracle import exact_attention

_MODES = ("exact", "eala")


@dataclass
class MhaParams:
    heads: int
    model_dim: int
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray


def mha_init(model_dim: int, heads: int, seed: int) -> MhaParams:
    """Seed-determined parameters; four model_dim^2 normal projections.

    Entries are N(0, 1/model_dim), the usual variance-preserving choice for
    a dense projection.  Sub-seeds for the four matrices come from the
    seeded stream itself so distinct layers with distinct seeds decorrelate.
    """
    if model_dim < 1 or heads < 1:
        raise ValueError("model_dim and heads must be positive")
    if model_dim % heads != 0:
        raise ValueError(f"model_dim {model_dim} not divisible by heads {heads}")
    scale = 1.0 / np.sqrt(model_dim)
    mats = [gaussian_matrix(model_dim, model_dim, sub_seed, scale)
            for sub_seed in prng_stream(seed, 4).tolist()]
    return MhaParams(
        heads=heads,
        model_dim=model_dim,
        w_query=mats[0],
        w_key=mats[1],
        w_value=mats[2],
        w_output=mats[3],
    )


def mha_forward(params: MhaParams, x_mat, mode: str = "exact") -> np.ndarray:
    """Self-attention over rows of x: project, split heads, attend, merge.

    mode "exact" runs softmax attention per head; "eala" runs the
    entropy-matched linear kernel with eala_attention's default
    configuration.  Output shape equals input shape.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    x = np.asarray(x_mat, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (rows are positions)")
    if x.shape[1] != params.model_dim:
        raise ValueError(f"x has {x.shape[1]} features, layer expects {params.model_dim}")
    q = x @ params.w_query
    k = x @ params.w_key
    v = x @ params.w_value
    head_dim = params.model_dim // params.heads
    merged = np.empty_like(q)
    for h in range(params.heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        if mode == "exact":
            merged[:, sl] = exact_attention(q[:, sl], k[:, sl], v[:, sl]).output
        else:
            eala_attention(q[:, sl], k[:, sl], v[:, sl], out=merged[:, sl])
    del q, k, v
    return merged @ params.w_output
