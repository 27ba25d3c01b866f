"""Multi-head self-attention with a swappable attention kernel.

The layer exists to show the linearized kernel dropping into the position
the exact one normally occupies: shared input projections, per-head
attention, concatenation, output projection.  No residuals, normalization,
or feed-forward block; the substitution is isolated on purpose.

Nothing of size n x model_dim exists but the returned array.  The exact
mode projects each head's q, k and v from x with one GEMM into an
(n, 3 head_dim) buffer, freed before the next head's.  The eala mode forms
no K or V: each head's key moments are projections of x's mean and
centred Gram (see `_eala_heads`), and its q is its columns of one GEMM
for every head, into the returned array.  Each head writes its output
into its own columns, and the output projection then overwrites the array
one block of rows at a time.  So at 2048 x 512 with 8 heads the layer's
peak is 11.2 MiB in eala mode (the array, x's Gram and one head's call)
and 13.1 MiB in exact mode (the array, one head's projection and one
head's scratch), where projecting q, k and v whole took 33.2 and
35.1 MiB.  The exact mode keeps no weight matrix and asks for no
entropies, so a head's scratch is one (block, n) buffer, not n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KeyMoments, _center_keys, _key_moments, eala_attention
from .numerics import gaussian_matrix, prng_stream
from .oracle import _name_nonfinite, exact_attention

_MODES = ("exact", "eala")
# rows of merged that one step of the output projection overwrites
_OUT_ROWS = 256


@dataclass
class MhaParams:
    heads: int
    model_dim: int
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_output: np.ndarray


def _check_heads(model_dim: int, heads: int) -> None:
    if model_dim < 1 or heads < 1:
        raise ValueError("model_dim and heads must be positive")
    if model_dim % heads != 0:
        raise ValueError(f"model_dim {model_dim} not divisible by heads {heads}")


def mha_init(model_dim: int, heads: int, seed: int) -> MhaParams:
    """Seed-determined parameters; four model_dim^2 normal projections.

    Entries are N(0, 1/model_dim), the usual variance-preserving choice for
    a dense projection.  Sub-seeds for the four matrices come from the
    seeded stream itself so distinct layers with distinct seeds decorrelate.
    """
    _check_heads(model_dim, heads)
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

    mode "exact" runs exact_attention per head on its q, k and v; "eala"
    runs eala_attention with its default configuration on each head's q
    and the key moments it projects from x's (see `_eala_heads`), which
    agree with those of the head's k and v to rounding.  Both pass
    `entropies=False`, since the layer reads none; each call has the
    default call's bits.  Output shape equals input shape.
    Parameters whose heads do not split model_dim, or whose weights are
    not model_dim x model_dim, raise ValueError, and so does NaN or inf in
    x or in a weight, which the error names.  In eala mode moments that
    overflow float64 raise ValueError too.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    dim, heads = params.model_dim, params.heads
    _check_heads(dim, heads)
    weights = [np.asarray(w, dtype=np.float64)
               for w in (params.w_query, params.w_key, params.w_value, params.w_output)]
    if any(np.shape(w) != (dim, dim) for w in weights):
        raise ValueError(f"weights must be {dim} x {dim}, got {[np.shape(w) for w in weights]}")
    x = np.asarray(x_mat, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (rows are positions)")
    if x.shape[1] != dim:
        raise ValueError(f"x has {x.shape[1]} features, layer expects {dim}")
    if x.shape[0] == 0:
        raise ValueError("x has no rows: there is no key to attend to")
    # a NaN or inf in an input reaches its sum of squares, which copies no
    # layout; it is named here, before any head runs
    names = ("x", "w_query", "w_key", "w_value", "w_output")
    with np.errstate(invalid="ignore", over="ignore"):
        _name_nonfinite([(name, a, np.einsum("ij,ij->", a, a), None)
                         for name, a in zip(names, (x, *weights))])
    head_dim = dim // heads
    slices = [slice(h * head_dim, (h + 1) * head_dim) for h in range(heads)]
    if mode == "exact":
        merged = np.empty(x.shape)
        for sl in slices:
            qkv = x @ np.concatenate([w[:, sl] for w in weights[:3]], axis=1)
            q, k, v = (qkv[:, i * head_dim:(i + 1) * head_dim] for i in range(3))
            merged[:, sl] = exact_attention(q, k, v, entropies=False).output
            del qkv, q, k, v  # before the next head's projection is made
    else:
        merged = _eala_heads(x, weights, slices)
    # each output row reads only its own merged row, so the projection
    # overwrites merged one row block at a time
    for lo in range(0, x.shape[0], _OUT_ROWS):
        merged[lo:lo + _OUT_ROWS] = merged[lo:lo + _OUT_ROWS] @ weights[3]
    return merged


def _eala_heads(x: np.ndarray, weights: list[np.ndarray], slices: list[slice]) -> np.ndarray:
    """The eala heads' outputs, joined in an (n, model_dim) array.

    K_h = x W_k,h and V_h = x W_v,h are linear in x, so with x's mean mu
    and centred Gram C from one key pass over x, head h's key moments are
    mean mu W_k,h, Gram W_k,h^T C W_k,h, khat^T V = W_k,h^T C W_v,h and
    value sum n mu W_v,h.  Each head forms its two products as one,
    W_k,h^T (C [W_k,h | W_v,h]); its Gram is symmetrised, as the key
    pass's is.  Q for every head is one GEMM, into the returned array,
    whose columns each head overwrites with its output.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow is named below
        xm = _key_moments(x, x[:, :0], _center_keys)  # its (block, model_dim + 1) scratch is freed before merged
        means, value_sums = xm.mean @ weights[1], xm.count * (xm.mean @ weights[2])
    merged = x @ weights[0]
    for sl in slices:
        w_key = weights[1][:, sl]
        hd = w_key.shape[1]
        with np.errstate(invalid="ignore", over="ignore"):
            prod = w_key.T @ (xm.gram @ np.concatenate((w_key, weights[2][:, sl]), axis=1))
            gram = prod[:, :hd] + prod[:, :hd].T
        gram *= 0.5
        m = KeyMoments(mean=means[sl], gram=gram, kv=prod[:, hd:], value_sum=value_sums[sl],
                       count=xm.count)
        if not all(np.isfinite(a).all() for a in (m.mean, m.gram, m.kv, m.value_sum)):
            raise ValueError("the moment pass over x overflows float64 although x is finite")
        merged[:, sl] = eala_attention(merged[:, sl], m, None, entropies=False).output
    return merged
