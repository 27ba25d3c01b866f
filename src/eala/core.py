"""Linear-complexity attention with entropy-matched per-query temperatures.

The pipeline replaces each softmax attention row with the affine family

    w_j = (1 + (q . khat_j) / theta) / n,

where keys are centered so the weights sum to one for any theta, and theta
is chosen per query so the family's entropy matches an estimate of the
softmax row's entropy.  All per-query quantities come from two key-level
summaries (the centered key sum and the C x C Gram matrix), so nothing on
the linear path ever touches an n x n buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import AttnResult, score_row_entropies

_ENTROPY_SOURCES = ("approx", "exact")
_PATHS = ("auto", "quadratic", "linear")

# Additive floor on finite temperatures; keeps 1/theta bounded.
EPSILON = 1e-8
# Below this the entropy gap or S2 counts as zero, and the temperature is
# the uniform sentinel.
DENOM_FLOOR = 1e-12

# The linear path handles queries in row blocks of this size through one
# (block, C) scratch buffer, so its temporaries are O(block C), not O(N C).
_QUERY_BLOCK = 2048


@dataclass(frozen=True)
class EalaConfig:
    """Knobs for the linearized attention pipeline.

    entropy_source : "approx" uses the moment-based estimate; "exact" pays
                     O(N^2 C) for true softmax entropies (diagnostic mode)
    path           : forward branch; "auto" picks quadratic only when C > N
    """

    entropy_source: str = "approx"
    path: str = "auto"

    def __post_init__(self):
        if self.entropy_source not in _ENTROPY_SOURCES:
            raise ValueError(f"entropy_source must be one of {_ENTROPY_SOURCES}")
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}")


@dataclass
class KeyMoments:
    """Key-level summaries from one O(N C^2) pass over centered keys.

    key_sum_centered : sum of centered keys, zero up to round-off
    gram             : C x C matrix M with q M q^T = sum_j (q . khat_j)^2
    count            : number of keys n
    """

    key_sum_centered: np.ndarray
    gram: np.ndarray
    count: int


def center_keys(k_mat) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the row mean: khat_j = k_j - mean.  Returns (khat, mean)."""
    k = np.asarray(k_mat, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] == 0:
        raise ValueError("center_keys expects a nonempty 2-D key matrix")
    mean = np.mean(k, axis=0)
    return k - mean, mean


def key_moments(khat) -> KeyMoments:
    """Summaries of a centered key matrix."""
    kh = np.asarray(khat, dtype=np.float64)
    if kh.ndim != 2 or kh.shape[0] == 0:
        raise ValueError("key_moments expects a nonempty 2-D matrix")
    return KeyMoments(
        key_sum_centered=np.sum(kh, axis=0),
        gram=kh.T @ kh,
        count=kh.shape[0],
    )


def score_moments(q_mat, m: KeyMoments) -> tuple[np.ndarray, np.ndarray]:
    """Per-query S1 = sum_j q.khat_j and S2 = sum_j (q.khat_j)^2, in O(C^2)
    each and never touching individual keys.  Returns (s1, s2).

    The queries go through in row blocks, one reused (block, C) buffer
    holding each block's q M.  S2 = q M q^T is clamped at zero: M is
    positive semidefinite, so any negative value is rounding noise.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != m.gram.shape[0]:
        raise ValueError(f"queries of shape {q.shape} do not match moments of dim {m.gram.shape[0]}")
    rows = q.shape[0]
    s1 = q @ m.key_sum_centered
    s2 = np.empty(rows)
    scratch = np.empty((min(rows, _QUERY_BLOCK), m.gram.shape[1]))
    for lo in range(0, rows, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, rows)
        qb = q[lo:hi]
        t = scratch[: hi - lo]
        np.matmul(qb, m.gram, out=t)
        t *= qb
        t.sum(axis=1, out=s2[lo:hi])
    np.maximum(s2, 0.0, out=s2)
    return s1, s2


def _per_query(a, b, names: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"{names} must be 1-D arrays of equal length")
    return a, b


def approx_entropy(s1, s2, n: int) -> np.ndarray:
    """Second-order entropy estimate per query from its score moments.

        Hhat = log(n + S1) - (S1 + S2) / (n + S1)

    With centered keys S1 vanishes and this is log n - S2/n.  The estimate
    overshoots low for peaked rows, so it is clipped into the feasible
    range [0, log n].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s1, s2 = _per_query(s1, s2, "s1 and s2")
    base = n + s1
    if np.any(base <= 0.0):
        raise ValueError("n + S1 must be positive for the entropy expansion")
    h = np.log(base) - (s1 + s2) / base
    np.clip(h, 0.0, np.log(n), out=h)
    return h


def theta_star(s2, entropy, n: int) -> np.ndarray:
    """Closed-form temperature per query matching the affine family's
    entropy to `entropy`, clipped into [0, log n] first.

        theta* = sqrt(S2 / (2 n (log n - entropy))) + EPSILON

    Where S2 or the entropy gap is at most DENOM_FLOOR the family target is
    (indistinguishable from) uniform and the sentinel +inf is returned;
    downstream forwards treat 1/theta as 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s2, ent = _per_query(s2, entropy, "s2 and entropy")
    # a nan fails both comparisons
    if s2.size and not (s2.min() >= 0.0 and s2.max() < np.inf):
        raise ValueError("s2 must be finite and nonnegative")
    log_n = np.log(float(n))
    gap = log_n - np.clip(ent, 0.0, log_n)
    degenerate = (s2 <= DENOM_FLOOR) | (gap <= DENOM_FLOOR)
    # avoid 0/0 in the masked lanes; they are overwritten with the sentinel
    safe_gap = np.where(degenerate, 1.0, gap)
    theta = np.sqrt(s2 / (2.0 * n * safe_gap)) + EPSILON
    theta[degenerate] = np.inf
    return theta


def _check_forward_args(q_mat, khat, v_mat, theta):
    q = np.asarray(q_mat, dtype=np.float64)
    kh = np.asarray(khat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    if q.ndim != 2 or kh.ndim != 2 or v.ndim != 2:
        raise ValueError("Q, khat, V must be 2-D")
    if q.shape[1] != kh.shape[1]:
        raise ValueError(f"feature dims differ: Q {q.shape} vs khat {kh.shape}")
    if kh.shape[0] != v.shape[0]:
        raise ValueError(f"khat and V row counts differ: {kh.shape[0]} vs {v.shape[0]}")
    if th.ndim != 1 or th.size != q.shape[0]:
        raise ValueError("theta must be 1-D with one entry per query")
    if np.any(np.isnan(th)) or np.any(th <= 0.0):
        raise ValueError("theta entries must be positive (or the +inf sentinel)")
    return q, kh, v, th


def _affine_weights(q: np.ndarray, kh: np.ndarray, th: np.ndarray) -> np.ndarray:
    """(m, n) matrix of w_ij = (1 + (q_i . khat_j) / theta_i) / n, built in place."""
    w = q @ kh.T
    w /= th[:, None]
    w += 1.0
    w /= kh.shape[0]
    return w


def eala_forward_quadratic(q_mat, khat, v_mat, theta) -> np.ndarray:
    """Materialized-weights branch, O(N^2 C) time and one n^2 buffer.

    o_i = sum_j ((1 + (q_i . khat_j) / theta_i) / n) v_j.  Sentinel
    temperatures contribute 1/theta = 0, i.e. plain averaging.  Weights may
    go negative at small theta; they are used as-is.
    """
    q, kh, v, th = _check_forward_args(q_mat, khat, v_mat, theta)
    return _affine_weights(q, kh, th) @ v


def eala_forward_linear(q_mat, khat, v_mat, theta) -> np.ndarray:
    """Moment branch, O(N C^2) time, no n^2 allocation.

    Algebraically identical to the quadratic branch:

        o_i = (sum_j v_j + (q_i / theta_i) KV) / n,   KV = khat^T V.

    KV and the value sum are formed once; the queries then go through in
    row blocks, each scaled by 1/theta into one reused (block, C) buffer and
    multiplied straight into its rows of the output.  Beyond the output,
    the only allocations are that buffer and the C x D matrix KV.
    """
    q, kh, v, th = _check_forward_args(q_mat, khat, v_mat, theta)
    n = kh.shape[0]
    rows = q.shape[0]
    v_sum = np.sum(v, axis=0)
    kv = kh.T @ v
    out = np.empty((rows, v.shape[1]))
    scratch = np.empty((min(rows, _QUERY_BLOCK), q.shape[1]))
    for lo in range(0, rows, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, rows)
        t = scratch[: hi - lo]
        np.divide(q[lo:hi], th[lo:hi, None], out=t)
        ob = out[lo:hi]
        np.matmul(t, kv, out=ob)
        ob += v_sum
        ob /= n
    return out


def eala_weights(q_mat, khat, theta) -> np.ndarray:
    """Full (m, n) weight matrix of the affine family; diagnostic only.

    Rows sum to one by centering, independent of theta, but entries may be
    negative when theta is close to the validity edge max_j |q . khat_j|.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    kh = np.asarray(khat, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    if q.ndim != 2 or kh.ndim != 2 or q.shape[1] != kh.shape[1]:
        raise ValueError("incompatible query/key shapes")
    if th.ndim != 1 or th.size != q.shape[0]:
        raise ValueError("theta must be 1-D with one entry per query")
    return _affine_weights(q, kh, th)


def select_path(path: str, n: int, c: int) -> str:
    """Resolve the forward branch: quadratic exactly when C > N under auto."""
    if path == "auto":
        return "quadratic" if c > n else "linear"
    if path in ("quadratic", "linear"):
        return path
    raise ValueError(f"unknown path {path!r}")


def eala_attention(q_mat, k_mat, v_mat, cfg: EalaConfig | None = None) -> AttnResult:
    """Full pipeline: center, summarize, estimate entropy, match, average.

    Returns the output matrix along with the per-query entropy estimates
    that fed the temperature solve and the temperatures themselves.
    """
    if cfg is None:
        cfg = EalaConfig()
    q = np.asarray(q_mat, dtype=np.float64)
    k = np.asarray(k_mat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("Q, K, V must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"feature dims differ: Q {q.shape} vs K {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"K and V row counts differ: {k.shape[0]} vs {v.shape[0]}")
    khat, _ = center_keys(k)
    n = khat.shape[0]
    s1, s2 = score_moments(q, key_moments(khat))
    if cfg.entropy_source == "approx":
        ent = approx_entropy(s1, s2, n)
    else:
        ent = score_row_entropies(q @ khat.T)
    theta = theta_star(s2, ent, n)
    branch = select_path(cfg.path, n=n, c=q.shape[1])
    if branch == "quadratic":
        out = eala_forward_quadratic(q, khat, v, theta)
    else:
        out = eala_forward_linear(q, khat, v, theta)
    return AttnResult(output=out, entropies=ent, thetas=theta)
