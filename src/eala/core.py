"""Linear-complexity attention with entropy-matched per-query temperatures.

The pipeline replaces each softmax attention row with the affine family

    w_j = (1 + (q . khat_j) / theta) / n,

where keys are centered so the weights sum to one for any theta, and theta
is chosen per query so the family's entropy matches an estimate of the
softmax row's entropy.  All per-query quantities come from key-level
summaries (the centered key sum, the C x C Gram matrix and khat^T V) that
one blocked pass over the keys and values collects, so nothing on the
linear path ever touches an n x n buffer or keeps an n x C copy of K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import AttnResult, _name_nonfinite, score_row_entropies

_ENTROPY_SOURCES = ("approx", "exact")
_PATHS = ("auto", "quadratic", "linear")

# Additive floor on finite temperatures; keeps 1/theta bounded.
EPSILON = 1e-8
# Below this the entropy gap or S2 counts as zero, and the temperature is
# the uniform sentinel.
DENOM_FLOOR = 1e-12

# The linear path handles keys and queries in row blocks of this size, each
# through one reused (block, C) scratch buffer, so its temporaries are
# O(block C), not O(N C).
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
    """Key and value summaries from one O(N C^2) pass over (K, V).

    mean             : column mean of the keys, the centre of every khat_j
    key_sum_centered : sum of centered keys, zero up to round-off
    gram             : C x C matrix M with q M q^T = sum_j (q . khat_j)^2
    kv               : C x D matrix khat^T V
    value_sum        : sum of the value rows
    count            : number of keys n
    """

    mean: np.ndarray
    key_sum_centered: np.ndarray
    gram: np.ndarray
    kv: np.ndarray
    value_sum: np.ndarray
    count: int


def center_keys(k_mat, mean=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the key mean: khat_j = k_j - mean.  Returns (khat, mean).

    `mean` defaults to the column mean of k_mat; the key pass gives the mean
    of all keys to centre one row block at a time into its scratch `out`.
    """
    k = np.asarray(k_mat, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] == 0:
        raise ValueError("center_keys expects a nonempty 2-D key matrix")
    if mean is None:
        mean = np.mean(k, axis=0)
    return np.subtract(k, mean, out=out), mean


def key_moments(k_mat, v_mat) -> KeyMoments:
    """Summaries of the keys and values in one blocked pass.

    The key mean is taken over all of K first, so every block is centred
    against the final mean before its products are summed: the two-pass
    scheme (Chan, Golub & LeVeque 1979), which keeps offset keys from
    losing their spread to a K^T K - n mu mu^T cancellation.  Row blocks of
    _QUERY_BLOCK keys are centred into one reused (block, C) scratch, and
    their key sum, Gram khat^T khat and khat^T V are accumulated.  Nothing
    n x C is kept.
    """
    k = np.asarray(k_mat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] == 0 or v.ndim != 2:
        raise ValueError("key_moments expects a nonempty 2-D key matrix and a 2-D value matrix")
    n = k.shape[0]
    if v.shape[0] != n:
        raise ValueError(f"K and V row counts differ: {n} vs {v.shape[0]}")
    mean = k.sum(axis=0) / n  # the bits of np.mean, without its wrapper
    value_sum = v.sum(axis=0)
    scratch = np.empty((min(n, _QUERY_BLOCK), k.shape[1]))
    sums = None
    for lo in range(0, n, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, n)
        kb, _ = center_keys(k[lo:hi], mean, out=scratch[: hi - lo])
        # kb.T @ kb takes numpy's syrk path
        part = (kb.sum(axis=0), kb.T @ kb, kb.T @ v[lo:hi])
        if sums is None:
            sums = part
        else:
            for acc, p in zip(sums, part):
                acc += p
    key_sum, gram, kv = sums
    return KeyMoments(mean=mean, key_sum_centered=key_sum, gram=gram, kv=kv,
                      value_sum=value_sum, count=n)


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


def _check_theta(theta, rows: int) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64)
    if th.ndim != 1 or th.size != rows:
        raise ValueError("theta must be 1-D with one entry per query")
    if not (th > 0.0).all():  # a nan fails the comparison
        raise ValueError("theta entries must be positive (or the +inf sentinel)")
    return th


def _check_forward_args(q_mat, khat, v_mat, theta):
    q = np.asarray(q_mat, dtype=np.float64)
    kh = np.asarray(khat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if q.ndim != 2 or kh.ndim != 2 or v.ndim != 2:
        raise ValueError("Q, khat, V must be 2-D")
    if q.shape[1] != kh.shape[1]:
        raise ValueError(f"feature dims differ: Q {q.shape} vs khat {kh.shape}")
    if kh.shape[0] != v.shape[0]:
        raise ValueError(f"khat and V row counts differ: {kh.shape[0]} vs {v.shape[0]}")
    return q, kh, v, _check_theta(theta, q.shape[0])


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


def eala_forward_linear(q_mat, m: KeyMoments, theta) -> np.ndarray:
    """Moment branch, O(N C^2) time, no n^2 allocation.

    Algebraically identical to the quadratic branch:

        o_i = (sum_j v_j + (q_i / theta_i) KV) / n,   KV = khat^T V,

    with KV and the value sum read from the key pass.  The queries go
    through in row blocks, each scaled by 1/theta into one reused (block, C)
    buffer and multiplied straight into its rows of the output.  Beyond the
    output, that buffer is the only allocation.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != m.kv.shape[0]:
        raise ValueError(f"queries of shape {q.shape} do not match moments of dim {m.kv.shape[0]}")
    rows = q.shape[0]
    th = _check_theta(theta, rows)
    out = np.empty((rows, m.kv.shape[1]))
    scratch = np.empty((min(rows, _QUERY_BLOCK), q.shape[1]))
    for lo in range(0, rows, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, rows)
        t = scratch[: hi - lo]
        np.divide(q[lo:hi], th[lo:hi, None], out=t)
        ob = out[lo:hi]
        np.matmul(t, m.kv, out=ob)
        ob += m.value_sum
        ob /= m.count
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
    """Full pipeline: summarize keys, estimate entropy, match, average.

    Returns the output matrix along with the per-query entropy estimates
    that fed the temperature solve and the temperatures themselves.  Only
    the quadratic branch and the exact entropy source build the centered
    keys khat.  NaN or inf in Q, K or V raises ValueError naming the input.
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
    # NaN or inf in K, V or Q reaches the key mean, the value sum or S2, so
    # their sums of squares check all three inputs with no pass of their own.
    # With q holding inf, S2 = q M q^T is +inf or NaN (M is PSD), so its
    # clamp at zero hides nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        m = key_moments(k, v)
        s1, s2 = score_moments(q, m)
        finite = math.isfinite(m.mean @ m.mean + m.value_sum @ m.value_sum + s2 @ s2)
    if not finite:
        _name_nonfinite([("K", k, m.mean, "the key mean overflows float64 although K is finite"),
                         ("V", v, m.value_sum, "the value sum overflows float64 although V is finite"),
                         ("Q", q, s2, "the score moment S2 overflows float64 although Q is finite")])
    n = m.count
    branch = select_path(cfg.path, n=n, c=q.shape[1])
    if cfg.entropy_source == "exact" or branch == "quadratic":
        khat, _ = center_keys(k, m.mean)
    if cfg.entropy_source == "approx":
        ent = approx_entropy(s1, s2, n)
    else:
        ent = score_row_entropies(q @ khat.T)
    theta = theta_star(s2, ent, n)
    if branch == "quadratic":
        out = eala_forward_quadratic(q, khat, v, theta)
    else:
        out = eala_forward_linear(q, m, theta)
    return AttnResult(output=out, entropies=ent, thetas=theta)
