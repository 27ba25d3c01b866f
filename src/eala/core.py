"""Linear-complexity attention with entropy-matched per-query temperatures.

The pipeline replaces each softmax attention row with the affine family

    w_j = (1 + (q . khat_j) / theta) / n,

where keys are centered so the weights sum to one for any theta, and theta
is chosen per query so the family's entropy matches an estimate of the
softmax row's entropy, which reads each query's second score moment
S2 = sum_j (q . khat_j)^2.  On the linear path every per-query quantity
comes from key-level summaries (the C x C Gram matrix, khat^T V and the
value sum) that `key_moments` collects in two blocked passes over the
keys, the second also over the values, so nothing there ever touches an
n x n buffer or keeps an n x C copy of K.  The quadratic branch and the
exact entropy source form the scores q khat^T anyway, and take S2 as
their row sums of squares.  The centred keys sum to zero, so the first
score moment sum_j q . khat_j is zero for every query, and no layer
computes it.

The linear path reads Q, K and V only in row blocks, through `x[lo:hi]`
and `x.shape`, and stores its output a row block at a time through
`out[lo:hi] = block`.  So besides matrices it takes row readers such as
`tensorio.TensorRows` and row writers such as `tensorio.TensorRowWriter`:
then no input and no output is ever held whole, its memory is O(block C),
and n is bounded by disk, not memory.
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

# The linear path handles keys and queries in row blocks of this size, so
# its temporaries are O(block C), not O(N C).
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

    mean      : column mean of the keys, the centre of every khat_j
    gram      : C x C matrix M with q M q^T = sum_j (q . khat_j)^2
    kv        : C x D matrix khat^T V, read by the linear forward
    value_sum : sum of the value rows
    count     : number of keys n
    """

    mean: np.ndarray
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


def _row_blocks(rows: int):
    """(lo, hi) of each row block of `rows` rows, in order."""
    starts = range(0, rows, _QUERY_BLOCK)
    return zip(starts, [*starts[1:], rows])


def _rows_source(x):
    """A row reader as it is; anything else as a float64 array.

    A row reader has a 2-D `shape` and [lo:hi] slicing that returns float64
    arrays, and no `__array__`, as `tensorio.TensorRows`; array-likes that
    have `__array__` (arrays, data frames, tensors) are converted whole.
    """
    if hasattr(x, "shape") and not hasattr(x, "__array__"):
        return x
    return np.asarray(x, dtype=np.float64)


def _column_sum(x) -> np.ndarray:
    """Column sums of the row source x, a block of rows at a time.

    Each block after the first is summed below the running total, which
    sits in the first row of a (block + 1)-row scratch, so the additions
    run in the order of numpy's sequential axis-0 sum: on a C-ordered
    matrix of two or more columns the bits are those of x.sum(axis=0).
    (numpy sums one column, or a column-major matrix, pairwise instead.)
    """
    total = scratch = None
    for lo, hi in _row_blocks(x.shape[0]):
        block = x[lo:hi]
        if total is None:
            total = block.sum(axis=0)
        else:
            if scratch is None:
                scratch = np.empty((_QUERY_BLOCK + 1, x.shape[1]))
            seeded = scratch[: hi - lo + 1]
            seeded[0] = total
            seeded[1:] = block
            total = seeded.sum(axis=0)
    return total


def _add(total, part):
    """total += part, with None for a total that has no terms yet."""
    if total is None:
        return part
    total += part
    return total


def key_moments(k_mat, v_mat) -> KeyMoments:
    """Summaries of the keys and values in two blocked passes.

    K and V are matrices or row readers, read in row blocks of _QUERY_BLOCK
    rows: K twice and V once.  The first pass sums the keys.  The second
    centres every block of keys against the mean of all keys into the first
    C columns of one reused (block, C + 1) scratch whose last column is 1,
    and sums the Gram khat^T khat and the GEMM of the scratch's transpose
    with the block of V: khat^T V in its first C rows, the value sum in its
    last.  This is the two-pass scheme (Chan, Golub & LeVeque 1979): offset
    keys keep their spread, where K^T K - n mu mu^T or a pairwise merge of
    per-block moments would cancel it away.  Nothing n x C is kept.
    """
    k = _rows_source(k_mat)
    v = _rows_source(v_mat)
    if len(k.shape) != 2 or k.shape[0] == 0 or len(v.shape) != 2:
        raise ValueError("key_moments expects a nonempty 2-D key matrix and a 2-D value matrix")
    n, c = k.shape
    if v.shape[0] != n:
        raise ValueError(f"K and V row counts differ: {n} vs {v.shape[0]}")
    mean = _column_sum(k) / n  # the bits of np.mean, without its wrapper
    scratch = np.empty((min(n, _QUERY_BLOCK), c + 1))
    scratch[:, c] = 1.0
    gram = kv_sum = None
    for lo, hi in _row_blocks(n):
        block = scratch[: hi - lo]
        kb = center_keys(k[lo:hi], mean, out=block[:, :c])[0]
        gram = _add(gram, kb.T @ kb)  # kb.T @ kb takes numpy's syrk path
        kv_sum = _add(kv_sum, block.T @ v[lo:hi])
    return KeyMoments(mean=mean, gram=gram, kv=kv_sum[:c], value_sum=kv_sum[c], count=n)


def score_moments(q_mat, m: KeyMoments) -> np.ndarray:
    """Per-query second score moment S2 = sum_j (q.khat_j)^2, in O(C^2)
    each and never touching individual keys.  (The first moment
    sum_j q.khat_j is zero, as the centred keys sum to zero.)

    S2 = q M q^T is clamped at zero: M is positive semidefinite, so any
    negative value is rounding noise.  The product q M is one (rows, C)
    temporary, which einsum dots row by row with q; `eala_attention`
    passes its queries a block at a time.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != m.gram.shape[0]:
        raise ValueError(f"queries of shape {q.shape} do not match moments of dim {m.gram.shape[0]}")
    s2 = np.einsum("ij,ij->i", q @ m.gram, q)
    np.maximum(s2, 0.0, out=s2)
    return s2


def approx_entropy(s2, n: int) -> np.ndarray:
    """Second-order entropy estimate per query from its score moment S2.

        Hhat = log n - S2 / n

    is the expansion of the softmax entropy around uniform for centred
    keys, whose first score moment is zero.  The estimate overshoots low
    for peaked rows, so it is clipped into the feasible range [0, log n].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s2 = np.asarray(s2, dtype=np.float64)
    if s2.ndim != 1:
        raise ValueError("s2 must be a 1-D array")
    log_n = np.log(n)
    h = log_n - s2 / n
    np.clip(h, 0.0, log_n, out=h)
    return h


def theta_star(s2, entropy, n: int) -> np.ndarray:
    """Closed-form temperature per query matching the affine family's
    entropy to `entropy`, clipped into [0, log n] first.

        theta* = sqrt(S2 / (2 n (log n - entropy))) + EPSILON

    Where S2 or the entropy gap is at most DENOM_FLOOR the family target is
    (indistinguishable from) uniform and the sentinel +inf is returned;
    downstream forwards treat 1/theta as 0.  Where `approx_entropy` gives
    the entropy and is not clipped at 0, the gap is S2 / n, so theta* is
    1/sqrt(2) + EPSILON.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s2 = np.asarray(s2, dtype=np.float64)
    ent = np.asarray(entropy, dtype=np.float64)
    if s2.ndim != 1 or s2.shape != ent.shape:
        raise ValueError("s2 and entropy must be 1-D arrays of equal length")
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


def eala_forward_quadratic(q_mat, khat, v_mat, theta) -> np.ndarray:
    """Materialized-weights branch, O(N^2 C) time and one n^2 buffer.

    o_i = sum_j ((1 + (q_i . khat_j) / theta_i) / n) v_j.  Sentinel
    temperatures contribute 1/theta = 0, i.e. plain averaging.  Weights may
    go negative at small theta; they are used as-is.
    """
    kh = np.asarray(khat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if v.ndim != 2 or v.shape[:1] != kh.shape[:1]:
        raise ValueError(f"V of shape {v.shape} does not match khat of shape {kh.shape}")
    return eala_weights(q_mat, kh, theta) @ v


def eala_forward_linear(q_mat, m: KeyMoments, theta, out=None) -> np.ndarray:
    """Moment branch, O(N C^2) time, no n^2 allocation.

    Algebraically identical to the quadratic branch:

        o_i = (q_i / (n theta_i)) KV + sum_j v_j / n,   KV = khat^T V,

    with KV and the value sum read from the key pass.  The queries scaled
    by 1/(n theta) are the one (rows, C) temporary: scaled first, a row of
    large scores keeps its product with KV in range, where q KV alone
    would overflow.  The sentinel theta = inf scales a row by 0.  The
    product goes straight into `out`, a (rows, D) array, when one is given.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != m.kv.shape[0]:
        raise ValueError(f"queries of shape {q.shape} do not match moments of dim {m.kv.shape[0]}")
    th = _check_theta(theta, q.shape[0])
    out = np.matmul(q * (1.0 / (m.count * th))[:, None], m.kv, out=out)
    out += m.value_sum / m.count
    return out


def eala_weights(q_mat, khat, theta) -> np.ndarray:
    """Full (m, n) weight matrix of the affine family, built in place:
    w_ij = (1 + (q_i . khat_j) / theta_i) / n, each theta positive or the
    +inf sentinel.  The quadratic forward multiplies it into V.

    Rows sum to one by centering, independent of theta, but entries may be
    negative when theta is close to the validity edge max_j |q . khat_j|.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    kh = np.asarray(khat, dtype=np.float64)
    if q.ndim != 2 or kh.ndim != 2 or q.shape[1] != kh.shape[1]:
        raise ValueError("incompatible query/key shapes")
    th = _check_theta(theta, q.shape[0])
    w = q @ kh.T
    w /= th[:, None]
    w += 1.0
    w /= kh.shape[0]
    return w


def select_path(path: str, n: int, c: int) -> str:
    """Resolve the forward branch: quadratic exactly when C > N under auto."""
    if path == "auto":
        return "quadratic" if c > n else "linear"
    if path in ("quadratic", "linear"):
        return path
    raise ValueError(f"unknown path {path!r}")


def eala_attention(q_mat, k_mat, v_mat, cfg: EalaConfig | None = None, out=None) -> AttnResult:
    """Full pipeline: summarize keys, estimate entropy, match, average.

    Returns the output matrix along with the per-query entropy estimates
    that fed the temperature solve and the temperatures themselves.  NaN or
    inf in Q, K or V raises ValueError naming the input.

    Q, K and V are matrices or row readers (see `key_moments`).  `out`, as
    in numpy, receives the output and is returned as it: a (rows, D) array,
    or a row writer with a `shape` that takes `out[lo:hi] = block`.  The
    linear branch with approximate entropies streams them: two passes over
    the keys, one over the values, then one over row blocks of queries,
    each block going through the score moments, the entropy estimate, the
    temperature and the forward, whose result lands in its rows of `out`.
    A writer is handed each block's output as it is made, and the block is
    dropped once stored, so no n x D buffer is made.  The quadratic branch
    and the exact entropy source need the scores q khat^T, so they read
    each input whole and centre K once into khat; each query block's S2 is
    then the row sums of squares of its scores, and the quadratic branch
    builds no key moments and stores its output through `out[0:rows]`.
    """
    if cfg is None:
        cfg = EalaConfig()
    q, k, v = (_rows_source(x) for x in (q_mat, k_mat, v_mat))
    if len(q.shape) != 2 or len(k.shape) != 2 or len(v.shape) != 2:
        raise ValueError("Q, K, V must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"feature dims differ: Q {q.shape} vs K {k.shape}")
    n = k.shape[0]
    if v.shape[0] != n:
        raise ValueError(f"K and V row counts differ: {n} vs {v.shape[0]}")
    rows, d = q.shape[0], v.shape[1]
    if out is not None and tuple(out.shape) != (rows, d):
        raise ValueError(f"out of shape {tuple(out.shape)} is not the output's {(rows, d)}")
    branch = select_path(cfg.path, n=n, c=q.shape[1])
    approx = cfg.entropy_source == "approx"
    streamed = approx and branch == "linear"
    # NaN or inf in K or V reaches the key mean or the value sum, and in Q
    # its block's S2, so their sums of squares check all three inputs with
    # no pass of their own.  With q holding inf, S2 is +inf or NaN (a sum
    # of squares, or q M q^T with M PSD, whose clamp at zero hides
    # nothing).  Floating-point warnings are silenced for those sums and
    # checks alone: an overflow in a later step still warns.
    with np.errstate(invalid="ignore", over="ignore"):
        if not streamed:
            q, k, v = q[0:rows], k[0:n], v[0:n]
        if branch == "linear":
            m = key_moments(k, v)
            sums = [m.mean, m.value_sum, m.kv]
            if not approx:
                khat = center_keys(k, m.mean)[0]
        else:
            khat, mean = center_keys(k)
            sums = [mean, v.sum(axis=0)]
        finite = math.isfinite(sum(np.vdot(x, x) for x in sums))
    if not finite:
        _name_nonfinite(list(zip("KVV", (k, v, v), sums, (
            "the key mean overflows float64 although K is finite",
            "the value sum overflows float64 although V is finite",
            "khat^T V overflows float64 although K and V are finite"))))
    ent = np.empty(rows)
    theta = np.empty(rows)
    if branch == "linear" and out is None:
        out = np.empty((rows, d))
    for lo, hi in _row_blocks(rows):
        qb = q[lo:hi]
        with np.errstate(invalid="ignore", over="ignore"):
            scores = None if streamed else qb @ khat.T
            s2 = score_moments(qb, m) if streamed else np.einsum("ij,ij->i", scores, scores)
            finite = math.isfinite(s2 @ s2)
        if not finite:
            _name_nonfinite([("Q", qb, s2, "the score moment S2 overflows float64 although Q is finite")])
        ent[lo:hi] = approx_entropy(s2, n) if approx else score_row_entropies(scores)
        theta[lo:hi] = theta_star(s2, ent[lo:hi], n)
        if branch == "quadratic":
            continue
        if isinstance(out, np.ndarray):
            eala_forward_linear(qb, m, theta[lo:hi], out=out[lo:hi])
        else:
            out[lo:hi] = eala_forward_linear(qb, m, theta[lo:hi])
    if branch == "quadratic":
        scores = None  # so the forward's weights are the one n x n buffer
        result = eala_forward_quadratic(q, khat, v, theta)
        if out is None:
            out = result
        else:
            out[0:rows] = result
    return AttnResult(output=out, entropies=ent, thetas=theta)
