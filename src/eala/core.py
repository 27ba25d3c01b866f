"""Linear-complexity attention with entropy-matched per-query temperatures.

The pipeline replaces each softmax attention row with the affine family

    w_j = (1 + (q . khat_j) / theta) / n,

where keys are centered so the weights sum to one for any theta, and theta
is chosen per query so the family's entropy matches an estimate of the
softmax row's entropy, which reads each query's second score moment
S2 = sum_j (q . khat_j)^2.  On the linear path every per-query quantity
comes from key-level summaries (the C x C Gram matrix, khat^T V and the
value sum) that `key_moments` collects in one blocked pass over the keys
and values, so nothing there ever touches an n x n buffer or keeps an
n x C copy of K.  The quadratic branch forms the scores q khat^T anyway,
and takes S2 as their row sums of squares.
The centred keys sum to zero, so the first score moment sum_j q . khat_j
is zero for every query, and no layer computes it.

Every branch reads Q in row blocks, through `x[lo:hi]` and `x.shape`, and
stores its output a row block at a time through `out[lo:hi] = block`; the
linear path reads K and V in row blocks too.
So besides matrices it takes row readers such as `tensorio.TensorRows`
and row writers such as `tensorio.TensorRowWriter`: then on that path no
input or output is ever held whole, memory is O(block C), and n is
bounded by disk, not memory.

The linear path's key and query passes take up to _QUERY_BLOCK rows as
one block, and more as two lanes: contiguous halves of the rows, walked
in blocks of _LANE_BLOCK rows, whose layout depends on the row count
alone.  Each lane of the key pass sums its own moments, and lane 1's are
added to lane 0's; each lane of the query pass writes only its own rows.
When the inputs and output are arrays and `_WORKERS` is 2, lane 1 runs on
a worker thread that calls only private kernels, so every public function
runs on the calling thread.  The bits do not depend on it (see
`_run_lanes`).

The estimate Hhat = log n - S2 / n, clipped into [0, log n], is an
output only: the gap log n - Hhat is S2 / n below the clip, so theta is
a closed form of S2,

    theta = 1/sqrt(2) + EPSILON              where Hhat is not clipped,
    theta = sqrt(S2 / (2 n log n)) + EPSILON  where it is (S2 / n >= log n),

and the sentinel inf where S2 or the gap is at most DENOM_FLOOR.  These
tests are monotone in S2, so a query block's least and largest S2 tell
whether every row takes the constant; then the linear forward folds it
into KV, one GEMM with no per-row scaling.

A caller that reads no entropies passes `entropies=False`, as `eala
attend` and `mha_forward` do.  Then a linear block whose S2 an eigenvalue
bound on the Gram puts inside the constant's range is certified: it takes
the constant with no S2.  So `entropies=False` changes a call's cost,
never its output or thetas.  At 65536 x 64 with calibrated queries every
block is certified, and `attend` peaks at about 1.8 MiB under
tracemalloc: the thetas and two blocks of _LANE_BLOCK rows.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .oracle import AttnResult, _name_nonfinite

_PATHS = ("auto", "quadratic", "linear")

# Additive floor on finite temperatures; keeps 1/theta bounded.
EPSILON = 1e-8
# Below this the entropy gap or S2 counts as zero, and the temperature is
# the uniform sentinel.
DENOM_FLOOR = 1e-12

# The linear path handles keys and queries in row blocks of this size, so
# its temporaries are O(block C), not O(N C).
_QUERY_BLOCK = 2048
# A pass over more rows runs as two lanes walked in blocks of half that
# size, so the two lanes together hold what one block holds.
_LANE_BLOCK = _QUERY_BLOCK // 2


def _worker_count() -> int:
    """2 when lane 1 of a pass may run on a worker thread, else 1: the
    process may use at least 2 CPUs and the BLAS's environment pins it to
    one thread (with more BLAS threads, two workers ran slower)."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", ""))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if (cpus or 1) >= 2 and blas.strip() == "1" else 1


_WORKERS = _worker_count()


@dataclass
class KeyMoments:
    """Key and value summaries from one O(N C^2) pass over (K, V).

    mean      : column mean of the keys, the centre of every khat_j
    gram      : symmetric C x C matrix M with q M q^T = sum_j (q . khat_j)^2
    kv        : C x D matrix khat^T V, read by the linear forward
    value_sum : sum of the value rows
    count     : number of keys n
    """

    mean: np.ndarray
    gram: np.ndarray
    kv: np.ndarray
    value_sum: np.ndarray
    count: int


def center_keys(k_mat, *, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the key pass's mean: khat_j = k_j - mean.  Returns (khat,
    mean), khat written into `out` when one is given.

    The mean is the key pass's (see `key_moments`): the column mean of K
    when it has at most _QUERY_BLOCK rows, else s + delta, where s is the
    column mean of the first _LANE_BLOCK rows, delta the column mean of
    k - s and khat_j = (k_j - s) - delta.  So every branch centres the
    keys as the linear path does, with no rounded sum of raw keys in khat.
    The key pass calls it once, on its first block, whose mean is its
    shift s.
    """
    return _center_keys(k_mat, out=out)


def _center_keys(k_mat, *, out=None) -> tuple[np.ndarray, np.ndarray]:
    """`center_keys`' kernel, with which `mha_forward`'s key pass centres
    its first block."""
    k = np.asarray(k_mat, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] == 0:
        raise ValueError("center_keys expects a nonempty 2-D key matrix")
    first = k if len(k) <= _QUERY_BLOCK else k[:_LANE_BLOCK]
    shift = np.add.reduce(first, axis=0) / len(first)  # the bits of np.mean, without its wrappers
    khat = np.subtract(k, shift, out=out)
    if first is k:
        return khat, shift
    delta = np.add.reduce(khat, axis=0) / len(k)
    khat -= delta
    return khat, shift + delta


def _row_blocks(lo: int, hi: int, step: int):
    """(a, b) of each row block of rows lo:hi, `step` rows each, in order."""
    starts = range(lo, hi, step)
    return zip(starts, [*starts[1:], hi])


def _run_lanes(lane, rows: int, worker: bool) -> tuple:
    """(lane(lo, hi, False), lane(lo, hi, worker)) for the two lanes of a
    pass over `rows` > _QUERY_BLOCK rows: halves cut at a _LANE_BLOCK
    boundary, the first taking the larger.  The layout depends on `rows`
    alone, so a lane's sums and rows have the same bits on any thread.

    Lane 0 runs on the calling thread.  Lane 1 runs after it there, or,
    with `worker`, meanwhile on one worker thread that enters the caller's
    numpy error state (it is per thread) and is joined before this returns
    or raises.  An error of lane 0 wins over one of lane 1, so the first
    bad block in row order is named.
    """
    mid = _LANE_BLOCK * -(-rows // _QUERY_BLOCK)
    if not worker:
        return lane(0, mid, False), lane(mid, rows, False)
    err, result = np.geterr(), {}

    def run():
        try:
            with np.errstate(**err):
                result["value"] = lane(mid, rows, True)
        except BaseException as exc:  # re-raised on the calling thread
            result["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        first = lane(0, mid, False)
    finally:
        thread.join()
    if "error" in result:
        raise result["error"]
    return first, result["value"]


def _rows_source(x):
    """A row reader as it is; anything else as a float64 array.

    A row reader has a 2-D `shape` and [lo:hi] slicing that returns float64
    arrays, and no `__array__`, as `tensorio.TensorRows`; array-likes that
    have `__array__` (arrays, data frames, tensors) are converted whole.
    """
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    if hasattr(x, "shape") and not hasattr(x, "__array__"):
        return x
    return np.asarray(x, dtype=np.float64)


def key_moments(k_mat, v_mat) -> KeyMoments:
    """Summaries of the keys and values in one blocked pass.

    K and V are matrices or row readers, read once each in row blocks.
    Every block of keys is centred against a shift s into the first C
    columns of a (block, C + 1) scratch whose last column is 1.  The pass
    sums the GEMM of the scratch's transpose with the block of V,
    (K - s)^T V in its first C rows and the value sum in its last, and the
    Gram G_s = (K - s)^T (K - s).  `center_keys` centres the first block
    and gives s, its mean; every later block subtracts s in place.

    Up to _QUERY_BLOCK keys are one block and s is their mean.  More keys
    run as two lanes (see `_run_lanes`), each walked in blocks of
    _LANE_BLOCK rows, with s the mean of the first block.  Each lane sums
    its own Gram, which also takes the ones column, t = sum_j (k_j - s),
    and its own (K - s)^T V; lane 1's sums are added to lane 0's.  With
    delta = t / n the mean is s + delta, M = G_s - n delta delta^T and
    khat^T V = (K - s)^T V - delta (sum v)^T.  This is the shifted-data,
    pairwise scheme (Chan, Golub & LeVeque 1979): s sits near the keys, so
    offset keys keep their spread, where K^T K - n mu mu^T would cancel it
    away, and no rounded sum of raw keys biases khat.  Lane 1 runs on a
    worker thread when K and V are arrays and `_WORKERS` is 2; its bits do
    not depend on it.  Nothing n x C is kept.
    """
    return _key_moments(k_mat, v_mat, center_keys)


def _key_moments(k_mat, v_mat, center) -> KeyMoments:
    """`key_moments`' kernel, which centres the first block with `center`
    on the calling thread.  `mha_forward` runs it on x with a zero-width V
    and `_center_keys`, for x's mean and centred Gram: it calls the
    kernels, not the public functions, so the public calls under it are
    its heads' alone."""
    k = _rows_source(k_mat)
    v = _rows_source(v_mat)
    if len(k.shape) != 2 or k.shape[0] == 0 or len(v.shape) != 2:
        raise ValueError("key_moments expects a nonempty 2-D key matrix and a 2-D value matrix")
    n, c = k.shape
    if v.shape[0] != n:
        raise ValueError(f"K and V row counts differ: {n} vs {v.shape[0]}")
    first = n if n <= _QUERY_BLOCK else _LANE_BLOCK  # the first block's rows, whose mean is s
    block = np.empty((first, c + 1))
    block[:, c] = 1.0
    shift = center(k[0:first], out=block[:, :c])[1]
    if first == n:  # one block
        kb = block[:, :c]
        gram, kv_sum = kb.T @ kb, block.T @ v[0:n]  # kb.T @ kb takes numpy's syrk path
        return KeyMoments(mean=shift, gram=gram, kv=kv_sum[:c], value_sum=kv_sum[c], count=n)
    head = block.T @ block, block.T @ v[0:first]
    del block  # freed before the lanes make their scratch

    def lane(lo, hi, on_worker):
        if lo == 0:  # lane 0 goes on from its first block
            return _key_sums(k, v, first, hi, shift, head)
        return _key_sums(k, v, lo, hi, shift)

    worker = _WORKERS > 1 and isinstance(k, np.ndarray) and isinstance(v, np.ndarray)
    (gram, kv_sum), (gram1, kv1) = _run_lanes(lane, n, worker)
    gram += gram1
    kv_sum += kv1
    delta = gram[:c, c] / n
    kv_sum[:c] -= np.outer(delta, kv_sum[c])
    return KeyMoments(mean=shift + delta, gram=gram[:c, :c] - n * np.outer(delta, delta),
                      kv=kv_sum[:c], value_sum=kv_sum[c], count=n)


def _key_sums(k, v, lo: int, hi: int, shift, sums=(None, None)) -> tuple:
    """`sums` plus the Gram of [K - s | 1] and [K - s | 1]^T V over rows
    lo:hi, in blocks of _LANE_BLOCK rows, for the shift s."""
    c = k.shape[1]
    scratch = np.empty((min(hi - lo, _LANE_BLOCK), c + 1))
    scratch[:, c] = 1.0
    gram, kv_sum = sums
    for a, b in _row_blocks(lo, hi, _LANE_BLOCK):
        block = scratch[: b - a]
        np.subtract(k[a:b], shift, out=block[:, :c])
        if gram is None:  # the first block's GEMMs are the sums so far
            gram, kv_sum = block.T @ block, block.T @ v[a:b]
        else:
            gram += block.T @ block
            kv_sum += block.T @ v[a:b]
    return gram, kv_sum


def _score_moments(q: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per-query second score moment S2 = sum_j (q.khat_j)^2 = q M q^T of
    float64 queries against the key Gram M, in O(C^2) each and never
    touching individual keys.  S2 is clamped at zero: M is positive
    semidefinite, so any negative value is rounding noise.  The product
    q M is one (rows, C) temporary, which einsum dots row by row with q."""
    s2 = np.einsum("ij,ij->i", q @ gram, q)
    return np.maximum(s2, 0.0, out=s2)


def _approx_entropy(s2: np.ndarray, n: int, log_n) -> np.ndarray:
    """The entropy estimate Hhat = log n - S2 / n of an S2 >= 0, which never
    exceeds log n.

    For centred keys, whose first score moment is zero, the second-order
    expansion of the softmax entropy around uniform is log n - S2 / (2 n):
    the estimate has twice its curvature.  It overshoots low for peaked
    rows, so it is clipped at 0.
    """
    h = log_n - s2 / n
    return np.maximum(h, 0.0, out=h)


def theta_star(s2, entropy, n: int) -> np.ndarray:
    """Closed-form temperature per query matching the affine family's
    entropy to `entropy`, clipped into [0, log n] first.

        theta* = sqrt(S2 / (2 n (log n - entropy))) + EPSILON

    Where S2 or the entropy gap is at most DENOM_FLOOR the family target is
    (indistinguishable from) uniform and the sentinel +inf is returned;
    downstream forwards treat 1/theta as 0.  Fed the estimate Hhat below
    its clip, theta* is 1/sqrt(2) + EPSILON to about ulp(log n) / (S2 / n)
    relative, as the gap log n - Hhat cancels; `eala_attention` takes the
    closed form of the module docstring instead.
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
    return _theta_star(s2, log_n - np.minimum(np.maximum(ent, 0.0), log_n), n)


def _theta_star(s2: np.ndarray, gap: np.ndarray, n: int) -> np.ndarray:
    """theta* from a finite S2 >= 0 and the gap log n - H of an entropy
    clipped into [0, log n]."""
    low = np.fmin(s2, gap)  # fmin: a nan gap leaves the S2 test
    degenerate = low <= DENOM_FLOOR if np.minimum.reduce(low, initial=np.inf) <= DENOM_FLOOR else None
    # avoid 0/0 in the masked lanes; they are overwritten with the sentinel
    theta = gap * (2.0 * n) if degenerate is None else np.where(degenerate, 1.0, gap) * (2.0 * n)
    np.divide(s2, theta, out=theta)
    np.sqrt(theta, out=theta)
    theta += EPSILON
    if degenerate is not None:
        theta[degenerate] = np.inf
    return theta


# theta* where the approx entropy is not clipped and S2 / n clears
# DENOM_FLOOR: the gap log n - Hhat is S2 / n, so S2 cancels.
_THETA_UNCLIPPED = math.sqrt(0.5) + EPSILON


def _approx_theta(s2: np.ndarray, n: int, log_n):
    """The closed-form temperatures of a nonempty block of finite S2 >= 0:
    the scalar _THETA_UNCLIPPED when every row takes it, else one per row.
    The sentinel and clip tests round as `_approx_entropy` and
    `_theta_star` do, so the sentinel rows and clipped thetas keep their
    bits."""
    lo, hi = np.minimum.reduce(s2), np.maximum.reduce(s2)
    if hi / n < log_n and min(lo, log_n - (log_n - lo / n)) > DENOM_FLOOR:
        return _THETA_UNCLIPPED
    h = _approx_entropy(s2, n, log_n)
    theta = _theta_star(s2, log_n - h, n)  # the clipped rows' theta and the sentinel
    theta[(h > 0.0) & (theta < np.inf)] = _THETA_UNCLIPPED
    return theta


def _certified_norms(gram: np.ndarray, n: int, log_n) -> tuple[float, float] | None:
    """Bounds (lo, hi) on a query's squared norm within which the approx
    temperature is certainly _THETA_UNCLIPPED, or None if no query's is.

    lambda_min |q|^2 <= S2 = q M q^T <= lambda_max |q|^2, so |q|^2 in
    (lo, hi] puts S2 in (n (DENOM_FLOOR + 4 ulp(log n)),
    n (log n - 4 ulp(log n))]: S2 / n rounds below log n, so the entropy
    is not clipped at 0, and the gap log n - Hhat, which rounds to within
    an ulp of log n of S2 / n, clears DENOM_FLOOR.  One eigvalsh of
    the C x C Gram gives both eigenvalues; each is widened by
    4 C eps lambda_max, which covers eigvalsh's error and the rounding of
    q M q^T and of |q|^2.  A Gram that is singular, or nearly so, or not
    finite, certifies nothing.
    """
    c = gram.shape[0]
    if c == 0 or not np.isfinite(gram).all():
        return None
    lam = np.linalg.eigvalsh(gram)
    margin = 4 * c * np.finfo(np.float64).eps * abs(float(lam[-1]))
    lam_min, lam_max = float(lam[0]) - margin, float(lam[-1]) + margin
    if not lam_min > 0.0:
        return None
    ulps = 4 * math.ulp(log_n)
    return n * (DENOM_FLOOR + ulps) / lam_min, n * (log_n - ulps) / lam_max


def _block_certified(qb: np.ndarray, bounds: tuple[float, float]) -> bool:
    """Whether every squared row norm of qb lies in `_certified_norms`'
    (lo, hi]; NaN or inf in qb fails."""
    sq = np.einsum("ij,ij->i", qb, qb)
    return bool(bounds[0] < sq.min() and sq.max() <= bounds[1])


def _check_theta(theta, rows: int) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64)
    if th.ndim != 1 or th.size != rows:
        raise ValueError("theta must be 1-D with one entry per query")
    if not np.minimum.reduce(th, initial=np.inf) > 0.0:  # a nan is the min, and fails
        raise ValueError("theta entries must be positive (or the +inf sentinel)")
    return th


def eala_forward_quadratic(q_mat, khat, v_mat, theta, out=None, *, scores=None) -> np.ndarray:
    """Materialized-weights branch: O(M N C) time and one (M, N) buffer for
    M queries against N keys.

    o_i = sum_j ((1 + (q_i . khat_j) / theta_i) / n) v_j.  Sentinel
    temperatures contribute 1/theta = 0, i.e. plain averaging.  Weights may
    go negative at small theta; they are used as-is.  `out`, an (M, D)
    array, takes the product when one is given.  `scores`, when given, is
    the (M, N) float64 product Q khat^T that the caller has formed
    already: it is overwritten with the weights, so the product is formed
    once, and Q's values are not read, only its row count.
    """
    kh = np.asarray(khat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if v.ndim != 2 or v.shape[:1] != kh.shape[:1]:
        raise ValueError(f"V of shape {v.shape} does not match khat of shape {kh.shape}")
    if scores is None:
        return np.matmul(eala_weights(q_mat, kh, theta), v, out=out)
    shape = np.shape(q_mat)[:1] + kh.shape[:1]
    if not (isinstance(scores, np.ndarray) and scores.dtype == np.float64 and scores.shape == shape):
        raise ValueError(f"scores must be a float64 array of shape {shape} (Q's rows by khat's)")
    th = _check_theta(theta, shape[0])
    return np.matmul(_weights_from_scores(scores, th, kh.shape[0]), v, out=out)


def eala_forward_linear(q_mat, m: KeyMoments, theta, out=None) -> np.ndarray:
    """Moment branch, O(N C^2) time, no n^2 allocation.

    Algebraically identical to the quadratic branch:

        o_i = (q_i / (n theta_i)) KV + sum_j v_j / n,   KV = khat^T V,

    with KV and the value sum read from the key pass.  The queries scaled
    by 1/(n theta) are the one (rows, C) temporary: scaled first, a row of
    large scores keeps its product with KV in range, where q KV alone
    would overflow.  The sentinel theta = inf scales a row by 0.  A scalar
    theta, one temperature for every row, is folded into KV instead, a
    C x D product, so the rows are not scaled.  The product goes straight
    into `out`, a (rows, D) array, when one is given.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != m.kv.shape[0]:
        raise ValueError(f"queries of shape {q.shape} do not match moments of dim {m.kv.shape[0]}")
    if np.ndim(theta) == 0:
        if not theta > 0.0:
            raise ValueError("theta must be positive (or the +inf sentinel)")
        theta = float(theta)
    else:
        theta = _check_theta(theta, q.shape[0])
    return _forward_linear(q, m, theta, out)


def _forward_linear(q: np.ndarray, m: KeyMoments, theta, out=None) -> np.ndarray:
    """`eala_forward_linear`'s kernel, on float64 queries and a checked
    theta, a float or one per row; a query pass's worker lane runs it."""
    if isinstance(theta, float):
        out = np.matmul(q, m.kv / (m.count * theta), out=out)
    else:
        # einsum scales the rows without the 64 KiB ufunc buffer of a broadcast multiply
        out = np.matmul(np.einsum("ij,i->ij", q, 1.0 / (m.count * theta)), m.kv, out=out)
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
    return _weights_from_scores(q @ kh.T, th, kh.shape[0])


def _weights_from_scores(w: np.ndarray, th: np.ndarray, n: int) -> np.ndarray:
    w /= th[:, None]
    w += 1.0
    w /= n
    return w


def _given_moments(q, m: KeyMoments, v_mat, path: str) -> KeyMoments:
    """The float64 arrays of key moments passed in K's place, checked
    against Q's features and the path; ValueError if they do not fit."""
    if v_mat is not None:
        raise ValueError("V must be None when K is given as its key moments")
    if path == "quadratic":
        raise ValueError("path='quadratic' needs K, not its key moments")
    if len(q.shape) != 2:
        raise ValueError("Q must be 2-D")
    arrays = [np.asarray(a, dtype=np.float64) for a in (m.mean, m.gram, m.kv, m.value_sum)]
    c, d = q.shape[1], (arrays[2].shape[1] if arrays[2].ndim == 2 else None)
    shapes = [a.shape for a in arrays]
    if shapes != [(c,), (c, c), (c, d), (d,)]:
        raise ValueError(f"key moments of shapes {shapes} (mean, gram, kv, value_sum) "
                         f"do not match Q of shape {q.shape}")
    if not (isinstance(m.count, (int, np.integer)) and m.count >= 1):
        raise ValueError(f"the key moments must count at least one key, not {m.count!r}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("the key moments hold NaN or inf")
    return KeyMoments(*arrays, count=int(m.count))


def eala_attention(q_mat, k_mat, v_mat, *, out=None, path: str = "auto",
                   entropies: bool = True) -> AttnResult:
    """Full pipeline: summarize keys, estimate entropy, match, average.

    Returns the output matrix along with the per-query entropy estimates
    and temperatures.
    NaN or inf in Q, K or V raises ValueError naming the input.  A finite
    input whose sums overflow names the sum; on either branch keys whose
    Gram overflows are named before an overflowing S2 of finite queries.
    `path` picks the forward branch: "linear", "quadratic", or "auto",
    which takes the quadratic branch exactly when C > N.

    Q, K and V are matrices or row readers (see `key_moments`).  `out`, a
    keyword as in numpy, receives the output and is returned as it: a
    (rows, D) array, or a row writer with a `shape` that takes
    `out[lo:hi] = block`.  After the key summaries, one pass over row
    blocks of queries takes each block through S2, the entropy, the
    temperature and the branch's forward, into its rows of `out` and of
    the result's entropies and thetas, so no n x D buffer is made.  On the
    linear branch, a pass over more than _QUERY_BLOCK keys or queries runs
    as two lanes of _LANE_BLOCK-row blocks, lane 1 on a worker thread when
    its inputs and output are arrays and `_WORKERS` is 2 (see
    `_run_lanes`); the result's bits do not depend on where it runs.
    The steps are `_score_moments`, `_approx_entropy` and the module
    docstring's closed form for theta, on inputs this pipeline checks once
    at its entry.  The quadratic branch reads K and V whole to centre K
    into khat, takes S2 as the row sums of squares of each block's scores
    q khat^T, builds no key moments, and turns those scores into its
    weights in place.

    With `entropies=False` the result's `entropies` is None, and the
    linear branch skips S2 on certified blocks (see `_certified_norms`);
    the output and thetas keep their bits.

    K may instead be a `KeyMoments`, with V None, as `mha_forward` passes
    each head's: then the call runs the linear branch's query pass on
    those moments, with no key pass, and its cost does not depend on n.
    Given `key_moments(K, V)`, it has the bits of the call on K and V
    wherever that takes the linear branch.  The quadratic path reads K
    itself, so it raises ValueError, as do moments whose shapes do not
    match Q, whose count is below 1, or that hold NaN or inf; "auto" takes
    the linear branch whatever n and C are.
    """
    if path not in _PATHS:
        raise ValueError(f"path must be one of {_PATHS}")
    q = _rows_source(q_mat)
    given = isinstance(k_mat, KeyMoments)  # K and V come as their key moments
    if given:
        m = k = _given_moments(q, k_mat, v_mat, path)
        v = None
        n, d = m.count, m.kv.shape[1]
    else:
        k, v = _rows_source(k_mat), _rows_source(v_mat)
        if len(q.shape) != 2 or len(k.shape) != 2 or len(v.shape) != 2:
            raise ValueError("Q, K, V must be 2-D")
        if q.shape[1] != k.shape[1]:
            raise ValueError(f"feature dims differ: Q {q.shape} vs K {k.shape}")
        n, d = k.shape[0], v.shape[1]
        if n == 0:
            raise ValueError("K must be nonempty: there is no key to attend to")
        if v.shape[0] != n:
            raise ValueError(f"K and V row counts differ: {n} vs {v.shape[0]}")
    rows = q.shape[0]
    if out is not None and tuple(out.shape) != (rows, d):
        raise ValueError(f"out of shape {tuple(out.shape)} is not the output's {(rows, d)}")
    if isinstance(out, np.ndarray) and any(
            isinstance(x, np.ndarray) and np.may_share_memory(out, x) for x in (q, k, v)):
        # a block written into out would change rows of Q or V still to be read
        res = eala_attention(q, k, v, path=path, entropies=entropies)
        out[...] = res.output
        return AttnResult(output=out, entropies=res.entropies, thetas=res.thetas)
    quadratic = not given and (path == "quadratic" or path == "auto" and q.shape[1] > n)
    certify = not quadratic and not entropies  # blocks may skip S2
    log_n = np.log(float(n))

    def block_s2(qb):
        """Q's block qb, its scores (None on the linear branch), its S2 >= 0
        and whether S2 is finite."""
        scores = qb @ khat.T if quadratic else None
        s2 = np.einsum("ij,ij->i", scores, scores) if quadratic else _score_moments(qb, m.gram)
        return qb, scores, s2, math.isfinite(s2 @ s2)

    # NaN or inf in K or V reaches the key mean or the value sum, and in Q
    # its block's S2, so their sums of squares check all three inputs with
    # no pass of their own.  With q holding inf, S2 is +inf or NaN (a sum
    # of squares, or q M q^T with M PSD, whose clamp at zero hides
    # nothing).  Floating-point warnings are silenced for those sums and
    # checks alone: an overflow in a later step still warns.  A call of one
    # query block takes its S2 under the key pass's errstate.  A certified
    # block's squared norms are not finite when Q's are not, and fail the
    # certificate, so such a block takes its S2 as any other.
    pending, sums = None, []  # given moments were checked whole
    with np.errstate(invalid="ignore", over="ignore"):
        if quadratic:
            k, v = k[0:n], v[0:n]
            khat, mean = center_keys(k)
            sums = [mean, np.add.reduce(v, axis=0)]
        elif not given:
            m = key_moments(k, v)
            sums = [m.mean, m.value_sum, m.kv]
        finite = math.isfinite(sum(map(np.vdot, sums, sums)))
        if finite and 0 < rows <= _QUERY_BLOCK and not certify:
            pending = block_s2(q[0:rows])
    if not finite:
        _name_nonfinite(list(zip("KVV", (k, v, v), sums, (
            "the key mean overflows float64 although K is finite",
            "the value sum overflows float64 although V is finite",
            "khat^T V overflows float64 although K and V are finite"))))
    bounds = _certified_norms(m.gram, n, log_n) if certify and rows else None
    ent, theta = np.empty(rows) if entropies else None, np.empty(rows)
    if out is None:
        out = np.empty((rows, d))
    lanes = not quadratic and rows > _QUERY_BLOCK

    def run(start, stop, on_worker, pending=None):
        """Q's rows start:stop through S2, the entropy, the temperature and
        the branch's forward into their rows of out, ent and theta, in
        blocks of _LANE_BLOCK rows on a lane, else of _QUERY_BLOCK."""
        forward = _forward_linear if on_worker else eala_forward_linear
        for lo, hi in _row_blocks(start, stop, _LANE_BLOCK if lanes else _QUERY_BLOCK):
            if pending is None:
                qb = q[lo:hi]
                with np.errstate(invalid="ignore", over="ignore"):
                    if bounds is not None and _block_certified(qb, bounds):
                        pending = qb, None, None, True
                    else:
                        pending = block_s2(qb)
            (qb, scores, s2, finite), pending = pending, None
            if not finite:  # NaN or inf in Q is named first, then an overflowing key Gram
                # the quadratic branch forms no Gram, and reads its trace sum khat^2
                gram = [] if given else [("K", k, np.vdot(khat, khat) if quadratic else m.gram,
                                          "the key Gram overflows float64 although K is finite")]
                _name_nonfinite([*gram, ("Q", qb, s2, "the score moment S2 overflows float64 although Q is finite")])
            if s2 is None:  # certified
                h, th = None, _THETA_UNCLIPPED
            else:
                h = _approx_entropy(s2, n, log_n) if entropies else None
                th = _approx_theta(s2, n, log_n)
            # copied into the call's arrays; the block's own are freed before the forward
            if entropies:
                ent[lo:hi] = h
            theta[lo:hi] = th
            s2 = h = None
            if isinstance(th, np.ndarray):  # else one temperature, folded into KV
                th = theta[lo:hi]
            dest = out[lo:hi] if isinstance(out, np.ndarray) else None
            if quadratic:
                block = eala_forward_quadratic(qb, khat, v, theta[lo:hi], out=dest, scores=scores)
            else:
                block = forward(qb, m, th, out=dest)
            qb = scores = None  # freed before the block is written
            if dest is None:
                out[lo:hi] = block
                del block  # freed before the next block's temporaries are made
    if lanes:
        _run_lanes(run, rows, _WORKERS > 1 and isinstance(q, np.ndarray) and isinstance(out, np.ndarray))
    else:
        run(0, rows, False, pending)
    return AttnResult(output=out, entropies=ent, thetas=theta)
