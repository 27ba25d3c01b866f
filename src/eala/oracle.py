"""Exact softmax attention and the entropy machinery used as ground truth.

The routines here are quadratic in sequence length on purpose.  They trade
speed for being independently checkable: row entropies come straight from
the definition, the KL decomposition is evaluated term by term, and the
temperature solver finds the root of the family entropy itself, by a
bracketed Newton iteration; the closed form is not used.  Everything
downstream is validated against this module.

The family entropy, the temperature solver and the KL divergence also take
a 2-D stack of rows.  The stacked form runs the per-row checks and
arithmetic of the 1-D form on every row at once, so each row gets the same
bits; a row the 1-D form rejects with ValueError gives nan.  The solver
runs the family's checks on a row only at its bracket; its steps then only
evaluate the family, into two scratch buffers reused across them.

`exact_attention` runs over blocks of query rows, since softmax rows do
not depend on each other.  It divides each output row by its row's sum of
exponentials after the product with V, as FlashAttention does, so no pass
divides the n^2 weights unless they are kept.  It keeps the O(m n) weight
matrix only when asked for it; otherwise its scratch is O(block n) beside
the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Entries per row block of the in-place softmax pass: a block of float64
# stays in L2, and the only n^2 buffer alive is the score matrix itself.
_SOFTMAX_BLOCK_ENTRIES = 1 << 17

# Fewest query rows per block of exact_attention: thinner blocks make the
# two GEMMs per block too narrow to run at speed.
_MIN_QUERY_ROWS = 64

# Probability vectors must sum to 1 within this before we trust them.
SIMPLEX_TOL = 1e-12

# bisection_theta returns the first theta whose family entropy lies within
# _THETA_TOL of the target, and raises after _MAX_STEPS evaluations.
_THETA_TOL = 1e-10
_MAX_STEPS = 200


@dataclass
class AttnResult:
    """Output of an attention forward pass.

    output     : (m, d) matrix, one row per query
    weights    : (m, n) attention weights, kept only when requested
    entropies  : per-query Shannon entropy of the weight row, in nats
    thetas     : per-query temperatures, populated by the linear-family path
    """

    output: np.ndarray
    weights: np.ndarray | None = None
    entropies: np.ndarray | None = None
    thetas: np.ndarray | None = None


@dataclass
class KlDecomposition:
    kl: float
    entropy_gap: float
    cross_term: float
    bound: float


def _check_prob_vector(p, name: str = "p") -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(p < 0.0):
        raise ValueError(f"{name} has negative entries")
    s = float(np.sum(p))
    if abs(s - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"{name} sums to {s!r}, not 1")
    return p


def _entropy_unchecked(p: np.ndarray) -> float:
    mask = p > 0.0
    q = p[mask]
    return float(-np.sum(q * np.log(q)))


def _softmax_block_rows(n: int) -> int:
    """Rows per block of the softmax pass over rows of n scores."""
    return max(1, _SOFTMAX_BLOCK_ENTRIES // max(n, 1))


def _query_rows(n: int) -> int:
    """Rows per query block of exact_attention."""
    return max(_MIN_QUERY_ROWS, _softmax_block_rows(n))


def _query_block_edges(m: int, n: int) -> list:
    """Edges of equal blocks of m query rows over n keys.

    Each block is about the softmax pass's block, but none has fewer than
    64 rows unless m has: a GEMM of a few rows may take another BLAS kernel,
    with other bits, than the product over all rows.
    """
    blocks = max(1, min(-(-m // _query_rows(n)), m // _MIN_QUERY_ROWS))
    return [i * m // blocks for i in range(blocks + 1)]


def _exp_rows(scores: np.ndarray, ent: np.ndarray | None = None,
              z_buf: np.ndarray | None = None, keep_scores: bool = False) -> np.ndarray:
    """Row sums T of the exponentials e = exp(z), z = s - max s, of the rows
    of a score matrix, taken one row block at a time.

    Each row of `scores` is overwritten by its e.  `ent`, when given,
    takes the row entropies log T - sum(e z) / T, and a (block, n) scratch
    holds z; `z_buf`, when given, is that scratch, of at least
    min(m, block) rows of n, so a caller's loop can reuse it.  With `ent`,
    `keep_scores` leaves `scores` as it is and one more scratch takes e.
    Without `ent` the shifted scores are exponentiated in place, with no
    scratch.  Then T is nan on a row with a shifted score of -inf, two
    finite scores whose difference overflows, as its entropy would be:
    e = 0 there, where e z is 0 * -inf.
    """
    m, n = scores.shape
    rows = _softmax_block_rows(n)
    total = np.empty(m)
    if ent is not None and z_buf is None:
        z_buf = np.empty((min(m, rows), n))
    e_buf = np.empty((min(m, rows), n)) if keep_scores else None
    for lo in range(0, m, rows):
        blk = scores[lo : lo + rows]
        k = blk.shape[0]
        t = total[lo : lo + k]
        peak = np.max(blk, axis=1, keepdims=True)
        if ent is None:
            z = np.subtract(blk, peak, out=blk)
            low = np.min(z, axis=1)
            np.sum(np.exp(z, out=z), axis=1, out=t)
            t[low == -np.inf] = np.nan
        else:
            z = np.subtract(blk, peak, out=z_buf[:k])
            e = np.exp(z, out=blk if e_buf is None else e_buf[:k])
            np.sum(e, axis=1, out=t)
            ent[lo : lo + k] = np.log(t) - np.sum(np.multiply(e, z, out=z), axis=1) / t
    if ent is not None:
        np.maximum(ent, 0.0, out=ent)
    return total


def score_row_entropies(scores) -> np.ndarray:
    """Per-row softmax entropies of a score matrix, without keeping weights.

    Row blocks bound the scratch at O(block * n) beyond the input itself.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.size == 0:
        raise ValueError("score_row_entropies expects a nonempty 2-D array")
    ent = np.empty(s.shape[0])
    _exp_rows(s, ent, keep_scores=True)
    return ent


def _name_nonfinite(checks) -> None:
    """Raise ValueError naming the first input that holds NaN or inf.

    `checks` holds (name, input, summary, overflow) rows; each summary is a
    reduction over its input that the caller takes anyway, and NaN or inf
    in the input always reaches it.  Only an input whose summary is not
    finite pays for an O(size) look at itself, in row blocks through
    `x[lo:hi]`, so a 2-D input may also be a row reader.  If none of those
    inputs holds NaN or inf, a finite input overflowed, and the first such
    row's `overflow` message is raised; if every summary is finite, nothing
    is.
    """
    overflow = None
    for name, x, summary, message in checks:
        if np.isfinite(summary).all():
            continue
        step = _softmax_block_rows(x.shape[1])
        if not all(np.isfinite(x[lo:lo + step]).all() for lo in range(0, x.shape[0], step)):
            raise ValueError(f"{name} holds NaN or inf")
        overflow = overflow or message
    if overflow:
        raise ValueError(overflow)


def _softmax_blocks(q: np.ndarray, k: np.ndarray, v: np.ndarray, keep_weights: bool,
                    ent: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """exact_attention's pass over blocks of query rows: the output
    (E V) / T, the weights E / T when kept, and the row sums T."""
    m, n = q.shape[0], k.shape[0]
    edges = _query_block_edges(m, n)
    blocks = list(zip(edges, edges[1:]))
    if keep_weights:
        scores = np.empty((m, n))
        for lo, hi in blocks:
            np.matmul(q[lo:hi], k.T, out=scores[lo:hi])
        # the softmax pass's scratch is freed before the output is made
        total = _exp_rows(scores, ent)
        out = np.empty((m, v.shape[1]))
        for lo, hi in blocks:
            e, t = scores[lo:hi], total[lo:hi, None]
            np.divide(np.matmul(e, v, out=out[lo:hi]), t, out=out[lo:hi])
            np.divide(e, t, out=e)
        return out, scores, total
    rows = -(-m // len(blocks))
    s_buf = np.empty((rows, n))
    z_buf = None if ent is None else np.empty((min(rows, _softmax_block_rows(n)), n))
    total = np.empty(m)
    out = np.empty((m, v.shape[1]))
    for lo, hi in blocks:
        e = np.matmul(q[lo:hi], k.T, out=s_buf[:hi - lo])
        total[lo:hi] = _exp_rows(e, None if ent is None else ent[lo:hi], z_buf)
        np.divide(np.matmul(e, v, out=out[lo:hi]), total[lo:hi, None], out=out[lo:hi])
    return out, None, total


def exact_attention(q_mat, k_mat, v_mat, keep_weights: bool = False, *,
                    entropies: bool = True) -> AttnResult:
    """Dense softmax attention, the quadratic reference implementation.

    q_mat (m, c), k_mat (n, c), v_mat (n, d).  The scores are the raw dot
    products; pass q / sqrt(c) for scaled ones.  One pass over equal
    blocks of query rows, each about the softmax pass's block but none
    under 64 rows unless m is, scores each block, turns each row's scores
    s into their exponentials e = exp(s - max s) in place, and writes the
    block's output rows as (E V) / T, with T the row sums of e: the
    division is of the m x d output, not of the weights.  With
    `keep_weights` the blocks are rows of the m x n score matrix, which
    becomes the returned weight matrix E / T after the products; without
    it they share one reused (rows, n) buffer, so the scratch beside the
    output is O(rows n + m).  Both forms run the same GEMMs on the same
    blocks, so they give the same output bits.

    `entropies=False` changes the cost of a call, never its output bits:
    the result's `entropies` is None, the shifted scores are exponentiated
    in place with no scratch, and no entropy pass runs.  Every form raises
    on the same inputs.  NaN or inf in Q, K or V raises ValueError naming
    the input, with no queries too; a score or an output that overflows
    although the inputs are finite is told apart.
    """
    q = np.asarray(q_mat, dtype=np.float64)
    k = np.asarray(k_mat, dtype=np.float64)
    v = np.asarray(v_mat, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"feature dims differ: q {q.shape} vs k {k.shape}")
    if k.shape[0] == 0:
        raise ValueError("K must be nonempty: there is no key to attend to")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"k and v row counts differ: {k.shape[0]} vs {v.shape[0]}")
    if q.shape[0] == 0:
        # no entropy or output entry reads K or V, so they are scanned here
        _name_nonfinite([("K", k, k, None), ("V", v, v, None)])
    ent = np.empty(q.shape[0]) if entropies else None
    # NaN or inf in Q or K reaches a row entropy or row sum, and in V the
    # output, so the inputs are scanned only when the summed squares are
    # not finite
    with np.errstate(invalid="ignore", over="ignore"):
        out, scores, total = _softmax_blocks(q, k, v, keep_weights, ent)
        rowwise = total if ent is None else ent
        flat = out.reshape(-1)
        finite = math.isfinite(rowwise @ rowwise + flat @ flat)
        if not finite and np.isfinite(rowwise).all() and np.isfinite(v).all():
            # a row of E V sums up to n exponentials of at most 1 times V, so
            # it may overflow where W V does not: V is scaled by 2^-(b + 1),
            # 2^b > n, which is exact for normal entries, and the output back
            grow = 2.0 ** (k.shape[0].bit_length() + 1)
            out = scores = None
            out, scores, total = _softmax_blocks(q, k, v / grow, keep_weights, ent)
            out *= grow
            flat = out.reshape(-1)
            finite = math.isfinite(flat @ flat)
    if not finite:
        bad_scores = "a score overflows float64 although Q and K are finite"
        _name_nonfinite([("Q", q, rowwise, bad_scores), ("K", k, rowwise, bad_scores),
                         ("V", v, out, "the output overflows float64 although V is finite")])
    return AttnResult(
        output=out,
        weights=scores,
        entropies=ent,
    )


def _prob_rows_ok(p: np.ndarray) -> np.ndarray:
    """Per row, whether _check_prob_vector would accept it."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.sum(p, axis=1)
    return (np.all(np.isfinite(p), axis=1) & (np.min(p, axis=1) >= 0.0)
            & (np.abs(total - 1.0) <= SIMPLEX_TOL))


def _kl_unchecked(q: np.ndarray, p: np.ndarray) -> float:
    mask = q > 0.0
    return float(np.sum(q[mask] * np.log(q[mask] / p[mask])))


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """kl_divergence of each row pair; nan where the 1-D form raises."""
    mass = q > 0.0
    ok = (_prob_rows_ok(q) & _prob_rows_ok(p)
          & ~np.any(mass & (p == 0.0), axis=1))
    full = np.all(mass, axis=1)
    out = np.full(q.shape[0], np.nan)
    # rows with no zero in q sum every term, as the 1-D mask keeps them all;
    # when every row is such a row, q and p are read in place, not copied
    dense = np.flatnonzero(ok & full)
    if dense.size:
        rows = slice(None) if dense.size == q.shape[0] else dense
        qd = q[rows]
        terms = np.divide(qd, p[rows], out=np.empty(qd.shape))
        np.log(terms, out=terms)
        terms *= qd
        out[dense] = np.sum(terms, axis=1)
    for i in np.flatnonzero(ok & ~full):
        out[i] = _kl_unchecked(q[i], p[i])
    return np.where(out < 0.0, 0.0, out)


def kl_divergence(q, p) -> float | np.ndarray:
    """KL(q || p) in nats.

    Requires p_i > 0 wherever q_i > 0.  The true value is nonnegative for
    exact simplex inputs; rounding in inputs that only sum to 1 within
    tolerance can push the sum a hair below zero, and that noise is clamped.

    2-D `q` and `p` of one shape are stacks of m distributions, and the
    result is the (m,) array of row divergences: each row gets the bits of
    the 1-D call on it, or nan where the 1-D form raises ValueError.
    """
    q_arr = np.asarray(q, dtype=np.float64)
    p_arr = np.asarray(p, dtype=np.float64)
    if q_arr.ndim == 2 and p_arr.ndim == 2:
        if q_arr.shape != p_arr.shape or q_arr.size == 0:
            raise ValueError("q and p must be nonempty 2-D stacks of the same shape")
        return _kl_rows(q_arr, p_arr)
    q = _check_prob_vector(q_arr, "q")
    p = _check_prob_vector(p_arr, "p")
    if q.shape != p.shape:
        raise ValueError("q and p must have the same length")
    mask = q > 0.0
    if np.any(p[mask] == 0.0):
        raise ValueError("kl_divergence undefined: q puts mass where p has none")
    return max(_kl_unchecked(q, p), 0.0)


def kl_decomposition(q, p) -> KlDecomposition:
    """Split KL(q || p) into an entropy gap plus a cross term.

        KL(q || p) = (H(p) - H(q)) + sum_i (p_i - q_i) log p_i

    holds whenever the divergence is defined, and

        KL(q || p) <= |H(q) - H(p)| + |sum_i (p_i - q_i) log p_i|

    is the triangle-inequality bound reported alongside it.  Entries where
    p_i = 0 force q_i = 0 and contribute nothing to the cross term.
    """
    q = _check_prob_vector(q, "q")
    p = _check_prob_vector(p, "p")
    if q.shape != p.shape:
        raise ValueError("q and p must have the same length")
    kl = kl_divergence(q, p)
    h_q = _entropy_unchecked(q)
    h_p = _entropy_unchecked(p)
    mask = p > 0.0
    cross = float(np.sum((p[mask] - q[mask]) * np.log(p[mask])))
    gap = h_p - h_q
    return KlDecomposition(
        kl=kl,
        entropy_gap=gap,
        cross_term=cross,
        bound=abs(h_q - h_p) + abs(cross),
    )


def strict_concavity_check(p, q, lam: float) -> float:
    """Concavity margin H(lam p + (1-lam) q) - [lam H(p) + (1-lam) H(q)].

    Strictly positive whenever p != q and 0 < lam < 1; micro-negative
    rounding noise is clamped to zero.
    """
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie strictly inside (0, 1)")
    # mixing p with itself is p; going through float lam would say otherwise
    mix = p if np.array_equal(p, q) else lam * p + (1.0 - lam) * q
    margin = _entropy_unchecked(mix) - (lam * _entropy_unchecked(p)
                                        + (1.0 - lam) * _entropy_unchecked(q))
    if -1e-12 < margin < 0.0:
        margin = 0.0
    return margin


# Why a score row is rejected, by code: the checks of linear_family_entropy
# (1-3), then those bisection_theta adds (4-7), whose messages depend on the
# call and are built there.
(_NON_FINITE, _NOT_CENTERED, _BAD_THETA,
 _ZERO_ROW, _OUT_OF_RANGE, _BELOW_RANGE, _NO_VALID_EDGE) = range(1, 8)
_REJECTIONS = {
    _NON_FINITE: "a must be finite",
    _NOT_CENTERED: "a must sum to zero (centered scores)",
    _BAD_THETA: "theta must be a positive finite number",
    _ZERO_ROW: "a is identically zero; every theta gives uniform weights",
}


def _family_rejects(a: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per row of `a`, 0 or the code of the first check of
    linear_family_entropy that the row fails at this theta."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.sum(a, axis=1)
        amax = np.maximum(np.max(a, axis=1), -np.min(a, axis=1))
        code = np.zeros(a.shape[0], dtype=np.intp)
        code[~(np.isfinite(theta) & (theta > 0.0))] = _BAD_THETA
        code[np.abs(total) > 1e-9 * np.maximum(1.0, amax)] = _NOT_CENTERED
    # a finite sum needs finite entries; only rows whose sum is not finite
    # (a non-finite entry, or overflow) are scanned entry by entry
    unsure = np.flatnonzero(~np.isfinite(total))
    code[unsure[~np.all(np.isfinite(a[unsure]), axis=1)]] = _NON_FINITE
    return code


def _family_entropy(a: np.ndarray, theta: np.ndarray, usable: np.ndarray,
                    w: np.ndarray | None = None,
                    logs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy, validity and tilt sum_j a_j log w_j of the family per row;
    the entropy is nan where not valid.

    Rows outside `usable` are computed with the rest and then masked, so
    their entropies never reach the caller.  `w` and `logs` are optional
    scratch of the shape of `a`, which neither may alias; both are
    overwritten.
    """
    n = a.shape[1]
    with np.errstate(all="ignore"):
        w = np.divide(a, theta[:, None], out=w)
        w += 1.0
        w /= n
        valid = usable & (np.min(w, axis=1) > 0.0)
        logs = np.log(w, out=logs)
        h = -np.sum(np.multiply(w, logs, out=w), axis=1)
        tilt = np.sum(np.multiply(a, logs, out=logs), axis=1)
    h[~valid] = np.nan
    return h, valid, tilt


def linear_family_entropy(a, theta) -> tuple[float | np.ndarray, bool | np.ndarray]:
    """Entropy of the affine weight family w_j = (1 + a_j / theta) / n.

    `a` must be centered (sum zero within 1e-9) so the weights sum to one.
    Returns (entropy, True) when every weight is strictly positive, which
    needs theta > max_j |a_j|; otherwise (nan, False).

    A 2-D `a` is a stack of m such score rows with one theta per row, and
    the result is then a pair of (m,) arrays.  Each row runs
    the same checks and gets the same bits as the 1-D call on it, except
    that a row the 1-D form rejects with ValueError gives (nan, False).
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        if arr.size == 0:
            raise ValueError("a must be a nonempty 2-D stack of rows")
        th = np.asarray(theta, dtype=np.float64)
        if th.shape != arr.shape[:1]:
            raise ValueError("theta must hold one entry per row of a")
        return _family_entropy(arr, th, _family_rejects(arr, th) == 0)[:2]
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a must be a nonempty 1-D array")
    rows = arr[None, :]
    th = np.full(1, theta, dtype=np.float64)
    code = _family_rejects(rows, th)[0]
    if code:
        raise ValueError(_REJECTIONS[code])
    h, valid, _ = _family_entropy(rows, th, np.ones(1, dtype=bool))
    return float(h[0]), bool(valid[0])


def _bisect_rows(a: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solve of bisection_theta, run on every row of `a` at once.

    Returns (theta, code, h_lo) per row: code is 0 or the rejection the 1-D
    form raises for that row, theta is nan where code is not 0, and h_lo
    is the family entropy at the bracket's lower edge.  Every row keeps
    its own bracket and iterate and takes the steps a lone row would; a
    row leaves the active set once it converges.  Each step evaluates the
    family only on the active rows, into two scratch buffers.
    """
    m, n = a.shape
    log_n = float(np.log(n))
    theta = np.full(m, np.nan)
    h_lo = np.full(m, np.nan)
    amax = np.max(np.abs(a), axis=1)
    code = np.zeros(m, dtype=np.intp)
    code[~((targets > 0.0) & (targets < log_n))] = _OUT_OF_RANGE
    code[amax == 0.0] = _ZERO_ROW
    code[~np.all(np.isfinite(a), axis=1)] = _NON_FINITE
    with np.errstate(over="ignore"):
        lo = amax * (1.0 + 1e-9)
        hi = 1e9 * amax
    # the bracket's first entropy call runs the family's checks
    live = np.flatnonzero(code == 0)
    if live.size:
        code[live] = _family_rejects(a[live], lo[live])
        live = live[code[live] == 0]
    if live.size:
        h_lo[live], valid = linear_family_entropy(a[live], lo[live])
        edge = live[~valid]
        if edge.size:
            # only reachable through rounding at the bracket edge
            with np.errstate(over="ignore"):
                lo[edge] = amax[edge] * (1.0 + 1e-6)
            code[edge[~np.isfinite(lo[edge])]] = _BAD_THETA
            edge = edge[code[edge] == 0]
            if edge.size:
                h_lo[edge], valid = linear_family_entropy(a[edge], lo[edge])
                # max|a| (1 + 1e-6) rounds to max|a| only near the subnormals
                code[edge[~valid]] = _NO_VALID_EDGE
        code[live[(code[live] == 0) & (targets[live] < h_lo[live])]] = _BELOW_RANGE
        # a bracket whose edges sum past the float64 range fails the theta
        # check, at its midpoint lo + hi = inf
        with np.errstate(over="ignore"):
            code[live[(code[live] == 0) & ~np.isfinite(lo[live] + hi[live])]] = _BAD_THETA

    # every iterate lies inside the bracket, so the family's checks hold
    # there and each step only evaluates it
    act = np.flatnonzero(code == 0)
    rows = a[act]
    lo, hi, target = lo[act], hi[act], targets[act]
    w_buf, log_buf = np.empty_like(rows), np.empty_like(rows)
    with np.errstate(all="ignore"):
        # the second-order root x0 = 2 n (log n - target) / sum a^2, with a
        # scaled by max|a| so that its squares neither overflow nor vanish
        peak = amax[act]
        scaled = np.divide(rows, peak[:, None], out=w_buf)
        t = peak * np.sqrt(np.sum(np.multiply(scaled, scaled, out=scaled), axis=1)
                           / (2 * n * (log_n - target)))
    for _ in range(_MAX_STEPS):
        if act.size == 0:
            break
        k = act.size
        # the geometric midpoint of the bracket's gaps to theta = max|a|
        mid = peak + np.sqrt(lo - peak) * np.sqrt(hi - peak)
        t = np.where((lo < t) & (t < hi), t, mid)
        h, _, tilt = _family_entropy(rows, t, np.ones(k, dtype=bool),
                                     w_buf[:k], log_buf[:k])
        done = np.abs(h - target) <= _THETA_TOL
        below = h < target
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        theta[act[done]] = t[done]
        with np.errstate(all="ignore"):
            # Newton in x = 1 / theta^2, where dH/dx = -tilt theta / (2 n):
            # x' = x (1 + 2 n theta (h - target) / tilt)
            t = t / np.sqrt(1.0 + 2 * n * t * (h - target) / tilt)
        if done.any():
            stay = ~done
            act, rows, target = act[stay], rows[stay], target[stay]
            lo, hi, t, peak = lo[stay], hi[stay], t[stay], peak[stay]
    if act.size:
        raise RuntimeError("bisection did not converge; bracket or tolerance is off")
    return theta, code, h_lo


def bisection_theta(a, target_entropy) -> float | np.ndarray:
    """Solve H(w(theta)) = target_entropy for the affine family.

    The family entropy increases strictly with theta on the all-positive
    regime and tends to log n from below, so the objective is monotone and
    a bracket [max|a| (1 + 1e-9), 1e9 max|a|] pins the root when one
    exists; a lower edge whose weights round to zero moves to
    max|a| (1 + 1e-6).  Raises when `a` is all zero (family is uniform
    regardless of theta), when the target lies outside the attainable
    range, or when max|a| is so near the subnormals that the moved edge
    still rounds to it and no theta gives positive weights.

    The solve is a bracketed Newton iteration in x = 1 / theta^2, in which
    the entropy deficit log n - H is nearly linear.  It starts at the
    second-order root x0 = 2 n (log n - target) / sum a^2.  The slope
    dH/dx = -sum_j a_j log w_j / (2 n sqrt(x)) comes from the log pass
    that gives H.  Each evaluation moves one bracket edge to its theta by
    the sign of H - target, and a step that leaves the bracket falls back
    to the bracket's midpoint, taken as the geometric mean of the edges'
    gaps to max|a|.  Near that validity edge the slope grows without
    bound and Newton steps from above the root overshoot; this midpoint
    reaches such a root in a few steps, where halving theta from
    1e9 max|a| would take about thirty.  It stops at the first theta where
    the computed family entropy, with the bits linear_family_entropy gives,
    lies within _THETA_TOL = 1e-10 of the target, and raises RuntimeError
    when _MAX_STEPS = 200 evaluations find none.  The slope only steers the
    iterates: its rounding can cost steps, but a returned theta always meets
    the tolerance.

    A 2-D `a` is a stack of m score rows with one target per row, and the
    result is an (m,) array.  All rows are solved together, and each row
    gets the bits of the 1-D call on it, except that a row the 1-D form
    rejects with ValueError gives nan.  A row that does not converge
    raises RuntimeError in both forms.

    Either form runs the family's checks on each row only at the bracket,
    through linear_family_entropy.  Only the theta check depends on theta;
    a bracket whose edges sum past the float64 range fails it, and every
    iterate inside a bracket passes it.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        targets = np.asarray(target_entropy, dtype=np.float64)
        if targets.shape != arr.shape[:1]:
            raise ValueError("target_entropy must hold one entry per row of a")
        if arr.shape[1] < 2:
            return np.full(arr.shape[0], np.nan)
        return _bisect_rows(arr, targets)[0]
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("a must be a 1-D array with at least two entries")
    theta, code, h_lo = _bisect_rows(arr[None, :], np.full(1, target_entropy, dtype=np.float64))
    log_n = float(np.log(arr.size))
    if code[0] == _OUT_OF_RANGE:
        raise ValueError(
            f"target entropy {target_entropy!r} outside (0, log n) = (0, {log_n!r})"
        )
    if code[0] == _NO_VALID_EDGE:
        raise ValueError(
            f"max|a| = {float(np.max(np.abs(arr)))!r} is too close to zero: no float64 "
            "theta above it gives every weight positive")
    if code[0] == _BELOW_RANGE:
        raise ValueError(
            f"target entropy {target_entropy!r} below the attainable range "
            f"[{float(h_lo[0])!r}, {log_n!r}) of this score vector"
        )
    if code[0]:
        raise ValueError(_REJECTIONS[code[0]])
    return float(theta[0])
