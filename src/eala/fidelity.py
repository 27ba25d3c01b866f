"""Side-by-side comparison of exact softmax attention and the linear family.

`compare` runs both implementations on one calibrated workload and scores
the approximation per query: the two entropy estimates, the closed-form
temperature against an independent bisection solve, the KL divergence from
the softmax weights to the linear weights, and ranking agreement.  After
one `eala_attention` call it makes one pass over equal blocks of queries,
of at least 64 rows as in `exact_attention`.  Each block forms its raw
scores once: their softmax entropies are the exact entropy column, and
one argsort of them gives the ranking column both its tie flags and its
sort.  It solves its temperatures with one batched `bisection_theta`
call and forms its exact and eala weight rows, which the KL and ranking
columns read and which are dropped before the next block.  No n x n
matrix is alive, and a report at n = 1024, c = 32 peaks at 7.5 MiB under
tracemalloc, in the ranking step.  The bisection, KL and
ranking values have the bits of the per-query 1-D oracle calls on the
block's rows.  Reports serialize to JSON and CSV with deterministic bytes
for a fixed seed, in a schema stated once: the workload echo is
`WorkloadSpec`'s fields, and `PER_QUERY` and `AGGREGATES` name the
columns and aggregates in the order both formats write them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _weights_from_scores, center_keys, eala_attention, eala_weights, theta_star
from .oracle import (_query_block_edges, bisection_theta, exact_attention, kl_divergence,
                     score_row_entropies)
from .workload import WorkloadSpec, gen_workload

# Queries whose sorted scores have an adjacent gap at or below this are
# excluded from ranking checks; their argsort is not well defined.
TIE_TOL = 1e-12

# The temperature solve costs O(n) per step for each query, a few steps to
# converge, so O(n^2 * steps) for a report; the column is skipped beyond this n.
BISECTION_N_LIMIT = 1024

ENTROPY_SOURCES = ("approx", "exact")

PER_QUERY = ("entropy_exact", "entropy_approx", "theta_closed",
             "theta_bisection", "kl", "weights_valid", "argsort_match")
AGGREGATES = ("mean_abs_entropy_err", "max_abs_entropy_err", "mean_kl",
              "argsort_match_rate", "output_max_rel_error")


@dataclass
class FidelityReport:
    workload: WorkloadSpec
    entropy_source: str
    entropy_exact: list
    entropy_approx: list
    theta_closed: list
    theta_bisection: list
    kl: list
    weights_valid: list
    argsort_match: list
    mean_abs_entropy_err: float
    max_abs_entropy_err: float
    mean_kl: float | None
    argsort_match_rate: float
    output_max_rel_error: float

    def to_dict(self) -> dict:
        return {
            "workload": dataclasses.asdict(self.workload),
            "entropy_source": self.entropy_source,
            "per_query": {k: getattr(self, k) for k in PER_QUERY},
            "aggregates": {k: getattr(self, k) for k in AGGREGATES},
        }

    def to_json(self) -> str:
        return json.dumps(jsonable(self.to_dict()), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(("query",) + PER_QUERY)]
        rows = zip(*(getattr(self, k) for k in PER_QUERY))
        lines += [",".join([str(i), *map(_csv_cell, row)]) for i, row in enumerate(rows)]
        lines += ["", "aggregate,value"]
        lines += [f"{k},{_csv_cell(getattr(self, k))}" for k in AGGREGATES]
        return "\n".join(lines) + "\n"


def jsonable(value):
    """JSON-safe copy: non-finite floats become the strings inf/-inf/nan."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    """One CSV cell; non-finite floats are named as `jsonable` names them."""
    value = jsonable(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _rank_comparison(scores: np.ndarray, exact_weights: np.ndarray,
                     eala_w: np.ndarray) -> list:
    """Per-query argsort agreement of two weight rows; None where tied.

    A query is tied when its sorted raw scores have an adjacent gap at or
    below TIE_TOL: both weight families are strictly monotone in the
    scores, so an ambiguous ranking can only come from near-equal scores,
    not from the weight transforms.

    The stable argsort pi of a row y is the one permutation along which the
    pairs (y[pi_i], pi_i) increase strictly.  So one sort of the exact row
    decides whether both rows have the same stable argsort: the eala row,
    gathered along it, must step up or stay level with rising indices.
    This needs eala weights free of NaN, which the finite scores and
    positive thetas of compare give.

    One default argsort of the scores gives both the tie flags, from the
    scores gathered along it, and that sort: where the exact row gathered
    along it increases strictly, it is the row's only sorting permutation,
    so the stable one.  Only other rows (equal weights from exp
    underflowing to 0, say) are sorted again with kind="stable".  The
    gathers index the flattened block; flat indices of one row keep its
    order, so they stand in for the permutation.
    """
    rows, n = scores.shape
    idx = np.argsort(scores, axis=1)
    idx += np.arange(0, rows * n, n)[:, None]
    s = np.take(scores, idx)
    tied = np.any(s[:, 1:] - s[:, :-1] <= TIE_TOL, axis=1)
    del s  # so that no more than two (rows, n) arrays of our own are alive
    x = np.take(exact_weights, idx)
    redo = np.flatnonzero(~np.all(x[:, :-1] < x[:, 1:], axis=1))
    del x
    if redo.size:
        idx[redo] = np.argsort(exact_weights[redo], axis=1, kind="stable")
        idx[redo] += redo[:, None] * n
    y = np.take(eala_w, idx)
    step = np.less(y[:, :-1], y[:, 1:])
    step |= (y[:, :-1] == y[:, 1:]) & (idx[:, :-1] < idx[:, 1:])
    same = np.all(step, axis=1)
    return [None if t else bool(s) for t, s in zip(tied, same)]


def compare(spec: WorkloadSpec, entropy_source: str = "approx") -> FidelityReport:
    """Run the full fidelity suite on one workload.

    The exact oracle and both entropy estimates always run; the reported
    temperatures, weights, KL column, and output error follow
    `entropy_source`.  "approx" reports the temperatures and output of
    `eala_attention`; "exact" feeds each query's softmax entropy H to
    `theta_star`, with S2 the row sum of squares of its scores q khat^T,
    which then become its eala weight rows in place, and takes the output
    as those rows times V.  The bisection
    column solves for the same per-query entropy target the closed form
    consumed, so their gap isolates the closed-form error; it is omitted
    for n above BISECTION_N_LIMIT.
    """
    if entropy_source not in ENTROPY_SOURCES:
        raise ValueError(f"entropy_source must be one of {ENTROPY_SOURCES}")
    exact_src = entropy_source == "exact"
    q_mat, k_mat, v_mat = gen_workload(spec)
    res = eala_attention(q_mat, k_mat, v_mat)

    khat, _ = center_keys(k_mat)
    n = spec.n
    entropy_exact = np.empty(n)
    thetas, targets = (np.empty(n), entropy_exact) if exact_src else (res.thetas, res.entropies)
    out_err = np.empty(n)
    bisect = n <= BISECTION_N_LIMIT
    bis_col: list = [] if bisect else [None] * n
    kl_col: list = []
    valid_col: list = []
    match_col: list = []
    edges = _query_block_edges(n, n)
    for lo, hi in zip(edges, edges[1:]):
        blk = slice(lo, hi)
        q_blk = q_mat[blk]
        raw = q_blk @ k_mat.T
        entropy_exact[blk] = score_row_entropies(raw)
        if bisect:
            # each score row is the product khat @ q_i of the query alone:
            # one GEMM over the block rounds some entries differently
            rows = np.empty((hi - lo, n))
            for j in range(hi - lo):
                np.matmul(khat, q_mat[lo + j], out=rows[j])
            bis = bisection_theta(rows, targets[blk])
            bis_col += [None if math.isnan(t) else t for t in bis.tolist()]
            del rows
        exact = exact_attention(q_blk, k_mat, v_mat, keep_weights=True, entropies=False)
        if exact_src:  # the scores q khat^T give S2 and become the eala weights in place
            eala_w = q_blk @ khat.T
            thetas[blk] = theta_star(np.einsum("ij,ij->i", eala_w, eala_w), entropy_exact[blk], n)
            _weights_from_scores(eala_w, thetas[blk], n)
        else:
            eala_w = eala_weights(q_blk, khat, thetas[blk])
        kl = kl_divergence(exact.weights, eala_w)
        valid = (np.min(eala_w, axis=1) > 0.0) & ~np.isnan(kl)
        kl_col += [v if ok else None for v, ok in zip(kl.tolist(), valid)]
        valid_col += valid.tolist()
        match_col += _rank_comparison(raw, exact.weights, eala_w)
        output = eala_w @ v_mat if exact_src else res.output[blk]
        diff = np.max(np.abs(output - exact.output), axis=1)
        out_err[blk] = diff / (np.max(np.abs(exact.output), axis=1) + 1e-15)
        del raw, exact, eala_w, output  # before the next block's rows are made

    err = np.abs(res.entropies - entropy_exact)
    scored = [m for m in match_col if m is not None]
    rate = (sum(scored) / len(scored)) if scored else 1.0
    valid_kls = [v for v in kl_col if v is not None]
    mean_kl = (sum(valid_kls) / len(valid_kls)) if valid_kls else None

    return FidelityReport(
        workload=spec, entropy_source=entropy_source,
        entropy_exact=entropy_exact.tolist(),
        entropy_approx=res.entropies.tolist(),
        theta_closed=thetas.tolist(),
        theta_bisection=bis_col,
        kl=kl_col,
        weights_valid=valid_col,
        argsort_match=match_col,
        mean_abs_entropy_err=float(np.mean(err)),
        max_abs_entropy_err=float(np.max(err)),
        mean_kl=mean_kl,
        argsort_match_rate=float(rate),
        output_max_rel_error=float(np.max(out_err)),
    )
