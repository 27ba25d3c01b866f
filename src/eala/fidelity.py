"""Side-by-side comparison of exact softmax attention and the linear family.

`compare` runs both implementations on one calibrated workload and scores
the approximation per query: the two entropy estimates, the closed-form
temperature against an independent bisection solve, the KL divergence from
the softmax weights to the linear weights, and ranking agreement.  The
per-query columns are computed a block of queries at a time: one batched
`bisection_theta` call solves a whole block, and the KL and ranking columns
read the block's rows of the two weight matrices.  Each value has the bits
the per-query 1-D oracle calls give.  Reports serialize to JSON and CSV
with a fixed schema and deterministic bytes for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import EalaConfig, center_keys, eala_attention, eala_weights
from .oracle import bisection_theta, exact_attention, kl_divergence
from .workload import WorkloadSpec, gen_workload

# Queries whose sorted scores have an adjacent gap at or below this are
# excluded from ranking checks; their argsort is not well defined.
TIE_TOL = 1e-12

# Bisection costs O(n) per step for each query, about 50 steps to converge,
# so O(n^2 * steps) for a report; the column is skipped beyond this n.
BISECTION_N_LIMIT = 1024

# Queries per block of the per-query columns; scratch is O(block * n).
_ROW_BLOCK = 64


@dataclass
class FidelityReport:
    n: int
    c: int
    score_scale: float
    seed: int
    heads: int
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
            "workload": {
                "n": self.n,
                "c": self.c,
                "score_scale": self.score_scale,
                "seed": self.seed,
                "heads": self.heads,
            },
            "entropy_source": self.entropy_source,
            "per_query": {
                "entropy_exact": self.entropy_exact,
                "entropy_approx": self.entropy_approx,
                "theta_closed": self.theta_closed,
                "theta_bisection": self.theta_bisection,
                "kl": self.kl,
                "weights_valid": self.weights_valid,
                "argsort_match": self.argsort_match,
            },
            "aggregates": {
                "mean_abs_entropy_err": self.mean_abs_entropy_err,
                "max_abs_entropy_err": self.max_abs_entropy_err,
                "mean_kl": self.mean_kl,
                "argsort_match_rate": self.argsort_match_rate,
                "output_max_rel_error": self.output_max_rel_error,
            },
        }

    def to_json(self) -> str:
        return json.dumps(jsonable(self.to_dict()), indent=2) + "\n"

    def to_csv(self) -> str:
        header = ("query,entropy_exact,entropy_approx,theta_closed,"
                  "theta_bisection,kl,weights_valid,argsort_match")
        lines = [header]
        for i in range(self.n):
            lines.append(",".join([
                str(i),
                _csv_cell(self.entropy_exact[i]),
                _csv_cell(self.entropy_approx[i]),
                _csv_cell(self.theta_closed[i]),
                _csv_cell(self.theta_bisection[i]),
                _csv_cell(self.kl[i]),
                _csv_cell(self.weights_valid[i]),
                _csv_cell(self.argsort_match[i]),
            ]))
        lines.append("")
        lines.append("aggregate,value")
        lines.append(f"mean_abs_entropy_err,{_csv_cell(self.mean_abs_entropy_err)}")
        lines.append(f"max_abs_entropy_err,{_csv_cell(self.max_abs_entropy_err)}")
        lines.append(f"mean_kl,{_csv_cell(self.mean_kl)}")
        lines.append(f"argsort_match_rate,{_csv_cell(self.argsort_match_rate)}")
        lines.append(f"output_max_rel_error,{_csv_cell(self.output_max_rel_error)}")
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
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _tied_rows(scores: np.ndarray) -> np.ndarray:
    """Rows whose sorted scores have an adjacent gap at or below TIE_TOL.

    Ties are detected on the raw score rows: both weight families are
    strictly monotone in the scores, so an ambiguous ranking can only come
    from near-equal scores, not from the weight transforms.
    """
    m, n = scores.shape
    tied = np.zeros(m, dtype=bool)
    if n > 1:
        for lo in range(0, m, _ROW_BLOCK):
            srt = np.sort(scores[lo : lo + _ROW_BLOCK], axis=1)
            tied[lo : lo + _ROW_BLOCK] = np.min(np.diff(srt, axis=1), axis=1) <= TIE_TOL
    return tied


def _rank_comparison(tied: np.ndarray, exact_weights: np.ndarray,
                     eala_w: np.ndarray) -> list:
    """Per-query argsort agreement of two weight rows; None where tied.

    The stable argsort pi of a row y is the one permutation along which the
    pairs (y[pi_i], pi_i) increase strictly.  So one sort of the exact row
    decides whether both rows have the same stable argsort: the eala row,
    gathered along it, must step up or stay level with rising indices.
    This needs eala weights free of NaN, which the finite scores and
    positive thetas of compare give.

    Where the exact row gathered along numpy's default argsort increases
    strictly, that order is the only sorting permutation, so it is the
    stable one; only rows with equal weights (exp underflowing to 0, say)
    are sorted again with kind="stable".
    """
    order = np.argsort(exact_weights, axis=1)
    x = np.take_along_axis(exact_weights, order, axis=1)
    redo = np.flatnonzero(~np.all(x[:, :-1] < x[:, 1:], axis=1))
    del x  # so that no more than two (rows, n) arrays are alive at once
    if redo.size:
        order[redo] = np.argsort(exact_weights[redo], axis=1, kind="stable")
    y = np.take_along_axis(eala_w, order, axis=1)
    step = np.less(y[:, :-1], y[:, 1:])
    step |= (y[:, :-1] == y[:, 1:]) & (order[:, :-1] < order[:, 1:])
    same = np.all(step, axis=1)
    return [None if t else bool(s) for t, s in zip(tied, same)]


def _bisection_column(q_mat: np.ndarray, khat: np.ndarray, targets) -> list:
    """bisection_theta for each query, one batched call per row block.

    Each score row is the product khat @ q_i of the query alone: one GEMM
    over the block rounds some entries differently.
    """
    m, n = q_mat.shape[0], khat.shape[0]
    rows = np.empty((min(_ROW_BLOCK, m), n))
    col: list = []
    for lo in range(0, m, _ROW_BLOCK):
        a = rows[: min(_ROW_BLOCK, m - lo)]
        for j in range(a.shape[0]):
            np.matmul(khat, q_mat[lo + j], out=a[j])
        thetas = bisection_theta(a, targets[lo : lo + a.shape[0]])
        col += [None if math.isnan(t) else t for t in thetas.tolist()]
    return col


def compare(spec: WorkloadSpec, cfg: EalaConfig | None = None) -> FidelityReport:
    """Run the full fidelity suite on one workload.

    The exact oracle and both entropy estimates always run; the reported
    temperatures, weights, KL column, and output error follow
    cfg.entropy_source.  The bisection column solves for the same per-query
    entropy target the closed form consumed, so their gap isolates the
    closed-form error; it is omitted for n above BISECTION_N_LIMIT.
    """
    if cfg is None:
        cfg = EalaConfig()
    q_mat, k_mat, v_mat = gen_workload(spec)
    res_approx = eala_attention(q_mat, k_mat, v_mat,
                                dataclasses.replace(cfg, entropy_source="approx"))
    res_exact_src = eala_attention(q_mat, k_mat, v_mat,
                                   dataclasses.replace(cfg, entropy_source="exact"))
    selected = res_exact_src if cfg.entropy_source == "exact" else res_approx

    khat, _ = center_keys(k_mat)
    thetas = selected.thetas
    n = spec.n

    # Beyond three n x n matrices the columns keep O(block * n) scratch.  The
    # bisection runs before any of them exists, and the raw scores are gone
    # once the tie flags are known, so at most two are alive at once.
    if n <= BISECTION_N_LIMIT:
        bis_col = _bisection_column(q_mat, khat, selected.entropies)
    else:
        bis_col = [None] * n
    tied = _tied_rows(q_mat @ k_mat.T)
    exact = exact_attention(q_mat, k_mat, v_mat, keep_weights=True)
    # one GEMM over all queries: a row block of it can round differently
    eala_w = eala_weights(q_mat, khat, thetas)

    kl_col: list = []
    valid_col: list = []
    match_col: list = []
    for lo in range(0, n, _ROW_BLOCK):
        blk = slice(lo, lo + _ROW_BLOCK)
        kl = kl_divergence(exact.weights[blk], eala_w[blk])
        valid = (np.min(eala_w[blk], axis=1) > 0.0) & ~np.isnan(kl)
        kl_col += [v if ok else None for v, ok in zip(kl.tolist(), valid)]
        valid_col += valid.tolist()
        match_col += _rank_comparison(tied[blk], exact.weights[blk], eala_w[blk])

    err = np.abs(np.asarray(res_approx.entropies) - np.asarray(exact.entropies))
    scored = [m for m in match_col if m is not None]
    rate = (sum(scored) / len(scored)) if scored else 1.0
    valid_kls = [v for v in kl_col if v is not None]
    mean_kl = (sum(valid_kls) / len(valid_kls)) if valid_kls else None

    diff = np.max(np.abs(selected.output - exact.output), axis=1)
    denom = np.max(np.abs(exact.output), axis=1) + 1e-15
    out_err = float(np.max(diff / denom))

    return FidelityReport(
        n=spec.n, c=spec.c, score_scale=spec.score_scale, seed=spec.seed,
        heads=spec.heads, entropy_source=cfg.entropy_source,
        entropy_exact=[float(h) for h in exact.entropies],
        entropy_approx=[float(h) for h in res_approx.entropies],
        theta_closed=[float(t) for t in thetas],
        theta_bisection=bis_col,
        kl=kl_col,
        weights_valid=valid_col,
        argsort_match=match_col,
        mean_abs_entropy_err=float(np.mean(err)),
        max_abs_entropy_err=float(np.max(err)),
        mean_kl=mean_kl,
        argsort_match_rate=float(rate),
        output_max_rel_error=out_err,
    )
