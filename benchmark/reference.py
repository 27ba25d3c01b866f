"""The benchmark's own reconstructions of what eala computes, and the checks
that compare the program's outputs against them.

Nothing here calls into eala except `check_eala`, which asks the program for
its weight rows so that their sums can be checked.  Every check returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

REL_TOL = 1e-9
# Criterion 06 of the acceptance suite: closed-form theta within 5% of the
# bisection theta.
THETA_GAP_TOL = 0.05

# EalaConfig defaults, restated so the reconstruction does not read them
# from the program it checks.
EPSILON = 1e-8
DENOM_FLOOR = 1e-12


def rel_err(got, want) -> float:
    """Largest absolute difference over the largest magnitude of `want`."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    if not np.array_equal(np.isinf(got), np.isinf(want)):
        return math.inf
    fin = np.isfinite(want)
    if not fin.any():
        return 0.0
    diff = float(np.max(np.abs(got[fin] - want[fin])))
    scale = float(np.max(np.abs(want[fin])))
    return diff / scale if scale > 0.0 else diff


def close(label: str, got, want, tol: float = REL_TOL) -> list[str]:
    err = rel_err(got, want)
    if err <= tol:
        return []
    return [f"{label}: relative error {err:.3e} over {tol:.0e}"]


def center(k: np.ndarray) -> np.ndarray:
    """Keys minus their column mean, taken as a plain sum over rows."""
    return k - k.sum(axis=0) / k.shape[0]


def eala_rows(q: np.ndarray, khat: np.ndarray, v: np.ndarray, rows):
    """Output, entropy estimate, theta and dense weights for the given query
    rows, from direct sums over the keys (no Gram matrix, no moments)."""
    n = khat.shape[0]
    log_n = math.log(n)
    a = q[rows] @ khat.T
    s1 = a.sum(axis=1)
    s2 = np.maximum((a * a).sum(axis=1), 0.0)
    base = n + s1
    h = np.clip(np.log(base) - (s1 + s2) / base, 0.0, log_n)
    gap = log_n - h
    degenerate = (s2 <= DENOM_FLOOR) | (gap <= DENOM_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(degenerate, np.inf, np.sqrt(s2 / (2.0 * n * gap)) + EPSILON)
    w = (1.0 + a / theta[:, None]) / n
    return w @ v, h, theta, w


def softmax_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray, rows):
    """Softmax attention output and entropy for the given query rows, through
    log-sum-exp: p = exp(s - lse), H = lse - sum p s."""
    s = q[rows] @ k.T
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(s - m).sum(axis=1))
    p = np.exp(s - lse[:, None])
    return p @ v, lse - (p * s).sum(axis=1)


def check_weight_rows(label: str, w: np.ndarray) -> list[str]:
    """Every row of an affine-family weight matrix sums to one."""
    return close(f"{label} weight row sums", np.sum(w, axis=1), np.ones(w.shape[0]))


def check_eala(label: str, eala, q, khat, v, res, rows) -> list[str]:
    """An eala_attention result against the reconstruction on `rows`."""
    out, h, theta, w = eala_rows(q, khat, v, rows)
    prog_w = eala.core.eala_weights(q[rows], khat, res.thetas[rows])
    return (close(f"{label} output", res.output[rows], out)
            + close(f"{label} entropies", res.entropies[rows], h)
            + close(f"{label} thetas", res.thetas[rows], theta)
            + close(f"{label} weights", prog_w, w)
            + check_weight_rows(label, prog_w))


def check_exact(label: str, q, k, v, res, rows) -> list[str]:
    """An exact_attention result against the log-sum-exp softmax on `rows`."""
    out, h = softmax_rows(q, k, v, rows)
    return (close(f"{label} output", res.output[rows], out)
            + close(f"{label} entropies", res.entropies[rows], h))


def mha_rows(params, x, rows, mode: str):
    """Rows of the multi-head layer, each head through the reconstruction."""
    q, k, v = x @ params.w_query, x @ params.w_key, x @ params.w_value
    hd = params.model_dim // params.heads
    pieces = []
    for h in range(params.heads):
        sl = slice(h * hd, (h + 1) * hd)
        if mode == "exact":
            out, _ = softmax_rows(q[:, sl], k[:, sl], v[:, sl], rows)
        else:
            out = eala_rows(q[:, sl], center(k[:, sl]), v[:, sl], rows)[0]
        pieces.append(out)
    return np.concatenate(pieces, axis=1) @ params.w_output


def check_mha(label: str, params, x, out, mode: str, rows) -> list[str]:
    return close(f"{label} output", out[rows], mha_rows(params, x, rows, mode))


def check_report(label: str, rep, q, k) -> list[str]:
    """Properties every fidelity report must have, plus its exact entropies
    against the log-sum-exp softmax."""
    fails = []
    n = len(rep.entropy_exact)
    kls = [x for x in rep.kl if x is not None]
    if not kls:
        fails.append(f"{label}: no query has a KL value")
    elif min(kls) < 0.0:
        fails.append(f"{label}: KL {min(kls)!r} is negative")
    ent = np.asarray(rep.entropy_exact, dtype=np.float64)
    if not np.all((ent >= 0.0) & (ent <= math.log(n))):
        fails.append(f"{label}: exact entropy outside [0, log n]")
    scored = [m for m in rep.argsort_match if m is not None]
    if not scored:
        fails.append(f"{label}: no query was scored for ranking")
    elif not all(scored):
        fails.append(f"{label}: {scored.count(False)} argsort mismatches")
    pairs = [(tc, tb) for tc, tb in zip(rep.theta_closed, rep.theta_bisection)
             if tb is not None]
    if not pairs:
        fails.append(f"{label}: no bisection theta")
    else:
        gap = max(abs(tc - tb) / tb for tc, tb in pairs)
        if gap > THETA_GAP_TOL:
            fails.append(f"{label}: theta gap {gap:.4f} over {THETA_GAP_TOL}")
    _, own = softmax_rows(q, k, np.zeros((k.shape[0], 1)), slice(None))
    return fails + close(f"{label} exact entropies", ent, own)


def read_ealt(path) -> np.ndarray:
    """Payload of an EALT tensor file, parsed here from the documented layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"EALT":
        raise ValueError(f"{path}: bad magic")
    _version, code, rank = struct.unpack("<BBH", raw[4:8])
    dims = struct.unpack(f"<{rank}Q", raw[8 : 8 + 8 * rank])
    dtype = {1: "<f4", 2: "<f8"}[code]
    return np.frombuffer(raw, dtype=dtype, offset=8 + 8 * rank).reshape(dims)
