"""Wall-time scaling benchmarks and an analytic peak-allocation model.

Memory is modeled, not measured: each mode has a closed-form byte count
per allocation class (n^2, n*c, c^2, n, c), mirroring the buffers its
implementation actually creates.  That keeps the O(n c + c^2) versus
O(n^2) claim testable without OS-specific probes; the tests hold the
eala-linear and exact models to a tracemalloc measurement.  A time is the
fastest of repeated runs, each after a discarded warm-up, taken
round-robin across sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import _QUERY_BLOCK, EalaConfig, eala_attention
from .oracle import _softmax_block_rows, exact_attention
from .workload import gen_workload_raw

MODES = ("exact", "eala-linear", "eala-quadratic")

_F8 = 8  # bytes per float64

# Refuse any run whose modeled peak exceeds this (override per call).
DEFAULT_MEM_LIMIT_BYTES = 4 << 30


class BenchResourceError(RuntimeError):
    """Modeled allocation exceeds the configured memory budget."""


@dataclass
class BenchRecord:
    mode: str
    n: int
    c: int
    wall_time: float
    analytic_peak_bytes: int


def allocation_model(mode: str, n: int, c: int) -> dict[str, int]:
    """Peak live bytes per allocation class for one forward pass.

    exact............ exact_attention with kept weights, the materialised
                      baseline: Q,K,V (3nc) + the n*n score buffer that
                      becomes the returned weights + row
                      entropies (n) + the larger of the output (nc) and the
                      softmax kernel's one (min(n, block), n) scratch,
                      counted under nc: it is freed before the output is
                      made
    eala-quadratic... Q,K,V,khat,out (5nc) + the weights of one query
                      block, min(n, block) rows of n, counted under n2
                      (its scores, which give S2, are freed first) + the
                      ufunc buffer (np.getbufsize() entries, at most the
                      weights) of dividing them by theta, under nc +
                      entropy, theta (2n) + one block's S2 (under n) +
                      key mean, value sum (2c); no Gram
    eala-linear...... Q,K,V,out (4nc) + one block of min(n, block) rows
                      of c, counted under nc: the product q M in the score
                      moments, or the queries scaled by 1/(n theta) in the
                      forward, which is made after q M is freed, with the
                      ufunc buffer (at most one block) that the scaling
                      takes; the key pass's (block, c + 1) scratch is freed
                      before either + gram and KV (2c^2) +
                      entropy, theta (2n) + one block's S2 and the entropy
                      estimate's two temporaries (3 min(n, block), counted
                      under n) + key mean, value sum (2c); no khat and no
                      n^2 class at all
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n < 1 or c < 1:
        raise ValueError("n and c must be at least 1")
    if mode == "exact":
        return {
            "n2": _F8 * n * n,
            "nc": _F8 * (3 * n * c + max(n * c, min(n, _softmax_block_rows(n)) * n)),
            "c2": 0,
            "n": _F8 * n,
            "c": 0,
        }
    block = min(n, _QUERY_BLOCK)
    if mode == "eala-quadratic":
        return {
            "n2": _F8 * block * n,
            "nc": _F8 * (5 * n * c + min(block * n, np.getbufsize())),
            "c2": 0,
            "n": _F8 * (2 * n + block),
            "c": _F8 * 2 * c,
        }
    return {
        "n2": 0,
        "nc": _F8 * ((4 * n + block) * c + min(block * c, np.getbufsize())),
        "c2": _F8 * 2 * c * c,
        "n": _F8 * (2 * n + 3 * block),
        "c": _F8 * 2 * c,
    }


def _forward_fn(mode: str):
    if mode == "exact":
        return lambda q, k, v: exact_attention(q, k, v, keep_weights=True)
    path = "linear" if mode == "eala-linear" else "quadratic"
    cfg = EalaConfig(path=path)
    return lambda q, k, v: eala_attention(q, k, v, cfg)


def bench_sweep(mode: str, n_list, c: int, repeats: int = 5, seed: int = 0,
                mem_limit_bytes: int = DEFAULT_MEM_LIMIT_BYTES) -> list[BenchRecord]:
    """Fastest wall time of `mode` at each n over `repeats` timed runs.

    Runs never overlap.  Each repeat visits every size once, smallest
    first, so a slow spell of the host lands on all sizes alike instead of
    on all repeats of one size, which would bend the fitted slope.  At
    each visit two calls run back to back and only the second is timed:
    the first, discarded, leaves the allocator and caches as a call at the
    same size does, where a call at another size would leave them colder.
    Other load on the host only ever adds time, so the minimum, not the
    median, is kept.  The inputs of every size are held at once; the
    budget covers them plus the modeled peak of the call running.
    Workloads are uncalibrated Gaussians: values do not affect the
    arithmetic cost being measured.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    sizes = [int(n) for n in n_list]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_list must be nonempty and strictly ascending")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    held = sum(3 * _F8 * n * c for n in sizes)
    peaks = []
    for n in sizes:
        peak = sum(allocation_model(mode, n, c).values())
        others = held - 3 * _F8 * n * c
        if others + peak > mem_limit_bytes:
            raise BenchResourceError(
                f"{mode} at n={n}, c={c} models {peak} bytes plus {others} "
                f"bytes of other sizes' inputs, over the {mem_limit_bytes}-byte budget"
            )
        peaks.append(peak)
    fn = _forward_fn(mode)
    inputs = [gen_workload_raw(n, c, seed) for n in sizes]
    times = [[] for _ in sizes]
    for _ in range(repeats):
        for args, ts in zip(inputs, times):
            fn(*args)  # warm-up, discarded
            t0 = time.perf_counter()
            fn(*args)
            ts.append(time.perf_counter() - t0)
    return [
        BenchRecord(mode=mode, n=n, c=c, wall_time=min(ts),
                    analytic_peak_bytes=peak)
        for n, ts, peak in zip(sizes, times, peaks)
    ]


def fit_loglog_slope(records) -> float:
    """Least-squares slope of log(wall_time) against log(n).

    Accepts BenchRecords or anything with n and wall_time attributes;
    needs at least three distinct sizes to fit.
    """
    ns = np.asarray([r.n for r in records], dtype=np.float64)
    ts = np.asarray([r.wall_time for r in records], dtype=np.float64)
    if len(set(ns.tolist())) < 3:
        raise ValueError("need at least 3 records with distinct n")
    if np.any(ts <= 0.0):
        raise ValueError("wall times must be positive")
    slope, _ = np.polyfit(np.log(ns), np.log(ts), 1)
    return float(slope)


def records_to_csv(records) -> str:
    """Fixed-schema CSV: mode,n,c,wall_time,analytic_peak_bytes."""
    lines = ["mode,n,c,wall_time,analytic_peak_bytes"]
    for r in records:
        lines.append(f"{r.mode},{r.n},{r.c},{r.wall_time!r},{r.analytic_peak_bytes}")
    return "\n".join(lines) + "\n"
