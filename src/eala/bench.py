"""Wall-time scaling benchmarks with a measured peak allocation.

A time is the fastest of repeated runs, each after a discarded warm-up,
taken round-robin across sizes.  The peak is measured, not modeled: it is
the tracemalloc peak of one more, untimed call per size, and counts the
bytes that call allocates, its output included, but not its inputs.  A
coarse bound per mode (`allocation_model`) only keeps a sweep inside its
memory budget before anything runs.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import _QUERY_BLOCK, EalaConfig, eala_attention
from .oracle import exact_attention
from .workload import gen_workload_raw

MODES = ("exact", "eala-linear", "eala-quadratic")

_F8 = 8  # bytes per float64

# Refuse any run whose bounded peak exceeds this (override per call).
DEFAULT_MEM_LIMIT_BYTES = 4 << 30


class BenchResourceError(RuntimeError):
    """Bounded allocation exceeds the configured memory budget."""


@dataclass
class BenchRecord:
    mode: str
    n: int
    c: int
    wall_time: float
    peak_bytes: int


def allocation_model(mode: str, n: int, c: int) -> dict[str, int]:
    """Coarse bound on the live bytes of one forward pass: its large buffers.

    Q, K, V and the output go under "nc".  Under "n2", exact adds its n x n
    weights, eala-quadratic the weights of one query block (min(n, 2048)
    rows of n), and eala-linear nothing.  Smaller buffers are left out:
    this only guards `bench_sweep`'s memory budget before any run, and
    `bench_sweep` measures the peak itself.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n < 1 or c < 1:
        raise ValueError("n and c must be at least 1")
    rows = {"exact": n, "eala-quadratic": min(n, _QUERY_BLOCK), "eala-linear": 0}[mode]
    return {"n2": _F8 * rows * n, "nc": _F8 * 4 * n * c}


def _forward_fn(mode: str):
    if mode == "exact":
        return lambda q, k, v: exact_attention(q, k, v, keep_weights=True)
    path = "linear" if mode == "eala-linear" else "quadratic"
    cfg = EalaConfig(path=path)
    return lambda q, k, v: eala_attention(q, k, v, cfg)


def _traced_peak(fn, args) -> int:
    """Peak bytes one call allocates, by tracemalloc, above those live before.

    A tracemalloc session the caller already runs is used and left running
    (its peak is reset); otherwise one is started for the call and stopped.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


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
    median, is kept.  After every timed call, one more call per size runs
    under tracemalloc for `peak_bytes`; it comes last because tracing a
    call shifts the allocator, and so the timings, of the calls after it.
    The inputs of every size are held at once; the budget covers them plus
    `allocation_model`'s bound for the call running.
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
    for n in sizes:
        bound = sum(allocation_model(mode, n, c).values())
        others = held - 3 * _F8 * n * c
        if others + bound > mem_limit_bytes:
            raise BenchResourceError(
                f"{mode} at n={n}, c={c} needs about {bound} bytes plus {others} "
                f"bytes of other sizes' inputs, over the {mem_limit_bytes}-byte budget"
            )
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
                    peak_bytes=_traced_peak(fn, args))
        for n, args, ts in zip(sizes, inputs, times)
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
    """Fixed-schema CSV: BenchRecord's fields in order, floats by repr."""
    lines = [",".join(f.name for f in fields(BenchRecord))]
    for r in records:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in astuple(r)))
    return "\n".join(lines) + "\n"
