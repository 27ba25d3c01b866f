"""Benchmark of the eala package: one workload per run, or the traced run.

    python3 benchmark/run.py --workload long-context --seed 1 --seconds 22 --trace 0
    python3 benchmark/run.py --workload long-context --seed 1 --seconds 22 --trace 1
    python3 benchmark/run.py --quick

`--trace 0` measures the named workload with no wrappers installed and prints
the end-to-end metrics.  `--trace 1` runs all four workloads, since each
per-layer metric belongs to the workload that moves it (see README.md); each
gets a quarter of the time, half untraced and half traced, and the gap
between the two halves is reported as the tracing overhead.  `--quick` runs
every workload at small sizes, checks included, in a few seconds.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it stamps the run.
The program is imported from `src/` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: every run measures the same BLAS set-up whatever the
# machine, and on a 2-core machine a second thread stalls each GEMM whenever
# anything else takes a core (an overlapping run made mha-layer 8x slower).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import MIB, WORKLOADS, Round  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")

# Set-up runs in two batches, one before and one after the timed rounds, so
# that its median spans the run as the timings do.  A batch repeats until
# SETUP_BATCH_SECONDS are spent, so that a set-up of a few tens of
# milliseconds is still a median of many samples.
SETUP_BATCH_SECONDS = 0.75
SETUP_BATCH_MAX_REPS = 12

# (workload, scope, span, stat): scope "round" aggregates the spans of the
# timed operations per round, "setup" those of one input set-up.
PER_LAYER = [
    ("long-context", "round", "core.center_keys", "ms"),
    ("long-context", "round", "core.key_moments", "ms"),
    ("long-context", "round", "core.key_moments", "computed_gflop"),
    ("long-context", "round", "core.eala_forward_linear", "ms"),
    ("long-context", "round", "core.eala_forward_linear", "gflop_per_s"),
    ("long-context", "round", "core.eala_forward_linear", "computed_gflop"),
    ("long-context", "round", "core.eala_forward_linear", "computed_mib"),
    ("long-context", "round", "core.eala_attention", "self_ms"),
    ("long-context", "round", "tensorio.read_tensor", "ms"),
    ("long-context", "round", "tensorio.read_tensor", "mib_per_s"),
    ("long-context", "round", "tensorio.read_tensor", "computed_mib"),
    ("long-context", "round", "tensorio.write_tensor", "ms"),
    ("long-context", "round", "tensorio.write_tensor", "computed_mib"),
    ("long-context", "round", "cli.cli_main", "self_ms"),
    ("long-context", "setup", "numerics.gaussian_matrix", "ms"),
    ("long-context", "setup", "tensorio.write_tensor", "ms"),
    ("long-context", "peak", "core.eala_attention", "measured_peak_mib"),
    ("long-context", "peak", "bench.allocation_model", "model_peak_mib"),
    ("long-context", "trace", "trace", "overhead_pct"),
    ("short-batch", "round", "core.eala_attention", "calls"),
    ("short-batch", "round", "core.eala_attention", "self_ms"),
    ("short-batch", "round", "core.eala_forward_quadratic", "calls"),
    ("short-batch", "round", "core.eala_forward_quadratic", "ms"),
    ("short-batch", "round", "core.eala_forward_quadratic", "gflop_per_s"),
    ("short-batch", "round", "core.eala_forward_quadratic", "computed_gflop"),
    ("short-batch", "round", "core.eala_forward_linear", "ms"),
    ("short-batch", "round", "oracle.exact_attention", "ms"),
    ("short-batch", "round", "oracle.exact_attention", "gflop_per_s"),
    ("short-batch", "round", "oracle.exact_attention", "computed_gflop"),
    ("short-batch", "setup", "workload.gen_workload", "ms"),
    ("short-batch", "setup", "numerics.gaussian_matrix", "ms"),
    ("short-batch", "trace", "trace", "overhead_pct"),
    ("mha-layer", "round", "mha.mha_forward", "self_ms"),
    ("mha-layer", "round", "mha.mha_forward", "head_calls"),
    ("mha-layer", "round", "core.eala_attention", "ms"),
    ("mha-layer", "round", "oracle.exact_attention", "ms"),
    ("mha-layer", "round", "oracle.exact_attention", "gflop_per_s"),
    ("mha-layer", "round", "oracle.exact_attention", "computed_gflop"),
    ("mha-layer", "setup", "numerics.gaussian_matrix", "ms"),
    ("mha-layer", "peak", "oracle.exact_attention", "measured_peak_mib"),
    ("mha-layer", "peak", "bench.allocation_model", "model_peak_mib"),
    ("mha-layer", "trace", "trace", "overhead_pct"),
    ("fidelity-report", "round", "fidelity.compare", "self_ms"),
    ("fidelity-report", "round", "oracle.exact_attention", "ms"),
    ("fidelity-report", "round", "oracle.exact_attention", "gflop_per_s"),
    ("fidelity-report", "round", "oracle.exact_attention", "computed_gflop"),
    ("fidelity-report", "round", "oracle.bisection_theta", "ms"),
    ("fidelity-report", "round", "oracle.bisection_theta", "calls"),
    ("fidelity-report", "round", "oracle.linear_family_entropy", "calls"),
    ("fidelity-report", "round", "oracle.kl_divergence", "ms"),
    ("fidelity-report", "round", "oracle.score_row_entropies", "ms"),
    ("fidelity-report", "round", "core.eala_weights", "ms"),
    ("fidelity-report", "round", "workload.gen_workload", "ms"),
    ("fidelity-report", "round", "numerics.gaussian_matrix", "ms"),
    ("fidelity-report", "trace", "trace", "overhead_pct"),
]

UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "head_calls": "count",
         "gflop_per_s": "GFLOP/s", "mib_per_s": "MiB/s", "computed_gflop": "GFLOP",
         "computed_mib": "MiB", "measured_peak_mib": "MiB", "model_peak_mib": "MiB",
         "overhead_pct": "%"}

END_TO_END = {"setup_s": "s", "primary_ms": "ms", "secondary_ms": "ms",
              "primary_peak_mib": "MiB", "secondary_peak_mib": "MiB"}


def layer_name(workload: str, scope: str, span: str, stat: str) -> str:
    if scope == "trace":
        return f"{workload}.trace.{stat}"
    prefix = "setup." if scope == "setup" else ""
    return f"{workload}.{prefix}{span}.{stat}"


def fresh_import():
    """Import eala from src/ as a first import would, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "eala" or m.startswith("eala.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    eala = importlib.import_module("eala")
    importlib.import_module("eala.cli")
    return eala


def stamp(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": NPROC, "python": platform.python_version(), "seed": seed}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "samples": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "samples": len(values)}


def run_rounds(w, seconds: float, first_index: int, tracer=None) -> list[Round]:
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = Round(w.name, first_index + len(rounds), tracer)
        w.round(r)
        rounds.append(r)
    return rounds


def warm_up(w) -> Round:
    """The first round faults in pages and fills caches, so it is not timed."""
    warm = Round(w.name, 0)
    w.round(warm)
    return warm


def report_problems(rounds: list[Round]) -> bool:
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return not problems


def time_setups(w, seed: int, workdir: str, min_reps: int) -> list[float]:
    """Import eala afresh and make the inputs, several times; returns seconds."""
    times: list[float] = []
    while len(times) < min_reps or (
            sum(times) < SETUP_BATCH_SECONDS and len(times) < SETUP_BATCH_MAX_REPS):
        gc.collect()
        start = time.perf_counter()
        w.setup(fresh_import(), seed, workdir)
        times.append(time.perf_counter() - start)
    return times


def run_end_to_end(name: str, seed: int, seconds: float, workdir: str, quick: bool):
    w = WORKLOADS[name](quick)
    setup_times = time_setups(w, seed, workdir, min_reps=2)
    w.prepare()
    warm = warm_up(w)
    timed = run_rounds(w, seconds, 1)
    # after the timed rounds: a round under tracemalloc leaves the allocator
    # in another state, which made later timings of compare bimodal
    peaks = Round(w.name, 1 + len(timed), peaks=True)
    w.round(peaks)
    rounds = [warm] + timed + [peaks]
    setup_times += time_setups(w, seed, workdir, min_reps=1)
    primary = [r.mean_ms("primary") for r in timed if r.calls["primary"]]
    secondary = [r.mean_ms("secondary") for r in timed if r.calls["secondary"]]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = report_problems(rounds)
    info = {
        "stamp": stamp(seed), "workload": name, "inputs": w.describe(),
        "operations": {"primary": w.primary, "secondary": w.secondary},
        "attempted": attempted, "failed": failed, "rounds": len(timed),
        "spread": {"setup_s": quartiles(setup_times),
                   "primary_ms": quartiles(primary),
                   "secondary_ms": quartiles(secondary)},
        "computed_per_round": {k: {"gflop": v["flop"] / 1e9, "mib": v["bytes"] / MIB}
                               for k, v in w.computed().items()},
        "peak_reference": w.reference(),
    }
    values = {"setup_s": statistics.median(setup_times),
              "primary_ms": statistics.median(primary),
              "secondary_ms": statistics.median(secondary),
              "primary_peak_mib": peaks.peaks["primary"],
              "secondary_peak_mib": peaks.peaks["secondary"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return info, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def head_calls(tracer: Tracer, workload: str) -> list[int]:
    rounds = {o["op_id"]: o["round"] for o in tracer.ops
              if o["workload"] == workload and o["kind"] in ("primary", "secondary")}
    names = {s.span_id: s.name for s in tracer.spans}
    counts: dict[int, int] = {}
    for s in tracer.spans:
        if s.op_id in rounds and s.parent is not None and names[s.parent] == "mha.mha_forward":
            counts[rounds[s.op_id]] = counts.get(rounds[s.op_id], 0) + 1
    return sorted(counts.values())


def layer_metrics(w, tracer: Tracer, plain: list[Round], traced: list[Round]) -> dict:
    per_round = tracer.per_round(w.name)
    setup = tracer.per_round(w.name, kinds=("setup",))[-1]
    computed = w.computed()
    reference = next(iter(w.reference().values()), {})
    out = {}
    for workload, scope, span, stat in PER_LAYER:
        if workload != w.name:
            continue
        if scope == "trace":
            base = statistics.median(r.busy_s() for r in plain)
            value = 100.0 * (statistics.median(r.busy_s() for r in traced) - base) / base
        elif scope == "peak":
            value = reference["model_mib" if stat == "model_peak_mib" else "measured_mib"]
        elif stat == "head_calls":
            value = statistics.median(head_calls(tracer, w.name))
        elif scope == "setup":
            value = 1e3 * setup[span][1]
        elif stat.startswith("computed_"):
            key = "flop" if stat == "computed_gflop" else "bytes"
            value = computed[span][key] / (1e9 if key == "flop" else MIB)
        else:
            calls, total, self_s = (statistics.median(acc[span][i] for acc in per_round.values())
                                    for i in range(3))
            value = {"ms": 1e3 * total, "self_ms": 1e3 * self_s, "calls": calls,
                     "gflop_per_s": computed.get(span, {}).get("flop", 0) / 1e9 / total,
                     "mib_per_s": computed.get(span, {}).get("bytes", 0) / MIB / total}[stat]
        out[layer_name(workload, scope, span, stat)] = {"value": value, "unit": UNITS[stat]}
    return out


def run_traced(seed: int, seconds: float, workdir: str, quick: bool):
    tracer = Tracer()
    metrics, counts, problems_ok = {}, {}, True
    share = seconds / len(WORKLOADS)
    for name, cls in WORKLOADS.items():
        w = cls(quick)
        e = fresh_import()
        tracer.install()
        tracer.open_op(name, -1, "setup")
        w.setup(e, seed, workdir)
        tracer.close_op()
        tracer.uninstall()
        w.prepare()
        warm = warm_up(w)
        plain = run_rounds(w, share / 2, 1)
        tracer.install()
        try:
            traced = run_rounds(w, share / 2, 1 + len(plain), tracer)
        finally:
            tracer.uninstall()
        rounds = [warm] + plain + traced
        problems_ok = report_problems(rounds) and problems_ok
        counts[name] = {"attempted": sum(r.attempted for r in rounds),
                        "failed": sum(r.failed for r in rounds),
                        "untraced_rounds": len(plain), "traced_rounds": len(traced)}
        metrics.update(layer_metrics(w, tracer, plain, traced))
    trace_path = os.path.join(RUN_DIR, f"trace-seed{seed}.jsonl")
    tracer.dump(trace_path)
    info = {"stamp": stamp(seed), "trace_file": os.path.relpath(trace_path, ROOT),
            "spans": len(tracer.spans), "workloads": counts}
    attempted = sum(c["attempted"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    return info, {"correct": problems_ok, "attempted": attempted, "failed": failed,
                  "metrics": metrics}


def load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "eala", "__init__.py")):
        raise SystemExit(f"error: no eala package under {SRC}")
    sys.path.insert(0, SRC)
    eala = fresh_import()
    if os.path.dirname(os.path.dirname(os.path.abspath(eala.__file__))) != SRC:
        raise SystemExit(f"error: eala imported from {eala.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="all workloads at small sizes, traced and untraced, checks only")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    load_program()
    workdir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.quick:
            results = [run_end_to_end(name, args.seed, 0.0, workdir, True)[1]
                       for name in WORKLOADS]
            results.append(run_traced(args.seed, 0.0, workdir, True)[1])
            ok = all(r["correct"] and r["failed"] == 0 for r in results)
            print(json.dumps({"quick": [{k: r[k] for k in ("correct", "attempted", "failed")}
                                        for r in results]}))
            print(json.dumps({"correct": ok}))
            return 0 if ok else 1
        if args.trace:
            info, result = run_traced(args.seed, args.seconds, workdir, False)
        else:
            info, result = run_end_to_end(args.workload, args.seed, args.seconds, workdir, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
