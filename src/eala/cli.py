"""Command-line harness.

Subcommands:

    check    run acceptance criteria 01-08; exit 0 only if all of them hold
    compare  fidelity report (exact vs linear) on a calibrated workload
    bench    wall-time scaling sweep for one mode over a list of sizes
    attend   file-driven forward pass over tensors in the EALT format

Exit codes: 0 success, 1 command-reported failure (check/bench), 2 usage
error, 3 file I/O error.  All randomness flows from --seed; reports for a
fixed seed are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import uuid

from .bench import (DEFAULT_MEM_LIMIT_BYTES, MODES, BenchResourceError,
                    bench_sweep, fit_loglog_slope, records_to_csv)
from .checks import CRITERIA, run_criterion
from .core import eala_attention
from .fidelity import ENTROPY_SOURCES, compare, jsonable
from .oracle import exact_attention
from .tensorio import TensorFileError, TensorRows, TensorRowWriter, read_tensor
from .workload import WorkloadSpec

_ATTEND_MODES = ("exact", "eala", "eala-linear", "eala-quadratic")


def _parse_n_list(text: str) -> list[int]:
    try:
        sizes = [int(piece) for piece in text.split(",") if piece != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eala",
        description="entropy-matched linear attention toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="run acceptance criteria 01-08")

    cmp_p = sub.add_parser("compare", help="fidelity report against exact attention")
    cmp_p.add_argument("--n", type=int, default=64)
    cmp_p.add_argument("--c", type=int, default=16)
    cmp_p.add_argument("--scale", type=float, default=0.1)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--entropy-source", choices=ENTROPY_SOURCES, default="approx")
    cmp_p.add_argument("--format", choices=("json", "csv"), default="json")
    cmp_p.add_argument("--out", default=None, help="output path (default stdout)")

    bench_p = sub.add_parser("bench", help="wall-time scaling sweep")
    bench_p.add_argument("--mode", choices=MODES, required=True)
    bench_p.add_argument("--n-list", type=_parse_n_list, required=True,
                         help="comma-separated ascending sizes, e.g. 1024,2048,4096")
    bench_p.add_argument("--c", type=int, default=64)
    bench_p.add_argument("--repeats", type=int, default=5)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--mem-limit-bytes", type=int, default=DEFAULT_MEM_LIMIT_BYTES)
    bench_p.add_argument("--format", choices=("csv", "json"), default="csv")
    bench_p.add_argument("--out", default=None)

    att_p = sub.add_parser("attend", help="forward pass over tensor files")
    att_p.add_argument("--q", required=True)
    att_p.add_argument("--k", required=True)
    att_p.add_argument("--v", required=True)
    att_p.add_argument("--mode", choices=_ATTEND_MODES, default="eala")
    att_p.add_argument("--out", required=True)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _run_check(_args) -> int:
    failed = 0
    for num, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = run_criterion(fn)
        failed += not ok
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} criterion {num:02d} {name}: {detail}")
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} checks passed")
    return 0 if failed == 0 else 1


def _run_compare(args) -> int:
    spec = WorkloadSpec(n=args.n, c=args.c, score_scale=args.scale, seed=args.seed)
    report = compare(spec, args.entropy_source)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    return 0


def _run_bench(args) -> int:
    records = bench_sweep(args.mode, args.n_list, args.c, repeats=args.repeats,
                          seed=args.seed, mem_limit_bytes=args.mem_limit_bytes)
    if args.format == "csv":
        text = records_to_csv(records)
    else:
        slope = fit_loglog_slope(records) if len(records) >= 3 else None
        payload = {
            "mode": args.mode,
            "c": args.c,
            "repeats": args.repeats,
            "seed": args.seed,
            "records": [dataclasses.asdict(r) for r in records],
            "loglog_slope": slope,
        }
        text = json.dumps(jsonable(payload), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _run_attend(args) -> int:
    # The rows go to a new file beside --out, which replaces --out only once
    # all of them are in, so a failure leaves --out as it was.  The exact
    # mode reads its inputs whole; the eala modes hand eala_attention row
    # readers and the row writer, and the linear path streams the files in
    # row blocks.  Nothing reads the entropies, so certified blocks skip S2.
    paths = (args.q, args.k, args.v)
    q, k, v = map(read_tensor if args.mode == "exact" else TensorRows, paths)
    head, tail = os.path.split(os.path.abspath(args.out))
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    out = TensorRowWriter(tmp, (q.shape[0], v.shape[1]))
    try:
        if args.mode == "exact":
            out[:] = exact_attention(q, k, v, entropies=False).output
        else:
            path = {"eala": "auto", "eala-linear": "linear",
                    "eala-quadratic": "quadratic"}[args.mode]
            eala_attention(q, k, v, out=out, path=path, entropies=False)
        os.replace(tmp, args.out)
    except BaseException:
        os.remove(tmp)
        raise
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code) if e.code is not None else 0
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "compare":
            return _run_compare(args)
        if args.command == "bench":
            return _run_bench(args)
        return _run_attend(args)
    except (OSError, TensorFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (BenchResourceError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
