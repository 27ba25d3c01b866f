"""Wall-time scaling comparison of the attention implementations.

Runs each requested mode over its own size list, prints per-size fastest
times with the modeled peak allocation, and fits a log-log slope per mode.  The
headline contrast: exact attention fits near slope 2 while the linear path
stays near slope 1, and its modeled memory carries no n^2 class at all.

The exact mode gets a smaller default size list; its n^2 buffers make the
large sizes both slow and memory-hungry, which is the point being measured.

    python3 scripts/scaling_bench.py --repeats 5
"""

import argparse
import sys

from eala.bench import (DEFAULT_MEM_LIMIT_BYTES, BenchResourceError,
                        bench_sweep, fit_loglog_slope, records_to_csv)


def parse_int_list(text):
    return [int(p) for p in text.split(",") if p]


def human_bytes(count):
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}"
        size /= 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--exact-n-list", type=parse_int_list,
                    default=[512, 1024, 2048, 4096])
    ap.add_argument("--linear-n-list", type=parse_int_list,
                    default=[4096, 8192, 16384, 32768, 65536])
    ap.add_argument("--quadratic", action="store_true",
                    help="also sweep the eala-quadratic branch on the exact sizes")
    ap.add_argument("--c", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mem-limit-bytes", type=int, default=DEFAULT_MEM_LIMIT_BYTES)
    ap.add_argument("--out", default=None, help="write all records as CSV")
    args = ap.parse_args(argv)

    plans = [("exact", args.exact_n_list), ("eala-linear", args.linear_n_list)]
    if args.quadratic:
        plans.insert(1, ("eala-quadratic", args.exact_n_list))

    all_records = []
    slopes = {}
    for mode, sizes in plans:
        print(f"{mode}: sizes {sizes}, c={args.c}, repeats={args.repeats}")
        try:
            recs = bench_sweep(mode, sizes, args.c, repeats=args.repeats,
                               seed=args.seed,
                               mem_limit_bytes=args.mem_limit_bytes)
        except BenchResourceError as e:
            print(f"  skipped: {e}")
            continue
        for r in recs:
            print(f"  n={r.n:>6}  {r.wall_time * 1e3:>9.3f} ms  "
                  f"peak {human_bytes(r.analytic_peak_bytes):>10}")
        all_records.extend(recs)
        if len(recs) >= 3:
            slopes[mode] = fit_loglog_slope(recs)

    print()
    for mode, slope in slopes.items():
        print(f"{mode}: log-log slope {slope:.3f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(records_to_csv(all_records))
        print(f"wrote {len(all_records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
