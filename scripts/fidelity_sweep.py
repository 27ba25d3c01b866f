"""Sweep approximation fidelity across sizes, score scales, and seeds.

For each (n, scale, seed) cell this runs the full comparison against the
exact softmax oracle and prints one row: entropy error, mean KL, ranking
agreement, worst closed-form-vs-bisection temperature gap, and output
error.  The interesting trend is the scale column: every fidelity metric
degrades smoothly as the score scale grows and the second-order entropy
expansion loses accuracy.

Typical run:

    python3 scripts/fidelity_sweep.py --sizes 16,64,256 --scales 0.05,0.1,0.3
"""

import argparse
import sys

from eala.fidelity import compare
from eala.workload import WorkloadSpec

HEADER = (f"{'n':>5} {'scale':>6} {'seed':>4} {'mean|dH|':>10} {'max|dH|':>10} "
          f"{'mean_kl':>10} {'rank_rate':>9} {'max_th_gap':>10} {'out_rel':>9}")


def parse_int_list(text):
    return [int(p) for p in text.split(",") if p]


def parse_float_list(text):
    return [float(p) for p in text.split(",") if p]


def theta_gap(report):
    worst = 0.0
    for tc, tb in zip(report.theta_closed, report.theta_bisection):
        if tb is None or tc != tc or tb != tb:
            continue
        if tb > 0 and tc != float("inf"):
            worst = max(worst, abs(tc - tb) / tb)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", type=parse_int_list, default=[16, 64, 256])
    ap.add_argument("--scales", type=parse_float_list, default=[0.05, 0.1, 0.2, 0.4])
    ap.add_argument("--seeds", type=parse_int_list, default=[0, 1])
    ap.add_argument("--c", type=int, default=16)
    ap.add_argument("--entropy-source", choices=("approx", "exact"), default="approx")
    ap.add_argument("--out", default=None, help="also write rows as CSV")
    args = ap.parse_args(argv)

    rows = []
    print(HEADER)
    for n in args.sizes:
        for scale in args.scales:
            for seed in args.seeds:
                spec = WorkloadSpec(n=n, c=args.c, score_scale=scale, seed=seed)
                rep = compare(spec, args.entropy_source)
                gap = theta_gap(rep)
                mean_kl = rep.mean_kl if rep.mean_kl is not None else float("nan")
                rows.append((n, scale, seed, rep.mean_abs_entropy_err,
                             rep.max_abs_entropy_err, mean_kl,
                             rep.argsort_match_rate, gap,
                             rep.output_max_rel_error))
                print(f"{n:>5} {scale:>6g} {seed:>4} "
                      f"{rep.mean_abs_entropy_err:>10.3e} "
                      f"{rep.max_abs_entropy_err:>10.3e} {mean_kl:>10.3e} "
                      f"{rep.argsort_match_rate:>9.3f} {gap:>10.4f} "
                      f"{rep.output_max_rel_error:>9.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("n,scale,seed,mean_abs_entropy_err,max_abs_entropy_err,"
                     "mean_kl,argsort_match_rate,max_theta_gap,"
                     "output_max_rel_error\n")
            for row in rows:
                fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
