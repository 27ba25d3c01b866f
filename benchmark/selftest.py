"""Shows that no check of the benchmark passes vacuously.

    python3 benchmark/selftest.py

Each check first accepts a correct output of the program at a small size,
then must reject the same output with one value perturbed by a relative
1e-6 (or, for the fidelity report, with one property broken).  It also
confirms that BENCHMARK.json lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

import run
from reference import (check_eala, check_exact, check_mha, check_report,
                       check_weight_rows, close, read_ealt)

BUMP = 1.0 + 1e-6


def bumped(a, index):
    a = np.array(a, dtype=np.float64, copy=True)
    a[index] *= BUMP
    return a


def main() -> int:
    run.load_program()
    e = run.fresh_import()
    # (name, failures on the correct output, failures on the perturbed one,
    #  text one of the latter must contain)
    cases = []

    rng = np.random.default_rng(0)
    q, k, v = e.workload.gen_workload(e.workload.WorkloadSpec(96, 16, 0.1, 3))
    khat = k - k.sum(axis=0) / k.shape[0]
    rows = np.array([5, 17, 40])
    res = e.core.eala_attention(q, k, v)
    for field, index in (("output", (5, 0)), ("entropies", 5), ("thetas", 5)):
        bad = dataclasses.replace(res, **{field: bumped(getattr(res, field), index)})
        cases.append((f"eala {field}", check_eala("eala", e, q, khat, v, res, rows),
                      check_eala("eala", e, q, khat, v, bad, rows), f"eala {field}"))
    w = e.core.eala_weights(q[rows], khat, res.thetas[rows])
    cases.append(("weight row sums", check_weight_rows("eala", w),
                  check_weight_rows("eala", bumped(w, (0, 0))), "row sums"))

    ex = e.oracle.exact_attention(q, k, v)
    for field, index in (("output", (17, 2)), ("entropies", 17)):
        bad = dataclasses.replace(ex, **{field: bumped(getattr(ex, field), index)})
        cases.append((f"exact {field}", check_exact("exact", q, k, v, ex, rows),
                      check_exact("exact", q, k, v, bad, rows), f"exact {field}"))

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        good, bad = os.path.join(tmp, "good.ealt"), os.path.join(tmp, "bad.ealt")
        e.tensorio.write_tensor(good, res.output, "f64")
        e.tensorio.write_tensor(bad, bumped(res.output, (40, 1)), "f64")
        cases.append(("attend file output", close("attend", read_ealt(good), res.output),
                      close("attend", read_ealt(bad), res.output), "attend"))

    params = e.mha.mha_init(32, 2, 4)
    x = e.numerics.gaussian_matrix(48, 32, 5, 0.05)
    mrows = rng.choice(48, size=6, replace=False)
    for mode in ("eala", "exact"):
        out = e.mha.mha_forward(params, x, mode)
        cases.append((f"mha {mode}", check_mha(mode, params, x, out, mode, mrows),
                      check_mha(mode, params, x, bumped(out, (mrows[0], 3)), mode, mrows),
                      f"{mode} output"))

    spec = e.workload.WorkloadSpec(64, 16, 0.1, 6)
    rep = e.fidelity.compare(spec)
    fq, fk, _ = e.workload.gen_workload(spec)
    n = spec.n
    first_kl = next(i for i, x in enumerate(rep.kl) if x is not None)
    first_scored = next(i for i, m in enumerate(rep.argsort_match) if m is not None)
    first_bis = next(i for i, t in enumerate(rep.theta_bisection) if t is not None)
    broken = {  # name: (changed fields, text the failure must contain)
        "negative KL": ({"kl": _set(rep.kl, first_kl, -1e-3)}, "negative"),
        "entropy above log n": ({"entropy_exact": _set(rep.entropy_exact, 0, np.log(n) + 1e-3)},
                                "outside [0, log n]"),
        "argsort mismatch": ({"argsort_match": _set(rep.argsort_match, first_scored, False)},
                             "argsort mismatches"),
        "theta gap": ({"theta_bisection": _set(rep.theta_bisection, first_bis,
                                               rep.theta_closed[first_bis] / 1.06)}, "theta gap"),
        "exact entropy": ({"entropy_exact": _set(rep.entropy_exact, 1,
                                                 rep.entropy_exact[1] * BUMP)},
                          "exact entropies"),
    }
    for name, (change, expect) in broken.items():
        cases.append((f"report {name}", check_report("report", rep, fq, fk),
                      check_report("report", dataclasses.replace(rep, **change), fq, fk), expect))

    ok = True
    for name, clean, perturbed, expect in cases:
        caught = any(expect in msg for msg in perturbed)
        verdict = "ok" if not clean and caught else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{verdict:4s} {name}: correct output {'passes' if not clean else clean}; "
              f"perturbed output {'rejected' if caught else 'PASSES'}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec_file = json.load(fh)
    listed = {(m["name"], m["unit"]) for m in spec_file["end_to_end"]}
    printed = set(run.END_TO_END.items())
    listed_layers = {(m["name"], m["unit"]) for m in spec_file["per_layer"]}
    printed_layers = {(run.layer_name(*row), run.UNITS[row[3]]) for row in run.PER_LAYER}
    workloads = {w["name"] for w in spec_file["workloads"]}
    for label, a, b in (("end_to_end", listed, printed),
                        ("per_layer", listed_layers, printed_layers),
                        ("workloads", workloads, set(run.WORKLOADS))):
        same = a == b
        ok = ok and same
        print(f"{'ok' if same else 'FAIL':4s} BENCHMARK.json {label} matches run.py"
              + ("" if same else f": only listed {sorted(a - b)}, only printed {sorted(b - a)}"))
    print("all checks reject perturbed outputs" if ok else "self-test FAILED")
    return 0 if ok else 1


def _set(values: list, index: int, value) -> list:
    out = list(values)
    out[index] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
