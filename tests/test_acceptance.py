"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Criteria 01-08 are defined in `eala.checks`, which `eala check` also runs;
09 (a wall-clock slope) and 10 (the command line end to end) are defined
here.  Every criterion records one summary line into the terminal report,
then asserts.
"""

import acceptance_log
from eala.bench import allocation_model, bench_sweep, fit_loglog_slope
from eala.checks import CRITERIA, run_criterion
from eala.cli import cli_main


def _finish(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    acceptance_log.record(f"criterion {num:02d} {verdict} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _shared(num):
    name, fn = CRITERIA[num - 1]
    _finish(num, name, *run_criterion(fn))


def test_criterion_01_kl_identity_and_bound():
    _shared(1)


def test_criterion_02_strict_concavity():
    _shared(2)


def test_criterion_03_gram_identity():
    _shared(3)


def test_criterion_04_branch_equivalence():
    _shared(4)


def test_criterion_05_entropy_approximation():
    _shared(5)


def test_criterion_06_theta_star_fidelity():
    _shared(6)


def test_criterion_07_ranking_preservation():
    _shared(7)


def test_criterion_08_distribution_fidelity():
    _shared(8)


def test_criterion_09_complexity_scaling():
    def measure():
        exact_recs = bench_sweep("exact", [1024, 2048, 4096], c=64,
                                 repeats=3, seed=0)
        exact_slope = fit_loglog_slope(exact_recs)
        lin_sizes = [4096, 8192, 16384, 32768, 65536]
        lin_recs = bench_sweep("eala-linear", lin_sizes, c=64, repeats=3, seed=0)
        lin_slope = fit_loglog_slope(lin_recs)
        no_square = all(allocation_model("eala-linear", n, 64)["n2"] == 0
                        for n in lin_sizes)
        ok = exact_slope >= 1.7 and lin_slope <= 1.3 and no_square
        detail = (f"exact slope {exact_slope:.3f} (need >= 1.7), eala-linear "
                  f"slope {lin_slope:.3f} (need <= 1.3), linear n^2 bytes "
                  f"absent {no_square}")
        return ok, detail

    _finish(9, "complexity-scaling", *run_criterion(measure))


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    def measure():
        # `eala check` exits 0 only if criteria 01-08 all hold
        check_code = cli_main(["check"])
        capsys.readouterr()  # the check transcript is not part of the gate
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["compare", "--n", "32", "--c", "8", "--scale", "0.1",
                "--seed", "11"]
        code1 = cli_main(argv + ["--out", str(p1)])
        code2 = cli_main(argv + ["--out", str(p2)])
        identical = p1.read_bytes() == p2.read_bytes()
        ok = check_code == 0 and code1 == code2 == 0 and identical
        detail = (f"cli check exit {check_code} (need 0); equal-seed compare "
                  f"runs byte-identical {identical}")
        return ok, detail

    _finish(10, "end-to-end-determinism", *run_criterion(measure))
