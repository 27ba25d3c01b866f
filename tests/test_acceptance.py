"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Criteria 01-08 are defined in `eala.checks`, which `eala check` also runs;
09 (timed sweeps) and 10 (the command line end to end) are defined
here.  Every criterion records one summary line into the terminal report,
then asserts.
"""

import acceptance_log
from eala.bench import bench_sweep, fit_loglog_slope
from eala.checks import CRITERIA, run_criterion
from eala.cli import cli_main
from eala.core import _QUERY_BLOCK


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


def _holds_no_square(record):
    """The measured peak, less the n x c output, is within two query blocks
    of c columns plus eight n-vectors: O(block c + n) bytes, where one n x n
    buffer alone takes 128 MiB at n = 4096."""
    beyond_output = record.peak_bytes - 8 * record.n * record.c
    return beyond_output <= 8 * (2 * _QUERY_BLOCK * record.c + 8 * record.n)


def test_criterion_09_complexity_scaling():
    def measure():
        exact_recs = bench_sweep("exact", [1024, 2048, 4096], c=64,
                                 repeats=3, seed=0)
        exact_slope = fit_loglog_slope(exact_recs)
        lin_sizes = [4096, 8192, 16384, 32768, 65536]
        lin_recs = bench_sweep("eala-linear", lin_sizes, c=64, repeats=3, seed=0)
        lin_slope = fit_loglog_slope(lin_recs)
        # the measured clause must also tell the n^2 baseline apart
        no_square = (all(map(_holds_no_square, lin_recs))
                     and not any(map(_holds_no_square, exact_recs)))
        beyond = max(r.peak_bytes - 8 * r.n * r.c for r in lin_recs) / 2**20
        ok = exact_slope >= 1.7 and lin_slope <= 1.3 and no_square
        detail = (f"exact slope {exact_slope:.3f} (need >= 1.7), eala-linear "
                  f"slope {lin_slope:.3f} (need <= 1.3), linear n^2 bytes "
                  f"absent {no_square} (measured peak beyond the output at "
                  f"most {beyond:.2f} MiB)")
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
