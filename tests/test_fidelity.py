import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eala.core import EalaConfig, center_keys, eala_attention, eala_weights
from eala.fidelity import (BISECTION_N_LIMIT, TIE_TOL, FidelityReport,
                           _rank_comparison, _tied_rows, compare)
from eala.numerics import gaussian_matrix
from eala.oracle import bisection_theta, exact_attention, kl_divergence
from eala.workload import WorkloadSpec, gen_workload

SPEC = WorkloadSpec(n=16, c=8, score_scale=0.1, seed=5)


@pytest.fixture(scope="module")
def report():
    return compare(SPEC)


class TestCompareSmallScale:
    def test_workload_echo(self, report):
        assert (report.n, report.c, report.score_scale, report.seed,
                report.heads) == (16, 8, 0.1, 5, 4)
        assert report.entropy_source == "approx"

    def test_per_query_lengths(self, report):
        for col in (report.entropy_exact, report.entropy_approx,
                    report.theta_closed, report.theta_bisection, report.kl,
                    report.weights_valid, report.argsort_match):
            assert len(col) == 16

    def test_all_weights_valid_at_small_scale(self, report):
        assert all(report.weights_valid)
        assert all(v is not None for v in report.kl)
        assert all(v >= 0.0 for v in report.kl)

    def test_rankings_preserved(self, report):
        assert all(m is True for m in report.argsort_match)
        assert report.argsort_match_rate == 1.0

    def test_entropy_columns_bracket_log_n(self, report):
        for h in report.entropy_exact + report.entropy_approx:
            assert 0.0 <= h <= np.log(16.0) + 1e-12

    def test_entropy_error_is_second_order(self, report):
        assert report.max_abs_entropy_err <= 0.1 ** 2
        assert report.mean_abs_entropy_err <= report.max_abs_entropy_err

    def test_kl_is_tiny(self, report):
        assert report.mean_kl is not None and report.mean_kl <= 1e-4

    def test_bisection_agrees_with_closed_form(self, report):
        for tc, tb in zip(report.theta_closed, report.theta_bisection):
            assert tb is not None
            assert abs(tc - tb) / tb <= 0.05

    def test_output_error_bounded(self, report):
        assert 0.0 <= report.output_max_rel_error <= 0.05

    def test_aggregates_match_columns(self, report):
        errs = [abs(a - b) for a, b in zip(report.entropy_approx,
                                           report.entropy_exact)]
        assert abs(report.mean_abs_entropy_err - np.mean(errs)) <= 1e-15
        assert abs(report.max_abs_entropy_err - np.max(errs)) <= 1e-15
        assert abs(report.mean_kl - np.mean(report.kl)) <= 1e-15


class TestEntropySourceSelection:
    def test_exact_source_changes_thetas_not_entropy_columns(self, report):
        rx = compare(SPEC, EalaConfig(entropy_source="exact"))
        assert rx.entropy_source == "exact"
        assert rx.entropy_exact == report.entropy_exact
        assert rx.entropy_approx == report.entropy_approx
        assert rx.theta_closed != report.theta_closed

    def test_exact_source_bisection_gap_shrinks(self):
        # feeding the true entropy leaves only the closed-form model error
        rx = compare(SPEC, EalaConfig(entropy_source="exact"))
        for tc, tb in zip(rx.theta_closed, rx.theta_bisection):
            assert abs(tc - tb) / tb <= 0.05


class TestDegenerateWorkload:
    def test_zero_scale_goes_uniform(self):
        r = compare(WorkloadSpec(n=8, c=4, score_scale=0.0, seed=1))
        assert all(t == np.inf for t in r.theta_closed)
        assert all(t is None for t in r.theta_bisection)
        assert all(m is None for m in r.argsort_match)
        assert r.argsort_match_rate == 1.0  # vacuous
        assert all(r.weights_valid)
        assert r.mean_kl is not None and r.mean_kl <= 1e-12
        assert all(abs(h - np.log(8.0)) <= 1e-12 for h in r.entropy_exact)

    def test_zero_scale_report_serializes(self):
        r = compare(WorkloadSpec(n=4, c=3, score_scale=0.0, seed=2))
        parsed = json.loads(r.to_json())
        assert parsed["per_query"]["theta_closed"] == ["inf"] * 4
        assert parsed["per_query"]["theta_bisection"] == [None] * 4
        csv_text = r.to_csv()
        assert ",inf," in csv_text

    def test_bisection_skipped_above_limit(self):
        r = compare(WorkloadSpec(n=BISECTION_N_LIMIT + 1, c=4,
                                 score_scale=0.1, seed=3))
        assert all(t is None for t in r.theta_bisection)
        assert len(r.theta_closed) == BISECTION_N_LIMIT + 1


@st.composite
def weight_stacks(draw, max_rows=6, max_n=12):
    """(exact, eala): weight rows whose eala row is the exact one, a copy
    with ties that only rounding made, reversed, or unrelated; some exact
    rows hold exact ties themselves."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    row = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)
    xs, ys = [], []
    for _ in range(m):
        x = np.asarray(draw(row))
        if draw(st.booleans()):
            x = np.round(3.0 * x) / 3.0
        kind = draw(st.sampled_from(("same", "rounded", "reversed", "random")))
        y = {"same": x, "rounded": 1.0 + 1e-15 * x, "reversed": -x,
             "random": np.asarray(draw(row))}[kind]
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


@st.composite
def underflow_stacks(draw, max_rows=6, max_n=12):
    """(exact, eala): softmax rows of scores spread over more than 745, so
    that exp underflows to 0 and the exact weights tie where the scores do
    not; the eala row is affine in the scores, reversed, or the exact row."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    xs, ys = [], []
    for _ in range(m):
        near = draw(st.lists(st.floats(min_value=-700.0, max_value=0.0),
                             min_size=n - 2, max_size=n - 2))
        far = draw(st.lists(st.floats(min_value=-2000.0, max_value=-746.0),
                            min_size=2, max_size=2))
        s = np.asarray(near + [max(near) + f for f in far])[draw(st.permutations(range(n)))]
        s -= np.max(s)
        x = np.exp(s) / np.sum(np.exp(s))
        kind = draw(st.sampled_from(("affine", "reversed", "same")))
        y = {"affine": (1.0 + s / 4000.0) / n, "reversed": -s, "same": x}[kind]
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


class TestRankComparison:
    @given(weight_stacks())
    def test_one_sort_matches_two_argsorts(self, stack):
        exact_w, eala_w = stack
        want = [bool(np.array_equal(np.argsort(x, kind="stable"), np.argsort(y, kind="stable")))
                for x, y in zip(exact_w, eala_w)]
        assert _rank_comparison(np.zeros(len(want), dtype=bool), exact_w, eala_w) == want

    @given(underflow_stacks())
    def test_underflowed_weights_match_two_argsorts(self, stack):
        exact_w, eala_w = stack
        assert (np.sum(exact_w == 0.0, axis=1) >= 2).all()
        want = [bool(np.array_equal(np.argsort(x, kind="stable"), np.argsort(y, kind="stable")))
                for x, y in zip(exact_w, eala_w)]
        assert _rank_comparison(np.zeros(len(want), dtype=bool), exact_w, eala_w) == want

    def test_tied_scores_are_excluded(self):
        scores = np.array([[1.0, 1.0 + TIE_TOL / 2, 3.0], [1.0, 2.0, 3.0]])
        w = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        got = _rank_comparison(_tied_rows(scores), w, w)
        assert got == [None, True]

    def test_disagreement_detected(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        exact_w = np.array([[0.1, 0.3, 0.6]])
        flipped = np.array([[0.6, 0.3, 0.1]])
        assert _rank_comparison(_tied_rows(scores), exact_w, flipped) == [False]

    def test_single_column_never_ties(self):
        got = _rank_comparison(_tied_rows(np.array([[2.5]])), np.array([[1.0]]),
                               np.array([[1.0]]))
        assert got == [True]


class TestReportSerialization:
    def test_json_shape_and_key_order(self, report):
        text = report.to_json()
        parsed = json.loads(text)
        assert list(parsed.keys()) == ["workload", "entropy_source",
                                       "per_query", "aggregates"]
        assert list(parsed["workload"].keys()) == ["n", "c", "score_scale",
                                                   "seed", "heads"]
        assert list(parsed["per_query"].keys()) == [
            "entropy_exact", "entropy_approx", "theta_closed",
            "theta_bisection", "kl", "weights_valid", "argsort_match"]
        assert list(parsed["aggregates"].keys()) == [
            "mean_abs_entropy_err", "max_abs_entropy_err", "mean_kl",
            "argsort_match_rate", "output_max_rel_error"]
        assert text.endswith("\n")

    def test_json_roundtrips_finite_values(self, report):
        parsed = json.loads(report.to_json())
        assert parsed["per_query"]["entropy_exact"] == report.entropy_exact
        assert parsed["aggregates"]["mean_kl"] == report.mean_kl

    def test_csv_layout(self, report):
        lines = report.to_csv().split("\n")
        assert lines[0] == ("query,entropy_exact,entropy_approx,theta_closed,"
                            "theta_bisection,kl,weights_valid,argsort_match")
        assert len(lines) == 1 + 16 + 1 + 1 + 5 + 1
        assert lines[17] == ""
        assert lines[18] == "aggregate,value"
        first = lines[1].split(",")
        assert first[0] == "0" and first[6] == "true" and first[7] == "true"
        # repr round-trip: every float cell parses back exactly
        assert float(first[1]) == report.entropy_exact[0]

    def test_deterministic_bytes(self):
        a = compare(SPEC)
        b = compare(SPEC)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_jsonable_rejects_foreign_types(self):
        r = compare(WorkloadSpec(n=2, c=2, score_scale=0.1, seed=0))
        r.entropy_exact = [object()]
        with pytest.raises(TypeError):
            r.to_json()


class TestGolden:
    def test_json_matches_checked_in_bytes(self, report, datadir):
        golden = (datadir / "golden_compare.json").read_text()
        assert report.to_json() == golden

    def test_csv_matches_checked_in_bytes(self, report, datadir):
        golden = (datadir / "golden_compare.csv").read_text()
        assert report.to_csv() == golden


def reference_report(spec, cfg):
    """The report built one query at a time from the 1-D oracle calls."""
    q, k, v = gen_workload(spec)
    exact = exact_attention(q, k, v, keep_weights=True)
    res = {src: eala_attention(q, k, v, dataclasses.replace(cfg, entropy_source=src))
           for src in ("approx", "exact")}
    selected = res[cfg.entropy_source]
    khat, _ = center_keys(k)
    eala_w = eala_weights(q, khat, selected.thetas)
    scores = q @ k.T
    kl, valid, bis, match = [], [], [], []
    for i in range(spec.n):
        row = eala_w[i]
        try:
            kl.append(kl_divergence(exact.weights[i], row) if np.all(row > 0.0) else None)
        except ValueError:
            kl.append(None)
        valid.append(kl[-1] is not None)
        try:
            bis.append(bisection_theta(khat @ q[i], selected.entropies[i])
                       if spec.n <= BISECTION_N_LIMIT else None)
        except ValueError:
            bis.append(None)
        srt = np.sort(scores[i])
        if srt.size > 1 and float(np.min(np.diff(srt))) <= TIE_TOL:
            match.append(None)
        else:
            match.append(bool(np.array_equal(np.argsort(exact.weights[i], kind="stable"),
                                             np.argsort(row, kind="stable"))))
    err = np.abs(res["approx"].entropies - exact.entropies)
    scored = [m for m in match if m is not None]
    kls = [x for x in kl if x is not None]
    diff = np.max(np.abs(selected.output - exact.output), axis=1)
    denom = np.max(np.abs(exact.output), axis=1) + 1e-15
    return FidelityReport(
        n=spec.n, c=spec.c, score_scale=spec.score_scale, seed=spec.seed,
        heads=spec.heads, entropy_source=cfg.entropy_source,
        entropy_exact=exact.entropies.tolist(),
        entropy_approx=res["approx"].entropies.tolist(),
        theta_closed=selected.thetas.tolist(),
        theta_bisection=bis, kl=kl, weights_valid=valid, argsort_match=match,
        mean_abs_entropy_err=float(np.mean(err)),
        max_abs_entropy_err=float(np.max(err)),
        mean_kl=sum(kls) / len(kls) if kls else None,
        argsort_match_rate=sum(scored) / len(scored) if scored else 1.0,
        output_max_rel_error=float(np.max(diff / denom)),
    )


MIXED_SPECS = [WorkloadSpec(200, 8, 3.0, 9), WorkloadSpec(300, 4, 30.0, 2),
               WorkloadSpec(n=8, c=4, score_scale=0.0, seed=1),
               WorkloadSpec(150, 16, 0.1, 4)]


class TestBlockedColumnsMatchPerQueryCalls:
    @pytest.mark.parametrize("source", ["approx", "exact"])
    @pytest.mark.parametrize("spec", MIXED_SPECS,
                             ids=lambda s: f"n{s.n}-c{s.c}-s{s.score_scale}")
    def test_report_bytes(self, spec, source):
        cfg = EalaConfig(entropy_source=source)
        got, want = compare(spec, cfg), reference_report(spec, cfg)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()

    def test_specs_cover_mixed_and_rejected_blocks(self):
        # scale 3: valid and invalid rows, solved and rejected, in one block
        r = compare(MIXED_SPECS[0])
        assert 0 < sum(r.weights_valid) < r.n
        assert 0 < sum(t is None for t in r.theta_bisection) < r.n
        # scale 30: every row of every block is rejected
        r = compare(MIXED_SPECS[1])
        assert not any(r.weights_valid)
        assert all(t is None for t in r.theta_bisection)
