import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eala.core import center_keys, eala_attention, eala_weights, theta_star
from eala.fidelity import (AGGREGATES, BISECTION_N_LIMIT, PER_QUERY, TIE_TOL,
                           FidelityReport, _rank_comparison, compare)
from eala.oracle import _query_block_edges, bisection_theta, exact_attention, kl_divergence
from eala.workload import _SCAN_BLOCK, WorkloadSpec, gen_workload

SPEC = WorkloadSpec(n=16, c=8, score_scale=0.1, seed=5)


@pytest.fixture(scope="module")
def report():
    return compare(SPEC)


class TestCompareSmallScale:
    def test_workload_echo(self, report):
        assert report.workload == SPEC
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
        rx = compare(SPEC, "exact")
        assert rx.entropy_source == "exact"
        assert rx.entropy_exact == report.entropy_exact
        assert rx.entropy_approx == report.entropy_approx
        assert rx.theta_closed != report.theta_closed

    def test_exact_source_bisection_gap_shrinks(self):
        # feeding the true entropy leaves only the closed-form model error
        rx = compare(SPEC, "exact")
        for tc, tb in zip(rx.theta_closed, rx.theta_bisection):
            assert abs(tc - tb) / tb <= 0.05

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="entropy_source must be one of"):
            compare(SPEC, "bisection")


class TestExactSourceReport:
    """The exact source feeds each query's softmax entropy to theta_star."""

    def test_entropy_sources_disagree_by_curvature_factor(self):
        # at small scores the estimate-fed temperature sits near 1/sqrt(2)
        # while the true-entropy one sits near 1: the expansion's curvature
        # is twice the softmax one, and both behaviors are kept visible
        spec = WorkloadSpec(32, 8, 0.05, 1500)
        approx, exact = (np.asarray(compare(spec, src).theta_closed) for src in ("approx", "exact"))
        ratio = approx / exact
        assert np.all(np.abs(ratio - np.sqrt(0.5)) < 0.02)

    def test_exact_source_thetas_track_bisection(self):
        rep = compare(WorkloadSpec(48, 8, 0.1, 1600), "exact")
        for tc, tb in zip(rep.theta_closed, rep.theta_bisection):
            assert abs(tc - tb) / tb <= 0.05

    def test_output_tracks_exact_attention_at_small_scale(self):
        rep = compare(WorkloadSpec(40, 8, 0.05, 1700), "exact")
        assert rep.output_max_rel_error <= 0.05


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
        # scale 0 gives inf thetas; -inf and nan are planted in a per-query
        # column and in an aggregate
        r.kl[1], r.entropy_approx[2] = -np.inf, np.nan
        r.mean_kl, r.output_max_rel_error = -np.inf, np.nan
        parsed = json.loads(r.to_json())
        assert parsed["per_query"]["theta_closed"] == ["inf"] * 4
        assert parsed["per_query"]["theta_bisection"] == [None] * 4
        assert parsed["per_query"]["kl"][1] == "-inf"
        assert parsed["per_query"]["entropy_approx"][2] == "nan"
        assert parsed["aggregates"]["mean_kl"] == "-inf"
        assert parsed["aggregates"]["output_max_rel_error"] == "nan"
        # the CSV names every non-finite cell as the JSON does
        lines = r.to_csv().split("\n")
        columns = dict(zip(lines[0].split(","), zip(*(row.split(",") for row in lines[1:5]))))
        aggregates = dict(row.split(",") for row in lines[7:-1])
        for key, col in parsed["per_query"].items():
            for cell, v in zip(columns[key], col):
                assert cell == v or not isinstance(v, str)
        for key, v in parsed["aggregates"].items():
            assert aggregates[key] == v or not isinstance(v, str)

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
    """(scores, exact, eala): softmax rows of scores spread over more than
    745, so that exp underflows to 0 and the exact weights tie where the
    scores do not; the eala row is affine in the scores, reversed, or the
    exact row."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    ss, xs, ys = [], [], []
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
        ss.append(s)
        xs.append(x)
        ys.append(y)
    return np.array(ss), np.array(xs), np.array(ys)


def two_argsorts(scores, exact_w, eala_w) -> list:
    """The ranking column by its definition: None where the sorted scores
    have an adjacent gap at or below TIE_TOL, else whether the two weight
    rows have the same stable argsort."""
    return [None if len(s) > 1 and np.min(np.diff(np.sort(s))) <= TIE_TOL
            else bool(np.array_equal(np.argsort(x, kind="stable"), np.argsort(y, kind="stable")))
            for s, x, y in zip(scores, exact_w, eala_w)]


class TestRankComparison:
    @given(weight_stacks(), st.data())
    def test_one_sort_matches_two_argsorts(self, stack, data):
        # the scores' sort is checked against the exact rows, so any untied
        # scores give the definition's answer: the exact rows' stable ranks,
        # whose sort is the one wanted, or a shuffle, which sorts them again
        exact_w, eala_w = stack
        n = exact_w.shape[1]
        if data.draw(st.booleans()):
            ranks = np.argsort(np.argsort(exact_w, axis=1, kind="stable"), axis=1)
        else:
            ranks = [data.draw(st.permutations(range(n))) for _ in exact_w]
        scores = np.asarray(ranks, dtype=float)
        want = two_argsorts(scores, exact_w, eala_w)
        assert None not in want
        assert _rank_comparison(scores, exact_w, eala_w) == want

    @given(underflow_stacks())
    def test_underflowed_weights_match_two_argsorts(self, stack):
        scores, exact_w, eala_w = stack
        assert (np.sum(exact_w == 0.0, axis=1) >= 2).all()
        assert _rank_comparison(scores, exact_w, eala_w) == two_argsorts(scores, exact_w, eala_w)

    def test_tied_scores_are_excluded(self):
        scores = np.array([[1.0, 1.0 + TIE_TOL / 2, 3.0], [1.0, 2.0, 3.0]])
        w = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        assert _rank_comparison(scores, w, w) == [None, True]

    def test_disagreement_detected(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        exact_w = np.array([[0.1, 0.3, 0.6]])
        flipped = np.array([[0.6, 0.3, 0.1]])
        assert _rank_comparison(scores, exact_w, flipped) == [False]

    def test_single_column_never_ties(self):
        got = _rank_comparison(np.array([[2.5]]), np.array([[1.0]]), np.array([[1.0]]))
        assert got == [True]


class TestReportSerialization:
    def test_fields_are_the_workload_and_the_schema_lists(self):
        # the workload is one WorkloadSpec field, not a copy of its fields
        assert [f.name for f in dataclasses.fields(FidelityReport)] == [
            "workload", "entropy_source", *PER_QUERY, *AGGREGATES]

    def test_json_shape_and_key_order(self, report):
        text = report.to_json()
        parsed = json.loads(text)
        assert list(parsed.keys()) == ["workload", "entropy_source",
                                       "per_query", "aggregates"]
        assert list(parsed["workload"].keys()) == ["n", "c", "score_scale",
                                                   "seed"]
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


def reference_report(spec, source):
    """The report built one query at a time from the 1-D oracle calls.  The
    exact source's theta is theta_star of the query's S2 = |khat q|^2 and
    softmax entropy H, and its output the eala weight rows times V."""
    q, k, v = gen_workload(spec)
    exact = exact_attention(q, k, v, keep_weights=True)
    approx = eala_attention(q, k, v)
    khat, _ = center_keys(k)
    if source == "exact":
        targets = exact.entropies
        s2 = [np.einsum("j,j->", a, a) for a in q @ khat.T]
        thetas = np.concatenate([theta_star(np.array([x]), targets[i:i + 1], spec.n)
                                 for i, x in enumerate(s2)])
    else:
        targets, thetas = approx.entropies, approx.thetas
    eala_w = eala_weights(q, khat, thetas)
    output = eala_w @ v if source == "exact" else approx.output
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
            bis.append(bisection_theta(khat @ q[i], targets[i])
                       if spec.n <= BISECTION_N_LIMIT else None)
        except ValueError:
            bis.append(None)
        srt = np.sort(scores[i])
        if srt.size > 1 and float(np.min(np.diff(srt))) <= TIE_TOL:
            match.append(None)
        else:
            match.append(bool(np.array_equal(np.argsort(exact.weights[i], kind="stable"),
                                             np.argsort(row, kind="stable"))))
    err = np.abs(approx.entropies - exact.entropies)
    scored = [m for m in match if m is not None]
    kls = [x for x in kl if x is not None]
    diff = np.max(np.abs(output - exact.output), axis=1)
    denom = np.max(np.abs(exact.output), axis=1) + 1e-15
    return FidelityReport(
        workload=spec, entropy_source=source,
        entropy_exact=exact.entropies.tolist(),
        entropy_approx=approx.entropies.tolist(),
        theta_closed=thetas.tolist(),
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
        got, want = compare(spec, source), reference_report(spec, source)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()

    def test_specs_cover_mixed_and_rejected_blocks(self):
        # scale 3: valid and invalid rows, solved and rejected, in one block
        r = compare(MIXED_SPECS[0])
        assert 0 < sum(r.weights_valid) < r.workload.n
        assert 0 < sum(t is None for t in r.theta_bisection) < r.workload.n
        # scale 30: every row of every block is rejected
        r = compare(MIXED_SPECS[1])
        assert not any(r.weights_valid)
        assert all(t is None for t in r.theta_bisection)


def _cells(report):
    return ([(k, i, v) for k in PER_QUERY for i, v in enumerate(getattr(report, k))]
            + [(k, None, getattr(report, k)) for k in AGGREGATES])


class TestMultiBlockReports:
    # equal blocks of about 128 and 83 queries: a block's GEMMs may take
    # another BLAS kernel than the products over all queries, so the last
    # bits of the exact weights, eala weights and outputs may move
    @pytest.mark.parametrize("source", ["approx", "exact"])
    @pytest.mark.parametrize("spec", [WorkloadSpec(1024, 4, 0.1, 3), WorkloadSpec(1500, 32, 0.1, 3)],
                             ids=lambda s: f"n{s.n}-c{s.c}")
    def test_cells_match_per_query_calls_to_1e9(self, spec, source):
        assert len(_query_block_edges(spec.n, spec.n)) > 2
        got, want = compare(spec, source), reference_report(spec, source)
        for (name, i, g), (_, _, w) in zip(_cells(got), _cells(want), strict=True):
            if isinstance(w, float):
                assert isinstance(g, float) and (g == w or abs(g - w) <= 1e-9 * abs(w)), (name, i, g, w)
            else:
                assert g == w and type(g) is type(w), (name, i, g, w)

    def test_peak_stays_under_two_n_by_n_matrices(self):
        # measured 9.0 MiB: the workload's calibration scan, one block of
        # _SCAN_BLOCK score rows and its absolute values.  The query loop
        # peaks lower, at 7.5 MiB: the ranking step's three (rows, n)
        # arrays (the argsort and the sorted scores and their steps) beside
        # the block's raw scores, exact and eala weight rows.  Beside the
        # larger phase, 8 (n, c) arrays bound Q, K, V, khat, the eala
        # output and the per-query columns.
        spec = WorkloadSpec(1024, 32, 0.1, 3)
        edges = _query_block_edges(spec.n, spec.n)
        rows = max(b - a for a, b in zip(edges, edges[1:]))
        tracemalloc.start()
        try:
            compare(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scan, loop = 2 * _SCAN_BLOCK * spec.n, 6 * rows * spec.n
        assert peak <= 8 * (max(scan, loop) + 8 * spec.n * spec.c)
