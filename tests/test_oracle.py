import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eala.numerics import gaussian_matrix, uniform_stream
from eala.oracle import (_query_rows, bisection_theta, entropy_from_scores,
                         exact_attention, kl_decomposition, kl_divergence,
                         linear_family_entropy, strict_concavity_check)
from eala.workload import gen_workload_raw
from strategies import (score_vectors, shannon_entropy, simplex_pairs,
                        simplex_vectors, softmax_row)

WORKED_SCORES = np.array([0.1, -0.1])
WORKED_ENTROPY = 0.6881720699  # softmax entropy of scores (0.1, -0.1)


class TestShannonEntropy:
    """The scalar reference that exact_attention's entropies are held to."""

    def test_uniform_and_onehot(self):
        assert abs(shannon_entropy(np.full(4, 0.25)) - np.log(4.0)) <= 1e-12
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_worked_value(self):
        assert abs(shannon_entropy(np.array([0.75, 0.25])) - 0.5623351446) <= 1e-9

    @given(simplex_vectors())
    def test_range(self, p):
        h = shannon_entropy(p)
        assert 0.0 <= h <= np.log(len(p)) + 1e-12

    def test_maximum_only_at_uniform(self):
        n = 16
        top = np.log(n)
        assert abs(shannon_entropy(np.full(n, 1.0 / n)) - top) <= 1e-12
        tilted = np.full(n, 1.0 / n)
        tilted[0] += 0.01
        tilted[1] -= 0.01
        assert shannon_entropy(tilted) < top - 1e-12

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            shannon_entropy(np.array([1.5, -0.5]))


class TestEntropyFromScores:
    def test_worked_value(self):
        assert abs(entropy_from_scores(WORKED_SCORES) - WORKED_ENTROPY) <= 1e-9

    def test_one_hot_limit(self):
        assert 0.0 <= entropy_from_scores(np.array([50.0, 0.0])) < 1e-15

    def test_identical_scores_give_log_n(self):
        assert abs(entropy_from_scores(np.full(9, 2.5)) - np.log(9.0)) <= 1e-12

    @settings(max_examples=100)
    @given(score_vectors(magnitude=20.0))
    def test_matches_softmax_entropy(self, x):
        h = entropy_from_scores(x)
        assert abs(h - shannon_entropy(softmax_row(x))) <= 1e-10
        assert 0.0 <= h <= np.log(len(x)) + 1e-12


class TestExactAttention:
    def test_identical_keys_average_values(self):
        q = gaussian_matrix(6, 4, 1)
        k = np.tile(np.array([[1.0, 2.0, 3.0, 4.0]]), (8, 1))
        v = gaussian_matrix(8, 4, 2)
        res = exact_attention(q, k, v, keep_weights=True)
        np.testing.assert_allclose(res.weights, 1.0 / 8.0, atol=1e-12)
        np.testing.assert_allclose(res.output, np.tile(v.mean(axis=0), (6, 1)), atol=1e-12)
        np.testing.assert_allclose(res.entropies, np.log(8.0), atol=1e-12)

    def test_single_key_returns_values(self):
        q = gaussian_matrix(3, 2, 5)
        k = gaussian_matrix(1, 2, 6)
        v = np.array([[7.0, -2.0]])
        res = exact_attention(q, k, v)
        np.testing.assert_allclose(res.output, np.tile(v, (3, 1)), atol=1e-12)

    def test_matches_rowwise_softmax_oracle(self):
        q = gaussian_matrix(6, 4, 11)
        k = gaussian_matrix(6, 4, 12)
        v = gaussian_matrix(6, 4, 13)
        res = exact_attention(q, k, v, keep_weights=True)
        for i in range(6):
            w = softmax_row(k @ q[i])
            np.testing.assert_allclose(res.weights[i], w, atol=1e-12)
            np.testing.assert_allclose(res.output[i], w @ v, atol=1e-12)
            assert abs(res.entropies[i] - shannon_entropy(w)) <= 1e-10

    def test_weight_rows_are_simplex_points_and_reproduce_output(self):
        q = gaussian_matrix(40, 8, 21)
        k = gaussian_matrix(300, 8, 22)  # crosses the internal row-block width
        v = gaussian_matrix(300, 8, 23)
        res = exact_attention(q, k, v, keep_weights=True)
        sums = res.weights.sum(axis=1)
        assert float(np.max(np.abs(sums - 1.0))) <= 1e-12
        assert np.all(res.weights >= 0.0)
        np.testing.assert_allclose(res.weights @ v, res.output, atol=1e-12)

    def test_dimension_mismatches_raise(self):
        with pytest.raises(ValueError):
            exact_attention(gaussian_matrix(2, 3, 1), gaussian_matrix(2, 4, 1),
                            gaussian_matrix(2, 3, 1))
        with pytest.raises(ValueError):
            exact_attention(gaussian_matrix(2, 3, 1), gaussian_matrix(2, 3, 1),
                            gaussian_matrix(3, 3, 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["Q", "K", "V"])
    def test_nonfinite_input_is_named(self, name, bad):
        inputs = {"Q": gaussian_matrix(7, 4, 31), "K": gaussian_matrix(9, 4, 32),
                  "V": gaussian_matrix(9, 3, 33)}
        inputs[name][2, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf$"):
            exact_attention(*inputs.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["K", "V"])
    def test_nonfinite_input_is_named_without_queries(self, name, bad):
        inputs = {"Q": np.zeros((0, 4)), "K": gaussian_matrix(9, 4, 32),
                  "V": gaussian_matrix(9, 3, 33)}
        res = exact_attention(*inputs.values())
        assert res.output.shape == (0, 3) and res.entropies.shape == (0,)
        inputs[name][2, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf$"):
            exact_attention(*inputs.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_score_overflow_is_told_apart(self):
        with pytest.raises(ValueError, match="^a score overflows float64 although Q and K are finite$"):
            exact_attention(np.full((3, 2), 1e200), np.full((4, 2), 1e200), np.ones((4, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_values_pass(self):
        v = np.array([[1e308], [-1e308]])
        res = exact_attention(np.array([[50.0], [-50.0]]), np.array([[1.0], [-1.0]]), v)
        assert np.isfinite(res.output).all()
        assert res.output[0, 0] > 0.0 > res.output[1, 0]


class TestExactQueryBlocks:
    """Without kept weights exact_attention runs over blocks of query rows."""

    N, C = 2048, 64
    ROWS = _query_rows(N)

    def test_unkept_weights_hold_no_n2_buffer(self):
        q, k, v = gen_workload_raw(self.N, self.C, 0)
        m, n, d = q.shape[0], k.shape[0], v.shape[1]
        exact_attention(q, k, v)  # warm-up
        tracemalloc.start()
        try:
            exact_attention(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one block's scores and one exponential scratch of
        # that size, and a few m-long vectors; the scores alone are 32 MiB
        assert peak <= 8 * (m * d + 2 * self.ROWS * n + 8 * m)

    @pytest.mark.parametrize("m", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    def test_kept_and_unkept_give_the_same_bits(self, m):
        # every block has at least 64 rows, so the BLAS runs the GEMM kernel
        # of the kept path's whole products on it, and rows sum in the same
        # order; a GEMM of a few rows may take another kernel
        q = gaussian_matrix(m, self.C, 41, 0.1)
        k = gaussian_matrix(self.N, self.C, 42)
        v = gaussian_matrix(self.N, self.C, 43)
        kept = exact_attention(q, k, v, keep_weights=True)
        unkept = exact_attention(q, k, v)
        assert unkept.weights is None
        assert np.array_equal(unkept.output, kept.output)
        assert np.array_equal(unkept.entropies, kept.entropies)


class TestKlDivergence:
    def test_self_divergence_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_worked_value(self):
        got = kl_divergence(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        assert abs(got - 0.1308120359) <= 1e-9

    def test_onehot_vs_uniform(self):
        got = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(got - np.log(2.0)) <= 1e-12

    def test_undefined_when_q_has_mass_off_p(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @given(simplex_pairs())
    def test_gibbs_nonnegative(self, pair):
        q, p = pair
        assert kl_divergence(q, p) >= 0.0

    @given(simplex_vectors())
    def test_zero_iff_equal(self, p):
        assert kl_divergence(p, p) == 0.0
        if len(p) >= 2 and p[0] > 2e-3:
            shifted = p.copy()
            shifted[0] -= 1e-3
            shifted[1] += 1e-3
            assert kl_divergence(shifted, p) > 0.0


class TestKlDecomposition:
    def test_uniform_p_closed_form(self):
        q = np.array([0.75, 0.25])
        d = kl_decomposition(q, np.array([0.5, 0.5]))
        assert abs(d.cross_term) <= 1e-12
        assert abs(d.kl - (np.log(2.0) - shannon_entropy(q))) <= 1e-12
        assert abs(d.kl - 0.1308120359) <= 1e-9

    def test_equal_inputs_zero_everything(self):
        p = np.array([0.4, 0.6])
        d = kl_decomposition(p, p)
        assert d.kl == 0.0 and abs(d.entropy_gap) <= 1e-15
        assert abs(d.kl - (d.entropy_gap + d.cross_term)) <= 1e-12

    @settings(max_examples=100)
    @given(simplex_pairs())
    def test_identity_and_bound(self, pair):
        q, p = pair
        d = kl_decomposition(q, p)
        assert abs(d.kl - (d.entropy_gap + d.cross_term)) <= 1e-10
        assert d.kl <= d.bound + 1e-10

    @given(simplex_pairs())
    def test_equal_entropy_corollary(self, pair):
        # when entropies agree, the cross term carries the whole divergence
        q, p = pair
        d = kl_decomposition(q, p)
        if abs(d.entropy_gap) <= 1e-12:
            assert abs(d.kl - d.cross_term) <= 1e-10


class TestStrictConcavity:
    def test_equal_points_zero_margin(self):
        p = np.array([0.3, 0.7])
        assert strict_concavity_check(p, p, 0.25) == 0.0

    def test_vertex_midpoint(self):
        m = strict_concavity_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert abs(m - np.log(2.0)) <= 1e-12

    def test_lambda_domain(self):
        p = np.array([0.3, 0.7])
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                strict_concavity_check(p, p, lam)

    @settings(max_examples=100)
    @given(simplex_pairs(max_n=16), st.floats(min_value=0.01, max_value=0.99))
    def test_margin_sign(self, pair, lam):
        q, p = pair
        m = strict_concavity_check(p, q, lam)
        assert m >= 0.0
        if float(np.max(np.abs(p - q))) > 1e-3:
            assert m > 0.0


class TestLinearFamilyEntropy:
    def test_zero_scores_give_log_n(self):
        h, ok = linear_family_entropy(np.zeros(8), 1.0)
        assert ok and abs(h - np.log(8.0)) <= 1e-12

    def test_worked_fixed_point(self):
        h, ok = linear_family_entropy(WORKED_SCORES, 1.003332)
        assert ok and abs(h - 0.688172) <= 1e-6

    def test_out_of_range_theta_invalidates(self):
        h, ok = linear_family_entropy(np.array([2.0, -2.0]), 1.0)
        assert not ok and np.isnan(h)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            linear_family_entropy(WORKED_SCORES, 0.0)
        with pytest.raises(ValueError):
            linear_family_entropy(WORKED_SCORES, -2.0)
        with pytest.raises(ValueError):
            linear_family_entropy(np.array([0.5, 0.1]), 1.0)  # not centered

    def test_strictly_increasing_in_theta(self):
        a = np.array([0.3, -0.1, -0.2, 0.05, -0.05])
        prev = -np.inf
        for theta in np.linspace(0.31, 5.0, 60):
            h, ok = linear_family_entropy(a, float(theta))
            assert ok and h > prev
            prev = h
        assert prev < np.log(5.0)

    def test_approaches_log_n_from_below(self):
        a = np.array([0.3, -0.3])
        h, ok = linear_family_entropy(a, 1e9 * 0.3)
        assert ok and 0.0 < np.log(2.0) - h < 1e-12


class TestBisectionTheta:
    def test_worked_case(self):
        th = bisection_theta(WORKED_SCORES, WORKED_ENTROPY)
        assert abs(th - 1.0033311) <= 1e-6
        # returned theta reproduces the target through the family
        h, ok = linear_family_entropy(WORKED_SCORES, th)
        assert ok and abs(h - WORKED_ENTROPY) <= 1e-10

    def test_uniform_limit_diverges(self):
        # log 2 - H = t^2 / 2 + O(t^4) with t = 0.1 / theta, so the root of a
        # deficit D is 0.1 / sqrt(2 D), about 70711 here
        target = np.log(2.0) - 1e-12
        th = bisection_theta(WORKED_SCORES, target)
        root = 0.1 / np.sqrt(2.0 * (np.log(2.0) - target))
        assert abs(th / root - 1.0) <= 1e-3

    def test_target_range_validation(self):
        with pytest.raises(ValueError):
            bisection_theta(WORKED_SCORES, 0.0)
        with pytest.raises(ValueError):
            bisection_theta(WORKED_SCORES, np.log(2.0))
        with pytest.raises(ValueError):
            bisection_theta(np.zeros(4), 0.5)

    def test_unattainably_low_target_names_range(self):
        # the family entropy at the bracket edge stays above ~1e-8 here
        with pytest.raises(ValueError, match="attainable"):
            bisection_theta(WORKED_SCORES, 1e-10)

    def test_self_consistency_on_random_vectors(self):
        for seed in range(12):
            a = gaussian_matrix(1, 16, 4000 + seed)[0]
            a -= np.mean(a)
            a *= 0.1 / float(np.max(np.abs(a)))
            target = entropy_from_scores(a)
            th = bisection_theta(a, target)
            h, ok = linear_family_entropy(a, th)
            assert ok and abs(h - target) <= 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    def test_solves_any_feasible_midrange_target(self, seed):
        a = gaussian_matrix(1, 8, seed)[0]
        a -= np.mean(a)
        peak = float(np.max(np.abs(a)))
        if peak == 0.0:
            return
        a *= 0.5 / peak
        lo_h, ok = linear_family_entropy(a, 0.5 * (1.0 + 1e-9))
        assert ok
        target = 0.5 * (lo_h + np.log(8.0))
        th = bisection_theta(a, target)
        h, ok = linear_family_entropy(a, th)
        assert ok and abs(h - target) <= 1e-10
