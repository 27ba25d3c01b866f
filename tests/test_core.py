import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eala.core import (_QUERY_BLOCK, DENOM_FLOOR, EPSILON, EalaConfig,
                       approx_entropy, center_keys, eala_attention,
                       eala_forward_linear, eala_forward_quadratic,
                       eala_weights, key_moments, score_moments, select_path,
                       theta_star)
from eala.numerics import gaussian_matrix, uniform_stream
from eala.oracle import bisection_theta, entropy_from_scores, exact_attention

CFG = EalaConfig()


def random_instance(n, c, seed, scale=1.0):
    q = gaussian_matrix(n, c, seed, scale)
    k = gaussian_matrix(n, c, seed + 1, scale)
    v = gaussian_matrix(n, c, seed + 2, scale)
    return q, k, v


class TestCenterKeys:
    def test_already_centered_pair(self):
        kh, mean = center_keys(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(mean, [0.0, 0.0])
        np.testing.assert_array_equal(kh, [[1.0, 0.0], [-1.0, 0.0]])

    def test_equal_rows_center_to_zero(self):
        kh, mean = center_keys(np.tile([[2.0, -3.0]], (6, 1)))
        assert np.all(kh == 0.0)
        np.testing.assert_array_equal(mean, [2.0, -3.0])

    def test_column_means_vanish(self):
        kh, _ = center_keys(gaussian_matrix(64, 8, 7))
        assert float(np.max(np.abs(np.mean(kh, axis=0)))) <= 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    def test_shift_invariance(self, seed):
        k = gaussian_matrix(16, 4, seed)
        shift = gaussian_matrix(1, 4, seed + 1)[0]
        kh1, _ = center_keys(k)
        kh2, _ = center_keys(k + shift)
        assert float(np.max(np.abs(kh1 - kh2))) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            center_keys(np.zeros((0, 3)))


class TestKeyMoments:
    def test_symmetric_pair_gram(self):
        m = key_moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(m.gram, [[2.0, 0.0], [0.0, 0.0]])
        assert m.count == 2

    def test_zero_keys_zero_gram(self):
        m = key_moments(np.zeros((5, 3)))
        assert np.all(m.gram == 0.0) and np.all(m.key_sum_centered == 0.0)

    def test_gram_is_symmetric_psd(self):
        kh, _ = center_keys(gaussian_matrix(50, 6, 17))
        m = key_moments(kh)
        assert float(np.max(np.abs(m.gram - m.gram.T))) <= 1e-12
        for s in range(20):
            x = gaussian_matrix(1, 6, 100 + s)[0]
            assert float(x @ m.gram @ x) >= -1e-9

    def test_key_sum_bound(self):
        k = gaussian_matrix(128, 8, 23)
        kh, _ = center_keys(k)
        m = key_moments(kh)
        assert (float(np.max(np.abs(m.key_sum_centered)))
                <= 1e-9 * 128 * float(np.max(np.abs(k))))


class TestScoreMoments:
    def test_zero_query(self):
        m = key_moments(gaussian_matrix(6, 4, 3))
        s1, s2 = score_moments(np.zeros((3, 4)), m)
        assert np.all(s1 == 0.0) and np.all(s2 == 0.0)

    def test_s1_vanishes_after_centering(self):
        k = gaussian_matrix(64, 8, 5)
        kh, _ = center_keys(k)
        s1, _ = score_moments(gaussian_matrix(10, 8, 200), key_moments(kh))
        assert float(np.max(np.abs(s1))) <= 1e-9 * 64 * float(np.max(np.abs(k)))

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=256), st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5000))
    def test_s2_matches_brute_force(self, n, c, m, seed):
        kh, _ = center_keys(gaussian_matrix(n, c, seed))
        q = gaussian_matrix(m, c, seed + 7)
        _, s2 = score_moments(q, key_moments(kh))
        assert s2.shape == (m,)
        for i in range(m):
            brute = 0.0
            for j in range(n):
                brute += float(np.dot(q[i], kh[j])) ** 2
            assert abs(s2[i] - brute) <= 1e-10 * max(brute, 1e-12)

    def test_cauchy_schwarz_inequality(self):
        kh, _ = center_keys(gaussian_matrix(32, 4, 9))
        s1, s2 = score_moments(gaussian_matrix(10, 4, 300), key_moments(kh))
        assert np.all(s2 >= s1 ** 2 / 32 - 1e-12)

    def test_shape_validation(self):
        m = key_moments(gaussian_matrix(6, 4, 3))
        for bad in (np.zeros(4), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="do not match"):
                score_moments(bad, m)


def single(x):
    return np.array([x], dtype=np.float64)


def theta1(s2, entropy, n):
    """theta_star on one query."""
    return float(theta_star(single(s2), single(entropy), n)[0])


class TestApproxEntropy:
    def test_zero_moments_give_log_n(self):
        assert approx_entropy(np.zeros(3), np.zeros(3), 7).tolist() == [np.log(7.0)] * 3

    def test_worked_value(self):
        h = approx_entropy(single(0.0), single(0.02), 2)
        assert abs(h[0] - 0.6831471806) <= 1e-9

    def test_matches_exact_to_half_squared_scale(self):
        # scores (s, -s): error of the expansion is about s^2/2 for small s
        s = np.array([0.05, 0.1, 0.2])
        h_hat = approx_entropy(np.zeros(3), 2 * s * s, 2)
        for i in range(3):
            h_true = entropy_from_scores(np.array([s[i], -s[i]]))
            assert abs(h_hat[i] - h_true) <= 0.75 * s[i] * s[i]

    def test_clamp_floor_and_ceiling(self):
        s2 = 10 * 64 * np.log(64.0)
        assert np.log(64.0) - s2 / 64 < 0.0  # the unclipped estimate
        assert approx_entropy(single(0.0), single(s2), 64)[0] == 0.0
        # S1 < 0 lifts the unclipped estimate above log n
        assert np.log(3.5) + 0.5 / 3.5 > np.log(4.0)
        assert approx_entropy(single(-0.5), single(0.0), 4)[0] == np.log(4.0)

    def test_domain_violation(self):
        with pytest.raises(ValueError, match="n \\+ S1"):
            approx_entropy(single(-5.0), single(0.0), 4)
        with pytest.raises(ValueError, match="n must be"):
            approx_entropy(single(0.0), single(0.0), 0)
        with pytest.raises(ValueError, match="1-D"):
            approx_entropy(np.zeros(2), np.zeros(3), 4)


class TestThetaStar:
    def test_worked_exact_entropy_case(self):
        assert abs(theta1(0.02, 0.6881720699, 2) - 1.0024983) <= 1e-6

    def test_worked_estimate_case(self):
        th = theta1(0.02, float(np.log(2.0) - 0.01), 2)
        assert abs(th - (np.sqrt(0.5) + EPSILON)) <= 1e-12

    def test_epsilon_floor_is_added(self):
        assert EPSILON == 1e-8
        gap = np.log(2.0) - 0.6881720699
        assert theta1(0.02, 0.6881720699, 2) == np.sqrt(0.02 / (4.0 * gap)) + EPSILON

    def test_uniform_target_sentinel(self):
        assert DENOM_FLOOR == 1e-12
        th = theta_star(np.array([0.02, 0.0, 1e-13, 0.02]),
                        np.array([np.log(2.0), 0.3, 0.3, np.log(2.0) - 1e-13]), 2)
        assert np.all(th == np.inf)

    def test_entropy_domain(self):
        assert theta1(0.02, 1.5, 2) == np.inf  # clips to uniform
        # clips to 0, the one-hot edge: sqrt(S2 / (2 n log n)) + epsilon
        edge = np.sqrt(0.02 / (4.0 * np.log(2.0))) + EPSILON
        assert abs(theta1(0.02, -0.5, 2) - edge) <= 1e-12

    def test_bad_s2(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                theta1(bad, 0.5, 2)
        with pytest.raises(ValueError, match="n must be"):
            theta1(0.02, 0.5, 0)


class TestConfig:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(EalaConfig)] == ["entropy_source", "path"]
        assert CFG.entropy_source == "approx" and CFG.path == "auto"

    def test_validation(self):
        with pytest.raises(ValueError):
            EalaConfig(entropy_source="sampled")
        with pytest.raises(ValueError):
            EalaConfig(path="diagonal")


class TestForwardPaths:
    def test_quadratic_matches_triple_loop(self):
        q, k, v = random_instance(16, 4, 500)
        kh, _ = center_keys(k)
        theta = 1.0 + uniform_stream(77, 16)
        out = eala_forward_quadratic(q, kh, v, theta)
        loop = np.zeros_like(out)
        for i in range(16):
            for j in range(16):
                w = (1.0 + float(np.dot(q[i], kh[j])) / theta[i]) / 16.0
                loop[i] += w * v[j]
        np.testing.assert_allclose(out, loop, rtol=0, atol=1e-12)

    def test_constant_values_pass_through(self):
        q, k, _ = random_instance(12, 3, 600)
        kh, _ = center_keys(k)
        v = np.tile([[4.0, -1.0, 0.25]], (12, 1))
        theta = np.full(12, 0.9)
        for fwd in (eala_forward_quadratic, eala_forward_linear):
            out = fwd(q, kh, v, theta)
            np.testing.assert_allclose(out, np.tile(v[0], (12, 1)), atol=1e-9)

    def test_zero_keys_average_values(self):
        q, _, v = random_instance(10, 4, 700)
        out = eala_forward_quadratic(q, np.zeros((10, 4)), v, np.full(10, 2.0))
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (10, 1)), atol=1e-12)

    def test_zero_values_give_zero(self):
        q, k, _ = random_instance(8, 3, 800)
        kh, _ = center_keys(k)
        assert np.all(eala_forward_linear(q, kh, np.zeros((8, 3)), np.ones(8)) == 0.0)

    def test_single_key_returns_its_value(self):
        out = eala_forward_linear(np.array([[1.0, 2.0]]), np.zeros((1, 2)),
                                  np.array([[5.0, -3.0]]), np.array([7.7]))
        np.testing.assert_allclose(out, [[5.0, -3.0]], atol=1e-12)

    def test_sentinel_theta_averages(self):
        q, k, v = random_instance(9, 5, 900)
        kh, _ = center_keys(k)
        theta = np.full(9, np.inf)
        for fwd in (eala_forward_quadratic, eala_forward_linear):
            np.testing.assert_allclose(fwd(q, kh, v, theta),
                                       np.tile(v.mean(axis=0), (9, 1)), atol=1e-12)

    def test_theta_validation(self):
        q, k, v = random_instance(4, 3, 1000)
        kh, _ = center_keys(k)
        for bad in (np.array([1.0, 1.0, 1.0]),           # wrong length
                    np.array([1.0, -1.0, 1.0, 1.0]),     # negative
                    np.array([1.0, np.nan, 1.0, 1.0])):  # nan
            with pytest.raises(ValueError):
                eala_forward_quadratic(q, kh, v, bad)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=96), st.integers(min_value=1, max_value=48),
           st.integers(min_value=0, max_value=9000))
    def test_branch_equivalence(self, n, c, seed):
        q, k, v = random_instance(n, c, seed)
        kh, _ = center_keys(k)
        theta = 0.5 + 2.0 * uniform_stream(seed + 3, n)
        oq = eala_forward_quadratic(q, kh, v, theta)
        ol = eala_forward_linear(q, kh, v, theta)
        denom = max(float(np.max(np.abs(oq))), 1e-300)
        assert float(np.max(np.abs(oq - ol))) / denom <= 1e-9

    @pytest.mark.parametrize("m", [_QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1,
                                   2 * _QUERY_BLOCK + 3])
    def test_branch_equivalence_across_query_blocks(self, m):
        q = gaussian_matrix(m, 4, 1150)
        kh, _ = center_keys(gaussian_matrix(8, 4, 1151))
        v = gaussian_matrix(8, 3, 1152)
        theta = 0.5 + 2.0 * uniform_stream(1153, m)
        oq = eala_forward_quadratic(q, kh, v, theta)
        ol = eala_forward_linear(q, kh, v, theta)
        denom = max(float(np.max(np.abs(oq))), 1e-300)
        assert float(np.max(np.abs(oq - ol))) / denom <= 1e-9

    def test_weight_rows_sum_to_one_for_any_theta(self):
        q, k, _ = random_instance(20, 6, 1100)
        kh, _ = center_keys(k)
        for theta_scale in (0.2, 1.0, 50.0, np.inf):
            theta = np.full(20, theta_scale)
            w = eala_weights(q, kh, theta)
            assert float(np.max(np.abs(w.sum(axis=1) - 1.0))) <= 1e-9


def whole_matrix_linear_path(q, k, v):
    """The linear path with every query-side product over all rows at once:
    the reference for the row-blocked score moments and forward."""
    khat = k - np.mean(k, axis=0)
    n = khat.shape[0]
    s1 = q @ np.sum(khat, axis=0)
    s2 = np.sum((q @ (khat.T @ khat)) * q, axis=1)
    np.maximum(s2, 0.0, out=s2)
    ent = approx_entropy(s1, s2, n)
    theta = theta_star(s2, ent, n)
    out = (np.sum(v, axis=0)[None, :] + (q / theta[:, None]) @ (khat.T @ v)) / n
    return out, ent, theta


class TestQueryBlocks:
    LINEAR = EalaConfig(path="linear")

    def check(self, q, k, v, bitwise):
        res = eala_attention(q, k, v, self.LINEAR)
        got = (res.output, res.entropies, res.thetas)
        for a, b in zip(got, whole_matrix_linear_path(q, k, v)):
            assert a.shape == b.shape
            if bitwise:
                assert np.array_equal(a, b)
            else:
                finite = np.isfinite(b)
                assert np.array_equal(np.isinf(a), np.isinf(b))
                denom = max(float(np.max(np.abs(b[finite]), initial=0.0)), 1e-300)
                assert float(np.max(np.abs(a - b)[finite], initial=0.0)) / denom <= 1e-12

    @pytest.mark.parametrize("m", [1, 7, _QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1,
                                   2 * _QUERY_BLOCK, 2 * _QUERY_BLOCK + 3, 3 * _QUERY_BLOCK])
    @pytest.mark.parametrize("n,c,d", [(8, 4, 3), (300, 16, 8)])
    def test_matches_whole_matrix_expressions(self, m, n, c, d):
        q = gaussian_matrix(m, c, m + n, 0.05)
        k = gaussian_matrix(n, c, m + n + 1, 0.05)
        v = gaussian_matrix(n, d, m + n + 2)
        # a tail block of odd size (one row takes gemv) may round differently
        self.check(q, k, v, bitwise=m <= _QUERY_BLOCK or m % _QUERY_BLOCK == 0)

    def test_no_queries(self):
        self.check(np.zeros((0, 5)), gaussian_matrix(6, 5, 1), gaussian_matrix(6, 2, 2),
                   bitwise=True)

    def test_no_features(self):
        self.check(np.zeros((_QUERY_BLOCK + 5, 0)), np.zeros((6, 0)),
                   gaussian_matrix(6, 2, 3), bitwise=True)

    def test_single_key(self):
        q = gaussian_matrix(_QUERY_BLOCK + 5, 3, 4)
        self.check(q, gaussian_matrix(1, 3, 5), gaussian_matrix(1, 2, 6), bitwise=True)

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            eala_attention(gaussian_matrix(4, 3, 7), np.zeros((0, 3)), np.zeros((0, 2)),
                           self.LINEAR)


class TestSelectPath:
    def test_auto_rule(self):
        assert select_path("auto", n=8, c=16) == "quadratic"
        assert select_path("auto", n=16, c=8) == "linear"
        assert select_path("auto", n=8, c=8) == "linear"

    def test_forced(self):
        assert select_path("quadratic", n=100, c=1) == "quadratic"
        assert select_path("linear", n=1, c=100) == "linear"


class TestEalaAttention:
    def test_identical_keys_degenerate(self):
        q = gaussian_matrix(10, 3, 1)
        k = np.tile([[1.0, 2.0, 3.0]], (10, 1))
        v = gaussian_matrix(10, 3, 2)
        res = eala_attention(q, k, v)
        assert np.all(np.isinf(res.thetas))
        np.testing.assert_allclose(res.output, np.tile(v.mean(axis=0), (10, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(res.entropies, np.log(10.0), atol=1e-12)

    def test_forced_paths_agree(self):
        q, k, v = random_instance(24, 6, 1200)
        out_q = eala_attention(q, k, v, EalaConfig(path="quadratic")).output
        out_l = eala_attention(q, k, v, EalaConfig(path="linear")).output
        denom = max(float(np.max(np.abs(out_q))), 1e-300)
        assert float(np.max(np.abs(out_q - out_l))) / denom <= 1e-9

    def test_key_shift_invariance(self):
        q, k, v = random_instance(18, 5, 1300)
        shift = gaussian_matrix(1, 5, 1400)[0] * 10.0
        r0 = eala_attention(q, k, v)
        r1 = eala_attention(q, k + shift, v)
        assert float(np.max(np.abs(r0.output - r1.output))) <= 1e-9

    def test_entropy_sources_disagree_by_curvature_factor(self):
        # at small scores the estimate-fed temperature sits near 1/sqrt(2)
        # while the true-entropy one sits near 1: the expansion's curvature
        # is twice the softmax one, and both behaviors are kept visible
        q, k, v = random_instance(32, 8, 1500, scale=1.0)
        kh, _ = center_keys(k)
        scale = 0.05 / float(np.max(np.abs(q @ kh.T)))
        q = q * scale
        res_a = eala_attention(q, k, v, EalaConfig(entropy_source="approx"))
        res_x = eala_attention(q, k, v, EalaConfig(entropy_source="exact"))
        ratio = np.asarray(res_a.thetas) / np.asarray(res_x.thetas)
        assert np.all(np.abs(ratio - np.sqrt(0.5)) < 0.02)

    def test_exact_source_thetas_track_bisection(self):
        q, k, v = random_instance(48, 8, 1600)
        kh, _ = center_keys(k)
        scale = 0.1 / float(np.max(np.abs(q @ kh.T)))
        q = q * scale
        res = eala_attention(q, k, v, EalaConfig(entropy_source="exact"))
        for i in range(48):
            tb = bisection_theta(kh @ q[i], res.entropies[i])
            assert abs(res.thetas[i] - tb) / tb <= 0.05

    def test_output_tracks_exact_attention_at_small_scale(self):
        q, k, v = random_instance(40, 8, 1700)
        kh, _ = center_keys(k)
        q = q * (0.05 / float(np.max(np.abs(q @ kh.T))))
        res = eala_attention(q, k, v, EalaConfig(entropy_source="exact"))
        exact = exact_attention(q, k, v)
        diff = float(np.max(np.abs(res.output - exact.output)))
        assert diff <= 0.05 * float(np.max(np.abs(exact.output)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            eala_attention(gaussian_matrix(4, 3, 1), gaussian_matrix(4, 2, 1),
                           gaussian_matrix(4, 3, 1))
        with pytest.raises(ValueError):
            eala_attention(gaussian_matrix(4, 3, 1), gaussian_matrix(4, 3, 1),
                           gaussian_matrix(5, 3, 1))
