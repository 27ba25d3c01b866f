import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eala import core
from eala.core import (_QUERY_BLOCK, DENOM_FLOOR, EPSILON, EalaConfig,
                       approx_entropy, center_keys, eala_attention,
                       eala_forward_linear, eala_forward_quadratic,
                       eala_weights, key_moments, score_moments, select_path,
                       theta_star)
from eala.numerics import gaussian_matrix, uniform_stream
from eala.oracle import entropy_from_scores, exact_attention
from strategies import (clustered_key_instances, heavy_tailed_key_instances,
                        low_rank_key_instances, outlier_instance, outlier_key_instances,
                        shifted_key_instances)

CFG = EalaConfig()


def random_instance(n, c, seed, scale=1.0):
    q = gaussian_matrix(n, c, seed, scale)
    k = gaussian_matrix(n, c, seed + 1, scale)
    v = gaussian_matrix(n, c, seed + 2, scale)
    return q, k, v


def moments(k):
    """key_moments of k with no value columns."""
    return key_moments(k, np.zeros((len(k), 0)))


def forced_branches(q, k, v):
    """Runs both forced branches and returns the quadratic result, the
    largest gap between the two outputs over the largest quadratic entry,
    and each query's S2 from its scores.  Both outputs must be finite, and
    theta finite but for the uniform sentinel on rows whose S2 / n is at
    most DENOM_FLOOR (within a factor of 2 for the rounding of the entropy
    gap): all rows when there is one key, which centres to zero."""
    res_q = eala_attention(q, k, v, EalaConfig(path="quadratic"))
    out_l = eala_attention(q, k, v, EalaConfig(path="linear")).output
    assert np.isfinite(res_q.output).all() and np.isfinite(out_l).all()
    scores = q @ center_keys(k)[0].T
    s2 = np.einsum("ij,ij->i", scores, scores)
    uniform = np.isposinf(res_q.thetas) & (s2 <= 2 * DENOM_FLOOR * len(k))
    assert np.all(np.isfinite(res_q.thetas) | uniform)
    denom = max(float(np.max(np.abs(res_q.output))), 1e-300)
    return res_q, float(np.max(np.abs(res_q.output - out_l))) / denom, s2


def linear_forward(q, kh, v, theta):
    """eala_forward_linear fed by the key pass over (kh, v), called as the
    quadratic branch is."""
    return eala_forward_linear(q, key_moments(kh, v), theta)


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
        m = moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(m.gram, [[2.0, 0.0], [0.0, 0.0]])
        assert m.count == 2

    def test_zero_keys_zero_gram(self):
        k = np.zeros((5, 3))
        assert np.all(moments(k).gram == 0.0) and np.all(center_keys(k)[0].sum(axis=0) == 0.0)

    def test_gram_is_symmetric_psd(self):
        m = moments(gaussian_matrix(50, 6, 17))
        assert float(np.max(np.abs(m.gram - m.gram.T))) <= 1e-12
        for s in range(20):
            x = gaussian_matrix(1, 6, 100 + s)[0]
            assert float(x @ m.gram @ x) >= -1e-9

    def test_key_sum_bound(self):
        # the first score moment is left out because the centred keys sum
        # to zero up to round-off
        k = gaussian_matrix(128, 8, 23)
        kh, _ = center_keys(k)
        assert float(np.max(np.abs(kh.sum(axis=0)))) <= 1e-9 * 128 * float(np.max(np.abs(k)))


def whole_matrix_moments(k, v, khat=None):
    """The key pass's three sums, each over all rows at once.  khat, the
    centred keys, defaults to k - np.mean(k); long-double keys from
    `long_double_centring` make long-double sums."""
    if khat is None:
        khat = k - np.mean(k, axis=0)
    return khat.T @ khat, khat.T @ v, np.sum(v, axis=0)


def long_double_centring(k):
    """(khat, mean) of k in long double.  The keys are centred as offsets
    from the first row, which are exact for offset keys, so neither a
    rounded sum of raw keys nor the mean's own rounding biases khat."""
    kl = k.astype(np.longdouble)
    khat = kl - kl[0]
    mean = khat.mean(axis=0)
    khat -= mean
    return khat, kl[0] + mean


def assert_value_sum(got, v):
    """got is the column sum of v up to the summation order: two orders of
    n terms differ by at most 2 n eps sum_j |v_j| per column."""
    bound = 2 * v.shape[0] * np.finfo(np.float64).eps * np.sum(np.abs(v), axis=0)
    assert np.all(np.abs(got - np.sum(v, axis=0)) <= bound)


def max_rel(got, want, scale=None):
    if scale is None:
        scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


class TestKeyPass:
    @pytest.mark.parametrize("n", [_QUERY_BLOCK - 1, _QUERY_BLOCK])
    def test_one_block_is_bitwise_the_whole_matrix(self, n):
        k = gaussian_matrix(n, 16, 1800)
        v = gaussian_matrix(n, 8, 1801)
        m = key_moments(k, v)
        gram, kv, _ = whole_matrix_moments(k, v)
        assert np.array_equal(m.gram, gram) and np.array_equal(m.kv, kv)
        # the value sum is the last row of one GEMM with the centred keys
        assert_value_sum(m.value_sum, v)
        assert np.array_equal(m.mean, np.mean(k, axis=0)) and m.count == n

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n", [_QUERY_BLOCK + 1, 2 * _QUERY_BLOCK + 3])
    def test_blocks_match_the_whole_matrix(self, n, offset):
        k = gaussian_matrix(n, 16, 1810) + offset
        v = gaussian_matrix(n, 8, 1811)
        m = key_moments(k, v)
        # np.mean's sequential sum of the raw keys would bias the reference
        gram, kv, value_sum = whole_matrix_moments(k, v, long_double_centring(k)[0])
        assert max_rel(m.gram, gram) <= 1e-11
        assert max_rel(m.kv, kv) <= 1e-11
        assert_value_sum(m.value_sum, v)

    @pytest.mark.parametrize("keys", [0.0, 1e6, 1e8, "drift"])
    @pytest.mark.parametrize("n", [2 * _QUERY_BLOCK + 3, 65536])
    def test_shifted_pass_matches_long_double(self, n, keys):
        # the shift s is near the keys, so k - s is exact and the mean
        # s + delta is the long-double mean rounded once; measured at
        # most 2.4e-15 (Gram) and 7.0e-15 (khat^T V) over three seeds
        base = gaussian_matrix(n, 16, 1870)
        # "drift" runs from 0 to 1e3 standard deviations down the rows
        k = base + (1e3 * np.linspace(0.0, 1.0, n)[:, None] if keys == "drift" else keys)
        v = gaussian_matrix(n, 8, 1871)
        m = key_moments(k, v)
        khat, mean = long_double_centring(k)
        gram, kv, _ = whole_matrix_moments(k, v, khat)
        spread = float(np.max(np.abs(khat)))
        assert np.all(np.abs(m.mean - mean) <= np.spacing(np.abs(m.mean)) + 1e-15 * spread)
        assert max_rel(m.gram, gram) <= 1e-14
        assert max_rel(m.kv, kv) <= 1e-14
        assert_value_sum(m.value_sum, v)

    def test_offset_keys_keep_their_gram(self):
        # centring against the mean of all keys first loses no spread
        k = gaussian_matrix(2 * _QUERY_BLOCK + 3, 16, 1820)
        m = moments(k + 1e6)
        assert max_rel(m.gram, moments(k).gram) <= 1e-11


class TestScoreMoments:
    def test_zero_query(self):
        m = moments(gaussian_matrix(6, 4, 3))
        assert np.all(score_moments(np.zeros((3, 4)), m) == 0.0)

    def test_s1_vanishes_after_centering(self):
        # offset keys too: centring against their mean leaves only round-off
        k = gaussian_matrix(64, 8, 5) + 1e6
        kh, _ = center_keys(k)
        s1 = gaussian_matrix(10, 8, 200) @ kh.sum(axis=0)
        assert float(np.max(np.abs(s1))) <= 1e-9 * 64 * float(np.max(np.abs(k)))

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=256), st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5000))
    def test_s2_matches_brute_force(self, n, c, m, seed):
        k = gaussian_matrix(n, c, seed)
        kh, _ = center_keys(k)
        q = gaussian_matrix(m, c, seed + 7)
        s2 = score_moments(q, moments(k))
        assert s2.shape == (m,)
        for i in range(m):
            brute = 0.0
            for j in range(n):
                brute += float(np.dot(q[i], kh[j])) ** 2
            assert abs(s2[i] - brute) <= 1e-10 * max(brute, 1e-12)

    def test_shape_validation(self):
        m = moments(gaussian_matrix(6, 4, 3))
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
        assert approx_entropy(np.zeros(3), 7).tolist() == [np.log(7.0)] * 3

    def test_worked_value(self):
        h = approx_entropy(single(0.02), 2)
        assert abs(h[0] - 0.6831471806) <= 1e-9

    def test_matches_exact_to_half_squared_scale(self):
        # scores (s, -s): error of the expansion is about s^2/2 for small s
        s = np.array([0.05, 0.1, 0.2])
        h_hat = approx_entropy(2 * s * s, 2)
        for i in range(3):
            h_true = entropy_from_scores(np.array([s[i], -s[i]]))
            assert abs(h_hat[i] - h_true) <= 0.75 * s[i] * s[i]

    def test_clamp_floor_and_ceiling(self):
        s2 = 10 * 64 * np.log(64.0)
        assert np.log(64.0) - s2 / 64 < 0.0  # the unclipped estimate
        assert approx_entropy(single(s2), 64)[0] == 0.0
        # S2 < 0 lifts the unclipped estimate above log n
        assert approx_entropy(single(-0.5), 4)[0] == np.log(4.0)

    def test_domain_violation(self):
        with pytest.raises(ValueError, match="n must be"):
            approx_entropy(single(0.0), 0)
        with pytest.raises(ValueError, match="1-D"):
            approx_entropy(np.zeros((2, 3)), 4)


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


class TestApproxThetaClosedForm:
    """Fed the approximate entropy, theta_star is a closed form of S2: the
    gap log n - Hhat is S2 / n below the clip, so theta is 1/sqrt(2) + eps
    there and sqrt(S2 / (2 n log n)) + eps above it."""

    @given(st.integers(min_value=2, max_value=1 << 20),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_matches_closed_form(self, n, s2_per_key):
        s2 = single(s2_per_key * n)
        got = float(theta_star(s2, approx_entropy(s2, n), n)[0])
        want = max(np.sqrt(0.5), np.sqrt(s2[0] / (2 * n * np.log(n)))) + EPSILON
        assert abs(got - want) <= 1e-9 * want

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.floats(min_value=0.0, max_value=DENOM_FLOOR))
    def test_vanishing_s2_gives_the_sentinel(self, n, s2):
        assert theta_star(single(s2), approx_entropy(single(s2), n), n)[0] == np.inf

    @given(st.floats(min_value=0.0, max_value=1e300))
    def test_single_key_gives_the_sentinel(self, s2):
        assert theta_star(single(s2), approx_entropy(single(s2), 1), 1)[0] == np.inf


class TestConfig:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(EalaConfig)] == ["path"]
        assert CFG.path == "auto"

    def test_validation(self):
        with pytest.raises(ValueError):
            EalaConfig(path="diagonal")

    @pytest.mark.parametrize("source", ["approx", "exact"])
    def test_entropy_source_is_not_a_field(self, source):
        # the exact entropy source is a setting of compare alone
        with pytest.raises(TypeError):
            EalaConfig(entropy_source=source)


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
        for fwd in (eala_forward_quadratic, linear_forward):
            out = fwd(q, kh, v, theta)
            np.testing.assert_allclose(out, np.tile(v[0], (12, 1)), atol=1e-9)

    def test_zero_keys_average_values(self):
        q, _, v = random_instance(10, 4, 700)
        out = eala_forward_quadratic(q, np.zeros((10, 4)), v, np.full(10, 2.0))
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (10, 1)), atol=1e-12)

    def test_zero_values_give_zero(self):
        q, k, _ = random_instance(8, 3, 800)
        kh, _ = center_keys(k)
        assert np.all(linear_forward(q, kh, np.zeros((8, 3)), np.ones(8)) == 0.0)

    def test_single_key_returns_its_value(self):
        out = linear_forward(np.array([[1.0, 2.0]]), np.zeros((1, 2)),
                             np.array([[5.0, -3.0]]), np.array([7.7]))
        np.testing.assert_allclose(out, [[5.0, -3.0]], atol=1e-12)

    def test_sentinel_theta_averages(self):
        q, k, v = random_instance(9, 5, 900)
        kh, _ = center_keys(k)
        theta = np.full(9, np.inf)
        for fwd in (eala_forward_quadratic, linear_forward):
            np.testing.assert_allclose(fwd(q, kh, v, theta),
                                       np.tile(v.mean(axis=0), (9, 1)), atol=1e-12)

    def test_theta_validation(self):
        q, k, v = random_instance(4, 3, 1000)
        kh, _ = center_keys(k)
        for bad in (np.array([1.0, 1.0, 1.0]),           # wrong length
                    np.array([1.0, -1.0, 1.0, 1.0]),     # negative
                    np.array([1.0, np.nan, 1.0, 1.0])):  # nan
            with pytest.raises(ValueError, match="theta"):
                eala_weights(q, kh, bad)
            for fwd in (eala_forward_quadratic, linear_forward):
                with pytest.raises(ValueError):
                    fwd(q, kh, v, bad)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=96), st.integers(min_value=1, max_value=48),
           st.integers(min_value=0, max_value=9000))
    def test_branch_equivalence(self, n, c, seed):
        q, k, v = random_instance(n, c, seed)
        kh, _ = center_keys(k)
        theta = 0.5 + 2.0 * uniform_stream(seed + 3, n)
        oq = eala_forward_quadratic(q, kh, v, theta)
        ol = linear_forward(q, kh, v, theta)
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
        ol = linear_forward(q, kh, v, theta)
        denom = max(float(np.max(np.abs(oq))), 1e-300)
        assert float(np.max(np.abs(oq - ol))) / denom <= 1e-9

    @pytest.mark.parametrize("n", [_QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1,
                                   2 * _QUERY_BLOCK + 3])
    def test_branch_equivalence_across_key_blocks(self, n):
        # each branch centres the offset keys itself, so center_keys must
        # take the key pass's mean: np.mean's biased sum fails at 1e8
        q = gaussian_matrix(16, 4, 1160)
        v = gaussian_matrix(n, 3, 1162)
        theta = 0.5 + 2.0 * uniform_stream(1163, 16)
        for offset in (0.0, 1e6, 1e8):
            k = gaussian_matrix(n, 4, 1161) + offset
            oq = eala_forward_quadratic(q, center_keys(k)[0], v, theta)
            ol = eala_forward_linear(q, key_moments(k, v), theta)
            denom = max(float(np.max(np.abs(oq))), 1e-300)
            assert float(np.max(np.abs(oq - ol))) / denom <= 1e-9, offset

    def test_weight_rows_sum_to_one_for_any_theta(self):
        q, k, _ = random_instance(20, 6, 1100)
        kh, _ = center_keys(k)
        for theta_scale in (0.2, 1.0, 50.0, np.inf):
            theta = np.full(20, theta_scale)
            w = eala_weights(q, kh, theta)
            assert float(np.max(np.abs(w.sum(axis=1) - 1.0))) <= 1e-9


THETA0 = np.sqrt(0.5) + EPSILON


def closed_form_theta(s2, n):
    """The approx path's theta of each S2 >= 0: THETA0 where Hhat is not
    clipped, sqrt(S2 / (2 n log n)) + EPSILON where it is, and the
    sentinel where S2 or the gap log n - Hhat is at most DENOM_FLOOR."""
    log_n = np.log(float(n))
    h = approx_entropy(s2, n)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 1: every row is the sentinel
        theta = np.where(h > 0.0, THETA0, np.sqrt(s2 / (log_n * (2.0 * n))) + EPSILON)
    theta[np.fmin(s2, log_n - h) <= DENOM_FLOOR] = np.inf
    return theta


def folded_rows(theta):
    """Per row, whether every theta of its query block is THETA0, which
    the linear branch folds into KV in place of scaling the rows."""
    folded = np.empty(len(theta), dtype=bool)
    for lo in range(0, len(theta), _QUERY_BLOCK):
        folded[lo:lo + _QUERY_BLOCK] = np.all(theta[lo:lo + _QUERY_BLOCK] == THETA0)
    return folded


def whole_matrix_linear_path(q, k, v):
    """The linear path with every query-side product over all rows at once:
    the reference for the row-blocked score moments and forward."""
    khat = k - np.mean(k, axis=0)
    n, c = khat.shape
    s2 = np.einsum("ij,ij->i", q @ (khat.T @ khat), q)
    np.maximum(s2, 0.0, out=s2)
    ent = approx_entropy(s2, n)
    theta = closed_form_theta(s2, n)
    # one GEMM gives khat^T V and, through a column of ones, the value sum
    kv_sum = np.hstack([khat, np.ones((n, 1))]).T @ v
    out = np.where(folded_rows(theta)[:, None], q @ (kv_sum[:c] / (n * THETA0)),
                   (q * (1.0 / (n * theta))[:, None]) @ kv_sum[:c]) + kv_sum[c] / n
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
        # named at the entry, with no queries too, on every branch and by the oracle
        for q in (np.zeros((0, 3)), gaussian_matrix(4, 3, 7)):
            for path in ("linear", "quadratic"):
                with pytest.raises(ValueError, match="nonempty"):
                    eala_attention(q, np.zeros((0, 3)), np.zeros((0, 2)), EalaConfig(path=path))
            with pytest.raises(ValueError, match="nonempty"):
                exact_attention(q, np.zeros((0, 3)), np.zeros((0, 2)))


class RecordedRows:
    """A row reader over a matrix that records every row range read."""

    def __init__(self, mat):
        self.mat = mat
        self.shape = mat.shape
        self.reads = []

    def __getitem__(self, rows):
        lo, hi, _ = rows.indices(self.shape[0])
        self.reads.append((lo, hi))
        return self.mat[lo:hi].copy()


class RecordedWriter:
    """A row writer into a matrix that records every row range written."""

    def __init__(self, shape):
        self.shape = shape
        self.mat = np.full(shape, np.nan)
        self.writes = []

    def __setitem__(self, rows, block):
        lo, hi, _ = rows.indices(self.shape[0])
        self.writes.append((lo, hi))
        self.mat[lo:hi] = block


class TestRowReaders:
    N = 2 * _QUERY_BLOCK + 3
    BLOCKS = [(0, _QUERY_BLOCK), (_QUERY_BLOCK, 2 * _QUERY_BLOCK), (2 * _QUERY_BLOCK, N)]

    def readers(self, n=N, c=8):
        return [RecordedRows(m) for m in random_instance(n, c, 2000, 0.05)]

    @pytest.mark.parametrize("path", ["auto", "linear"])
    def test_linear_path_reads_row_blocks_only(self, path):
        q, k, v = self.readers()
        res = eala_attention(q, k, v, EalaConfig(path=path))
        want = eala_attention(q.mat, k.mat, v.mat, EalaConfig(path=path))
        for a, b in zip((res.output, res.entropies, res.thetas),
                        (want.output, want.entropies, want.thetas)):
            assert np.array_equal(a, b)
        assert q.reads == k.reads == v.reads == self.BLOCKS  # one pass over each

    @pytest.mark.parametrize("path", ["auto", "linear"])
    def test_linear_path_writes_each_block_once(self, path):
        q, k, v = self.readers()
        out = RecordedWriter((self.N, 8))
        res = eala_attention(q, k, v, EalaConfig(path=path), out=out)
        assert res.output is out
        assert out.writes == self.BLOCKS
        want = eala_attention(q.mat, k.mat, v.mat, EalaConfig(path=path))
        assert np.array_equal(out.mat, want.output)
        assert q.reads == k.reads == v.reads == self.BLOCKS

    @pytest.mark.parametrize("cfg", [EalaConfig(path="quadratic")])
    def test_branches_needing_khat_stream_queries_and_output(self, cfg):
        q = self.readers()[0]
        k, v = self.readers(n=40)[1:]
        out = RecordedWriter((self.N, 8))
        res = eala_attention(q, k, v, cfg, out=out)
        assert res.output is out
        want = eala_attention(q.mat, k.mat, v.mat, cfg)
        assert np.array_equal(out.mat, want.output)
        # khat needs K whole, and V is read with it
        assert q.reads == out.writes == self.BLOCKS
        assert k.reads == v.reads == [(0, 40)]

    @pytest.mark.parametrize("cfg", [EalaConfig(path="quadratic")])
    def test_branches_needing_khat_write_once_whole(self, cfg):
        q, k, v = self.readers(n=40)
        out = RecordedWriter((40, 8))
        eala_attention(q, k, v, cfg, out=out)
        want = eala_attention(q.mat, k.mat, v.mat, cfg)
        assert np.array_equal(out.mat, want.output)
        # at 40 rows the query loop has one block
        assert out.writes == [(0, 40)]

    @pytest.mark.parametrize("cfg", [EalaConfig(path="quadratic")])
    def test_branches_needing_khat_read_each_input_once_whole(self, cfg):
        q, k, v = self.readers(n=40)
        res = eala_attention(q, k, v, cfg)
        want = eala_attention(q.mat, k.mat, v.mat, cfg)
        assert np.array_equal(res.output, want.output)
        assert q.reads == k.reads == v.reads == [(0, 40)]

    def test_quadratic_branch_holds_one_block_of_weights(self):
        q = random_instance(self.N, 8, 2002, 0.05)[0]
        _, k, v = random_instance(40, 8, 2003, 0.05)
        tracemalloc.start()
        try:
            eala_attention(q, k, v, EalaConfig(path="quadratic"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * self.N * 40

    def test_array_out_is_filled_and_returned(self):
        q, k, v = random_instance(self.N, 8, 2001, 0.05)
        for cfg in (EalaConfig(path="linear"), EalaConfig(path="quadratic")):
            out = np.full((self.N, 8), np.nan)
            res = eala_attention(q, k, v, cfg, out=out)
            assert res.output is out
            assert np.array_equal(out, eala_attention(q, k, v, cfg).output)

    @pytest.mark.parametrize("cfg", [EalaConfig(path="linear"), EalaConfig(path="quadratic")])
    @pytest.mark.parametrize("layout", ["out is Q", "out one row past Q", "out over V"])
    def test_out_overlapping_an_input(self, cfg, layout):
        q, k, v = random_instance(self.N, 8, 2004, 0.05)
        k, v = k[:40], v[:40]
        want = eala_attention(q, k, v, cfg)
        if layout == "out is Q":
            out = q
        elif layout == "out one row past Q":
            # writing a block of output changes the first row of the next block of Q
            buf = np.vstack([q, q[:1]])
            q, out = buf[:-1], buf[1:]
        else:
            # writing the first block of output overwrites V
            out = np.vstack([v, np.zeros((self.N - 40, 8))])
            v = out[:40]
        res = eala_attention(q, k, v, cfg, out=out)
        assert res.output is out
        for a, b in zip((out, res.entropies, res.thetas),
                        (want.output, want.entropies, want.thetas)):
            assert np.array_equal(a, b)

    def test_out_of_the_wrong_shape_is_refused(self):
        q, k, v = self.readers(n=40)
        with pytest.raises(ValueError, match="not the output's"):
            eala_attention(q, k, v, out=RecordedWriter((40, 7)))
        assert q.reads == k.reads == v.reads == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_overflow_in_a_reader_is_told_apart(self):
        q, _, v = self.readers()
        k = RecordedRows(np.full((self.N, 8), 1e308))
        with pytest.raises(ValueError, match="key mean overflows float64 although K is finite"):
            eala_attention(q, k, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_in_a_late_query_block_is_named(self):
        q, k, v = self.readers()
        q.mat[-1, 0] = np.nan
        with pytest.raises(ValueError, match="^Q holds NaN or inf$"):
            eala_attention(q, k, v)


def pipeline_chain(q, k, v, cfg):
    """eala_attention spelled out with the public functions, one query
    block of _QUERY_BLOCK rows at a time: the key pass (or the centred
    keys), S2, the entropy, theta and the branch's forward.  Theta is the
    closed form, and a linear block whose thetas are all THETA0 folds it
    into KV."""
    n = len(k)
    quadratic = select_path(cfg.path, n, q.shape[1]) == "quadratic"
    if quadratic:
        khat = center_keys(k)[0]
    else:
        m = key_moments(k, v)
    outs, ents, thetas = [], [], []
    for lo in range(0, len(q), _QUERY_BLOCK):
        qb = q[lo:lo + _QUERY_BLOCK]
        if quadratic:
            scores = qb @ khat.T
            s2 = np.einsum("ij,ij->i", scores, scores)
        else:
            s2 = score_moments(qb, m)
        ent = approx_entropy(s2, n)
        theta = closed_form_theta(s2, n)
        fold = np.all(theta == THETA0)
        outs.append(eala_forward_quadratic(qb, khat, v, theta) if quadratic
                    else eala_forward_linear(qb, m, THETA0 if fold else theta))
        ents.append(ent)
        thetas.append(theta)
    return np.vstack(outs), np.concatenate(ents), np.concatenate(thetas)


# block edges of the query loop and the key pass, and small sizes
PIPELINE_SIZES = st.one_of(st.integers(min_value=1, max_value=40),
                           st.sampled_from([_QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1,
                                            2 * _QUERY_BLOCK + 3]))


class TestPipelineChain:
    """eala_attention runs private kernels where the public functions check
    their input; both are one arithmetic, bit for bit."""

    @given(m=PIPELINE_SIZES, n=PIPELINE_SIZES, c=st.integers(min_value=1, max_value=48),
           seed=st.integers(min_value=0, max_value=10_000),
           scale=st.sampled_from([0.05, 1.0, 8.0]), zero_rows=st.booleans(),
           path=st.sampled_from(["auto", "quadratic", "linear"]))
    def test_matches_the_public_functions(self, m, n, c, seed, scale, zero_rows, path):
        assume(min(m, n) <= 40)  # one side long at a time keeps the quadratic branch cheap
        q = gaussian_matrix(m, c, seed, scale)
        if zero_rows:
            q[::3] = 0.0  # S2 = 0: the sentinel theta
        k = gaussian_matrix(n, c, seed + 1, scale)
        v = gaussian_matrix(n, 3, seed + 2)
        cfg = EalaConfig(path=path)
        res = eala_attention(q, k, v, cfg)
        for got, want in zip((res.output, res.entropies, res.thetas), pipeline_chain(q, k, v, cfg)):
            assert np.array_equal(got, want)


class TestNonFiniteInput:
    """NaN and inf are found in sums the pipeline takes anyway (the key
    mean, the value sum, S2) and named, with no RuntimeWarning on the way."""

    CONFIGS = [EalaConfig(path="linear"), EalaConfig(path="quadratic")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["Q", "K", "V"])
    def test_input_is_named(self, name, bad, cfg):
        inputs = dict(zip("QKV", random_instance(12, 5, 1900)))
        inputs[name][3, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf$"):
            eala_attention(*inputs.values(), cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_in_one_key_column(self):
        q, k, v = random_instance(12, 5, 1910)
        k[2, 1], k[7, 1] = np.inf, -np.inf
        with pytest.raises(ValueError, match="^K holds NaN or inf$"):
            eala_attention(q, k, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_query_against_identical_keys(self):
        # the Gram is zero, so inf meets only zeros
        q, _, v = random_instance(12, 3, 1920)
        q[0, 0] = np.inf
        with pytest.raises(ValueError, match="^Q holds NaN or inf$"):
            eala_attention(q, np.ones((12, 3)), v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_values_pass(self):
        # the value sum's square overflows, but the value sum does not
        q, k, v = random_instance(12, 3, 1940)
        out = eala_attention(q, k, v * 1e155).output
        assert np.isfinite(out).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path", ["linear", "quadratic"])
    def test_large_scores_and_values_pass(self, path):
        # q . khat near 1e100 and V near 1e210: q KV would overflow, but
        # theta grows with the scores, so the output stays near V's scale
        q = gaussian_matrix(8, 4, 1950) * 1e50
        k = gaussian_matrix(8, 4, 1951) * 1e50
        v = gaussian_matrix(8, 3, 1952) * 1e210
        res = eala_attention(q, k, v, EalaConfig(path=path))
        for got, want in zip((res.output, res.entropies, res.thetas), direct_sums(q, k, v)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_kv_is_told_apart(self):
        # keys near 1e50 and V near 1e260: the key mean and the value sum
        # are finite, khat^T V is not
        q = gaussian_matrix(8, 4, 16)
        k = gaussian_matrix(8, 4, 17) * 1e50
        v = gaussian_matrix(8, 3, 18) * 1e260
        with pytest.raises(ValueError, match=r"^khat\^T V overflows float64 although K and V are finite$"):
            eala_attention(q, k, v, EalaConfig(path="linear"))
        # the quadratic branch reads no KV and is fine
        assert np.isfinite(eala_attention(q, k, v, EalaConfig(path="quadratic")).output).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_overflow_is_told_apart(self):
        q, _, v = random_instance(12, 3, 1930)
        with pytest.raises(ValueError, match="key mean overflows float64 although K is finite"):
            eala_attention(q, np.full((12, 3), 1e308), v)


def direct_sums(q, k, v):
    """Output, entropies and thetas of the approx pipeline from the n x n
    scores of the centred keys, with S2 summed over them directly."""
    n = k.shape[0]
    scores = q @ (k - k.mean(axis=0)).T
    s2 = np.sum(scores * scores, axis=1)
    log_n = np.log(n)
    ent = np.clip(log_n - s2 / n, 0.0, log_n)
    theta = np.sqrt(s2 / (2 * n * (log_n - ent))) + EPSILON
    return (1.0 + scores / theta[:, None]) / n @ v, ent, theta


class TestKeyMagnitude:
    """Keys far above unit scale centre to round-off that the pipeline
    never sums into an entropy expansion, so finite keys of any magnitude
    whose Gram fits in float64 give the reconstruction's results."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path", ["linear", "quadratic"])
    @pytest.mark.parametrize("scale", [1e16, 1e20, 1e50])
    def test_large_keys_match_direct_sums(self, scale, path):
        q = gaussian_matrix(8, 4, 16)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        k = gaussian_matrix(8, 4, 17) * scale
        v = gaussian_matrix(8, 3, 18)
        res = eala_attention(q, k, v, EalaConfig(path=path))
        for got, want in zip((res.output, res.entropies, res.thetas), direct_sums(q, k, v)):
            # the entropies clip to exactly 0, so the bound is relative
            # to the largest entry
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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

    # about 40 examples of each key set, or the deep profile's count
    @settings(max_examples=max(150, settings.default.max_examples))
    @given(st.one_of(*(keys(max_n=2 * _QUERY_BLOCK + 3) for keys in (
        shifted_key_instances, low_rank_key_instances, heavy_tailed_key_instances,
        clustered_key_instances))))
    def test_forced_paths_agree_on_shifted_keys(self, qkv):
        # the quadratic branch centres K with center_keys, the linear one in
        # the key pass: both by one rule for the mean, across key blocks too.
        # Keys of rank below c give a singular Gram, which nothing inverts.
        # Student-t keys of one degree of freedom reach 1e4 and more, and
        # clustered keys give the sentinel to queries of norm near 1e-3.
        assert forced_branches(*qkv)[1] <= 1e-9

    @settings(max_examples=60)
    @given(outlier_key_instances(max_n=2 * _QUERY_BLOCK + 3))
    def test_forced_paths_on_an_outlier_key_differ_by_the_gram_limit(self, qkv):
        # A measured limit of the 1e-9 bound (see the next test).  One key
        # scaled by up to 1e8 dominates the Gram M.  The linear branch's
        # S2 = q M q^T then errs by about eps |q|^2 |M|, where the scores
        # give S2 = sum_j (q.khat_j)^2 to about eps S2.  Above the entropy
        # clip theta grows as sqrt(S2), so for a query nearly orthogonal to
        # the outlier the gap grows with |q|^2 |M| / S2.  Over 125000 draws
        # of this set the gap stayed below 0.53 times the bound here.
        q, k, v = qkv
        _, gap, s2 = forced_branches(q, k, v)
        live = s2 > 2 * DENOM_FLOOR * len(k)
        cond = np.sum(q[live] ** 2, axis=1) * np.linalg.norm(center_keys(k)[0], 2) ** 2 / s2[live]
        assert gap <= 1e-9 + q.shape[1] * np.finfo(float).eps * float(np.max(cond, initial=0.0))

    def test_an_outlier_key_breaks_the_branch_bound(self):
        # Pinned, the largest gap of those draws: with key 679 of 866 scaled
        # by 10^7.29 the forced branches differ by 1.2e-5, and the error is
        # the linear branch's.  The quadratic output is within 9.2e-12 of
        # long double arithmetic on the same formulas.
        q, k, v = outlier_instance(866, 27, 3, 679, 7.293184400465067, 6044)
        res_q, gap, _ = forced_branches(q, k, v)
        assert gap > 1e-6
        ld = np.longdouble
        khat = k.astype(ld) - k.astype(ld).mean(axis=0)
        scores = q.astype(ld) @ khat.T
        s2, log_n = np.sum(scores * scores, axis=1), np.log(ld(len(k)))
        theta = np.sqrt(s2 / (2 * len(k) * (log_n - np.maximum(log_n - s2 / len(k), 0)))) + EPSILON
        want = (v.sum(axis=0) + (q / theta[:, None]) @ (khat.T @ v)) / len(k)
        assert np.max(np.abs(res_q.output - want)) <= 1e-10 * np.max(np.abs(want))

    def test_quadratic_branch_takes_s2_from_its_scores(self):
        # C > N: S2 is the row sums of squares of the score block the
        # branch forms, not q M q^T
        q, k, v = random_instance(24, 40, 1250, scale=0.1)
        scores = q @ center_keys(k)[0].T
        s2 = np.einsum("ij,ij->i", scores, scores)
        res = eala_attention(q, k, v)
        assert np.array_equal(res.entropies, approx_entropy(s2, 24))
        assert np.array_equal(res.thetas, closed_form_theta(s2, 24))

    def test_quadratic_branch_forms_the_scores_once(self, monkeypatch):
        # C > N: the block's scores that gave S2 become the weights in place,
        # so eala_weights, which forms q khat^T again, is never called
        q, k, v = random_instance(24, 40, 1260, scale=0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("eala_weights called")

        monkeypatch.setattr(core, "eala_weights", refuse)
        res = eala_attention(q, k, v)
        monkeypatch.undo()
        want = eala_forward_quadratic(q, center_keys(k)[0], v, res.thetas)
        assert np.array_equal(res.output, want)

    def test_quadratic_forward_takes_matching_scores_only(self):
        q, k, v = random_instance(6, 4, 1270)
        khat = center_keys(k)[0]
        theta = np.full(6, 2.0)
        want = eala_forward_quadratic(q, khat, v, theta)
        assert np.array_equal(eala_forward_quadratic(q, khat, v, theta, scores=q @ khat.T), want)
        for bad in (q[:5] @ khat.T, q @ khat[:5].T, (q @ khat.T).astype(np.float32), (q @ khat.T).tolist()):
            with pytest.raises(ValueError, match="scores must be"):
                eala_forward_quadratic(q, khat, v, theta, scores=bad)
        with pytest.raises(ValueError, match="scores must be"):  # Q of 5 rows against scores of 6
            eala_forward_quadratic(q[:5], khat, v, theta[:5], scores=q @ khat.T)

    def test_key_shift_invariance(self):
        q, k, v = random_instance(18, 5, 1300)
        shift = gaussian_matrix(1, 5, 1400)[0] * 10.0
        r0 = eala_attention(q, k, v)
        r1 = eala_attention(q, k + shift, v)
        assert float(np.max(np.abs(r0.output - r1.output))) <= 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            eala_attention(gaussian_matrix(4, 3, 1), gaussian_matrix(4, 2, 1),
                           gaussian_matrix(4, 3, 1))
        with pytest.raises(ValueError):
            eala_attention(gaussian_matrix(4, 3, 1), gaussian_matrix(4, 3, 1),
                           gaussian_matrix(5, 3, 1))


class TestCertifiedBlocks:
    """With entropies=False the linear branch with approximate entropies
    gives a block whose S2 the Gram's eigenvalues put above the sentinel's
    floor and below the entropy clip the constant theta, with no S2.  That
    is the theta the default call finds for the block, which it folds into
    KV too, so both calls give the same bits on every block."""

    LINEAR = EalaConfig(path="linear")
    N = 2 * _QUERY_BLOCK + 3

    # about 30 examples of each key set, or the deep profile's count
    @settings(max_examples=max(150, settings.default.max_examples))
    @given(qkv=st.one_of(*(keys(max_n=2 * _QUERY_BLOCK + 3, max_m=2 * _QUERY_BLOCK + 3) for keys in (
        shifted_key_instances, low_rank_key_instances, heavy_tailed_key_instances,
        clustered_key_instances, outlier_key_instances))),
           scale=st.sampled_from([0.05, 1.0, 8.0]), zero_rows=st.booleans(),
           path=st.sampled_from(["auto", "linear"]))
    def test_certified_rows_lie_inside_the_clip(self, qkv, scale, zero_rows, path):
        q, k, v = qkv
        q = q * scale
        if zero_rows:
            q[:_QUERY_BLOCK:3] = 0.0  # S2 = 0 in the first block
        n = len(k)
        cfg = EalaConfig(path=path)
        res = eala_attention(q, k, v, cfg, entropies=False)
        want = eala_attention(q, k, v, cfg)
        assert res.entropies is None
        assert np.array_equal(res.output, want.output)
        assert np.array_equal(res.thetas, want.thetas)
        bounds = core._certified_norms(key_moments(k, v).gram, n, np.log(n))
        khat = center_keys(k)[0]
        for lo in range(0, len(q), _QUERY_BLOCK):
            rows = slice(lo, lo + _QUERY_BLOCK)
            if bounds is not None and core._block_certified(q[rows], bounds):
                scores = q[rows] @ khat.T
                s2 = np.einsum("ij,ij->i", scores, scores)
                assert np.all(s2 <= n * np.log(n)) and np.all(s2 / n > DENOM_FLOOR)
                assert np.all(res.thetas[rows] == THETA0)

    @pytest.mark.parametrize("cfg", [EalaConfig(), LINEAR])
    @pytest.mark.parametrize("case", ["no queries", "no features", "one key",
                                      "identical keys", "more features than keys"])
    def test_degenerate_inputs_certify_nothing(self, case, cfg):
        q, k, v = {
            "no queries": (np.zeros((0, 5)), gaussian_matrix(6, 5, 1), gaussian_matrix(6, 2, 2)),
            "no features": (np.zeros((_QUERY_BLOCK + 5, 0)), np.zeros((6, 0)), gaussian_matrix(6, 2, 3)),
            "one key": (gaussian_matrix(_QUERY_BLOCK + 5, 3, 4), gaussian_matrix(1, 3, 5),
                        gaussian_matrix(1, 2, 6)),
            "identical keys": (gaussian_matrix(10, 3, 7), np.tile([[1.0, 2.0, 3.0]], (10, 1)),
                               gaussian_matrix(10, 3, 8)),
            "more features than keys": random_instance(8, 12, 9, 0.05),
        }[case]
        res = eala_attention(q, k, v, cfg, entropies=False)
        want = eala_attention(q, k, v, cfg)
        assert res.entropies is None
        assert np.array_equal(res.output, want.output)
        assert np.array_equal(res.thetas, want.thetas)
        if len(q):
            assert core._certified_norms(key_moments(k, v).gram, len(k), np.log(len(k))) is None

    def test_certified_blocks_take_no_score_moments(self, monkeypatch):
        # calibrated Gaussians: every block is certified, and its output is
        # the default call's
        q, k, v = random_instance(self.N, 16, 2100, 0.05)
        want = eala_attention(q, k, v)

        def refuse(*args, **kwargs):
            raise AssertionError("S2 computed")

        monkeypatch.setattr(core, "_score_moments", refuse)
        res = eala_attention(q, k, v, entropies=False)
        assert np.all(res.thetas == THETA0)
        assert np.array_equal(res.output, want.output)

    @pytest.mark.parametrize("scale", [1e-5, 0.05])
    def test_certified_output_tracks_long_double(self, scale):
        # theta through the gap log n - Hhat, which cancels to S2 / n,
        # would err by ulp(log n) / (S2 / n) relative: 3e-11 in the output
        # at scale 1e-5, where the constant theta gives about 2e-15
        n, c = _QUERY_BLOCK * 2 + 1, 16
        q, k, v = gaussian_matrix(n, c, 1, scale), gaussian_matrix(n, c, 2), gaussian_matrix(n, c, 3)
        ld = np.longdouble
        khat = k.astype(ld) - k.astype(ld).mean(axis=0)
        s2 = np.einsum("ij,jk,ik->i", q.astype(ld), khat.T @ khat, q.astype(ld))
        theta = np.sqrt(s2 / (2 * n * np.minimum(s2 / n, np.log(ld(n))))) + EPSILON
        want = (v.sum(axis=0, dtype=ld) + (q / theta[:, None]) @ (khat.T @ v)) / n
        for e in (False, True):
            err = np.max(np.abs(eala_attention(q, k, v, entropies=e).output - want)) / np.max(np.abs(want))
            assert err <= 1e-13

    def test_unclipped_thetas_are_the_constant_at_vanishing_s2(self):
        # one feature, 65536 keys: the smallest queries put S2 / n near
        # DENOM_FLOOR, where the gap log n - Hhat keeps only a few digits
        # of S2 / n (theta* 1.9e-4 off), but theta is the constant exactly.
        # A zero query gives its block the sentinel, and that block per-row
        # temperatures.
        n = 65536
        q, k, v = gaussian_matrix(n, 1, 1, 0.05), gaussian_matrix(n, 1, 2), gaussian_matrix(n, 1, 3)
        q[5] = 0.0
        res = eala_attention(q, k, v)
        live = np.isfinite(res.thetas) & (res.entropies > 0.0)
        assert res.thetas[5] == np.inf and live.sum() >= n - 3 and np.min(q[live] ** 2) < 1e-10
        assert np.all(res.thetas[live] == THETA0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    @pytest.mark.parametrize("reader", [False, True])
    def test_bad_late_query_block_is_named(self, bad, reader):
        q, k, v = random_instance(self.N, 8, 2200, 0.05)
        q[-1, 0] = bad
        if reader:
            q, k, v = (RecordedRows(x) for x in (q, k, v))
        match = ("^Q holds NaN or inf$" if not np.isfinite(bad)
                 else "^the score moment S2 overflows float64 although Q is finite$")
        with pytest.raises(ValueError, match=match):
            eala_attention(q, k, v, entropies=False)

    def test_scalar_theta_is_folded_into_kv(self):
        q, k, v = random_instance(40, 6, 2300, 0.05)
        m = key_moments(k, v)
        for theta in (0.7, 3.0):
            got = eala_forward_linear(q, m, theta)
            want = eala_forward_linear(q, m, np.full(40, theta))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(eala_forward_linear(q, m, np.inf),
                              eala_forward_linear(q, m, np.full(40, np.inf)))
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="theta must be positive"):
                eala_forward_linear(q, m, bad)


class TestGivenMoments:
    """eala_attention with key_moments(K, V) in K's place and V None runs
    the linear branch's query pass on those moments: the bits of the call
    on K and V that takes the linear branch, certified blocks or not."""

    @given(m=PIPELINE_SIZES, n=PIPELINE_SIZES, c=st.integers(min_value=1, max_value=24),
           d=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=10_000),
           scale=st.sampled_from([0.05, 1.0, 8.0]), zero_rows=st.booleans(),
           entropies=st.booleans(), path=st.sampled_from(["auto", "linear"]))
    def test_matches_the_call_on_k_and_v(self, m, n, c, d, seed, scale, zero_rows, entropies, path):
        q = gaussian_matrix(m, c, seed, scale)
        if zero_rows:
            q[::3] = 0.0  # S2 = 0: the sentinel theta, and no certified block
        k, v = gaussian_matrix(n, c, seed + 1, scale), gaussian_matrix(n, d, seed + 2)
        got = eala_attention(q, key_moments(k, v), None, EalaConfig(path=path), entropies=entropies)
        want = eala_attention(q, k, v, EalaConfig(path="linear"), entropies=entropies)
        assert np.array_equal(got.output, want.output)
        assert np.array_equal(got.thetas, want.thetas)
        assert (got.entropies is None) == (not entropies)
        assert got.entropies is None or np.array_equal(got.entropies, want.entropies)

    def test_certified_and_uncertified_blocks(self):
        # three query blocks: the first and last certified, the middle one
        # not, for one row far beyond the entropy clip
        n = 2 * _QUERY_BLOCK + 3
        q, k, v = random_instance(n, 16, 2400, 0.05)
        q[_QUERY_BLOCK + 7] *= 1e3
        m = key_moments(k, v)
        bounds = core._certified_norms(m.gram, n, np.log(n))
        certified = [core._block_certified(q[lo:lo + _QUERY_BLOCK], bounds)
                     for lo in range(0, n, _QUERY_BLOCK)]
        assert certified == [True, False, True]
        for e in (False, True):
            got = eala_attention(q, m, None, entropies=e)
            want = eala_attention(q, k, v, entropies=e)
            assert np.array_equal(got.output, want.output)
            assert np.array_equal(got.thetas, want.thetas)
        assert got.thetas[_QUERY_BLOCK + 7] > THETA0

    @pytest.mark.parametrize("cfg, match", [
        (EalaConfig(path="quadratic"), "^path='quadratic' needs K, not its key moments$"),
    ])
    def test_branches_that_read_k_refuse_moments(self, cfg, match):
        q, k, v = random_instance(20, 4, 2500, 0.05)
        with pytest.raises(ValueError, match=match):
            eala_attention(q, key_moments(k, v), None, cfg)

    @pytest.mark.parametrize("change, match", [
        ({"mean": np.zeros(5)}, "do not match Q"),
        ({"gram": np.zeros((4, 5))}, "do not match Q"),
        ({"kv": np.zeros(4)}, "do not match Q"),
        ({"kv": np.zeros((4, 2))}, "do not match Q"),
        ({"value_sum": np.zeros(3)}, "do not match Q"),
        ({"count": 0}, "count at least one key"),
        ({"count": -3}, "count at least one key"),
        ({"count": 2.5}, "count at least one key"),
    ])
    def test_moments_that_do_not_fit_are_refused(self, change, match):
        q, k, v = random_instance(20, 4, 2600, 0.05)
        m = dataclasses.replace(key_moments(k, v), **change)
        with pytest.raises(ValueError, match=match):
            eala_attention(q, m, None)

    def test_queries_and_values_must_fit(self):
        q, k, v = random_instance(20, 4, 2700, 0.05)
        m = key_moments(k, v)
        with pytest.raises(ValueError, match="do not match Q"):
            eala_attention(q[:, :3], m, None)
        with pytest.raises(ValueError, match="^Q must be 2-D$"):
            eala_attention(q[0], m, None)
        with pytest.raises(ValueError, match="^V must be None"):
            eala_attention(q, m, v)

    @pytest.mark.parametrize("field", ["mean", "gram", "kv", "value_sum"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_moments_are_named(self, field, bad):
        q, k, v = random_instance(20, 4, 2800, 0.05)
        m = key_moments(k, v)
        getattr(m, field).flat[-1] = bad
        with pytest.raises(ValueError, match="^the key moments hold NaN or inf$"):
            eala_attention(q, m, None)
