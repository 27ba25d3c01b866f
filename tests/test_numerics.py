import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eala.numerics import (_GAMMA, _GAUSSIAN_BLOCK, _INV_2_53, _MIX1, _MIX2, U64_MASK,
                           gaussian_matrix, prng_stream, uniform_stream)
from strategies import score_vectors, softmax_row

# First three outputs of the seed-0 stream, from the generator's published
# reference implementation.
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def prng_next(state: int) -> tuple[int, int]:
    """One step of scalar splitmix64, the reference for prng_stream.

    Returns (output, new_state), both 64-bit unsigned.  The update is a
    fixed odd increment followed by a two-round multiply-xorshift finalizer.
    """
    state = (state + _GAMMA) & U64_MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & U64_MASK
    z = z ^ (z >> 31)
    return z, state


class TestPrng:
    def test_seed_zero_reference_vector(self):
        state = 0
        outs = []
        for _ in range(3):
            value, state = prng_next(state)
            outs.append(value)
        assert tuple(outs) == SEED0_OUTPUTS
        assert tuple(int(x) for x in prng_stream(0, 3)) == SEED0_OUTPUTS

    def test_vectorized_stream_matches_stepwise(self):
        state = 12345
        expected = []
        for _ in range(257):
            value, state = prng_next(state)
            expected.append(value)
        got = prng_stream(12345, 257)
        assert [int(x) for x in got] == expected

    def test_nearby_seeds_differ_in_first_output(self):
        v0, _ = prng_next(0)
        v1, _ = prng_next(1)
        v2, _ = prng_next(2)
        assert len({v0, v1, v2}) == 3

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_same_seed_same_sequence(self, seed):
        assert np.array_equal(prng_stream(seed, 32), prng_stream(seed, 32))

    def test_uniform_stream_in_unit_interval(self):
        u = uniform_stream(7, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(float(np.mean(u)) - 0.5) < 0.02


def reference_gaussian_matrix(rows, cols, seed, scale=1.0):
    """The unblocked formula: the whole stream at once, then Box-Muller."""
    n = rows * cols
    bits = prng_stream(seed, 2 * n)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return (scale * z).reshape(rows, cols)


B = _GAUSSIAN_BLOCK


class TestGaussianMatrix:
    @pytest.mark.parametrize("rows, cols, seed, scale", [
        (1, 1, 0, 1.0),
        (B - 1, 1, 2**63 + 5, 0.1),
        (1, B, 17, 1.0),
        (B + 1, 1, -3, 2.5),
        (64, B // 64 + 1, 2**64 - 1, 1.0),
        (3, 2 * B + 3, 12345678901234567890, 0.7),
        (100003, 3, 2**63 + 5, 1.0),
    ])
    def test_blocks_match_the_unblocked_formula_bit_for_bit(self, rows, cols, seed, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warning either
            got = gaussian_matrix(rows, cols, seed, scale)
        want = reference_gaussian_matrix(rows, cols, seed, scale)
        assert got.shape == (rows, cols)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fixed_seed_bit_identical(self):
        assert np.array_equal(gaussian_matrix(17, 5, 99), gaussian_matrix(17, 5, 99))

    def test_scale_zero_gives_zero_matrix(self):
        assert np.all(gaussian_matrix(4, 4, 1, scale=0.0) == 0.0)

    def test_sample_moments(self):
        z = gaussian_matrix(100, 100, 2024)
        assert abs(float(np.mean(z))) < 0.05
        assert 0.9 <= float(np.var(z)) <= 1.1

    def test_entries_are_a_function_of_position(self):
        # the first rows of a taller draw must match the shorter draw
        small = gaussian_matrix(3, 4, 5)
        tall = gaussian_matrix(6, 4, 5)
        assert np.array_equal(tall[:3], small)

    def test_scale_multiplies_entries(self):
        a = gaussian_matrix(6, 6, 11, scale=1.0)
        b = gaussian_matrix(6, 6, 11, scale=2.5)
        np.testing.assert_allclose(b, 2.5 * a, rtol=0, atol=0)

    def test_rejects_empty_and_bad_scale(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1)
        with pytest.raises(ValueError):
            gaussian_matrix(3, 0, 1)
        with pytest.raises(ValueError):
            gaussian_matrix(3, 3, 1, scale=-1.0)

    def test_entries_finite_and_bounded(self):
        # two 53-bit uniforms bound the transform at sqrt(-2 ln 2^-53) < 8.6
        z = gaussian_matrix(200, 50, 31)
        assert np.all(np.isfinite(z))
        assert float(np.max(np.abs(z))) < 8.6


class TestSoftmaxRow:
    """The scalar reference that exact_attention's weight rows are held to."""

    def test_uniform_cases(self):
        np.testing.assert_allclose(softmax_row(np.zeros(4)), 0.25, atol=1e-15)
        np.testing.assert_allclose(softmax_row(np.full(7, 3.25)), 1.0 / 7.0, atol=1e-15)

    def test_worked_pair(self):
        p = softmax_row(np.array([0.1, -0.1]))
        np.testing.assert_allclose(p, [0.5498339973, 0.4501660027], atol=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax_row(np.array([]))

    @given(score_vectors(magnitude=1000.0))
    @example(np.array([1000.0, -1000.0, 999.0]))
    def test_is_a_probability_vector(self, x):
        p = softmax_row(x)
        assert np.all(p >= 0.0)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
        assert np.all(np.isfinite(p))

    @given(score_vectors(), st.floats(min_value=-50, max_value=50))
    def test_shift_invariance(self, x, t):
        np.testing.assert_allclose(softmax_row(x + t), softmax_row(x), atol=1e-12)
