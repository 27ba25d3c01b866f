import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eala.core import center_keys
from eala.workload import (_SCAN_BLOCK, WorkloadSpec, gen_workload, gen_workload_raw,
                           max_abs_score)


class TestWorkloadSpec:
    def test_defaults_and_fields(self):
        s = WorkloadSpec(n=64, c=16, score_scale=0.1, seed=0)
        assert (s.n, s.c, s.score_scale, s.seed) == (64, 16, 0.1, 0)
        assert not hasattr(s, "heads")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n=0, c=4, score_scale=0.1, seed=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n=4, c=0, score_scale=0.1, seed=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n=4, c=4, score_scale=-0.5, seed=0)
        with pytest.raises(ValueError):
            WorkloadSpec(n=4, c=4, score_scale=np.inf, seed=0)


class TestMaxAbsScore:
    def test_hand_case(self):
        q = np.array([[1.0, 0.0], [0.0, 2.0]])
        kh = np.array([[3.0, 0.0], [0.0, -4.0]])
        assert max_abs_score(q, kh) == 8.0

    def test_block_boundary_consistency(self):
        # 1030 rows straddles two full scan blocks plus a remainder
        q, k, _ = gen_workload_raw(1030, 4, 77)
        kh, _ = center_keys(k)
        dense = float(np.max(np.abs(q @ kh.T)))
        assert max_abs_score(q, kh) == dense

    def test_scan_holds_one_block_of_scores(self):
        # a (512, 1024) block is 4 MiB; a copy of |s| beside it made 8 MiB
        q, k, _ = gen_workload_raw(1024, 32, 78)
        kh, _ = center_keys(k)
        tracemalloc.start()
        try:
            max_abs_score(q, kh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SCAN_BLOCK * 1024 + (64 << 10)


class TestGenWorkloadRaw:
    def test_shapes_and_determinism(self):
        a = gen_workload_raw(32, 8, 5)
        b = gen_workload_raw(32, 8, 5)
        for x, y in zip(a, b):
            assert x.shape == (32, 8)
            np.testing.assert_array_equal(x, y)

    def test_components_decorrelated(self):
        q, k, v = gen_workload_raw(16, 4, 5)
        assert not np.array_equal(q, k) and not np.array_equal(k, v)

    def test_unit_scale(self):
        q, _, _ = gen_workload_raw(256, 64, 123)
        assert abs(float(np.std(q)) - 1.0) < 0.02


class TestGenWorkload:
    def test_calibration_is_exact_up_to_rounding(self):
        for seed in range(5):
            spec = WorkloadSpec(n=64, c=16, score_scale=0.1, seed=seed)
            q, k, _ = gen_workload(spec)
            kh, _ = center_keys(k)
            measured = max_abs_score(q, kh)
            assert abs(measured - 0.1) <= 1e-12

    def test_calibration_within_five_percent_band(self):
        spec = WorkloadSpec(n=128, c=8, score_scale=0.25, seed=3)
        q, k, _ = gen_workload(spec)
        kh, _ = center_keys(k)
        measured = max_abs_score(q, kh)
        assert 0.95 * 0.25 <= measured <= 1.05 * 0.25

    def test_only_queries_are_rescaled(self):
        spec = WorkloadSpec(n=32, c=8, score_scale=0.1, seed=9)
        q0, k0, v0 = gen_workload_raw(32, 8, 9)
        q1, k1, v1 = gen_workload(spec)
        np.testing.assert_array_equal(k0, k1)
        np.testing.assert_array_equal(v0, v1)
        assert not np.array_equal(q0, q1)
        # the rescale is a single scalar multiple of the raw draw
        ratio = q1[np.abs(q0) > 1e-12] / q0[np.abs(q0) > 1e-12]
        assert float(np.max(ratio) - np.min(ratio)) <= 1e-12

    def test_zero_scale_zeroes_queries(self):
        spec = WorkloadSpec(n=16, c=4, score_scale=0.0, seed=2)
        q, k, v = gen_workload(spec)
        assert np.all(q == 0.0)
        assert np.any(k != 0.0) and np.any(v != 0.0)

    def test_degenerate_keys_skip_calibration(self):
        # n=1 centers the single key to zero, leaving nothing to calibrate
        spec = WorkloadSpec(n=1, c=4, score_scale=0.1, seed=6)
        q, _, _ = gen_workload(spec)
        q_raw, _, _ = gen_workload_raw(1, 4, 6)
        np.testing.assert_array_equal(q, q_raw)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_seed_determinism(self, seed):
        spec = WorkloadSpec(n=8, c=4, score_scale=0.2, seed=seed)
        a = gen_workload(spec)
        b = gen_workload(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
