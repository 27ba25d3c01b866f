import tracemalloc

import numpy as np
import pytest

from eala import bench
from eala.bench import (DEFAULT_MEM_LIMIT_BYTES, MODES, BenchRecord,
                        BenchResourceError, allocation_model, bench_sweep,
                        fit_loglog_slope, records_to_csv)
from eala.core import _QUERY_BLOCK, EalaConfig, eala_attention
from eala.numerics import uniform_stream
from eala.oracle import _softmax_block_rows, exact_attention
from eala.workload import gen_workload_raw


class TestAllocationModel:
    """The coarse bound the budget guard reads: Q, K, V and the output, plus
    the mode's n x n buffer, or one query block's worth of it."""

    def test_quadratic_keeps_one_square_buffer(self):
        m = allocation_model("eala-quadratic", 64, 16)
        assert m["n2"] == 8 * 64 * 64
        # past one query block, the weights of one block
        assert allocation_model("eala-quadratic", 4096, 16)["n2"] == 8 * _QUERY_BLOCK * 4096

    def test_linear_has_no_square_class(self):
        for n in (1, 64, 4096, 1 << 16):
            m = allocation_model("eala-linear", n, 32)
            assert m == {"n2": 0, "nc": 8 * 4 * n * 32}

    def test_square_class_is_exactly_one_buffer(self):
        # both n^2 modes hold a single n*n float64 buffer at peak
        for mode in ("exact", "eala-quadratic"):
            for n in (2, 33, 1024):
                assert allocation_model(mode, n, 4)["n2"] == 8 * n * n

    def test_linear_peak_is_subquadratic(self):
        n = 1 << 16
        lin = sum(allocation_model("eala-linear", n, 64).values())
        sq = sum(allocation_model("exact", n, 64).values())
        assert lin < sq / 100

    def test_keys_and_nonnegativity(self):
        for mode in MODES:
            m = allocation_model(mode, 5, 3)
            assert list(m.keys()) == ["n2", "nc"]
            assert all(isinstance(v, int) and v >= 0 for v in m.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            allocation_model("softmax", 4, 4)
        with pytest.raises(ValueError):
            allocation_model("exact", 0, 4)
        with pytest.raises(ValueError):
            allocation_model("exact", 4, 0)


class TestLinearPathPeak:
    N, C = 16384, 64

    @pytest.fixture(scope="class")
    def traced_peak(self):
        q, k, v = gen_workload_raw(self.N, self.C, 0)
        tracemalloc.start()
        try:
            eala_attention(q, k, v, EalaConfig(path="linear"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_nc_temporary_beyond_khat_and_output(self, traced_peak):
        n, c = self.N, self.C
        bound = 8 * (2 * n * c + _QUERY_BLOCK * c + 8 * n + 4 * c * c)
        assert traced_peak <= bound

    def test_no_nc_temporary_beyond_output(self, traced_peak):
        # the key pass keeps one block of centred keys, not khat
        n, c = self.N, self.C
        bound = 8 * (n * c + _QUERY_BLOCK * c + 8 * n + 4 * c * c)
        assert traced_peak <= bound


class TestExactPathPeak:
    N, C = 2048, 64

    @pytest.fixture(scope="class")
    def traced_peak(self):
        # the materialised baseline that bench times, which keeps its weights
        q, k, v = gen_workload_raw(self.N, self.C, 0)
        tracemalloc.start()
        try:
            exact_attention(q, k, v, keep_weights=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_n2_temporary_beyond_scores_and_softmax_blocks(self, traced_peak):
        n = self.N
        assert traced_peak <= 8 * (n * n + _softmax_block_rows(n) * n + 8 * n)


class TestQuadraticPathPeak:
    # C > N as auto picks it, and a forced C < N, where the score block that
    # gives S2 is n x n like the weights
    @pytest.mark.parametrize("n,c", [(32, 64), (256, 16)])
    def test_no_n2_temporary_beyond_one_block_of_weights(self, n, c):
        # khat, the output, one query block's scores, which become its
        # weights in place, the ufunc buffer of dividing them by theta, a few
        # n-vectors and 16 KiB of small objects; a second n x n buffer at
        # 256 x 16 would add 512 KiB
        q, k, v = gen_workload_raw(n, c, 0)
        tracemalloc.start()
        try:
            eala_attention(q, k, v, EalaConfig(path="quadratic"))
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = min(n, _QUERY_BLOCK) * n
        bound = 8 * (2 * n * c + block + min(block, np.getbufsize()) + 8 * n) + (16 << 10)
        assert traced_peak <= bound


class TestBenchSweep:
    def test_smoke_run_fields(self):
        recs = bench_sweep("eala-linear", [32, 64, 128], c=8, repeats=2, seed=1)
        assert [r.n for r in recs] == [32, 64, 128]
        for r in recs:
            assert r.mode == "eala-linear" and r.c == 8
            assert r.wall_time > 0.0
            # the measured peak counts the output, not the inputs
            assert 8 * r.n * 8 <= r.peak_bytes < 3 * 8 * r.n * 8 + (64 << 10)

    def test_exact_mode_runs(self):
        recs = bench_sweep("exact", [16, 32], c=4, repeats=1, seed=0)
        assert len(recs) == 2 and all(r.wall_time > 0.0 for r in recs)

    def test_ascending_n_enforced(self):
        with pytest.raises(ValueError):
            bench_sweep("exact", [64, 32], c=4)
        with pytest.raises(ValueError):
            bench_sweep("exact", [32, 32], c=4)
        with pytest.raises(ValueError):
            bench_sweep("exact", [], c=4)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            bench_sweep("exact", [16], c=4, repeats=0)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            bench_sweep("fast", [16], c=4)

    def test_memory_budget_refusal_names_size(self):
        with pytest.raises(BenchResourceError, match="n=65536"):
            bench_sweep("exact", [65536], c=4, mem_limit_bytes=1 << 30)

    def test_budget_checked_before_any_allocation(self):
        # the first size already busts the budget; nothing should run
        with pytest.raises(BenchResourceError):
            bench_sweep("exact", [1 << 17, 1 << 18], c=4,
                        mem_limit_bytes=1 << 20)

    def test_linear_mode_passes_budget_where_exact_refuses(self):
        n = 1 << 16
        limit = 256 << 20
        with pytest.raises(BenchResourceError):
            bench_sweep("exact", [n], c=4, mem_limit_bytes=limit, repeats=1)
        recs = bench_sweep("eala-linear", [n], c=4, mem_limit_bytes=limit,
                           repeats=1)
        assert recs[0].peak_bytes <= limit

    def test_repeats_visit_sizes_round_robin(self, monkeypatch):
        seen = []
        monkeypatch.setattr(bench, "_forward_fn", lambda mode: lambda q, k, v: seen.append(
            (q.shape[0], tracemalloc.is_tracing())))
        bench_sweep("exact", [4, 8, 16], c=2, repeats=2)
        # warm-up, then the timed call, untraced; after every timed call, one
        # traced call per size
        timed = [(4, False), (4, False), (8, False), (8, False), (16, False), (16, False)]
        assert seen == timed * 2 + [(4, True), (8, True), (16, True)]

    def test_leaves_a_callers_tracemalloc_session_running(self):
        tracemalloc.start()
        try:
            held = bytearray(1 << 20)
            recs = bench_sweep("eala-linear", [32, 64], c=8, repeats=1)
            assert tracemalloc.is_tracing()
            # the caller's megabyte, live throughout, is not the call's
            assert all(0 < r.peak_bytes < len(held) for r in recs)
        finally:
            tracemalloc.stop()

    def test_budget_counts_inputs_held_for_other_sizes(self):
        # n=512 alone takes half the limit; the inputs held for n=1024 tip it
        limit = sum(allocation_model("eala-linear", 1024, 4).values())
        with pytest.raises(BenchResourceError, match="n=512"):
            bench_sweep("eala-linear", [512, 1024], c=4, mem_limit_bytes=limit)
        assert len(bench_sweep("eala-linear", [1024], c=4, mem_limit_bytes=limit,
                               repeats=1)) == 1

    def test_default_budget_is_4gib(self):
        assert DEFAULT_MEM_LIMIT_BYTES == 4 << 30


class TestFitLoglogSlope:
    def fake(self, ns, exponent, scale=1e-6):
        return [BenchRecord("exact", n, 4, scale * n ** exponent, 0)
                for n in ns]

    def test_recovers_exact_power_laws(self):
        for expo in (1.0, 2.0, 3.0):
            slope = fit_loglog_slope(self.fake([64, 128, 256, 512], expo))
            assert abs(slope - expo) <= 1e-9

    def test_recovers_power_law_under_jitter(self):
        recs = self.fake([64, 128, 256, 512], 1.5, scale=1e-7)
        for i, r in enumerate(recs):
            r.wall_time *= 1.0 + 0.05 * (2.0 * float(uniform_stream(40 + i, 1)[0]) - 1.0)
        assert 1.4 <= fit_loglog_slope(recs) <= 1.6

    def test_constant_times_give_zero_slope(self):
        slope = fit_loglog_slope(self.fake([64, 128, 256], 0.0))
        assert abs(slope) <= 1e-9

    def test_needs_three_distinct_sizes(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(self.fake([64, 128], 2.0))
        recs = self.fake([64, 64, 64], 2.0)
        with pytest.raises(ValueError):
            fit_loglog_slope(recs)

    def test_rejects_nonpositive_times(self):
        recs = self.fake([64, 128, 256], 2.0)
        recs[1].wall_time = 0.0
        with pytest.raises(ValueError):
            fit_loglog_slope(recs)


class TestRecordsToCsv:
    def test_schema_and_values(self):
        recs = [BenchRecord("exact", 64, 8, 0.125, 40960),
                BenchRecord("eala-linear", 128, 8, 0.0625, 53248)]
        lines = records_to_csv(recs).split("\n")
        assert lines[0] == "mode,n,c,wall_time,peak_bytes"
        assert lines[1] == "exact,64,8,0.125,40960"
        assert lines[2] == "eala-linear,128,8,0.0625,53248"
        assert lines[3] == ""

    def test_float_cells_roundtrip(self):
        t = 0.0123456789012345678
        line = records_to_csv([BenchRecord("exact", 4, 4, t, 0)]).split("\n")[1]
        assert float(line.split(",")[3]) == t
