import tracemalloc

import numpy as np
import pytest

from eala.core import eala_attention
from eala.mha import MhaParams, mha_forward, mha_init
from eala.numerics import gaussian_matrix
from eala.oracle import exact_attention


class TestMhaInit:
    def test_shapes_and_echoed_fields(self):
        p = mha_init(12, 3, seed=9)
        assert p.heads == 3 and p.model_dim == 12
        for w in (p.w_query, p.w_key, p.w_value, p.w_output):
            assert w.shape == (12, 12) and w.dtype == np.float64

    def test_deterministic_and_seed_sensitive(self):
        a = mha_init(8, 2, seed=4)
        b = mha_init(8, 2, seed=4)
        c = mha_init(8, 2, seed=5)
        np.testing.assert_array_equal(a.w_query, b.w_query)
        np.testing.assert_array_equal(a.w_output, b.w_output)
        assert not np.array_equal(a.w_query, c.w_query)

    def test_projections_mutually_distinct(self):
        p = mha_init(8, 2, seed=11)
        mats = [p.w_query, p.w_key, p.w_value, p.w_output]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(mats[i], mats[j])

    def test_entry_scale(self):
        p = mha_init(64, 4, seed=0)
        std = float(np.std(p.w_query))
        assert abs(std - 1.0 / 8.0) < 0.01

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            mha_init(10, 3, seed=0)
        with pytest.raises(ValueError):
            mha_init(0, 1, seed=0)
        with pytest.raises(ValueError):
            mha_init(8, 0, seed=0)


class TestMhaForward:
    def test_output_shape_matches_input(self):
        p = mha_init(16, 4, seed=1)
        x = gaussian_matrix(10, 16, 2)
        for mode in ("exact", "eala"):
            y = mha_forward(p, x, mode=mode)
            assert y.shape == (10, 16)
            assert np.array_equal(y, mha_forward(p, x, mode=mode))  # bit-stable

    def test_single_head_reduces_to_plain_attention(self):
        p = mha_init(8, 1, seed=3)
        x = gaussian_matrix(12, 8, 4)
        q, k, v = x @ p.w_query, x @ p.w_key, x @ p.w_value
        for mode, attend in (("exact", exact_attention), ("eala", eala_attention)):
            got = mha_forward(p, x, mode=mode)
            want = attend(q, k, v).output @ p.w_output
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_multi_head_matches_manual_slices(self):
        p = mha_init(12, 3, seed=5)
        x = gaussian_matrix(9, 12, 6)
        got = mha_forward(p, x, mode="exact")
        q, k, v = x @ p.w_query, x @ p.w_key, x @ p.w_value
        cols = []
        for h in range(3):
            sl = slice(4 * h, 4 * (h + 1))
            cols.append(exact_attention(q[:, sl], k[:, sl], v[:, sl]).output)
        want = np.concatenate(cols, axis=1) @ p.w_output
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_head_slice_permutation_invariance(self):
        # swapping two head-aligned column blocks in every projection, plus
        # the matching rows of the output projection, leaves the layer's
        # function unchanged: heads do not talk to each other
        p = mha_init(8, 2, seed=7)
        x = gaussian_matrix(11, 8, 8)
        perm = np.r_[4:8, 0:4]
        swapped = MhaParams(
            heads=2,
            model_dim=8,
            w_query=p.w_query[:, perm].copy(),
            w_key=p.w_key[:, perm].copy(),
            w_value=p.w_value[:, perm].copy(),
            w_output=p.w_output[perm, :].copy(),
        )
        for mode in ("exact", "eala"):
            base = mha_forward(p, x, mode=mode)
            alt = mha_forward(swapped, x, mode=mode)
            np.testing.assert_allclose(alt, base, atol=1e-10)

    def test_modes_agree_at_small_projection_scale(self):
        p = mha_init(8, 2, seed=9)
        x = gaussian_matrix(16, 8, 10) * 0.05
        out_exact = mha_forward(p, x, mode="exact")
        out_eala = mha_forward(p, x, mode="eala")
        denom = float(np.max(np.abs(out_exact))) + 1e-15
        assert float(np.max(np.abs(out_exact - out_eala))) / denom < 0.05

    def test_input_validation(self):
        p = mha_init(8, 2, seed=16)
        with pytest.raises(ValueError):
            mha_forward(p, gaussian_matrix(5, 7, 17))
        with pytest.raises(ValueError):
            mha_forward(p, np.zeros(8))
        with pytest.raises(ValueError):
            mha_forward(p, gaussian_matrix(5, 8, 18), mode="softmax")


def _peak(fn, *args, **kwargs):
    fn(*args, **kwargs)  # warm-up
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMhaBuffers:
    """Heads write into one (n, model_dim) buffer, and q, k, v go before the
    output projection.  At 2048 x 256 with 4 heads one head's exact scratch
    (3 MiB) is smaller than one n x model_dim buffer (4 MiB), so the peak
    bound sees a list of head outputs, a concatenation or q, k, v kept
    through the projection: each adds one such buffer."""

    N, DIM, HEADS = 2048, 256, 4

    @pytest.fixture(scope="class")
    def layer(self):
        p = mha_init(self.DIM, self.HEADS, seed=21)
        x = gaussian_matrix(self.N, self.DIM, 22, 0.05)
        q, k, v = x @ p.w_query, x @ p.w_key, x @ p.w_value
        return p, x, q, k, v

    def heads(self, layer):
        _, _, q, k, v = layer
        hd = self.DIM // self.HEADS
        for h in range(self.HEADS):
            sl = slice(h * hd, (h + 1) * hd)
            yield sl, (q[:, sl], k[:, sl], v[:, sl])

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    def test_output_is_the_per_head_calls_joined(self, layer, mode):
        p, x = layer[:2]
        attend = exact_attention if mode == "exact" else eala_attention
        cols = [attend(*qkv).output for _, qkv in self.heads(layer)]
        want = np.concatenate(cols, axis=1) @ p.w_output
        assert np.array_equal(mha_forward(p, x, mode=mode), want)

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    def test_peak_is_qkv_the_merged_buffer_and_one_head(self, layer, mode):
        p, x = layer[:2]
        merged = np.empty((self.N, self.DIM))
        if mode == "exact":
            head = max(_peak(exact_attention, *qkv) for _, qkv in self.heads(layer))
        else:
            head = max(_peak(eala_attention, *qkv, out=merged[:, sl])
                       for sl, qkv in self.heads(layer))
        # q, k, v and the merged buffer, one head's scratch, and 4 KiB for
        # the Python objects of the loop
        buffers = 4 * 8 * self.N * self.DIM
        assert _peak(mha_forward, p, x, mode) <= buffers + head + 4096
