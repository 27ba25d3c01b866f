import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eala import mha
from eala.core import eala_attention
from eala.mha import _OUT_ROWS, MhaParams, mha_forward, mha_init
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

    @pytest.mark.parametrize("heads, field, shape", [
        (0, None, None),
        (3, None, None),
        (2, "w_query", (8, 10)),
        (2, "w_key", (10, 8)),
        (2, "w_value", (8,)),
        (2, "w_output", (6, 6)),
    ])
    def test_hand_built_params_validated(self, heads, field, shape):
        # heads must split model_dim, and every weight must be model_dim x
        # model_dim: three heads of 8 features left columns 6:8 of the
        # merged buffer unwritten, and per-head slices accept wider weights
        p = mha_init(8, 2, seed=19)
        fields = {"w_query": p.w_query, "w_key": p.w_key, "w_value": p.w_value,
                  "w_output": p.w_output}
        if field is not None:
            fields[field] = np.ones(shape)
        bad = MhaParams(heads=heads, model_dim=8, **fields)
        for mode in ("exact", "eala"):
            with pytest.raises(ValueError):
                mha_forward(bad, gaussian_matrix(6, 8, 20), mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_x_is_named(self, mode, bad):
        p = mha_init(8, 2, seed=23)
        x = gaussian_matrix(6, 8, 24)
        x[4, 5] = bad
        with pytest.raises(ValueError, match="^x holds NaN or inf$"):
            mha_forward(p, x, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    @pytest.mark.parametrize("field", ["w_query", "w_key", "w_value", "w_output"])
    def test_nonfinite_weight_is_named(self, mode, field):
        # checked before any head runs: NaN in w_key once failed in a head
        # as "K holds NaN or inf", and NaN in w_output went unreported
        p = mha_init(8, 2, seed=23)
        getattr(p, field)[2, 1] = np.nan
        with pytest.raises(ValueError, match=f"^{field} holds NaN or inf$"):
            mha_forward(p, gaussian_matrix(6, 8, 24), mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "eala"])
    def test_overflow_of_finite_x_is_left_to_the_heads(self, mode):
        # x's sum of squares overflows, but x itself is finite: the entry
        # check names only NaN or inf, and the head names the overflow
        p = mha_init(8, 2, seed=25)
        x = gaussian_matrix(6, 8, 26)
        x[0, 0] = 1e160
        with pytest.raises(ValueError, match="overflows float64 although"):
            mha_forward(p, x, mode=mode)


def _full_projection(p, x, mode):
    """The layer with q, k and v projected whole, then sliced per head."""
    attend = exact_attention if mode == "exact" else eala_attention
    q, k, v = x @ p.w_query, x @ p.w_key, x @ p.w_value
    hd = p.model_dim // p.heads
    cols = [attend(q[:, sl], k[:, sl], v[:, sl]).output
            for sl in (slice(h * hd, (h + 1) * hd) for h in range(p.heads))]
    return np.concatenate(cols, axis=1) @ p.w_output


class TestMhaProperty:
    # n below head_dim takes eala's quadratic branch; the bit pin is
    # TestMhaBuffers at 2048 x 256.  At a few columns the BLAS may sum a
    # projection's tail columns in another order, so an entry that cancels
    # far below the output's scale is held to that scale, not its own.
    # Each head's call asks for no entropies, and gives the bits of the
    # default call on the same head.
    @given(heads=st.integers(min_value=1, max_value=4),
           head_dim=st.integers(min_value=1, max_value=8),
           n=st.integers(min_value=1, max_value=300),
           scale=st.sampled_from([0.05, 1.0]),
           seed=st.integers(min_value=0, max_value=1 << 30))
    def test_matches_the_full_projection(self, heads, head_dim, n, scale, seed):
        p = mha_init(heads * head_dim, heads, seed)
        x = gaussian_matrix(n, heads * head_dim, seed + 1, scale)
        heads_seen = []

        def default_bits(q, k, v, **kwargs):
            res = eala_attention(q, k, v, **kwargs)
            assert res.entropies is None
            assert np.array_equal(res.output, eala_attention(q, k, v).output)
            heads_seen.append(kwargs)
            return res

        for mode in ("exact", "eala"):
            want = _full_projection(p, x, mode)
            with mock.patch.object(mha, "eala_attention", default_bits):
                got = mha_forward(p, x, mode=mode)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert len(heads_seen) == heads


def _peak(fn, *args, **kwargs):
    fn(*args, **kwargs)  # warm-up
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMhaBuffers:
    """Each head projects its own q, k and v from x into one (n, 3 head_dim)
    buffer and writes its output into its columns of one (n, model_dim)
    buffer, which the output projection overwrites one row block at a time.
    At 2048 x 256 with 4 heads one head's projection (3 MiB) is smaller than
    one n x model_dim buffer (4 MiB), so the peak bound sees a full q, k or
    v, a list of head outputs or a concatenation kept through the head
    loop: each adds one such buffer."""

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
    def test_peak_is_the_merged_buffer_one_head_and_one_row_block(self, layer, mode):
        p, x = layer[:2]
        merged = np.empty((self.N, self.DIM))
        if mode == "exact":
            head = max(_peak(exact_attention, *qkv) for _, qkv in self.heads(layer))
        else:
            head = max(_peak(eala_attention, *qkv, out=merged[:, sl], entropies=False)
                       for sl, qkv in self.heads(layer))
        # the merged buffer, one head's (n, 3 head_dim) projection, one
        # head's scratch, one output row block, and 4 KiB for the Python
        # objects of the loop
        buffers = 8 * self.N * self.DIM + 8 * self.N * 3 * (self.DIM // self.HEADS)
        row_block = 8 * _OUT_ROWS * self.DIM
        assert _peak(mha_forward, p, x, mode) <= buffers + head + row_block + 4096
