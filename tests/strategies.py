"""Shared hypothesis strategies for the property tests."""

import numpy as np
from hypothesis import strategies as st

from eala.numerics import gaussian_matrix


@st.composite
def simplex_vectors(draw, min_n=2, max_n=64):
    """Strictly positive probability vectors."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                        min_size=n, max_size=n))
    v = np.asarray(raw, dtype=np.float64)
    return v / np.sum(v)


@st.composite
def simplex_pairs(draw, min_n=2, max_n=64):
    """Two strictly positive simplex points of the same dimension."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw_q = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                          min_size=n, max_size=n))
    raw_p = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                          min_size=n, max_size=n))
    q = np.asarray(raw_q, dtype=np.float64)
    p = np.asarray(raw_p, dtype=np.float64)
    return q / np.sum(q), p / np.sum(p)


@st.composite
def score_vectors(draw, min_n=2, max_n=32, magnitude=20.0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(st.lists(st.floats(min_value=-magnitude, max_value=magnitude),
                        min_size=n, max_size=n))
    return np.asarray(raw, dtype=np.float64)


@st.composite
def attention_instances(draw, max_n=64, max_c=16, scale=1.0):
    """(Q, K, V) with matching shapes; sizes small enough for dense oracles."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    c = draw(st.integers(min_value=1, max_value=max_c))
    m = draw(st.integers(min_value=1, max_value=max_n))

    def mat(rows, cols):
        raw = draw(st.lists(st.floats(min_value=-scale, max_value=scale),
                            min_size=rows * cols, max_size=rows * cols))
        return np.asarray(raw, dtype=np.float64).reshape(rows, cols)

    return mat(m, c), mat(n, c), mat(n, c)


@st.composite
def shifted_key_instances(draw, max_n, max_m=32, max_c=8):
    """(Q, K, V) from seeded Gaussians whose keys sit far from the origin:
    a common offset of 1e6 or 1e8, or a drift down the rows from 0 to 1e3
    standard deviations.  Up to max_n keys and max_m queries."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = draw(st.integers(min_value=1, max_value=max_c))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    shift = draw(st.sampled_from([1e6, 1e8, "drift"]))
    if shift == "drift":
        shift = 1e3 * np.linspace(0.0, 1.0, n)[:, None]
    k = gaussian_matrix(n, c, seed + 1) + shift
    return gaussian_matrix(m, c, seed), k, gaussian_matrix(n, c, seed + 2)


@st.composite
def low_rank_key_instances(draw, max_n, max_m=32, max_c=8):
    """(Q, K, V) from seeded Gaussians whose keys have rank r < c:
    K = G(n, r) @ G(r, c) with 1 <= r < c.  Two to max_n keys and up to
    max_m queries."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = draw(st.integers(min_value=2, max_value=max_c))
    r = draw(st.integers(min_value=1, max_value=c - 1))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    k = gaussian_matrix(n, r, seed + 1) @ gaussian_matrix(r, c, seed + 3)
    return gaussian_matrix(m, c, seed), k, gaussian_matrix(n, c, seed + 2)
