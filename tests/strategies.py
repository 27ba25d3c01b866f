"""Shared hypothesis strategies for the property tests, and the scalar
softmax and entropy references that the oracle's tests compare against."""

import numpy as np
from hypothesis import strategies as st

from eala.numerics import gaussian_matrix


def softmax_row(x) -> np.ndarray:
    """Softmax of a nonempty 1-D array of finite scores."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("softmax_row expects a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax_row requires finite scores")
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def shannon_entropy(p) -> float:
    """Shannon entropy in nats of a probability vector; zero entries
    contribute zero."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or abs(float(np.sum(p)) - 1.0) > 1e-12:
        raise ValueError("p must be a probability vector")
    q = p[p > 0.0]
    return float(-np.sum(q * np.log(q)))


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


@st.composite
def heavy_tailed_key_instances(draw, max_n, max_m=32, max_c=8):
    """(Q, K, V) from seeded Gaussians whose keys are Student-t with 1 to 3
    degrees of freedom: each entry a Gaussian over the root mean square of
    that many more.  One degree of freedom is the Cauchy law.  Up to max_n
    keys and max_m queries."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = draw(st.integers(min_value=1, max_value=max_c))
    dof = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    chi2 = sum(gaussian_matrix(n, c, seed + 10 + i) ** 2 for i in range(dof))
    k = gaussian_matrix(n, c, seed + 1) / np.sqrt(chi2 / dof)
    return gaussian_matrix(m, c, seed), k, gaussian_matrix(n, c, seed + 2)


@st.composite
def clustered_key_instances(draw, max_n, max_m=32, max_c=8):
    """(Q, K, V) from seeded Gaussians whose keys sit in 1 to 3 clusters of
    spread 1e-3 around unit Gaussian centres, dealt out to the keys in turn.
    Up to max_n keys and max_m queries."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = draw(st.integers(min_value=1, max_value=max_c))
    centres = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    k = gaussian_matrix(centres, c, seed + 3)[np.arange(n) % centres]
    k += 1e-3 * gaussian_matrix(n, c, seed + 1)
    return gaussian_matrix(m, c, seed), k, gaussian_matrix(n, c, seed + 2)


def outlier_instance(n, m, c, row, exponent, seed):
    """(Q, K, V) from seeded Gaussians, with n keys and m queries of dim c,
    and key `row` scaled by 10^exponent."""
    k = gaussian_matrix(n, c, seed + 1)
    k[row] *= 10.0 ** exponent
    return gaussian_matrix(m, c, seed), k, gaussian_matrix(n, c, seed + 2)


@st.composite
def outlier_key_instances(draw, max_n, max_m=32, max_c=8):
    """An outlier_instance with one key, at any row, scaled by 10^e for e in
    [2, 8].  Two to max_n keys and up to max_m queries."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    c = draw(st.integers(min_value=1, max_value=max_c))
    row = draw(st.integers(min_value=0, max_value=n - 1))
    exponent = draw(st.floats(min_value=2.0, max_value=8.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return outlier_instance(n, m, c, row, exponent, seed)
