"""The 2-D (row-stack) forms of the oracle's family entropy, theta solve and KL.

Each 2-D call must give, row by row, the bits of the 1-D call on that row,
with nan exactly where the 1-D call raises ValueError.  The 1-D family
entropy and KL are in turn held to the plain scalar loops below, kept as
the reference for their checks and arithmetic.  The theta solve takes
Newton steps, so a plain bisection is its reference for which rows are
rejected and with what message; a solved row must reproduce its target
within tol through linear_family_entropy.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eala import oracle
from eala.core import center_keys, eala_attention
from eala.oracle import bisection_theta, kl_divergence, linear_family_entropy
from eala.workload import WorkloadSpec, gen_workload


def ref_family_entropy(a, theta):
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("a must be finite")
    if abs(float(np.sum(a))) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("a must sum to zero (centered scores)")
    if not (np.isfinite(theta) and theta > 0.0):
        raise ValueError("theta must be a positive finite number")
    w = (1.0 + a / theta) / a.size
    if not np.all(w > 0.0):
        return float("nan"), False
    return float(-np.sum(w * np.log(w))), True


def ref_bisection(a, target, tol=1e-10, max_iter=200):
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("a must be finite")
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        raise ValueError("a is identically zero; every theta gives uniform weights")
    log_n = float(np.log(a.size))
    if not (0.0 < target < log_n):
        raise ValueError(f"target entropy {target!r} outside (0, log n) = (0, {log_n!r})")
    lo, hi = amax * (1.0 + 1e-9), 1e9 * amax
    h_lo, ok = ref_family_entropy(a, lo)
    if not ok:
        lo = amax * (1.0 + 1e-6)
        h_lo, ok = ref_family_entropy(a, lo)
    if not ok:
        raise ValueError(f"max|a| = {amax!r} is too close to zero: no float64 "
                         "theta above it gives every weight positive")
    if target < h_lo:
        raise ValueError(
            f"target entropy {target!r} below the attainable range "
            f"[{h_lo!r}, {log_n!r}) of this score vector")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        h, _ = ref_family_entropy(a, mid)
        if abs(h - target) <= tol:
            return mid
        if h < target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("bisection did not converge; bracket or tolerance is off")


def ref_kl(q, p):
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    for v in (q, p):
        if (not np.all(np.isfinite(v)) or np.any(v < 0.0)
                or abs(float(np.sum(v)) - 1.0) > 1e-12):
            raise ValueError("not a probability vector")
    mask = q > 0.0
    if np.any(p[mask] == 0.0):
        raise ValueError("q puts mass where p has none")
    return max(float(np.sum(q[mask] * np.log(q[mask] / p[mask]))), 0.0)


def per_row(fn, *columns):
    """fn on each row; nan where it raises ValueError, with the message."""
    values, messages = [], []
    for args in zip(*columns):
        try:
            out = fn(*args)
            values.append(out[0] if isinstance(out, tuple) else out)
            messages.append(None)
        except ValueError as e:
            values.append(np.nan)
            messages.append(str(e))
    return np.array(values, dtype=np.float64), messages


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def centered(values):
    a = np.asarray(values, dtype=np.float64)
    return a - np.mean(a)


ROW_KINDS = ("feasible", "zero", "uncentered", "out_of_range", "below", "nonfinite")


@st.composite
def bisection_stacks(draw, max_rows=7, max_n=24):
    """(a, targets): score rows of mixed kinds, with one target per row."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    log_n = float(np.log(n))
    rows, targets = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(ROW_KINDS))
        a = centered(draw(st.lists(st.floats(min_value=-20.0, max_value=20.0),
                                   min_size=n, max_size=n)))
        frac = draw(st.floats(min_value=0.01, max_value=0.99))
        amax = float(np.max(np.abs(a)))
        h_lo = ref_family_entropy(a, amax * (1.0 + 1e-9))[0] if amax > 0.0 else 0.0
        target = h_lo + frac * (log_n - h_lo)
        if kind == "zero":
            a = np.zeros(n)
        elif kind == "uncentered":
            a = a + 1.0
        elif kind == "out_of_range":
            target = draw(st.sampled_from(
                [log_n, 2.0 * log_n, 0.0, -1.0, np.nan, np.inf]))
        elif kind == "below":
            target = frac * h_lo
        elif kind == "nonfinite":
            a[draw(st.integers(min_value=0, max_value=n - 1))] = draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
        rows.append(a)
        targets.append(target)
    return np.array(rows), np.array(targets)


@st.composite
def hard_stacks(draw, max_rows=5):
    """(a, targets): rows of up to 4096 entries, some scaled by 1e6 or
    1e-3, with targets up to 1e-14 of the way from either end of the
    attainable range: just above the bracket's lower edge, where the roots
    lie next to the validity edge theta = max|a|, or just below log n.
    """
    n = draw(st.one_of(st.integers(min_value=2, max_value=24),
                       st.sampled_from([257, 1024, 4096])))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    log_n = float(np.log(n))
    rows, targets = [], []
    for _ in range(m):
        if n <= 24:
            a = np.asarray(draw(st.lists(st.floats(min_value=-20.0, max_value=20.0),
                                         min_size=n, max_size=n)))
        else:
            a = rng.standard_t(3.0, size=n)
        a = centered(a * draw(st.sampled_from([1.0, 1e6, 1e-3])))
        amax = float(np.max(np.abs(a)))
        h_lo = ref_family_entropy(a, amax * (1.0 + 1e-9))[0] if amax > 0.0 else 0.0
        frac = 10.0 ** -draw(st.floats(min_value=0.0, max_value=14.0))
        if draw(st.booleans()):
            frac = 1.0 - frac
        rows.append(a)
        targets.append(h_lo + frac * (log_n - h_lo))
    return np.array(rows), np.array(targets)


@st.composite
def family_stacks(draw, max_rows=7, max_n=24):
    """(a, thetas): score rows of mixed kinds with one theta per row."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    rows, thetas = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(("valid", "edge", "zero", "uncentered",
                                     "nonfinite", "bad_theta")))
        a = centered(draw(st.lists(st.floats(min_value=-20.0, max_value=20.0),
                                   min_size=n, max_size=n)))
        amax = float(np.max(np.abs(a)))
        theta = max(amax, 1e-3) * draw(st.floats(min_value=1.0 + 1e-6, max_value=1e6))
        if kind == "edge":
            theta = amax * draw(st.floats(min_value=0.05, max_value=1.0)) or 1.0
        elif kind == "zero":
            a = np.zeros(n)
        elif kind == "uncentered":
            a = a + 1.0
        elif kind == "nonfinite":
            a[0] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        elif kind == "bad_theta":
            theta = draw(st.sampled_from([0.0, -1.0, np.nan, np.inf]))
        rows.append(a)
        thetas.append(theta)
    return np.array(rows), np.array(thetas)


@st.composite
def kl_stacks(draw, max_rows=7, max_n=24):
    """(q, p): rows of distributions, some of which the 1-D form rejects."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_rows))

    def simplex():
        v = np.asarray(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                                     min_size=n, max_size=n)))
        return v / np.sum(v)

    qs, ps = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(("valid", "same", "q_zero", "p_zero",
                                     "negative", "unnormalized", "nonfinite")))
        q, p = simplex(), simplex()
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if kind == "same":
            p = q.copy()
        elif kind == "q_zero":
            q[j] = 0.0
            q = q / np.sum(q) if np.sum(q) > 0.0 else q
        elif kind == "p_zero":
            p[j] = 0.0
            p = p / np.sum(p) if np.sum(p) > 0.0 else p
        elif kind == "negative":
            p[j] = -p[j]
        elif kind == "unnormalized":
            q = 1.1 * q
        elif kind == "nonfinite":
            q[j] = np.nan
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


class TestFamilyEntropyRows:
    @given(family_stacks())
    def test_rows_match_the_1d_form(self, stack):
        a, thetas = stack
        h, valid = linear_family_entropy(a, thetas)
        want, _ = per_row(linear_family_entropy, a, thetas)
        ref, _ = per_row(ref_family_entropy, a, thetas)
        assert_same_bits(h, want)
        assert_same_bits(want, ref)
        assert np.array_equal(valid, ~np.isnan(want))

    def test_shape_errors_raise(self):
        with pytest.raises(ValueError):
            linear_family_entropy(np.zeros((0, 4)), 1.0)
        with pytest.raises(ValueError):
            linear_family_entropy(np.zeros((3, 4)), np.ones(2))
        with pytest.raises(ValueError):
            linear_family_entropy(np.zeros((3, 4)), 1.0)


def assert_solved(a, targets, thetas, tol=1e-10):
    """Each non-nan theta reproduces its row's target within tol."""
    for row, target, theta in zip(a, targets, thetas):
        if not np.isnan(theta):
            h, ok = linear_family_entropy(row, theta)
            assert ok and abs(h - target) <= tol


def assert_rows_match_the_reference(a, targets):
    """The 2-D call matches the 1-D calls bit for bit; they reject the rows
    ref_bisection rejects, with its messages, and solve the others."""
    try:
        want, messages = per_row(bisection_theta, a, targets)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            bisection_theta(a, targets)
        return
    ref, ref_messages = per_row(ref_bisection, a, targets)
    assert_same_bits(bisection_theta(a, targets), want)
    assert np.array_equal(np.isnan(want), np.isnan(ref))
    assert messages == ref_messages
    assert_solved(a, targets, want)


class TestBisectionRows:
    @given(bisection_stacks())
    def test_rows_match_the_1d_form(self, stack):
        assert_rows_match_the_reference(*stack)

    @given(hard_stacks())
    def test_hard_rows_match_the_reference(self, stack):
        assert_rows_match_the_reference(*stack)

    def test_family_evaluations_per_row(self, monkeypatch):
        # the fidelity report's shape, at the golden report's scale and seed
        q, k, v = gen_workload(WorkloadSpec(n=1024, c=32, score_scale=0.1, seed=5))
        khat, _ = center_keys(k)
        a = q @ khat.T
        evaluated = []
        family_entropy = oracle._family_entropy

        def counted(rows, *args, **kwargs):
            evaluated.append(rows.shape[0])
            return family_entropy(rows, *args, **kwargs)

        monkeypatch.setattr(oracle, "_family_entropy", counted)
        targets = eala_attention(q, k, v).entropies
        thetas = bisection_theta(a, targets)
        assert np.isfinite(thetas).all()
        # the bracket check included
        assert sum(evaluated) <= 4 * a.shape[0]
        monkeypatch.undo()
        assert_solved(a, targets, thetas)

    def test_each_kind_in_one_call(self):
        n = 6
        a = centered([0.3, -0.2, 0.1, 0.05, -0.15, 0.4])
        amax = float(np.max(np.abs(a)))
        h_lo = ref_family_entropy(a, amax * (1.0 + 1e-9))[0]
        mid = 0.5 * (h_lo + np.log(n))
        rows = np.array([a, np.zeros(n), a + 1.0, a, a, a])
        targets = np.array([mid, mid, mid, np.log(n), 0.5 * h_lo, mid])
        rows[5, 2] = np.inf
        got = bisection_theta(rows, targets)
        assert got[0] == bisection_theta(a, mid)
        assert_solved(a[None, :], [mid], got[:1])
        assert np.isnan(got[1:]).all()
        for row, target, text in zip(rows[1:], targets[1:],
                                     ("identically zero", "sum to zero", "outside",
                                      "below the attainable range", "finite")):
            with pytest.raises(ValueError, match=text):
                bisection_theta(row, target)

    def test_block_with_no_feasible_row(self):
        n = 8
        a = centered(np.arange(n, dtype=np.float64))
        h_lo = ref_family_entropy(a, float(np.max(np.abs(a))) * (1.0 + 1e-9))[0]
        cases = [
            (np.zeros((3, n)), np.full(3, 1.0)),  # all-zero rows, as at score scale 0
            (np.tile(a, (3, 1)), np.array([np.log(n), 5.0, np.inf])),  # targets >= log n
            (np.tile(a, (2, 1)), np.array([0.5 * h_lo, 0.9 * h_lo])),  # below the range
            (np.zeros((0, n)), np.zeros(0)),
        ]
        for rows, targets in cases:
            got = bisection_theta(rows, targets)
            assert got.shape == (rows.shape[0],) and np.isnan(got).all()

    def test_rows_that_converge_together(self):
        a = centered([0.5, -0.1, 0.2, -0.6])
        target = 0.5 * (ref_family_entropy(a, 0.6 * (1.0 + 1e-9))[0] + np.log(4.0))
        got = bisection_theta(np.tile(a, (5, 1)), np.full(5, target))
        assert np.all(got == bisection_theta(a, target))
        assert_solved(np.tile(a, (5, 1)), np.full(5, target), got)

    def test_overflowing_bracket(self):
        # 1e9 * max|a| is inf for the scaled row, so its bracket's midpoint
        # is inf, which the 1-D form rejects; the other rows go on converging
        a = centered([0.5, -0.1, 0.2, -0.6])
        target = 0.5 * (ref_family_entropy(a, 0.6 * (1.0 + 1e-9))[0] + np.log(4.0))
        rows = np.array([a, a * 1e300, 3.0 * a])
        targets = np.array([target, target, 0.5 * (target + np.log(4.0))])
        assert_rows_match_the_reference(rows, targets)
        got = bisection_theta(rows, targets)
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
        assert per_row(bisection_theta, rows, targets)[1] == [
            None, "theta must be a positive finite number", None]

    def test_rows_near_the_subnormals_are_rejected_at_the_bracket(self):
        # max|a| (1 + 1e-9) and max|a| (1 + 1e-6) both round to max|a|, so
        # no theta in the bracket gives positive weights
        a = np.array([5e-324, -5e-324])
        with pytest.raises(ValueError, match="^max\\|a\\| = 5e-324 is too close to zero"):
            bisection_theta(a, 0.5)
        rows = np.array([a, [1e-320, -1e-320], [1e-310, -1e-310], [0.3, -0.3]])
        targets = np.full(4, 0.5)
        got = bisection_theta(rows, targets)
        assert np.isnan(got[:2]).all() and not np.isnan(got[2:]).any()
        assert_rows_match_the_reference(rows, targets)

    def test_single_entry_rows_are_rejected(self):
        got = bisection_theta(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        assert np.isnan(got).all()

    def test_nonconvergence_still_raises(self, monkeypatch):
        a = centered([0.5, -0.1, 0.2, -0.6])
        target = 0.5 * (ref_family_entropy(a, 0.6 * (1.0 + 1e-9))[0] + np.log(4.0))
        monkeypatch.setattr(oracle, "_MAX_STEPS", 3)
        with pytest.raises(RuntimeError):
            bisection_theta(np.tile(a, (2, 1)), np.full(2, target))
        with pytest.raises(RuntimeError):
            bisection_theta(a, target)

    def test_target_shape_must_match(self):
        with pytest.raises(ValueError):
            bisection_theta(np.zeros((2, 4)), np.zeros(3))


class TestKlRows:
    @given(kl_stacks())
    def test_rows_match_the_1d_form(self, stack):
        q, p = stack
        want, _ = per_row(kl_divergence, q, p)
        ref, _ = per_row(ref_kl, q, p)
        assert_same_bits(kl_divergence(q, p), want)
        assert_same_bits(want, ref)

    def test_mixed_rows(self):
        q = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.6, 0.6]])
        p = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
        got = kl_divergence(q, p)
        assert got[0] == 0.0
        assert got[1] == kl_divergence(q[1], p[1])
        assert np.isnan(got[2]) and np.isnan(got[3])

    def test_shape_errors_raise(self):
        with pytest.raises(ValueError):
            kl_divergence(np.full((2, 2), 0.5), np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            kl_divergence(np.zeros((0, 2)), np.zeros((0, 2)))
