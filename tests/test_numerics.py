"""Tests for the numerical kernels."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import lapack

from mnri import numerics
from mnri.errors import NotPositiveDefinite
from mnri.numerics import (
    chisq_sf,
    cholesky_spd_rows,
    mixture_tail,
    norm_cdf,
    norm_pdf,
    solve_spd_rows,
)
from matrix_cases import random_cell, symmetric_matrix
from mixture_reference import chisq_cdf, two_pair_tail


def full_pivot_rule(a):
    """The relative pivot rule applied to every pivot, with no early
    acceptance: (message, None) when it rejects, (None, factor) otherwise.
    The factor is numpy's where numpy factors the matrix; where it refuses,
    dpotrf's, whose info names the pivot it stopped at."""
    tol = 1e-12 * max(float(np.max(np.diag(a))), 0.0)
    try:
        lower, info = np.linalg.cholesky(a), 0
    except np.linalg.LinAlgError:
        lower, info = lapack.dpotrf(a, lower=1, clean=1)
    pivots = np.diag(lower) ** 2
    if info > 0:
        pivots[info - 1] = lower[info - 1, info - 1]
    ok = pivots > tol
    if ok.all():
        return None, lower
    j = int(np.argmin(ok))
    return f"Cholesky pivot at index {j} is not above tolerance {tol:.3e}", None


@st.composite
def pivot_cases(draw):
    """Exactly symmetric matrices, 1x1 to 6x6: Gram matrices of full or
    deficient rank, diagonals with a pivot near 1e-12 * max(diag),
    indefinite or zero matrices, and entries near +/-1e308 or infinite."""
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gram", "edge_diagonal", "entries"]))
    if kind == "gram":
        rank = draw(st.integers(0, k))
        m = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k * rank,
                                   max_size=k * rank))).reshape(k, rank)
        a = m @ m.T + draw(st.sampled_from([0.0, 1e-13, 1e-11, 1.0])) * np.eye(k)
    elif kind == "edge_diagonal":
        big = draw(st.floats(1e-3, 1e6))
        a = np.diag(draw(st.lists(st.floats(1.0, 10.0), min_size=k, max_size=k)))
        a[0, 0] = big
        j = draw(st.integers(0, k - 1))
        a[j, j] = big * 1e-12 * draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-15]))
    else:
        a = symmetric_matrix(draw, k)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            i, j = random_cell(draw, k)
            a[i, j] = a[j, i] = draw(st.sampled_from([np.inf, -np.inf]))
    return a.tolist()


class TestSolveSpd:
    # One matrix is a stack of one: the stacked entries are the only ones.
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        x, failures = solve_spd_rows(np.eye(3)[None], b[None])
        assert not failures
        np.testing.assert_allclose(x[0], b)

    def test_diagonal(self):
        a = np.diag([4.0, 9.0])
        np.testing.assert_allclose(solve_spd_rows(a[None], [[8.0, 9.0]])[0][0], [2.0, 1.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5))
        a = m @ m.T + 0.5 * np.eye(5)
        b = rng.standard_normal(5)
        x = solve_spd_rows(a[None], b[None])[0][0]
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_matrix_rhs(self):
        # A matrix right-hand side is a stack of copies, one per column.
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        a = m @ m.T + np.eye(4)
        inv, failures = solve_spd_rows(np.array([a] * 4), np.eye(4))
        assert not failures
        np.testing.assert_allclose(a @ inv.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(inv, inv.T)

    def test_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, failures = solve_spd_rows(a[None], [[1.0, 2.0]])
        assert list(failures) == [0] and isinstance(failures[0], NotPositiveDefinite)

    def test_indefinite_raises(self):
        # Reports the index where the factorization stopped.
        _, failures = cholesky_spd_rows(np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        assert isinstance(failures[0], NotPositiveDefinite)
        assert "at index 1" in str(failures[0])

    def test_reads_only_the_lower_triangle(self):
        # LAPACK's contract: the caller passes a symmetric matrix.
        expected, _ = cholesky_spd_rows(np.array([[[4.0, 2.0], [2.0, 5.0]]]))
        lower, _ = cholesky_spd_rows(np.array([[[4.0, 99.0], [2.0, 5.0]]]))
        assert lower.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(case=pivot_cases())
    # Pivot d * d equal to the tolerance, where pow(d, 2) is one ulp above.
    @example(case=[[310397.2646643939, 0.0], [0.0, 3.103972646643939e-07]])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_pivot_verdict_matches_full_rule(self, case):
        a = np.array(case)
        message, want = full_pivot_rule(a)
        lower, failures = cholesky_spd_rows(a[None])
        if message is None:
            assert not failures
            assert lower[0].tobytes() == want.tobytes()
        else:
            assert list(failures) == [0] and isinstance(failures[0], NotPositiveDefinite)
            assert str(failures[0]) == message

    @settings(max_examples=200, deadline=None)
    @given(case=pivot_cases())
    # numpy's stacked Cholesky factors this one a bit away from dpotrf.
    @example(case=[[2.0, 0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 3.0, 0.0, 2.0],
                   [0.0, 0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 2.0, 0.0, 6.0]])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_stacked_rows_solve_as_alone(self, case):
        # Between two SPD rows, each row of a stack gets the bits, or the
        # error, that it gets in a stack of its own.
        a = np.array(case)
        k = a.shape[0]
        rng = np.random.default_rng(k)
        m = rng.standard_normal((k, k))
        spd = m @ m.T + np.eye(k)
        stack, b = np.array([spd, a, 2.0 * spd]), rng.standard_normal((3, k))
        x, failures = solve_spd_rows(stack, b)
        for r in range(3):
            want, alone = solve_spd_rows(stack[r:r + 1], b[r:r + 1])
            if alone:
                assert str(failures[r]) == str(alone[0])
            else:
                assert r not in failures
                assert x[r].tobytes() == want[0].tobytes()

    def test_failing_neighbour_leaves_row_bits(self):
        # numpy refuses a stack holding a singular matrix; the healthy row
        # is then factored alone by numpy, not by dpotrf, whose factor of
        # this matrix can differ from numpy's in the last bit.
        a = np.array([[2.0, 0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 3.0, 0.0, 2.0], [0.0, 0.0, 0.0, 1.0, 0.0],
                      [2.0, 0.0, 2.0, 0.0, 6.0]])
        stack, b = np.array([a, np.ones((5, 5))]), np.arange(10.0).reshape(2, 5)
        lower, failures = cholesky_spd_rows(stack)
        x, solve_failures = solve_spd_rows(stack, b)
        assert list(failures) == list(solve_failures) == [1]
        assert lower[0].tobytes() == cholesky_spd_rows(a[None])[0][0].tobytes()
        assert x[0].tobytes() == solve_spd_rows(a[None], b[:1])[0][0].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), rows=st.integers(1, 4))
    def test_solve_backward_error(self, data, m, rows):
        # The substitution is backward stable: the residual is within a
        # fixed multiple of m * eps of |a| |x| + |b|, whatever the scale.
        # Entries below 2^-10 in size are 0, so that x stays a normal double.
        def floats(*shape):
            count = int(np.prod(shape))
            v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=count,
                                            max_size=count))).reshape(shape)
            return np.where(abs(v) < 2.0**-10, 0.0, v)

        def scales():
            powers = st.lists(st.sampled_from([-500, 0, 500]), min_size=rows, max_size=rows)
            return np.ldexp(1.0, data.draw(powers))

        g = floats(rows, m, m)
        shift = data.draw(st.sampled_from([1e-3, 1e-1, 1.0]))
        a = (g @ g.transpose(0, 2, 1) + shift * np.eye(m)) * scales()[:, None, None]
        b = floats(rows, m) * scales()[:, None]
        x, failures = solve_spd_rows(a, b)
        assert not failures
        residual = np.einsum("rij,rj->ri", a, x) - b
        bound = (abs(a).sum(axis=2).max(axis=1) * abs(x).max(axis=1)
                 + abs(b).max(axis=1))
        assert (abs(residual).max(axis=1) <= 4.0 * m * np.finfo(float).eps * bound).all()

    def test_pivot_tolerance_relative_to_diagonal(self):
        # Collinearity at a scale far above machine noise still trips.
        v = np.array([3.0, 1.0, 2.0])
        a = np.outer(v, v) * 1e6
        _, failures = cholesky_spd_rows(a[None])
        assert isinstance(failures[0], NotPositiveDefinite)

    def test_factor_is_lower_triangular_and_reproduces_input(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        (lower,), failures = cholesky_spd_rows(a[None])
        assert not failures
        assert np.all(np.triu(lower, 1) == 0.0)
        assert np.all(np.diag(lower) > 0.0)
        np.testing.assert_allclose(lower @ lower.T, a, rtol=0.0, atol=1e-12)

    def test_small_positive_pivot_rejected(self):
        # Positive but below 1e-12 * max(diag): LAPACK alone accepts it.
        _, failures = cholesky_spd_rows(np.diag([1.0, 1e-13])[None])
        assert isinstance(failures[0], NotPositiveDefinite)
        assert "at index 1" in str(failures[0])


class TestNormalFunctions:
    def test_cdf_center(self):
        assert norm_cdf(0.0) == 0.5

    def test_pdf_center(self):
        assert abs(norm_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15

    def test_cdf_975_quantile(self):
        assert abs(norm_cdf(1.959964) - 0.975) <= 1e-6

    def test_against_mpmath(self):
        for x in [-8.0, -3.2, -0.7, 0.0, 0.3, 1.5, 4.0, 7.5]:
            exact = float(mpmath.ncdf(x))
            assert abs(norm_cdf(x) - exact) <= 1e-12

    def test_monotone_and_bounded(self):
        grid = np.linspace(-10, 10, 401)
        vals = norm_cdf(grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.all(norm_pdf(grid) >= 0)


class TestChisqCdf:
    def test_zero_boundary(self):
        for q in (1, 2, 5, 10):
            assert chisq_cdf(0.0, q) == 0.0

    def test_one_df_quantile(self):
        # 3.841459 is the squared 0.975 normal quantile.
        assert abs(chisq_cdf(3.841459, 1) - 0.95) <= 1e-5

    def test_two_df_closed_form(self):
        for x in [0.1, 0.5, 1.0, 3.7, 10.0, 25.0]:
            assert abs(chisq_cdf(x, 2) - (1.0 - math.exp(-x / 2.0))) <= 1e-14

    def test_monotone_grid(self):
        grid = np.linspace(0.0, 30.0, 301)
        for q in (1, 2, 3, 7):
            vals = chisq_cdf(grid, q)
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chisq_cdf(-0.1, 1)
        with pytest.raises(ValueError):
            chisq_cdf(1.0, 0)


class TestChisqSf:
    def test_complements_cdf(self):
        grid = np.linspace(0.0, 30.0, 61)
        for q in (1, 2, 5):
            np.testing.assert_allclose(chisq_sf(grid, q), 1.0 - chisq_cdf(grid, q), atol=1e-15)

    def test_two_df_far_tail_relative(self):
        for x in [50.0, 200.0, 1000.0]:
            assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chisq_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)


class TestMixtureTail:
    def test_single_weight_reduces_to_chi1(self):
        p = mixture_tail(3.841459, (1.0,), 1.0)
        assert abs(p - 0.05) <= 1e-4

    def test_two_equal_weights_closed_form(self):
        for t in [0.5, 2.0, 7.3, 15.0]:
            p = mixture_tail(t, (1.0, 1.0), 1.0)
            assert abs(p - math.exp(-t / 2.0)) <= 1e-8

    def test_symmetric_difference_at_zero(self):
        assert mixture_tail(0.0, (1.0, -1.0), 1.0) == 0.5

    def test_all_equal_weights_grid(self):
        # Equal positive weights w give w * chi2_m.
        for m, w in [(1, 1.0), (3, 0.5), (4, 2.0)]:
            weights, scale = (w,) * m, 1.0
            for t in np.arange(0.5, 20.5, 0.5):
                expected = 1.0 - chisq_cdf(t / w, m)
                assert abs(mixture_tail(float(t), weights, scale) - expected) <= 1e-5

    def test_scale_parameter(self):
        # P(s * chi2_1 > t) = P(chi2_1 > t/s)
        p = mixture_tail(3.0, (1.0,), 0.8)
        expected = 1.0 - chisq_cdf(3.0 / 0.8, 1)
        assert abs(p - expected) <= 1e-8

    def test_monte_carlo_sign_mixed(self):
        rng = np.random.default_rng(7)
        weights = np.array([2.0, -0.5, 1.0, -1.0])
        scale = 0.9
        draws = rng.standard_normal((1_000_000, 4))
        q = scale * (draws**2 @ weights)
        for t in [-1.0, 0.0, 1.5, 4.0]:
            mc = float(np.mean(q > t))
            se = math.sqrt(mc * (1.0 - mc) / q.shape[0])
            assert abs(mixture_tail(t, weights, scale) - mc) <= 3.0 * se

    def test_negative_t_all_positive_weights(self):
        assert abs(mixture_tail(-1.0, (1.0,), 1.0) - 1.0) <= 1e-9

    def test_bounds(self):
        weights, scale = (1.5, -0.3, 0.2), 1.0
        for t in [-50.0, -5.0, 0.0, 5.0, 50.0, 500.0]:
            p = mixture_tail(t, weights, scale)
            assert 0.0 <= p <= 1.0

    def test_small_thresholds_match_direct_integral(self):
        # Q = a X - b Y with X, Y ~ chi2_1, so P(Q > t) averages
        # P(chi2_1 > (t + b Y) / a) over Y = Z^2, Z standard normal.
        a, b = 1.3 * 0.8, 0.7 * 0.8
        weights, scale = (1.3, -0.7), 0.8
        for size in [0.0, 1e-9, 2e-8, 1.19e-7, 1e-5, 1e-3, 1.0]:
            for t in (size, -size):
                def integrand(z):
                    return 2.0 * stats.norm.pdf(z) * stats.chi2.sf(max(t + b * z * z, 0.0) / a, 1)

                kink = math.sqrt(max(-t, 0.0) / b)
                direct = sum(
                    integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
                    for lo, hi in ((0.0, kink), (kink, np.inf))
                )
                assert abs(mixture_tail(t, weights, scale) - direct) <= 1e-8

    def test_scale_invariance(self):
        # P(c Q > c t) = P(Q > t) for any c > 0, at t = 0 too.
        for t in [0.0, 1.19e-7, -1.0, 3.0]:
            expected = mixture_tail(t, (1.3, -0.7), 0.8)
            for c in (1e-6, 1e6):
                scaled = mixture_tail(c * t, (1.3 * c, -0.7 * c), 0.8)
                assert abs(scaled - expected) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        t1=st.floats(-20, 20),
        t2=st.floats(-20, 20),
    )
    # Tiny nonzero thresholds, which the search seldom draws, need their own
    # integration path; the negative one sits just below t = 0.
    @example(t1=1.19e-7, t2=0.0)
    @example(t1=-1.19e-7, t2=0.0)
    def test_monotone_in_threshold(self, t1, t2):
        weights, scale = (1.3, -0.7), 0.8
        lo, hi = sorted((t1, t2))
        assert mixture_tail(lo, weights, scale) >= mixture_tail(hi, weights, scale) - 1e-9

    def test_infinite_thresholds(self):
        weights, scale = (1.3, -0.7), 0.8
        assert mixture_tail(math.inf, weights, scale) == 0.0
        assert mixture_tail(-math.inf, weights, scale) == 1.0

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold is NaN"):
            mixture_tail(math.nan, (1.3, -0.7), 0.8)

    def test_spec_validation(self):
        for weights, scale in [
            ((), 1.0), ((1.0, math.nan), 1.0), ((math.inf, -1.0), 1.0),
            ((1.0,), 0.0), ((1.0, -1.0), -0.8), ((1.0, -1.0), math.nan),
        ]:
            with pytest.raises(ValueError, match="^mixture (weights|scale)"):
                mixture_tail(1.0, weights, scale)

    def test_unchecked_tail_is_the_checked_tail(self):
        # check=False skips only the checks: every path gives the same bits.
        for weights in [(0.93, -0.93), (1.3, -0.7), (2.0, -2.0, 0.5, -0.5), (1.0, 0.0, -1.0),
                        (1.5,), (0.0, 0.0)]:
            weights = np.array(weights)
            for t in [-math.inf, -3.0, -1e-9, 0.0, 1.19e-7, 0.7, 4.0, 60.0, math.inf]:
                for scale in (0.8, np.float64(1.7)):
                    checked = mixture_tail(np.float64(t), weights, scale)
                    assert mixture_tail(np.float64(t), weights, scale, check=False) == checked


def _pair_tail_mpmath(t, c):
    """P(c (chi2_1 - chi2_1') > t) at 30 digits, from K0(x) = int_0^inf
    e^(-x cosh s) ds: (1/pi) int_a^inf K0 = (e^-a / pi) int_0^inf
    e^(-a (cosh s - 1)) / cosh s ds with a = |t| / 2c. The integral is cut
    where the integrand falls by e^-200."""
    with mpmath.workdps(30):
        a = abs(mpmath.mpf(t)) / (2 * mpmath.mpf(c))
        end = mpmath.acosh(1 + 200 / a)
        body = mpmath.quad(
            lambda s: mpmath.exp(-a * (mpmath.cosh(s) - 1)) / mpmath.cosh(s),
            mpmath.linspace(0, end, 8),
        )
        upper = mpmath.exp(-a) * body / mpmath.pi
        return upper if t >= 0 else 1 - upper


def _saddle_tail_mpmath(t, weights):
    """P(sum_j w_j chi2_1j > t), t > 0, at 20 digits: Rice's integral
    1/(2 pi i) int e^(K(s) - s t) ds / s along s = s0 + r (sqrt(1 + a^2) - 1
    + i a), a = sinh v, with s0 the saddle of K(s) - s t - log s, found by
    bisection, and r its Phi''^-1/2, by Gauss-Legendre quadrature. With four
    or more weights the integrand is below about e^-60 of its start past
    v = 32."""
    with mpmath.workdps(20):
        w = [mpmath.mpf(float(x)) for x in weights]
        t = mpmath.mpf(t)

        def phi(s):
            return -mpmath.fsum(mpmath.log(1 - 2 * x * s) for x in w) / 2 - s * t - mpmath.log(s)

        lo, hi = mpmath.mpf(0), 1 / (2 * max(w))
        while hi - lo > mpmath.mpf(10) ** -20 * hi:
            mid = (lo + hi) / 2
            if mpmath.fsum(x / (1 - 2 * x * mid) for x in w) - t - 1 / mid > 0:
                hi = mid
            else:
                lo = mid
        s0 = (lo + hi) / 2
        r = 1 / mpmath.sqrt(mpmath.fsum(2 * (x / (1 - 2 * x * s0)) ** 2 for x in w) + 1 / s0**2)
        top = phi(s0)

        def integrand(v):
            a = mpmath.sinh(v)
            root = mpmath.sqrt(1 + a * a)
            s = s0 + r * (root - 1 + 1j * a)
            return mpmath.im(mpmath.exp(phi(s) - top) * r * mpmath.cosh(v) * (a / root + 1j))

        body = mpmath.quad(integrand, [0, 1, 2, 4, 8, 16, 32], method="gauss-legendre")
        return mpmath.exp(top) * body / mpmath.pi


class TestPairTail:
    """The single +/- pair c (chi2_1 - chi2_1'), the train/test reference
    with one new covariate, whose tail (1/pi) int_a^inf K0, a = |t| / 2c, is
    one trapezoid sum, within 1e-15 (1 + a) relative of mpmath: 1 + a is the
    tail's condition number in t, as a carries the rounding of |t| / 2c."""

    def test_matches_mpmath_relative(self):
        checked = 0
        for c in (0.05, 0.8, 3.0):
            weights, scale = (1.0, -1.0), c
            # 0.15, 2.4 (and 3.1) and 9.0 put a in [1, 2) at c = 0.05, 0.8 and 3.0.
            for size in (1e-9, 0.15, 0.5, 2.4, 3.1, 3.3, 5.0, 9.0, 20.0, 40.0, 80.0, 400.0):
                for t in (size, -size):
                    exact = _pair_tail_mpmath(t, c)
                    if exact < mpmath.mpf("1e-300"):
                        continue
                    p = mixture_tail(t, weights, scale)
                    a = abs(t) / (2.0 * c)
                    assert abs(p - exact) <= 1e-15 * (1.0 + a) * exact, (t, c, p, exact)
                    checked += 1
        assert checked == 70  # only t = +80 and +400 at c = 0.05 fall below 1e-300

    @settings(max_examples=200, deadline=None)
    @given(t1=st.floats(-2000, 2000), t2=st.floats(-2000, 2000),
           c=st.sampled_from((1.0, 0.8, 0.05, 3.0)))
    @example(t1=3.9999999999999996, t2=4.0, c=1.0)  # neighbouring doubles at a = |t| / 2c = 2
    @example(t1=-4.0, t2=-3.9999999999999996, c=1.0)
    # Neighbouring doubles where a step that moved with a let the sum's
    # rounding reverse the tail by an ulp. Fixed within each octave of a, it
    # can reverse only where a crosses a power of two.
    @example(t1=2.8049999999999997, t2=2.805, c=1.0)
    @example(t1=3.8320000000000007, t2=3.832000000000001, c=1.0)
    @example(t1=-2.396, t2=-2.3959999999999995, c=1.0)
    @example(t1=2.167, t2=2.1670000000000003, c=0.8)
    @example(t1=2.2439999999999998, t2=2.244, c=0.8)
    @example(t1=-7.188, t2=-7.187999999999999, c=3.0)
    @example(t1=6.295999999999999, t2=6.296, c=3.0)
    @example(t1=8.475000000000001, t2=8.475000000000003, c=3.0)
    def test_monotone_in_threshold(self, t1, t2, c):
        weights = (1.0, -1.0)
        lo, hi = sorted((t1, t2))
        assert mixture_tail(lo, weights, c) >= mixture_tail(hi, weights, c)

    def test_probabilities_in_unit_interval(self):
        for weights, scale in (((1.0, -1.0), 0.8), ((-2.5, 0.0, 2.5), 0.3)):
            for t in (-50.0, -1.0, 0.0, 1e-9, 3.0, 400.0):
                assert 0.0 <= mixture_tail(t, weights, scale) <= 1.0

    def test_agrees_with_general_path(self):
        # The saddlepoint path run on the pair, mirrored below t = 0 as
        # mixture_tail mirrors it.
        sizes = np.logspace(-12, math.log10(2000.0), 40)
        for c in (0.05, 0.8, 3.0):
            weights = np.array([c, -c])
            for t in np.concatenate([np.linspace(-20.0, 20.0, 41), sizes, -sizes]):
                pair = mixture_tail(float(t), (1.0, -1.0), c)
                if pair < 1e-300:
                    continue
                if t < 0.0:
                    general = 1.0 - numerics._saddle_tail(-t, -weights)
                else:
                    general = numerics._saddle_tail(t, weights)
                assert abs(general - pair) <= 1e-10 * pair, (c, t, general, pair)

    def test_extreme_thresholds(self):
        # |t| / 2c overflows to inf here; the tail is 0 (or 1) to double precision.
        weights, scale = (1.0, -1.0), 0.05
        assert mixture_tail(1e308, weights, scale) == 0.0
        assert mixture_tail(-1e308, weights, scale) == 1.0


class TestChisqEnvelope:
    """Properties of the tail that hold for any weights. Q is at most w+ times
    a chi2 with m+ degrees of freedom (w+ the largest weight, m+ the count of
    positive ones), so P(Q > t) <= P(chi2_{m+} > t / w+) for t > 0, with the
    mirror bound below t < 0; far in the tail the value stays positive and
    under that bound. Past the double range it is exactly 0 (or 1), and
    one-signed weights give exactly 0 or 1 beyond their support."""

    weights, scale = (2.0, -2.0, 0.5, -0.5), 0.8

    def test_far_tail_within_bound(self):
        # The tail is 1.9e-56 here, the bound 5.2e-55.
        bound = chisq_sf(400.0 / (2.0 * 0.8), 2)
        assert 0.0 < mixture_tail(400.0, self.weights, self.scale) <= bound
        assert mixture_tail(-400.0, self.weights, self.scale) >= 1.0 - bound

    def test_underflowing_bound_skips_contour_sum(self):
        # The Chernoff bound at the saddle search's start underflows here, so
        # the tail is exactly 0 (or 1) at once, with no contour sum.
        start = time.perf_counter()
        assert mixture_tail(1e6, self.weights, self.scale) == 0.0
        assert mixture_tail(-1e6, self.weights, self.scale) == 1.0
        assert time.perf_counter() - start < 1.0

    def test_one_signed_weights_exact_beyond_support(self):
        # All weights positive: Q > 0 surely, so P(Q > t) = 1 for t < 0.
        assert mixture_tail(-1e-3, (1.0, 0.5), 1.0) == 1.0
        assert mixture_tail(1e-3, (-1.0, -0.5), 1.0) == 0.0


class TestSaddleTail:
    """Weights other than one +/- pair, which take the saddlepoint contour
    integral, against independent references to 1e-9 relative."""

    weights, scale = (2.0, -2.0, 0.5, -0.5), 0.8

    def test_two_pairs_match_convolution(self):
        for t in (-50.0, -20.0, -3.0, -0.5, 0.0, 0.5, 3.0, 20.0, 60.0, 100.0, 150.0, 400.0):
            exact = two_pair_tail(t, 2.0 * 0.8, 0.5 * 0.8)
            p = mixture_tail(t, self.weights, self.scale)
            assert abs(p - exact) <= 1e-9 * exact, (t, p, exact)

    def test_equal_weights_match_chisq(self):
        checked = 0
        for m in (1, 2, 3, 4, 6, 10, 20):
            weights, scale = (1.0,) * m, 1.0
            for t in np.logspace(-9, math.log10(3000.0), 80):
                exact = chisq_sf(t, m)
                if exact < 1e-300:
                    continue
                p = mixture_tail(float(t), weights, scale)
                assert abs(p - exact) <= 1e-9 * exact, (m, t, p, exact)
                checked += 1
        assert checked == 540  # the last t is 1008 for m <= 10, 1450 for m = 20

    @settings(max_examples=200, deadline=None)
    @given(t1=st.floats(-50, 400), t2=st.floats(-50, 400))
    @example(t1=100.0, t2=400.0)
    @example(t1=-1e-300, t2=0.0)  # the mirrored side meets the direct one at 0
    def test_monotone_in_threshold(self, t1, t2):
        lo, hi = sorted((t1, t2))
        upper = mixture_tail(hi, self.weights, self.scale)
        assert mixture_tail(lo, self.weights, self.scale) >= upper * (1.0 - 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(allow_nan=False, allow_infinity=False))
    @example(t=1e6)
    @example(t=-1e6)
    @example(t=1e308)
    @example(t=-1e308)
    def test_any_finite_threshold(self, t):
        p = mixture_tail(t, self.weights, self.scale)
        assert 0.0 <= p <= 1.0
        if abs(t) >= 1e6:
            assert p == float(t < 0.0)

    def test_weights_beyond_double_range_rejected(self):
        weights, scale = (1e-300, -1e10), 1.0
        with pytest.raises(ValueError, match="more than the double range"):
            mixture_tail(1.0, weights, scale)
        assert 0.0 < mixture_tail(-1.0, weights, scale) < 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.floats(-12.0, math.log10(7.0)), min_size=1, max_size=6),
        signs=st.lists(st.booleans(), min_size=6, max_size=6),
        size=st.floats(-9.0, math.log10(2000.0)),
    )
    @example(sizes=[0.0, 0.0], signs=[True] * 6, size=-9.0)
    @example(sizes=[0.0] * 6, signs=[True] * 6, size=-9.0)  # the saddle nears the pole
    @example(sizes=[0.0, -12.0], signs=[True] * 6, size=-9.0)  # a far branch point
    @example(sizes=[0.0, -12.0], signs=[True, False] * 3, size=3.3)
    def test_step_premise(self, sizes, signs, size):
        # The step is set by the strip |Im v| < pi/4 in which the contour
        # integrand is analytic. Its singular points in z = s - s^ are the
        # pole z = -s^ and the branch points z = 1 / ratio_j, 1/2w_j - s^.
        # z = 2 sigma (sqrt(1 + a^2) - 1 + i a), a = sinh(v) / 2, reaches z
        # where sinh v = -ic +/- sqrt(c^2 - 2), c = 1 + z / 2 sigma, and
        # sqrt(1 + a^2) + i a = c. In the strip Re(1 + a^2) >= 7/8, so there
        # the square root is the principal one; a solution of the squared
        # equation that fails with it is reached on another branch, outside.
        weights = np.array([10.0**e if up else -(10.0**e) for e, up in zip(sizes, signs)])
        if weights.max() <= 0.0:
            weights = -weights
        top = float(weights.max())
        saddle = numerics._saddle(10.0**size, weights / top)
        if saddle is None:
            return
        s, _, sigma, ratio = saddle
        c = 1.0 + np.concatenate([[-s], 1.0 / ratio]) / (2.0 * sigma)
        root = np.sqrt(c.astype(complex) ** 2 - 2.0)
        c, sinh = np.tile(c, 2), np.concatenate([-1j * c + root, -1j * c - root])
        a = 0.5 * sinh
        reached = abs(np.sqrt(1.0 + a * a) + 1j * a - c) <= 1e-8 * (1.0 + abs(c))
        assert (abs(np.arcsinh(sinh[reached]).imag) >= 0.25 * math.pi * (1.0 - 1e-12)).all()

    def test_matches_mpmath_relative(self):
        # q = 2 to 5 new covariates give 2q weights of both signs, in +/-
        # pairs as mixture_weights makes them or of independent sizes, from
        # t = 1e-6 to where the tail nears the bottom of the double range.
        # In the last set eight equal weights make a branch point of order 4,
        # which a step of 1/8 misses by 1e-14. a = t / 2w+ carries the
        # rounding of t / w+, as in TestPairTail.
        rng = np.random.default_rng(27)
        mixtures = []
        for q in (2, 3, 4, 5):
            sizes = np.exp(rng.uniform(-2.5, 2.5, (2, q)))
            mixtures.append(np.concatenate([sizes[0], -sizes[q % 2]]))
        mixtures.append(np.array([1.0] * 8 + [-0.01, -0.02]))
        checked = 0
        for weights in mixtures:
            top = float(weights.max())
            for t in (1e-6, *(2.0 * top * np.array([0.5, 8.0, 685.0]))):
                exact = _saddle_tail_mpmath(t, weights)
                if exact < mpmath.mpf("1e-300"):
                    continue
                p = mixture_tail(t, weights, 1.0)
                a = t / (2.0 * top)
                assert abs(p - exact) <= 5e-16 * (1.0 + a) * exact, (weights, t, p, exact)
                checked += 1
        assert checked == 20


def test_module_functions_are_pure():
    # Same inputs, same outputs (no hidden state).
    weights, scale = (1.0, -2.0), 0.7
    assert mixture_tail(1.3, weights, scale) == mixture_tail(1.3, weights, scale)
