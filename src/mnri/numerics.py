"""Deterministic numerical kernels.

One factorization and one solve for a stack of symmetric positive definite
matrices, a matrix alone being a stack of one (numpy's stacked Cholesky with
a relative pivot check, then substitution; only the lower triangle is read,
so callers pass symmetric matrices), normal/chi-square distribution
functions, and tail probabilities of weighted chi-square mixtures given by
their weights and scale, each one trapezoid sum: a single +/- pair within
about 1e-15 (1 + |t| / 2c) relative, any other weights by Rice's integral.
Everything here is a pure function of its inputs and safe to call
concurrently.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammaincc, ndtr

from .errors import NotPositiveDefinite

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Cholesky pivot threshold, relative to the largest diagonal entry.
# Distinguishes rounding noise from genuine rank deficiency.
_SPD_PIVOT_RTOL = 1e-12

# The trapezoid step in v of _saddle_tail and the end of its unit-spaced scan.
_CONTOUR_STEP = 1.0 / 16.0
_CONTOUR_REACH = 100

# A probability below e^_LOG_UNDERFLOW rounds to 0.0.
_LOG_UNDERFLOW = math.log(5e-324) - 1.0
_DOUBLE_MAX = float(np.finfo(float).max)


def cholesky_spd_rows(a) -> tuple[np.ndarray, dict]:
    """Lower Cholesky factor of each symmetric positive definite matrix of a stack
    (R, m, m): the factors and ``{r: NotPositiveDefinite}`` for the rows failing the
    pivot rule, a pivot at or below ``1e-12 * max(diag)``, which for regression
    information matrices signals collinear covariates. numpy's stacked Cholesky
    makes one LAPACK call per matrix, so a row's bits do not depend on its
    neighbours and a matrix alone is a stack of one. A stack numpy refuses is
    factored row by row; only a row it refuses meets ``dpotrf``, whose info names
    the pivot (<= 0 or NaN) it stopped at. Pivots are squared as arrays: a
    scalar ** 2 goes through pow, which can round the other way."""
    try:
        lower, info = np.linalg.cholesky(a), {}
    except np.linalg.LinAlgError:
        lower, info = np.empty(a.shape), {}
        for r, matrix in enumerate(a):
            try:
                lower[r] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                lower[r], info[r] = lapack.dpotrf(matrix, lower=1, clean=1)
    top = a.diagonal(axis1=1, axis2=2).max(axis=1)
    tol = _SPD_PIVOT_RTOL * np.where(0.0 > top, 0.0, top)  # -0.0 and NaN kept
    pivots = lower.diagonal(axis1=1, axis2=2) ** 2
    for r, j in ((r, k - 1) for r, k in info.items() if k):
        pivots[r, j] = lower[r, j, j]
    passed = pivots > tol[:, None]
    if passed.all():
        return lower, {}
    failures = {}
    for r in np.flatnonzero(~passed.all(axis=1)).tolist():
        j = int(np.argmin(passed[r]))
        failures[r] = NotPositiveDefinite(
            f"Cholesky pivot at index {j} is not above tolerance {tol[r]:.3e}")
    return lower, failures


def _substitute(lower, x) -> np.ndarray:
    """Overwrite each row b of x (R, m) with y, ``lower @ lower.T @ y = b``, for factors
    (R, m, m), by forward and back substitution, each step one update of all rows.
    Multiplying by the inverted diagonal, as OpenBLAS's dpotrs does, gives dpotrs's
    bits at m = 1, and more often than dividing above."""
    m = lower.shape[-1]
    with np.errstate(all="ignore"):  # overflow gives inf, as in LAPACK; failed rows hold 0 or NaN
        inverse = 1.0 / lower.diagonal(axis1=1, axis2=2)
        for i in range(m):
            x[:, i] *= inverse[:, i]
            if i + 1 < m:
                x[:, i + 1:] -= lower[:, i + 1:, i] * x[:, i, None]
        for i in reversed(range(m)):
            x[:, i] *= inverse[:, i]
            if i:
                x[:, :i] -= lower[:, i, :i] * x[:, i, None]
    return x


def solve_spd_rows(a, b) -> tuple[np.ndarray, dict]:
    """Solve ``a[r] @ x[r] = b[r]`` for each row of a stack of symmetric matrices (R, m, m)
    and vectors (R, m), each row with the bits of that row's stack of one: x and
    ``{r: NotPositiveDefinite}`` for the rows that fail, whose rows of x hold no solution."""
    lower, failures = cholesky_spd_rows(a)
    return _substitute(lower, np.array(b, dtype=float)), failures


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def norm_cdf(x):
    """Standard normal distribution function."""
    out = ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def chisq_sf(x, q: int):
    """Chi-square upper tail with ``q`` degrees of freedom, the regularized
    upper incomplete gamma Q(q/2, x/2), taken directly, not as one minus the
    distribution function, so it keeps full relative precision far into the tail.
    Raises ValueError unless q is a positive integer and x is nonnegative."""
    if q < 1 or int(q) != q:
        raise ValueError(f"degrees of freedom must be a positive integer, got {q}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square argument must be nonnegative")
    out = gammaincc(q / 2.0, x / 2.0)
    return out if out.ndim else float(out)


def _pair_tail(t: float, c: float) -> float:
    """``P(c (X1 - X2) > t)`` for independent chi2_1 variables X1, X2, c > 0.

    c (X1 - X2) = 2c U V for independent standard normals U, V, whose
    product has density K0(|x|) / pi (Craig 1936). With a = |t| / 2c the
    tail is (1/pi) int_a^inf K0 = e^-a / pi int_0^inf e^(-2a sinh^2(s/2))
    / cosh s ds. That integrand is analytic in |Im s| < pi/2, so one
    trapezoid sum of step 1/4, or 1/(4 sqrt(2^e)) for 1 < a < 2^e <= 2a,
    where it narrows as e^(-a s^2 / 2), converges exponentially for every a
    (Trefethen & Weideman 2014, SIAM Rev. 56:385). With e^-a applied in log
    scale it is within about 1e-15 (1 + a) relative, 1 + a being its
    condition number. With the nodes fixed within each octave of a, rounding
    can reverse the tail in t only where a crosses a power of two.
    """
    a = abs(t) / (2.0 * c)
    if a == 0.0:
        return 0.5
    # The tail is at most e^-a / 2: 0 past _LOG_UNDERFLOW, as when a = inf.
    upper = 0.0
    if -a >= _LOG_UNDERFLOW:
        h = 0.25 if a <= 1.0 else 0.25 / math.sqrt(math.ldexp(1.0, math.frexp(a)[1]))
        # The sum ends where the integrand, 1 at s = 0, is below e^-45: 1 / cosh s
        # <= 2 e^-s is past 45 + log 2, e^(-2a sinh^2(s/2)) past the other end.
        end = min(45.0 + math.log(2.0), 2.0 * math.asinh(math.sqrt(22.5 / a)))
        s = np.arange(0.0, end, h)
        f = np.exp(-2.0 * a * np.sinh(0.5 * s) ** 2) / np.cosh(s)
        upper = math.exp(math.log(h * (float(f.sum()) - 0.5) / math.pi) - a)
    return upper if t >= 0.0 else 1.0 - upper


def mixture_tail(t: float, weights, scale: float, *, check: bool = True) -> float:
    """Upper tail probability ``P(scale * sum_j weights[j] chi2_1j > t)``,
    the chi2_1j independent, for the fields of a ``chisq_mixture`` reference.

    Raises ValueError when t is NaN, when the weights are none or not all
    finite (any sign), or when the scale is not positive and finite.
    ``check=False`` skips those checks, for weights (an array) and a scale
    the caller built and checked itself, as ``inference.test_mnri_train_test``
    does; the arithmetic, and so the tail, is the same. One +/- pair, c
    (chi2_1 - chi2_1'), as in every train/test reference with one new
    covariate, has the product-normal tail (1/pi) int_a^inf K0, a = |t| / 2c,
    taken as one trapezoid sum (``_pair_tail``) within about 1e-15 (1 + a)
    relative, and exactly 1/2 at t = 0. Any other weights take Rice's
    saddlepoint contour integral (``_saddle_tail``), a negative t as one
    minus the tail of -Q beyond -t. Both keep relative precision until the
    tail leaves the double range, where they return exactly 0 (or 1);
    one-signed weights give 0 or 1 beyond their support. Below t = 0 that
    holds for the complement; the tail itself is then at least P(Q > 0),
    which is 1/2 for the symmetric train/test mixtures.
    """
    t = float(t)
    if check:
        if np.isnan(t):
            raise ValueError("mixture tail threshold is NaN")
        weights = np.asarray(weights, dtype=float)
        if weights.size == 0 or not np.isfinite(weights).all():
            raise ValueError("mixture weights must be one or more finite numbers")
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError("mixture scale must be positive and finite")
    weights = weights * scale
    weights = weights[weights != 0.0]
    if weights.size == 0 or np.isinf(t):
        return float(t < 0.0)
    if weights.size == 2 and weights[0] == -weights[1]:
        return _pair_tail(t, abs(float(weights[0])))
    if t < 0.0:
        return 1.0 - _saddle_tail(-t, -weights)
    return _saddle_tail(t, weights)


def _saddle_tail(t: float, weights: np.ndarray) -> float:
    """``P(Q > t)`` for ``Q = sum_j w_j chi2_1j``, finite t >= 0 and nonzero
    weights, by the saddlepoint contour integral of Rice (1980, SIAM J. Sci.
    Stat. Comput. 1:438-448).

    With K(s) = -1/2 sum_j log(1 - 2 w_j s), the cumulant generating function,
    P(Q > t) = 1/(2 pi i) int e^Phi(s) ds, Phi(s) = K(s) - s t - log s, along
    any upward contour crossing the real axis in (0, 1/2w+), w+ the largest
    weight. Phi is convex there; at its minimum, the saddle s^, the
    integrand falls fastest off the axis. The contour is the hyperbola
    s = s^ + 2 sigma (sqrt(1 + a^2) - 1 + i a), a = sinh(v) / 2, with
    sigma = Phi''(s^)^-1/2. It leaves s^ vertically, along the steepest
    descent, and turns to 45 degrees, where e^-st damps the oscillation and
    the path stays clear of the branch cuts [1/2w_j, inf) of much smaller
    weights, which a parabola meets as t -> 0. By conjugate symmetry

        P(Q > t) = e^Phi(s^) / pi * int_0^inf Im[e^(Phi(s) - Phi(s^)) ds/dv] dv.

    The integrand in v is analytic in |Im v| < pi/4: as Phi'' >= 1/s^2 and
    Phi'' >= 2 w_j^2 / (1 - 2 w_j s)^2, sigma <= s^ and sigma <= sqrt(2)
    |1/2w_j - s^|, which keeps the pole s = 0 and each branch point 1/2w_j at
    |Im v| >= pi/4; sqrt(1 + a^2) branches at pi/2. A trapezoid sum of step h
    errs by about e^(-pi^2 / 2h) times the integrand's size in the strip
    (Trefethen & Weideman 2014, SIAM Rev. 56:385), which k equal weights raise
    by a branch point of order k/2 (at 20, h = 1/8 misses by 2e-8); h is
    min(1/16, 2/m) for m weights. The sum ends a unit past the last term above
    1e-18 of the first at v = 0, 1, ..., 100, where even the slowest decay,
    e^(-v/2) for one weight as t -> 0, reaches 1e-22. e^Phi(s^) is applied in
    log scale, so the result keeps relative precision until it underflows. With
    m weights of one sign and t far below their sum, terms up to 2^(m/4) times
    the first cancel, and rounding costs as much: 2e-12 relative at m = 60 and
    t <= 1, 4e-6 at m = 150; the train/test +/- pairs do not rise so.
    """
    top = float(weights.max())
    if top <= 0.0:
        return 0.0
    if -float(weights.min()) > top * _DOUBLE_MAX:
        raise ValueError(f"mixture weights {top!r} and {weights.min()!r} differ in size "
                         "by more than the double range")
    # Q / w+ > t / w+ is the same event, with the largest weight 1. t / w+
    # overflows only where the tail is far below the double range.
    w, t = weights / top, t / top
    saddle = None if t == math.inf else _saddle(t, w)
    if saddle is None:
        return 0.0
    s, phi, sigma, ratio = saddle

    def terms(v):
        a = 0.5 * np.sinh(v)
        root = np.sqrt(1.0 + a * a)
        z = 2.0 * sigma * (a * a / (root + 1.0) + 1j * a)  # s - s^
        log_f = (-0.5 * np.log(1.0 - np.multiply.outer(z, ratio)).sum(axis=1)
                 - t * z - np.log1p(z / s))
        return (np.exp(log_f) * (sigma * np.cosh(v) * (a / root + 1j))).imag

    h = min(_CONTOUR_STEP, 2.0 / w.size)
    coarse = terms(np.arange(_CONTOUR_REACH + 1.0))
    end = min(int(np.flatnonzero(np.abs(coarse) > 1e-18 * coarse[0])[-1]) + 1, _CONTOUR_REACH)
    f = terms(h * np.arange(math.floor(end / h) + 1))
    return min(1.0, math.exp(phi + math.log(h * (float(f.sum()) - 0.5 * f[0]) / math.pi)))


def _saddle(t: float, w: np.ndarray):
    """s^, Phi(s^), sigma and 2 w_j / (1 - 2 w_j s^) for ``_saddle_tail``'s w and
    t, or None where the Chernoff bound puts the tail below the double range."""
    # The saddle is solved in p = 1/u, u = 1 - 2s, where d_j = 1 - 2 w_j s =
    # (1 - w_j) + w_j / p is exactly 1/p for the largest weights, so a saddle
    # within rounding of the branch point s = 1/2 (t near 1e300) keeps its digits.
    # There Phi' is g(p) = sum_j w_j / d_j - t - 2p / (p - 1), increasing and
    # concave, so Newton climbs to its root from any start below it, such as
    # the root of G(p) = P p + C - t - 2p / (p - 1) >= g(p), with P the sum of
    # the positive weights (w_j / d_j <= w_j p) and C that of w_j / (1 - w_j),
    # their limits, over the negative ones. (p - 1) G(p) = P p^2 - b p + t - C
    # has b > 0, and its larger root is written so that b^2 cannot overflow.
    base = 1.0 - w
    negative = w[w < 0.0]
    shifted = t - float((negative / (1.0 - negative)).sum())
    positive = float(w[w > 0.0].sum())
    b = positive + 2.0 + shifted
    p = b / (2.0 * positive) * (1.0 + math.sqrt(1.0 - 4.0 * positive * (shifted / b) / b))
    # Chernoff: P(Q > t) <= e^(K(s) - s t) at any s in the domain, here at
    # the start. Past the double range the tail is 0, and the Newton steps,
    # which overflow as t nears 1e308, are not taken.
    s = 0.5 * (p - 1.0) / p
    if -0.5 * float(np.log(base + w / p).sum()) - s * t < _LOG_UNDERFLOW:
        return None
    # Any crossing point gives the same integral; the saddle only keeps the
    # sum short, so Newton needs no convergence error of its own. It takes
    # at most 5 steps in the tests.
    for _ in range(50):
        d = base + w / p
        g = float((w / d).sum()) - t - 2.0 * p / (p - 1.0)
        step = -g / (float(((w / (d * p)) ** 2).sum()) + 2.0 / ((p - 1.0) * (p - 1.0)))
        p += step
        if step <= 4e-16 * p:
            break
    s = 0.5 * (p - 1.0) / p
    d = base + w / p
    phi = -0.5 * float(np.log(d).sum()) - s * t - math.log(s)
    sigma = (2.0 * float(((w / d) ** 2).sum()) + 1.0 / (s * s)) ** -0.5
    return s, phi, sigma, 2.0 * w / d
