"""Deterministic numerical kernels.

Symmetric positive definite solves (LAPACK Cholesky with a relative pivot
check), normal/chi-square distribution functions, and tail probabilities
of weighted chi-square mixtures: a single +/- pair by its closed
product-normal law, any other weights by Imhof's inversion kept inside a
chi-square envelope. Everything here is a pure function of its inputs and
safe to call concurrently.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammainc, gammaincc, iti0k0, k0e, ndtr, roots_laguerre

from .errors import IntegrationFailure, NotPositiveDefinite

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Cholesky pivot threshold, relative to the largest diagonal entry.
# Distinguishes rounding noise from genuine rank deficiency.
_SPD_PIVOT_RTOL = 1e-12

# Below this Fourier frequency |t|/2 the Imhof phase t u / 2 is dropped
# beyond u = 1 (see _imhof_tail).
_NEGLIGIBLE_OMEGA = 1e-100

# Absolute error target of a mixture tail probability, split evenly among
# its (at most four) quadrature passes.
_TAIL_TOL = 1e-8

# Gauss-Laguerre rule for int_0^inf e^-y f(y) dy, used on the far tail of
# the product-normal law. At the switch point a = 2, 20 nodes are 7e-11
# (relative) off; 40 nodes agree with 60 and with mpmath to rounding, and
# the integrand only gets smoother as a grows.
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = roots_laguerre(40)

# Below this a = |t| / 2c the pair tail is 1/2 minus the integral of K0
# over [0, a], which loses at most a factor 20 of relative precision there.
_PAIR_SPLIT = 2.0


@dataclass(frozen=True)
class MixtureSpec:
    """A scaled mixture ``scale * sum_j weights[j] * chi2_1j`` of independent
    one-degree-of-freedom chi-square variables. Weights may be negative."""

    weights: tuple[float, ...]
    scale: float

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", float(self.scale))
        if len(weights) == 0:
            raise ValueError("mixture needs at least one weight")
        if not all(map(math.isfinite, weights)):
            raise ValueError("mixture weights must be finite")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("mixture scale must be positive and finite")


def _as_symmetric(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    # np.allclose(a, a.T, rtol=0, atol=atol), inlined. atol is finite exactly
    # when every entry is, and then one comparison decides; inf and NaN
    # entries take allclose's own rules.
    atol = 1e-8 * (1.0 + abs(a).max())
    if math.isfinite(atol):
        close = (abs(a - a.T) <= atol).all()
    else:
        with np.errstate(invalid="ignore"):
            close = ((a == a.T) | ((abs(a - a.T) <= atol) & np.isfinite(a.T))).all()
    if not close:
        raise ValueError("matrix must be symmetric")
    return a


def cholesky_spd(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Factored by LAPACK ``dpotrf``. Raises NotPositiveDefinite when a pivot
    falls at or below ``1e-12 * max(diag)``, which for regression
    information matrices signals collinear covariates.
    """
    a = _as_symmetric(a)
    tol = _SPD_PIVOT_RTOL * max(float(a.diagonal().max()), 0.0)
    lower, info = lapack.dpotrf(a, lower=1, clean=1)
    diagonal = lower.diagonal()
    # A complete factor has positive diagonal entries, so its smallest
    # pivot is the square of its smallest entry. Squared as a product, as
    # the array square below is: a scalar ** 2 goes through pow, which can
    # round the other way.
    smallest = diagonal.min()
    if info == 0 and smallest * smallest > tol:
        return lower
    # A pivot fails: the smallest square, or the one <= 0 or NaN at which
    # dpotrf stopped (info - 1), left there as it was.
    pivots = diagonal**2
    if info > 0:
        pivots[info - 1] = lower[info - 1, info - 1]
    j = int(np.argmin(pivots > tol))
    raise NotPositiveDefinite(
        f"Cholesky pivot {pivots[j]:.3e} at index {j} is below tolerance {tol:.3e}"
    )


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``."""
    x, _ = lapack.dpotrs(cholesky_spd(a), np.asarray(b, dtype=float), lower=1)
    return x


def inv_spd(a) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    a = np.asarray(a, dtype=float)
    inv = solve_spd(a, np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def norm_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def norm_cdf(x):
    """Standard normal distribution function."""
    out = ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _chisq_args(x, q: int) -> tuple[float, np.ndarray]:
    if q < 1 or int(q) != q:
        raise ValueError(f"degrees of freedom must be a positive integer, got {q}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square argument must be nonnegative")
    return q / 2.0, x / 2.0


def chisq_cdf(x, q: int):
    """Chi-square distribution function with ``q`` degrees of freedom,
    i.e. the regularized lower incomplete gamma P(q/2, x/2)."""
    out = gammainc(*_chisq_args(x, q))
    return out if out.ndim else float(out)


def chisq_sf(x, q: int):
    """Chi-square upper tail with ``q`` degrees of freedom, the regularized
    upper incomplete gamma Q(q/2, x/2); unlike ``1 - chisq_cdf`` it keeps
    full relative precision far into the tail."""
    out = gammaincc(*_chisq_args(x, q))
    return out if out.ndim else float(out)


def _pair_tail(t: float, c: float) -> float:
    """``P(c (X1 - X2) > t)`` for independent chi2_1 variables X1, X2, c > 0.

    c (X1 - X2) = 2c U V for independent standard normals U, V, whose
    product has density K0(|x|) / pi (Craig 1936). With a = |t| / 2c the
    upper tail is (1/pi) int_a^inf K0(x) dx. Near the centre it is taken
    as 1/2 minus scipy's integral of K0 over [0, a]; further out as
    e^-a / pi int_0^inf e^-y k0e(a + y) dy with k0e(x) = e^x K0(x), whose
    integrand is smooth, so a Gauss-Laguerre rule keeps full relative
    precision until e^-a leaves the double range.
    """
    a = abs(t) / (2.0 * c)
    if a < _PAIR_SPLIT:
        upper = 0.5 - float(iti0k0(a)[1]) / np.pi
    else:
        total = float(np.dot(_LAGUERRE_WEIGHTS, k0e(a + _LAGUERRE_NODES)))
        # e^-a alone would go subnormal, losing digits, before the product.
        # The sum is 0 only when |t| / 2c overflows to inf.
        upper = math.exp(math.log(total / np.pi) - a) if total > 0.0 else 0.0
    return upper if t >= 0.0 else 1.0 - upper


def _chisq_envelope(t: float, weights: np.ndarray) -> tuple[float, float]:
    """Bounds ``(lower, upper)`` on ``P(sum_j w_j chi2_1j > t)``.

    The sum is at most w+ chi2_{m+}, with w+ the largest of the m+ positive
    weights, and at least -w- chi2_{m-} for the negative ones, so for t > 0
    P(Q > t) <= P(chi2_{m+} > t / w+), and for t < 0
    P(Q > t) >= 1 - P(chi2_{m-} > |t| / w-). Unlike quadrature these keep
    relative precision arbitrarily far out.
    """
    if t == 0.0:
        return 0.0, 1.0
    side = weights[weights > 0.0] if t > 0.0 else -weights[weights < 0.0]
    far = 0.0 if side.size == 0 else float(chisq_sf(abs(t) / side.max(), side.size))
    return (0.0, far) if t > 0.0 else (1.0 - far, 1.0)


def mixture_tail(t: float, spec: MixtureSpec) -> float:
    """Upper tail probability ``P(scale * sum_j w_j chi2_1j > t)``.

    A mixture that is one +/- pair, c (chi2_1 - chi2_1'), as in every
    train/test reference with one new covariate, follows the closed
    product-normal law and is computed in closed form (``_pair_tail``) to
    full relative precision. Any other weights go to Imhof's inversion of
    the characteristic function (``_imhof_tail``), whose absolute error of
    about 1e-8 is clamped to the chi-square envelope of ``_chisq_envelope``.
    Where that envelope pins the answer to 0 or 1 in double precision, as
    it does far out in either tail, no quadrature is run.
    """
    t = float(t)
    if np.isnan(t):
        raise ValueError("mixture tail threshold is NaN")
    weights = np.asarray(spec.weights, dtype=float) * spec.scale
    weights = weights[weights != 0.0]
    if weights.size == 0 or np.isinf(t):
        return float(t < 0.0)
    if weights.size == 2 and weights[0] == -weights[1]:
        return _pair_tail(t, abs(float(weights[0])))
    lower, upper = _chisq_envelope(t, weights)
    if lower == upper:
        return lower
    return min(upper, max(lower, _imhof_tail(t, weights)))


def _imhof_tail(t: float, weights: np.ndarray) -> float:
    """``P(sum_j w_j chi2_1j > t)`` for finite t and nonzero weights, by
    numerical inversion of the characteristic function (Imhof's integral),
    which stays exact up to quadrature error even when weights are mixed
    in sign:

        P(Q > t) = 1/2 + (1/pi) * int_0^inf sin(theta(u)) / (u rho(u)) du

    with theta(u) = psi(u) - t u / 2, psi(u) = (1/2) sum_j atan(w_j u),
    and rho(u) = prod_j (1 + w_j^2 u^2)^(1/4).

    The integrand oscillates with frequency t/2 while its envelope decays
    only like u^(-1-m/2), so a plain adaptive rule cannot reach the far
    tail. The integral is split at u = 1: an ordinary adaptive pass covers
    [0, 1], and the remainder is written as Fourier sine/cosine integrals
    of the smooth decaying factors sin(psi)/(u rho) and cos(psi)/(u rho),
    which QUADPACK's dedicated Fourier algorithm integrates to infinity.

    That algorithm works cycle by cycle, and its first cycle has length
    2 pi / |t|. For small |t| the cycle would span many decades of u, over
    which it loses part of the integral without reporting it, so the
    Fourier rule starts only where the phase |t| u / 2 reaches one radian.
    The stretch between u = 1 and that point, a fraction of an
    oscillation, is integrated directly in log u, where the power-law
    envelope is smooth.
    """
    from scipy import integrate  # deferred: a heavy import few callers need

    # P(Q > t) is unchanged by dividing Q and t by one positive constant;
    # unit largest |weight| puts the integrand's scale at u ~ 1.
    size = np.abs(weights).max()
    weights, t = weights / size, t / size
    epsabs = _TAIL_TOL / 4.0

    def psi(u):
        return 0.5 * np.sum(np.arctan(weights * u))

    def inv_urho(u):
        return 1.0 / (u * np.prod((1.0 + (weights * u) ** 2) ** 0.25))

    def integrand(u):
        return np.sin(psi(u) - 0.5 * t * u) * inv_urho(u)

    # Accuracy is enforced through the returned error estimates below, so
    # QUADPACK's warnings about slow convergence are redundant here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)

        # [0, 1]: finite at 0 (limit (sum w - t)/2; QUADPACK never evaluates
        # the endpoint), at most ~|t|/12 oscillations.
        head_limit = 200 + int(abs(t))
        head, head_err = integrate.quad(
            integrand, 0.0, 1.0, epsabs=epsabs, epsrel=1e-10, limit=head_limit
        )

        omega = 0.5 * abs(t)
        if omega > _NEGLIGIBLE_OMEGA:
            start = max(1.0, 1.0 / omega)
            # [1, start], in s = log u: under 1/(2 pi) of an oscillation.
            mid, mid_err = integrate.quad(
                lambda s: integrand(np.exp(s)) * np.exp(s), 0.0, np.log(start),
                epsabs=epsabs, epsrel=1e-10, limit=500,
            )
            # sin(psi - tu/2) = sin(psi)cos(|t|u/2) - sign(t) cos(psi)sin(|t|u/2)
            cos_part, cos_err = integrate.quad(
                lambda u: np.sin(psi(u)) * inv_urho(u),
                start, np.inf, weight="cos", wvar=omega, epsabs=epsabs,
            )
            sin_part, sin_err = integrate.quad(
                lambda u: np.cos(psi(u)) * inv_urho(u),
                start, np.inf, weight="sin", wvar=omega, epsabs=epsabs,
            )
            tail = mid + cos_part - np.sign(t) * sin_part
            tail_err = mid_err + cos_err + sin_err
        else:
            # The phase stays under one radian up to u = 1e100, beyond which
            # the envelope is negligible, so the tail is non-oscillatory.
            tail, tail_err = integrate.quad(
                lambda u: np.sin(psi(u)) * inv_urho(u),
                1.0, np.inf, epsabs=epsabs, epsrel=1e-10, limit=500,
            )

    value = head + tail
    total_err = head_err + tail_err
    if not np.isfinite(value) or total_err > 1e-6:
        raise IntegrationFailure(
            f"Imhof integral did not converge (estimate {value!r}, error {total_err!r})"
        )
    prob = 0.5 + value / np.pi
    return float(min(1.0, max(0.0, prob)))
