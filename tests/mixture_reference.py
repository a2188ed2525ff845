"""Independent references for the mixture tails: the chi-square distribution
function, the tail of one +/- pair of chi-square weights by scipy's Bessel
functions, and the tail of two such pairs, the train/test mixture with two
new covariates. It imports nothing from ``mnri``, so that no reference
shares code with the program it checks."""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc, iti0k0, k0, k0e, roots_laguerre

# Gauss-Laguerre rule for int_0^inf e^-y f(y) dy on the pair's far tail. At
# a = 2, 20 nodes are 7e-11 (relative) off; 40 agree with 60 and with mpmath
# to rounding, and the integrand only gets smoother as a grows.
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = roots_laguerre(40)


def chisq_cdf(x, q: int):
    """Chi-square distribution function with ``q`` degrees of freedom, i.e.
    the regularized lower incomplete gamma P(q/2, x/2). Raises ValueError
    unless q is a positive integer and x is nonnegative, as
    ``numerics.chisq_sf`` does."""
    if q < 1 or int(q) != q:
        raise ValueError(f"degrees of freedom must be a positive integer, got {q}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square argument must be nonnegative")
    out = gammainc(q / 2.0, x / 2.0)
    return out if out.ndim else float(out)


def pair_tail(t, c):
    """P(c (X1 - X2) > t) for independent chi2_1 variables, c > 0.

    With a = |t| / 2c the tail is (1/pi) int_a^inf K0 (Craig 1936): for
    a < 2 it is 1/2 minus scipy's integral of K0 over [0, a], which loses up
    to about 1e-13 relative to cancellation near a = 2; further out
    e^-a / pi int_0^inf e^-y k0e(a + y) dy by the Gauss-Laguerre rule.
    """
    a = abs(t) / (2.0 * c)
    if a < 2.0:
        upper = 0.5 - float(iti0k0(a)[1]) / math.pi
    else:
        total = float(np.dot(_LAGUERRE_WEIGHTS, k0e(a + _LAGUERRE_NODES)))
        upper = math.exp(math.log(total / math.pi) - a) if total > 0.0 else 0.0
    return upper if t >= 0.0 else 1.0 - upper


def two_pair_tail(t, c1, c2):
    """P(c1 (X1 - X2) + c2 (X3 - X4) > t) for independent chi2_1 variables.

    The convolution int f1(x) P2(t - x) dx of the first pair's density
    f1(x) = K0(|x| / 2c1) / (2 pi c1) (Craig 1936) with the tail P2 of the
    second, ``pair_tail``, by scipy's quad. The pieces split at the density's
    log singularity x = 0 and at x = t, where the tail's derivative has one.
    ``epsabs=0`` makes the tolerance relative, so far tails keep their digits.
    """
    def integrand(x):
        return k0(abs(x) / (2.0 * c1)) / (2.0 * math.pi * c1) * pair_tail(t - x, c2)

    edges = [-np.inf, *sorted({0.0, float(t)}), np.inf]
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
