"""Independent references for the mixture tails: the chi-square distribution
function, and the tail of two +/- pairs of chi-square weights, the
train/test mixture with two new covariates."""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc, k0

from mnri.numerics import _chisq_args, _pair_tail


def chisq_cdf(x, q: int):
    """Chi-square distribution function with ``q`` degrees of freedom, i.e.
    the regularized lower incomplete gamma P(q/2, x/2); it takes the
    arguments ``numerics.chisq_sf`` takes."""
    out = gammainc(*_chisq_args(x, q))
    return out if out.ndim else float(out)


def two_pair_tail(t, c1, c2):
    """P(c1 (X1 - X2) + c2 (X3 - X4) > t) for independent chi2_1 variables.

    The convolution int f1(x) P2(t - x) dx of the first pair's density
    f1(x) = K0(|x| / 2c1) / (2 pi c1) (Craig 1936) with the closed tail P2 of
    the second, by scipy's quad. The pieces split at the density's log
    singularity x = 0 and at x = t, where the tail's derivative has one.
    ``epsabs=0`` makes the tolerance relative, so far tails keep their digits.
    """
    def integrand(x):
        return k0(abs(x) / (2.0 * c1)) / (2.0 * math.pi * c1) * _pair_tail(t - x, c2)

    edges = [-np.inf, *sorted({0.0, float(t)}), np.inf]
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
