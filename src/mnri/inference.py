"""Reference distributions and p-values for the reclassification tests.

Three references are implemented:

* scaled chi-square, for the single-sample smooth mNRI statistic
  ``n T`` compared with ``k chi2_q``, ``k = phi(0) / (pi (1-pi))``;
* a weighted chi-square mixture ``(k/2) sum lambda_j chi2_1j`` for the
  train/test statistic, with the 2q eigenvalue weights coming in +/-
  pairs from the two samples' gamma-coefficient information, times
  sqrt(n_test / n_train) when the samples differ in size; for q = 1
  ``numerics.mixture_tail(t, weights, k/2)`` sums the pair's tail (1/pi)
  int_a^inf K0, a = |t| / 2c, by the trapezoid rule, within about 1e-15
  (1 + a) relative; for q >= 2, Rice's saddlepoint integral by one such sum;
* the legacy normal reference for the hard NRI, retained for comparison
  even though its null distribution is in fact non-normal, asymmetric,
  and yields an inflated test.

Each TestResult carries its reference as the plain dict the ``compare``
report writes; ``TestResult`` gives the recipe that turns that dict and
the statistic back into the p-value, exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import numerics
from .errors import DegenerateOutcome, NotPositiveDefinite, RankDeficient
from .glm import NestedFits, information_blocks
from .reclass import HalfNRIs, TrainTestPair

_PHI0 = float(numerics.norm_pdf(0.0))


@dataclass(frozen=True)
class TestResult:
    """A test's statistic t, its reference and its p-value.

    ``reference`` is the plain dict the ``compare`` report writes. Its kind
    names the recipe that gives ``p_value`` from it, one ``numerics`` call
    on the dict's fields:

    * ``{"kind": "scaled_chisq", "k", "q"}``: ``chisq_sf(max(t, 0) / k, q)``;
    * ``{"kind": "chisq_mixture", "scale", "weights"}``:
      ``mixture_tail(t, weights, scale)``, which checks the weights and scale;
    * ``{"kind": "normal", "variance"}``: ``2 norm_cdf(-|t| / sqrt(variance))``.
    """

    statistic: float
    reference: dict
    p_value: float
    notes: str = ""


def k_constant(pi_hat: float) -> float:
    """Scaling constant phi(0) / (pi (1 - pi)) of the chi-square reference."""
    if not 0.0 < pi_hat < 1.0:
        raise DegenerateOutcome(f"event rate {pi_hat} is degenerate")
    return _PHI0 / (pi_hat * (1.0 - pi_hat))


def test_mnri_single(fits: NestedFits, stats: HalfNRIs) -> TestResult:
    """One-sided test of the smooth mNRI against its scaled chi-square
    null reference; only large positive statistics are meaningful.
    ``stats`` is ``reclass.half_nris(fits)`` or ``reclass.build_report(fits)``."""
    statistic = fits.data.n * stats.mnri_smooth
    k, q = k_constant(fits.data.ybar), fits.data.q
    p_value = numerics.chisq_sf(max(statistic, 0.0) / k, q)
    return TestResult(statistic, {"kind": "scaled_chisq", "k": k, "q": q}, p_value)


def _unit_max(m):
    """m times 4^-k, exactly, for the k that puts max|entry| in [1/4, 1); and 2k."""
    e = 2 * (np.frexp(abs(m).max())[1] // 2)
    return np.ldexp(m, -e), e


def mixture_weights(var_gamma_train, var_gamma_test) -> np.ndarray:
    """Mixture weights for the train/test reference distribution.

    These are the eigenvalues of V C for V = blockdiag(var_test, var_train)
    and C the off-diagonal coupling by D = var_test^-1; they come in +/-
    pairs +/- sqrt(mu_j) where mu_j solves the symmetric generalized
    eigenproblem var_train v = mu var_test v. Returned interleaved
    (+w1, -w1, +w2, -w2, ...) by descending magnitude. The pencil of the
    inverses has the same mu, so the arguments may equally be the two
    information matrices in the opposite order, (info_test, info_train).

    The matrices may come from outside the program, so they are checked
    here: ValueError unless both are square with equal shape, finite, and
    symmetric to within ``1e-8 * (1 + max|entry|)``; NotPositiveDefinite
    unless both pass the pivot rule of ``numerics.cholesky_spd`` once scaled
    to D M D, for the power-of-two diagonal D that brings the second
    matrix's diagonal near 1. That congruence leaves the mu_j exactly as
    they are, and the rule, relative to the largest diagonal entry, then
    holds for blocks in any units; ValueError when a weight sqrt(mu_j)
    overflows a double.
    """
    a = np.atleast_2d(np.asarray(var_gamma_train, dtype=float))
    b = np.atleast_2d(np.asarray(var_gamma_test, dtype=float))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("variance matrices must be square with equal shape")
    for m in (a, b):
        # Finite first, so that the difference below meets no inf - inf;
        # halved, so that it cannot overflow, with the tolerance halved too.
        if not np.isfinite(m).all():
            raise ValueError("variance matrices must be finite")
        if not (abs(0.5 * m - 0.5 * m.T) <= 0.5e-8 * (1.0 + abs(m).max())).all():
            raise ValueError("variance matrices must be symmetric")
    identical = (a == b).all()

    # Every scaling is by powers of two, so exact. Each matrix is brought to
    # a largest entry near 1, which keeps the ratios mu_j from under- or
    # overflowing, before and after the congruence by D; the roots take back
    # the square root of the net factor, exactly too.
    (a, e_a), (b, e_b) = _unit_max(a), _unit_max(b)
    d = np.ldexp(1.0, -(np.frexp(b.diagonal())[1] // 2))
    (a, f_a), (b, f_b) = _unit_max(a * d * d[:, None]), _unit_max(b * d * d[:, None])
    for m in (a, b):
        numerics.cholesky_spd(m)

    if identical:
        # Identity ratio: the +/-1 pairs are exact, not just within rounding.
        roots = np.ones(a.shape[0])
    else:
        mu = a[0] / b[0] if a.shape[0] == 1 else eigh(a, b, eigvals_only=True)
        with np.errstate(over="ignore"):
            roots = np.ldexp(np.sqrt(mu), (e_a + f_a - e_b - f_b) // 2)
        if not np.isfinite(roots).all():
            raise ValueError("mixture weight overflows a double")
    weights = np.empty(2 * roots.shape[0])
    weights[0::2] = np.sort(roots)[::-1]
    weights[1::2] = -weights[0::2]
    return weights


def test_mnri_train_test(pair: TrainTestPair, stats: HalfNRIs) -> TestResult:
    """One-sided test of the train/test smooth mNRI against its weighted
    chi-square mixture reference; ``stats`` is ``reclass.half_nris(pair)``.

    The weights are those of the per-observation information blocks times
    sqrt(n_test / n_train): the statistic, n_test times the smooth mNRI,
    behaves as n_test g_train' Gamma_test^-1 g_test, and the spread of the
    training estimate g_train is set by n_train. At equal sizes the factor
    is exactly 1. Blocks singular in the training sample's scale raise
    RankDeficient in the expanded model."""
    data = pair.data
    statistic = data.n * stats.mnri_smooth
    # Gamma_tr v = mu Gamma_te v <=> S_te u = mu S_tr u, with u = Gamma_te v.
    blocks = information_blocks(pair.test_fits), information_blocks(pair.train_fits)
    try:
        weights = mixture_weights(*blocks)
    except NotPositiveDefinite as exc:
        raise RankDeficient("expanded model: singular information on the new columns "
                            f"in the training sample's scale: {exc}", "expanded") from exc
    weights *= math.sqrt(data.n / pair.train_fits.data.n)
    scale = k_constant(data.ybar) / 2.0
    reference = {"kind": "chisq_mixture", "scale": scale, "weights": weights.tolist()}
    return TestResult(statistic, reference, numerics.mixture_tail(statistic, weights, scale))


_LEGACY_NOTE = (
    "invalid reference: the null distribution of this statistic is "
    "non-normal and asymmetric, inflating the test; shown for comparison only"
)


def test_nri_normal_legacy(
    fits_or_pair: NestedFits | TrainTestPair, stats: HalfNRIs
) -> TestResult:
    """Two-sided normal test of the hard NRI with the classical variance
    (4 n1)^-1 + (4 n0)^-1 on the half-NRI scale. The reference is known to
    be wrong; the result is labeled accordingly. ``stats`` is the object
    the mNRI test of the same comparison takes."""
    data = fits_or_pair.data
    n1 = int(np.count_nonzero(data.y == 1.0))
    n0 = int(np.count_nonzero(data.y == 0.0))  # a Dataset holds both classes
    variance = 1.0 / (4.0 * n1) + 1.0 / (4.0 * n0)
    p_value = 2.0 * numerics.norm_cdf(-abs(stats.nri_hard) / np.sqrt(variance))
    reference = {"kind": "normal", "variance": variance}
    return TestResult(stats.nri_hard, reference, p_value, _LEGACY_NOTE)
