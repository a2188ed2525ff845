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
the statistic back into the p-value, exactly. Each test also takes a batch
(see ``glm.as_batch``): stacked fits or pairs, read on their arrays. Only
the mixture tail and the results are made row by row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import numerics
from .errors import DegenerateOutcome, RankDeficient
from .glm import NestedFits, _blocks, _caused, as_batch, unbatched
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


def k_constant(pi_hat):
    """Scaling constant phi(0) / (pi (1 - pi)) of the chi-square reference, per rate."""
    if not np.all((0.0 < pi_hat) & (pi_hat < 1.0)):
        raise DegenerateOutcome(f"event rate {pi_hat} is degenerate")
    return _PHI0 / (pi_hat * (1.0 - pi_hat))


def test_mnri_single(fits: NestedFits, stats: HalfNRIs) -> TestResult:
    """One-sided test of the smooth mNRI against its scaled chi-square
    null reference; only large positive statistics are meaningful.
    ``stats`` is ``reclass.half_nris(fits)`` or ``reclass.build_report(fits)``;
    for a batch (see ``glm.as_batch``), its ``half_nris``."""
    fits, batch, failed = as_batch(fits)
    statistic = fits.data.n * np.atleast_1d(stats.mnri_smooth)
    k, q = k_constant(fits.data.ybar), fits.data.q
    p_values = numerics.chisq_sf(np.maximum(statistic, 0.0) / k, q)
    results = [TestResult(float(t), {"kind": "scaled_chisq", "k": float(kr), "q": q}, float(pr))
               for t, kr, pr in zip(statistic, k, p_values)]
    return unbatched(results, failed, batch)


def _unit_max(m):
    """Each matrix m times 4^-k, exactly, for the k putting max|m| in [1/4, 1); and 2k."""
    e = 2 * (np.frexp(abs(m).max(axis=(1, 2)))[1] // 2)
    return np.ldexp(m, -e[:, None, None]), e


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
    unless both pass the pivot rule of ``numerics.cholesky_spd_rows`` once
    scaled to D M D, for the power-of-two diagonal D that brings the second
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
    weights, failures = _weights(a[None], b[None])
    if failures:
        raise failures[0]
    return weights[0]


def _weights(a, b) -> tuple[np.ndarray, dict]:
    """``mixture_weights`` of each row of two stacks (R, q, q) the program built,
    unchecked, and ``{r: NotPositiveDefinite}`` for the rows failing the pivot rule."""
    identical = (a == b).all(axis=(1, 2))

    # Every scaling is by powers of two, so exact. Each matrix is brought to
    # a largest entry near 1, which keeps the ratios mu_j from under- or
    # overflowing, before and after the congruence by D; the roots take back
    # the square root of the net factor, exactly too.
    (a, e_a), (b, e_b) = _unit_max(a), _unit_max(b)
    d = np.ldexp(1.0, -(np.frexp(b.diagonal(axis1=1, axis2=2))[1] // 2))
    (a, f_a), (b, f_b) = (_unit_max(m * d[:, None, :] * d[:, :, None]) for m in (a, b))
    failures = {**numerics.cholesky_spd_rows(b)[1], **numerics.cholesky_spd_rows(a)[1]}

    # Identity ratio: the +/-1 pairs are exact, not just within rounding.
    roots = np.ones(a.shape[:2])
    rows = [r for r in np.flatnonzero(~identical) if r not in failures]
    if rows:
        mu = (a[rows, 0] / b[rows, 0] if a.shape[1] == 1
              else np.array([eigh(a[r], b[r], eigvals_only=True) for r in rows]))
        with np.errstate(over="ignore"):
            roots[rows] = np.ldexp(np.sqrt(mu), ((e_a + f_a - e_b - f_b) // 2)[rows, None])
        if not np.isfinite(roots).all():
            raise ValueError("mixture weight overflows a double")
    weights = np.empty((a.shape[0], 2 * a.shape[1]))
    weights[:, 0::2] = np.sort(roots, axis=1)[:, ::-1]
    weights[:, 1::2] = -weights[:, 0::2]
    return weights, failures


def test_mnri_train_test(pair: TrainTestPair, stats: HalfNRIs) -> TestResult:
    """One-sided test of the train/test smooth mNRI against its weighted
    chi-square mixture reference; ``stats`` is ``reclass.half_nris(pair)``.

    The weights are those of the per-observation information blocks times
    sqrt(n_test / n_train): the statistic, n_test times the smooth mNRI,
    behaves as n_test g_train' Gamma_test^-1 g_test, and the spread of the
    training estimate g_train is set by n_train. At equal sizes the factor
    is exactly 1. Blocks singular in the training sample's scale raise
    RankDeficient in the expanded model. ``pair`` may be a batch (see
    ``glm.as_batch``), whose training samples share one n."""
    pairs, batch, failed = as_batch(pair)
    test, train = pairs.test_fits, pairs.train_fits
    n = test.data.n
    statistic = n * np.atleast_1d(stats.mnri_smooth)
    (test_blocks, test_errors), (train_blocks, train_errors) = _blocks(test), _blocks(train)
    errors = {**train_errors, **test_errors, **failed}
    results = [None] * len(statistic)
    rows = [r for r in range(len(statistic)) if r not in errors]
    if rows:
        # Gamma_tr v = mu Gamma_te v <=> S_te u = mu S_tr u, with u = Gamma_te v.
        weights, singular = _weights(test_blocks[rows], train_blocks[rows])
        weights *= np.sqrt(n / train.data.n)
        scale = k_constant(test.data.ybar[rows]) / 2.0
        for i, r in enumerate(rows):
            if i in singular:
                errors[r] = _caused(RankDeficient(
                    "expanded model: singular information on the new columns in the training "
                    f"sample's scale: {singular[i]}", "expanded"), singular[i])
            else:
                reference = {"kind": "chisq_mixture", "scale": float(scale[i]),
                             "weights": weights[i].tolist()}
                p_value = numerics.mixture_tail(statistic[r], weights[i], scale[i], check=False)
                results[r] = TestResult(float(statistic[r]), reference, p_value)
    return unbatched(results, errors, batch)


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
    the mNRI test of the same comparison takes, for a batch as for that test."""
    comparisons, batch, failed = as_batch(fits_or_pair)
    # A Dataset's outcomes are 0/1 and hold both classes.
    n1 = np.count_nonzero(comparisons.data.y, axis=-1)
    n0 = comparisons.data.n - n1
    variance = 1.0 / (4.0 * n1) + 1.0 / (4.0 * n0)
    p_values = 2.0 * numerics.norm_cdf(-abs(stats.nri_hard) / np.sqrt(variance))
    results = [TestResult(float(t), {"kind": "normal", "variance": float(v)}, float(p),
                          _LEGACY_NOTE)
               for t, v, p in zip(np.atleast_1d(stats.nri_hard), variance, p_values)]
    return unbatched(results, failed, batch)
