"""Reclassification statistics for a nested model comparison.

All statistics share one template: a weighted sum over subjects of
(indicator(score difference) - 1/2), normalized by n ybar (1 - ybar).
The classical NRI weights by the constant-model residual y - ybar; the
modified NRI (mNRI) weights by the base-model score residual, which makes
it a proper change score and, for the logit, asymptotically proportional
to the mean absolute difference between the nested event probabilities.
Smooth versions replace the indicator by the standard normal distribution
function so the statistic admits an asymptotic reference distribution.

Values are reported on the half-NRI scale throughout (the doubled
classical scale is a display concern only). One kernel gives them for one
comparison or for each row of a batch (``glm.as_batch``): stacked NestedFits,
as ``glm.fit_nested`` returns them for a stacked Dataset, or a TrainTestPair
of two, read on their arrays. A row gets the bits it gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import AllTies
from .glm import Dataset, NestedFits, _dots, _times, as_batch


@dataclass(frozen=True)
class HalfNRIs:
    """The four half-scale statistics of one comparison: the classical NRI
    (constant-model residuals) and the modified NRI (base-model score
    residuals), each with the hard indicator and with its smooth form."""

    nri_hard: float
    nri_smooth: float
    mnri_hard: float
    mnri_smooth: float


@dataclass(frozen=True)
class ReclassReport(HalfNRIs):
    """All reclassification statistics for one nested comparison."""

    mad: float
    scaled_mad: float
    sign_inner: float
    sign_norm: int
    ties: int

    @property
    def mad_cross_term(self) -> float:
        """Finite-sample gap mnri_hard - scaled_mad (o_p under the logit)."""
        return self.mnri_hard - self.scaled_mad


@dataclass(frozen=True)
class TrainTestPair:
    """Nested fits from independent training and test samples sharing one
    covariate specification; statistics are evaluated on the test data. In a
    batch, both sides are stacked fits of as many comparisons; the training
    samples' n may differ from the test samples'."""

    train_fits: NestedFits
    test_fits: NestedFits

    def __post_init__(self):
        if self.train_fits.link != self.test_fits.link:
            raise ValueError("train and test fits must share one link")
        if (
            self.train_fits.data.p != self.test_fits.data.p
            or self.train_fits.data.q != self.test_fits.data.q
        ):
            raise ValueError("train and test fits must share one covariate specification")
        if self.train_fits.data.y.shape[:-1] != self.test_fits.data.y.shape[:-1]:
            raise ValueError("train and test fits must hold as many comparisons")

    @property
    def data(self) -> Dataset:
        return self.test_fits.data


def extended_indicator(u):
    """Indicator of u > 0, extended to take the value 1/2 at exact ties."""
    out = np.heaviside(np.asarray(u, dtype=float), 0.5)
    return out if out.ndim else float(out)


def score_difference(fits: NestedFits) -> np.ndarray:
    """Risk-score change from base to expanded model, per subject."""
    return fits.expanded.linear_predictor - fits.base.linear_predictor


def _parts(comparisons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score change, base-model score residuals and outcomes of one
    comparison, or stacked (R, n) over a batch of them. A train/test pair
    takes the score change from the training coefficients on the test rows
    and everything else from the test fits."""
    batch, stacked = as_batch(comparisons)
    fits = batch.test_fits if isinstance(batch, TrainTestPair) else batch
    eta, y = fits.base.linear_predictor, fits.data.y
    if fits is batch:
        delta = fits.expanded.linear_predictor - eta
    else:
        coef, base = batch.train_fits.expanded.coefficients, batch.train_fits.base.coefficients
        x, z, p = fits.data.x, fits.data.z, fits.data.p
        delta = _times(x, coef[:, :p]) + _times(z, coef[:, p:]) - _times(x, base)
    parts = delta, fits.link.score_residual(eta, y), y
    return parts if stacked else tuple(part[0] for part in parts)


def _half_nris(delta, residuals, y) -> HalfNRIs:
    # The statistics kernel: [n ybar (1-ybar)]^-1 sum_i w_i (ind(delta_i) - 1/2)
    # with w the constant-model residuals y - ybar (NRI) or ``residuals`` (mNRI),
    # and ind the extended indicator (hard) or the normal distribution function
    # (smooth), each formed once, over the last axis. A Dataset holds both
    # classes, so 0 < ybar < 1.
    ybar = y.mean(axis=-1, keepdims=True)
    scale = y.shape[-1] * ybar[..., 0] * (1.0 - ybar[..., 0])
    hard = extended_indicator(delta) - 0.5
    smooth = numerics.norm_cdf(delta) - 0.5
    constant = y - ybar
    stats = [_dots(w, ind) / scale for w in (constant, residuals) for ind in (hard, smooth)]
    return HalfNRIs(*(s if np.ndim(s) else float(s) for s in stats))


def half_nris(comparison: NestedFits | TrainTestPair) -> HalfNRIs:
    """The four half-scale statistics of a nested comparison. For a
    train/test pair they take the score change from the training
    coefficients and are evaluated on, and normalized by, the test data.

    A batch (see ``glm.as_batch``) is one kernel pass over the stacked rows,
    each field holding a value per row."""
    return _half_nris(*_parts(comparison))


def mad_probabilities(fits: NestedFits) -> tuple[float, float]:
    """Mean absolute difference between nested fitted probabilities and its
    [2 ybar (1-ybar)]^-1 scaling (approximately the logit mNRI)."""
    ybar = fits.data.ybar
    mad = float(np.mean(np.abs(fits.expanded.fitted_probs - fits.base.fitted_probs)))
    return mad, mad / (2.0 * ybar * (1.0 - ybar))


def _sign_parts(delta: np.ndarray, residuals: np.ndarray) -> tuple[float, int]:
    s = np.sign(delta)
    return float(s @ residuals), int(np.count_nonzero(s))


def sign_decomposition(fits: NestedFits) -> tuple[float, int, float]:
    """Rewrite of the hard mNRI as a regression coefficient.

    Returns (s'r, s's, regression form) for the sign vector
    s_i = 2 ind(delta_i) - 1 (zero on exact ties) and the base-model
    residual vector r, where the regression form is
    [2 ybar (1-ybar)]^-1 (s'r)/(s's). With no ties s's = n and the
    regression form equals the hard mNRI exactly.
    """
    ybar = fits.data.ybar
    delta, residuals, _ = _parts(fits)
    sign_inner, sign_norm = _sign_parts(delta, residuals)
    if sign_norm == 0:
        raise AllTies("every score difference is exactly zero")
    regression_form = sign_inner / (2.0 * ybar * (1.0 - ybar) * sign_norm)
    return sign_inner, sign_norm, regression_form


def build_report(fits: NestedFits) -> ReclassReport:
    """Assemble every reclassification statistic for one nested comparison;
    ties are subjects whose expanded and base risk scores agree exactly."""
    mad, scaled_mad = mad_probabilities(fits)
    delta, residuals, y = _parts(fits)
    ties = int(np.count_nonzero(delta == 0.0))
    sign_inner, sign_norm = _sign_parts(delta, residuals)
    return ReclassReport(
        **vars(_half_nris(delta, residuals, y)),
        mad=mad,
        scaled_mad=scaled_mad,
        sign_inner=sign_inner,
        sign_norm=sign_norm,
        ties=ties,
    )
