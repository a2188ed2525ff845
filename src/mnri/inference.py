"""Reference distributions and p-values for the reclassification tests.

Three references are implemented:

* scaled chi-square, for the single-sample smooth mNRI statistic
  ``n T`` compared with ``k chi2_q``, ``k = phi(0) / (pi (1-pi))``;
* a weighted chi-square mixture ``(k/2) sum lambda_j chi2_1j`` for the
  train/test statistic, with the 2q eigenvalue weights coming in +/-
  pairs from the two gamma-coefficient covariance estimates. For q = 1
  ``numerics.mixture_tail`` evaluates the single pair by the closed
  product-normal law; for q >= 2 by Rice's saddlepoint contour integral,
  both to full relative precision;
* the legacy normal reference for the hard NRI, retained for comparison
  even though its null distribution is in fact non-normal, asymmetric,
  and yields an inflated test.

Each TestResult stores a self-contained reference descriptor: recomputing
the p-value from the stored statistic and descriptor reproduces it exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import eigh

from . import numerics
from .errors import DegenerateOutcome
from .glm import NestedFits, information_blocks
from .numerics import MixtureSpec
from .reclass import HalfNRIs, TrainTestPair

_PHI0 = float(numerics.norm_pdf(0.0))


@dataclass(frozen=True)
class ScaledChisqRef:
    """Upper tail of k * chi-square with q degrees of freedom."""

    k: float
    q: int

    def p_value(self, statistic: float) -> float:
        return numerics.chisq_sf(max(float(statistic), 0.0) / self.k, self.q)

    def to_dict(self) -> dict:
        return {"kind": "scaled_chisq", "k": self.k, "q": self.q}


@dataclass(frozen=True)
class ChisqMixtureRef(MixtureSpec):
    """Upper tail of scale * sum_j weights[j] * chi2_1j, validated as a MixtureSpec."""

    def p_value(self, statistic: float) -> float:
        return numerics.mixture_tail(float(statistic), self)

    def to_dict(self) -> dict:
        return {"kind": "chisq_mixture", "scale": self.scale, "weights": list(self.weights)}


@dataclass(frozen=True)
class NormalRef:
    """Two-sided normal reference with the given variance."""

    variance: float

    def p_value(self, statistic: float) -> float:
        z = abs(float(statistic)) / np.sqrt(self.variance)
        return 2.0 * numerics.norm_cdf(-z)

    def to_dict(self) -> dict:
        return {"kind": "normal", "variance": self.variance}


Reference = Union[ScaledChisqRef, ChisqMixtureRef, NormalRef]


def reference_from_dict(d: dict) -> Reference:
    kind = d["kind"]
    if kind == "scaled_chisq":
        return ScaledChisqRef(k=d["k"], q=int(d["q"]))
    if kind == "chisq_mixture":
        return ChisqMixtureRef(scale=d["scale"], weights=d["weights"])
    if kind == "normal":
        return NormalRef(variance=d["variance"])
    raise ValueError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    reference: Reference
    p_value: float
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "reference": self.reference.to_dict(),
            "p_value": self.p_value,
            "notes": self.notes,
        }


def k_constant(pi_hat: float) -> float:
    """Scaling constant phi(0) / (pi (1 - pi)) of the chi-square reference."""
    if not 0.0 < pi_hat < 1.0:
        raise DegenerateOutcome(f"event rate {pi_hat} is degenerate")
    return _PHI0 / (pi_hat * (1.0 - pi_hat))


def _result(statistic: float, reference: Reference, notes: str = "") -> TestResult:
    return TestResult(
        statistic=statistic,
        reference=reference,
        p_value=reference.p_value(statistic),
        notes=notes,
    )


def test_mnri_single(fits: NestedFits, stats: HalfNRIs) -> TestResult:
    """One-sided test of the smooth mNRI against its scaled chi-square
    null reference; only large positive statistics are meaningful.
    ``stats`` is ``reclass.half_nris(fits)`` or ``reclass.build_report(fits)``."""
    statistic = fits.data.n * stats.mnri_smooth
    reference = ScaledChisqRef(k=k_constant(fits.data.ybar), q=fits.data.q)
    return _result(statistic, reference)


def mixture_weights(var_gamma_train, var_gamma_test) -> np.ndarray:
    """Mixture weights for the train/test reference distribution.

    These are the eigenvalues of V C for V = blockdiag(var_test, var_train)
    and C the off-diagonal coupling by D = var_test^-1; they come in +/-
    pairs +/- sqrt(mu_j) where mu_j solves the symmetric generalized
    eigenproblem var_train v = mu var_test v. Returned interleaved
    (+w1, -w1, +w2, -w2, ...) by descending magnitude.

    The matrices may come from outside the program, so they are checked
    here: ValueError unless both are square with equal shape, finite, and
    symmetric to within ``1e-8 * (1 + max|entry|)``; NotPositiveDefinite
    unless both pass the pivot rule of ``numerics.cholesky_spd``.
    """
    a = np.atleast_2d(np.asarray(var_gamma_train, dtype=float))
    b = np.atleast_2d(np.asarray(var_gamma_test, dtype=float))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("variance matrices must be square with equal shape")
    for m in (a, b):
        # Finite first, so that the difference below meets no inf - inf.
        if not np.isfinite(m).all():
            raise ValueError("variance matrices must be finite")
        if not (abs(m - m.T) <= 1e-8 * (1.0 + abs(m).max())).all():
            raise ValueError("variance matrices must be symmetric")
        numerics.cholesky_spd(m)

    if (a == b).all():
        # Identity ratio: the +/-1 pairs are exact, not just within rounding.
        roots = np.ones(a.shape[0])
    elif a.shape[0] == 1:
        roots = np.sqrt(a[0] / b[0])
    else:
        roots = np.sqrt(eigh(a, b, eigvals_only=True))
    weights = np.empty(2 * roots.shape[0])
    weights[0::2] = np.sort(roots)[::-1]
    weights[1::2] = -weights[0::2]
    return weights


def test_mnri_train_test(pair: TrainTestPair, stats: HalfNRIs) -> TestResult:
    """One-sided test of the train/test smooth mNRI against its weighted
    chi-square mixture reference; ``stats`` is ``reclass.half_nris(pair)``."""
    data = pair.data
    statistic = data.n * stats.mnri_smooth
    weights = mixture_weights(information_blocks(pair.train_fits),
                              information_blocks(pair.test_fits))
    k = k_constant(data.ybar)
    reference = ChisqMixtureRef(scale=k / 2.0, weights=weights)
    return _result(statistic, reference)


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
    return _result(stats.nri_hard, NormalRef(variance=variance), notes=_LEGACY_NOTE)
