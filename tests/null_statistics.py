"""Per-replicate null statistics of a single-sample size study and the
diagnostic of the smooth NRI's null distribution, shared by the
acceptance suite and the sim and inference tests."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mnri import numerics, sim
from mnri.sim import SimConfig


@dataclass(frozen=True)
class NullStatistics:
    """Per-replicate null statistics from a single-sample run.

    ``mnri_scaled`` holds n * (smooth mNRI) / k-hat, directly comparable to
    a chi-square with q degrees of freedom; ``nri_scaled`` holds
    n * (smooth NRI), whose null distribution is non-normal.
    """

    mnri_scaled: np.ndarray
    nri_scaled: np.ndarray


def collect_null_statistics(config: SimConfig, *, workers: int = 1) -> NullStatistics:
    """Collect the raw per-replicate statistics used by the calibration and
    null-distribution diagnostics, from the replicate records ``run_cell``
    thresholds. The configuration should be a null scenario: gamma = 0
    holds for null_style='enforced' at any rho, or for either style at
    rho = 0."""
    if config.mode != "single":
        raise ValueError("null statistics are collected from single-sample runs")
    (_, _, mnri_scaled, nri_scaled), _ = sim._run_replicates(config, 0, workers)
    return NullStatistics(mnri_scaled=mnri_scaled, nri_scaled=nri_scaled)


@dataclass(frozen=True)
class NullDiagnostic:
    """Monte Carlo summary of the smooth NRI's null distribution.

    Confirms empirically that n R (the scaled smooth NRI) has a positive
    mean and a skewed, non-normal null distribution, which is why the
    legacy normal test over-rejects.
    """

    replicates: int
    mean: float
    variance: float
    skewness: float
    se_mean: float
    se_skewness: float
    moment_normality_stat: float
    moment_normality_pvalue: float


def null_distribution_diagnostic(draws: NullStatistics) -> NullDiagnostic:
    """Summarize the null distribution of n * smooth-NRI from the
    statistics of a null run (gamma = 0)."""
    values = draws.nri_scaled
    m = values.shape[0]
    mean = float(values.mean())
    centered = values - mean
    variance = float(np.mean(centered**2))
    sd = np.sqrt(variance)
    skewness = float(np.mean(centered**3) / sd**3)
    kurtosis = float(np.mean(centered**4) / sd**4)
    # Moment-based normality check (skewness/kurtosis chi-square, 2 df).
    jb = m / 6.0 * (skewness**2 + (kurtosis - 3.0) ** 2 / 4.0)
    return NullDiagnostic(
        replicates=m,
        mean=mean,
        variance=variance,
        skewness=skewness,
        se_mean=float(sd / np.sqrt(m)),
        se_skewness=float(np.sqrt(6.0 / m)),
        moment_normality_stat=float(jb),
        moment_normality_pvalue=float(numerics.chisq_sf(jb, 2)),
    )
