"""Monte Carlo engine for the Type-1-error studies.

Data come from a conditional binormal design: event status is Bernoulli,
and the covariate pair (X, Z) is drawn from class-conditional normals with
common unit variances. Two null styles are provided:

* ``literal`` - (X, Z) | Y bivariate normal with means (mu_x * y, 0) and
  correlation rho. With rho != 0 this leaves Z conditionally informative
  given X (the discriminant coefficient on Z is -rho mu_x / (1 - rho^2)),
  so the gamma = 0 null holds only at rho = 0.
* ``enforced`` - X | Y normal as above and Z = rho X + sqrt(1-rho^2) eps
  with eps independent of (X, Y), which makes Z independent of Y given X
  and hence guarantees gamma = 0 for any rho.

The two styles coincide draw-for-draw at rho = 0.

Every replicate owns a counter-based random stream keyed by
(seed, cell, replicate, attempt, part), so results are identical across
runs and across worker counts, and failed fits can be redrawn without
disturbing neighboring replicates.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np
from scipy.special import expit, logit

from . import glm, inference, numerics, reclass
from .errors import DegenerateOutcome, ExcessiveFitFailures, FitError
from .glm import LOGIT, Dataset, NestedFits
from .reclass import TrainTestPair

DEFAULT_SEED = 1729

_MAX_ATTEMPTS = 50
_FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell."""

    n: int
    pi0: float
    mu_x: float
    rho: float
    replicates: int
    mode: str = "single"  # or "train_test"
    null_style: str = "enforced"  # or "literal"
    seed: int = DEFAULT_SEED
    alpha: float = 0.05

    def __post_init__(self):
        if self.n < 50:
            raise ValueError("need n >= 50 per replicate")
        if not 0.0 < self.pi0 < 1.0:
            raise ValueError("pi0 must lie in (0, 1)")
        if not np.isfinite(self.mu_x):
            raise ValueError("mu_x must be finite")
        if not abs(self.rho) < 1.0:
            raise ValueError("|rho| must be below 1")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.mode not in ("single", "train_test"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.null_style not in ("literal", "enforced"):
            raise ValueError(f"unknown null_style {self.null_style!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SimTableRow:
    """Rejection rates for one cell, with binomial Monte Carlo standard
    errors and the count of redrawn (failed-fit) replicates."""

    config: SimConfig
    rejection_rate_mnri: float
    rejection_rate_nri_normal: float
    redraws: int

    def _mc_se(self, rate: float) -> float:
        return float(np.sqrt(rate * (1.0 - rate) / self.config.replicates))

    @property
    def mc_se_mnri(self) -> float:
        return self._mc_se(self.rejection_rate_mnri)

    @property
    def mc_se_nri(self) -> float:
        return self._mc_se(self.rejection_rate_nri_normal)


def replicate_stream(seed: int, cell: int, replicate: int, attempt: int = 0, part: int = 0):
    """Counter-based stream for one (cell, replicate, attempt, part) key."""
    key = np.random.SeedSequence([seed % 2**64, cell, replicate, attempt, part])
    return np.random.Generator(np.random.Philox(key))


def gen_replicate(config: SimConfig, stream: np.random.Generator) -> Dataset:
    """Draw one conditional-binormal dataset (p = 2 with intercept, q = 1)."""
    n = config.n
    y = (stream.random(n) < config.pi0).astype(float)
    e1 = stream.standard_normal(n)
    e2 = stream.standard_normal(n)
    x = config.mu_x * y + e1
    if config.null_style == "literal":
        z = config.rho * e1 + np.sqrt(1.0 - config.rho**2) * e2
    else:
        z = config.rho * x + np.sqrt(1.0 - config.rho**2) * e2
    return Dataset(y=y, x=np.column_stack([np.ones(n), x]), z=z[:, None])


def _fitted(config: SimConfig, cell: int, rep: int, attempt: int, part: int = 0) -> NestedFits:
    """Draw one dataset under its stream key and fit the nested models."""
    data = gen_replicate(config, replicate_stream(config.seed, cell, rep, attempt, part))
    return glm.fit_nested(data, LOGIT)


def _pvalues(config: SimConfig, cell: int, rep: int, attempt: int) -> tuple[float, float]:
    """P-values of the mNRI test and the legacy NRI test for one attempt."""
    if config.mode == "single":
        fits = _fitted(config, cell, rep, attempt)
        test_mnri = inference.test_mnri_single
    else:
        fits = TrainTestPair(
            train_fits=_fitted(config, cell, rep, attempt, part=0),
            test_fits=_fitted(config, cell, rep, attempt, part=1),
        )
        test_mnri = inference.test_mnri_train_test
    stats = reclass.half_nris(fits)
    return test_mnri(fits, stats).p_value, inference.test_nri_normal_legacy(fits, stats).p_value


def _null_statistics(config: SimConfig, cell: int, rep: int, attempt: int) -> tuple[float, float]:
    """n * smooth mNRI / k-hat and n * smooth NRI for one attempt."""
    fits = _fitted(config, cell, rep, attempt)
    stats = reclass.half_nris(fits)
    k = inference.k_constant(fits.data.ybar)
    return fits.data.n * stats.mnri_smooth / k, fits.data.n * stats.nri_smooth


def _replicated(trial, args) -> tuple:
    """``trial(config, cell, rep, attempt)`` for attempt 0, 1, ... until its
    fits succeed, followed by the number of redraws used."""
    config, cell, rep = args
    for attempt in range(_MAX_ATTEMPTS):
        try:
            return (*trial(config, cell, rep, attempt), attempt)
        except (FitError, DegenerateOutcome):
            continue
    raise ExcessiveFitFailures(
        f"replicate {rep} failed to fit {_MAX_ATTEMPTS} times in a row"
    )


def _replicate_rejections(args) -> tuple[bool, bool, int]:
    """Whether the mNRI and legacy NRI tests reject for one replicate, and
    the number of redraws used."""
    p_mnri, p_nri, redraws = _replicated(_pvalues, args)
    alpha = args[0].alpha
    return p_mnri <= alpha, p_nri <= alpha, redraws


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_replicates(worker, config: SimConfig, cell: int, workers: int):
    """Map ``worker`` over the cell's replicates, in replicate order, and
    enforce the failure budget. Each worker result ends with its redraw
    count; returns the other results column by column, and the redraws."""
    args_list = [(config, cell, rep) for rep in range(config.replicates)]
    # A pool starts all its processes up front; more than one per replicate
    # or per usable CPU would sit idle.
    workers = min(workers, len(args_list), _usable_cpus())
    if workers <= 1:
        results = [worker(args) for args in args_list]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(args_list) // (8 * workers))
            results = list(pool.map(worker, args_list, chunksize=chunk))
    *columns, redraws = (np.array(column) for column in zip(*results))
    redraws = int(redraws.sum())
    if redraws > _FAILURE_BUDGET * config.replicates:
        raise ExcessiveFitFailures(
            f"{redraws} failed fits over {config.replicates} replicates "
            f"exceeds the {_FAILURE_BUDGET:.0%} budget"
        )
    return columns, redraws


def run_cell(config: SimConfig, *, cell: int = 0, workers: int = 1) -> SimTableRow:
    """Estimate rejection rates for one cell at the configured alpha."""
    (reject_mnri, reject_nri), redraws = _run_replicates(
        _replicate_rejections, config, cell, workers
    )
    return SimTableRow(
        config=config,
        rejection_rate_mnri=float(reject_mnri.mean()),
        rejection_rate_nri_normal=float(reject_nri.mean()),
        redraws=redraws,
    )


def run_grid(configs: Iterable[SimConfig], *, workers: int = 1) -> list[SimTableRow]:
    """Run a list of cells; row i uses cell index i, so a singleton grid
    reproduces run_cell exactly."""
    configs = list(configs)
    if not configs:
        raise ValueError("grid must contain at least one cell")
    return [run_cell(config, cell=i, workers=workers) for i, config in enumerate(configs)]


@dataclass(frozen=True)
class NullStatistics:
    """Per-replicate null statistics from a single-sample run.

    ``mnri_scaled`` holds n * (smooth mNRI) / k-hat, directly comparable to
    a chi-square with q degrees of freedom; ``nri_scaled`` holds
    n * (smooth NRI), whose null distribution is non-normal.
    """

    config: SimConfig
    mnri_scaled: np.ndarray
    nri_scaled: np.ndarray
    redraws: int


def collect_null_statistics(config: SimConfig, *, workers: int = 1) -> NullStatistics:
    """Collect the raw per-replicate statistics used by the calibration and
    null-distribution diagnostics. The configuration should be a null
    scenario: gamma = 0 holds for null_style='enforced' at any rho, or for
    either style at rho = 0."""
    if config.mode != "single":
        raise ValueError("null statistics are collected from single-sample runs")
    (mnri_scaled, nri_scaled), redraws = _run_replicates(
        partial(_replicated, _null_statistics), config, 0, workers
    )
    return NullStatistics(
        config=config, mnri_scaled=mnri_scaled, nri_scaled=nri_scaled, redraws=redraws
    )


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


@dataclass(frozen=True)
class ProprietyCheck:
    """Paired Monte Carlo comparison of the single-draw mNRI scoring
    function at the true expanded parameters against perturbed ones."""

    mean_diffs: np.ndarray  # E[T1(true)] - E[T1(perturbed)], radius by radius
    se_diffs: np.ndarray


# The propriety check's generator and its perturbations (directions per radius).
_PROPRIETY_PI0 = 0.5
_PROPRIETY_MU_X = 0.3
_PROPRIETY_MU_Z = 1.0
_PROPRIETY_RADII = (0.25, 0.5)
_PROPRIETY_PER_RADIUS = 10


def propriety_mc_check(*, draws: int = 100_000, seed: int = DEFAULT_SEED) -> ProprietyCheck:
    """Check that the single-draw mNRI scoring function is maximized in
    expectation at the true expanded-model parameters.

    The generator is the rho = 0 conditional binormal with an informative
    Z (class-1 mean mu_z), for which both the expanded and base logistic
    models are exactly correct with closed-form coefficients:

        expanded: (logit(pi0) - (mu_x^2 + mu_z^2)/2, mu_x, mu_z)
        base:     (logit(pi0) - mu_x^2/2, mu_x)

    The expectation is exactly flat along one ray: moving theta0 by a
    multiple of (expanded minus padded base) rescales every score
    difference by a positive constant, leaving all indicators unchanged.
    Strict dominance therefore holds only transverse to that ray, so the
    random perturbation directions are drawn uniformly in its orthogonal
    complement. Each perturbed parameter vector theta0 + delta is compared
    with theta0 on the same draws, so the returned standard errors are for
    the paired mean differences.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed % 2**64, 97])))
    pi0, mu_x, mu_z = _PROPRIETY_PI0, _PROPRIETY_MU_X, _PROPRIETY_MU_Z
    y = (rng.random(draws) < pi0).astype(float)
    x = mu_x * y + rng.standard_normal(draws)
    z = mu_z * y + rng.standard_normal(draws)
    design = np.column_stack([np.ones(draws), x, z])

    theta0 = np.array([logit(pi0) - (mu_x**2 + mu_z**2) / 2.0, mu_x, mu_z])
    beta_base = np.array([logit(pi0) - mu_x**2 / 2.0, mu_x])
    eta_base = beta_base[0] + beta_base[1] * x
    residuals = y - expit(eta_base)
    scale = 1.0 / (pi0 * (1.0 - pi0))
    flat_ray = theta0 - np.array([beta_base[0], beta_base[1], 0.0])
    flat_ray /= np.linalg.norm(flat_ray)

    def t1_values(theta):
        delta = design @ theta - eta_base
        ind = np.where(delta > 0.0, 1.0, np.where(delta < 0.0, 0.0, 0.5))
        return scale * residuals * (ind - 0.5)

    t1_true = t1_values(theta0)
    means, ses = [], []
    for radius in _PROPRIETY_RADII:
        for _ in range(_PROPRIETY_PER_RADIUS):
            direction = rng.standard_normal(3)
            direction -= (direction @ flat_ray) * flat_ray
            direction /= np.linalg.norm(direction)
            diff = t1_true - t1_values(theta0 + radius * direction)
            means.append(float(diff.mean()))
            ses.append(float(diff.std(ddof=1) / np.sqrt(draws)))
    return ProprietyCheck(mean_diffs=np.array(means), se_diffs=np.array(ses))
