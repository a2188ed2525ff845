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
disturbing neighboring replicates. Each replicate yields one record: the
mNRI and legacy NRI p-values, n * smooth mNRI / k-hat, n * smooth NRI and
its redraws. The size tables of ``run_cell`` threshold the p-values;
``_run_replicates`` returns the two scaled statistics beside them, for
null-distribution diagnostics.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import glm, inference, reclass
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


def _trial(config: SimConfig, cell: int, rep: int, attempt: int) -> tuple[float, ...]:
    """One attempt's record: the p-values of the mNRI test and the legacy
    NRI test, n * smooth mNRI / k-hat and n * smooth NRI."""
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
    n, k = fits.data.n, inference.k_constant(fits.data.ybar)
    return (
        test_mnri(fits, stats).p_value,
        inference.test_nri_normal_legacy(fits, stats).p_value,
        n * stats.mnri_smooth / k,
        n * stats.nri_smooth,
    )


def _replicate_rejections(args) -> tuple:
    """One replicate's record: ``_trial`` for attempt 0, 1, ... until its
    fits succeed, followed by the number of redraws used."""
    config, cell, rep = args
    for attempt in range(_MAX_ATTEMPTS):
        try:
            return (*_trial(config, cell, rep, attempt), attempt)
        except (FitError, DegenerateOutcome):
            continue
    raise ExcessiveFitFailures(
        f"replicate {rep} failed to fit {_MAX_ATTEMPTS} times in a row"
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_replicates(config: SimConfig, cell: int, workers: int):
    """Run the cell's replicates, in replicate order, and enforce the
    failure budget. Returns the record fields column by column, and the
    total redraws."""
    args_list = [(config, cell, rep) for rep in range(config.replicates)]
    # A pool starts all its processes up front; more than one per replicate
    # or per usable CPU would sit idle.
    workers = min(workers, len(args_list), _usable_cpus())
    if workers <= 1:
        results = [_replicate_rejections(args) for args in args_list]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(args_list) // (8 * workers))
            results = list(pool.map(_replicate_rejections, args_list, chunksize=chunk))
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
    (p_mnri, p_nri, _, _), redraws = _run_replicates(config, cell, workers)
    return SimTableRow(
        config=config,
        rejection_rate_mnri=float((p_mnri <= config.alpha).mean()),
        rejection_rate_nri_normal=float((p_nri <= config.alpha).mean()),
        redraws=redraws,
    )


def run_grid(configs: Iterable[SimConfig], *, workers: int = 1) -> list[SimTableRow]:
    """Run a list of cells; row i uses cell index i, so a singleton grid
    reproduces run_cell exactly."""
    configs = list(configs)
    if not configs:
        raise ValueError("grid must contain at least one cell")
    return [run_cell(config, cell=i, workers=workers) for i, config in enumerate(configs)]
