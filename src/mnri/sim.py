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

A grid runs its replicates in chunks: runs of (cell, replicate) keys taken
in grid order, across neighbouring cells that share n and mode, of at most
``_CHUNK_OBSERVATIONS`` observations (keys x n, twice in train/test mode),
so memory does not grow with the replicate count. A chunk is arrays end to
end. It draws the first attempt of every part of its keys (the training and
test samples in train/test mode) into preallocated stacked rows, part by
part, flagging rows whose outcome is constant; ``glm.fit_nested`` fits the
other rows as one stacked Dataset and returns stacked fits with a {row:
FitError} map; and the keys whose parts all fitted are tested in one pass
of the kernels ``compare`` uses, on views of those fits. A key whose first
attempt failed is redrawn under attempts 1, 2, ... as a chunk of one. A row
gets the bits it gets alone, so the records do not depend on the chunks, on
the neighbouring cells or on the worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Iterable

import numpy as np

from . import glm, inference, reclass
from .errors import ExcessiveFitFailures, FitError
from .glm import LOGIT, Dataset
from .reclass import TrainTestPair

DEFAULT_SEED = 1729

_MAX_ATTEMPTS = 50
_FAILURE_BUDGET = 0.01
# Observations per batch of fits, counting both parts of a train/test
# replicate (keys x n x parts), so that memory does not grow with the
# replicate count. On a 2-CPU host, with batches that each held one
# single-mode cell's replicates, one-worker runs of a 1600 x 200, a 600 x
# 500 and a 200 x 2000 cell gave the same replicates/s at caps of 2^13 to
# 2^16 within their spread, while the process's peak RSS grew by about 250
# bytes per observation of the cap (67 MiB at 2^14, 79 MiB at 2^16). At
# 2^12 the n = 2000 cell, fitted two replicates at a time, ran slower.
_CHUNK_OBSERVATIONS = 1 << 14


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


def _draw(configs: list, streams: list, n: int):
    """One conditional-binormal dataset of n observations per (config, stream),
    drawn into stacked rows: y (R, n), x (R, n, 2) and z (R, n, 1); and which
    rows' outcome is constant. A row takes its stream's draws in a lone draw's
    order, with its config's coefficients as the Python scalars a lone draw
    uses (a scalar ** 2 goes through pow), formed once per config object, so
    it has the bits it has alone."""
    u, e1, e2 = np.empty((3, len(configs), n))
    for r, stream in enumerate(streams):
        stream.random(out=u[r])
        stream.standard_normal(out=e1[r])
        stream.standard_normal(out=e2[r])
    distinct = {}  # each config object once, with its place in the table
    rows = [distinct.setdefault(id(c), (len(distinct), c))[0] for c in configs]
    table = np.array([(c.pi0, c.mu_x, c.rho, np.sqrt(1.0 - c.rho**2), c.null_style == "literal")
                      for _, c in distinct.values()])
    pi0, mu_x, rho, root, literal = table[rows].T[:, :, None]
    y = (u < pi0).astype(float)
    x = np.stack([np.ones_like(y), mu_x * y + e1], axis=-1)
    z = rho * np.where(literal, e1, x[..., 1]) + root * e2
    return y, x, z[..., None], y.min(axis=1) == y.max(axis=1)


def gen_replicate(config: SimConfig, stream: np.random.Generator) -> Dataset:
    """Draw one conditional-binormal dataset (p = 2 with intercept, q = 1):
    the stacked draw of one row."""
    y, x, z, _ = _draw([config], [stream], config.n)
    return Dataset(y=y[0], x=x[0], z=z[0])


def _records(config: SimConfig, batch) -> list:
    """The record of each comparison of a batch, stacked NestedFits or a
    TrainTestPair of them, of config's n and mode, tested in one stacked
    pass: the mNRI and legacy NRI p-values, n * smooth mNRI / k-hat and
    n * smooth NRI; None where the mNRI test failed."""
    single = config.mode == "single"
    test_mnri = inference.test_mnri_single if single else inference.test_mnri_train_test
    stats = reclass.half_nris(batch)
    k = inference.k_constant(batch.data.ybar)
    columns = zip(test_mnri(batch, stats), inference.test_nri_normal_legacy(batch, stats),
                  config.n * stats.mnri_smooth / k, config.n * stats.nri_smooth)
    return [None if isinstance(mnri, FitError) else (mnri.p_value, legacy.p_value, *scaled)
            for mnri, legacy, *scaled in columns]


def _attempt_records(keys, attempt: int) -> list:
    """One attempt's record of each (config, cell, replicate) key, the keys
    all of one n and mode, or None where a part did not fit or the mNRI test
    failed: the chunk's draw, fit and tests (see the module docstring)."""
    parts, count = (1 if keys[0][0].mode == "single" else 2), len(keys)
    streams = [replicate_stream(config.seed, cell, rep, attempt, part)
               for part in range(parts) for config, cell, rep in keys]
    y, x, z, failed = _draw([config for config, _, _ in keys] * parts, streams, keys[0][0].n)
    drawn = np.flatnonzero(~failed)
    if drawn.size:
        fits = glm.fit_nested(Dataset(*glm._kept(drawn, y, x, z)), LOGIT)
        failed[drawn[list(fits.errors)]] = True
    tested = np.flatnonzero(~failed.reshape(parts, count).any(axis=0))
    records = [None] * count
    if tested.size:
        batch = [glm._taken(fits, np.searchsorted(drawn, part * count + tested))
                 for part in range(parts)]
        for key, record in zip(tested, _records(keys[0][0], TrainTestPair(*batch)
                                                if parts == 2 else batch[0])):
            records[key] = record
    return records


def _replicate_rejections(args) -> tuple:
    """One replicate's record: the one its chunk's batch made from attempt
    0, or else that of attempt 1, 2, ..., each drawn, fitted and tested
    alone, until one succeeds; followed by the number of redraws used."""
    config, cell, rep, record = args
    attempt = 0
    while record is None:
        attempt += 1
        if attempt == _MAX_ATTEMPTS:
            raise ExcessiveFitFailures(
                f"replicate {rep} failed to fit {_MAX_ATTEMPTS} times in a row")
        (record,) = _attempt_records([(config, cell, rep)], attempt)
    return (*record, attempt)


def _chunk_records(keys) -> list:
    """The records of a run of (config, cell, replicate) keys of one n and
    mode, in order: their attempt 0 fitted and tested as one batch, then
    ``_replicate_rejections`` per key. A replicate's ExcessiveFitFailures is
    returned in its place, and in that of its cell's later keys, so that the
    cells before it keep their records and the grid raises its errors in
    (cell, replicate) order."""
    failed = {}
    records = []
    for key, record in zip(keys, _attempt_records(keys, 0)):
        cell = key[1]
        if cell not in failed:
            try:
                record = _replicate_rejections((*key, record))
            except ExcessiveFitFailures as exc:
                failed[cell] = exc
        records.append(failed.get(cell, record))
    return records


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunks(cells: list[tuple[int, SimConfig]], workers: int) -> list[list[tuple]]:
    """The grid's (config, cell, replicate) keys in grid order, split into
    chunks. Each run of neighbouring cells that share n and mode splits
    evenly into the fewest chunks under ``_CHUNK_OBSERVATIONS`` whose count is
    a multiple of ``workers``, or into one key each when it has fewer keys."""
    chunks = []
    for (n, mode), run in groupby(cells, key=lambda cell: (cell[1].n, cell[1].mode)):
        keys = [(config, cell, rep) for cell, config in run for rep in range(config.replicates)]
        size = max(1, _CHUNK_OBSERVATIONS // (n * (1 if mode == "single" else 2)))
        count = min(len(keys), -(-len(keys) // (size * workers)) * workers)
        chunks += [keys[i * len(keys) // count:(i + 1) * len(keys) // count]
                   for i in range(count)]
    return chunks


@contextmanager
def _cell_records(cells: list[tuple[int, SimConfig]], workers: int):
    """One iterator per cell (index, config) over its records, to be read in
    cell order; each takes the cell's replicate count of records from one
    stream of the grid's chunks (``_chunks``). The chunks go to one pool (or
    run here for one worker), and leaving early drops those not started."""
    # A pool starts all its processes up front; more than one per chunk or
    # per usable CPU would sit idle.
    workers = min(workers, _usable_cpus())
    chunks = _chunks(cells, workers)
    workers = min(workers, len(chunks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_chunk_records, chunks)
        stream = (record for records in results for record in records)
        try:
            yield [islice(stream, config.replicates) for _, config in cells]
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)


def _run_replicates(config: SimConfig, cell: int, workers: int, records=None):
    """The cell's record fields column by column, in replicate order, and
    its redraws, under the failure budget; from ``records`` when given."""
    if records is None:
        with _cell_records([(cell, config)], workers) as (records,):
            return _run_replicates(config, cell, workers, records)
    records = list(records)
    for record in records:
        if isinstance(record, ExcessiveFitFailures):
            raise record
    *columns, redraws = (np.array(column) for column in zip(*records))
    redraws = int(redraws.sum())
    if redraws > _FAILURE_BUDGET * config.replicates:
        raise ExcessiveFitFailures(
            f"{redraws} failed fits over {config.replicates} replicates "
            f"exceeds the {_FAILURE_BUDGET:.0%} budget"
        )
    return columns, redraws


def run_cell(config: SimConfig, *, cell: int = 0, workers: int = 1,
             records: Iterable[tuple] | None = None) -> SimTableRow:
    """Estimate rejection rates for one cell at the configured alpha; from
    ``records`` when ``run_grid`` made them on the pool its cells share."""
    (p_mnri, p_nri, _, _), redraws = _run_replicates(config, cell, workers, records)
    return SimTableRow(
        config=config,
        rejection_rate_mnri=float((p_mnri <= config.alpha).mean()),
        rejection_rate_nri_normal=float((p_nri <= config.alpha).mean()),
        redraws=redraws,
    )


def run_grid(configs: Iterable[SimConfig], *, workers: int = 1) -> list[SimTableRow]:
    """Run a list of cells; row i uses cell index i, so a singleton grid
    reproduces run_cell exactly. The cells share one pool; the first cell
    to fail stops the grid."""
    cells = list(enumerate(configs))
    if not cells:
        raise ValueError("grid must contain at least one cell")
    with _cell_records(cells, workers) as records:
        return [run_cell(config, cell=cell, records=cell_records)
                for (cell, config), cell_records in zip(cells, records)]
