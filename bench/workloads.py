"""Workloads: the CLI calls each one makes, their seeded inputs, and the
checks applied to every output.

A workload is a *unit* of CLI calls that the benchmark repeats; every
call runs in a fresh process (see ``child.py``). The inputs depend only
on the workload seed. Output checks compare against ``oracle.py``:

* ``compare`` JSON: statistics, reference parameters and mixture weights
  within ``REL_TOL`` (relative), p-values inside [0, 1] and within
  ``P_ABS_TOL`` (absolute); counts, mode and link exactly.
* ``simulate`` CSV: one row per grid cell in grid order, echoing the
  configuration; per-cell rejection counts within ``FLIP_TOL`` replicates
  of the reference plus that cell's redraws and unresolved reference fits
  (a redrawn replicate uses other data); redraws within the 1% budget;
  Monte Carlo standard errors consistent with the rates.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

REL_TOL = 1e-8
P_ABS_TOL = 1e-6
FLIP_TOL = 1
REDRAW_BUDGET = 0.01

COHORT_ROWS = 200_000
COHORT_COLUMNS = ("event", "age", "marker", "newmarker")


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments (output file excluded), the work it
    does, and the check of its output."""

    args: tuple[str, ...]
    rows: int  # data rows the call fits (input rows for compare)
    reps: int  # nested comparisons completed (one per compare call)
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class SimGrid:
    mode: str
    n: tuple[int, ...]
    pi0: tuple[float, ...]
    mu_x: tuple[float, ...]
    rho: tuple[float, ...]
    reps: int
    workers: int

    def cells(self):
        return [
            (n, pi0, mu_x, rho)
            for n in self.n
            for pi0 in self.pi0
            for mu_x in self.mu_x
            for rho in self.rho
        ]


SIM_GRIDS = {
    "sim_single": SimGrid("single", (200, 500), (0.25, 0.5), (1.0,), (0.0,), reps=25, workers=1),
    "sim_train_test": SimGrid(
        "train_test", (200,), (0.25, 0.5), (0.25, 1.0), (0.0,), reps=15, workers=1
    ),
    "sim_grid_parallel": SimGrid(
        "single", (200,), (0.25, 0.5, 0.75), (0.25, 1.0), (0.0, 0.5), reps=20, workers=2
    ),
}
WORKLOADS = (*SIM_GRIDS, "compare_large")
# The workloads BENCHMARK.json lists. sim_grid_parallel is left out: its two
# pool workers fill both CPUs of a 2-CPU host, where the single-process
# host-speed reference cannot follow the other CPU's drift, and its runs
# spread by 12% (IQR over median) after normalization. It stays runnable for
# work on the process pool, and the self-test uses it to check that pool
# workers' spans reach the trace.
BENCHMARKED = ("sim_single", "sim_train_test", "compare_large")
# The host-speed reference each workload's times are normalized by.
REFERENCE_MIX = {**{name: "small" for name in SIM_GRIDS}, "compare_large": "ingest"}
TINY_REPS = 4
TINY_ROWS = 2000


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


# -------------------------------------------------------------- simulate


def simulate_unit(name: str, seed: int, *, tiny: bool) -> list[Call]:
    grid = SIM_GRIDS[name]
    reps = TINY_REPS if tiny else grid.reps
    cells = grid.cells()
    args = (
        "simulate", "--mode", grid.mode, "--n", _join(grid.n), "--pi0", _join(grid.pi0),
        "--mu-x", _join(grid.mu_x), "--rho", _join(grid.rho), "--reps", str(reps),
        "--seed", str(seed), "--workers", str(grid.workers),
    )
    reference = []

    def check(path: Path) -> list[str]:
        if not reference:
            reference.extend(
                oracle.simulate_cell(
                    seed=seed, cell=i, n=n, pi0=pi0, mu_x=mu_x, rho=rho, reps=reps, mode=grid.mode
                )
                for i, (n, pi0, mu_x, rho) in enumerate(cells)
            )
        return check_simulate(path, grid, cells, reps, seed, reference)

    parts = 2 if grid.mode == "train_test" else 1
    rows = sum(n for n, *_ in cells) * reps * parts
    return [Call(args, rows, reps * len(cells), check)]


def check_simulate(path, grid, cells, reps, seed, reference) -> list[str]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(cells):
        return [f"simulate wrote {len(rows)} rows for {len(cells)} cells"]
    problems = []
    for i, (row, cell, ref) in enumerate(zip(rows, cells, reference)):
        where = f"cell {i}"
        echoed = (int(row["n"]), float(row["pi0"]), float(row["mu_x"]), float(row["rho"]))
        if echoed != cell or row["mode"] != grid.mode or int(row["replicates"]) != reps:
            problems.append(f"{where}: configuration {echoed} does not match {cell}")
            continue
        if int(row["seed"]) != seed:
            problems.append(f"{where}: seed {row['seed']} != {seed}")
        redraws = int(row["redraws"])
        if redraws > REDRAW_BUDGET * reps:
            problems.append(f"{where}: {redraws} redraws exceed the 1% budget")
        ref_mnri, ref_nri, unresolved = ref
        allowed = FLIP_TOL + redraws + unresolved
        for column, se_column, expected in (
            ("mnri_rejection_rate", "mnri_mc_se", ref_mnri),
            ("nri_normal_rejection_rate", "nri_mc_se", ref_nri),
        ):
            rate = float(row[column])
            count = rate * reps
            if abs(count - round(count)) > 1e-6 or abs(round(count) - expected) > allowed:
                problems.append(f"{where}: {column} {rate} vs reference {expected}/{reps}")
            se = math.sqrt(rate * (1.0 - rate) / reps)
            if not math.isclose(float(row[se_column]), se, rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"{where}: {se_column} {row[se_column]} inconsistent with rate")
    return problems


# --------------------------------------------------------------- compare


def write_cohort(path: Path, rng: np.random.Generator, rows: int) -> None:
    """A synthetic cohort: age and a lognormal lab marker as the existing
    factors, a candidate marker correlated with the lab value, and an
    event rate near 15% with odds ratios of about 1.5 per SD of age,
    1.3 per SD of the lab marker and 1.25 per SD of the candidate."""
    age = np.round(rng.normal(62.0, 9.0, rows), 1)
    log_marker = rng.normal(1.0, 0.5, rows)
    candidate = 0.3 * (log_marker - 1.0) / 0.5 + np.sqrt(1.0 - 0.09) * rng.standard_normal(rows)
    logit = -1.85 + 0.045 * (age - 62.0) + 0.5 * (log_marker - 1.0) + 0.22 * candidate
    event = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    table = np.column_stack([event, age, np.exp(log_marker), candidate])
    np.savetxt(
        path, table, fmt=("%d", "%.1f", "%.4f", "%.4f"), delimiter=",",
        header=",".join(COHORT_COLUMNS), comments="",
    )


def compare_unit(seed: int, workdir: Path, *, tiny: bool) -> list[Call]:
    rows = TINY_ROWS if tiny else COHORT_ROWS
    train, test = workdir / "cohort_a.csv", workdir / "cohort_b.csv"
    rng = np.random.default_rng([seed, 1])
    write_cohort(train, rng, rows)
    write_cohort(test, rng, rows)
    columns = dict(outcome="event", base=["age", "marker"], new=["newmarker"])
    flags = ("--outcome", "event", "--base", "age,marker", "--new", "newmarker")
    variants = [
        ((str(train), *flags), dict(), rows),
        ((str(train), *flags, "--link", "probit"), dict(link="probit"), rows),
        (
            (str(train), *flags, "--test-file", str(test), "--spline", "age=4"),
            dict(test_csv=test, spline={"age": 4}),
            2 * rows,
        ),
    ]
    calls = []
    for args, options, call_rows in variants:
        expected = oracle.compare_report(train, **columns, **options)

        def check(path: Path, expected=expected) -> list[str]:
            return check_compare(path, expected)

        calls.append(Call(("compare", *args), call_rows, 1, check))
    return calls


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def check_compare(path: Path, expected: dict) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        got = json.load(handle)
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if key in ("mnri_test", "nri_test_legacy"):
            problems += _check_test(key, have or {}, want)
        elif isinstance(want, float):
            if not isinstance(have, (int, float)) or not _close(have, want):
                problems.append(f"{key}: {have!r} vs reference {want!r}")
        elif have != want:
            problems.append(f"{key}: {have!r} != {want!r}")
    return problems


def _check_test(key: str, have: dict, want: dict) -> list[str]:
    problems = []
    if not _close(have.get("statistic", math.nan), want["statistic"]):
        problems.append(f"{key}.statistic: {have.get('statistic')!r} vs {want['statistic']!r}")
    ref_have, ref_want = have.get("reference", {}), want["reference"]
    for field, value in ref_want.items():
        other = ref_have.get(field)
        if isinstance(value, list):
            ok = isinstance(other, list) and len(other) == len(value) and all(
                _close(a, b) for a, b in zip(other, value)
            )
        elif isinstance(value, float):
            ok = isinstance(other, (int, float)) and _close(other, value)
        else:
            ok = other == value
        if not ok:
            problems.append(f"{key}.reference.{field}: {other!r} vs {value!r}")
    p = have.get("p_value")
    if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0 or abs(p - want["p_value"]) > P_ABS_TOL:
        problems.append(f"{key}.p_value: {p!r} vs reference {want['p_value']!r}")
    return problems


def make_unit(name: str, seed: int, workdir: Path, *, tiny: bool) -> list[Call]:
    if name == "compare_large":
        return compare_unit(seed, workdir, tiny=tiny)
    return simulate_unit(name, seed, tiny=tiny)
