"""Restricted cubic spline (natural spline) basis construction.

The basis for knots t_1 < ... < t_k has k-1 columns: the identity, then
for j = 1..k-2 the truncated-cubic combination

    [(x-t_j)+^3 - (x-t_{k-1})+^3 (t_k-t_j)/(t_k-t_{k-1})
               + (x-t_k)+^3 (t_{k-1}-t_j)/(t_k-t_{k-1})] / (t_k-t_1)^2

whose cubic and quadratic terms cancel beyond the last knot, so the fitted
function is linear outside [t_1, t_k] and has two continuous derivatives
everywhere. The division by the squared knot range is the basis
convention: it keeps the nonlinear columns on a scale comparable to x
itself. Fitting does not rely on it, as ``glm.fit_nested`` standardizes.
"""
from __future__ import annotations

import numpy as np

from .errors import TooFewDistinctValues

# Quantile placements by knot count (standard biostatistics convention).
KNOT_QUANTILES = {
    3: (0.10, 0.50, 0.90),
    4: (0.05, 0.35, 0.65, 0.95),
    5: (0.05, 0.275, 0.50, 0.725, 0.95),
}


def default_knots(x, k: int = 4) -> np.ndarray:
    """Knot locations at the conventional sample quantiles for k in {3,4,5}."""
    if k not in KNOT_QUANTILES:
        raise ValueError(f"knot count must be one of {sorted(KNOT_QUANTILES)}, got {k}")
    # One sort gives the distinct values, NaNs (sorted last) counting once as
    # in np.unique, and the order statistics the quantiles interpolate.
    x = np.sort(np.asarray(x, dtype=float), axis=None)
    if min(x.size, 1) + np.count_nonzero((x[1:] != x[:-1]) & ~np.isnan(x[:-1])) < k:
        raise TooFewDistinctValues(
            f"need at least {k} distinct values to place {k} knots"
        )
    knots = np.quantile(x, KNOT_QUANTILES[k])
    if not np.all(np.diff(knots) > 0):
        raise TooFewDistinctValues(
            "quantile knots are not strictly increasing; values are too heavily tied"
        )
    return knots


def rcs_basis(x, knots) -> np.ndarray:
    """Design matrix of the restricted cubic spline: column 1 is x, the
    remaining k-2 columns are the range-normalized restricted cubic terms
    (each exactly zero at and below the first knot). Knots from any sample,
    such as training knots for test rows, are checked here."""
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.shape[0] < 3:
        raise ValueError("need a vector of at least 3 knots")
    if not np.all(np.diff(knots) > 0):
        raise ValueError("knots must be strictly increasing")

    def plus_cube(v):
        v = np.maximum(v, 0.0)
        return v * v * v

    t_last, t_prev = knots[-1], knots[-2]
    norm = (knots[-1] - knots[0]) ** 2
    cube_prev, cube_last = plus_cube(x - t_prev), plus_cube(x - t_last)
    columns = [x]
    for t_j in knots[:-2]:
        term = (
            plus_cube(x - t_j)
            - cube_prev * (t_last - t_j) / (t_last - t_prev)
            + cube_last * (t_prev - t_j) / (t_last - t_prev)
        )
        columns.append(term / norm)
    return np.column_stack(columns)

