"""Maximum-likelihood fitting of nested binary-response models.

The model family is

    Pr(Y = 1)          = G(b.)            constant model
    Pr(Y = 1 | x)      = G(b0' x)         base model
    Pr(Y = 1 | x, z)   = G(b' x + g' z)   expanded model

for a monotone inverse link G (logistic or probit). Fitting is Fisher
scoring on the Bernoulli log-likelihood with step-halving. The inverse
link is evaluated once per iterate: the probabilities of an accepted step
feed the next score, the next information and, at convergence, the fitted
model. Fits carry the expected information evaluated at the MLE, from
which ``information_blocks`` profiles out the base coefficients.

``fit`` runs on a design as given, in any memory layout, building X'WX over
blocks of ``_INFO_ROWS`` rows, so no array the size of the design is made per
iteration. It also takes a stack of R designs of one shape, a batch, and runs
one Fisher-scoring loop over that leading axis: every product is one BLAS
call per row, on its column-major design, and convergence, step-halving,
separation, the iteration cap and the Cholesky pivot rule are per-row masks,
so each row gets the bits it gets alone. A row that converges or fails leaves
the loop; its fit goes into the BatchFit's stacked arrays, its failure into
the BatchFit's errors, and the other rows go on.

``fit_nested`` takes one Dataset or a stacked one (y (R, n), x (R, n, p),
z (R, n, q)), checked once when built. It fits the triple with three ``fit``
calls on the expanded design standardized once, in column-major order, so
that convergence and the separation rule do not depend on the covariates'
units, and returns stacked NestedFits: raw-column coefficients, linear
predictors, the standardized information and each column's scale, with a
{row: FitError} map. One Dataset gets NestedFits built from those arrays as
views. Each fit starts as close to its MLE as is known: the expanded fit
from b = 0; the base fit from the expanded fit's b-part (b = 0 when q = 0);
the constant fit from G^-1(ybar), so it stops after one step. ``as_batch``
and ``unbatched`` hold the one rule by which every entry that takes one
comparison also takes a batch: a stacked Dataset, or the NestedFits or
train/test pair built on one, and nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import expit, logit, ndtri

from . import numerics
from .errors import (
    DegenerateOutcome,
    FitError,
    NoConvergence,
    RankDeficient,
    Separation,
)

# Probability clamp for likelihood evaluation; avoids log(0) during
# intermediate iterations without biasing converged interior fits.
_PROB_EPS = 1e-12

_SCORE_TOL = 1e-8
_STEP_TOL = 1e-8
_MAX_ITER = 100
_SEPARATION_NORM = 1e3
# Observations per block of the information X'WX: each block's weighted copy is
# small enough to stay in cache, and a large design makes no full-size one.
_INFO_ROWS = 8192


@dataclass(frozen=True)
class Link:
    """Inverse link G mapping the risk score to an event probability."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("logit", "probit"):
            raise ValueError(f"unknown link kind {self.kind!r}")

    def prob(self, eta):
        """G(eta)."""
        if self.kind == "logit":
            return expit(eta)
        return numerics.norm_cdf(eta)

    def eta(self, prob):
        """G^-1(prob), the risk score whose event probability is prob."""
        return logit(prob) if self.kind == "logit" else ndtri(prob)

    def score_residual(self, eta, y):
        """r = [G'/(G(1-G))] (y - G); reduces to y - G for the logit."""
        return self.score_and_weight(eta, y, self.prob(eta))[0]

    def score_and_weight(self, eta, y, probs):
        """The score residual r and the expected-information weight
        G'^2 / (G(1-G)) per observation, given probs = G(eta)."""
        if self.kind == "logit":
            return y - probs, probs * (1.0 - probs)
        p = np.clip(probs, _PROB_EPS, 1.0 - _PROB_EPS)
        d = numerics.norm_pdf(eta)
        return d / (p * (1.0 - p)) * (y - p), d * d / (p * (1.0 - p))


LOGIT = Link("logit")
PROBIT = Link("probit")


@dataclass(frozen=True)
class Dataset:
    """Binary outcomes with base covariates x (first column constant 1)
    and new covariates z; or a batch of R datasets of one shape, stacked:
    y (R, n), x (R, n, p) and z (R, n, q), checked at once."""

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        x = np.ascontiguousarray(self.x, dtype=float)
        z = np.ascontiguousarray(self.z, dtype=float)
        if y.ndim not in (1, 2):
            raise ValueError("y must be a vector, or a stack of them")
        if y.ndim == 2 and not len(y):
            raise ValueError("a batch needs at least one dataset")
        if x.ndim != y.ndim + 1 or z.ndim != y.ndim + 1:
            raise ValueError("x and z must be matrices")
        if x.shape[:-1] != y.shape or z.shape[:-1] != y.shape:
            raise ValueError("x, z row counts must match y")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y must be coded 0/1")
        if (y.min(axis=-1) == y.max(axis=-1)).any():
            raise DegenerateOutcome("outcome is constant; need both events and non-events")
        if not np.all(x[..., 0] == 1.0):
            raise ValueError("first column of x must be the constant 1")
        if y.shape[-1] < x.shape[-1] + z.shape[-1] + 1:
            raise ValueError("too few rows for the covariate dimensions")
        for name, arr in (("y", y), ("x", x), ("z", z)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def p(self) -> int:
        return self.x.shape[-1]

    @property
    def q(self) -> int:
        return self.z.shape[-1]

    @cached_property
    def ybar(self):
        """The event rate, or each row's in a batch."""
        ybar = self.y.mean(axis=-1)
        return ybar if ybar.ndim else float(ybar)


@dataclass(frozen=True)
class FittedModel:
    """One converged binary-response model; in a batch, each field stacks
    the rows' values."""

    coefficients: np.ndarray
    linear_predictor: np.ndarray
    fitted_probs: np.ndarray
    loglik: float
    expected_information: np.ndarray  # summed over observations, at the MLE
    iterations: int


@dataclass(frozen=True)
class NestedFits:
    """The (expanded, base, constant) model triple on one dataset, or on
    each of a batch of them, stacked (``fit_nested``).

    Coefficients are for the raw columns [x, z]. The expanded and base
    fits' ``expected_information`` is for the standardized columns
    [1, (X - m)/s] that ``fit_nested`` fitted on; ``scale`` holds the s of
    each column of [x, z], 1 for the intercept. In a batch, ``errors`` maps
    each row whose fits failed, holding zeros, to its FitError."""

    expanded: FittedModel
    base: FittedModel
    constant: FittedModel
    link: Link
    data: Dataset
    scale: np.ndarray
    errors: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchFit:
    """The fits of a batch of designs, stacked (zeros in a failed row), the
    FitError ``fit`` raises on each failed row alone, by row, and the
    iterations the batch ran, the largest of its rows'."""

    fits: FittedModel
    errors: dict
    iterations: int

    @property
    def rows(self) -> tuple:
        """Each row's FittedModel or FitError."""
        return tuple(self.errors.get(r) or _taken(self.fits, r)
                     for r in range(len(self.fits.loglik)))


def _mapped(batch, fn):
    """An object of the type of ``batch`` whose every array and number,
    through dataclass fields, is ``fn`` of its value there (a link as it is,
    an errors map empty), built without a second check."""
    if isinstance(batch, (np.ndarray, float, int, np.generic)):
        return fn(batch)
    if isinstance(batch, dict):
        return {}
    if isinstance(batch, Link) or not is_dataclass(batch):
        return batch
    built = object.__new__(type(batch))
    for f in fields(batch):
        object.__setattr__(built, f.name, _mapped(getattr(batch, f.name), fn))
    return built


def _taken(batch, rows):
    """Rows of a batch, an index array (views when they are consecutive), or
    one row, an int, as one comparison of views."""
    if np.ndim(rows) and rows.size and (np.diff(rows) == 1).all():
        rows = slice(rows[0], rows[-1] + 1)
    return _mapped(batch, lambda value: value[rows])


def as_batch(comparison) -> tuple:
    """The batch rule's first half: ``comparison`` as a batch, its arrays on a
    leading row axis, and whether it was one. A batch is a Dataset whose
    outcomes are a stack y (R, n), or the NestedFits or train/test pair built
    on one (a pair's ``data`` is its test sample), and is taken as it is; one
    comparison, whose ``data`` holds one outcome vector, becomes a batch of
    one, of views. Anything else is a TypeError."""
    data = comparison if isinstance(comparison, Dataset) else getattr(comparison, "data", None)
    if not isinstance(data, Dataset):
        raise TypeError("expected one comparison or a batch: a Dataset whose y is a stack "
                        f"(R, n), or the NestedFits or TrainTestPair built on one; got "
                        f"{type(comparison).__name__}")
    if data.y.ndim == 2:
        return comparison, True
    return _mapped(comparison, lambda value: np.asarray(value)[None]), False


def unbatched(results: list, batch: bool):
    """The batch rule's second half: a batch's list of results as it is;
    for one comparison its one result, raised if it is a FitError."""
    if batch:
        return results
    if isinstance(results[0], FitError):
        raise results[0]
    return results[0]


def _dots(a, b) -> np.ndarray:
    """a @ b over the last axis, one BLAS dot per row of stacks (R, n)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _times(matrices, vectors) -> np.ndarray:
    """matrices @ vectors, (k, n) @ (n,), or row by row of stacks (R, k, n) and (R, n)."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


def _bernoulli_loglik(y, one_minus_y, probs) -> np.ndarray:
    p = probs.clip(_PROB_EPS, 1.0 - _PROB_EPS)
    return _dots(y, np.log(p)) + _dots(one_minus_y, np.log1p(-p))


def _information(design, w) -> np.ndarray:
    """X'WX for each row's design X (R, n, m) and W = diag(w), summed over
    blocks of ``_INFO_ROWS`` observations."""
    block = design[:, :_INFO_ROWS]
    info = np.matmul(block.transpose(0, 2, 1), block * w[:, :_INFO_ROWS, None])
    for start in range(_INFO_ROWS, design.shape[1], _INFO_ROWS):
        block = design[:, start:start + _INFO_ROWS]
        info += np.matmul(block.transpose(0, 2, 1), block * w[:, start:start + _INFO_ROWS, None])
    return info


def _point(cols, y, one_minus_y, link, beta):
    """eta = X b, probs = G(eta) and the log-likelihood for each row."""
    eta = _times(cols.transpose(0, 2, 1), beta)
    probs = link.prob(eta)
    return eta, probs, _bernoulli_loglik(y, one_minus_y, probs)


def _kept(keep, *arrays) -> list:
    return [a[keep] for a in arrays]


def _caused(error: FitError, cause: Exception) -> FitError:
    error.__cause__ = cause
    return error


def _stored(fitted, count: int, at, *values) -> FittedModel:
    """The stacked fits of a batch of ``count`` rows, ``fitted`` so far (None
    before any, then zeros in the rows not set), with rows ``at`` set to
    ``values``, one per field: the values themselves when they are every
    row's."""
    if fitted is None and len(at) == count:
        return FittedModel(*values)
    if fitted is None:
        fitted = FittedModel(*(np.zeros((count, *v.shape[1:]), v.dtype) for v in values))
    for f, value in zip(fields(fitted), values):
        getattr(fitted, f.name)[at] = value
    return fitted


def _scoring(y, cols, link, beta) -> BatchFit:
    """Fisher scoring from beta (R, m) for each row of a batch, on the
    transposed designs cols (R, m, n).

    The arrays hold the rows still iterating. A row leaves once it converges
    or fails, and the others go on with the arithmetic each has alone: every
    product is one BLAS call per row, and every test and update is per row."""
    fitted, errors = None, {}
    count = y.shape[0]
    rows = np.arange(count)
    one_minus_y = 1.0 - y
    eta, probs, loglik = _point(cols, y, one_minus_y, link, beta)
    last_step_norm = np.full(rows.size, np.inf)  # no fit ends before the first solve checks X'X

    for iteration in range(_MAX_ITER + 1):
        residual, w = link.score_and_weight(eta, y, probs)
        score = _times(cols, residual)
        info = _information(cols.transpose(0, 2, 1), w)
        done = (abs(score).max(axis=1) <= _SCORE_TOL) & (last_step_norm <= _STEP_TOL)
        if done.any():
            values = (beta, eta, probs.clip(_PROB_EPS, 1.0 - _PROB_EPS), loglik, info,
                      np.full(rows.size, iteration))
            fitted = _stored(fitted, count, rows[done],
                             *(values if done.all() else _kept(done, *values)))
        if iteration == _MAX_ITER:
            for i in np.flatnonzero(~done):
                errors[int(rows[i])] = NoConvergence(
                    f"Fisher scoring did not converge in {_MAX_ITER} iterations"
                )
            break
        if done.all():
            break
        if done.any():
            rows, cols, y, one_minus_y, beta, loglik, score, info, w = _kept(
                ~done, rows, cols, y, one_minus_y, beta, loglik, score, info, w
            )

        step, singular = numerics.solve_spd_rows(info, score)
        for i, exc in singular.items():
            # X'WX with every weight w > 0 is singular exactly when X'X is;
            # at the start, before any step, a failure is the design's.
            if iteration == 0 and w[i].min() > 0.0:
                error = RankDeficient("design matrix is rank deficient (collinear columns)")
            else:
                error = RankDeficient(f"singular information matrix: {exc}")
            errors[int(rows[i])] = _caused(error, exc)
        if len(singular) == rows.size:
            break
        if singular:
            keep = np.ones(rows.size, dtype=bool)
            keep[list(singular)] = False
            rows, cols, y, one_minus_y, beta, loglik, step = _kept(
                keep, rows, cols, y, one_minus_y, beta, loglik, step
            )

        # Step-halving: never accept a likelihood decrease. The slack keeps
        # rounding noise in the log-likelihood (resolution ~ |ll| * eps)
        # from halving away full Newton steps near the optimum.
        slack = 1e-11 * (1.0 + abs(loglik))
        halvings = np.zeros(rows.size, dtype=int)
        new_beta = beta + step
        new_eta, new_probs, new_loglik = _point(cols, y, one_minus_y, link, new_beta)
        while True:
            halve = (new_loglik < loglik - slack) & (halvings < 30)
            if not halve.any():
                break
            step[halve] *= 0.5
            halvings[halve] += 1
            if halve.all():
                new_beta = beta + step
                new_eta, new_probs, new_loglik = _point(cols, y, one_minus_y, link, new_beta)
            else:
                new_beta[halve] = beta[halve] + step[halve]
                new_eta[halve], new_probs[halve], new_loglik[halve] = _point(
                    *_kept(halve, cols, y, one_minus_y), link, new_beta[halve]
                )

        improved = new_loglik > loglik
        beta, eta, probs, loglik = new_beta, new_eta, new_probs, new_loglik
        last_step_norm = np.sqrt(_dots(step, step))

        separated = (np.sqrt(_dots(beta, beta)) > _SEPARATION_NORM) & improved
        for i in np.flatnonzero(separated):
            errors[int(rows[i])] = Separation(
                "coefficients diverging with the likelihood still improving; "
                "the data are (quasi-)separated and the MLE does not exist"
            )
        if separated.all():
            break
        if separated.any():
            rows, cols, y, one_minus_y, beta, eta, probs, loglik, last_step_norm = _kept(
                ~separated, rows, cols, y, one_minus_y, beta, eta, probs, loglik, last_step_norm
            )
    if fitted is None:
        fitted = _stored(None, count, rows[:0],
                         *_kept(rows[:0], beta, eta, probs, loglik, info, rows))
    return BatchFit(fits=fitted, errors=errors, iterations=iteration)


def fit(y, design, link: Link, *, start=None):
    """Fisher-scoring maximum likelihood for one binary-response model, or
    for a batch of them.

    Scoring runs on ``design`` as given, in its columns' units, from
    ``start``, one finite coefficient per design column, or from zeros when
    it is None. Convergence requires at least one step, with the largest
    score component and the last step norm below 1e-8. Steps are halved
    while they would decrease the log-likelihood. Raises ValueError for a
    non-finite design or a start of the wrong shape or not finite,
    Separation when the coefficients diverge (norm above 1e3 with the
    likelihood still improving), RankDeficient for collinear designs, and
    NoConvergence at the iteration cap.

    A stack of R designs (R, n, m), with outcomes (R, n) and a start (R, m)
    if any, is a batch (copied to column-major rows unless it has them): its
    input errors are raised, and it gives a BatchFit.
    """
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    batch = design.ndim == 3
    if not batch:
        y, design = y[None], design[None]
    rows, n, m = design.shape
    if y.shape != (rows, n):
        raise ValueError("y length must match design rows")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("y must be coded 0/1")
    if (y.min(axis=1) == y.max(axis=1)).any():
        raise DegenerateOutcome("outcome is constant; need both events and non-events")
    if not np.isfinite(design).all():
        raise ValueError("design matrix must be finite")
    if start is None:
        beta = np.zeros((rows, m))
    else:
        beta = np.array(start, dtype=float)
        if beta.shape != ((rows, m) if batch else (m,)):
            raise ValueError(f"start must hold {m} coefficients, got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("start must be finite")
        beta = beta.reshape(rows, m)

    cols = design.transpose(0, 2, 1)
    if batch and rows and not cols[0].flags.c_contiguous:
        cols = np.ascontiguousarray(cols)
    fits = _scoring(y, cols, link, beta)
    return fits if batch else unbatched(fits.rows, batch)


def _tagged(exc: FitError, model_name: str) -> FitError:
    return _caused(type(exc)(f"{model_name} model: {exc}", model=model_name), exc)


def _to_raw(coefficients, shift, scale) -> np.ndarray:
    """Restate each row's coefficients of a fit on (X - shift)/scale for the
    raw columns X: b = J^-1 b~ for J = diag(scale) + e0 shift'. A row past
    the double range is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = coefficients / scale
        raw[:, 0] -= _dots(shift, raw)
    return raw


def fit_nested(data, link: Link):
    """Fit the expanded, base, and constant models on one dataset, or on
    each of a batch of datasets (see ``as_batch``).

    Fisher scoring runs on [x, z] with each column but the intercept centred at
    its mean and divided by its root mean square about it (or by 1 when that is
    0), taken after an exact power-of-two scaling that keeps its squares in
    range in any units; the base fit runs on the leading p columns, a view. The
    coefficients are restated for the raw columns (a FitError past the double
    range). Non-finite covariates are a ValueError. A stacked Dataset gives
    stacked NestedFits; one dataset, its NestedFits, raising at once when its
    expanded fit fails. The base and constant fits hold only the rows whose
    expanded fit succeeded."""
    stack, batch = as_batch(data)
    count, n, p, q = len(stack.y), stack.n, stack.p, stack.q
    # Each row's design transposed, so that its columns are contiguous.
    stored = np.empty((count, p + q, n))
    stored[:, :p] = stack.x.transpose(0, 2, 1)
    stored[:, p:] = stack.z.transpose(0, 2, 1)
    design = stored.transpose(0, 2, 1)
    largest = np.maximum(stored.max(axis=2), -stored.min(axis=2))
    if not np.isfinite(largest).all():
        raise ValueError("design matrix must be finite")
    # Largest |entry| into [1/2, 1): exact, so in-range columns keep every bit.
    power = np.frexp(largest)[1]
    np.ldexp(stored, -power[:, :, None], out=stored)
    # Column sums as the product of the intercept column, 1 in every
    # dataset, with the design.
    shift = np.matmul(stack.x[0, :, 0][None, None], design)[:, 0] / n
    shift[:, 0] = 0.0
    stored -= shift[:, :, None]
    scale = np.sqrt(np.einsum("rji,rji->rj", stored, stored) / n)
    scale[scale == 0.0] = 1.0
    stored /= scale[:, :, None]
    shift, scale = np.ldexp(shift, power), np.ldexp(scale, power)
    expanded = fit(stack.y, design, link)
    if not batch and expanded.errors:
        raise _tagged(expanded.errors[0], "expanded")
    b = expanded.fits.coefficients
    # The base and constant models are fitted on the rows whose expanded
    # fit succeeded; the others end with its error.
    ok = np.ones(count, dtype=bool)
    ok[list(expanded.errors)] = False
    if ok.all():
        ok_y, ok_design, ok_b = stack.y, design, b
    else:
        ok_y, ok_design, ok_b = stack.y[ok], stored[ok].transpose(0, 2, 1), b[ok]
    base = fit(ok_y, ok_design[:, :, :p], link, start=ok_b[:, :p] if q else None)
    constant = fit(ok_y, np.ones((len(ok_y), n, 1)), link,
                   start=link.eta(stack.ybar[ok])[:, None])
    errors, ok = {}, np.flatnonzero(ok)
    for name, fits, rows in (("expanded", expanded, np.arange(count)),
                             ("base", base, ok), ("constant", constant, ok)):
        for r, exc in fits.errors.items():
            errors.setdefault(int(rows[r]), _tagged(exc, name))
    base, constant = (_stored(None, count, ok, *vars(f.fits).values()) for f in (base, constant))
    raw = (_to_raw(b, shift, scale), _to_raw(base.coefficients, shift[:, :p], scale[:, :p]))
    for name, coefficients in zip(("expanded", "base"), raw):
        for r in np.flatnonzero(~np.isfinite(coefficients).all(axis=1)):
            errors.setdefault(int(r), FitError(
                f"{name} model: coefficients leave the double range", name))
    fits = NestedFits(expanded=replace(expanded.fits, coefficients=raw[0]),
                      base=replace(base, coefficients=raw[1]), constant=constant, link=link,
                      data=stack, scale=scale, errors=errors)
    if batch:
        return fits
    return unbatched([errors.get(0) or replace(_taken(fits, 0), data=data)], batch)


def information_blocks(fits: NestedFits) -> np.ndarray:
    """The per-observation information on g for the raw z columns with b
    profiled out, I_gg - I_gb I_bb^-1 I_bg of the expanded fit's
    information / n, the inverse of the asymptotic covariance of
    sqrt(n) (g_hat - g0): the trailing block of L L' for L the Cholesky
    factor of the standardized information at unit diagonal, with entry
    (i, j) multiplied by s_i s_j, as the z rows of J^-1 are diag(1/s_z).
    A vanishing pivot is RankDeficient; z columns in units whose s_i s_j
    leave the double range are a FitError. ``fits`` may be a batch (see
    ``as_batch``)."""
    fits, batch = as_batch(fits)
    return unbatched(_blocks(fits), batch)


def _blocks(fits: NestedFits) -> list:
    """``information_blocks`` of each row of batched NestedFits: its block, or
    the FitError it raises alone."""
    p = fits.data.p
    info = fits.expanded.expected_information / fits.data.n
    unit = 1.0 / np.sqrt(info.diagonal(axis1=1, axis2=2))
    factors, singular = numerics.cholesky_spd_rows(info * (unit[:, :, None] * unit[:, None, :]))
    tail = np.array(factors)[:, p:, p:] / unit[:, p:, None]
    scale = fits.scale[:, p:]
    with np.errstate(over="ignore"):
        blocks = (tail @ tail.transpose(0, 2, 1)) * (scale[:, :, None] * scale[:, None, :])
    in_range = (np.isfinite(blocks).all(axis=(1, 2))
                & (blocks.diagonal(axis1=1, axis2=2) > 0.0).all(axis=1))
    return [
        _caused(RankDeficient(f"expanded model: singular information: {singular[r]}", "expanded"),
                singular[r]) if r in singular
        else block if in_range[r]
        else FitError("expanded model: information on the new columns leaves the double range in "
                      "their units", "expanded")
        for r, block in enumerate(blocks)
    ]
