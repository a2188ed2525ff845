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

``fit`` runs on a design as given, in any memory layout. It builds the
information X'WX over blocks of ``_INFO_ROWS`` rows, so no array the size
of the design is made per iteration; a design of at most that many rows is
one block. ``fit`` also takes a stack of R designs of equal shape, a batch,
and runs one Fisher-scoring loop over that leading replicate axis; one
design is the batch R = 1. Every product is one BLAS call per row, on the
row's column-major design, and convergence, step-halving, separation, the
iteration cap and the Cholesky pivot rule are per-row masks, so each row
gets the bits it gets alone. A row that converges or fails leaves the
loop; a failure is returned in that row's place, not raised, and the other
rows go on. ``fit_nested`` fits the triple on the expanded design
standardized once, so that convergence and the separation rule do not
depend on the covariates' units. The standardized design is one array in
column-major order: the base fit reads its leading columns in place, and
every product with the design runs on contiguous columns. It reports the
coefficients for the raw columns and keeps the information in the
standardized ones, with the scale of each column. Each fit starts as close
to its MLE as is known: the expanded fit from b = 0; the base fit from the
expanded fit's b-part, close to the base MLE under the null or a weak new
covariate (b = 0 when q = 0); the constant fit from its MLE G^-1(ybar), so
it stops after one step. ``fit_nested`` fits a batch of datasets of one
shape with the same three ``fit`` calls, each on the stacked designs; the
base and constant fits hold only the rows whose expanded fit succeeded.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, logit, ndtri

from . import numerics
from .errors import (
    DegenerateOutcome,
    FitError,
    NoConvergence,
    NotPositiveDefinite,
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

    def eta(self, prob: float) -> float:
        """G^-1(prob), the risk score whose event probability is prob."""
        return float(logit(prob) if self.kind == "logit" else ndtri(prob))

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
    and new covariates z."""

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=float)
        x = np.ascontiguousarray(self.x, dtype=float)
        z = np.ascontiguousarray(self.z, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be a vector")
        if x.ndim != 2 or z.ndim != 2:
            raise ValueError("x and z must be matrices")
        n = y.shape[0]
        if x.shape[0] != n or z.shape[0] != n:
            raise ValueError("x, z row counts must match y")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y must be coded 0/1")
        if y.min() == y.max():
            raise DegenerateOutcome("outcome is constant; need both events and non-events")
        if not np.all(x[:, 0] == 1.0):
            raise ValueError("first column of x must be the constant 1")
        if n < x.shape[1] + z.shape[1] + 1:
            raise ValueError("too few rows for the covariate dimensions")
        for arr in (y, x, z):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.z.shape[1]

    @property
    def ybar(self) -> float:
        return float(self.y.mean())


@dataclass(frozen=True)
class FittedModel:
    """One converged binary-response model."""

    coefficients: np.ndarray
    linear_predictor: np.ndarray
    fitted_probs: np.ndarray
    loglik: float
    expected_information: np.ndarray  # summed over observations, at the MLE
    iterations: int


@dataclass(frozen=True)
class NestedFits:
    """The (expanded, base, constant) model triple on one dataset.

    Coefficients are for the raw columns [x, z]. The expanded and base
    fits' ``expected_information`` is for the standardized columns
    [1, (X - m)/s] that ``fit_nested`` fitted on; ``scale`` holds the s of
    each column of [x, z], 1 for the intercept."""

    expanded: FittedModel
    base: FittedModel
    constant: FittedModel
    link: Link
    data: Dataset
    scale: np.ndarray


@dataclass(frozen=True)
class BatchFit:
    """The fits of a batch of designs: for each row, its FittedModel or the
    FitError that ``fit`` raises on that row alone. ``iterations`` is the
    number the batch ran, the largest of its rows'."""

    rows: tuple
    iterations: int


def _dots(a, b) -> np.ndarray:
    """a[r] @ b[r] for each row r of two stacks of vectors (R, n)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _times(matrices, vectors) -> np.ndarray:
    """matrices[r] @ vectors[r] for each row r of a stack (R, k, n) and (R, n)."""
    return np.matmul(matrices, vectors[:, :, None])[:, :, 0]


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


def _scoring(y, cols, link, beta) -> tuple[list, int]:
    """Fisher scoring from beta (R, m) for each row of a batch, on the
    transposed designs cols (R, m, n). Returns each row's FittedModel or
    FitError, and the iterations run.

    The arrays hold the rows still iterating. A row leaves once it converges
    or fails, and the others go on with the arithmetic each has alone: every
    product is one BLAS call per row, and every test and update is per row."""
    results = [None] * y.shape[0]
    rows = np.arange(y.shape[0])
    one_minus_y = 1.0 - y
    eta, probs, loglik = _point(cols, y, one_minus_y, link, beta)
    last_step_norm = np.full(rows.size, np.inf)  # no fit ends before the first solve checks X'X

    for iteration in range(_MAX_ITER + 1):
        residual, w = link.score_and_weight(eta, y, probs)
        score = _times(cols, residual)
        info = _information(cols.transpose(0, 2, 1), w)
        done = (abs(score).max(axis=1) <= _SCORE_TOL) & (last_step_norm <= _STEP_TOL)
        for i in np.flatnonzero(done):
            results[rows[i]] = FittedModel(
                coefficients=beta[i],
                linear_predictor=eta[i],
                fitted_probs=probs[i].clip(_PROB_EPS, 1.0 - _PROB_EPS),
                loglik=float(loglik[i]),
                expected_information=info[i],
                iterations=iteration,
            )
        if iteration == _MAX_ITER:
            for i in np.flatnonzero(~done):
                results[rows[i]] = NoConvergence(
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
            results[rows[i]] = _caused(error, exc)
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
            results[rows[i]] = Separation(
                "coefficients diverging with the likelihood still improving; "
                "the data are (quasi-)separated and the MLE does not exist"
            )
        if separated.all():
            break
        if separated.any():
            rows, cols, y, one_minus_y, beta, eta, probs, loglik, last_step_norm = _kept(
                ~separated, rows, cols, y, one_minus_y, beta, eta, probs, loglik, last_step_norm
            )
    return results, iteration


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
    if any, is a batch, fitted in one loop. Each row runs the arithmetic it
    runs alone, on its design in column-major order (the stack is copied to
    that layout unless it has it), and leaves the loop once it converges or
    fails. The batch's input errors are raised; a row's FitError is returned
    in its place in the BatchFit. A batch of no designs has no fits.
    """
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    batch = design.ndim == 3
    if not batch:
        y, design = y[None], design[None]
    rows, n, m = design.shape
    if y.shape != (rows, n):
        raise ValueError("y length must match design rows")
    if rows == 0:
        return BatchFit(rows=(), iterations=0)
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
    if batch and not cols[0].flags.c_contiguous:
        cols = np.ascontiguousarray(cols)
    results, iterations = _scoring(y, cols, link, beta)
    if batch:
        return BatchFit(rows=tuple(results), iterations=iterations)
    if isinstance(results[0], FitError):
        raise results[0]
    return results[0]


def _tagged(exc: FitError, model_name: str) -> FitError:
    return _caused(type(exc)(f"{model_name} model: {exc}", model=model_name), exc)


def _coefficients(fits: BatchFit, m: int) -> np.ndarray:
    """Each row's coefficients, zeros for a row whose fit failed."""
    coefficients = np.zeros((len(fits.rows), m))
    for row, model in zip(coefficients, fits.rows):
        if isinstance(model, FittedModel):
            row[:] = model.coefficients
    return coefficients


def _to_raw(coefficients, shift, scale) -> np.ndarray:
    """Restate each row's coefficients of a fit on (X - shift)/scale for the
    raw columns X: b = J^-1 b~ for J = diag(scale) + e0 shift'. A row past
    the double range is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = coefficients / scale
        raw[:, 0] -= _dots(shift, raw)
    return raw


def _nested(models, raw, link: Link, data: Dataset, scale) -> NestedFits | FitError:
    """One row's NestedFits from its (expanded, base, constant) fits and the
    expanded and base coefficients for the raw columns, or the first of its
    errors, tagged with its model."""
    for name, model in zip(("expanded", "base", "constant"), models):
        if isinstance(model, FitError):
            return _tagged(model, name)
    for name, coefficients in zip(("expanded", "base"), raw):
        if not np.isfinite(coefficients).all():
            return FitError(f"{name} model: coefficients leave the double range", name)
    expanded, base, constant = models
    return NestedFits(expanded=replace(expanded, coefficients=raw[0]),
                      base=replace(base, coefficients=raw[1]), constant=constant, link=link,
                      data=data, scale=scale)


def fit_nested(data, link: Link):
    """Fit the expanded, base, and constant models on one dataset, or on
    each of a batch of datasets.

    Fisher scoring runs on [x, z] with each column but the intercept centred at
    its mean and divided by its root mean square about it (or by 1 when that is
    0), taken after an exact power-of-two scaling that keeps its squares in
    range in any units. That design is built once, in column-major order, and
    standardized in place; the base fit runs on its leading p columns, a view.
    The expanded and base coefficients are restated for the raw columns (a
    FitError past the double range); their information stays standardized. The
    base fit starts from the expanded fit's b-part (zeros when q = 0); the
    constant fit from its MLE, G^-1(ybar).

    ``data`` may also be a sequence of Datasets of equal n, p and q, a batch.
    Their designs are stacked and each model is one ``fit`` of the stack, so
    a batch takes three ``fit`` calls as one dataset does; the base and
    constant fits hold only the rows whose expanded fit succeeded. Returns a
    list holding each dataset's NestedFits, or the FitError that fit_nested
    raises on that dataset alone, with the same bits. One dataset whose
    expanded fit fails raises at once."""
    batch = not isinstance(data, Dataset)
    datasets = list(data) if batch else [data]
    if not datasets:
        raise ValueError("a batch needs at least one dataset")
    first = datasets[0]
    n, p = first.n, first.p
    if any((d.n, d.p, d.q) != (n, p, first.q) for d in datasets):
        raise ValueError("a batch's datasets must share n, p and q")
    # Each row's design transposed, so that its columns are contiguous.
    stored = np.empty((len(datasets), p + first.q, n))
    for row, d in zip(stored, datasets):
        row[:p] = d.x.T
        row[p:] = d.z.T
    design = stored.transpose(0, 2, 1)
    # Largest |entry| into [1/2, 1): exact, so in-range columns keep every bit.
    power = np.frexp(np.maximum(stored.max(axis=2), -stored.min(axis=2)))[1]
    np.ldexp(stored, -power[:, :, None], out=stored)
    # Column sums as the product of the intercept column, 1 in every
    # dataset, with the design.
    shift = np.matmul(first.x[:, 0][None, None], design)[:, 0] / n
    shift[:, 0] = 0.0
    stored -= shift[:, :, None]
    scale = np.sqrt(np.einsum("rji,rji->rj", stored, stored) / n)
    scale[scale == 0.0] = 1.0
    stored /= scale[:, :, None]
    shift, scale = np.ldexp(shift, power), np.ldexp(scale, power)
    y = np.stack([d.y for d in datasets])
    expanded = fit(y, design, link)
    if not batch and isinstance(expanded.rows[0], FitError):
        raise _tagged(expanded.rows[0], "expanded")
    b = _coefficients(expanded, p + first.q)
    # The base and constant models are fitted on the rows whose expanded
    # fit succeeded; the others end with its error.
    ok = np.array([isinstance(model, FittedModel) for model in expanded.rows])
    if ok.all():
        ok_y, ok_design, ok_b = y, design, b
    else:
        ok_y, ok_design, ok_b = y[ok], stored[ok].transpose(0, 2, 1), b[ok]
    base = fit(ok_y, ok_design[:, :, :p], link, start=ok_b[:, :p] if first.q else None)
    constant_start = np.reshape([link.eta(d.ybar) for d, good in zip(datasets, ok) if good],
                                (-1, 1))
    constant = fit(ok_y, np.ones((len(ok_y), n, 1)), link, start=constant_start)
    fitted = zip(base.rows, constant.rows,
                 _to_raw(_coefficients(base, p), shift[ok, :p], scale[ok, :p]))
    results = []
    for model, raw, good, d, row_scale in zip(expanded.rows, _to_raw(b, shift, scale), ok,
                                             datasets, scale):
        base_model, constant_model, base_raw = next(fitted) if good else (None, None, None)
        results.append(_nested((model, base_model, constant_model), (raw, base_raw), link, d,
                               row_scale))
    if batch:
        return results
    if isinstance(results[0], FitError):
        raise results[0]
    return results[0]


def information_blocks(fits: NestedFits) -> np.ndarray:
    """The per-observation information on g for the raw z columns with b
    profiled out, I_gg - I_gb I_bb^-1 I_bg of the expanded fit's
    information / n, the inverse of the asymptotic covariance of
    sqrt(n) (g_hat - g0): the trailing block of L L' for L the Cholesky
    factor of the standardized information at unit diagonal, with entry
    (i, j) multiplied by s_i s_j, as the z rows of J^-1 are diag(1/s_z).
    A vanishing pivot is RankDeficient; z columns in units whose s_i s_j
    leave the double range are a FitError."""
    p = fits.data.p
    info = fits.expanded.expected_information / fits.data.n
    unit = 1.0 / np.sqrt(info.diagonal())
    try:
        lower = numerics.cholesky_spd(info * np.outer(unit, unit))
    except NotPositiveDefinite as exc:
        raise RankDeficient(f"expanded model: singular information: {exc}", "expanded") from exc
    tail = lower[p:, p:] / unit[p:, None]
    with np.errstate(over="ignore"):
        blocks = (tail @ tail.T) * np.outer(fits.scale[p:], fits.scale[p:])
    if not (np.isfinite(blocks).all() and (blocks.diagonal() > 0.0).all()):
        raise FitError("expanded model: information on the new columns leaves the double "
                       "range in their units", "expanded")
    return blocks
