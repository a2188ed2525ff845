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
one block. ``fit_nested`` fits the triple on the expanded design
standardized once, so that convergence and the separation rule do not
depend on the covariates' units. The standardized design is one array in
column-major order: the base fit reads its leading columns in place, and
every product with the design runs on contiguous columns. It reports the
coefficients for the raw columns and keeps the information in the
standardized ones, with the scale of each column. Each fit starts as close
to its MLE as is known: the expanded fit from b = 0; the base fit from the
expanded fit's b-part, close to the base MLE under the null or a weak new
covariate (b = 0 when q = 0); the constant fit from its MLE G^-1(ybar), so
it stops after one step.
"""
from __future__ import annotations

import math
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
# Rows per block of the information X'WX: each block's weighted copy is
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


def _bernoulli_loglik(y, one_minus_y, probs) -> float:
    p = probs.clip(_PROB_EPS, 1.0 - _PROB_EPS)
    return float(y @ np.log(p) + one_minus_y @ np.log1p(-p))


def _information(design, w) -> np.ndarray:
    """X'WX for W = diag(w), summed over blocks of ``_INFO_ROWS`` rows."""
    block = design[:_INFO_ROWS]
    info = block.T @ (block * w[:_INFO_ROWS, None])
    for start in range(_INFO_ROWS, design.shape[0], _INFO_ROWS):
        block = design[start:start + _INFO_ROWS]
        info += block.T @ (block * w[start:start + _INFO_ROWS, None])
    return info


def fit(y, design, link: Link, *, start=None) -> FittedModel:
    """Fisher-scoring maximum likelihood for one binary-response model.

    Scoring runs on ``design`` as given, in its columns' units, from
    ``start``, one finite coefficient per design column, or from zeros when
    it is None. Convergence requires at least one step, with the largest
    score component and the last step norm below 1e-8. Steps are halved
    while they would decrease the log-likelihood. Raises ValueError for a
    non-finite design or a start of the wrong shape or not finite,
    Separation when the coefficients diverge (norm above 1e3 with the
    likelihood still improving), RankDeficient for collinear designs, and
    NoConvergence at the iteration cap.
    """
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    n, m = design.shape
    if y.shape != (n,):
        raise ValueError("y length must match design rows")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("y must be coded 0/1")
    if y.min() == y.max():
        raise DegenerateOutcome("outcome is constant; need both events and non-events")
    if not np.isfinite(design).all():
        raise ValueError("design matrix must be finite")
    if start is None:
        beta = np.zeros(m)
    else:
        beta = np.array(start, dtype=float)
        if beta.shape != (m,):
            raise ValueError(f"start must hold {m} coefficients, got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("start must be finite")

    # The iterate: beta, eta = X beta, probs = G(eta) and the log-likelihood.
    one_minus_y = 1.0 - y
    eta = design @ beta
    probs = link.prob(eta)
    loglik = _bernoulli_loglik(y, one_minus_y, probs)
    last_step_norm = np.inf  # no fit ends before the first solve checks X'X

    for iteration in range(_MAX_ITER + 1):
        residual, w = link.score_and_weight(eta, y, probs)
        score = design.T @ residual
        info = _information(design, w)
        if abs(score).max() <= _SCORE_TOL and last_step_norm <= _STEP_TOL:
            break
        if iteration == _MAX_ITER:
            raise NoConvergence(f"Fisher scoring did not converge in {_MAX_ITER} iterations")

        try:
            step = numerics.solve_spd(info, score)
        except NotPositiveDefinite as exc:
            # X'WX with every weight w > 0 is singular exactly when X'X is;
            # at the start, before any step, a failure is the design's.
            if iteration == 0 and w.min() > 0.0:
                raise RankDeficient("design matrix is rank deficient (collinear columns)") from exc
            raise RankDeficient(f"singular information matrix: {exc}") from exc

        # Step-halving: never accept a likelihood decrease. The slack keeps
        # rounding noise in the log-likelihood (resolution ~ |ll| * eps)
        # from halving away full Newton steps near the optimum.
        slack = 1e-11 * (1.0 + abs(loglik))
        halvings = 0
        while True:
            new_beta = beta + step
            new_eta = design @ new_beta
            new_probs = link.prob(new_eta)
            new_loglik = _bernoulli_loglik(y, one_minus_y, new_probs)
            if not (new_loglik < loglik - slack and halvings < 30):
                break
            step *= 0.5
            halvings += 1

        improved = new_loglik > loglik
        beta, eta, probs, loglik = new_beta, new_eta, new_probs, new_loglik
        last_step_norm = math.sqrt(step @ step)

        if math.sqrt(beta @ beta) > _SEPARATION_NORM and improved:
            raise Separation(
                "coefficients diverging with the likelihood still improving; "
                "the data are (quasi-)separated and the MLE does not exist"
            )

    return FittedModel(
        coefficients=beta,
        linear_predictor=eta,
        fitted_probs=probs.clip(_PROB_EPS, 1.0 - _PROB_EPS),
        loglik=loglik,
        expected_information=info,
        iterations=iteration,
    )


def _fit_tagged(y, design, link, model_name: str, start=None) -> FittedModel:
    try:
        return fit(y, design, link, start=start)
    except FitError as exc:
        raise type(exc)(f"{model_name} model: {exc}", model=model_name) from exc


def _to_raw(model: FittedModel, shift, scale, model_name: str) -> FittedModel:
    """Restate the coefficients of a fit on (X - shift)/scale for the raw
    columns X: b = J^-1 b~ for J = diag(scale) + e0 shift'."""
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = model.coefficients / scale
        coefficients[0] -= shift @ coefficients
    if not np.isfinite(coefficients).all():
        raise FitError(f"{model_name} model: coefficients leave the double range", model_name)
    return replace(model, coefficients=coefficients)


def fit_nested(data: Dataset, link: Link) -> NestedFits:
    """Fit the expanded, base, and constant models on one dataset.

    Fisher scoring runs on [x, z] with each column but the intercept centred at
    its mean and divided by its root mean square about it (or by 1 when that is
    0), taken after an exact power-of-two scaling that keeps its squares in
    range in any units. That design is built once, in column-major order, and
    standardized in place; the base fit runs on its leading p columns, a view.
    The expanded and base coefficients are restated for the raw columns (a
    FitError past the double range); their information stays standardized. The
    base fit starts from the expanded fit's b-part (zeros when q = 0); the
    constant fit from its MLE, G^-1(ybar)."""
    p = data.p
    design = np.empty((data.n, p + data.q), order="F")
    design[:, :p] = data.x
    design[:, p:] = data.z
    # Largest |entry| into [1/2, 1): exact, so in-range columns keep every bit.
    power = np.frexp(np.maximum(design.max(axis=0), -design.min(axis=0)))[1]
    np.ldexp(design, -power, out=design)
    ones = data.x[:, 0]  # the intercept column: column sums are ones @ columns
    shift = ones @ design / data.n
    shift[0] = 0.0
    design -= shift
    scale = np.sqrt(np.einsum("ij,ij->j", design, design) / data.n)
    scale[scale == 0.0] = 1.0
    design /= scale
    shift, scale = np.ldexp(shift, power), np.ldexp(scale, power)
    expanded = _fit_tagged(data.y, design, link, "expanded")
    base_start = expanded.coefficients[:p] if data.q else None
    base = _fit_tagged(data.y, design[:, :p], link, "base", base_start)
    constant_start = [link.eta(data.ybar)]
    constant = _fit_tagged(data.y, np.ones((data.n, 1)), link, "constant", constant_start)
    expanded = _to_raw(expanded, shift, scale, "expanded")
    base = _to_raw(base, shift[:p], scale[:p], "base")
    return NestedFits(expanded=expanded, base=base, constant=constant, link=link, data=data,
                      scale=scale)


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
