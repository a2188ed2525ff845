"""Maximum-likelihood fitting of nested binary-response models.

The model family is

    Pr(Y = 1)          = G(b.)            constant model
    Pr(Y = 1 | x)      = G(b0' x)         base model
    Pr(Y = 1 | x, z)   = G(b' x + g' z)   expanded model

for a monotone inverse link G (logistic or probit). Fitting is Fisher
scoring on the Bernoulli log-likelihood with step-halving. The inverse
link is evaluated once per iterate: the probabilities of an accepted step
feed the next score, the next information and, at convergence, the fitted
model. Fits carry the expected information evaluated at the MLE so
downstream code can form the partitioned information blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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

    @property
    def n(self) -> int:
        return self.fitted_probs.shape[0]


@dataclass(frozen=True)
class NestedFits:
    """The (expanded, base, constant) model triple on one dataset."""

    expanded: FittedModel
    base: FittedModel
    constant: FittedModel
    link: Link
    data: Dataset


@dataclass(frozen=True)
class InformationBlocks:
    """Partition of the per-observation expected information for (b, g).

    ``gamma_cov`` is the gg block of the full inverse, i.e. the inverse
    Schur complement (I_gg - I_gb I_bb^-1 I_bg)^-1, which is the
    asymptotic covariance of sqrt(n) (g_hat - g0).
    """

    bb: np.ndarray
    bg: np.ndarray
    gg: np.ndarray
    gamma_cov: np.ndarray


def _bernoulli_loglik(y, one_minus_y, probs) -> float:
    p = probs.clip(_PROB_EPS, 1.0 - _PROB_EPS)
    return float(y @ np.log(p) + one_minus_y @ np.log1p(-p))


def fit(y, design, link: Link) -> FittedModel:
    """Fisher-scoring maximum likelihood for one binary-response model.

    Convergence requires at least one step, with the largest score
    component and the last step norm below 1e-8. Steps are halved while
    they would decrease the log-likelihood. Raises ValueError for a
    non-finite design, Separation when the coefficients diverge (norm
    above 1e3 with the likelihood still improving), RankDeficient for
    collinear designs, and NoConvergence at the iteration cap.
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

    # The iterate: beta, eta = X beta, probs = G(eta) and the log-likelihood.
    one_minus_y = 1.0 - y
    beta = np.zeros(m)
    eta = design @ beta
    probs = link.prob(eta)
    loglik = _bernoulli_loglik(y, one_minus_y, probs)
    last_step_norm = np.inf  # no fit ends before the first solve checks X'X

    for iteration in range(_MAX_ITER + 1):
        residual, w = link.score_and_weight(eta, y, probs)
        score = design.T @ residual
        info = design.T @ (design * w[:, None])
        if abs(score).max() <= _SCORE_TOL and last_step_norm <= _STEP_TOL:
            break
        if iteration == _MAX_ITER:
            raise NoConvergence(f"Fisher scoring did not converge in {_MAX_ITER} iterations")

        try:
            step = numerics.solve_spd(info, score)
        except NotPositiveDefinite as exc:
            if iteration == 0:  # equal weights at beta = 0: info is a multiple of X'X
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


def _fit_tagged(y, design, link, model_name: str) -> FittedModel:
    try:
        return fit(y, design, link)
    except FitError as exc:
        raise type(exc)(f"{model_name} model: {exc}", model=model_name) from exc


def fit_nested(data: Dataset, link: Link) -> NestedFits:
    """Fit the expanded, base, and constant models on one dataset."""
    expanded_design = np.hstack([data.x, data.z])
    expanded = _fit_tagged(data.y, expanded_design, link, "expanded")
    base = _fit_tagged(data.y, data.x, link, "base")
    constant = _fit_tagged(data.y, np.ones((data.n, 1)), link, "constant")
    return NestedFits(expanded=expanded, base=base, constant=constant, link=link, data=data)


def information_blocks(expanded: FittedModel, n_base: int) -> InformationBlocks:
    """Partition the per-observation expected information of an expanded
    fit into base (first ``n_base`` coefficients) and new blocks."""
    info = np.asarray(expanded.expected_information, dtype=float) / expanded.n
    bb = info[:n_base, :n_base]
    bg = info[:n_base, n_base:]
    gg = info[n_base:, n_base:]
    schur = gg - bg.T @ numerics.solve_spd(bb, bg)
    gamma_cov = numerics.inv_spd(schur)
    return InformationBlocks(bb=bb, bg=bg, gg=gg, gamma_cov=gamma_cov)
