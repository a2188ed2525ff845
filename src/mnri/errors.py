"""Exception types shared across the package."""


class MnriError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(MnriError):
    """A matrix required to be symmetric positive definite is not.

    Raised by Cholesky-based solves; for model fitting this usually
    signals collinear covariates.
    """


class FitError(MnriError):
    """Base class for model-fitting failures.

    ``model`` names the failing model ("expanded", "base", "constant")
    when the error surfaced from a nested fit.
    """

    def __init__(self, message: str, model: str | None = None):
        super().__init__(message)
        self.model = model


class NoConvergence(FitError):
    """Fisher scoring hit its iteration cap without converging."""


class Separation(FitError):
    """The maximum likelihood estimate diverges (separated data)."""


class RankDeficient(FitError):
    """The design matrix does not have full column rank."""


class DegenerateOutcome(MnriError):
    """The outcome vector is constant (event rate 0 or 1)."""


class AllTies(MnriError):
    """Every score difference is exactly zero; the sign vector vanishes."""


class TooFewDistinctValues(MnriError):
    """Not enough distinct values to place the requested spline knots."""


class ExcessiveFitFailures(MnriError):
    """More than 1% of simulation replicates failed to fit."""
