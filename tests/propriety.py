"""Monte Carlo propriety check of the single-draw mNRI scoring function,
shared by the acceptance suite and the sim tests."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from mnri.sim import DEFAULT_SEED


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
