"""Tests for nested binary-response model fitting."""

import math

import numpy as np
import pytest
from scipy.special import expit

from mnri import glm, numerics
from mnri.errors import DegenerateOutcome, NoConvergence, RankDeficient, Separation
from mnri.glm import (
    LOGIT,
    PROBIT,
    Dataset,
    FittedModel,
    fit,
    fit_nested,
    information_blocks,
)


def make_data(n=250, seed=42, gamma=0.5, link=LOGIT):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    eta = -0.3 + 0.8 * x1 + gamma * z1
    y = (rng.random(n) < link.prob(eta)).astype(float)
    return Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z1[:, None])


def loglik_at(y, design, link, beta):
    p = np.clip(link.prob(design @ beta), 1e-12, 1 - 1e-12)
    return float(y @ np.log(p) + (1 - y) @ np.log1p(-p))


class TestDataset:
    def test_validates_binary_outcome(self):
        with pytest.raises(ValueError):
            Dataset(y=np.array([0.0, 2.0, 1.0]), x=np.ones((3, 1)), z=np.zeros((3, 1)))

    def test_constant_outcome_is_degenerate(self):
        with pytest.raises(DegenerateOutcome):
            Dataset(
                y=np.ones(60),
                x=np.column_stack([np.ones(60), np.arange(60.0)]),
                z=np.zeros((60, 1)),
            )

    def test_requires_intercept_column(self):
        y = np.array([0.0, 1.0] * 30)
        with pytest.raises(ValueError):
            Dataset(y=y, x=np.arange(60.0)[:, None], z=np.zeros((60, 1)))

    def test_arrays_read_only(self):
        data = make_data(80)
        with pytest.raises(ValueError):
            data.y[0] = 1.0

    def test_too_few_rows_for_dimensions(self):
        with pytest.raises(ValueError):
            Dataset(
                y=np.array([1.0, 0.0, 1.0]),
                x=np.column_stack([np.ones(3), np.arange(3.0)]),
                z=np.arange(3.0).reshape(3, 1),
            )


class TestFit:
    def test_intercept_only_closed_form(self):
        y = np.array([1.0] * 5 + [0.0] * 15)
        model = fit(y, np.ones((20, 1)), LOGIT)
        assert abs(model.coefficients[0] - math.log(0.25 / 0.75)) <= 1e-8

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_intercept_only_balanced_is_zero(self, link):
        y = np.array([1.0, 0.0] * 25)
        model = fit(y, np.ones((50, 1)), link)
        assert abs(model.coefficients[0]) <= 1e-8

    def test_score_zero_at_mle(self):
        data = make_data()
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, LOGIT)
        score = design.T @ (data.y - model.fitted_probs)
        assert np.max(np.abs(score)) <= 1e-7

    def test_probit_score_zero_at_mle(self):
        data = make_data(link=PROBIT, seed=3)
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, PROBIT)
        score = design.T @ PROBIT.score_residual(model.linear_predictor, data.y)
        assert np.max(np.abs(score)) <= 1e-7

    def test_gradient_matches_finite_differences(self):
        data = make_data(n=120, seed=9)
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, LOGIT)
        h = 1e-6
        for point in [model.coefficients, model.coefficients + 0.05]:
            analytic = design.T @ LOGIT.score_residual(design @ point, data.y)
            for j in range(design.shape[1]):
                step = np.zeros_like(point)
                step[j] = h
                fd = (
                    loglik_at(data.y, design, LOGIT, point + step)
                    - loglik_at(data.y, design, LOGIT, point - step)
                ) / (2 * h)
                assert abs(analytic[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_expected_information_matches_fd_hessian(self):
        # For the canonical logit the expected and observed information agree.
        data = make_data(n=60, seed=12)
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, LOGIT)
        beta = model.coefficients
        m = design.shape[1]
        h = 1e-5
        hessian = np.zeros((m, m))
        for j in range(m):
            step = np.zeros(m)
            step[j] = h

            def grad(b):
                return design.T @ LOGIT.score_residual(design @ b, data.y)

            hessian[:, j] = (grad(beta + step) - grad(beta - step)) / (2 * h)
        np.testing.assert_allclose(
            model.expected_information, -hessian, rtol=1e-3, atol=1e-6
        )

    def test_row_order_invariance(self):
        data = make_data(n=150, seed=21)
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, LOGIT)
        perm = np.random.default_rng(0).permutation(150)
        shuffled = fit(data.y[perm], design[perm], LOGIT)
        np.testing.assert_allclose(
            shuffled.coefficients, model.coefficients, atol=1e-6
        )

    def test_fitted_mean_equals_ybar_logit(self):
        data = make_data(n=200, seed=33)
        model = fit(data.y, np.hstack([data.x, data.z]), LOGIT)
        assert abs(model.fitted_probs.mean() - data.y.mean()) <= 1e-8

    def test_rank_deficient(self):
        data = make_data(n=100)
        design = np.column_stack([data.x, data.x[:, 1]])
        message = r"design matrix is rank deficient \(collinear columns\)"
        with pytest.raises(RankDeficient, match=message):
            fit(data.y, design, LOGIT)

    def test_rank_deficient_when_zero_is_the_mle(self):
        # X'(y - 1/2) = 0, so the score vanishes at beta = 0 before any step.
        y = np.array([0.0, 1.0, 0.0, 1.0])
        v = np.array([1.0, 1.0, 2.0, 2.0])
        design = np.column_stack([np.ones(4), v, v])
        with pytest.raises(RankDeficient, match="collinear columns"):
            fit(y, design, LOGIT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_rejected(self, bad):
        data = make_data(n=100)
        design = np.hstack([data.x, data.z])
        design[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit(data.y, design, LOGIT)

    def test_separation(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(100)
        y = (x1 > 0).astype(float)
        with pytest.raises((Separation, NoConvergence)):
            fit(y, np.column_stack([np.ones(100), x1]), LOGIT)

    def test_one_link_evaluation_per_trial_point(self, monkeypatch):
        data = make_data(n=400, seed=5)
        calls = []

        def counting_expit(eta):
            calls.append(1)
            return expit(eta)

        monkeypatch.setattr(glm, "expit", counting_expit)
        model = fit(data.y, np.hstack([data.x, data.z]), LOGIT)
        # No step is halved here, so each iteration tries one point.
        assert len(calls) == model.iterations + 1

    def test_constant_outcome(self):
        with pytest.raises(DegenerateOutcome):
            fit(np.ones(50), np.ones((50, 1)), LOGIT)


def reference_fit(y, design, link):
    """Fisher scoring as glm.fit does it, written with numpy's generic
    wrappers: ``np.clip``, ``1 - y`` formed at every log-likelihood,
    ``np.linalg.norm`` and ``numerics.solve_spd``. Returns the fitted
    model and the number of halved steps."""

    def loglik_of(probs):
        p = np.clip(probs, 1e-12, 1.0 - 1e-12)
        return float(y @ np.log(p) + (1.0 - y) @ np.log1p(-p))

    beta = np.zeros(design.shape[1])
    eta = design @ beta
    probs = link.prob(eta)
    loglik = loglik_of(probs)
    last_step_norm = np.inf
    total_halvings = 0
    for iteration in range(101):
        residual, w = link.score_and_weight(eta, y, probs)
        score = design.T @ residual
        info = design.T @ (design * w[:, None])
        if np.max(np.abs(score)) <= 1e-8 and last_step_norm <= 1e-8:
            break
        assert iteration < 100, "reference fit did not converge"
        step = numerics.solve_spd(info, score)
        slack = 1e-11 * (1.0 + abs(loglik))
        halvings = 0
        while True:
            new_beta = beta + step
            new_eta = design @ new_beta
            new_probs = link.prob(new_eta)
            new_loglik = loglik_of(new_probs)
            if not (new_loglik < loglik - slack and halvings < 30):
                break
            step *= 0.5
            halvings += 1
        total_halvings += halvings
        beta, eta, probs, loglik = new_beta, new_eta, new_probs, new_loglik
        last_step_norm = float(np.linalg.norm(step))
    model = FittedModel(
        coefficients=beta,
        linear_predictor=eta,
        fitted_probs=np.clip(probs, 1e-12, 1.0 - 1e-12),
        loglik=loglik,
        expected_information=info,
        iterations=iteration,
    )
    return model, total_halvings


def pin_case(seed):
    """A seeded (y, design, link): the nested designs of make_data at
    n = 60 to 500 for seeds below 24, otherwise a covariate with a few
    far, misclassified points, whose fits halve steps."""
    link = (LOGIT, PROBIT)[seed % 2]
    if seed < 24:
        n = (60, 120, 200, 350, 500)[seed % 5]
        data = make_data(n=n, seed=seed, link=link)
        columns = (np.ones((n, 1)), data.x, np.hstack([data.x, data.z]))
        return data.y, columns[seed % 3], link
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 501))
    big = rng.choice([5.0, 10.0, 30.0])
    k = int(rng.integers(1, 6))
    x = rng.standard_normal(n)
    y = (rng.random(n) < link.prob(rng.choice([2.0, 4.0, 8.0]) * x)).astype(float)
    far = rng.choice(n, k, replace=False)
    x[far] = big * np.sign(rng.standard_normal(k))
    y[far] = (x[far] < 0).astype(float)
    design = np.column_stack([np.ones(n), x]) if seed % 3 else x[:, None]
    return y, design, link


PIN_SEEDS = list(range(24)) + [570, 593, 639, 719, 754, 769]


class TestBitIdentity:
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_fit_matches_reference_bitwise(self, seed):
        y, design, link = pin_case(seed)
        model = fit(y, design, link)
        expected, _ = reference_fit(y, design, link)
        for name in (
            "coefficients", "linear_predictor", "fitted_probs", "expected_information",
        ):
            assert getattr(model, name).tobytes() == getattr(expected, name).tobytes(), name
        assert model.loglik == expected.loglik
        assert model.iterations == expected.iterations

    def test_pin_cases_cover_links_sizes_and_halving(self):
        cases = [pin_case(seed) for seed in PIN_SEEDS]
        assert {link.kind for _, _, link in cases} == {"logit", "probit"}
        sizes = [y.shape[0] for y, _, _ in cases]
        assert min(sizes) == 60 and max(sizes) == 500
        halved = {
            link.kind
            for y, design, link in cases
            if reference_fit(y, design, link)[1] > 0
        }
        assert halved == {"logit", "probit"}


class TestFitNested:
    def test_loglik_ordering(self):
        fits = fit_nested(make_data(), LOGIT)
        assert fits.expanded.loglik >= fits.base.loglik - 1e-8
        assert fits.base.loglik >= fits.constant.loglik - 1e-8

    def test_constant_probs_equal_ybar(self):
        fits = fit_nested(make_data(), LOGIT)
        np.testing.assert_allclose(
            fits.constant.fitted_probs, fits.data.ybar, atol=1e-10
        )

    def test_noise_covariate_gamma_near_zero(self):
        data = make_data(n=20_000, seed=77, gamma=0.0)
        fits = fit_nested(data, LOGIT)
        # gamma-hat ~ N(0, v/n): |gamma| under 4 sd of roughly sqrt(4/n)
        assert abs(fits.expanded.coefficients[-1]) <= 4 * math.sqrt(4.0 / 20_000)

    def test_collinear_z_tagged_expanded(self):
        data = make_data(n=100)
        clone = Dataset(y=data.y, x=data.x, z=data.x[:, [1]])
        with pytest.raises(RankDeficient) as excinfo:
            fit_nested(clone, LOGIT)
        assert excinfo.value.model == "expanded"
        assert "expanded" in str(excinfo.value)

    def test_iteration_cap_tagged_expanded(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as excinfo:
            fit_nested(make_data(), LOGIT)
        assert str(excinfo.value) == (
            "expanded model: Fisher scoring did not converge in 1 iterations"
        )
        assert excinfo.value.model == "expanded"


class TestScoreResiduals:
    def test_logit_identity(self):
        data = make_data(n=90, seed=2)
        fits = fit_nested(data, LOGIT)
        r = LOGIT.score_residual(fits.base.linear_predictor, data.y)
        np.testing.assert_array_equal(r, data.y - LOGIT.prob(fits.base.linear_predictor))

    def test_probit_at_zero(self):
        model = FittedModel(
            coefficients=np.zeros(1),
            linear_predictor=np.zeros(1),
            fitted_probs=np.array([0.5]),
            loglik=0.0,
            expected_information=np.eye(1),
            iterations=0,
        )
        r = PROBIT.score_residual(model.linear_predictor, np.array([1.0]))
        # phi(0) / (0.5 * 0.5) * (1 - 0.5)
        assert abs(r[0] - 0.7978845608) <= 1e-9

    def test_sum_zero_at_mle_with_intercept(self):
        for link in (LOGIT, PROBIT):
            data = make_data(n=140, seed=8, link=link)
            fits = fit_nested(data, link)
            r = link.score_residual(fits.base.linear_predictor, data.y)
            assert abs(r.sum()) <= 1e-6


class TestInformationBlocks:
    def test_hand_computed_blocks(self):
        # p = q = 1 so every block is scalar arithmetic on the weights.
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        x = np.ones((8, 1))
        z = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.1, -1.6, 0.2])[:, None]
        model = fit(y, np.hstack([x, z]), LOGIT)
        blocks = information_blocks(model, 1)
        w = model.fitted_probs * (1 - model.fitted_probs)
        n = 8
        bb = np.sum(w) / n
        bg = np.sum(w * z[:, 0]) / n
        gg = np.sum(w * z[:, 0] ** 2) / n
        assert abs(blocks.bb[0, 0] - bb) <= 1e-12
        assert abs(blocks.bg[0, 0] - bg) <= 1e-12
        assert abs(blocks.gg[0, 0] - gg) <= 1e-12
        assert abs(blocks.gamma_cov[0, 0] - 1.0 / (gg - bg**2 / bb)) <= 1e-10

    def test_orthogonal_blocks(self):
        # z made exactly orthogonal to the x columns under the information
        # weights: the off-diagonal block vanishes and the gamma covariance
        # is just the inverse of the gamma block.
        rng = np.random.default_rng(55)
        n = 120
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        z = rng.standard_normal(n)
        probs = 1.0 / (1.0 + np.exp(-(0.3 + 0.5 * x[:, 1])))
        w = probs * (1 - probs)
        z_orth = z - x @ np.linalg.solve(x.T @ (x * w[:, None]), x.T @ (w * z))
        design = np.column_stack([x, z_orth])
        model = FittedModel(
            coefficients=np.zeros(3),
            linear_predictor=np.log(probs / (1 - probs)),
            fitted_probs=probs,
            loglik=0.0,
            expected_information=design.T @ (design * w[:, None]),
            iterations=0,
        )
        blocks = information_blocks(model, 2)
        assert np.abs(blocks.bg).max() <= 1e-12
        np.testing.assert_allclose(
            blocks.gamma_cov, np.linalg.inv(blocks.gg), rtol=1e-10
        )

    def test_gamma_cov_symmetric_positive_definite(self):
        rng = np.random.default_rng(14)
        n = 300
        x1 = rng.standard_normal(n)
        z = rng.standard_normal((n, 2)) + 0.4 * x1[:, None]
        eta = 0.2 + 0.6 * x1 + 0.3 * z[:, 0] - 0.2 * z[:, 1]
        y = (rng.random(n) < LOGIT.prob(eta)).astype(float)
        data = Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z)
        fits = fit_nested(data, LOGIT)
        blocks = information_blocks(fits.expanded, 2)
        np.testing.assert_allclose(blocks.gamma_cov, blocks.gamma_cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(blocks.gamma_cov) > 0)
