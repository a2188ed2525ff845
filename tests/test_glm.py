"""Tests for nested binary-response model fitting."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from mnri import glm, numerics, sim
from mnri.errors import DegenerateOutcome, FitError, NoConvergence, RankDeficient, Separation
from mnri.glm import (
    LOGIT,
    PROBIT,
    Dataset,
    FittedModel,
    NestedFits,
    fit,
    fit_nested,
    information_blocks,
)
from mnri.reclass import TrainTestPair, half_nris

from conftest import stacked


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

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_no_observations_are_too_few_rows(self, shape):
        # The constant-outcome check has no row to read and leaves them to
        # the row count.
        with pytest.raises(ValueError, match="^too few rows for the covariate dimensions$"):
            Dataset(np.empty(shape), np.ones((*shape, 2)), np.empty((*shape, 1)))


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

    @staticmethod
    def count_link_evaluations(monkeypatch) -> list:
        """A list that gains an entry at each ``Link.prob`` call."""
        calls, prob = [], glm.Link.prob

        def counting_prob(link, eta):
            calls.append(1)
            return prob(link, eta)

        monkeypatch.setattr(glm.Link, "prob", counting_prob)
        return calls

    def test_one_link_evaluation_per_trial_point(self, monkeypatch):
        data = make_data(n=400, seed=5)
        calls = self.count_link_evaluations(monkeypatch)
        model = fit(data.y, np.hstack([data.x, data.z]), LOGIT)
        # No step is halved here, so each iteration tries one point.
        assert len(calls) == model.iterations + 1

    def test_one_link_evaluation_per_trial_point_from_a_start(self, monkeypatch):
        data = make_data(n=400, seed=5)
        design = np.hstack([data.x, data.z])
        start = 0.5 * fit(data.y, design, LOGIT).coefficients
        calls = self.count_link_evaluations(monkeypatch)
        model = fit(data.y, design, LOGIT, start=start)
        assert len(calls) == model.iterations + 1

    @pytest.mark.parametrize(
        "start, message",
        [
            (np.zeros(2), "start must hold 3 coefficients"),
            (np.zeros(4), "start must hold 3 coefficients"),
            (np.zeros((3, 1)), "start must hold 3 coefficients"),
            (np.array([0.0, np.nan, 0.0]), "start must be finite"),
            (np.array([0.0, 0.0, -np.inf]), "start must be finite"),
        ],
    )
    def test_invalid_start_rejected(self, start, message):
        data = make_data(n=100)
        with pytest.raises(ValueError, match=message):
            fit(data.y, np.hstack([data.x, data.z]), LOGIT, start=start)

    def test_start_with_vanishing_weights_is_not_blamed_on_the_design(self):
        # At eta = 100, 200, 300 the logit weights underflow to 0, so X'WX
        # has rank 1 although the design's columns are independent.
        y = np.array([0.0, 1.0, 0.0, 1.0])
        design = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(RankDeficient, match="singular information matrix"):
            fit(y, design, LOGIT, start=np.array([0.0, 100.0]))

    @staticmethod
    def spread_weights_case():
        """y and [1, x1] with cond(X'X) = 4.1, whose probit weights at
        b = (0, 8) span 239 orders of magnitude."""
        x1 = np.array([-3.0, -2.5, -2.0, -1.5, -1.0, 0.1, 1.0, 1.5, 2.0, 2.5, 3.0])
        y = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        return y, np.column_stack([np.ones(11), x1])

    def test_start_with_spread_weights_is_not_blamed_on_the_design(self):
        # Every weight is positive, yet X'WX fails the pivot rule at the
        # start while X'X passes it; from zero the fit converges.
        y, design = self.spread_weights_case()
        with pytest.raises(RankDeficient, match="^singular information matrix: Cholesky pivot "
                                                "at index 1 is not above tolerance"):
            fit(y, design, PROBIT, start=np.array([0.0, 8.0]))
        np.testing.assert_allclose(fit(y, design, PROBIT).coefficients, [-0.169, 0.443],
                                   atol=5e-4)

    def test_collinear_design_from_a_start_is_the_design(self):
        y, design = self.spread_weights_case()
        design = np.column_stack([design, 2.0 * design[:, 1]])
        with pytest.raises(RankDeficient,
                           match=r"^design matrix is rank deficient \(collinear columns\)$"):
            fit(y, design, PROBIT, start=np.array([0.0, 8.0, 0.0]))

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_zero_start_is_the_default(self, link):
        data = make_data(n=300, seed=6, link=link)
        design = np.hstack([data.x, data.z])
        model = fit(data.y, design, link)
        started = fit(data.y, design, link, start=np.zeros(3))
        for name in (
            "coefficients", "linear_predictor", "fitted_probs", "expected_information",
        ):
            assert getattr(started, name).tobytes() == getattr(model, name).tobytes(), name
        assert started.loglik == model.loglik
        assert started.iterations == model.iterations

    def test_constant_outcome(self):
        with pytest.raises(DegenerateOutcome):
            fit(np.ones(50), np.ones((50, 1)), LOGIT)


def reference_fit(y, design, link):
    """Fisher scoring as glm.fit does it, written with numpy's generic
    wrappers: ``np.clip``, ``1 - y`` formed at every log-likelihood,
    ``np.linalg.norm`` and ``numerics.solve_spd_rows`` on a stack of one.
    Returns the fitted model and the number of halved steps."""

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
        (step,), singular = numerics.solve_spd_rows(info[None], score[None])
        assert not singular, "reference fit met a singular information"
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


def batch_cases(n=200):
    """A batch of outcomes (R, n) and designs stored (R, m, n), m = 3: five
    ordinary rows, then a separated row and a collinear row."""
    ys, stored = [], []
    for seed in range(5):
        data = make_data(n=n, seed=seed, gamma=0.3 * seed)
        ys.append(data.y)
        stored.append(np.hstack([data.x, data.z]).T)
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal(n)
    ys.append((x1 > 0).astype(float))
    stored.append(np.array([np.ones(n), x1, rng.standard_normal(n)]))
    ys.append(make_data(n=n, seed=7).y)
    stored.append(np.array([np.ones(n), x1, 2.0 * x1]))
    return np.array(ys), np.array(stored)


def rows_of(batch) -> list:
    """Each row of a BatchFit: its FittedModel, or its FitError."""
    return [batch.errors.get(r) or glm._taken(batch.fits, r)
            for r in range(len(batch.fits.loglik))]


def assert_same_fit(got, want):
    for name in ("coefficients", "linear_predictor", "fitted_probs", "expected_information"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.loglik == want.loglik
    assert got.iterations == want.iterations


def raised_by(call):
    try:
        call()
    except FitError as exc:
        return exc
    raise AssertionError("expected a FitError")


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "model", None) == getattr(want, "model", None)


class TestBatch:
    # A batch runs each row's arithmetic: every row matches fit on that row's
    # design in column-major order, to the bit, and a failing row gets the
    # error fit raises on it alone, while the other rows go on.
    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    @pytest.mark.parametrize("layout", ["column-major", "row-major"])
    def test_rows_match_single_fits(self, link, layout):
        y, stored = batch_cases()
        design = stored.transpose(0, 2, 1)
        batch = fit(y, design if layout == "column-major" else np.ascontiguousarray(design), link)
        assert type(batch.iterations) is int
        fitted, rows = [], rows_of(batch)
        for r, got in enumerate(rows):
            alone = np.asfortranarray(design[r])
            if r < 5:
                assert_same_fit(got, fit(y[r], alone, link))
                fitted.append(got.iterations)
            else:
                assert_same_error(got, raised_by(lambda: fit(y[r], alone, link)))
        assert isinstance(rows[5], (Separation, NoConvergence))
        assert isinstance(rows[6], RankDeficient)
        assert batch.iterations >= max(fitted)

    def test_rows_match_single_fits_from_starts(self):
        y, stored = batch_cases()
        y, design = y[:5], stored[:5].transpose(0, 2, 1)
        start = 0.5 * np.array([fit(y[r], design[r], LOGIT).coefficients for r in range(5)])
        batch = fit(y, design, LOGIT, start=start)
        for r, got in enumerate(rows_of(batch)):
            assert_same_fit(got, fit(y[r], design[r], LOGIT, start=start[r]))

    def test_batch_input_errors_are_raised(self):
        y, stored = batch_cases()
        design = stored.transpose(0, 2, 1)
        with pytest.raises(ValueError, match="start must hold 3 coefficients"):
            fit(y, design, LOGIT, start=np.zeros(3))

    def test_empty_batch_has_no_fits(self):
        y, stored = batch_cases()
        empty = fit(y[:0], stored[:0].transpose(0, 2, 1), LOGIT)
        assert (rows_of(empty), empty.iterations) == ([], 0)

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_fit_nested_rows_match_single_datasets(self, link):
        datasets = [make_data(n=200, seed=seed, gamma=0.4, link=link) for seed in range(4)]
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(200)
        separated = Dataset(y=(x1 > 0).astype(float), x=np.column_stack([np.ones(200), x1]),
                            z=rng.standard_normal((200, 1)))
        collinear = Dataset(y=datasets[0].y, x=datasets[0].x, z=datasets[0].x[:, [1]])
        datasets[2:2] = [separated, collinear]
        fits = fit_nested(stacked(datasets), link)
        results = [fits.errors.get(r) or glm._taken(fits, r) for r in range(len(datasets))]
        assert [isinstance(got, FitError) for got in results] == [False] * 2 + [True] * 2 + [False] * 2
        for data, got in zip(datasets, results):
            if isinstance(got, FitError):
                assert_same_error(got, raised_by(lambda: fit_nested(data, link)))
                continue
            want = fit_nested(data, link)
            for name in ("expanded", "base", "constant"):
                assert_same_fit(getattr(got, name), getattr(want, name))
            assert got.scale.tobytes() == want.scale.tobytes()
            assert [getattr(got.data, name).tobytes() for name in "yxz"] == [
                getattr(data, name).tobytes() for name in "yxz"]

    def test_fit_nested_fits_later_models_on_rows_that_fit(self, monkeypatch):
        # A row whose expanded fit fails leaves the batch: the base and
        # constant fits hold the other rows, and one dataset stops at once.
        good = make_data(n=200, seed=1)
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(200)
        separated = Dataset(y=(x1 > 0).astype(float), x=np.column_stack([np.ones(200), x1]),
                            z=rng.standard_normal((200, 1)))
        collinear = Dataset(y=good.y, x=good.x, z=good.x[:, [1]])
        rows, original = [], glm.fit

        def counted(y, design, link, **kwargs):
            rows.append(len(design) if design.ndim == 3 else None)
            return original(y, design, link, **kwargs)

        monkeypatch.setattr(glm, "fit", counted)
        mixed = fit_nested(stacked([separated, good, collinear, good]), LOGIT)
        assert rows == [4, 2, 2]
        assert {r: type(got) for r, got in mixed.errors.items()} == {0: Separation,
                                                                     2: RankDeficient}
        rows.clear()
        failed = fit_nested(stacked([separated, collinear]), LOGIT)
        assert rows == [2, 0, 0]
        for r, data in enumerate((separated, collinear)):
            assert_same_error(failed.errors[r], raised_by(lambda: fit_nested(data, LOGIT)))
        rows.clear()
        with pytest.raises(Separation, match="expanded model"):
            fit_nested(separated, LOGIT)
        assert rows == [1]

    def test_fit_nested_batch_needs_one_shape(self):
        # A batch is a stacked Dataset, of one shape by construction; a list
        # of datasets, of one shape or not, or of none, is no batch.
        for datasets in ([make_data(n=200), make_data(n=200)],
                         [make_data(n=200), make_data(n=201)], []):
            with pytest.raises(TypeError, match=r"stack \(R, n\)"):
                fit_nested(datasets, LOGIT)


def failing_cases(n=200):
    """A batch of outcomes (R, n) and designs (R, n, 3) whose every row fails
    alone: two separated rows, the second with its slope column 0.003 times
    smaller, so that it separates at the third iteration; a collinear row
    whose score vanishes at the start, so that its singular first step
    leaves it with no step and no score; a collinear row; and a separated
    row with its slope column 100 times larger, whose information turns
    singular late."""
    rng = np.random.default_rng(9)
    x1, noise = rng.standard_normal((2, n))
    one, v = np.ones(n), np.repeat(np.arange(1.0, n // 2 + 1), 2)
    sign = (x1 > 0).astype(float)
    y = [sign, sign, np.tile([0.0, 1.0], n // 2), (x1 > 0.5).astype(float), sign]
    designs = [[one, x1, noise], [one, 0.003 * x1, noise], [one, v, v], [one, x1, 2.0 * x1],
               [one, 100.0 * x1, noise]]
    return np.array(y), np.array(designs).transpose(0, 2, 1)


class TestOneExitPoint:
    # A row leaves Fisher scoring once it converges or fails; a failed row
    # holds the error fit raises on it alone, whatever fails beside it, and
    # no later test of the loop reads it.
    @pytest.mark.parametrize("link, iterations, separated_iterations",
                             [(LOGIT, 49, 14), (PROBIT, 44, 20)])
    def test_batch_whose_every_row_fails(self, link, iterations, separated_iterations):
        y, design = failing_cases()
        batch = fit(y, design, link)
        assert batch.iterations == iterations
        # A failed row holds zeros, not the point it failed at.
        assert not batch.fits.loglik.any() and not batch.fits.iterations.any()
        assert [type(batch.errors[r]) for r in range(len(y))] == [Separation] * 2 + [
            RankDeficient] * 3
        for r, got in enumerate(rows_of(batch)):
            assert_same_error(got, raised_by(lambda: fit(y[r], design[r], link)))
        # Without the late singular row the batch ends with its slowest
        # separated row, at the iteration it fails in.
        assert fit(y[:4], design[:4], link).iterations == separated_iterations

    def test_iteration_cap_ends_rows_as_alone(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 3)
        slow = make_data(n=200)
        y, design = failing_cases()
        y = np.concatenate([slow.y[None], y[1:4]])
        design = np.concatenate([np.hstack([slow.x, slow.z])[None], design[1:4]])
        batch = fit(y, design, LOGIT)
        assert batch.iterations == 3
        assert not batch.fits.loglik.any() and not batch.fits.iterations.any()
        # The separated row fails in the last iteration before the cap.
        assert [type(batch.errors[r]) for r in range(4)] == [
            NoConvergence, Separation, RankDeficient, RankDeficient]
        for r, got in enumerate(rows_of(batch)):
            assert_same_error(got, raised_by(lambda: fit(y[r], design[r], LOGIT)))
        assert fit(y[1:], design[1:], LOGIT).iterations == 2


class TestRows:
    # One helper takes every selection of a batch's rows: a run of rows as a
    # slice, so that what it takes is a view.
    def test_one_run_is_a_slice(self):
        assert glm._rows(np.array([False, True, True, False])) == slice(1, 3)
        assert glm._rows(np.array([2, 3, 4])) == slice(2, 5)
        values = np.arange(4.0)
        assert np.shares_memory(values[glm._rows(np.array([False, True, True, False]))], values)

    def test_gapped_rows_are_an_index(self):
        taken = glm._rows(np.array([True, False, True]))
        assert taken.tolist() == [0, 2]
        assert glm._rows(np.array([0, 2])).tolist() == [0, 2]

    def test_no_rows_are_an_empty_index(self):
        taken = glm._rows(np.zeros(3, dtype=bool))
        assert taken.size == 0
        assert np.arange(3.0)[taken].shape == (0,)


class TestStackedFitNested:
    # fit_nested on a stacked Dataset returns stacked NestedFits: each row holds
    # the bits fit_nested gives that row's dataset alone, and a failed row's
    # FitError is in ``errors``.
    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_rows_match_datasets_alone(self, link):
        datasets = [make_data(n=200, seed=seed, gamma=0.4, link=link) for seed in range(4)]
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(200)
        datasets[1:1] = [
            Dataset(y=(x1 > 0).astype(float), x=np.column_stack([np.ones(200), x1]),
                    z=rng.standard_normal((200, 1))),
            Dataset(y=datasets[0].y, x=datasets[0].x, z=datasets[0].x[:, [1]]),
        ]
        fits = fit_nested(stacked(datasets), link)
        assert sorted(fits.errors) == [1, 2]
        for r, data in enumerate(datasets):
            if r in fits.errors:
                assert_same_error(fits.errors[r], raised_by(lambda: fit_nested(data, link)))
                continue
            alone = fit_nested(data, link)
            for name in ("expanded", "base", "constant"):
                got, want = getattr(fits, name), getattr(alone, name)
                for field in ("coefficients", "linear_predictor", "fitted_probs",
                              "expected_information"):
                    assert getattr(got, field)[r].tobytes() == getattr(want, field).tobytes()
                assert got.loglik[r] == want.loglik
                assert got.iterations[r] == want.iterations
            assert fits.scale[r].tobytes() == alone.scale.tobytes()

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError, match="at least one dataset"):
            Dataset(np.empty((0, 300)), np.ones((0, 300, 2)), np.empty((0, 300, 1)))

    def test_bad_stacks_are_value_errors(self):
        data = stacked([make_data(n=100, seed=seed) for seed in range(3)])
        half = np.array(data.y)
        half[1, 4] = 0.5
        with pytest.raises(ValueError, match="0/1"):
            fit_nested(Dataset(y=half, x=data.x, z=data.z), LOGIT)
        for bad in (np.inf, np.nan):
            z = np.array(data.z)
            z[2, 7, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_nested(Dataset(y=data.y, x=data.x, z=z), LOGIT)
        for x, z in ((data.x[:2], data.z), (data.x, data.z[:, :99]), (data.x[0], data.z)):
            with pytest.raises(ValueError):
                fit_nested(Dataset(y=data.y, x=x, z=z), LOGIT)

    def test_train_test_change_reads_the_raw_draw(self):
        # The train/test score change takes the raw test x and z: far from
        # unit scale, they must come out of the in-place standardization as
        # they went in, and a pair of stacked rows reads as the pair alone.
        def far(seed):
            data = make_data(n=300, seed=seed)
            return Dataset(y=data.y, x=np.column_stack([np.ones(300), 1e3 * data.x[:, 1] + 500.0]),
                           z=1e-3 * data.z - 7.0)

        train, test = far(21), far(22)
        data = stacked([train, test])
        raw = data.x.tobytes(), data.z.tobytes()
        fits = fit_nested(data, LOGIT)
        assert (data.x.tobytes(), data.z.tobytes()) == raw
        pair = TrainTestPair(glm._taken(fits, np.array([0])), glm._taken(fits, np.array([1])))
        alone = half_nris(TrainTestPair(fit_nested(train, LOGIT), fit_nested(test, LOGIT)))
        got = half_nris(pair)
        for name, value in vars(alone).items():
            assert getattr(got, name).tobytes() == np.float64(value).tobytes(), name


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

    # Warm and cold fits of one model agree to the accuracy of the stopping
    # rule (last step below 1e-8). Under the logit, Fisher scoring is
    # Newton's method and converges quadratically; under the probit it
    # converges linearly, and at n = 200 a cold fit itself can stop about
    # 7e-10 (relative) from the fully converged MLE.
    COEF_RTOL = {"logit": 1e-10, "probit": 1e-8}

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    @pytest.mark.parametrize("n", [200, 20_000])
    def test_warm_fits_agree_with_cold_fits(self, link, gamma, n):
        data = make_data(n=n, seed=n + 7, gamma=gamma, link=link)
        fits = fit_nested(data, link)
        cold_base = fit(data.y, data.x, link)
        cold_constant = fit(data.y, np.ones((n, 1)), link)
        for warm, cold in ((fits.base, cold_base), (fits.constant, cold_constant)):
            np.testing.assert_allclose(
                warm.coefficients, cold.coefficients, rtol=self.COEF_RTOL[link.kind], atol=1e-12
            )
            assert abs(warm.loglik - cold.loglik) <= max(1e-10 * abs(cold.loglik), 1e-12)
        assert fits.constant.iterations == 1

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    @pytest.mark.parametrize("n", [200, 20_000])
    def test_uncentred_new_covariate(self, link, n):
        # A calendar-year-like z puts the raw expanded intercept near -100;
        # the base fit, started from the expanded fit in standardized
        # columns, must still agree with a cold fit on the raw base design.
        rng = np.random.default_rng(n + 11)
        x1 = rng.standard_normal(n)
        year = 2000.0 + 10.0 * rng.standard_normal(n)
        y = (rng.random(n) < link.prob(-0.3 + 0.8 * x1 + 0.05 * (year - 2000.0))).astype(float)
        data = Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=year[:, None])
        fits = fit_nested(data, link)
        assert fits.expanded.coefficients[0] < -50.0
        cold_base = fit(data.y, data.x, link)
        np.testing.assert_allclose(
            fits.base.coefficients, cold_base.coefficients,
            rtol=self.COEF_RTOL[link.kind], atol=1e-12,
        )
        assert abs(fits.base.loglik - cold_base.loglik) <= 1e-10 * abs(cold_base.loglik)

    # (link, n, g, recoded column, a, b, relative tolerance): one covariate
    # recoded as a * value + b. Fisher scoring on the raw columns failed on
    # most of these, or fitted them far from the centred data. The 1.7e9
    # shift rounds z itself to about 2e-7.
    AFFINE_CASES = [
        *[(link, n, g, "z", 1.0, 2000.0, 1e-10)
          for link in (LOGIT, PROBIT) for n in (200, 20_000) for g in (0.5, 0.05)],
        *[(link, 20_000, 0.5, "x", 1.0, 500.0, 1e-10) for link in (LOGIT, PROBIT)],
        *[(link, 200, 0.5, "z", 1e-4, 0.0, 1e-10) for link in (LOGIT, PROBIT)],
        *[(link, 200, 0.5, "z", 1e4, 50.0, 1e-10) for link in (LOGIT, PROBIT)],
        *[(link, n, 0.5, "z", 1.0, 1.7e9, 1e-6)
          for link in (LOGIT, PROBIT) for n in (200, 20_000)],
    ]

    @pytest.mark.parametrize(
        "link, n, gamma, column, a, b, rtol", AFFINE_CASES,
        ids=[f"{c[0].kind}-n{c[1]}-g{c[2]}-{c[3]}*{c[4]:g}+{c[5]:g}" for c in AFFINE_CASES],
    )
    def test_affine_recoding_matches_centred_data(self, link, n, gamma, column, a, b, rtol):
        rng = np.random.default_rng(n + 26)
        x1, z = rng.standard_normal((2, n))
        y = (rng.random(n) < link.prob(-0.3 + 0.8 * x1 + gamma * z)).astype(float)
        x1, z = x1 - x1.mean(), z - z.mean()

        def nested(x1, z):
            data = Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z[:, None])
            return fit_nested(data, link)

        centred = nested(x1, z)
        recoded = nested(a * x1 + b, z) if column == "x" else nested(x1, a * z + b)

        def assert_close(got, want):
            gap = np.max(np.abs(np.subtract(got, want)))
            assert gap <= rtol * np.max(np.abs(want)), (got, want)

        slope = 1 if column == "x" else 2
        for got, want in ((recoded.expanded, centred.expanded), (recoded.base, centred.base)):
            assert_close(got.linear_predictor, want.linear_predictor)
            assert_close(got.fitted_probs, want.fitted_probs)
            assert_close(got.loglik, want.loglik)
            if slope < got.coefficients.shape[0]:
                # Recoding multiplies the covariate by a and so divides its slope by a.
                assert_close(a * got.coefficients[slope], want.coefficients[slope])
        for name, want in vars(half_nris(centred)).items():
            assert_close(getattr(half_nris(recoded), name), want)

    @pytest.mark.parametrize("power", [600, -600])
    @pytest.mark.parametrize("column", [1, 2], ids=["x", "z"])
    def test_any_units_give_the_same_fit(self, column, power):
        # A covariate times 2^600 (or 2^-600) has squares past the double
        # range, so its root mean square overflowed (underflowed) and the
        # expanded design looked rank deficient. Every scaling of a column
        # is by a power of two, so the fits are the same to the bit, the
        # covariate's slope divided by 2^power.
        data = make_data(n=300, seed=5)
        design = np.column_stack([data.x, data.z])
        design[:, column] = np.ldexp(design[:, column], power)
        rescaled = Dataset(y=data.y, x=design[:, :2], z=design[:, 2:])
        got, want = fit_nested(rescaled, LOGIT), fit_nested(data, LOGIT)
        for g, w in ((got.expanded, want.expanded), (got.base, want.base)):
            np.testing.assert_array_equal(g.fitted_probs, w.fitted_probs)
            assert g.loglik == w.loglik
            coefficients = w.coefficients.copy()
            if column < coefficients.shape[0]:
                coefficients[column] = np.ldexp(coefficients[column], -power)
            np.testing.assert_array_equal(g.coefficients, coefficients)
        assert half_nris(got) == half_nris(want)
        if column == 1:
            np.testing.assert_array_equal(information_blocks(got), information_blocks(want))
        else:
            # The information on z itself, times 2^(2 power), is out of range.
            with pytest.raises(FitError, match="leaves the double range") as excinfo:
                information_blocks(got)
            assert excinfo.value.model == "expanded"

    @pytest.mark.parametrize("column", [1, 2], ids=["x", "z"])
    def test_subnormal_column_is_fit_error(self, column):
        # Scaled into [1/2, 1), a covariate times 2^-1070 fits, but its slope
        # in its own units, about 2^1070, is past the double range.
        data = make_data(n=300, seed=5)
        design = np.column_stack([data.x, data.z])
        design[:, column] = np.ldexp(design[:, column], -1070)
        tiny = Dataset(y=data.y, x=design[:, :2], z=design[:, 2:])
        with pytest.raises(FitError, match="coefficients leave the double range") as excinfo:
            fit_nested(tiny, LOGIT)
        assert excinfo.value.model == "expanded"

    @pytest.mark.parametrize("value", [3.0, 0.1, 2000.3])
    def test_constant_z_tagged_expanded(self, value):
        data = make_data(n=100)
        clone = Dataset(y=data.y, x=data.x, z=np.full((100, 1), value))
        with pytest.raises(RankDeficient) as excinfo:
            fit_nested(clone, LOGIT)
        assert excinfo.value.model == "expanded"
        assert str(excinfo.value) == (
            "expanded model: design matrix is rank deficient (collinear columns)"
        )

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_base_is_expanded_without_new_columns(self, link):
        data = make_data(n=200, seed=4, link=link)
        fits = fit_nested(Dataset(y=data.y, x=data.x, z=np.empty((200, 0))), link)
        for name in (
            "coefficients", "linear_predictor", "fitted_probs", "expected_information",
        ):
            assert getattr(fits.base, name).tobytes() == getattr(fits.expanded, name).tobytes()
        assert fits.base.loglik == fits.expanded.loglik
        assert fits.base.iterations == fits.expanded.iterations
        assert information_blocks(fits).shape == (0, 0)

    def test_warm_starts_save_iterations(self):
        cfg = sim.SimConfig(n=200, pi0=0.5, mu_x=1.0, rho=0.0, replicates=1, seed=901)
        fits = fit_nested(sim.gen_replicate(cfg, sim.replicate_stream(cfg.seed, 0, 0)), LOGIT)
        cold_base = fit(fits.data.y, fits.data.x, LOGIT)
        cold_expanded = fit(fits.data.y, standardized(np.hstack([fits.data.x, fits.data.z])), LOGIT)
        assert fits.constant.iterations == 1
        assert fits.base.iterations < cold_base.iterations
        assert fits.expanded.iterations < cold_expanded.iterations

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_discriminant_start(self, link, extra):
        # The slopes are the pooled within-class covariance's inverse times
        # the difference of the class means, and the intercept puts the
        # log-odds at logit(ybar) midway between the means (Efron 1975).
        data = make_data(n=300, seed=8, link=link)
        design = np.hstack([data.x, data.z, np.random.default_rng(8).standard_normal((300, extra))])
        design = standardized(design)
        y = data.y
        ones, zeros = design[y == 1, 1:], design[y == 0, 1:]
        pooled = (np.cov(ones.T, bias=True) * len(ones) + np.cov(zeros.T, bias=True) * len(zeros)) / 300
        slopes = np.linalg.solve(np.atleast_2d(pooled), ones.mean(axis=0) - zeros.mean(axis=0))
        middle = (ones.mean(axis=0) + zeros.mean(axis=0)) / 2
        want = np.concatenate([[np.log(y.mean() / (1 - y.mean())) - slopes @ middle], slopes])
        if link is PROBIT:
            want *= 0.25 * math.sqrt(2 * math.pi)
        got = glm._discriminant_start(y[None], np.array([y.mean()]), design.T[None].copy(), link)
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_nearly_separated_fit_matches_zero_start(self, monkeypatch, link):
        # x1 nearly separates the classes but an overlap remains, so the MLE
        # exists, far from both starts (coefficient norm near 80).
        rng = np.random.default_rng(1)
        x1, z1 = rng.standard_normal((2, 200))
        y = (x1 + 0.02 * rng.standard_normal(200) > 0).astype(float)
        data = Dataset(y=y, x=np.column_stack([np.ones(200), x1]), z=z1[:, None])
        start = glm._discriminant_start(y[None], np.array([y.mean()]),
                                        standardized(np.hstack([data.x, data.z])).T[None].copy(), link)
        assert 0.0 < np.linalg.norm(start) < glm._SEPARATION_NORM
        warm = fit_nested(data, link)
        monkeypatch.setattr(glm, "_discriminant_start",
                            lambda y, ybar, cols, link: np.zeros(cols.shape[:2]))
        cold = fit_nested(data, link)
        assert warm.expanded.iterations < cold.expanded.iterations
        for got, want in ((warm.expanded, cold.expanded), (warm.base, cold.base)):
            gap = abs(got.coefficients - want.coefficients).max()
            assert gap <= 1e-9 * abs(want.coefficients).max()
            assert abs(got.loglik - want.loglik) <= 1e-9 * abs(want.loglik)

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_separated_data_past_the_bound_keep_the_zero_start(self, monkeypatch, link):
        # y = (x1 > 0), and z is x1 with noise 1e-4: the discriminant slopes
        # on the nearly collinear pair are past the separation bound, so the
        # fit starts at zero and fails as it always did.
        rng = np.random.default_rng(1)
        x1, noise = rng.standard_normal((2, 200))
        y = (x1 > 0).astype(float)
        data = Dataset(y=y, x=np.column_stack([np.ones(200), x1]), z=(x1 + 1e-4 * noise)[:, None])
        cols = standardized(np.hstack([data.x, data.z])).T[None].copy()
        with monkeypatch.context() as patch:
            # Without the bound, the start's norm is in the thousands.
            patch.setattr(glm, "_SEPARATION_NORM", np.inf)
            unbounded = glm._discriminant_start(y[None], np.array([y.mean()]), cols, link)
        assert np.linalg.norm(unbounded) > 2 * glm._SEPARATION_NORM
        assert not glm._discriminant_start(y[None], np.array([y.mean()]), cols, link).any()
        with pytest.raises(Separation) as excinfo:
            fit_nested(data, link)
        assert str(excinfo.value) == (
            "expanded model: coefficients diverging with the likelihood still improving; "
            "the data are (quasi-)separated and the MLE does not exist"
        )
        assert excinfo.value.model == "expanded"

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_failed_rows_are_fitted_again_from_zero(self, monkeypatch, link):
        # The separated replicates of a cell with classes 8 SDs apart fail
        # from the discriminant start and from zero, each with its zero-start
        # error, as in a batch that starts every row at zero.
        cfg = sim.SimConfig(n=60, pi0=0.5, mu_x=8.0, rho=0.0, replicates=1, seed=42)
        data = stacked([sim.gen_replicate(cfg, sim.replicate_stream(cfg.seed, 0, k))
                        for k in range(6)])
        got = fit_nested(data, link)
        monkeypatch.setattr(glm, "_discriminant_start",
                            lambda y, ybar, cols, link: np.zeros(cols.shape[:2]))
        want = fit_nested(data, link)
        assert got.errors and sorted(got.errors) == sorted(want.errors)
        for r, error in want.errors.items():
            assert_same_error(got.errors[r], error)

    def test_iteration_cap_tagged_expanded(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as excinfo:
            fit_nested(make_data(), LOGIT)
        assert str(excinfo.value) == (
            "expanded model: Fisher scoring did not converge in 1 iterations"
        )
        assert excinfo.value.model == "expanded"


def standardized(design):
    """The design with each column but the first centred and divided by its
    root mean square about its mean, as ``fit_nested`` fits it."""
    centred = design[:, 1:] - design[:, 1:].mean(axis=0)
    return np.column_stack([design[:, 0], centred / np.sqrt((centred**2).mean(axis=0))])


def wide_logit_data(n, m, seed=3):
    """A logit design of n rows and m columns, the first the constant 1,
    with small true coefficients, and its outcomes."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, m))
    design[:, 0] = 1.0
    y = (rng.random(n) < expit(design @ (0.1 * rng.standard_normal(m)))).astype(float)
    return y, design


def traced_peak(call):
    """Bytes allocated at the peak of ``call()`` beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestLargeDesigns:
    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    def test_layouts_and_block_counts_agree(self, monkeypatch, link):
        # Three blocks of rows and a remainder, against one product over all rows.
        y, design = wide_logit_data(2 * glm._INFO_ROWS + 17, 5)
        layouts = {
            "C": design,
            "F": np.asfortranarray(design),
            "strided": np.repeat(design, 2, axis=1)[:, ::2],
        }
        with monkeypatch.context() as patch:
            patch.setattr(glm, "_information",
                          lambda x, w: np.matmul(x.transpose(0, 2, 1), x * w[:, :, None]))
            reference = fit(y, design, link)
        for layout, x in layouts.items():
            assert np.array_equal(x, design), layout
            got = fit(y, x, link)
            for name in ("coefficients", "expected_information"):
                want = getattr(reference, name)
                error = abs(getattr(got, name) - want).max() / abs(want).max()
                assert error <= 1e-12, (layout, name, error)

    N, M = 5 * glm._INFO_ROWS, 64

    def test_fit_makes_no_design_sized_temporary(self):
        # One weighted copy of the design per iteration would reach n m 8 bytes.
        y, design = wide_logit_data(self.N, self.M)
        assert traced_peak(lambda: fit(y, design, LOGIT)) < design.nbytes / 2

    def test_fit_nested_makes_one_standardized_design(self):
        # A second design-sized array (a copy to standardize, a squared
        # design, a copy of the base columns) would pass 1.5 designs.
        y, design = wide_logit_data(self.N, self.M)
        data = Dataset(y=y, x=design[:, : self.M // 2], z=design[:, self.M // 2:])
        del design
        assert traced_peak(lambda: fit_nested(data, LOGIT)) < 1.5 * self.N * self.M * 8


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


def correlated_data(n=300, seed=14):
    """q = 2 new columns correlated with the base column x1."""
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    z = rng.standard_normal((n, 2)) + 0.4 * x1[:, None]
    eta = 0.2 + 0.6 * x1 + 0.3 * z[:, 0] - 0.2 * z[:, 1]
    y = (rng.random(n) < LOGIT.prob(eta)).astype(float)
    return Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z)


def fits_with_information(data, info, scale):
    """NestedFits whose expanded fit holds ``info`` as its information for
    the standardized columns, with column scales ``scale``; every other
    field is a placeholder."""
    model = FittedModel(
        coefficients=np.zeros(info.shape[0]),
        linear_predictor=np.zeros(data.n),
        fitted_probs=np.full(data.n, 0.5),
        loglik=0.0,
        expected_information=info,
        iterations=0,
    )
    return NestedFits(expanded=model, base=model, constant=model, link=LOGIT, data=data,
                      scale=np.asarray(scale, dtype=float))


class TestInformationBlocks:
    def test_hand_computed_blocks(self):
        # p = q = 1 so the Schur complement is scalar arithmetic on the
        # weights, in the raw z units.
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        x = np.ones((8, 1))
        z = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.1, -1.6, 0.2])[:, None]
        fits = fit_nested(Dataset(y=y, x=x, z=z), LOGIT)
        w = fits.expanded.fitted_probs * (1 - fits.expanded.fitted_probs)
        n = 8
        bb = np.sum(w) / n
        bg = np.sum(w * z[:, 0]) / n
        gg = np.sum(w * z[:, 0] ** 2) / n
        gamma_info = information_blocks(fits)
        assert abs(gamma_info[0, 0] - (gg - bg**2 / bb)) <= 1e-10

    def test_orthogonal_blocks(self):
        # z made exactly orthogonal to the x columns under the information
        # weights: the off-diagonal block vanishes and the gamma information
        # is the gamma block per observation, multiplied by the square of
        # the column's scale.
        rng = np.random.default_rng(55)
        n = 120
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        z = rng.standard_normal(n)
        probs = 1.0 / (1.0 + np.exp(-(0.3 + 0.5 * x[:, 1])))
        w = probs * (1 - probs)
        z_orth = z - x @ np.linalg.solve(x.T @ (x * w[:, None]), x.T @ (w * z))
        design = np.column_stack([x, z_orth])
        info = design.T @ (design * w[:, None])
        assert np.abs(info[:2, 2:]).max() <= 1e-12 * n
        y = (rng.random(n) < probs).astype(float)
        data = Dataset(y=y, x=x, z=z_orth[:, None])
        gamma_info = information_blocks(fits_with_information(data, info, [1.0, 1.0, 4.0]))
        np.testing.assert_allclose(gamma_info, info[2:, 2:] / n * 16.0, rtol=1e-10)

    def test_singular_information_tagged_expanded(self):
        # The new column repeats the base one, so the standardized
        # information is singular.
        data = make_data(n=200)
        design = np.column_stack([data.x, data.x[:, 1]])
        w = np.full(200, 0.25)
        info = design.T @ (design * w[:, None])
        with pytest.raises(RankDeficient) as excinfo:
            information_blocks(fits_with_information(data, info, np.ones(3)))
        assert excinfo.value.model == "expanded"
        assert str(excinfo.value).startswith("expanded model: singular information: ")

    def test_batch_rows_fail_alone(self):
        # A batch holding a singular information and one whose block leaves
        # the double range: those rows get the errors information_blocks
        # raises on them alone, the other rows the bits they get alone.
        data = correlated_data()
        design = np.column_stack([data.x, data.x[:, 1], data.z[:, 0]])
        singular = fits_with_information(data, design.T @ (design * 0.25), np.ones(4))
        fitted = [fit_nested(correlated_data(seed=seed), LOGIT) for seed in (14, 15)]
        wide = fits_with_information(data, fitted[1].expanded.expected_information,
                                     [1.0, 1.0, 1e200, 1e200])
        comparisons = [fitted[0], singular, fitted[1], wide]
        # Stacked through the fields information_blocks reads.
        batch = information_blocks(stacked([
            fits_with_information(fits.data, fits.expanded.expected_information, fits.scale)
            for fits in comparisons]))
        for got, fits in zip(batch, comparisons):
            try:
                want = information_blocks(fits)
            except FitError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                assert got.model == "expanded"
            else:
                assert got.tobytes() == want.tobytes()
        assert [type(got) for got in batch[1::2]] == [RankDeficient, FitError]

    def test_gamma_cov_symmetric_positive_definite(self):
        gamma_cov = information_blocks(fit_nested(correlated_data(), LOGIT))
        np.testing.assert_allclose(gamma_cov, gamma_cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(gamma_cov) > 0)

    @pytest.mark.parametrize("link", [LOGIT, PROBIT], ids=["logit", "probit"])
    def test_affine_recoding_multiplies_by_square(self, link):
        # z -> a z + b multiplies g_hat by 1/a whatever b, so its covariance
        # by 1/a^2 and its information by a^2.
        data = correlated_data()
        recoded = Dataset(y=data.y, x=data.x, z=10.0 * data.z + 2000.0)
        want = information_blocks(fit_nested(data, link)) * 100.0
        got = information_blocks(fit_nested(recoded, link))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
