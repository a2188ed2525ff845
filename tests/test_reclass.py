"""Tests for the reclassification statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnri import reclass
from mnri.errors import AllTies, DegenerateOutcome
from mnri.glm import LOGIT, PROBIT, Dataset, fit_nested
from mnri.reclass import (
    TrainTestPair,
    build_report,
    extended_indicator,
    half_nris,
    mad_probabilities,
    sign_decomposition,
)

# Worked 6-row example with hand-fixed coefficients; the expected values
# below were computed by direct arithmetic on the statistic definitions.
WORKED = dict(
    y=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    xv=[0.5, -1.0, 2.0, 0.0, -0.5, 1.5],
    zv=[1.0, -0.5, 0.5, 2.0, -1.5, 0.0],
    base_coef=[-0.2, 0.6],
    expanded_coef=[-0.3, 0.5, 0.4],
)
WORKED_EXPECT = dict(
    delta=[0.25, -0.2, -0.1, 0.7, -0.65, -0.25],
    nri_hard=0.0,
    nri_smooth=-0.08778190448104696,
    mnri_hard=0.03722244943408067,
    mnri_smooth=-0.09345802858768763,
    mad=0.08162083623771947,
    scaled_mad=0.16324167247543894,
    sign_inner=0.11166734830224201,
    sign_norm=6,
)


def random_fits(n=200, seed=0, gamma=0.4, link=LOGIT):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    eta = -0.2 + 0.7 * x1 + gamma * z1
    y = (rng.random(n) < link.prob(eta)).astype(float)
    data = Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z1[:, None])
    return fit_nested(data, link)


class TestExtendedIndicator:
    def test_tie_is_half(self):
        assert extended_indicator(0.0) == 0.5

    def test_positive(self):
        assert extended_indicator(3.7) == 1.0

    def test_strict_sign_near_zero(self):
        assert extended_indicator(-1e-300) == 0.0
        assert extended_indicator(1e-300) == 1.0

    def test_vectorized(self):
        np.testing.assert_array_equal(
            extended_indicator([-1.0, 0.0, 2.0]), [0.0, 0.5, 1.0]
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_range_and_sign_consistency(self, u):
        value = extended_indicator(u)
        assert value in (0.0, 0.5, 1.0)
        assert value == {1: 1.0, 0: 0.5, -1: 0.0}[int(np.sign(u))]


class TestWorkedExample:
    def test_all_statistics(self, manual_fits):
        fits = manual_fits(
            WORKED["y"], WORKED["xv"], WORKED["zv"],
            WORKED["base_coef"], WORKED["expanded_coef"],
        )
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        np.testing.assert_allclose(delta, WORKED_EXPECT["delta"], atol=1e-12)
        assert abs(half_nris(fits).nri_hard - WORKED_EXPECT["nri_hard"]) <= 1e-12
        assert abs(half_nris(fits).nri_smooth - WORKED_EXPECT["nri_smooth"]) <= 1e-12
        assert abs(half_nris(fits).mnri_hard - WORKED_EXPECT["mnri_hard"]) <= 1e-12
        assert abs(half_nris(fits).mnri_smooth - WORKED_EXPECT["mnri_smooth"]) <= 1e-12
        mad, scaled = mad_probabilities(fits)
        assert abs(mad - WORKED_EXPECT["mad"]) <= 1e-12
        assert abs(scaled - WORKED_EXPECT["scaled_mad"]) <= 1e-12
        inner, norm, regression = sign_decomposition(fits)
        assert abs(inner - WORKED_EXPECT["sign_inner"]) <= 1e-12
        assert norm == WORKED_EXPECT["sign_norm"]
        assert abs(regression - WORKED_EXPECT["mnri_hard"]) <= 1e-15

    def test_report_collects_everything(self, manual_fits):
        fits = manual_fits(
            WORKED["y"], WORKED["xv"], WORKED["zv"],
            WORKED["base_coef"], WORKED["expanded_coef"],
        )
        report = build_report(fits)
        assert report.ties == 0
        assert report.sign_norm == 6
        assert abs(report.mad_cross_term - (report.mnri_hard - report.scaled_mad)) == 0.0
        assert -1.0 <= report.nri_hard <= 1.0
        assert 0.0 <= report.mad <= 1.0


class TestHardNri:
    def test_hand_enumeration_zero(self, manual_fits):
        # y = (1,1,0,0) with score-change signs (+,-,-,+): terms cancel.
        fits = manual_fits(
            [1.0, 1.0, 0.0, 0.0], [1.0, -1.0, -1.0, 1.0], [0.0, 0.0, 0.0, 0.0],
            base_coef=[0.0, 0.0], expanded_coef=[0.0, 1.0, 0.0],
        )
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        np.testing.assert_array_equal(np.sign(delta), [1, -1, -1, 1])
        assert half_nris(fits).nri_hard == 0.0

    def test_hand_enumeration_maximal(self, manual_fits):
        # signs (+,+,-,-) perfectly concordant with y = (1,1,0,0).
        fits = manual_fits(
            [1.0, 1.0, 0.0, 0.0], [1.0, 0.5, -0.5, -1.0], [0.0, 0.0, 0.0, 0.0],
            base_coef=[0.0, 0.0], expanded_coef=[0.0, 1.0, 0.0],
        )
        assert half_nris(fits).nri_hard == 1.0

    def test_all_ties_give_zero(self, manual_fits):
        fits = manual_fits(
            [1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [0.5, -1.0, 2.0, 0.0, -0.5, 1.5],
            [1.0, -0.5, 0.5, 2.0, -1.5, 0.0],
            base_coef=[-0.2, 0.6], expanded_coef=[-0.2, 0.6, 0.0],
        )
        report = build_report(fits)
        assert report.ties == 6
        assert report.sign_inner == 0.0 and math.copysign(1.0, report.sign_inner) == 1.0
        assert report.sign_norm == 0
        assert half_nris(fits).nri_hard == 0.0
        assert half_nris(fits).nri_smooth == 0.0
        assert half_nris(fits).mnri_hard == 0.0
        assert half_nris(fits).mnri_smooth == 0.0
        with pytest.raises(AllTies):
            sign_decomposition(fits)

    def test_degenerate_event_rate(self):
        # The kernel's normalization needs 0 < ybar < 1; its Dataset input ensures it.
        with pytest.raises(DegenerateOutcome):
            Dataset(y=[1.0, 1.0, 1.0], x=np.ones((3, 1)), z=[[0.5], [-0.5], [0.0]])


class TestScaleAndLimits:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_hard_statistics_scale_invariant(self, c):
        fits = random_fits(seed=4)
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        r = fits.data.y - LOGIT.prob(fits.base.linear_predictor)
        base = reclass._half_nris(delta, r, fits.data.y)
        scaled = reclass._half_nris(c * delta, r, fits.data.y)
        assert scaled.nri_hard == base.nri_hard
        assert scaled.mnri_hard == base.mnri_hard

    def test_smooth_to_hard_limit(self):
        fits = random_fits(seed=5)
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        assert np.all(delta != 0.0)
        r = fits.data.y - LOGIT.prob(fits.base.linear_predictor)
        hard = reclass._half_nris(delta, r, fits.data.y)
        smooth_scaled = reclass._half_nris(1e6 * delta, r, fits.data.y)
        assert abs(smooth_scaled.nri_smooth - hard.nri_hard) <= 1e-6
        assert abs(smooth_scaled.mnri_smooth - hard.mnri_hard) <= 1e-6

    def test_smooth_approaches_hard_monotone_refinement(self):
        fits = random_fits(seed=6)
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        r = fits.data.y - LOGIT.prob(fits.base.linear_predictor)
        hard = reclass._half_nris(delta, r, fits.data.y).mnri_hard
        errors = [
            abs(reclass._half_nris(c * delta, r, fits.data.y).mnri_smooth - hard)
            for c in (1e2, 1e4, 1e6)
        ]
        assert errors[2] <= errors[0] + 1e-12


class TestLogitDecomposition:
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_mnri_equals_cross_term_plus_scaled_mad(self, seed):
        fits = random_fits(seed=seed, gamma=0.5)
        n = fits.data.n
        y = fits.data.y
        ybar = fits.data.ybar
        ind = extended_indicator(
            fits.expanded.linear_predictor - fits.base.linear_predictor)
        cross = float(
            (y - fits.expanded.fitted_probs) @ (ind - 0.5)
        ) / (n * ybar * (1 - ybar))
        _, scaled_mad = mad_probabilities(fits)
        assert abs(half_nris(fits).mnri_hard - (cross + scaled_mad)) <= 1e-10

    def test_report_cross_term_matches(self):
        fits = random_fits(seed=13)
        report = build_report(fits)
        assert abs(report.mad_cross_term - (report.mnri_hard - report.scaled_mad)) <= 1e-15


class TestSignDecomposition:
    def test_equals_mnri_hard_without_ties(self):
        for seed in (0, 7, 9):
            fits = random_fits(seed=seed)
            assert build_report(fits).ties == 0
            _, norm, regression = sign_decomposition(fits)
            assert norm == fits.data.n
            assert abs(regression - half_nris(fits).mnri_hard) <= 1e-12

    def test_one_tie_among_five(self, manual_fits):
        fits = manual_fits(
            [1.0, 0.0, 1.0, 0.0, 1.0], [1.0, -1.0, 2.0, -2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            base_coef=[0.0, 0.5], expanded_coef=[0.0, 1.0, 0.0],
        )
        assert build_report(fits).ties == 1
        _, norm, _ = sign_decomposition(fits)
        assert norm == 4


class TestProbitPath:
    def test_identities_hold_with_weighted_residuals(self):
        # Probit exercises the nonunit residual weight h(eta).
        fits = random_fits(n=180, seed=31, link=PROBIT)
        assert build_report(fits).ties == 0
        _, norm, regression = sign_decomposition(fits)
        assert norm == fits.data.n
        assert abs(regression - half_nris(fits).mnri_hard) <= 1e-12
        delta = fits.expanded.linear_predictor - fits.base.linear_predictor
        r = PROBIT.score_residual(fits.base.linear_predictor, fits.data.y)
        hard = reclass._half_nris(delta, r, fits.data.y).mnri_hard
        assert abs(hard - half_nris(fits).mnri_hard) <= 1e-15
        smooth_scaled = reclass._half_nris(1e6 * delta, r, fits.data.y).mnri_smooth
        assert abs(smooth_scaled - hard) <= 1e-6


class TestMad:
    def test_identical_probabilities(self, manual_fits):
        fits = manual_fits(
            [1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [0.5, -1.0, 2.0, 0.0, -0.5, 1.5],
            [1.0, -0.5, 0.5, 2.0, -1.5, 0.0],
            base_coef=[0.1, 0.3], expanded_coef=[0.1, 0.3, 0.0],
        )
        assert mad_probabilities(fits) == (0.0, 0.0)

    def test_half_event_rate_doubles(self):
        fits = random_fits(n=200, seed=17)
        # force exact ybar = 0.5 by construction
        y = np.array([1.0, 0.0] * 100)
        data = Dataset(y=y, x=fits.data.x, z=fits.data.z)
        balanced = fit_nested(data, LOGIT)
        mad, scaled = mad_probabilities(balanced)
        assert abs(scaled - 2.0 * mad) <= 1e-12

    def test_event_rate_047_scaling(self, manual_fits):
        # 1 / (2 * 0.47 * 0.53) = 2.0080...
        y = np.array([1.0] * 47 + [0.0] * 53)
        rng = np.random.default_rng(3)
        fits = manual_fits(
            y, rng.standard_normal(100), rng.standard_normal(100),
            base_coef=[0.0, 0.4], expanded_coef=[0.0, 0.4, 0.3],
        )
        mad, scaled = mad_probabilities(fits)
        assert abs(scaled / mad - 1.0 / (2 * 0.47 * 0.53)) <= 1e-12
        assert abs(scaled / mad - 2.008) <= 1e-3


class TestScoreIdentity:
    """At the base MLE sum_i r_i x_i = 0, so the residual-weighted score change
    sum_i r_i delta_i equals g_hat' U, where U = sum_i r_i z_i is the Rao score
    for the new coefficients g: the mNRI's link to the score test. A fit
    stops with that score near, not at, zero (up to about 1e-8 under the
    probit), and the identity is off by its inner product with the change in
    raw coefficients, whose intercept part grows with the offset of z."""

    @pytest.mark.parametrize("link", [LOGIT, PROBIT])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize(
        "a, b", [(1.0, 0.0), (1e-4, 0.0), (10.0, 5.0)], ids=["centred", "rescaled", "recoded"]
    )
    def test_residual_weighted_change_is_gamma_times_score(self, link, q, a, b):
        rng = np.random.default_rng(37 + q)
        n = 500
        x1 = rng.standard_normal(n)
        z = rng.standard_normal((n, q))
        eta = -0.2 + 0.7 * x1 + z @ np.linspace(0.5, -0.3, q)
        y = (rng.random(n) < link.prob(eta)).astype(float)
        z = a * (z - z.mean(axis=0)) + b
        fits = fit_nested(Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z), link)
        delta, residuals, _ = reclass._parts(fits)
        data = fits.data
        gamma_score = fits.expanded.coefficients[data.p :] @ (data.z.T @ residuals)
        assert abs(residuals @ delta - gamma_score) <= 1e-9 * abs(gamma_score)


class TestTrainTest:
    def test_null_training_coefficients_give_zero(self):
        train = random_fits(seed=19)
        null_train = build_null_train(train)
        test = random_fits(seed=23)
        pair = TrainTestPair(train_fits=null_train, test_fits=test)
        assert half_nris(pair).mnri_smooth == 0.0

    def test_collapses_to_single_sample(self):
        fits = random_fits(seed=29)
        pair = TrainTestPair(train_fits=fits, test_fits=fits)
        assert abs(half_nris(pair).mnri_smooth - half_nris(fits).mnri_smooth) <= 1e-15
        for name, single in vars(half_nris(fits)).items():
            assert abs(getattr(half_nris(pair), name) - single) <= 1e-12 * abs(single)

    def test_worked_values(self, manual_fits):
        test_fits = manual_fits(
            WORKED["y"], WORKED["xv"], WORKED["zv"],
            base_coef=[-0.25, 0.45], expanded_coef=[-0.3, 0.5, 0.4],
        )
        train_fits = manual_fits(
            WORKED["y"], WORKED["xv"], WORKED["zv"],
            base_coef=[-0.15, 0.55], expanded_coef=[-0.1, 0.7, 0.3],
        )
        pair = TrainTestPair(train_fits=train_fits, test_fits=test_fits)
        assert abs(half_nris(pair).mnri_smooth - (-0.06825386140883567)) <= 1e-12
        assert half_nris(pair).nri_hard == 0.0

    def test_link_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrainTestPair(
                train_fits=random_fits(seed=1, link=LOGIT),
                test_fits=random_fits(seed=1, link=PROBIT),
            )


def build_null_train(fits):
    """Copy of fits whose expanded model reuses the base coefficients with
    gamma = 0, so every score difference vanishes."""
    from mnri.glm import FittedModel, NestedFits

    base = fits.base
    coef = np.concatenate([base.coefficients, np.zeros(fits.data.q)])
    expanded = FittedModel(
        coefficients=coef,
        linear_predictor=base.linear_predictor.copy(),
        fitted_probs=base.fitted_probs.copy(),
        loglik=base.loglik,
        expected_information=np.eye(coef.shape[0]),
        iterations=0,
    )
    return NestedFits(
        expanded=expanded, base=base, constant=fits.constant,
        link=fits.link, data=fits.data, scale=np.ones(coef.shape[0]),
    )
