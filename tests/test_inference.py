"""Tests for reference distributions and p-values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from mnri import inference, numerics, reclass
from mnri.errors import DegenerateOutcome, NotPositiveDefinite
from mnri.glm import LOGIT, PROBIT, Dataset, fit_nested, information_blocks
from mnri.inference import k_constant, mixture_weights
from mnri.inference import test_mnri_single as mnri_single_test
from mnri.inference import test_mnri_train_test as mnri_train_test_test
from mnri.inference import test_nri_normal_legacy as nri_legacy_test
from mnri.reclass import TrainTestPair
from matrix_cases import asymmetry_cases


def fitted(n=200, seed=0, gamma=0.4):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    eta = -0.2 + 0.7 * x1 + gamma * z1
    y = (rng.random(n) < LOGIT.prob(eta)).astype(float)
    data = Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=z1[:, None])
    return fit_nested(data, LOGIT)


def given_stats(mnri_smooth=0.0, nri_hard=0.0):
    """Statistics set by hand: the mNRI tests read only ``mnri_smooth`` and
    the legacy test only ``nri_hard``."""
    return reclass.HalfNRIs(
        nri_hard=nri_hard, nri_smooth=0.0, mnri_hard=0.0, mnri_smooth=mnri_smooth
    )


def balanced_fits(manual_fits):
    """Fits on n1 = n0 = 100 rows: legacy variance 1/400 + 1/400 = 0.005."""
    v = np.linspace(-1.0, 1.0, 200)
    return manual_fits([1.0, 0.0] * 100, v, v[::-1], [0.0, 0.0], [0.0, 0.0, 0.0])


class TestKConstant:
    def test_half(self):
        # 4 / sqrt(2 pi)
        assert abs(k_constant(0.5) - 1.5957691216057308) <= 1e-12
        assert abs(k_constant(0.5) - 1.5957691) <= 1e-7

    def test_quarter(self):
        # phi(0) / 0.1875
        assert abs(k_constant(0.25) - 2.1276921621409747) <= 1e-12
        assert abs(k_constant(0.25) - 2.1276922) <= 1e-7

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.38, 0.47):
            assert k_constant(p) == pytest.approx(k_constant(1.0 - p), rel=1e-12)

    def test_boundary(self):
        with pytest.raises(DegenerateOutcome):
            k_constant(0.0)
        with pytest.raises(DegenerateOutcome):
            k_constant(1.0)


class TestReferences:
    """The p-values of the three tests at statistics set by hand."""

    def test_scaled_chisq_quantile(self):
        fits = fitted()
        k = k_constant(fits.data.ybar)
        result = mnri_single_test(fits, given_stats(k * 3.841459 / fits.data.n))
        assert abs(result.p_value - 0.05) <= 1e-4

    def test_scaled_chisq_boundary(self):
        fits = local_alternative(200, 0, LOGIT)
        for statistic in (0.0, -5.0):  # one-sided upper tail
            result = mnri_single_test(fits, given_stats(statistic / fits.data.n))
            assert result.reference["q"] == 2
            assert result.statistic == statistic
            assert result.p_value == 1.0

    def test_normal_ref_worked_example(self, manual_fits):
        # 1.959964 * sqrt(0.005) = 0.13859...
        fits = balanced_fits(manual_fits)
        result = nri_legacy_test(fits, given_stats(nri_hard=0.1386))
        assert result.reference == {"kind": "normal", "variance": 0.005}
        assert abs(result.p_value - 0.05) <= 1e-3
        assert nri_legacy_test(fits, given_stats(nri_hard=0.0)).p_value == 1.0

    def test_far_tail_pvalues_keep_precision(self, manual_fits):
        # 1 - cdf rounds both of these to exactly 0.
        fits = fitted()
        k = k_constant(fits.data.ybar)
        chisq = mnri_single_test(fits, given_stats(125.0 * k / fits.data.n))
        normal = nri_legacy_test(
            balanced_fits(manual_fits), given_stats(nri_hard=9.0 * math.sqrt(0.005))
        )
        assert chisq.p_value > 0.0 and normal.p_value > 0.0
        assert chisq.p_value == pytest.approx(stats.chi2.sf(chisq.statistic / k, 1), rel=1e-10)
        assert normal.p_value == pytest.approx(
            2.0 * stats.norm.sf(normal.statistic / math.sqrt(0.005)), rel=1e-10
        )

    def test_mixture_ref_symmetric(self):
        fits = fitted(seed=8)
        pair = TrainTestPair(train_fits=fits, test_fits=fits)
        result = mnri_train_test_test(pair, given_stats(0.0))
        assert result.reference["weights"] == [1.0, -1.0]
        assert result.p_value == 0.5

    def test_mixture_ref_is_validated_mixture_spec(self):
        fits = fitted(seed=8)
        pair = TrainTestPair(train_fits=fits, test_fits=fits)
        result = mnri_train_test_test(pair, given_stats(2.0 / fits.data.n))
        ref = result.reference
        assert ref["scale"] == k_constant(fits.data.ybar) / 2.0
        p_value = numerics.mixture_tail(result.statistic, ref["weights"], ref["scale"])
        assert result.p_value == p_value
        # The recipe checks the dict's fields, so a descriptor with malformed
        # weights or scale cannot give a p-value.
        for scale, weights in [
            (0.8, []), (0.8, [1.0, math.nan]), (0.8, [math.inf, -1.0]),
            (0.0, [1.0, -1.0]), (-0.8, [1.0, -1.0]), (math.nan, [1.0, -1.0]),
        ]:
            with pytest.raises(ValueError):
                numerics.mixture_tail(result.statistic, weights, scale)


class TestMixtureWeights:
    def test_equal_variances_exact_unit_pairs(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        var = m @ m.T + np.eye(3)
        weights = mixture_weights(var, var)
        np.testing.assert_array_equal(weights, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

    def test_scalar_ratio(self):
        weights = mixture_weights([[4.0]], [[1.0]])
        np.testing.assert_array_equal(weights, [2.0, -2.0])

    def test_sum_zero_random(self):
        rng = np.random.default_rng(2)
        for q in (1, 2, 4):
            a = rng.standard_normal((q, q))
            b = rng.standard_normal((q, q))
            var_a = a @ a.T + np.eye(q)
            var_b = b @ b.T + np.eye(q)
            weights = mixture_weights(var_a, var_b)
            assert weights.shape == (2 * q,)
            assert abs(weights.sum()) <= 1e-9
            # interleaved +/- pairs, descending magnitude
            np.testing.assert_allclose(weights[0::2], -weights[1::2])
            assert np.all(np.diff(weights[0::2]) <= 1e-12)

    def test_matches_block_product_eigenvalues(self):
        # Direct eigenvalues of the (nonsymmetric) block product matrix.
        rng = np.random.default_rng(3)
        q = 3
        a = rng.standard_normal((q, q))
        b = rng.standard_normal((q, q))
        var_train = a @ a.T + np.eye(q)
        var_test = b @ b.T + np.eye(q)
        d = np.linalg.inv(var_test)
        v = np.block(
            [[var_test, np.zeros((q, q))], [np.zeros((q, q)), var_train]]
        )
        c = np.block([[np.zeros((q, q)), d], [d, np.zeros((q, q))]])
        direct = np.sort(np.real(np.linalg.eigvals(v @ c)))
        ours = np.sort(mixture_weights(var_train, var_test))
        np.testing.assert_allclose(ours, direct, rtol=1e-8, atol=1e-10)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(4)
        q = 3
        a = rng.standard_normal((q, q))
        b = rng.standard_normal((q, q))
        var_a = a @ a.T + np.eye(q)
        var_b = b @ b.T + np.eye(q)
        m, _ = np.linalg.qr(rng.standard_normal((q, q)))
        w1 = mixture_weights(var_a, var_b)
        w2 = mixture_weights(m.T @ var_a @ m, m.T @ var_b @ m)
        np.testing.assert_allclose(np.sort(w1), np.sort(w2), atol=1e-8)

    def test_asymmetry_at_double_range_rejected_without_overflow(self):
        # m - m.T would overflow here; the suite turns the warning into an error.
        with pytest.raises(ValueError, match="^variance matrices must be symmetric$"):
            mixture_weights([[1.0, 1.7e308], [-1.7e308, 1.0]], np.eye(2))

    @pytest.mark.parametrize("a, b", [
        ([[1.7e308]], [[5e-324]]),
        (np.diag([1.7e308, 1e308]), np.diag([5e-324, 5e-324])),
    ], ids=["q1", "q2"])
    def test_overflowing_ratio_rejected(self, a, b):
        # sqrt(1.7e308 / 5e-324) ~ 1.8e316: the weight itself leaves the range.
        with pytest.raises(ValueError, match="^mixture weight overflows a double$"):
            mixture_weights(a, b)

    @pytest.mark.parametrize("a, b, expected", [
        ([[1e-300]], [[1.7e308]], [1e-150 / math.sqrt(1.7e308)]),
        ([[1.7e308]], [[1e-300]], [math.sqrt(1.7e308) / 1e-150]),
        (np.diag([1e-300, 1e-300]), np.diag([1.7e308, 1e308]),
         [1e-150 / 1e154, 1e-150 / math.sqrt(1.7e308)]),
    ], ids=["q1-underflowing-ratio", "q1-overflowing-ratio", "q2-underflowing-ratio"])
    def test_representable_weight_kept_at_double_range(self, a, b, expected):
        # The ratio of the variances leaves the double range; its root does not.
        weights = mixture_weights(a, b)
        np.testing.assert_allclose(weights[0::2], expected, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(weights[1::2], -weights[0::2])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            mixture_weights([[1.0]], [[-1.0]])

    @pytest.mark.parametrize("slot", [0, 1])
    def test_asymmetry_beyond_atol_rejected(self, slot):
        var = np.array([[2.0, 1.0], [1.0 + 1e-6, 2.0]])
        pair = [np.diag([2.0, 3.0])] * 2
        pair[slot] = var
        with pytest.raises(ValueError, match="^variance matrices must be symmetric$"):
            mixture_weights(*pair)

    def test_asymmetry_within_atol_accepted(self):
        var = np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]])
        np.testing.assert_array_equal(mixture_weights(var, var), [1.0, -1.0, 1.0, -1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [[(0, 1)], [(0, 1), (1, 0)], [(1, 1)]],
                             ids=["off-diagonal", "mirrored", "diagonal"])
    def test_non_finite_rejected(self, value, cells):
        var = np.array([[2.0, 1.0], [1.0, 2.0]])
        for cell in cells:
            var[cell] = value
        with pytest.raises(ValueError, match="^variance matrices must be finite$"):
            mixture_weights(np.eye(2), var)

    @pytest.mark.parametrize("a, b", [
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.eye(2), np.eye(3)),
        (np.eye(2), [[1.0]]),
    ])
    def test_shapes_rejected(self, a, b):
        with pytest.raises(ValueError, match="square with equal shape"):
            mixture_weights(a, b)

    @settings(max_examples=400, deadline=None)
    @given(case=asymmetry_cases())
    def test_entry_check_matches_allclose(self, case):
        # A symmetric but indefinite matrix raises NotPositiveDefinite, not
        # a ValueError, so the verdicts are told apart by message.
        m = np.array(case)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            if not np.isfinite(m).all():
                expected = "variance matrices must be finite"
            elif not np.allclose(m, m.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(m).max())):
                expected = "variance matrices must be symmetric"
            else:
                expected = None
            try:
                mixture_weights(case, case)
                message = None
            except NotPositiveDefinite:
                message = None
            except ValueError as error:
                message = str(error)
        assert message == expected


class TestSingleSampleTest:
    def test_statistic_and_reference(self):
        fits = fitted(seed=5)
        result = mnri_single_test(fits, reclass.half_nris(fits))
        assert abs(result.statistic - fits.data.n * reclass.half_nris(fits).mnri_smooth) <= 1e-12
        k = k_constant(fits.data.ybar)
        assert result.reference == {"kind": "scaled_chisq", "k": k, "q": 1}
        assert result.p_value == numerics.chisq_sf(max(result.statistic, 0) / k, 1)

    def test_detects_informative_marker(self):
        fits = fitted(n=800, seed=6, gamma=0.8)
        assert mnri_single_test(fits, reclass.half_nris(fits)).p_value < 0.01


class TestTrainTestTest:
    def test_null_training_statistic_symmetric_pvalue(self, manual_fits):
        # Training expanded = training base: statistic 0; with train = test
        # data the variance estimates coincide so the mixture is symmetric.
        fits = fitted(seed=8)
        pair = TrainTestPair(train_fits=fits, test_fits=fits)
        result = mnri_train_test_test(pair, reclass.half_nris(pair))
        assert result.reference == {
            "kind": "chisq_mixture",
            "scale": k_constant(fits.data.ybar) / 2.0,
            "weights": [1.0, -1.0],
        }

    def test_statistic_value(self):
        train = fitted(seed=9)
        test = fitted(seed=10)
        pair = TrainTestPair(train_fits=train, test_fits=test)
        result = mnri_train_test_test(pair, reclass.half_nris(pair))
        expected = test.data.n * reclass.half_nris(pair).mnri_smooth
        assert abs(result.statistic - expected) <= 1e-12
        ref = result.reference
        p_value = numerics.mixture_tail(result.statistic, ref["weights"], ref["scale"])
        assert result.p_value == p_value

    def test_unit_weights_match_difference_monte_carlo(self):
        # One sample on both sides: unit weights, so the statistic at t k/2
        # has the tail of chi2 - chi2' at t; compared with simulation.
        fits = fitted(seed=8)
        pair = TrainTestPair(train_fits=fits, test_fits=fits)
        scale = k_constant(fits.data.ybar) / 2.0
        rng = np.random.default_rng(11)
        draws = rng.standard_normal((1_000_000, 2)) ** 2
        q = draws[:, 0] - draws[:, 1]
        for t in (-2.0, 0.0, 1.0, 3.5):
            result = mnri_train_test_test(pair, given_stats(t * scale / fits.data.n))
            mc = float(np.mean(q > t))
            se = math.sqrt(mc * (1 - mc) / q.shape[0])
            assert abs(result.p_value - mc) <= 3 * se


def local_alternative(n, seed, link):
    """Fits on n rows with q = 2 new columns of spread 10 and g = 2/sqrt(n)
    per unit of spread on the first, none on the second."""
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    z = rng.standard_normal((n, 2))
    eta = -0.3 + 0.8 * x1 + 2.0 / math.sqrt(n) * z[:, 0]
    y = (rng.random(n) < link.prob(eta)).astype(float)
    return fit_nested(Dataset(y=y, x=np.column_stack([np.ones(n), x1]), z=10.0 * z), link)


class TestCrossWaldEquivalence:
    """Phi(d) - 1/2 = phi(0) d + O(d^3) and sum_i r_i x_i = 0 at the test base
    MLE make n T~ / k^ the cross score g_train' U_test, and U_test is
    n Gamma_test^-1 g_test up to O_p(n^-1/2): so n T~ / k^ approaches the
    cross-Wald form n g_train' Gamma_test^-1 g_test, Gamma_test the test
    sample's gamma covariance, whose inverse ``information_blocks`` gives.
    The bounds are 3 times the medians of
    |n T~ / k^ - cross-Wald| over 40 seeds measured at n = 200 and 200 000
    (0.024 and 3e-5 logit, 0.045 and 0.0014 probit), interpolated
    geometrically to n = 2000 and 20 000."""

    SEEDS = range(9)
    BOUNDS = {"logit": (0.0078, 8.4e-4), "probit": (0.042, 0.013)}

    def median_gap(self, n, link):
        gaps = []
        for seed in self.SEEDS:
            train = local_alternative(n, 2 * seed, link)
            test = local_alternative(n, 2 * seed + 1, link)
            pair = TrainTestPair(train_fits=train, test_fits=test)
            result = mnri_train_test_test(pair, reclass.half_nris(pair))
            scaled = result.statistic / (2.0 * result.reference["scale"])  # the scale is k^/2
            p = test.data.p
            g_train, g_test = train.expanded.coefficients[p:], test.expanded.coefficients[p:]
            cross_wald = n * g_train @ information_blocks(test) @ g_test
            gaps.append(abs(scaled - cross_wald))
        return float(np.median(gaps))

    @pytest.mark.parametrize("link", [LOGIT, PROBIT], ids=["logit", "probit"])
    def test_gap_small_and_shrinking(self, link):
        gaps = [self.median_gap(n, link) for n in (2000, 20_000)]
        assert gaps[0] <= self.BOUNDS[link.kind][0], gaps
        assert gaps[1] <= self.BOUNDS[link.kind][1], gaps
        assert gaps[1] < gaps[0], gaps


class TestLikelihoodRatioEquivalence:
    """The single-sample half of TestCrossWaldEquivalence: at the base MLE
    n T~ / k^ is the Rao score statistic for gamma up to O_p(n^-1), and
    under local alternatives the score and likelihood-ratio statistics
    differ by O_p(n^-1/2). The bounds are 3 times the medians of
    |n T~ / k^ - LR|, LR = 2 (l_expanded - l_base), over these seeds (logit
    0.0067 and 5.8e-5, probit 0.0016 and 2.5e-5 at n = 2000 and 20 000)."""

    SEEDS = range(9)
    BOUNDS = {"logit": (0.020, 1.8e-4), "probit": (0.0048, 7.6e-5)}

    def median_gap(self, n, link):
        gaps = []
        for seed in self.SEEDS:
            fits = local_alternative(n, 2 * seed, link)
            result = mnri_single_test(fits, reclass.half_nris(fits))
            lr = 2.0 * (fits.expanded.loglik - fits.base.loglik)
            gaps.append(abs(result.statistic / result.reference["k"] - lr))
        return float(np.median(gaps))

    @pytest.mark.parametrize("link", [LOGIT, PROBIT], ids=["logit", "probit"])
    def test_gap_small_and_shrinking(self, link):
        gaps = [self.median_gap(n, link) for n in (2000, 20_000)]
        assert gaps[0] <= self.BOUNDS[link.kind][0], gaps
        assert gaps[1] <= self.BOUNDS[link.kind][1], gaps
        assert gaps[1] <= gaps[0] / 10.0, gaps


class TestLegacyNormalTest:
    def test_zero_statistic(self, manual_fits):
        fits = manual_fits(
            [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            [0.5, -1.0, 2.0, 0.0, -0.5, 1.5],
            [1.0, -0.5, 0.5, 2.0, -1.5, 0.0],
            base_coef=[-0.2, 0.6],
            expanded_coef=[-0.2, 0.6, 0.0],
        )
        result = nri_legacy_test(fits, reclass.half_nris(fits))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_variance_from_counts(self):
        fits = fitted(n=300, seed=12)
        result = nri_legacy_test(fits, reclass.half_nris(fits))
        n1 = int(fits.data.y.sum())
        n0 = fits.data.n - n1
        assert result.reference == {
            "kind": "normal", "variance": 1.0 / (4 * n1) + 1.0 / (4 * n0)
        }
        assert "invalid" in result.notes

    def test_train_test_uses_training_coefficients_on_test_data(self):
        train = fitted(seed=13)
        test = fitted(seed=14)
        pair = TrainTestPair(train_fits=train, test_fits=test)
        result = nri_legacy_test(pair, reclass.half_nris(pair))
        assert abs(result.statistic - reclass.half_nris(pair).nri_hard) <= 1e-15

    def test_pvalue_recomputation_exact(self):
        for seed in (15, 16):
            fits = fitted(seed=seed)
            result = nri_legacy_test(fits, reclass.half_nris(fits))
            variance = result.reference["variance"]
            t = result.statistic
            assert 2 * numerics.norm_cdf(-abs(t) / math.sqrt(variance)) == result.p_value


class TestNullDiagnostic:
    def test_positive_mean_and_skew(self):
        from mnri.sim import SimConfig
        from null_statistics import collect_null_statistics, null_distribution_diagnostic

        config = SimConfig(
            n=200, pi0=0.5, mu_x=1.0, rho=0.0, replicates=300, seed=303
        )
        diag = null_distribution_diagnostic(collect_null_statistics(config))
        assert diag.replicates == 300
        assert diag.mean > 3.0 * diag.se_mean
        assert abs(diag.skewness) > 3.0 * diag.se_skewness
        assert diag.moment_normality_pvalue < 0.01
