"""Tests for the restricted cubic spline basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnri.errors import TooFewDistinctValues
from mnri.spline import default_knots, rcs_basis


class TestDefaultKnots:
    def test_quantile_rule_k4(self):
        knots = default_knots(np.arange(1.0, 101.0), 4)
        np.testing.assert_allclose(knots, [5.95, 35.65, 65.35, 95.05], atol=1e-9)

    def test_quantile_rule_k3(self):
        knots = default_knots(np.arange(1.0, 101.0), 3)
        np.testing.assert_allclose(knots, [10.9, 50.5, 90.1], atol=1e-9)

    def test_quantile_rule_k5_symmetric(self):
        knots = default_knots(np.arange(1.0, 101.0), 5)
        assert knots.shape == (5,)
        assert np.all(np.diff(knots) > 0)
        assert abs((knots[0] + knots[-1]) / 2 - knots[2]) <= 1e-9

    def test_constant_input(self):
        with pytest.raises(TooFewDistinctValues):
            default_knots(np.ones(50), 4)

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctValues):
            default_knots(np.array([1.0, 2.0, 1.0, 2.0, 1.0]), 3)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            default_knots(np.arange(100.0), 6)


class TestRcsBasis:
    def test_column_count(self):
        x = np.linspace(0, 10, 50)
        for k in (3, 4, 5):
            basis = rcs_basis(x, default_knots(x, k))
            assert basis.shape == (50, k - 1)

    def test_first_column_is_identity(self):
        x = np.linspace(-3, 7, 40)
        basis = rcs_basis(x, default_knots(x, 4))
        np.testing.assert_array_equal(basis[:, 0], x)

    def test_nonlinear_columns_zero_at_and_below_first_knot(self):
        knots = np.array([1.0, 2.0, 4.0, 8.0])
        x = np.array([-5.0, 0.0, 1.0])
        basis = rcs_basis(x, knots)
        np.testing.assert_array_equal(basis[:, 1:], 0.0)

    def test_tail_linearity_second_differences(self):
        knots = np.array([-1.0, 0.5, 2.0, 3.5])
        h = 0.05
        for grid in (np.arange(-30.0, -1.0, h), np.arange(3.5, 40.0, h)):
            basis = rcs_basis(grid, knots)
            second = np.diff(basis, n=2, axis=0) / h**2
            assert np.abs(second).max() <= 1e-8

    def test_continuity_across_knots(self):
        knots = np.array([0.0, 1.0, 2.5, 4.0])
        eps = 1e-6
        for t in knots:
            below = rcs_basis(np.array([t - eps]), knots)[0]
            above = rcs_basis(np.array([t + eps]), knots)[0]
            # no jump beyond the O(eps) smooth change
            assert np.abs(above - below).max() <= 1e-5

    def test_first_and_second_derivative_continuity(self):
        # One-sided estimates of f'(t) and f''(t) from each side of every
        # interior knot; piecewise cubics make the one-sided errors O(h^2)
        # and O(h), so a true kink or curvature jump would dominate.
        knots = np.array([0.0, 1.0, 2.5, 4.0])
        h = 1e-3
        for t in knots[1:-1]:
            b = {
                offset: rcs_basis(np.array([t + offset * h]), knots)[0]
                for offset in (-2, -1, 0, 1, 2)
            }
            d_left = (3 * b[0] - 4 * b[-1] + b[-2]) / (2 * h)
            d_right = (-3 * b[0] + 4 * b[1] - b[2]) / (2 * h)
            assert np.abs(d_left - d_right).max() <= 1e-5
            dd_left = (b[0] - 2 * b[-1] + b[-2]) / h**2
            dd_right = (b[0] - 2 * b[1] + b[2]) / h**2
            assert np.abs(dd_left - dd_right).max() <= 1e-2

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_affine_invariance_of_column_space(self, a, b):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-2.0, 6.0, size=80))
        knots = default_knots(x, 4)
        basis1 = np.column_stack([np.ones(80), rcs_basis(x, knots)])
        basis2 = np.column_stack([np.ones(80), rcs_basis(a * x + b, a * knots + b)])
        for source, target in ((basis1, basis2), (basis2, basis1)):
            coef, *_ = np.linalg.lstsq(source, target, rcond=None)
            residual = target - source @ coef
            assert np.abs(residual).max() <= 1e-8 * max(1.0, np.abs(target).max())

    def test_training_knots_on_test_rows(self):
        # A fitted spline is its knot vector: knots placed on the training
        # values expand test values beyond their range, and the nonlinear
        # columns vanish on exactly the test rows up to the first training knot.
        train, test = np.linspace(0, 10, 100), np.linspace(-2, 12, 50)
        knots = default_knots(train, 4)
        design = rcs_basis(test, knots)
        assert design.shape == (50, 3)
        np.testing.assert_array_equal(design[:, 0], test)
        np.testing.assert_array_equal((design[:, 1:] == 0.0).all(axis=1), test <= knots[0])

    def test_rejects_bad_knots(self):
        for knots in ([1.0, 1.0, 2.0], [1.0, 2.0], [[1.0], [2.0], [3.0]]):
            with pytest.raises(ValueError):
                rcs_basis(np.arange(5.0), np.array(knots))


class TestSplineBasis:
    """A fitted spline basis is its knot vector; rcs_basis expands values on it."""

    def test_columns_property(self):
        x = np.linspace(0, 1, 60)
        assert rcs_basis(x, default_knots(x, 4)).shape[1] == 3
        # any knot vector, not only the quantile rule's k in {3, 4, 5}
        for k in range(3, 9):
            assert rcs_basis(x, np.linspace(0.0, 1.0, k)).shape[1] == k - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rcs_basis(np.arange(5.0), np.array([2.0, 1.0, 3.0]))
