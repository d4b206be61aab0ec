"""Least squares and IRLS against closed-form and cross-checked oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbbai.errors import EstimationFailureError, InvalidAllocationError
from fbbai.estimators import (ParameterEstimate, RegressionData, irls_glm,
                              least_squares, mean_estimates, well_conditioned)
from fbbai.instances import IDENTITY, LOGISTIC, MeanFunction


class TestRegressionData:
    def test_shapes_are_validated(self):
        with pytest.raises(InvalidAllocationError):
            RegressionData(xs=np.ones(3), ys=np.ones(3))
        with pytest.raises(InvalidAllocationError):
            RegressionData(xs=np.ones((3, 2)), ys=np.ones(2))
        with pytest.raises(InvalidAllocationError):
            RegressionData(xs=np.ones((0, 2)), ys=np.ones(0))

    def test_dimensions_exposed(self):
        data = RegressionData(xs=np.ones((5, 3)), ys=np.zeros(5))
        assert data.n == 5 and data.dim == 3

    def test_counts_sum_to_the_pull_count(self):
        data = RegressionData(xs=np.ones((3, 2)), ys=np.zeros(3),
                              counts=np.array([4, 0, 2]))
        assert data.n == 6 and data.dim == 2

    @pytest.mark.parametrize("counts", [
        [1.0, -1.0, 2.0],
        [1.0, np.nan, 2.0],
        [1.0, np.inf, 2.0],
        [1.0, 0.5, 2.0],
        [1.0, 2.0],
        [[1.0, 1.0, 1.0]],
        [0.0, 0.0, 0.0],
    ])
    def test_invalid_counts_rejected(self, counts):
        with pytest.raises(InvalidAllocationError):
            RegressionData(xs=np.ones((3, 2)), ys=np.zeros(3), counts=counts)


def per_arm_and_per_pull(seed, m, d, bernoulli):
    """The same draws twice: as per-arm (count, sum) rows and as one row
    per pull in shuffled order.  Counts include zeros; Bernoulli rows with
    pulls see both outcomes, so the logistic MLE exists."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((m, d))
    if bernoulli:
        counts = rng.integers(2, 7, m) * (rng.random(m) < 0.8)
        counts[0] = 0
        wins = np.where(counts > 0, rng.integers(1, np.maximum(counts, 2)), 0)
        pulls = np.concatenate([[1.0] * w + [0.0] * (c - w)
                                for c, w in zip(counts, wins)])
    else:
        counts = rng.integers(0, 6, m)
        counts[0] = 0
        pulls = rng.standard_normal(counts.sum())
    assume(np.count_nonzero(counts) >= d)
    arm_of_pull = np.repeat(np.arange(m), counts)
    sums = np.bincount(arm_of_pull, weights=pulls, minlength=m)
    order = rng.permutation(arm_of_pull.size)
    per_arm = RegressionData(xs=xs, ys=sums, counts=counts)
    per_pull = RegressionData(xs=xs[arm_of_pull][order], ys=pulls[order])
    return per_arm, per_pull


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.abs(b).max())


class TestPerArmStatistics:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 10),
           d=st.integers(1, 4), bernoulli=st.booleans())
    def test_per_arm_fits_match_per_pull_fits(self, seed, m, d, bernoulli):
        per_arm, per_pull = per_arm_and_per_pull(seed, m, d, bernoulli)
        assert per_arm.n == per_pull.n
        V = per_pull.xs.T @ per_pull.xs
        assume(np.linalg.cond(V) < 1e4)
        mean_fn = LOGISTIC if bernoulli else IDENTITY
        for fit in (least_squares, lambda data: irls_glm(data, mean_fn)):
            a, b = fit(per_arm), fit(per_pull)
            assert a.converged and b.converged
            assert_close(a.theta_hat, b.theta_hat)
            assert_close(a.covariance, b.covariance)
            assert_close(a.covariance, V)


class TestSaturatedFits:
    """m = d linearly independent rows, each pulled at least once: both
    fits interpolate the per-arm means S_i / c_i, which a saturated stage
    of ``gse_run`` ranks by in place of either fit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
    def test_fits_interpolate_the_per_arm_means(self, seed, d):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((d, d))
        counts = rng.integers(1, 9, d)
        assume(well_conditioned(xs.T @ (xs * counts[:, None])))
        sums = counts * rng.normal(0.0, 2.0, d)
        fit = least_squares(RegressionData(xs=xs, ys=sums, counts=counts))
        means = sums / counts
        np.testing.assert_allclose(xs @ fit.theta_hat, means, rtol=1e-9,
                                   atol=1e-9 * np.abs(means).max())

        wins = rng.integers(0, counts + 1)  # Bernoulli sums
        fit = irls_glm(RegressionData(xs=xs, ys=wins, counts=counts), LOGISTIC)
        inner = (wins > 0) & (wins < counts)
        assume(fit.converged and inner.any())
        # converged means |X'(S - c h)| <= tol = 1e-8, so each |S_i - c_i h_i|
        # is at most tol / sigma_min(X)
        gap = np.abs(wins - counts * LOGISTIC.value(xs @ fit.theta_hat))
        bound = 1e-8 / np.linalg.svd(xs, compute_uv=False).min()
        assert np.all(gap[inner] <= bound * (1.0 + 1e-6))


class TestLeastSquares:
    def test_recovers_exact_parameter_on_noiseless_data(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        theta = np.array([2.0, -1.0])
        est = least_squares(RegressionData(xs=xs, ys=xs @ theta))
        assert np.allclose(est.theta_hat, theta, atol=1e-12)
        assert np.allclose(est.covariance, xs.T @ xs)
        assert est.converged and est.iterations == 1

    def test_matches_lstsq_on_noisy_data(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((40, 4))
        ys = rng.standard_normal(40)
        est = least_squares(RegressionData(xs=xs, ys=ys))
        ref, *_ = np.linalg.lstsq(xs, ys, rcond=None)
        assert np.allclose(est.theta_hat, ref, atol=1e-10)

    def test_rank_deficient_data_rejected(self):
        xs = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(InvalidAllocationError):
            least_squares(RegressionData(xs=xs, ys=np.ones(3)))


class TestIrls:
    def test_scalar_logistic_mle_closed_form(self):
        """12 successes out of 16 at x=1 put the MLE exactly at log 3."""
        xs = np.ones((16, 1))
        ys = np.array([1.0] * 12 + [0.0] * 4)
        est = irls_glm(RegressionData(xs=xs, ys=ys), LOGISTIC)
        assert est.converged
        assert est.theta_hat[0] == pytest.approx(math.log(3.0), abs=1e-8)

    def test_score_is_driven_to_zero(self):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((120, 3))
        theta = np.array([0.5, -1.0, 0.25])
        ys = (rng.random(120) < LOGISTIC.value(xs @ theta)).astype(float)
        est = irls_glm(RegressionData(xs=xs, ys=ys), LOGISTIC)
        score = xs.T @ (ys - LOGISTIC.value(xs @ est.theta_hat))
        assert est.converged
        assert np.linalg.norm(score) <= 1e-8

    def test_identity_link_reduces_to_least_squares(self):
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((30, 3))
        ys = rng.standard_normal(30)
        data = RegressionData(xs=xs, ys=ys)
        a = irls_glm(data, IDENTITY)
        b = least_squares(data)
        assert np.allclose(a.theta_hat, b.theta_hat, atol=1e-11)

    def test_covariance_is_information_matrix(self):
        xs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        ys = np.array([1.0, 0.0, 1.0])
        est = irls_glm(RegressionData(xs=xs, ys=ys), LOGISTIC)
        assert np.allclose(est.covariance, xs.T @ xs)

    def test_separable_data_returns_unconverged_best_iterate(self):
        # perfectly separated labels push the MLE to infinity; a short
        # iteration budget must end with the flagged best iterate, not a raise
        xs = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        ys = np.array([1.0, 1.0, 0.0, 0.0])
        est = irls_glm(RegressionData(xs=xs, ys=ys), LOGISTIC, max_iter=8)
        assert not est.converged
        assert est.iterations == 8
        assert est.theta_hat[0] > 1.0

    def test_separable_data_saturates_numerically_when_unconstrained(self):
        # given enough iterations the tail probabilities drop below the
        # score tolerance, so the fit reports convergence at a large theta
        xs = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        ys = np.array([1.0, 1.0, 0.0, 0.0])
        est = irls_glm(RegressionData(xs=xs, ys=ys), LOGISTIC, max_iter=100)
        assert est.converged
        assert est.theta_hat[0] > 15.0

    def test_inconsistent_derivative_raises(self):
        # derivative with the wrong sign sends every damped step uphill
        def wrong_deriv(z):
            mu = LOGISTIC.value(z)
            return -mu * (1.0 - mu)

        nasty = MeanFunction(value=LOGISTIC.value, derivative=wrong_deriv,
                             name="bad-deriv")
        xs = np.ones((4, 1))
        ys = np.array([0.0, 1.0, 1.0, 1.0])
        with pytest.raises(EstimationFailureError):
            irls_glm(RegressionData(xs=xs, ys=ys), nasty)


class TestMeanEstimates:
    def test_identity_shortcut(self):
        est = ParameterEstimate(theta_hat=np.array([1.0, 2.0]),
                                covariance=np.eye(2))
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.allclose(mean_estimates(est, arms), [1.0, 2.0, 3.0])
        assert np.allclose(mean_estimates(est, arms, IDENTITY), [1.0, 2.0, 3.0])

    def test_link_is_applied_when_given(self):
        est = ParameterEstimate(theta_hat=np.array([1.0, 2.0]),
                                covariance=np.eye(2))
        arms = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = mean_estimates(est, arms, LOGISTIC)
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-np.array([1.0, 2.0]))))
