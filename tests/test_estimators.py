"""Least squares and IRLS against closed-form and cross-checked oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbbai.errors import EstimationFailureError, InvalidAllocationError
from fbbai.estimators import (ParameterEstimate, RegressionData, _norms, irls_glm,
                              irls_glm_stack, least_squares, least_squares_stack,
                              mean_estimates, mean_estimates_stack,
                              well_conditioned)
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


def outcome(fit):
    """What a fit returned or raised, down to the bytes: theta and V bytes
    with the fit flags, or the error class and message."""
    if isinstance(fit, Exception):
        return type(fit).__name__, str(fit)
    return (fit.theta_hat.tobytes(), fit.covariance.tobytes(), fit.converged,
            fit.iterations)


def lone(fit, data, *args):
    try:
        return outcome(fit(data, *args))
    except (InvalidAllocationError, EstimationFailureError) as exc:
        return outcome(exc)


def mixed_stack(m=6, d=2):
    """Items of one (m, d) shape: four healthy Bernoulli items, a separable
    one, one whose score is 0 at theta = 0, and one with two equal, huge
    columns, which is ill-conditioned for least squares and whose IRLS
    Jacobian is exactly singular (the ridge is lost in rounding)."""
    rng = np.random.default_rng(31)
    xs = rng.uniform(-0.5, 0.5, (7, m, d))
    counts = rng.integers(3, 9, (7, m)).astype(float)
    sums = rng.binomial(counts.astype(int), 0.5).astype(float)
    sums[4] = np.where(xs[4, :, 0] > 0, counts[4], 0.0)  # separable
    counts[5] = 2.0
    sums[5] = 1.0  # every arm at h(0) = 1/2
    xs[6, :, 1] = xs[6, :, 0] = rng.uniform(1e12, 2e12, m)
    return xs, sums, counts


class TestStackedFits:
    """Each entry of a stacked fit is its item's lone fit, bit for bit, or
    the error the lone fit raises, whatever else is in the stack."""

    def check(self, stack, single, xs, sums, counts, *args):
        fits = stack(xs, sums, counts, *args)
        assert len(fits) == len(xs)
        for g, fit in enumerate(fits):
            data = RegressionData(xs=xs[g], ys=sums[g], counts=counts[g])
            assert outcome(fit) == lone(single, data, *args)
        return [outcome(fit) for fit in fits]

    def test_least_squares(self):
        xs, sums, counts = mixed_stack()
        got = self.check(least_squares_stack, least_squares, xs, sums, counts)
        assert got[6][0] == "InvalidAllocationError"
        assert "condition number" in got[6][1]
        assert sum(isinstance(g[0], bytes) for g in got) == 6

    @pytest.mark.parametrize("max_iter", [8, 100])
    def test_irls(self, max_iter):
        xs, sums, counts = mixed_stack()
        got = self.check(irls_glm_stack, irls_glm, xs, sums, counts, LOGISTIC,
                         max_iter)
        assert got[6] == ("EstimationFailureError", "singular IRLS system")
        assert got[5][2:] == (True, 0)
        if max_iter == 8:
            assert got[4][2:] == (False, 8)  # separable: still climbing
        assert len({g[3] for g in got[:6]}) > 2  # items stop at other steps

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_irls_without_iterations_stops_at_zero(self, max_iter):
        """With no Newton step allowed, each item stops at theta = 0 after 0
        iterations, converged only if its score there is already 0."""
        xs, sums, counts = mixed_stack()
        got = self.check(irls_glm_stack, irls_glm, xs, sums, counts, LOGISTIC,
                         max_iter)
        zero = np.zeros(2).tobytes()
        assert [g[0] for g in got] == [zero] * 7
        assert [g[2:] for g in got] == [(False, 0)] * 5 + [(True, 0), (False, 0)]

    def test_irls_with_a_diverging_mean_function(self):
        def wrong_deriv(z):
            mu = LOGISTIC.value(z)
            return -mu * (1.0 - mu)

        nasty = MeanFunction(value=LOGISTIC.value, derivative=wrong_deriv,
                             name="bad-deriv")
        xs, sums, counts = mixed_stack()
        got = self.check(irls_glm_stack, irls_glm, xs, sums, counts, nasty)
        assert got[5][2:] == (True, 0)
        assert got[0][0] == "EstimationFailureError"
        assert got[0][1].startswith("IRLS diverged")

    def test_failed_stacked_factorizations_fall_back_to_lone_items(
            self, monkeypatch):
        """If a stacked Cholesky factorization or solve raises, every item
        is computed alone, with the bits of its lone fit."""
        for name in ("cholesky", "solve"):
            original = getattr(np.linalg, name)

            def stacked_fails(a, *args, original=original):
                if a.ndim == 3 and len(a) > 1:
                    raise np.linalg.LinAlgError("forced")
                return original(a, *args)

            monkeypatch.setattr(np.linalg, name, stacked_fails)
        xs, sums, counts = mixed_stack()
        self.check(least_squares_stack, least_squares, xs[:6], sums[:6],
                   counts[:6])
        self.check(irls_glm_stack, irls_glm, xs, sums, counts, LOGISTIC)

    def test_norms_are_the_lone_norms(self):
        """The residual, norm of X'y and IRLS merit of a stack are the bits
        of ``np.linalg.norm`` of each vector alone (a norm over an axis
        sums in another order and misses in about one case in five)."""
        rng = np.random.default_rng(2)
        for d in range(1, 13):
            v = rng.normal(size=(400, d, 1)) * 10.0 ** rng.integers(-8, 8, (400, 1, 1))
            got = _norms(v)
            assert [x.tobytes() for x in got] == [
                np.float64(np.linalg.norm(x[:, 0])).tobytes() for x in v]

    def test_mean_estimates(self):
        rng = np.random.default_rng(4)
        thetas, arms = rng.normal(size=(5, 3)), rng.normal(size=(5, 9, 3))
        for mean_fn in (None, IDENTITY, LOGISTIC):
            got = mean_estimates_stack(thetas, arms, mean_fn)
            for g in range(5):
                est = ParameterEstimate(theta_hat=thetas[g], covariance=np.eye(3))
                assert got[g].tobytes() == mean_estimates(est, arms[g],
                                                          mean_fn).tobytes()
