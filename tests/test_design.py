"""Design criteria, gradients, the Frank-Wolfe solver, and rounding."""

import numpy as np
import pytest

from fbbai.design import (Allocation, Design, allocate_budget,
                          d_opt_gradient, default_iteration_cap,
                          fw_d_optimal, fw_g_optimal, g_gradient,
                          g_value_and_argmax, kw_certificate, round_allocation)
from fbbai.errors import BudgetTooSmallError, SingularDesignError


def uniform_design(k):
    w = np.full(k, 1.0 / k)
    g, _ = g_value_and_argmax(w, np.eye(k))
    return Design(weights=w, g_value=g, iterations_used=0, certified=True)


class TestCriterion:
    def test_g_value_on_weighted_basis(self):
        # V = diag(w), so arm norms are 1/w_i
        g, idx = g_value_and_argmax(np.array([0.9, 0.1]), np.eye(2))
        assert g == pytest.approx(10.0)
        assert idx == 1

    def test_argmax_tie_takes_lowest_index(self):
        g, idx = g_value_and_argmax(np.array([0.5, 0.5]), np.eye(2))
        assert g == pytest.approx(2.0)
        assert idx == 0

    def test_singular_information_matrix_raises(self):
        with pytest.raises(SingularDesignError):
            g_value_and_argmax(np.array([1.0, 0.0]), np.eye(2))


class TestGradients:
    def test_g_gradient_closed_form_on_basis(self):
        # max at arm 1; component j is -(x_j' V^-1 x_max)^2
        grad = g_gradient(np.array([0.9, 0.1]), np.eye(2))
        assert np.allclose(grad, [0.0, -100.0])

    def test_d_opt_gradient_closed_form_on_basis(self):
        # -det(diag(w)) * (1/w_i) = -prod(w)/w_i
        grad = d_opt_gradient(np.array([0.3, 0.7]), np.eye(2))
        assert np.allclose(grad, [-0.7, -0.3])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        arms = rng.standard_normal((6, 3))
        w = rng.uniform(0.3, 1.0, 6)
        w /= w.sum()
        h = 1e-6

        def g_of(weights):
            return g_value_and_argmax(weights, arms)[0]

        def negdet_of(weights):
            V = (arms * weights[:, None]).T @ arms
            return -np.linalg.det(V)

        for fn, grad in ((g_of, g_gradient(w, arms)),
                         (negdet_of, d_opt_gradient(w, arms))):
            fd = np.zeros(6)
            for j in range(6):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd[j] = (fn(wp) - fn(wm)) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(grad)


class TestFrankWolfe:
    def test_canonical_basis_certifies_at_dimension(self):
        for d in (2, 5, 9):
            des = fw_g_optimal(np.eye(d))
            assert des.certified
            assert des.g_value == pytest.approx(d, abs=1e-9)
            assert np.allclose(des.weights, 1.0 / d, atol=1e-9)

    def test_square_spanning_arms_get_uniform_weights(self):
        rng = np.random.default_rng(3)
        arms = rng.standard_normal((4, 4))
        des = fw_g_optimal(arms)
        assert des.certified
        assert des.g_value == pytest.approx(4.0, abs=1e-6)
        assert np.allclose(des.weights, 0.25, atol=1e-6)

    def test_interior_arm_carries_no_weight(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        des = fw_g_optimal(arms, tol=1e-3)
        assert des.certified
        assert des.g_value == pytest.approx(2.0, abs=1e-2)
        assert des.weights[2] < 0.05

    def test_reported_g_matches_reported_weights(self):
        rng = np.random.default_rng(17)
        arms = rng.standard_normal((12, 4))
        des = fw_g_optimal(arms)
        g, _ = g_value_and_argmax(des.weights, arms)
        assert g == pytest.approx(des.g_value, abs=1e-12)
        assert des.iterations_used <= default_iteration_cap(12, 4, 0.01)

    def test_tighter_tolerance_tightens_the_value(self):
        rng = np.random.default_rng(29)
        arms = rng.standard_normal((15, 5))
        loose = fw_g_optimal(arms, tol=0.01)
        tight = fw_g_optimal(arms, tol=1e-4)
        assert tight.certified
        assert tight.g_value <= loose.g_value + 1e-12
        assert tight.g_value <= 5.0 * 1.0001 + 1e-9

    def test_d_optimal_shares_the_optimizer_on_the_basis(self):
        des = fw_d_optimal(np.eye(3))
        assert des.certified
        assert des.g_value == pytest.approx(3.0, abs=1e-9)

    def test_rank_deficient_arms_raise(self):
        with pytest.raises(SingularDesignError):
            fw_g_optimal(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_iteration_cap_grows_with_dimension(self):
        caps = [default_iteration_cap(20, d, 0.01) for d in (2, 4, 8)]
        assert caps[0] >= 1
        assert caps[0] < caps[1] < caps[2]


class TestCertificate:
    def test_near_optimal_design_certifies(self):
        assert kw_certificate(uniform_design(3), np.eye(3), eps=0.01)

    def test_skewed_design_fails(self):
        bad = Design(weights=np.array([0.98, 0.02]), g_value=50.0,
                     iterations_used=0, certified=False)
        assert not kw_certificate(bad, np.eye(2), eps=0.01)

    def test_singular_design_fails_instead_of_raising(self):
        bad = Design(weights=np.array([1.0, 0.0]), g_value=np.inf,
                     iterations_used=0, certified=False)
        assert not kw_certificate(bad, np.eye(2))


class TestRounding:
    def test_even_split_with_remainder_to_lowest_index(self):
        alloc = round_allocation(11, uniform_design(2), np.eye(2))
        assert alloc.total == 11
        assert list(alloc.counts) == [6, 5]

    def test_proportional_split(self):
        des = Design(weights=np.array([0.9, 0.1]), g_value=0.0,
                     iterations_used=0, certified=True)
        alloc = round_allocation(10, des, np.eye(2))
        assert list(alloc.counts) == [9, 1]

    def test_every_support_arm_keeps_a_pull(self):
        des = Design(weights=np.array([0.98, 0.01, 0.01]), g_value=0.0,
                     iterations_used=0, certified=True)
        alloc = round_allocation(5, des, np.eye(3))
        assert alloc.total == 5
        assert alloc.counts.min() >= 1

    def test_budget_below_support_size_raises(self):
        with pytest.raises(BudgetTooSmallError):
            round_allocation(1, uniform_design(2), np.eye(2))

    def test_allocate_budget_drops_negligible_support(self):
        k = 11
        w = np.full(k, 1.0 / 900.0)
        w[:2] = (1.0 - 9.0 / 900.0) / 2.0
        des = Design(weights=w, g_value=0.0, iterations_used=0, certified=True)
        alloc = allocate_budget(10, des, np.eye(k))
        assert alloc.total == 10
        assert np.all(alloc.counts[2:] == 0)
        assert list(alloc.counts[:2]) == [5, 5]

    def test_allocation_counts_align_with_design_support(self):
        rng = np.random.default_rng(31)
        arms = rng.standard_normal((9, 3))
        des = fw_g_optimal(arms)
        alloc = allocate_budget(60, des, arms)
        assert alloc.total == 60
        assert np.all(alloc.counts[des.weights <= 1e-9] <= 1)

    def test_allocation_object_total(self):
        assert Allocation(counts=np.array([2, 3, 0])).total == 5
