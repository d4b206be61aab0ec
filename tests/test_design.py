"""Design criteria, gradients, the Frank-Wolfe solver, and rounding."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbbai.design import (SUPPORT_TOL, Design, allocate_budget,
                          d_opt_gradient, default_iteration_cap,
                          fw_d_optimal, fw_g_optimal, fw_g_optimal_stack,
                          g_gradient, g_value_and_argmax, kw_certificate,
                          round_allocation, _round_rows)
from fbbai.errors import (BudgetTooSmallError, ConfigurationError,
                          SingularDesignError)
from fbbai.instances import (gen_adaptive_instance, gen_corner_instance,
                             gen_logistic_instance, gen_sphere_instance,
                             project_to_span)


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
           extra=st.integers(0, 24))
    def test_g_linearization_picks_the_largest_norm(self, seed, d, extra):
        # Cauchy-Schwarz: (x_k' V^-1 x_max)^2 <= u_k u_max <= u_max^2, so
        # the g-gradient's argmin is the arm of largest norm unless x_max
        # has a twin; Gaussian rows have none
        rng = np.random.default_rng(seed)
        arms = rng.standard_normal((d + extra, d))
        w = rng.dirichlet(np.ones(d + extra))
        assume(np.linalg.cond(arms.T @ (arms * w[:, None])) < 1e8)
        _, imax = g_value_and_argmax(w, arms)
        assert int(np.argmin(g_gradient(w, arms))) == imax

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

    def test_g_and_d_agree_on_an_antipodal_pair(self):
        # arm 5 is -arm 10; both criteria run one iteration, so the split of
        # weight between the twins is the same bit for bit
        arms = np.random.default_rng(1).standard_normal((11, 8))
        arms[5] = -arms[10]
        g_des, d_des = fw_g_optimal(arms), fw_d_optimal(arms)
        assert g_des.certified
        assert np.array_equal(g_des.weights, d_des.weights)
        assert (g_des.g_value, g_des.iterations_used) == (
            d_des.g_value, d_des.iterations_used)

    @pytest.mark.parametrize("solver", [fw_g_optimal, fw_d_optimal],
                             ids=["fw_g_optimal", "fw_d_optimal"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_arms_raise(self, solver, cell):
        arms = np.eye(3)
        arms[1, 2] = cell
        with pytest.raises(SingularDesignError, match="finite"):
            solver(arms)

    @pytest.mark.parametrize("kwargs", [dict(tol=np.nan), dict(tol=np.inf),
                                        dict(tol=0.0), dict(tol=-0.5),
                                        dict(iterations=-3),
                                        dict(iterations=np.nan)])
    def test_invalid_tolerance_or_cap_raises(self, kwargs):
        for solver in (fw_g_optimal, fw_d_optimal):
            with pytest.raises(SingularDesignError):
                solver(np.eye(3), **kwargs)

    def test_zero_iteration_cap_returns_the_uniform_start(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.45]])
        des = fw_g_optimal(arms, iterations=0)
        assert des.iterations_used == 0
        assert np.array_equal(des.weights, np.full(3, 1.0 / 3.0))

    def test_iteration_cap_grows_with_dimension(self):
        caps = [default_iteration_cap(20, d, 0.01) for d in (2, 4, 8)]
        assert caps[0] >= 1
        assert caps[0] < caps[1] < caps[2]


def golden_corpus():
    """Seeded arm sets of each family, projected as the stage loop does:
    each full set and the subset of its best arms."""
    cases = {}

    def add(family, inst, keep):
        top = np.sort(np.argsort(-inst.means, kind="stable")[:keep])
        for rows in (inst.features, inst.features[top]):
            cases.setdefault(family, []).append(project_to_span(rows).projected)

    for seed in range(4):
        add("sphere", gen_sphere_instance(32, 10, np.random.default_rng(seed)), 16)
    for seed in range(3):
        for d in (3, 5):
            add("logistic",
                gen_logistic_instance(8, d, np.random.default_rng(seed)), 4)
    for seed in range(3):
        add("corner", gen_corner_instance(10, np.random.default_rng(seed)), 5)
    add("adaptive", gen_adaptive_instance(9), 5)
    return cases


# sha256 over each solve's weights bytes, g_value, certified flag and
# iteration count, with the iteration counts in corpus order; recorded
# before the solver's g-linearization branch was removed (numpy 2.4,
# OpenBLAS on one thread), when fw_g_optimal and fw_d_optimal already
# agreed on every set here
GOLDEN_DESIGNS = {
    "sphere": ("9fc5a0c567e4b0c7e44a2c68904ada9c43abec3e26343f33145b943523c6bbb1",
               (545, 160, 436, 207, 360, 165, 377, 398)),
    "logistic": ("7e19c277f75e84462f38052a07a18da21089c3d806c0cfa9431eb2b8f0682311",
                 (168, 31, 282, 0, 155, 59, 356, 0, 187, 131, 330, 0)),
    "corner": ("af891681da8c118c872eb3bf5a7a9c0cd45a849314cd686b8aa84e81c893b336",
               (1, 77, 2, 91, 10, 91)),
    "adaptive": ("e42610d76159594aa0a2f95a5aebe8c7c5dac78d767362370fc0cf4358c0ccd8",
                 (78, 14)),
}


def golden_digest(designs):
    digest = hashlib.sha256()
    for des in designs:
        digest.update(des.weights.tobytes())
        digest.update(struct.pack("<d?q", des.g_value, des.certified,
                                  des.iterations_used))
    return digest.hexdigest(), tuple(des.iterations_used for des in designs)


def solve_stacked_by_shape(sets, **kwargs):
    """Solve same-shape sets as one stack each; designs in input order."""
    out = [None] * len(sets)
    by_shape = {}
    for i, arms in enumerate(sets):
        by_shape.setdefault(arms.shape, []).append(i)
    for idx in by_shape.values():
        for i, des in zip(idx, fw_g_optimal_stack(
                np.stack([sets[i] for i in idx]), **kwargs)):
            out[i] = des
    return out


def same_design(a, b):
    return (a.weights.tobytes(), a.g_value, a.certified, a.iterations_used) == (
        b.weights.tobytes(), b.g_value, b.certified, b.iterations_used)


class TestGoldenDesigns:
    @pytest.fixture(scope="class")
    def corpus(self):
        return golden_corpus()

    @pytest.mark.parametrize("solver", [fw_g_optimal, fw_d_optimal],
                             ids=["fw_g_optimal", "fw_d_optimal"])
    @pytest.mark.parametrize("family", sorted(GOLDEN_DESIGNS))
    def test_designs_are_bit_identical(self, corpus, family, solver):
        designs = [solver(arms) for arms in corpus[family]]
        assert golden_digest(designs) == GOLDEN_DESIGNS[family]

    @pytest.mark.parametrize("family", sorted(GOLDEN_DESIGNS))
    def test_stacks_by_shape_are_bit_identical(self, corpus, family):
        designs = solve_stacked_by_shape(corpus[family])
        assert golden_digest(designs) == GOLDEN_DESIGNS[family]

    def test_all_families_in_one_stack_per_shape(self, corpus):
        # sets of one shape from different families stop at different
        # iterations; leaving the stack must not disturb the others
        sets = [arms for family in sorted(corpus) for arms in corpus[family]]
        for lone, stacked in zip(map(fw_g_optimal, sets),
                                 solve_stacked_by_shape(sets)):
            assert same_design(lone, stacked)


# caps that stop a solve before, at and after a refresh of V^-1 (every
# REFRESH_EVERY = 100 iterations), and a tolerance no set here reaches
CAPS = (0, 1, 2, 99, 100, 101, 250)
CAP_TOL = 1e-9


def cap_corpus():
    """Arm sets that run into every cap of ``CAPS``, by family: sphere and
    logistic sets of the golden corpus (some certify at uniform weights)
    and sets in one dimension."""
    corpus = golden_corpus()
    return {"sphere": corpus["sphere"][:4], "logistic": corpus["logistic"],
            "line": list(np.random.default_rng(5).standard_normal((2, 7, 1)))}


# golden_digest of each family's solves, cap-major in CAPS order; recorded
# before the solver's start and refresh moved into one stacked renewal
# step (numpy 2.4, OpenBLAS on one thread)
GOLDEN_CAPS = {
    "line": ("6728b8523f263cec54b130eb35edde99d178e5404875d6603c5ada2395e8bd3b",
             (0, 0) + (1, 1) * 6),
    "logistic": ("f999face68046ccdaab90ce93ea155993dcf4b9de3347a7b026c0c9ee6de1dc4",
                 tuple(n for cap in CAPS for n in (cap, cap, cap, 0) * 3)),
    "sphere": ("8e73d992f86ba2bd4a79c99e14f1de65f490a5ba334b9c2d8d25fee0ffac1474",
               tuple(n for cap in CAPS for n in (cap,) * 4)),
}


class TestCapsAndRefreshes:
    @pytest.fixture(scope="class")
    def corpus(self):
        return cap_corpus()

    @pytest.mark.parametrize("family", sorted(GOLDEN_CAPS))
    def test_capped_designs_are_bit_identical(self, corpus, family):
        designs = [fw_g_optimal(arms, iterations=cap, tol=CAP_TOL)
                   for cap in CAPS for arms in corpus[family]]
        assert golden_digest(designs) == GOLDEN_CAPS[family]

    @pytest.mark.parametrize("family", sorted(GOLDEN_CAPS))
    def test_capped_stacks_are_bit_identical(self, corpus, family):
        designs = [des for cap in CAPS for des in solve_stacked_by_shape(
            corpus[family], iterations=cap, tol=CAP_TOL)]
        assert golden_digest(designs) == GOLDEN_CAPS[family]

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("d", [1, 3])
    def test_mixed_stack_matches_lone_solves(self, cap, d):
        # one stack of non-finite, non-spanning, certified-at-uniform and
        # iterating items: each entry is its lone solve's design or error
        rng = np.random.default_rng(11)
        iterating = [rng.standard_normal((9, d)) for _ in range(2)]
        non_finite = iterating[0].copy()
        non_finite[4, 0] = np.nan
        non_spanning = iterating[1].copy()
        non_spanning[:, -1] = 0.0
        at_uniform = np.tile(np.eye(d), (9 // d, 1))  # V = I/d, all norms d
        sets = [iterating[0], non_finite, at_uniform, non_spanning,
                iterating[1]]
        results = fw_g_optimal_stack(np.stack(sets), iterations=cap,
                                     tol=CAP_TOL)
        for arms, stacked in zip(sets, results):
            try:
                lone = fw_g_optimal(arms, iterations=cap, tol=CAP_TOL)
            except SingularDesignError as exc:
                assert type(stacked) is type(exc)
                assert str(stacked) == str(exc)
            else:
                assert same_design(lone, stacked)
        assert [isinstance(r, SingularDesignError) for r in results] == [
            False, True, False, True, False]
        assert results[2].iterations_used == 0 and results[2].certified


class TestStackedSolver:
    def test_one_dimension_jumps_to_the_longest_arm(self):
        rng = np.random.default_rng(4)
        sets = [rng.standard_normal((7, 1)) for _ in range(5)]
        for arms, des in zip(sets, fw_g_optimal_stack(np.stack(sets))):
            # gamma = 1: one step puts all weight on the longest arm
            assert des.certified and des.iterations_used == 1
            expected = np.zeros(7)
            expected[np.argmax(np.abs(arms[:, 0]))] = 1.0
            assert np.array_equal(des.weights, expected)
            assert same_design(des, fw_g_optimal(arms))

    def test_one_dimension_caps_of_zero_and_one(self):
        arms = np.array([[1.0], [-3.0], [0.5]])
        # a cap of 0 stops before the jump, on uniform weights
        des = fw_g_optimal(arms, iterations=0)
        assert des.iterations_used == 0 and not des.certified
        assert np.array_equal(des.weights, np.full(3, 1.0 / 3.0))
        # a cap of 1 is enough for the jump and its certificate
        des = fw_g_optimal(arms, iterations=1)
        assert des.iterations_used == 1 and des.certified
        assert np.array_equal(des.weights, [0.0, 1.0, 0.0])
        assert des.g_value == 1.0

    def test_only_the_singular_entry_raises(self):
        rng = np.random.default_rng(8)
        sets = [rng.standard_normal((12, 4)) for _ in range(5)]
        sets[2][:, 3] = 0.0  # these arms do not span R^4
        sets[4] = np.c_[sets[4][:, :3], 2.0 * sets[4][:, :1]]  # nor these
        results = fw_g_optimal_stack(np.stack(sets))
        for i in (2, 4):
            assert isinstance(results[i], SingularDesignError)
            with pytest.raises(SingularDesignError):
                fw_g_optimal(sets[i])
        for i in (0, 1, 3):
            assert same_design(results[i], fw_g_optimal(sets[i]))

    def test_parallel_columns_raise_a_design_error(self):
        # Cholesky passes on some of these V while LU finds them exactly
        # singular; every one must end in SingularDesignError, not in a raw
        # LinAlgError
        sets = []
        for seed in range(10):
            arms = np.random.default_rng(seed).standard_normal((20, 6))
            arms[:, 5] = 2.0 * arms[:, 0]
            sets.append(arms)
            with pytest.raises(SingularDesignError):
                fw_g_optimal(arms)
        assert all(isinstance(r, SingularDesignError)
                   for r in fw_g_optimal_stack(np.stack(sets)))

    def test_non_finite_entry_raises_alone(self):
        sets = [np.eye(3), np.eye(3)]
        sets[0] = sets[0].copy()
        sets[0][1, 1] = np.nan
        bad, good = fw_g_optimal_stack(np.stack(sets))
        assert isinstance(bad, SingularDesignError) and "finite" in str(bad)
        assert good.certified

    def test_cap_across_the_refresh(self):
        # every set here needs more than 150 iterations, so each crosses the
        # recomputation at iteration 100 and stops at the cap uncertified
        sets = [project_to_span(gen_sphere_instance(
            32, 10, np.random.default_rng(seed)).features).projected
                for seed in range(4)]
        stacked = fw_g_optimal_stack(np.stack(sets), iterations=150)
        for arms, des in zip(sets, stacked):
            assert des.iterations_used == 150 and not des.certified
            g, _ = g_value_and_argmax(des.weights, arms)
            assert g == pytest.approx(des.g_value, rel=1e-12)
            assert same_design(des, fw_g_optimal(arms, iterations=150))
            assert fw_g_optimal(arms).iterations_used > 150

    def test_empty_stack_and_bad_shapes(self):
        assert fw_g_optimal_stack(np.zeros((0, 3, 2))) == []
        for bad in (np.eye(3), np.zeros((2, 0, 3))):
            with pytest.raises(SingularDesignError):
                fw_g_optimal_stack(bad)
        for bad in (np.ones(3), np.zeros((0, 2)), np.array([])):
            with pytest.raises(SingularDesignError, match="nonempty 2-d"):
                fw_g_optimal(bad)


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
        counts = round_allocation(11, uniform_design(2))
        assert counts.sum() == 11
        assert list(counts) == [6, 5]

    def test_proportional_split(self):
        des = Design(weights=np.array([0.9, 0.1]), g_value=0.0,
                     iterations_used=0, certified=True)
        counts = round_allocation(10, des)
        assert list(counts) == [9, 1]

    def test_every_support_arm_keeps_a_pull(self):
        des = Design(weights=np.array([0.98, 0.01, 0.01]), g_value=0.0,
                     iterations_used=0, certified=True)
        counts = round_allocation(5, des)
        assert counts.sum() == 5
        assert counts.min() >= 1

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           extra=st.integers(0, 400))
    def test_counts_sum_to_n_and_cover_the_support(self, seed, k, extra):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
        w[rng.integers(k)] += 0.1  # at least one support arm
        w /= w.sum()
        support = w > SUPPORT_TOL
        n = int(support.sum()) + extra
        des = Design(weights=w, g_value=0.0, iterations_used=0, certified=True)
        counts = round_allocation(n, des)
        assert counts.sum() == n
        assert counts[support].min() >= 1
        assert np.all(counts[~support] == 0)

    def test_budget_below_support_size_raises(self):
        with pytest.raises(BudgetTooSmallError):
            round_allocation(1, uniform_design(2))

    def test_stack_rows_equal_lone_roundings(self):
        # different budgets, an empty support and a support above its budget
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(6), size=6)
        weights[1, 2:] = 0.0
        weights[1] /= weights[1].sum()
        weights[3] = 0.0
        n = np.array([17, 4, 250, 9, 5, 6])
        counts, errors = _round_rows(n, weights)
        rows = [errors.get(b, counts[b]) for b in range(n.size)]
        assert isinstance(rows[3], BudgetTooSmallError)
        assert isinstance(rows[4], BudgetTooSmallError)
        for b, row in enumerate(rows):
            des = Design(weights=weights[b], g_value=0.0, iterations_used=0,
                         certified=True)
            if isinstance(row, BudgetTooSmallError):
                with pytest.raises(BudgetTooSmallError) as lone:
                    round_allocation(int(n[b]), des)
                assert str(row) == str(lone.value)
            else:
                assert row.tobytes() == round_allocation(int(n[b]),
                                                         des).tobytes()
        assert str(rows[3]) == "design has empty support"
        assert str(rows[4]) == (
            "budget 5 cannot give every one of 6 support arms a pull")

    def test_budgets_of_2_53_or_more_are_refused(self):
        # below 2**53 the float products (n - p/2) w_i resolve single pulls
        des = Design(weights=np.array([0.5, 0.3, 0.2]), g_value=0.0,
                     iterations_used=0, certified=True)
        assert round_allocation(2**53 - 1, des).sum() == 2**53 - 1
        for n in (2**53, 2**63 - 1, 2**63, 10**20):
            with pytest.raises(ConfigurationError, match=r"not below 2\*\*53"):
                round_allocation(n, des)
            with pytest.raises(ConfigurationError, match=r"not below 2\*\*53"):
                allocate_budget(n, des, np.eye(3))

    def test_allocate_budget_drops_negligible_support(self):
        k = 11
        w = np.full(k, 1.0 / 900.0)
        w[:2] = (1.0 - 9.0 / 900.0) / 2.0
        des = Design(weights=w, g_value=0.0, iterations_used=0, certified=True)
        counts = allocate_budget(10, des, np.eye(k))
        assert counts.sum() == 10
        assert np.all(counts[2:] == 0)
        assert list(counts[:2]) == [5, 5]

    def test_allocation_counts_align_with_design_support(self):
        rng = np.random.default_rng(31)
        arms = rng.standard_normal((9, 3))
        des = fw_g_optimal(arms)
        counts = allocate_budget(60, des, arms)
        assert counts.sum() == 60
        assert np.all(counts[des.weights <= 1e-9] <= 1)

    @pytest.mark.parametrize("weights, n, expected", [
        ([0.4, 0.4, 0.2], 2, [1, 0, 1]),  # no weight reaches 1/n
        ([0.5, 0.2, 0.2, 0.1], 3, [2, 0, 0, 1]),  # the heavy arms are parallel
        ([0.45, 0.45, 0.05, 0.05], 3, [1, 1, 0, 1]),  # then the other heavy one
    ], ids=["none-heavy", "parallel-heavy", "heavy-after-span"])
    def test_allocate_budget_keeps_a_spanning_support(self, weights, n,
                                                      expected):
        arms = np.array([[1.0, 0.0]] * (len(weights) - 1) + [[0.0, 1.0]])
        des = Design(weights=np.array(weights), g_value=0.0,
                     iterations_used=0, certified=True)
        assert list(allocate_budget(n, des, arms)) == expected
