"""Stage scheduling, exploration, elimination, and full elimination runs."""

import hashlib
import math
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fbbai.gse as gse_mod
from fbbai.design import allocate_budget, fw_g_optimal
from fbbai.errors import (BudgetTooSmallError, ConfigurationError,
                          EstimationFailureError, FbbaiError,
                          InvalidAllocationError, SingularDesignError)
from fbbai.estimators import COND_LIMIT, irls_glm_stack
from fbbai.gse import (DesignCache, GseConfig, eliminate, explore,
                       gse_lockstep, gse_run, stage_plan, stage_schedule)
from fbbai.harness import family_source, rep_seed
from fbbai.instances import (LOGISTIC, BanditInstance, gen_adaptive_instance,
                             gen_logistic_instance, gen_sphere_instance,
                             gen_static_instance, noiseless, project_to_span,
                             sample_rewards)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = GseConfig(budget=100)
        assert cfg.eta == 2.0 and cfg.strategy == "fw-g" and cfg.model == "linear"

    @pytest.mark.parametrize("kwargs", [
        dict(budget=0),
        dict(budget=100, eta=1.0),
        dict(budget=100, eta=math.inf),
        dict(budget=100, eta=math.nan),
        dict(budget=100, strategy="greedy"),
        dict(budget=100, model="poisson"),
        dict(budget=40.5),
        dict(budget=40.0),
        dict(budget="40"),
        dict(budget=2**53),
        dict(budget=2**63),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GseConfig(**kwargs)

    def test_budgets_below_2_53_accepted(self):
        assert GseConfig(budget=2**53 - 1).budget == 2**53 - 1
        with pytest.raises(ConfigurationError, match=r"not below 2\*\*53"):
            stage_plan(gen_static_instance(1.0, K=4), (0, 1), 2**53, "uniform")

    def test_numpy_integer_budget_accepted(self):
        assert GseConfig(budget=np.int64(40)).budget == 40


class TestStageSchedule:
    def test_halving_eight_arms(self):
        sched = stage_schedule(8, 2.0, 300)
        assert sched.stages == 3
        assert sched.per_stage_budget == 100
        assert sched.sizes == (8, 4, 2, 1)

    def test_ceil_keeps_odd_sizes_shrinking(self):
        sched = stage_schedule(10, 2.0, 400)
        assert sched.sizes == (10, 5, 3, 2, 1)
        assert sched.stages == 4

    def test_large_power_of_two_is_exact(self):
        sched = stage_schedule(2 ** 20, 2.0, 2 ** 25)
        assert sched.stages == 20

    def test_integer_eta_three(self):
        sched = stage_schedule(729, 3.0, 3 ** 7)
        assert sched.sizes == (729, 243, 81, 27, 9, 3, 1)
        assert sched.per_stage_budget == 3 ** 7 // 6

    def test_huge_fractional_eta_keeps_one_arm(self):
        # m / eta < 1e-12 must not round down to a stage of no arms
        sched = stage_schedule(16, 1e14 + 0.5, 100)
        assert sched.sizes == (16, 1)
        assert sched.per_stage_budget == 100

    def test_fractional_eta_stalls(self):
        # ceil(2 / 1.5) = 2 never reaches a single arm
        with pytest.raises(ConfigurationError):
            stage_schedule(4, 1.5, 1000)

    def test_budget_must_cover_every_stage(self):
        with pytest.raises(ConfigurationError):
            stage_schedule(8, 2.0, 2)

    def test_needs_two_arms_and_real_eta(self):
        with pytest.raises(ConfigurationError):
            stage_schedule(1, 2.0, 100)
        with pytest.raises(ConfigurationError):
            stage_schedule(8, 1.0, 100)
        # an infinite eta would keep no arm at all: ceil(m / inf) = 0
        for eta in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="finite"):
                stage_schedule(8, eta, 100)


class TestEliminate:
    def test_keeps_top_half_by_estimate(self):
        out = eliminate((0, 1, 2, 3), np.array([0.1, 0.5, 0.5, 0.9]), 2.0)
        assert out == (1, 3)

    def test_tie_at_the_cut_prefers_lower_id(self):
        out = eliminate((0, 1, 2, 3), np.array([1.0, 0.5, 0.5, 0.2]), 2.0)
        assert out == (0, 1)

    def test_two_arms_reduce_to_one(self):
        assert eliminate((4, 9), np.array([0.0, 1.0]), 2.0) == (9,)

    def test_survivors_come_back_sorted(self):
        out = eliminate((0, 1, 2, 3, 4), np.array([0.0, 5.0, 1.0, 4.0, 3.0]), 2.0)
        assert out == (1, 3, 4)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20),
           levels=st.integers(1, 4), eta=st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    def test_keeps_ceil_m_over_eta_with_lowest_id_ties(self, seed, m, levels,
                                                       eta):
        rng = np.random.default_rng(seed)
        ids = tuple(sorted(int(i) for i in rng.permutation(3 * m)[:m]))
        mu_hat = rng.integers(levels, size=m).astype(float)  # many exact ties
        keep = math.ceil(Fraction(m) / Fraction(eta))
        ranked = sorted(range(m), key=lambda i: (-mu_hat[i], ids[i]))
        expected = tuple(sorted(ids[i] for i in ranked[:keep]))
        assert eliminate(ids, mu_hat, eta) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), G=st.integers(1, 8),
           m=st.integers(1, 12), levels=st.integers(1, 3),
           eta=st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    def test_stacked_cuts_equal_lone_cuts_on_ties(self, seed, G, m, levels, eta):
        """Rows of ids in any order with estimates full of exact ties: each
        row of ``eliminate_stack`` is that row's ``eliminate``."""
        rng = np.random.default_rng(seed)
        ids = np.array([rng.permutation(3 * m)[:m] for _ in range(G)])
        mu_hat = rng.integers(levels, size=(G, m)).astype(float)
        got = gse_mod.eliminate_stack(ids, mu_hat, gse_mod._ceil_div(m, eta))
        assert [tuple(row) for row in got.tolist()] == [
            eliminate(tuple(ids[g].tolist()), mu_hat[g], eta) for g in range(G)]

    def test_huge_fractional_eta_keeps_the_top_arm(self):
        assert eliminate((0, 1, 2), np.array([1.0, 3.0, 2.0]), 1e14 + 0.5) == (1,)

    def test_estimate_count_must_match(self):
        with pytest.raises(ValueError):
            eliminate((0, 1, 2), np.array([1.0, 2.0]), 2.0)

    @pytest.mark.parametrize("mu_hat", [[1.0, 2.0], [[1.0], [2.0], [3.0]], 1.0])
    def test_estimates_of_the_wrong_shape_are_a_configuration_error(self, mu_hat):
        with pytest.raises(ConfigurationError, match="one estimate per active arm"):
            eliminate((0, 1, 2), mu_hat, 2.0)

    def test_estimates_may_be_a_list(self):
        assert eliminate((0, 1, 2), [1.0, 3.0, 2.0], 2.0) == (1, 2)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -2.0, math.nan, math.inf])
    def test_invalid_eta_raises_a_config_error(self, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            eliminate((0, 1, 2), np.array([1.0, 2.0, 3.0]), eta)


class TestExplore:
    def test_uniform_split_with_remainder(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        active = project_to_span(inst.features)
        plan = stage_plan(inst, (0, 1, 2, 3), 10, "uniform")
        data = explore(inst, plan, np.random.default_rng(0))
        assert list(plan.counts) == [3, 3, 2, 2]
        assert plan.design is None
        assert data.n == 10
        # one row per arm: its pull count and reward sum; noiseless static
        # rewards pay 1 on arm 0 and 0 elsewhere
        assert np.array_equal(data.xs, active.projected)
        assert list(data.counts) == [3, 3, 2, 2]
        assert list(data.ys) == pytest.approx([3.0, 0.0, 0.0, 0.0])

    def test_uniform_remainders_go_to_the_lowest_ids(self):
        # six arms in R^2, so the set is not saturated and n < m is allowed
        inst = gen_sphere_instance(6, 2, np.random.default_rng(0))
        listed = (5, 1, 3, 0, 2, 4)
        for n, by_id in [(4, [1, 1, 1, 1, 0, 0]), (8, [2, 2, 1, 1, 1, 1]),
                         (15, [3, 3, 3, 2, 2, 2])]:
            plan = stage_plan(inst, listed, n, "uniform")
            assert not plan.saturated
            assert plan.counts.tolist() == [by_id[i] for i in listed]
            ascending = stage_plan(inst, tuple(range(6)), n, "uniform")
            assert ascending.counts.tolist() == by_id
        # the shared rows of inheriting runs follow the same rule
        eye = gen_static_instance(1.0, K=4)
        assert gse_mod._inherited_counts(4, 10, "uniform").tolist() == \
            stage_plan(eye, (0, 1, 2, 3), 10, "uniform").counts.tolist() == \
            [3, 3, 2, 2]

    def test_stage_budget_below_dimension_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            stage_plan(inst, (0, 1, 2, 3), 3, "uniform")

    def test_non_integer_ids_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="must be integers"):
            stage_plan(inst, (0.5, 1.2, 2.9, 3), 10, "uniform")
        with pytest.raises(ConfigurationError, match="must be integers"):
            stage_plan(inst, (0, 1, 2, 3), 10.0, "uniform")
        plan = stage_plan(inst, np.arange(4), 10, "uniform")
        assert plan.arms.original_ids == (0, 1, 2, 3)

    @pytest.mark.parametrize("ids", [(), (-1, 0), (0, 0, 1), (0, 9)])
    def test_plans_only_distinct_arm_ids(self, ids):
        # none, negative, repeated and out-of-range ids of K = 4 arms
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="distinct"):
            stage_plan(inst, ids, 10, "fw-g")

    def test_unknown_strategy_rejected(self):
        # as GseConfig rejects it, rather than planning a G-design
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="'bogus' not one of"):
            stage_plan(inst, (0, 1, 2, 3), 10, "bogus")

    def test_design_allocation_spends_the_stage_budget(self):
        inst = noiseless(gen_adaptive_instance(4))
        plan = stage_plan(inst, tuple(range(inst.n_arms)), 40, "fw-g")
        data = explore(inst, plan, np.random.default_rng(0))
        assert plan.counts.sum() == 40 and data.n == 40
        assert plan.design is not None and plan.design.certified

    def test_saturation_needs_independent_well_conditioned_arms(self):
        eye = gen_static_instance(1.0, K=4)  # orthonormal arms, m = d_t
        assert stage_plan(eye, (0, 1, 2, 3), 8, "uniform").saturated
        assert stage_plan(eye, (1, 3), 8, "fw-g").saturated
        five = gen_adaptive_instance(4)  # five arms in R^4
        assert not stage_plan(five, tuple(range(5)), 40, "fw-g").saturated
        # independent, but cond(V) is about 4e15: the linear fit refuses it
        close = BanditInstance(features=np.array([[1.0, 0.0], [1.0, 3e-8]]),
                               theta_star=np.array([1.0, 0.0]))
        assert not stage_plan(close, (0, 1), 4, "uniform").saturated

    def test_cached_counts_are_shared_and_read_only(self):
        # two jobs of one instance ask for one stage-1 key, built once
        inst = gen_static_instance(0.5, K=8, sigma2=4.0)
        cfg = GseConfig(budget=80)
        a, b = gse_lockstep([(inst, cfg, np.random.default_rng(s)) for s in (0, 1)])
        assert np.shares_memory(a.traces[0].counts, b.traces[0].counts)
        with pytest.raises(ValueError):
            a.traces[0].counts[0] = 0


def glm_grid_instance(K, gap):
    theta = np.zeros(K)
    theta[0] = gap
    return BanditInstance(features=np.eye(K), theta_star=theta, model="glm",
                          mean_fn=LOGISTIC, noise_sigma2=0.25, bernoulli=True)


@pytest.mark.parametrize("model", ["linear", "logistic"])
def test_arms_with_equal_statistics_tie_to_the_lower_id(model):
    """On a saturated stage (linearly independent active arms) an arm's
    estimate is its own reward sum over its pull count, so arms that agree
    on both must get bit-equal estimates; the tie then goes to the lower
    id, never to rounding.  Both instances are saturated at every stage:
    the orthonormal grid, and eight box-uniform arms in R^10."""
    cfg = GseConfig(budget=200, model=model)
    for inst in (glm_grid_instance(8, 0.75),
                 gen_logistic_instance(8, 10, np.random.default_rng(0))):
        straddling = 0
        for seed in range(300):
            result = gse_run(inst, cfg, np.random.default_rng(seed))
            replay = np.random.default_rng(seed)  # redraws the run's rewards
            for trace in result.traces:
                ids = np.asarray(trace.arms.original_ids)
                sums = per_arm_sums(inst, ids, trace.counts, replay)
                for i in range(ids.size):
                    for j in range(i + 1, ids.size):
                        if (trace.counts[i], sums[i]) != (trace.counts[j], sums[j]):
                            continue
                        assert trace.mu_hat[i] == trace.mu_hat[j]
                        if ids[j] in trace.survivors:
                            assert ids[i] in trace.survivors
                        straddling += ((ids[i] in trace.survivors)
                                       != (ids[j] in trace.survivors))
        assert straddling > 0  # some ties fell on the elimination cut


def per_arm_sums(inst, ids, counts, rng):
    """Reference reward sums of a stage's pulls of the arms ``ids``, drawn
    as a lone job draws them: one ``rng.binomial(counts, means)`` call for
    Bernoulli rewards, else one ``sample_rewards`` draw per pull, in
    explore's order, summed by ``np.bincount``."""
    if inst.bernoulli:
        return rng.binomial(counts, inst.means[ids]).astype(float)
    arm_of_pull = np.repeat(np.arange(ids.size), counts)
    return np.bincount(arm_of_pull,
                       weights=sample_rewards(inst, ids[arm_of_pull], rng),
                       minlength=ids.size)


class TestExploreStack:
    """``_stage_sums`` sums bit for bit as the per-arm reference does on
    a replayed generator, and leaves each generator where the reference
    leaves it.  Every stack in ``CASES`` has eight active arms."""

    GAUSS = gen_sphere_instance(8, 3, np.random.default_rng(1), sigma2=2.0)
    BERN = gen_logistic_instance(8, 5, np.random.default_rng(2))
    GRID = glm_grid_instance(8, 0.75)
    WIDE = gen_static_instance(0.5, K=12, sigma2=4.0)  # active ids below
    WIDE_BERN = gen_logistic_instance(12, 5, np.random.default_rng(3))
    SUBSET = (0, 2, 3, 5, 7, 8, 10, 11)
    EIGHT = tuple(range(8))

    CASES = {
        "gaussian": [(GAUSS, EIGHT, 40, "fw-g"), (WIDE, SUBSET, 20, "uniform")],
        "bernoulli": [(BERN, EIGHT, 40, "fw-g"), (GRID, EIGHT, 21, "uniform"),
                      (WIDE_BERN, SUBSET, 30, "uniform")],
        "noiseless": [(noiseless(GAUSS), EIGHT, 40, "fw-g"),
                      (noiseless(WIDE), SUBSET, 20, "uniform")],
        # fewer uniform pulls than arms: the last arms get none
        "zero-counts": [(BERN, EIGHT, 6, "uniform"), (GAUSS, EIGHT, 5, "uniform"),
                        (noiseless(GAUSS), EIGHT, 3, "uniform")],
        "mixed": [(GRID, EIGHT, 21, "uniform"), (GAUSS, EIGHT, 40, "fw-g"),
                  (noiseless(WIDE), SUBSET, 20, "uniform"),
                  (BERN, EIGHT, 6, "uniform"), (GAUSS, EIGHT, 5, "uniform")],
        # 40 Gaussian jobs of 1000 pulls between Bernoulli ones: three
        # blocks of DRAW_BLOCK pulls or fewer
        "blocks": [(GRID, EIGHT, 1000, "uniform"), (WIDE, SUBSET, 1000, "fw-g"),
                   (WIDE, SUBSET, 1000, "fw-g")] * 20,
        # Bernoulli sums of 2**16 and more (arms of mean 1/2 or above), and
        # a Gaussian block too large for the kept buffer
        "wide-counts": [(GRID, EIGHT, 8 * 140_000, "uniform"),
                        (BERN, EIGHT, 40, "fw-g"),
                        (WIDE, SUBSET, 8 * 2500, "uniform")],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_sums_match_per_pull_draws(self, case):
        asks = self.CASES[case]
        rows = self.lone_rows(asks)
        plans = [block.plan(row) for block, row in rows]
        if case == "zero-counts":
            assert all((plan.counts == 0).any() for plan in plans)
        gaussian = sum(plan.counts.sum() for (inst, *_), plan in zip(asks, plans)
                       if not inst.bernoulli)
        if case == "blocks":
            assert gaussian > 2 * gse_mod.DRAW_BLOCK
        if case == "wide-counts":
            assert plans[0].counts.min() >= 1 << 17
            assert self.GRID.means.min() >= 0.5
            assert plans[2].counts.sum() > gse_mod.DRAW_BLOCK
        self.check_sums(asks, rows)

    def test_stacks_wider_than_the_scalar_path(self):
        # stacks of eight arms draw Bernoulli rows by scalar calls, stacks
        # of twelve by one array call per job: both match the reference,
        # with unpulled arms, sums of 2**16 and more and a Gaussian job
        assert 8 <= gse_mod.SCALAR_BINOMIAL_ARMS < 12
        twelve = tuple(range(12))
        asks = [(self.WIDE_BERN, twelve, 40, "fw-g"),
                (self.WIDE_BERN, twelve, 6, "uniform"),
                (self.WIDE, twelve, 20, "uniform"),
                (glm_grid_instance(12, 0.75), twelve, 12 * 70_000, "uniform")]
        rows = self.lone_rows(asks)
        assert (rows[1][0].plan(rows[1][1]).counts == 0).any()
        self.check_sums(asks, rows)

    def test_jobs_of_one_instance_sharing_plans(self):
        # the plans' rows are taken once per block and the means gathered
        # with one take
        asks = [(self.WIDE, self.SUBSET, 20, "uniform"),
                (self.WIDE, tuple(range(1, 9)), 40, "fw-g")] * 3
        rows = gse_mod._plan_stages(asks)
        assert rows[0] == rows[2] and rows[1] == rows[5]
        self.check_sums(asks, rows)

    def test_back_to_back_stages_on_the_kept_buffers(self):
        # blocks shrink and grow, Gaussian follows Bernoulli, noiseless
        # follows noisy: a draw left in the kept buffers must never reach
        # a later stage's sums
        for case in ("blocks", "bernoulli", "gaussian", "noiseless",
                     "zero-counts", "blocks", "noiseless", "mixed",
                     "wide-counts", "bernoulli", "noiseless", "zero-counts"):
            asks = self.CASES[case]
            self.check_sums(asks, self.lone_rows(asks))

    def test_kept_buffers_never_grow(self):
        asks = self.CASES["wide-counts"]
        self.check_sums(asks, self.lone_rows(asks))
        kept = [a for a in vars(gse_mod._BUFFERS).values()
                if isinstance(a, np.ndarray)]
        assert len(kept) == 1
        assert kept[0].size == gse_mod.DRAW_BLOCK

    @pytest.mark.parametrize("sigma2", [10.0, 4.0, 2.0, 0.25, 1e-300])
    def test_gaussian_noise_is_numpys_normal(self, sigma2):
        # standard normals scaled by sigma are rng.normal(0, sigma, n) bit
        # for bit, and leave the generator where it leaves it: on an arm of
        # mean 0.0 the rewards are the noise
        inst = gen_static_instance(0.5, K=4, sigma2=sigma2)
        assert inst.means[1] == 0.0
        rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        out = sample_rewards(inst, [1] * 50_000, rng)
        want = replay.normal(0.0, math.sqrt(sigma2), out.size)
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_noiseless_noise_adds_exactly_without_a_draw(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        inst = noiseless(self.GAUSS)
        mu = np.array([0.0, -0.0, 1.5, -2.25, 1e-310])
        # signed zeros and subnormals that no feature product yields
        vars(inst)["means"] = np.concatenate([mu, inst.means[mu.size:]])
        out = sample_rewards(inst, range(mu.size), rng)
        assert out.tobytes() == mu.tobytes()
        assert rng.bit_generator.state == state

    @staticmethod
    def lone_rows(asks):
        """Each ask's (block, row) plan, planned alone."""
        return [gse_mod._plan_stages([ask])[0] for ask in asks]

    @staticmethod
    def check_sums(asks, rows):
        """``rows`` holds each ask's (block, row) plan."""
        plans = [block.plan(row) for block, row in rows]
        rngs = [np.random.default_rng(100 + g) for g in range(len(asks))]
        counts, _, _ = gse_mod._plan_stacks(rows)
        ids = np.array([ask[1] for ask in asks])
        sums = gse_mod._stage_sums([(ask[0], rng) for ask, rng
                                    in zip(asks, rngs)], counts, ids)
        assert sums.shape == (len(asks), len(asks[0][1]))
        for g, ((inst, *_), plan, rng) in enumerate(zip(asks, plans, rngs)):
            replay = np.random.default_rng(100 + g)
            want = per_arm_sums(inst, np.asarray(plan.arms.original_ids),
                                plan.counts, replay)
            assert sums[g].tobytes() == want.tobytes()
            assert rng.bit_generator.state == replay.bit_generator.state


def test_bernoulli_sums_follow_the_binomial_pmf():
    """Pooled over 3000 jobs per plan, each pulled arm's stage sums fit
    Binomial(c, mu): one chi-squared statistic over every pulled arm of
    three plans, each arm's outcomes merged into bins that expect at least
    five sums, gated at p >= 1e-3 (seed, job count and gate fixed before
    the first run).  An arm with no pull sums to exactly 0."""
    stats = pytest.importorskip("scipy.stats")
    S, n = TestExploreStack, 3000
    asks = [(S.GRID, S.EIGHT, 200, "uniform"), (S.BERN, S.EIGHT, 40, "fw-g"),
            (S.BERN, S.EIGHT, 6, "uniform")]
    counts, _, _ = gse_mod._plan_stacks(S.lone_rows(asks) * n)
    ids = np.array([ask[1] for ask in asks] * n)
    jobs = [(asks[g % 3][0], np.random.default_rng([21, g]))
            for g in range(3 * n)]
    sums = gse_mod._stage_sums(jobs, counts, ids)
    chi2 = dof = unpulled = 0
    for k, (inst, *_) in enumerate(asks):
        for i in range(8):
            c, mu, s = counts[k, i], inst.means[ids[k, i]], sums[k::3, i]
            if c == 0:
                assert not s.any()
                unpulled += 1
                continue
            observed = np.bincount(s.astype(int), minlength=c + 1)
            expected = n * stats.binom.pmf(np.arange(c + 1), c, mu)
            starts, mass = [0], 0.0
            for v in range(c):
                mass += expected[v]
                if mass >= 5.0:
                    starts.append(v + 1)
                    mass = 0.0
            if expected[starts[-1]:].sum() < 5.0 and len(starts) > 1:
                starts.pop()  # the tail joins the bin before it
            o, e = (np.add.reduceat(a, starts) for a in (observed, expected))
            chi2 += ((o - e) ** 2 / e).sum()
            dof += len(starts) - 1
    assert unpulled == 2 and dof > 100
    assert stats.chi2.sf(chi2, dof) >= 1e-3


def test_binomial_stream_is_pinned():
    """The stream behind Bernoulli stage sums: ``Generator.binomial`` over
    counts of 0 to 2**17 and means of 0 to 1, both of its algorithms
    (inversion below n min(p, 1 - p) = 30, BTPE above) and the p > 1/2
    reflection, pinned with the draw that follows.  NumPy promises no
    stream compatibility of ``Generator`` methods across versions, so this
    runs on the oldest NumPy that pyproject.toml admits too."""
    rng = np.random.default_rng(2026)
    counts = np.array([0, 5, 40, 40, 1000, 1 << 16, 1 << 17, 70_000, 12, 300])
    p = np.array([0.5, 0.0, 1.0, 0.3, 0.02, 0.5, 0.9, 1.0, 0.75, 0.6])
    assert rng.binomial(counts, p).tolist() == [
        0, 0, 40, 13, 19, 32806, 118063, 70000, 6, 198]
    assert rng.integers(1 << 62) == 3471364087721151040


class TestGseRun:
    @pytest.mark.parametrize("strategy", ["uniform", "fw-g", "static"])
    def test_noiseless_run_finds_the_best_arm(self, strategy):
        inst = noiseless(gen_adaptive_instance(4))
        cfg = GseConfig(budget=60, strategy=strategy)
        result = gse_run(inst, cfg, np.random.default_rng(0))
        assert result.success
        assert result.recommended == inst.best_arm

    def test_stage_sizes_follow_the_schedule(self):
        inst = noiseless(gen_adaptive_instance(4))  # five arms
        result = gse_run(inst, GseConfig(budget=60), np.random.default_rng(0))
        active_sizes = [t.arms.n_arms for t in result.traces]
        assert active_sizes == [5, 3, 2]
        assert len(result.traces[-1].survivors) == 1
        assert result.total_pulls == 60

    def test_same_seed_same_run(self):
        inst = gen_static_instance(1.0, K=8, sigma2=4.0)
        cfg = GseConfig(budget=80, strategy="fw-g")
        a = gse_run(inst, cfg, np.random.default_rng(123))
        b = gse_run(inst, cfg, np.random.default_rng(123))
        assert a.recommended == b.recommended
        assert len(a.traces) == len(b.traces)
        for ta, tb in zip(a.traces, b.traces):
            assert np.array_equal(ta.mu_hat, tb.mu_hat)

    def test_another_instance_in_the_batch_does_not_change_the_run(self):
        rng = np.random.default_rng(3)
        a, b = gen_sphere_instance(8, 3, rng), gen_sphere_instance(8, 3, rng)
        cfg = GseConfig(budget=120)
        _, shared = gse_lockstep([(a, cfg, np.random.default_rng(0)),
                                  (b, cfg, np.random.default_rng(1))])
        alone = gse_run(b, cfg, np.random.default_rng(1))
        assert run_summary(shared) == run_summary(alone)
        assert np.array_equal(shared.traces[0].arms.projected,
                              project_to_span(b.features).projected)

    def test_remainder_is_dropped_by_default(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        result = gse_run(inst, GseConfig(budget=13, strategy="uniform"),
                         np.random.default_rng(0))
        assert result.total_pulls == 12

    @settings(max_examples=40, deadline=None)
    @example(seed=0, K=6, d=2, budget=9, strategy="fw-g")  # kept arms did not span
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 10),
           d=st.integers(2, 5), budget=st.integers(1, 400),
           strategy=st.sampled_from(["uniform", "fw-g", "static"]))
    def test_total_pulls_stay_within_the_budget(self, seed, K, d, budget,
                                                strategy):
        inst = gen_sphere_instance(K, d, np.random.default_rng(seed))
        try:
            result = gse_run(inst, GseConfig(budget=budget, strategy=strategy),
                             np.random.default_rng(seed))
        except ConfigurationError:
            return  # budget too small for the schedule or the span dimension
        assert result.total_pulls <= budget
        assert result.total_pulls == sum(int(t.counts.sum())
                                         for t in result.traces)

    def test_first_stage_must_afford_the_dimension(self):
        inst = gen_static_instance(1.0, K=8)
        with pytest.raises(ConfigurationError):
            gse_run(inst, GseConfig(budget=21, strategy="uniform"),
                    np.random.default_rng(0))

    def test_budget_smaller_than_stage_count_rejected(self):
        inst = gen_static_instance(1.0, K=8)
        with pytest.raises(ConfigurationError):
            gse_run(inst, GseConfig(budget=2), np.random.default_rng(0))

    def test_logistic_model_fits_with_irls(self):
        inst = gen_logistic_instance(6, 3, np.random.default_rng(14))
        cfg = GseConfig(budget=90, model="logistic")
        result = gse_run(inst, cfg, np.random.default_rng(5))
        assert 0 <= result.recommended < 6
        assert not any(t.used_fallback for t in result.traces)

    def test_estimation_failure_falls_back_to_least_squares(self, monkeypatch):
        def explode(xs, *args, **kwargs):
            return [EstimationFailureError("forced")] * len(xs)

        monkeypatch.setattr(gse_mod, "irls_glm_stack", explode)
        inst = gen_logistic_instance(6, 3, np.random.default_rng(14))
        cfg = GseConfig(budget=90, model="logistic")
        result = gse_run(inst, cfg, np.random.default_rng(5))
        # saturated stages (m = d_t) fit nothing, so only the others fall back
        fitted = [t for t in result.traces if t.arms.n_arms > t.arms.dim]
        assert fitted
        assert all(t.used_fallback for t in fitted)

    @pytest.mark.parametrize("model", ["linear", "logistic"])
    def test_saturated_stages_rank_without_a_fit(self, monkeypatch, model):
        def explode(*args, **kwargs):
            raise InvalidAllocationError("no fit expected")

        monkeypatch.setattr(gse_mod, "irls_glm_stack", explode)
        monkeypatch.setattr(gse_mod, "least_squares_stack", explode)
        inst = glm_grid_instance(8, 0.75)
        result = gse_run(inst, GseConfig(budget=200, model=model),
                         np.random.default_rng(3))
        assert len(result.traces) == 3
        for t in result.traces:
            assert t.estimator_iterations == 0
            assert t.estimator_converged and not t.used_fallback


class TestStaticRun:
    def test_single_stage_uses_one_certified_design(self):
        inst = noiseless(gen_adaptive_instance(4))
        result = gse_run(inst, GseConfig(budget=50, strategy="static"),
                         np.random.default_rng(0))
        assert result.success
        assert len(result.traces) == 1
        assert result.traces[0].design.certified
        assert result.total_pulls == 50

    def test_dispatch_through_gse_run(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        result = gse_run(inst, GseConfig(budget=40, strategy="static"),
                         np.random.default_rng(0))
        assert len(result.traces) == 1
        assert result.success

    def test_budget_below_dimension_rejected(self):
        inst = gen_static_instance(1.0, K=8)
        with pytest.raises(ConfigurationError):
            gse_run(inst, GseConfig(budget=4, strategy="static"),
                    np.random.default_rng(0))


# job kinds for the lockstep property: (instance family, K, d, budget,
# strategy, model); budget 9 aborts at the first plan (three pulls per
# stage cannot span R^4), budget 1 at the schedule
JOB_KINDS = [
    ("sphere", 8, 3, 120, "fw-g", "linear"),
    ("sphere", 8, 3, 120, "uniform", "linear"),
    ("sphere", 6, 4, 9, "fw-g", "linear"),
    ("sphere", 5, 2, 60, "static", "linear"),
    ("logistic", 6, 3, 90, "fw-g", "logistic"),
    ("adaptive", 0, 3, 60, "fw-g", "linear"),
    ("adaptive", 0, 3, 1, "fw-g", "linear"),
    ("static", 0, 0, 160, "fw-g", "linear"),
    ("grid", 0, 0, 240, "fw-g", "logistic"),
    ("noiseless", 0, 0, 60, "uniform", "linear"),
    ("duplicates", 0, 0, 90, "fw-g", "linear"),
]
ADAPTIVE = gen_adaptive_instance(3)
# shared fixed instances: saturated at every stage (static, grid), drawn
# without noise, and with duplicate arms, so some active sets lose rank
FIXED = {
    "adaptive": ADAPTIVE,
    "static": gen_static_instance(0.5, K=8, sigma2=4.0),
    "grid": glm_grid_instance(8, 0.75),
    "noiseless": noiseless(ADAPTIVE),
    "duplicates": BanditInstance(
        features=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.6, 0.6, 0.0]]),
        theta_star=np.array([1.0, 0.5, 0.3])),
}


def make_job(kind, seed):
    family, K, d, budget, strategy, model = JOB_KINDS[kind]
    rng = np.random.default_rng(seed)
    if family == "sphere":
        inst = gen_sphere_instance(K, d, rng)
    elif family == "logistic":
        inst = gen_logistic_instance(K, d, rng)
    else:
        inst = FIXED[family]
    return inst, GseConfig(budget, strategy=strategy, model=model), rng


def run_summary(result):
    """What must not depend on the batch: the exception class of an aborted
    job, else the recommendation and every stage's counts, estimate bytes,
    survivors and design weights."""
    if isinstance(result, FbbaiError):
        return type(result).__name__
    return (result.recommended, result.total_pulls, tuple(
        (t.counts.tobytes(), t.mu_hat.tobytes(), t.survivors,
         None if t.design is None else t.design.weights.tobytes())
        for t in result.traces))


def plan_summary(plan):
    """Every bit of a stage plan, or the class of the error it raised."""
    if isinstance(plan, FbbaiError):
        return type(plan).__name__
    design = plan.design
    return (plan.arms.original_ids, plan.arms.projected.tobytes(),
            plan.arms.basis.tobytes(), plan.counts.tobytes(), plan.saturated,
            None if design is None else (design.weights.tobytes(),
                                         design.g_value, design.iterations_used,
                                         design.certified))


def planned(asks):
    """The plans of one ``_plan_stages`` call, each made a ``StagePlan``
    from its block row, or the error of its key."""
    return [plan if isinstance(plan, FbbaiError) else plan[0].plan(plan[1])
            for plan in gse_mod._plan_stages(asks)]


def lone_run(job):
    """The result of ``gse_run``, or the package error it raised."""
    try:
        return gse_run(*job)
    except FbbaiError as exc:
        return exc


def lone_summary(job):
    return run_summary(lone_run(job))


def outcome(result):
    """An untraced run's (recommended, success, total_pulls), or the class
    of the error that ended it."""
    if isinstance(result, FbbaiError):
        return type(result).__name__
    return result.recommended, result.success, result.total_pulls


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(0, len(JOB_KINDS) - 1),
                                    st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=8),
           cuts=st.sets(st.integers(1, 7)))
    def test_any_batching_matches_lone_runs(self, specs, cuts):
        """Traced batches give each job its lone run's traces, and untraced
        batches, as the harness runs them, its lone outcome."""
        lone = [lone_summary(make_job(*spec)) for spec in specs]
        bounds = [0] + sorted(c for c in cuts if c < len(specs)) + [len(specs)]
        for traces in (True, False):
            got = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                batch = [make_job(*spec) for spec in specs[lo:hi]]
                got += gse_lockstep(batch, traces=traces)
            if traces:
                assert [run_summary(res) for res in got] == lone
            else:
                assert [outcome(res) for res in got] == [
                    outcome(lone_run(make_job(*spec))) for spec in specs]

    def test_one_call_keeps_a_batch_of_instances_apart(self):
        # two sphere and two logistic instances whose stage keys collide
        # but for their instance
        specs = [(0, 1), (0, 2), (4, 1), (4, 2)]
        got = gse_lockstep([make_job(*spec) for spec in specs])
        assert [run_summary(res) for res in got] == [
            lone_summary(make_job(*spec)) for spec in specs]

    def test_groups_of_one_stage_that_ask_for_one_key_match_lone_runs(
            self, monkeypatch):
        """Eight arms in R^4, arms 0 and 1 clearly best.  A job whose
        stage-2 set holds two of the nearly parallel arms 2, 3 and 4 is
        saturated with cond(V) between 1e6 and 1e12 and inherits nothing;
        the others inherit.  All keep the pair (0, 1), so the last stage's
        two groups ask for one key in two ``_plan_stages`` calls, each
        building it.  Every job's traces are its lone run's."""
        h = math.sqrt(0.5)
        features = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [0, 0, 1, 1e-4], [0, 0, 1, -1e-4], [0, 0, 0, 1],
                             [0, 0, h, h], [0, 0, h, -h]])
        inst = BanditInstance(features=features,
                              theta_star=np.array([2.0, 1.5, 0.0, 0.0]))
        config = GseConfig(300)

        def jobs():
            return [(inst, config, np.random.default_rng(s)) for s in range(12)]

        calls = []  # the key set of each call
        plan_stages = gse_mod._plan_stages

        def spy(keys):
            calls.append(set(keys))
            return plan_stages(keys)

        monkeypatch.setattr(gse_mod, "_plan_stages", spy)
        got = gse_lockstep(jobs())
        monkeypatch.undo()
        # consecutive calls of one stage: one per inherit flag
        assert [key[1] for a, b in zip(calls, calls[1:]) for key in a & b] == [(0, 1)]
        assert [run_summary(run) for run in got] == [lone_summary(job)
                                                     for job in jobs()]

    @pytest.mark.parametrize("max_iter", [8, 100])
    def test_fits_stopped_at_max_iter_carry_through_runs(self, max_iter,
                                                         monkeypatch):
        # Bernoulli-logistic K = 32, d = 5 runs with theta* scaled by 6, so
        # that stages' sums come near separable: IRLS fits that stop at
        # max_iter unconverged keep their best iterate, in a stack as alone,
        # beside fits that converge.  At 8 iterations most fits stop; at
        # the default 100, some of these 50 runs' fits do.
        monkeypatch.setattr(gse_mod, "irls_glm_stack",
                            partial(irls_glm_stack, max_iter=max_iter))
        base = gen_logistic_instance(32, 5, np.random.default_rng(5))
        inst = BanditInstance(features=base.features,
                              theta_star=6 * base.theta_star, model="glm",
                              mean_fn=LOGISTIC, noise_sigma2=0.25,
                              bernoulli=True)
        config = GseConfig(100, model="logistic")

        def jobs():
            return [(inst, config, np.random.default_rng([3, r]))
                    for r in range(50)]

        def summary(run):
            return run_summary(run), tuple(
                (t.estimator_converged, t.estimator_iterations, t.used_fallback)
                for t in run.traces)

        got = [summary(run) for run in gse_lockstep(jobs())]
        assert got == [summary(gse_run(*job)) for job in jobs()]
        fits = [fit for _, run_fits in got for fit in run_fits]
        stopped = [fit for fit in fits if not fit[0]]
        assert stopped and any(fit[0] and fit[1] > 0 for fit in fits)
        assert all(fit == (False, max_iter, False) for fit in stopped)

    def test_misses_are_solved_once_per_key_and_stacked_per_shape(
            self, monkeypatch):
        stacks = []
        solve = DesignCache.design

        def counting(arms):
            stacks.append(arms.shape)
            return solve(arms)

        monkeypatch.setattr(DesignCache, "design", staticmethod(counting))
        cfg = GseConfig(budget=60)
        # one fixed instance: stage 1 has one key
        jobs = [(ADAPTIVE, cfg, np.random.default_rng(s)) for s in range(6)]
        gse_lockstep(jobs)
        assert stacks[0] == (1, 4, 3)
        stacks.clear()
        # fresh instances: every job misses, one stack per shape
        jobs = [(gen_sphere_instance(8, 3, np.random.default_rng(s)), cfg,
                 np.random.default_rng(s)) for s in range(5)]
        gse_lockstep(jobs)
        assert stacks[0] == (5, 8, 3)

    def test_stacked_planning_matches_one_request_at_a_time(self):
        """A batch of misses of mixed shapes, ranks, strategies and
        outcomes gets the plans (or errors) each miss gets alone."""
        rng = np.random.default_rng(5)
        dup = FIXED["duplicates"]
        zeros = BanditInstance(features=np.array([[1.0, 0.0], [0.0, 1.0],
                                                  [0.0, 0.0], [0.0, 0.0]]),
                               theta_star=np.array([1.0, 0.5]))
        asks = []
        for inst in [gen_sphere_instance(8, 3, rng) for _ in range(3)]:
            for ids in [tuple(range(8)), (0, 2, 4, 6), (1, 5)]:
                for strategy in ("fw-g", "uniform"):
                    asks.append((inst, ids, 40, strategy))
        first = len(asks) + 1
        for ids in [tuple(range(6)), (1, 2, 5), (0, 1, 3), (1, 2), (3, 4),
                    (0, 3, 4), (1, 2, 3, 4)]:
            asks.append((dup, ids, 30, "fw-g"))
        repeated = len(asks) + 1
        asks += [
            (dup, tuple(range(6)), 2, "fw-g"),  # below the span: an error
            (dup, (1, 2, 5), 30, "fw-g"),       # the key of asks[first]
            (zeros, (2, 3), 10, "uniform"),     # all-zero arms: an error
            (zeros, (0, 1, 2), 10, "fw-g"),
            (FIXED["static"], (0, 3, 5, 6), 40, "fw-g"),  # saturated
            # rounding rejects the design; the retry rounds it alone
            (gen_sphere_instance(8, 3, np.random.default_rng(5)),
             tuple(range(8)), 4, "fw-g"),
        ]
        batch = planned(asks)
        alone = [planned([ask])[0] for ask in asks]
        rows = gse_mod._plan_stages(asks)
        assert rows[repeated] == rows[first]
        assert [plan_summary(p) for p in batch] == [plan_summary(p) for p in alone]
        assert {plan_summary(p) for p in batch} >= {
            "ConfigurationError", "DegenerateInputError"}
        assert any(not isinstance(p, FbbaiError) and p.saturated for p in batch)
        assert batch[-1].counts.tolist() == [0, 0, 1, 0, 2, 1, 0, 0]

    def test_shared_instance_gather_matches_key_by_key(self):
        """Keys of one instance gather their feature rows with one take;
        the plans are those built key by key, and those built when a key of
        another instance sends each shape down the per-key path."""
        inst = gen_sphere_instance(12, 4, np.random.default_rng(8))
        other = gen_sphere_instance(12, 4, np.random.default_rng(9))
        sets = [tuple(range(12)), tuple(range(0, 12, 2)), tuple(range(1, 12, 2)),
                (0, 1, 2, 3, 4, 5), (3, 7, 11, 2)]
        asks = [(inst, ids, 40, strategy) for ids in sets
                for strategy in ("fw-g", "uniform")]
        shared = planned(asks)
        mixed = planned(asks + [(other, ids, 40, "fw-g") for ids in sets])
        alone = [planned([ask])[0] for ask in asks]
        assert not any(isinstance(plan, FbbaiError) for plan in alone)
        want = [plan_summary(plan) for plan in alone]
        assert [plan_summary(plan) for plan in shared] == want
        assert [plan_summary(plan) for plan in mixed[:len(asks)]] == want

    def test_traces_off_changes_nothing_but_the_traces(self):
        """A batch of fixed and generated instances, linear and logistic
        fits, and jobs that abort at the schedule and at the first plan."""
        specs = [(kind, seed) for kind in range(len(JOB_KINDS))
                 for seed in (3, 4)]
        on = gse_lockstep([make_job(*spec) for spec in specs])
        off = gse_lockstep([make_job(*spec) for spec in specs], traces=False)

        def outcome(result):
            if isinstance(result, FbbaiError):
                return type(result), str(result)
            return result.recommended, result.success, result.total_pulls

        assert [outcome(r) for r in off] == [outcome(r) for r in on]
        runs = [(a, b) for a, b in zip(on, off) if not isinstance(a, FbbaiError)]
        assert runs and len(runs) < len(specs)
        assert all(a.traces and b.traces == () for a, b in runs)

    def test_an_aborted_job_leaves_the_others_alone(self):
        good = make_job(0, 11)
        bad = make_job(2, 11)  # nine pulls cannot span three stages in R^4
        results = gse_lockstep([bad, make_job(0, 11)])
        assert isinstance(results[0], ConfigurationError)
        assert run_summary(results[1]) == run_summary(gse_run(*good))

    @pytest.mark.parametrize("kind,failing", [
        (0, [2]),           # one sphere job's least-squares fit fails
        (0, [0, 1, 2, 3]),  # every job of the stage group fails
        (4, [1]),           # a logistic job's IRLS fit and its fallback fail
    ])
    def test_a_failed_stage_fit_ends_only_its_job(self, monkeypatch, kind,
                                                  failing):
        seeds = [21, 22, 23, 24]
        lone = [gse_run(*make_job(kind, seed)) for seed in seeds]
        # a job's items are known by their projected arms at some stage
        marked = {t.arms.projected.tobytes() for g in failing
                  for t in lone[g].traces}

        def fail_marked(name, error):
            fit = getattr(gse_mod, name)

            def wrapped(arms, *args):
                return [error("forced") if a.tobytes() in marked else out
                        for a, out in zip(arms, fit(arms, *args))]

            monkeypatch.setattr(gse_mod, name, wrapped)

        def flags(result):
            return [(t.estimator_converged, t.estimator_iterations,
                     t.used_fallback) for t in result.traces]

        fail_marked("least_squares_stack", InvalidAllocationError)
        fail_marked("irls_glm_stack", EstimationFailureError)
        got = gse_lockstep([make_job(kind, seed) for seed in seeds])
        for g, (result, alone) in enumerate(zip(got, lone)):
            if g in failing:
                assert isinstance(result, InvalidAllocationError)
            else:
                assert run_summary(result) == run_summary(alone)
                assert flags(result) == flags(alone)

    def test_cohorts_of_mixed_sizes_budgets_and_outcomes(self, monkeypatch):
        """K = 8 and K = 7 jobs (eta 2) meet at the same 4 -> 2 and 2 -> 1
        steps with different stage budgets and strategies; cohorts are
        keyed by run (stage sizes, stage budget, strategy, model), so they
        stack per run, not per step.  Each of those stages holds jobs that
        inherit saturation (eye and grid instances) beside jobs that plan
        (sphere instances in R^3).  Jobs abort at the schedule, at the
        first plan and at a stage-2 fit.  Each outcome, traced or not, is
        that of its lone run."""
        def sphere(K, d, seed):
            return gen_sphere_instance(K, d, np.random.default_rng(seed))

        specs = [
            (gen_static_instance(1.0, K=8, sigma2=4.0), 120, "fw-g", "linear"),
            (gen_static_instance(1.0, K=7, sigma2=4.0), 90, "uniform", "linear"),
            (gen_static_instance(1.0, K=8, sigma2=4.0), 150, "uniform", "linear"),
            (glm_grid_instance(8, 0.75), 240, "fw-g", "logistic"),
            (sphere(8, 3, 1), 150, "fw-g", "linear"),
            (sphere(7, 3, 2), 120, "uniform", "linear"),
            (gen_static_instance(1.0, K=8), 2, "fw-g", "linear"),  # schedule
            (sphere(7, 4, 3), 9, "fw-g", "linear"),  # 3 pulls cannot span R^4
            (sphere(8, 3, 4), 90, "fw-g", "linear"),  # its stage-2 fit fails
        ]

        def jobs():
            return [(inst, GseConfig(budget, strategy=strategy, model=model),
                     np.random.default_rng([31, g]))
                    for g, (inst, budget, strategy, model) in enumerate(specs)]

        doomed = gse_run(*jobs()[-1]).traces[1].arms.projected.tobytes()
        fit = gse_mod.least_squares_stack
        monkeypatch.setattr(gse_mod, "least_squares_stack", lambda arms, *args: [
            InvalidAllocationError("forced") if a.tobytes() == doomed else out
            for a, out in zip(arms, fit(arms, *args))])
        lone = [lone_run(job) for job in jobs()]
        assert [type(r).__name__ for r in lone[-3:]] == [
            "ConfigurationError", "ConfigurationError", "InvalidAllocationError"]
        steps = []  # (m, inherits) of each stage group that draws
        planning = []  # nonempty while a plan block rounds its rows
        for name, inherits in (("_inherited_counts", True), ("_plan_stacks", False)):
            def spy(*args, _f=getattr(gse_mod, name), _inherits=inherits):
                out = _f(*args)
                if not planning:  # square plan rows read the shared rows too
                    steps.append((args[0] if _inherits else out[0].shape[1],
                                  _inherits))
                return out
            monkeypatch.setattr(gse_mod, name, spy)

        def rounding(*args, _f=gse_mod._design_counts):
            planning.append(True)
            try:
                return _f(*args)
            finally:
                planning.pop()

        monkeypatch.setattr(gse_mod, "_design_counts", rounding)
        traced = gse_lockstep(jobs())
        assert {(4, True), (4, False), (2, True), (2, False)} <= set(steps)
        assert [run_summary(r) for r in traced] == [run_summary(r) for r in lone]
        assert [outcome(r) for r in gse_lockstep(jobs(), traces=False)] == [
            outcome(r) for r in lone]

    def test_a_harness_batch_stacks_each_stage_once_per_inherit_flag(
            self, monkeypatch):
        """50 untraced jobs of one instance and config, as a harness chunk
        sends them, are one run: each stage makes at most one
        ``_plan_stages`` call and one ``_stage_sums`` call per inherit
        flag, so the harness never gets split stacks.  At the last stage
        of this sphere instance some jobs inherit saturation and others
        plan; an inheriting group pulls with one broadcast counts row."""
        inst = gen_sphere_instance(16, 4, np.random.default_rng(1))
        config = GseConfig(200)

        def jobs():
            return [(inst, config, np.random.default_rng([7, r]))
                    for r in range(50)]

        calls = []  # (name, m, inherits, rows) of each call
        plan_stages, stage_sums = gse_mod._plan_stages, gse_mod._stage_sums

        def plan_spy(keys):
            calls.append(("plan", len(keys[0][1]), False, len(keys)))
            return plan_stages(keys)

        def sums_spy(draws, counts, ids):
            calls.append(("sums", counts.shape[1], counts.strides[0] == 0,
                          len(draws)))
            return stage_sums(draws, counts, ids)

        monkeypatch.setattr(gse_mod, "_plan_stages", plan_spy)
        monkeypatch.setattr(gse_mod, "_stage_sums", sums_spy)
        got = gse_lockstep(jobs(), traces=False)
        monkeypatch.undo()
        steps = [call[:3] for call in calls]
        assert len(set(steps)) == len(steps)
        assert [m for name, m, _ in steps if name == "plan"] == [16, 8, 4, 2]
        drawn = Counter()  # m -> jobs drawn at the stage of m arms
        for name, m, _, count in calls:
            if name == "sums":
                drawn[m] += count
        assert drawn == {16: 50, 8: 50, 4: 50, 2: 50}
        assert {("sums", 2, False), ("sums", 2, True)} <= set(steps)
        assert [outcome(r) for r in got] == [outcome(lone_run(job))
                                             for job in jobs()]


def conditioned_set(m, log_cond, rng):
    """m arms in R^m whose singular values run from 1 down to
    10**-log_cond, in random orthogonal frames."""
    left, _ = np.linalg.qr(rng.standard_normal((m, m)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    values = 10.0 ** -np.linspace(0.0, log_cond, m)
    return BanditInstance(features=(left * values) @ right.T,
                          theta_star=rng.standard_normal(m))


SPHERE32 = gen_sphere_instance(32, 10, np.random.default_rng(4))


def reference_plan(inst, ids, n, strategy):
    """The lone build of a stage plan, written apart from ``_plan_stages``:
    ``project_to_span`` of the ids' features; uniform counts (n // m each,
    the n % m remainder pulls to the lowest ids) or ``fw_g_optimal``
    rounded by ``allocate_budget``; and the flags of cond(V), V = sum_i
    c_i x_i x_i': saturated (m = d_t and cond(V) < ``COND_LIMIT``) and
    inherit (saturated, cond(V) <= sqrt(``COND_LIMIT``) and counts within
    a factor 2).  Returns (counts, design, saturated, inherit), or the
    package error the build raises."""
    ids = list(ids)
    try:
        arms = project_to_span(inst.features[ids], ids)
        X = arms.projected
        m, dim = X.shape
        if n < dim:
            raise ConfigurationError(f"{n} pulls cannot span dimension {dim}")
        if strategy == "uniform":
            base, rem = divmod(n, m)
            counts, design = np.array([base + (sorted(ids).index(i) < rem)
                                       for i in ids]), None
        else:
            design = fw_g_optimal(X)
            counts = allocate_budget(n, design, X)
    except FbbaiError as exc:
        return exc
    cond = np.linalg.cond(X.T @ (X * counts[:, None]))
    saturated = bool(m == dim and np.isfinite(cond) and cond < COND_LIMIT)
    inherit = bool(saturated and cond <= math.sqrt(COND_LIMIT)
                   and counts.max() <= 2 * counts.min())
    return counts, design, saturated, inherit


def design_fields(design):
    """Every bit of a design: weight bytes, g bytes, iterations, certificate."""
    return (design.weights.tobytes(), np.float64(design.g_value).tobytes(),
            design.iterations_used, design.certified)


def check_plans_against_reference(keys):
    """Plans ``keys`` in one ``_plan_stages`` call and checks each against
    ``reference_plan``: the error class, or the design, counts and flags
    bit for bit.  Returns each plan's Frank-Wolfe iteration count (None
    for an error)."""
    got = gse_mod._plan_stages(keys)
    want = [reference_plan(*key) for key in keys]
    iterations = []
    for plan, ref in zip(got, want):
        if isinstance(ref, FbbaiError):
            assert type(plan) is type(ref)
            iterations.append(None)
            continue
        block, row = plan
        counts, design, saturated, inherit = ref
        assert design_fields(block.plan(row).design) == design_fields(design)
        assert block.counts[row].tobytes() == counts.tobytes()
        assert (block.saturated[row], block.inherit[row]) == (saturated, inherit)
        iterations.append(design.iterations_used)
    return iterations


@pytest.fixture
def fresh_shared_rows():
    """Empties ``_inherited_counts``'s process-wide cache before and after
    a test that patches the rounding, so that the test reads no row cached
    before it and leaves none built by its patch."""
    rows = gse_mod._inherited_counts
    rows.cache_clear()
    yield
    rows.cache_clear()


class TestInheritance:
    """A run whose stage was saturated with cond(V) <= sqrt(1e12) plans no
    later stage and pulls with ``_inherited_counts``'s shared row, which
    must be what the full build gives."""

    @pytest.mark.parametrize("strategy", ["fw-g", "uniform"])
    def test_inherited_rows_sum_to_n(self, strategy):
        """A run's ``total_pulls`` is n per stage, so every counts row it
        pulls with must sum to n.  Uniform rows do for n < m too; a fw-g
        run inherits only from a stage that pulled each of its arms, so
        its later stages have fewer arms than pulls."""
        for m in range(1, 13):
            for n in range(1 if strategy == "uniform" else m, 3 * m + 8):
                assert gse_mod._inherited_counts(m, n, strategy).sum() == n

    def test_fw_g_rows_below_the_arm_count_raise(self):
        """n < m pulls cannot give each of m arms weight 1/m a pull: the
        fw-g row raises ``_round_rows``'s error each time it is asked (an
        ``lru_cache`` keeps no exception), and uniform rows still pull the
        lowest ids."""
        for _ in range(2):
            with pytest.raises(BudgetTooSmallError, match="budget 3 cannot give"):
                gse_mod._inherited_counts(5, 3, "fw-g")
        assert gse_mod._inherited_counts(5, 3, "uniform").tolist() == [1, 1, 1, 0, 0]
        assert gse_mod._inherited_counts(5, 7, "fw-g").tolist() == [2, 2, 1, 1, 1]

    def test_a_retried_rounding_row_sums_to_n(self, monkeypatch,
                                              fresh_shared_rows):
        """Four pulls on eight arms of rank three: ``_round_rows`` rejects
        the design's support and ``allocate_budget``'s retry rounds the
        plan block's row, which still sums to n."""
        retried, allocate = [], gse_mod.allocate_budget

        def spy(n, *args):
            retried.append(n)
            return allocate(n, *args)

        monkeypatch.setattr(gse_mod, "allocate_budget", spy)
        inst = gen_sphere_instance(8, 3, np.random.default_rng(5))
        block, row = gse_mod._plan_stages(
            [(inst, tuple(range(8)), 4, "fw-g")])[0]
        assert retried == [4]
        assert block.counts[row].sum() == 4

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["eye", "grid", "random", "sphere"]),
           seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 60),
           tenths=st.sampled_from(range(36)),
           strategy=st.sampled_from(["fw-g", "uniform"]))
    def test_inherited_rows_equal_full_builds(self, kind, seed, extra,
                                              tenths, strategy):
        """Nested subsets of saturated sets: the static eye, the glm grid,
        random sets of cond(X) = 10**(tenths / 10), up to past the margin,
        and eight arms of a sphere K = 32, d = 10 instance (its stage-3
        sets)."""
        rng = np.random.default_rng(seed)
        if kind == "random":
            inst = conditioned_set(int(rng.integers(2, 13)), tenths / 10, rng)
        else:
            inst = {"eye": gen_static_instance(1.0, K=16),
                    "grid": glm_grid_instance(16, 0.75),
                    "sphere": SPHERE32}[kind]
        ids = np.arange(inst.n_arms)
        if kind == "sphere":
            ids = np.sort(rng.choice(ids, 8, replace=False))
        n = ids.size + extra
        _, _, saturated, inherit = reference_plan(inst, ids, n, strategy)
        assume(inherit)
        assert saturated
        while ids.size > 1:  # every later stage keeps a subset
            ids = np.sort(rng.choice(ids, int(rng.integers(1, ids.size)),
                                     replace=False))
            counts, design, saturated, _ = reference_plan(inst, ids, n, strategy)
            inherited = gse_mod._inherited_counts(ids.size, n, strategy)
            assert saturated
            assert counts.tobytes() == inherited.tobytes()
            assert not inherited.flags.writeable
            if strategy == "fw-g":
                assert design.iterations_used == 0
                assert design.certified

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 4), rows=st.lists(st.tuples(
        st.sampled_from(["eye", "random", "random", "random", "tiny", "vanishing"]),
        st.integers(0, 2**32 - 1), st.integers(-2, 40)), min_size=1, max_size=5))
    @example(m=3, rows=[("eye", 0, 5), ("tiny", 1, 0), ("random", 2, 9),
                        ("tiny", 3, 17), ("eye", 0, 1)])
    @example(m=2, rows=[("random", 0, 3), ("vanishing", 1, 3), ("eye", 0, -1)])
    def test_square_blocks_match_the_lone_reference(self, m, rows):
        """One plan block of square sets (m arms of rank m), with several
        budgets, equals the lone reference row by row and field by field.
        Sets of cond(X) up to 1e8 certify at the hoisted iteration 0; sets
        scaled to about 1e-160 have a subnormal V and sets scaled to 1e-170
        have V = 0, so their rows fail, and the block's stacked
        factorization raises and every row goes through the loop; a budget
        below m fails."""
        keys = []
        for kind, seed, extra in rows:
            rng = np.random.default_rng(seed)
            features = {
                "eye": lambda: np.eye(m),
                "random": lambda: conditioned_set(m, rng.uniform(0.0, 8.0),
                                                  rng).features,
                "tiny": lambda: rng.standard_normal((m, m)) * 10.0 ** -(
                    160.0 + seed % 6 / 10),
                "vanishing": lambda: rng.standard_normal((m, m)) * 1e-170,
            }[kind]()
            # an instance needs two arms: arm m sums the others, off the set
            inst = BanditInstance(features=np.vstack([features, features.sum(0)]),
                                  theta_star=np.ones(m))
            keys.append((inst, tuple(range(m)), max(1, m + extra), "fw-g"))
        check_plans_against_reference(keys)

    def test_square_rows_that_miss_iteration_0_take_the_loop(self, monkeypatch):
        """The hoisted iteration 0 is the loop's own first computation, so a
        square row whose g misses there gets the loop's answer, the lone
        one.  Projected onto their span, square sets of normal scale
        certify there, up to cond(X) = 1e7 and beyond, so the hoisted g of
        every second square row is doubled here: those rows take the loop,
        which certifies them at its own iteration 0, and the other square
        rows never reach it.  Sets whose third arm is the second plus a
        perturbation of 1e-9 to 1e-14 have rank 2, not 3, and the loop
        solves them in one iteration, without a warning."""
        hoisted, solve = gse_mod._all_norms, DesignCache.design
        solved = []  # rows of each Frank-Wolfe stack

        def missing(weights, arms):
            norms = hoisted(weights, arms)
            norms[::2] *= 2.0
            return norms

        def solving(arms):
            solved.append(len(arms))
            return solve(arms)

        monkeypatch.setattr(gse_mod, "_all_norms", missing)
        monkeypatch.setattr(DesignCache, "design", staticmethod(solving))
        keys = [(conditioned_set(3, log_cond, np.random.default_rng(seed)),
                 (0, 1, 2), 12, "fw-g")
                for seed, log_cond in enumerate(np.linspace(0.0, 7.0, 6))]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((3, 3))
            X[2] = X[1] + 10.0 ** -rng.uniform(9.0, 14.0) * rng.standard_normal(3)
            keys.append((BanditInstance(features=X, theta_star=np.ones(3)),
                         (0, 1, 2), 12, "fw-g"))
        assert check_plans_against_reference(keys) == [0] * 6 + [1] * 3
        assert sorted(solved) == [3, 3]

    def test_subnormal_square_sets_raise_a_typed_error(self):
        """Square sets scaled to about 1e-160 have a V whose diagonal is
        subnormal, where the factorization and the norms lose their
        precision: the planner, the lone solve and the reference raise
        ``SingularDesignError``, not a warning from the loop."""
        rng = np.random.default_rng(8)
        sets = [rng.standard_normal((3, 3)) * 10.0 ** -(160.0 + k % 6 / 10)
                for k in range(12)]
        keys = [(BanditInstance(features=X, theta_star=np.ones(3)), (0, 1, 2),
                 12, "fw-g") for X in sets]
        for X, key, plan in zip(sets, keys, gse_mod._plan_stages(keys)):
            assert isinstance(plan, SingularDesignError)
            assert isinstance(reference_plan(*key), SingularDesignError)
            with pytest.raises(SingularDesignError):
                fw_g_optimal(X)

    @pytest.mark.parametrize("kind", ["static", "grid", "sphere"])
    def test_traced_designs_are_the_lone_solves(self, kind):
        """Every traced stage's design and counts are the lone reference's:
        square sets take iteration 0 outside the loop, the others the loop."""
        inst = {"static": gen_static_instance(1.0, K=16),
                "grid": glm_grid_instance(16, 0.75), "sphere": SPHERE32}[kind]
        cfg = GseConfig(budget=1280, model="logistic" if kind == "grid" else "linear")
        n = stage_schedule(inst.n_arms, cfg.eta, cfg.budget).per_stage_budget
        for seed in range(3):
            for t in gse_run(inst, cfg, np.random.default_rng(seed)).traces:
                counts, design, _, _ = reference_plan(inst, t.arms.original_ids,
                                                      n, "fw-g")
                assert design_fields(t.design) == design_fields(design)
                assert t.counts.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("strategy", ["fw-g", "uniform"])
    def test_a_parent_past_the_margin_passes_nothing_on(self, monkeypatch,
                                                        strategy):
        """Arm 7 is short, cond(X) = 1e4, so every set that holds it is
        saturated with cond(V) near 1e8: such a stage passes nothing on,
        while a stage without arm 7 (an orthonormal set) does."""
        scale = np.ones(8)
        scale[7] = 1e-4
        inst = BanditInstance(features=np.diag(scale),
                              theta_star=np.linspace(0.1, 0.8, 8) / scale,
                              noise_sigma2=4.0)
        n = 30
        counts, _, saturated, inherit = reference_plan(inst, range(8), n, strategy)
        X = project_to_span(inst.features).projected
        cond = np.linalg.cond((X.T * counts) @ X)
        assert 1e6 < cond < 1e12
        assert saturated and not inherit

        asked = []
        plan_stages = gse_mod._plan_stages

        def recording(keys):
            asked.extend(key[1] for key in keys)
            return plan_stages(keys)

        cfg = GseConfig(budget=3 * n, strategy=strategy)
        kinds = set()
        for seed in range(40):
            result = gse_run(inst, cfg, np.random.default_rng(seed))
            asked.clear()  # the sets this run alone plans
            monkeypatch.setattr(gse_mod, "_plan_stages", recording)
            (untraced,) = gse_lockstep([(inst, cfg, np.random.default_rng(seed))],
                                       traces=False)
            monkeypatch.undo()
            assert (untraced.recommended, untraced.total_pulls) == (
                result.recommended, result.total_pulls)
            stages = [t.arms.original_ids for t in result.traces]
            for prev, ids in zip(stages, stages[1:]):
                # a stage is planned unless the one before left the margin
                assert (ids in asked) == (7 in prev)
                kinds.add(7 in prev)
            for t in result.traces:  # the full build's counts and flags
                counts, _, saturated, _ = reference_plan(
                    inst, t.arms.original_ids, n, strategy)
                assert t.counts.tobytes() == counts.tobytes()
                assert saturated
        assert kinds == {True, False}

    def test_skewed_counts_pass_nothing_on(self, monkeypatch, fresh_shared_rows):
        # the margin assumes counts within a factor 2, as counts rounded
        # from weights 1/m are; skewed by hand in the shared row that a
        # square set whose uniform weights certify reads, they pass
        # nothing on
        monkeypatch.setattr(gse_mod, "_inherited_counts",
                            lambda m, n, strategy: np.array([1, 1, 1, 7]))
        block, row = gse_mod._plan_stages([
            (gen_static_instance(1.0, K=4), (0, 1, 2, 3), 10, "fw-g")])[0]
        assert block.saturated[row] and not block.inherit[row]

    @pytest.mark.parametrize("kind", ["static", "grid", "sphere"])
    def test_traced_and_untraced_runs_inherit_alike(self, monkeypatch, kind):
        """Traces of inheriting runs take the full plans, so they are
        those of runs that inherit nothing, and the untraced outcomes
        match; on the fixed instances only the stage-1 plan is built."""
        if kind == "sphere":  # stages of 32, 16, 8, 4 and 2 arms in R^10
            cfg = GseConfig(budget=1280)
            jobs = lambda: [(gen_sphere_instance(32, 10, np.random.default_rng(s)),
                             cfg, np.random.default_rng(s)) for s in range(6)]
        else:
            inst = (gen_static_instance(1.0, K=16) if kind == "static"
                    else glm_grid_instance(16, 0.75))
            cfg = GseConfig(budget=2000, model="linear" if kind == "static"
                            else "logistic")
            jobs = lambda: [(inst, cfg, np.random.default_rng(s))
                            for s in range(30)]
        rows = []
        init = gse_mod._PlanBlock.__init__

        def counting(self, *args):
            init(self, *args)
            rows.append(len(self.keys))

        monkeypatch.setattr(gse_mod._PlanBlock, "__init__", counting)
        untraced = gse_lockstep(jobs(), traces=False)
        built = sum(rows)
        traced = gse_lockstep(jobs())
        monkeypatch.setattr(gse_mod, "INHERIT_COND", 0.0)  # no run inherits
        rows.clear()
        plain = gse_lockstep(jobs(), traces=False)
        assert built < sum(rows)
        if kind != "sphere":
            assert built == 1
        want = gse_lockstep(jobs())
        assert [run_summary(r) for r in traced] == [run_summary(r) for r in want]
        assert [(r.recommended, r.success, r.total_pulls) for r in untraced] == [
            (r.recommended, r.success, r.total_pulls) for r in plain] == [
            (r.recommended, r.success, r.total_pulls) for r in traced]


def trace_digest(result):
    """sha256 of a run's recommendation and every stage's counts, estimate
    bytes, survivors, design (weight bytes, g, iterations, certificate)
    and fit flags."""
    h = hashlib.sha256(repr(result.recommended).encode())
    for t in result.traces:
        h.update(t.counts.tobytes())
        h.update(t.mu_hat.tobytes())
        h.update(repr(t.survivors).encode())
        if t.design is not None:
            h.update(t.design.weights.tobytes())
            h.update(repr((t.design.g_value, t.design.iterations_used,
                           t.design.certified)).encode())
        h.update(repr((t.estimator_converged, t.estimator_iterations,
                       t.used_fallback)).encode())
    return h.hexdigest()


def recorded_logistic_job():
    """Replication 0 of ``test_recorded_logistic_fits``'s point: K = 32,
    d = 5, B = 100, its stages of 32, 16 and 8 arms fitted by IRLS."""
    config = GseConfig(100, strategy="fw-g", model="logistic")
    inst_ss, run_ss = rep_seed(7, "logistic", "gse-fwg", 100, 0).spawn(2)
    source = family_source("logistic", {"K": 32, "d": 5})
    return (source(np.random.default_rng(inst_ss)), config,
            np.random.default_rng(run_ss))


class TestPinnedTraces:
    """Traces built from the plans' rows on request, pinned bit for bit."""

    @pytest.mark.parametrize("job,digest", [
        (lambda: (FIXED["static"], GseConfig(160, strategy="fw-g"),
                  np.random.default_rng(0)),
         "5280a296d8a8e5fd7258a98f54d19f3ae53ffc61f663d372f7fabf1f4dbf1e02"),
        # stages of 8 and 4 arms in R^3 are fitted
        (lambda: make_job(0, 21),
         "f5f5ac308215ee249098f94e49efe6da8f39632ce23772adf57e695ffd71054e"),
        (recorded_logistic_job,
         "159b0f338decadb3d7c289dd5269e9852e3bc00eaeabf3dbfbca4311a483d91d"),
    ], ids=["static", "sphere", "logistic"])
    def test_trace_digest(self, job, digest):
        assert trace_digest(gse_run(*job())) == digest
