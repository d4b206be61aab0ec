"""Stage scheduling, exploration, elimination, and full elimination runs."""

import hashlib
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fbbai.gse as gse_mod
from fbbai.errors import (ConfigurationError, EstimationFailureError,
                          FbbaiError, InvalidAllocationError)
from fbbai.estimators import irls_glm_stack
from fbbai.gse import (DesignCache, GseConfig, eliminate, explore,
                       gse_lockstep, gse_run, stage_schedule)
from fbbai.harness import family_source, rep_seed
from fbbai.instances import (LOGISTIC, BanditInstance, draw_noise,
                             gen_adaptive_instance, gen_logistic_instance,
                             gen_sphere_instance, gen_static_instance, noiseless,
                             project_to_span, sample_rewards)


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
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GseConfig(**kwargs)

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

    def test_estimate_count_must_match(self):
        with pytest.raises(ValueError):
            eliminate((0, 1, 2), np.array([1.0, 2.0]), 2.0)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -2.0, math.nan, math.inf])
    def test_invalid_eta_raises_a_config_error(self, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            eliminate((0, 1, 2), np.array([1.0, 2.0, 3.0]), eta)


class TestExplore:
    def test_uniform_split_with_remainder(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        active = project_to_span(inst.features)
        plan = DesignCache().plan(inst, (0, 1, 2, 3), 10, "uniform")
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
        cache = DesignCache()
        listed = (5, 1, 3, 0, 2, 4)
        for n, by_id in [(4, [1, 1, 1, 1, 0, 0]), (8, [2, 2, 1, 1, 1, 1]),
                         (15, [3, 3, 3, 2, 2, 2])]:
            plan = cache.plan(inst, listed, n, "uniform")
            assert not plan.saturated
            assert plan.counts.tolist() == [by_id[i] for i in listed]
            ascending = cache.plan(inst, tuple(range(6)), n, "uniform")
            assert ascending.counts.tolist() == by_id
        # the shared rows of inheriting runs follow the same rule
        eye = gen_static_instance(1.0, K=4)
        assert gse_mod._inherited_counts(4, 10, "uniform").tolist() == \
            cache.plan(eye, (0, 1, 2, 3), 10, "uniform").counts.tolist() == \
            [3, 3, 2, 2]

    def test_stage_budget_below_dimension_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            DesignCache().plan(inst, (0, 1, 2, 3), 3, "uniform")

    def test_non_integer_ids_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="must be integers"):
            DesignCache().plan(inst, (0.5, 1.2, 2.9, 3), 10, "uniform")
        with pytest.raises(ConfigurationError, match="must be integers"):
            DesignCache().plan(inst, (0, 1, 2, 3), 10.0, "uniform")
        plan = DesignCache().plan(inst, np.arange(4), 10, "uniform")
        assert plan.arms.original_ids == (0, 1, 2, 3)

    def test_unknown_strategy_rejected(self):
        # as GseConfig rejects it, rather than planning a G-design
        inst = gen_static_instance(1.0, K=4)
        cache = DesignCache()
        with pytest.raises(ConfigurationError, match="'bogus' not one of"):
            cache.plan(inst, (0, 1, 2, 3), 10, "bogus")
        assert not cache._plans

    def test_design_allocation_spends_the_stage_budget(self):
        inst = noiseless(gen_adaptive_instance(4))
        plan = DesignCache().plan(inst, tuple(range(inst.n_arms)), 40, "fw-g")
        data = explore(inst, plan, np.random.default_rng(0))
        assert plan.counts.sum() == 40 and data.n == 40
        assert plan.design is not None and plan.design.certified

    def test_cached_design_is_reused(self):
        inst = gen_adaptive_instance(3)
        ids = tuple(range(inst.n_arms))
        cache = DesignCache()
        p1 = cache.plan(inst, ids, 30, "fw-g")
        explore(inst, p1, np.random.default_rng(0))
        p2 = cache.plan(inst, ids, 30, "fw-g")
        assert p1.design is p2.design

    def test_saturation_needs_independent_well_conditioned_arms(self):
        cache = DesignCache()
        eye = gen_static_instance(1.0, K=4)  # orthonormal arms, m = d_t
        assert cache.plan(eye, (0, 1, 2, 3), 8, "uniform").saturated
        assert cache.plan(eye, (1, 3), 8, "fw-g").saturated
        five = gen_adaptive_instance(4)  # five arms in R^4
        assert not cache.plan(five, tuple(range(5)), 40, "fw-g").saturated
        # independent, but cond(V) is about 4e15: the linear fit refuses it
        close = BanditInstance(features=np.array([[1.0, 0.0], [1.0, 3e-8]]),
                               theta_star=np.array([1.0, 0.0]))
        assert not cache.plan(close, (0, 1), 4, "uniform").saturated

    def test_cached_counts_are_shared_and_read_only(self):
        inst = gen_static_instance(0.5, K=8, sigma2=4.0)
        cfg = GseConfig(budget=80)
        cache = DesignCache()
        a = gse_run(inst, cfg, np.random.default_rng(0), cache)
        b = gse_run(inst, cfg, np.random.default_rng(1), cache)
        assert a.traces[0].counts is b.traces[0].counts
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
        rows = gse_mod._plan_stages(DesignCache(), asks)
        plans = [block.plan(row) for block, row in rows]
        assert plans[0] is plans[2] and plans[1] is plans[5]
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
        # standard normals scaled in place are rng.normal(0, sigma, n) bit
        # for bit, and leave the generator where it leaves it
        inst = gen_static_instance(0.5, K=4, sigma2=sigma2)
        rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        out = np.empty(50_000)
        draw_noise(inst, out, rng)
        want = replay.normal(0.0, math.sqrt(sigma2), out.size)
        assert out.tobytes() == want.tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_noiseless_noise_adds_exactly_without_a_draw(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        out = np.ones(5)
        draw_noise(noiseless(self.GAUSS), out, rng)
        mu = np.array([0.0, -0.0, 1.5, -2.25, 1e-310])
        assert (mu + out).tobytes() == mu.tobytes()
        assert rng.bit_generator.state == state

    @staticmethod
    def lone_rows(asks):
        """Each ask's (block, row) plan, planned alone."""
        return [gse_mod._plan_stages(DesignCache(), [ask])[0] for ask in asks]

    @staticmethod
    def check_sums(asks, rows):
        """``rows`` holds each ask's (block, row) plan."""
        plans = [block.plan(row) for block, row in rows]
        rngs = [np.random.default_rng(100 + g) for g in range(len(asks))]
        counts, ids, _ = gse_mod._plan_stacks(rows)
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
    counts, ids, _ = gse_mod._plan_stacks(S.lone_rows(asks) * n)
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

    def test_cache_does_not_change_the_run(self):
        inst = gen_static_instance(0.5, K=8, sigma2=4.0)
        cfg = GseConfig(budget=80)
        a = gse_run(inst, cfg, np.random.default_rng(7), DesignCache())
        b = gse_run(inst, cfg, np.random.default_rng(7), None)
        assert a.recommended == b.recommended
        assert np.array_equal(a.traces[0].mu_hat, b.traces[0].mu_hat)

    def test_a_cache_used_by_another_instance_does_not_change_the_run(self):
        rng = np.random.default_rng(3)
        a, b = gen_sphere_instance(8, 3, rng), gen_sphere_instance(8, 3, rng)
        cfg = GseConfig(budget=120)
        cache = DesignCache()
        gse_run(a, cfg, np.random.default_rng(0), cache)
        shared = gse_run(b, cfg, np.random.default_rng(1), cache)
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
    """The plans of one ``_plan_stages`` call on a new cache, each made a
    ``StagePlan`` from its block row, or the error of its key."""
    return [plan if isinstance(plan, FbbaiError) else plan[0].plan(plan[1])
            for plan in gse_mod._plan_stages(DesignCache(), asks)]


def lone_summary(job):
    try:
        return run_summary(gse_run(*job))
    except FbbaiError as exc:
        return type(exc).__name__


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(0, len(JOB_KINDS) - 1),
                                    st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=8),
           cuts=st.sets(st.integers(1, 7)),
           shared=st.booleans())
    def test_any_batching_matches_lone_runs(self, specs, cuts, shared):
        lone = [lone_summary(make_job(*spec)) for spec in specs]
        bounds = [0] + sorted(c for c in cuts if c < len(specs)) + [len(specs)]
        # shared: one cache for every batch and all their instances
        cache = DesignCache() if shared else None
        got = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            batch = [make_job(*spec) for spec in specs[lo:hi]]
            got += [run_summary(res) for res in gse_lockstep(batch, cache)]
        assert got == lone

    def test_one_cache_keeps_a_batch_of_instances_apart(self):
        # two sphere and two logistic instances whose stage keys collide
        specs = [(0, 1), (0, 2), (4, 1), (4, 2)]
        got = gse_lockstep([make_job(*spec) for spec in specs], DesignCache())
        assert [run_summary(res) for res in got] == [
            lone_summary(make_job(*spec)) for spec in specs]

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
        # one fixed instance and a shared cache: stage 1 has one key
        jobs = [(ADAPTIVE, cfg, np.random.default_rng(s)) for s in range(6)]
        gse_lockstep(jobs, DesignCache())
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
        assert batch[repeated] is batch[first]
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


def conditioned_set(m, log_cond, rng):
    """m arms in R^m whose singular values run from 1 down to
    10**-log_cond, in random orthogonal frames."""
    left, _ = np.linalg.qr(rng.standard_normal((m, m)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    values = 10.0 ** -np.linspace(0.0, log_cond, m)
    return BanditInstance(features=(left * values) @ right.T,
                          theta_star=rng.standard_normal(m))


SPHERE32 = gen_sphere_instance(32, 10, np.random.default_rng(4))


class TestInheritance:
    """A run whose stage was saturated with cond(V) <= sqrt(1e12) plans no
    later stage and pulls with ``_inherited_counts``'s shared row, which
    must be what the full build gives."""

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
        cache = DesignCache()
        block, row = gse_mod._plan_stages(
            cache, [(inst, tuple(ids.tolist()), n, strategy)])[0]
        assume(block.inherit[row])
        assert block.saturated[row]
        while ids.size > 1:  # every later stage keeps a subset
            ids = np.sort(rng.choice(ids, int(rng.integers(1, ids.size)),
                                     replace=False))
            full = cache.plan(inst, tuple(ids.tolist()), n, strategy)
            inherited = gse_mod._inherited_counts(ids.size, n, strategy)
            assert full.saturated
            assert full.counts.tobytes() == inherited.tobytes()
            assert not inherited.flags.writeable
            if strategy == "fw-g":
                assert full.design.iterations_used == 0
                assert full.design.certified

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
        block, row = gse_mod._plan_stages(
            DesignCache(), [(inst, tuple(range(8)), n, strategy)])[0]
        cond = np.linalg.cond(
            (block.projected[row].T * block.counts[row]) @ block.projected[row])
        assert 1e6 < cond < 1e12
        assert block.saturated[row] and not block.inherit[row]

        asked = []
        plan_stages = gse_mod._plan_stages

        def recording(cache, keys):
            asked.extend(key[1] for key in keys)
            return plan_stages(cache, keys)

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
                full = DesignCache().plan(inst, t.arms.original_ids, n, strategy)
                assert t.counts.tobytes() == full.counts.tobytes()
                assert full.saturated
        assert kinds == {True, False}

    def test_skewed_counts_pass_nothing_on(self, monkeypatch):
        # the margin assumes counts within a factor 2, as counts rounded
        # from weights 1/m are; skewed by hand, they pass nothing on
        monkeypatch.setattr(gse_mod, "_round_rows",
                            lambda n, weights: (np.array([[1, 1, 1, 7]]), {}))
        block, row = gse_mod._plan_stages(DesignCache(), [
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
