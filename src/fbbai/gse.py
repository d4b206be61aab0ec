"""Generalized successive elimination under a fixed sampling budget.

A run splits its budget B evenly over s = ceil(log_eta K) stages.  Each
stage projects the active arms onto their span, spends the stage budget
according to the configured allocation strategy, fits the reward model,
and keeps the top ceil(|active| / eta) arms by estimated mean.  The single
survivor is the recommendation.

A stage is saturated when its m active arms are linearly independent
(m = d_t) and V = sum_i c_i x_i x_i' passes the linear fit's condition
test, so every arm is pulled.  Both fits then interpolate,
x_i' theta_hat = S_i / c_i for least squares and h(x_i' theta_hat) =
S_i / c_i for the GLM, so such a stage ranks by the empirical means
S_i / c_i without fitting: Sequential Halving's rule (Karnin, Koren &
Somekh 2013).

``gse_lockstep`` runs this one stage loop for a batch of (instance,
config, rng) jobs in lockstep, and works each stage as stacks.  The plans
the jobs lack are built together: one stacked SVD projection per arm-set
shape, and one stacked Frank-Wolfe solve, rounding and saturation test per
projected shape.  Each job then makes its stage's one call on its own
generator, and the rest of the draw is done once per block of jobs:
Bernoulli sums are integer hit counts from one ``np.add.reduceat``,
Gaussian sums come from one offset ``np.bincount``.  Jobs of one instance
share work: a shape's feature rows, or a block's means, are then one
``take`` of the stacked ids, and a plan that many jobs share is stacked
once.  Saturated stages take their means S_i / c_i as one division,
unsaturated ones are fitted as one stack per model and projected shape,
and one stacked ``np.lexsort`` makes every cut.  Every stacked kernel
gives each job the bits of its lone computation, so a job's result is the
one it gets alone.  ``gse_run`` is the batch of one, and the harness runs
each chunk of replications as a few such batches, with ``traces=False``:
it reads only each run's success, so no ``StageTrace`` is built.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np

from .design import (Design, _info_matrix, allocate_budget,
                     fw_g_optimal_stack, round_allocation_stack)
# bench/tracer.py patches these names
from .design import fw_d_optimal, fw_g_optimal  # noqa: F401
from .errors import (BudgetTooSmallError, ConfigurationError,
                     EstimationFailureError, FbbaiError)
from .estimators import (RegressionData, irls_glm_stack, least_squares_stack,
                         mean_estimates_stack, well_conditioned)
# bench/tracer.py patches these names
from .estimators import irls_glm, least_squares, mean_estimates  # noqa: F401
from .instances import (LOGISTIC, BanditInstance, ProjectedArmSet, _project_stack,
                        draw_noise, rewards_of)
# bench/tracer.py patches these names
from .instances import project_to_span, sample_rewards  # noqa: F401

STRATEGIES = ("uniform", "fw-g", "static")
MODELS = ("linear", "logistic")


@dataclass(frozen=True)
class GseConfig:
    """Run parameters: budget, elimination rate, allocation and fit model."""

    budget: int
    eta: float = 2.0
    strategy: str = "fw-g"
    model: str = "linear"

    def __post_init__(self) -> None:
        if not isinstance(self.budget, Integral) or self.budget < 1:
            raise ConfigurationError("budget must be a positive integer")
        _check_eta(self.eta)
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"strategy {self.strategy!r} not one of {STRATEGIES}")
        if self.model not in MODELS:
            raise ConfigurationError(f"model {self.model!r} not one of {MODELS}")


@dataclass(frozen=True)
class StageSchedule:
    """Stage count, even per-stage budget, and the active-set size path."""

    stages: int
    per_stage_budget: int
    sizes: tuple[int, ...]  # sizes[0] = K, sizes[-1] = 1


@dataclass(frozen=True)
class StageTrace:
    """Everything one stage did: who was active, pulls, estimates, survivors.

    A saturated stage fits nothing: its ``mu_hat`` is S_i / c_i, and it
    records ``estimator_converged=True``, ``estimator_iterations=0`` and
    ``used_fallback=False``.
    """

    stage: int
    arms: ProjectedArmSet
    counts: np.ndarray
    mu_hat: np.ndarray
    survivors: tuple[int, ...]
    estimator_converged: bool
    estimator_iterations: int
    used_fallback: bool
    design: Optional[Design]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one elimination run."""

    recommended: int
    success: bool
    traces: tuple[StageTrace, ...]
    total_pulls: int


@dataclass(frozen=True)
class StagePlan:
    """What a stage fixes before it sees a reward: the active arms projected
    onto their span, read-only pull counts, the design they were rounded
    from (``None`` for uniform counts), and whether the stage is saturated
    (see the module docstring)."""

    arms: ProjectedArmSet
    counts: np.ndarray
    design: Optional[Design]
    saturated: bool


class DesignCache:
    """Memo of stage plans keyed by (instance, active ids, stage budget,
    strategy): a stage fixes its projection, design and rounding before it
    sees a reward, so runs of one instance or of many can share a cache.
    """

    def __init__(self) -> None:
        self._plans: dict = {}

    def plan(self, instance: BanditInstance, ids: tuple[int, ...], n: int,
             strategy: str) -> StagePlan:
        """The plan of ``n`` pulls on the arms ``ids``; raises
        ``ConfigurationError`` if ``n`` is below their span dimension."""
        ids = tuple(int(i) for i in ids)
        (plan,) = _plan_stages(self, [(instance, ids, n, strategy)])
        if isinstance(plan, FbbaiError):
            raise plan
        return plan

    @staticmethod
    def design(arms: np.ndarray) -> list:
        # a method of its own because bench/tracer.py times it as
        # design.cache; called on the class, which the tracer's patch keeps
        return fw_g_optimal_stack(arms)


def _plan_stages(cache: DesignCache, keys: Sequence[tuple],
                 ) -> list[Union[StagePlan, FbbaiError]]:
    """The plan of each (instance, ids, n, strategy) key, from ``cache``;
    ``ids`` is a tuple of ints.

    The keys the cache lacks are built once each, as stacks: the active
    arms are projected onto their span by one stacked SVD per (m, d) shape
    and checked against ``n``.  A shape's feature rows are one ``take`` of
    its stacked ids when all its keys hold one instance, else one per key.
    Then the ``fw-g`` designs are solved, rounded and tested for saturation
    as one stack per (m, d_t) shape, while uniform counts are set per key.
    Every stacked kernel gives each key the bits of its lone computation.
    The new plans are stored with read-only counts; a key whose build
    raises gets its error, which is not stored.
    """
    plans = cache._plans
    failed: dict = {}
    by_shape = defaultdict(list)  # (m, d) -> keys to build
    for key in dict.fromkeys(keys):
        if key not in plans:
            by_shape[len(key[1]), key[0].dim].append(key)
    unsolved = defaultdict(list)  # (m, d_t) -> (key, arms) waiting for a design
    counted = defaultdict(list)   # (m, d_t) -> (key, arms, counts, design)
    for group in by_shape.values():
        ids = [key[1] for key in group]
        instance = group[0][0]
        if all(key[0] is instance for key in group):
            features = instance.features.take(ids, axis=0)
        else:
            features = np.stack([key[0].features.take(key[1], axis=0)
                                 for key in group])
        for key, arms in zip(group, _project_stack(features, ids)):
            _, _, n, strategy = key
            if isinstance(arms, FbbaiError):
                failed[key] = arms
            elif n < arms.dim:
                failed[key] = ConfigurationError(
                    f"per-stage budget {n} cannot span dimension {arms.dim}")
            elif strategy == "uniform":
                base, rem = divmod(n, arms.n_arms)
                counts = np.full(arms.n_arms, base, dtype=int)
                counts[:rem] += 1  # equal remainders; lowest indices win
                counted[arms.projected.shape].append((key, arms, counts, None))
            else:
                unsolved[arms.projected.shape].append((key, arms))
    for shape, group in unsolved.items():
        designs = DesignCache.design(np.stack([arms.projected for _, arms in group]))
        solved = []
        for (key, arms), design in zip(group, designs):
            if isinstance(design, FbbaiError):
                failed[key] = design
            else:
                solved.append((key, arms, design))
        if not solved:
            continue
        rounded = round_allocation_stack(
            np.array([key[2] for key, _, _ in solved]),
            np.array([design.weights for _, _, design in solved]))
        for (key, arms, design), counts in zip(solved, rounded):
            if isinstance(counts, BudgetTooSmallError):  # retry alone
                try:
                    counts = allocate_budget(key[2], design, arms.projected)
                except FbbaiError as exc:
                    failed[key] = exc
                    continue
            counted[shape].append((key, arms, counts, design))
    for (m, dim), group in counted.items():
        # saturated: m = d_t and V passes the linear fit's condition test
        saturated = [False] * len(group) if m != dim else well_conditioned(
            _info_matrix(np.array([counts for _, _, counts, _ in group]),
                         np.array([arms.projected for _, arms, _, _ in group])))
        for (key, arms, counts, design), sat in zip(group, saturated):
            counts.flags.writeable = False
            plans[key] = StagePlan(arms, counts, design, bool(sat))
    return [plans.get(key) or failed[key] for key in keys]


# ---------------------------------------------------------------------------
# Stage schedule
# ---------------------------------------------------------------------------


def _check_eta(eta: float) -> None:
    if not (math.isfinite(eta) and eta > 1.0):
        raise ConfigurationError(f"eta must be finite and exceed 1, not {eta}")


def _ceil_div(m: int, eta: float) -> int:
    if float(eta).is_integer():
        e = int(eta)
        return (m + e - 1) // e
    # guard keeps exact ratios from rounding up twice in floats
    return math.ceil(m / eta - 1e-12)


@lru_cache(maxsize=256)  # every replication of a point asks for the same one
def stage_schedule(K: int, eta: float, budget: int) -> StageSchedule:
    """Stage count s, per-stage budget floor(B / s), and size path K -> 1.

    Sizes follow the elimination recursion size_t = ceil(size_{t-1} / eta);
    for integer eta the step count equals ceil(log_eta K) exactly.

    Raises
    ------
    ConfigurationError
        If eta is not finite and above 1, the recursion cannot reach one
        arm (eta below 2 stalls at two arms) or the budget gives some stage
        no pulls.
    """
    if K < 2:
        raise ConfigurationError("need at least two arms")
    _check_eta(eta)
    sizes = [K]
    while sizes[-1] > 1:
        nxt = _ceil_div(sizes[-1], eta)
        if nxt >= sizes[-1]:
            raise ConfigurationError(
                f"eta={eta} cannot reduce {sizes[-1]} arms; use eta >= 2")
        sizes.append(nxt)
    s = len(sizes) - 1
    n = budget // s
    if n < 1:
        raise ConfigurationError(f"budget {budget} gives {s} stages no pulls")
    return StageSchedule(stages=s, per_stage_budget=n, sizes=tuple(sizes))


# ---------------------------------------------------------------------------
# Stage exploration
# ---------------------------------------------------------------------------


def explore(instance: BanditInstance, plan: StagePlan,
            rng: np.random.Generator) -> RegressionData:
    """Draw the plan's pulls and return per-arm statistics.

    Pulls are drawn in active-arm order, each arm's pulls contiguous, one
    reward per pull, so a run is reproducible from (instance, config, seed)
    alone.  The returned data has one row per active arm: its projected
    features, its reward sum and its pull count.  This is ``explore_stack``
    on a stack of one.
    """
    (sums,) = explore_stack([(instance, plan, rng)])
    return RegressionData(xs=plan.arms.projected, ys=sums, counts=plan.counts)


DRAW_BLOCK = 1 << 14  # pulls per block: bounds the draw buffers


def explore_stack(jobs: Sequence[tuple[BanditInstance, StagePlan,
                                       np.random.Generator]]) -> np.ndarray:
    """Reward sums of each (instance, plan, rng) job whose plans share an
    active-set size m: a (len(jobs), m) array, row g holding job g's
    per-arm sums S_i.

    The jobs are split by kind of reward, Bernoulli or Gaussian, and each
    kind goes in blocks of about ``DRAW_BLOCK`` pulls (``_block_sums``).
    Each job makes its stage's one generator call, the one
    ``sample_rewards`` makes for the same pulls, so its sums are those of
    ``explore`` on it alone.
    """
    counts, ids, _ = _plan_stacks([plan for _, plan, _ in jobs])
    return _stage_sums(jobs, counts, ids)


def _plan_stacks(plans: Sequence[StagePlan],
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (G, m) pull counts and active ids and the (G,) saturation flags
    of plans that share an active-set size m.  Jobs of one instance share
    most plans, so each distinct plan is stacked once and its row repeated.
    """
    distinct: dict = {}  # id(plan) -> (row, plan)
    at = np.array([distinct.setdefault(id(plan), (len(distinct), plan))[0]
                   for plan in plans])
    plans = [plan for _, plan in distinct.values()]
    return (np.array([plan.counts for plan in plans])[at],
            np.array([plan.arms.original_ids for plan in plans])[at],
            np.array([plan.saturated for plan in plans])[at])


def _stage_sums(jobs: Sequence[tuple], counts: np.ndarray,
                ids: np.ndarray) -> np.ndarray:
    """``explore_stack`` of jobs whose plans' pull counts and active ids
    are the rows of ``counts`` and ``ids``."""
    pulls = counts.sum(axis=1)
    sums = np.empty(counts.shape)
    bernoulli = np.array([instance.bernoulli for instance, _, _ in jobs])
    for kind in (True, False):
        rows = np.flatnonzero(bernoulli == kind)
        if rows.size:
            step = max(1, DRAW_BLOCK // max(1, int(pulls[rows].max())))
            for block in np.split(rows, range(step, rows.size, step)):
                sums[block] = _block_sums(kind, [jobs[g] for g in block],
                                          counts[block], ids[block],
                                          pulls[block])
    return sums


def _block_sums(bernoulli: bool, jobs: list, counts: np.ndarray,
                ids: np.ndarray, pulls: np.ndarray) -> np.ndarray:
    """Per-arm reward sums of jobs with one kind of reward, given their
    (G, m) pull counts and active ids and per-job pull totals.

    Each job, in order, draws for its pulls (``draw_noise``), which go in
    the order ``explore`` pulls: active arms in turn, each arm's pulls
    contiguous.  The rest is done once for the block: the arms' means are
    one ``take`` of ``ids`` when all jobs hold one instance, else one per
    job.  Bernoulli sums are exact integer hit counts, one
    ``np.add.reduceat`` over the arms that are pulled (an arm with no pull
    sums to 0).  Gaussian sums come from one offset ``np.bincount``, which
    adds each arm's rewards in draw order as a bincount of one job alone
    does; a noiseless job adds zero noise.  Either way a job's sums are
    those of ``sample_rewards`` on its pulls, summed by ``np.bincount``,
    bit for bit.
    """
    sizes = pulls.tolist()
    draws = [draw_noise(instance, n, rng)
             for (instance, _, rng), n in zip(jobs, sizes)]
    flat = counts.ravel()
    instance = jobs[0][0]
    if all(job[0] is instance for job in jobs):
        means = instance.means.take(ids)
    else:
        means = np.concatenate([job[0].means.take(row)
                                for job, row in zip(jobs, ids)])
    mu = np.repeat(means, flat)
    if bernoulli:
        hits = rewards_of(True, mu, np.concatenate(draws))
        pulled = np.flatnonzero(flat)
        sums = np.zeros(flat.size)
        sums[pulled] = np.add.reduceat(hits.view(np.uint8),
                                       (np.cumsum(flat) - flat)[pulled],
                                       dtype=np.int64)
    else:
        noise = np.concatenate([np.zeros(n) if d is None else d
                                for d, n in zip(draws, sizes)])
        sums = np.bincount(np.repeat(np.arange(flat.size), flat),
                           weights=rewards_of(False, mu, noise),
                           minlength=flat.size)
    return sums.reshape(counts.shape)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def eliminate(active_ids: tuple[int, ...], mu_hat: np.ndarray,
              eta: float) -> tuple[int, ...]:
    """Keep the ceil(m / eta) arms with the highest estimated means.

    Computed estimates that are equal rank the lower arm id first;
    survivors come back in ascending id order.  On a saturated stage the
    estimates are S_i / c_i, so arms with equal pull counts and reward sums
    tie exactly.  Only when m > d_t, where the fit couples the arms, can
    estimates that are equal in exact arithmetic differ by rounding, and
    then rounding decides the cut.  This is ``eliminate_stack`` on a stack
    of one.  Raises ``ConfigurationError`` unless eta is finite and
    exceeds 1, as ``GseConfig`` does.
    """
    _check_eta(eta)
    m = len(active_ids)
    if mu_hat.shape[0] != m:
        raise ValueError("one estimate per active arm required")
    (survivors,) = eliminate_stack(np.array([active_ids]), mu_hat[None],
                                   _ceil_div(m, eta))
    return tuple(survivors)


def eliminate_stack(ids: np.ndarray, mu_hat: np.ndarray, keep: int) -> list:
    """``eliminate`` of each row of (G, m) active ids and estimates, keeping
    ``keep`` arms per row: one stacked ``np.lexsort``.  Returns each row's
    survivors as a list of ints in ascending order."""
    order = np.lexsort((ids, -mu_hat))  # primary: highest mean; then lowest id
    top = np.take_along_axis(ids, order[:, :keep], axis=1)
    return np.sort(top, axis=1).tolist()


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _fit_stack(model: str, arms: np.ndarray, sums: np.ndarray,
               counts: np.ndarray) -> list:
    """Fit unsaturated stages of one model and one projected shape, from
    (G, m, d) arms and (G, m) reward sums and pull counts, as one stack.
    Entry g holds item g's estimated means and its fit's (converged,
    iterations, fellback), or the package error that ends its job.  An
    item whose logistic fit fails falls back to least squares."""
    back: list = []  # items fitted by least squares after a logistic failure
    if model == "logistic":
        fits = irls_glm_stack(arms, sums, counts, LOGISTIC)
        back = [g for g, fit in enumerate(fits)
                if isinstance(fit, EstimationFailureError)]
        if back:
            for g, fit in zip(back, least_squares_stack(arms[back], sums[back],
                                                        counts[back])):
                fits[g] = fit
    else:
        fits = least_squares_stack(arms, sums, counts)
    by_link = defaultdict(list)  # fell back -> items fitted
    for g, fit in enumerate(fits):
        if not isinstance(fit, FbbaiError):
            by_link[g in back].append(g)
    out: list = list(fits)
    for fellback, rows in by_link.items():
        link = LOGISTIC if model == "logistic" and not fellback else None
        mu_hat = mean_estimates_stack(
            np.array([fits[g].theta_hat for g in rows]), arms[rows], link)
        for g, mu in zip(rows, mu_hat):
            out[g] = (mu, fits[g].converged, fits[g].iterations, fellback)
    return out


@dataclass(slots=True)
class _Run:
    """One job of ``gse_lockstep`` between stages."""

    slot: int
    instance: BanditInstance
    config: GseConfig
    rng: np.random.Generator
    schedule: StageSchedule
    active: tuple[int, ...]
    traces: list
    pulls: int = 0


Job = tuple[BanditInstance, GseConfig, np.random.Generator]


def gse_lockstep(jobs: Sequence[Job], cache: Optional[DesignCache] = None, *,
                 traces: bool = True) -> list[Union[RunResult, FbbaiError]]:
    """Run successive elimination on every (instance, config, rng) job, all
    jobs in lockstep, stage by stage; one result per job, in order.

    Each stage looks up the plans of all live jobs at once
    (``_plan_stages``), which builds the missing ones as stacks.  The jobs
    whose stages keep the same number of arms out of the same number then
    draw (``explore_stack``), estimate and are cut (``eliminate_stack``)
    together.  Each job draws from its own generator, in the order a lone
    run draws, and every stacked step gives it the bits of its lone
    computation, so its result does not depend on the other jobs.  The
    jobs share ``cache``, or else one cache made for this call; plans are
    keyed by instance, so jobs of different instances can share it too.
    A package error ends only the job that raised it and takes the place
    of its result.  With ``traces=False`` no ``StageTrace`` is built and
    every result's ``traces`` is ``()``; nothing else changes.

    Strategy ``static`` is the single-stage baseline: one G-optimal
    allocation of the whole budget and one least-squares fit, i.e. this
    loop with eta = K, which keeps only the top arm.
    """
    results: list = [None] * len(jobs)
    runs = []
    for slot, (instance, config, rng) in enumerate(jobs):
        if config.strategy == "static":
            config = replace(config, strategy="fw-g", model="linear",
                             eta=float(instance.n_arms))
        try:
            schedule = stage_schedule(instance.n_arms, config.eta, config.budget)
        except FbbaiError as exc:
            results[slot] = exc
            continue
        runs.append(_Run(slot, instance, config, rng, schedule,
                         tuple(range(instance.n_arms)), []))
    cache = DesignCache() if cache is None else cache
    t = 0
    while runs:
        t += 1
        plans = _plan_stages(cache, [(run.instance, run.active,
                                      run.schedule.per_stage_budget,
                                      run.config.strategy) for run in runs])
        stage = defaultdict(list)  # (m, arms kept) -> (run, plan)
        for run, plan in zip(runs, plans):
            if isinstance(plan, FbbaiError):
                results[run.slot] = plan
            else:
                stage[run.schedule.sizes[t - 1], run.schedule.sizes[t]].append(
                    (run, plan))
        live = []
        for (_, keep), group in stage.items():
            counts, ids, saturated = _plan_stacks([plan for _, plan in group])
            sums = _stage_sums([(run.instance, plan, run.rng)
                                for run, plan in group], counts, ids)
            mu_hat = np.divide(sums, counts, out=np.zeros_like(sums),
                               where=saturated[:, None])
            pulls = counts.sum(axis=1).tolist()
            # a saturated stage is ranked by S_i / c_i, computed above
            fits: dict = {}  # row -> (converged, iterations, fellback)
            failed: set = set()
            unsaturated = defaultdict(list)  # (model, projected shape) -> rows
            for g in np.flatnonzero(~saturated).tolist():
                run, plan = group[g]
                unsaturated[run.config.model, plan.arms.projected.shape].append(g)
            for (model, _), rows in unsaturated.items():
                arms = np.array([group[g][1].arms.projected for g in rows])
                for g, fit in zip(rows, _fit_stack(model, arms, sums[rows],
                                                   counts[rows])):
                    if isinstance(fit, FbbaiError):
                        results[group[g][0].slot] = fit
                        failed.add(g)
                    else:
                        mu_hat[g], fits[g] = fit[0], fit[1:]
            rows = range(len(group))
            if failed:
                rows = [g for g in rows if g not in failed]
                if not rows:
                    continue
                mu_hat, ids = mu_hat[rows], ids[rows]
            survivors = eliminate_stack(ids, mu_hat, keep)
            for i, (g, kept) in enumerate(zip(rows, survivors)):
                run, plan = group[g]
                run.active = tuple(kept)
                run.pulls += pulls[g]
                if traces:
                    converged, iterations, fellback = fits.get(
                        g, (True, 0, False))
                    run.traces.append(StageTrace(
                        stage=t, arms=plan.arms, counts=plan.counts,
                        mu_hat=mu_hat[i], survivors=run.active,
                        estimator_converged=converged,
                        estimator_iterations=iterations,
                        used_fallback=fellback, design=plan.design))
                if t < run.schedule.stages:
                    live.append(run)
                else:
                    results[run.slot] = RunResult(
                        recommended=kept[0],
                        success=kept[0] == run.instance.best_arm,
                        traces=tuple(run.traces), total_pulls=run.pulls)
        runs = live
    return results


def gse_run(instance: BanditInstance, config: GseConfig,
            rng: np.random.Generator,
            cache: Optional[DesignCache] = None) -> RunResult:
    """Run successive elimination and recommend the single surviving arm:
    ``gse_lockstep`` on one job, raising the error that ends it."""
    (result,) = gse_lockstep([(instance, config, rng)], cache)
    if isinstance(result, FbbaiError):
        raise result
    return result
