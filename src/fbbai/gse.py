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
config, rng) jobs in lockstep.  Each stage plans all live jobs at once,
so the Frank-Wolfe designs they lack are solved as one stacked problem per
arm-set shape; each job then draws, fits and eliminates from its own
generator, so its result is the one it gets alone.  ``gse_run`` is the
batch of one, and the harness runs each chunk of replications as one
batch.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .design import (Design, _info_matrix, allocate_budget,
                     fw_g_optimal_stack)
# bench/tracer.py patches these names
from .design import fw_d_optimal, fw_g_optimal  # noqa: F401
from .errors import ConfigurationError, EstimationFailureError, FbbaiError
from .estimators import (RegressionData, irls_glm, least_squares,
                         mean_estimates, well_conditioned)
from .instances import (LOGISTIC, BanditInstance, ProjectedArmSet,
                        project_to_span, sample_rewards)

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
        if self.budget < 1:
            raise ConfigurationError("budget must be a positive integer")
        if not self.eta > 1.0:
            raise ConfigurationError("eta must exceed 1")
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
    """Memo of stage plans keyed by (active ids, stage budget, strategy).

    Projection, design solving and rounding are deterministic functions of
    those three for a fixed instance, so its replications can share the
    work; a cache serves one instance.
    """

    def __init__(self) -> None:
        self._plans: dict = {}

    def plan(self, instance: BanditInstance, ids: tuple[int, ...], n: int,
             strategy: str) -> StagePlan:
        """The plan of ``n`` pulls on the arms ``ids``; raises
        ``ConfigurationError`` if ``n`` is below their span dimension."""
        (plan,) = _plan_stages([(self, instance, ids, n, strategy)])
        if isinstance(plan, FbbaiError):
            raise plan
        return plan

    @staticmethod
    def design(arms: np.ndarray) -> list:
        # a method of its own because bench/tracer.py times it as
        # design.cache; called on the class, which the tracer's patch keeps
        return fw_g_optimal_stack(arms)

    def _store(self, key: tuple, arms: ProjectedArmSet, counts: np.ndarray,
               design: Optional[Design]) -> StagePlan:
        counts.flags.writeable = False
        saturated = (arms.n_arms == arms.dim and well_conditioned(
            _info_matrix(counts, arms.projected)))
        plan = self._plans[key] = StagePlan(arms, counts, design, saturated)
        return plan


PlanRequest = tuple[DesignCache, BanditInstance, tuple[int, ...], int, str]


def _plan_stages(requests: Sequence[PlanRequest],
                 ) -> list[Union[StagePlan, FbbaiError]]:
    """The plan of each (cache, instance, ids, n, strategy) request.

    A miss is built once per cache and key: the active arms are projected
    and checked against ``n``, then given uniform counts or a rounded
    ``fw-g`` design.  The designs of all misses are solved as one stack per
    arm-set shape.  A miss that raises gives its error to every request
    for it and stores nothing.
    """
    plans: list = [None] * len(requests)
    misses: dict = {}
    for r, (cache, instance, ids, n, strategy) in enumerate(requests):
        key = (ids, n, strategy)
        hit = cache._plans.get(key)
        if hit is not None:
            plans[r] = hit
        else:
            miss = misses.setdefault((id(cache), key), (cache, instance, key, []))
            miss[3].append(r)

    def settle(requests_of_miss: list, plan) -> None:
        for r in requests_of_miss:
            plans[r] = plan

    unsolved = defaultdict(list)  # arm-set shape -> misses waiting for a design
    for cache, instance, key, rs in misses.values():
        ids, n, strategy = key
        try:
            arms = project_to_span(instance.features[list(ids)], ids=ids)
            if n < arms.dim:
                raise ConfigurationError(
                    f"per-stage budget {n} cannot span dimension {arms.dim}")
        except FbbaiError as exc:
            settle(rs, exc)
            continue
        if strategy == "uniform":
            base, rem = divmod(n, arms.n_arms)
            counts = np.full(arms.n_arms, base, dtype=int)
            counts[:rem] += 1  # equal remainders; lowest indices win
            settle(rs, cache._store(key, arms, counts, None))
        else:
            unsolved[arms.projected.shape].append((cache, key, rs, arms))
    for group in unsolved.values():
        designs = DesignCache.design(np.stack([miss[3].projected for miss in group]))
        for (cache, key, rs, arms), design in zip(group, designs):
            try:
                if isinstance(design, FbbaiError):
                    raise design
                counts = allocate_budget(key[1], design, arms.projected)
            except FbbaiError as exc:
                settle(rs, exc)
                continue
            settle(rs, cache._store(key, arms, counts, design))
    return plans


# ---------------------------------------------------------------------------
# Stage schedule
# ---------------------------------------------------------------------------


def _ceil_div(m: int, eta: float) -> int:
    if float(eta).is_integer():
        e = int(eta)
        return (m + e - 1) // e
    # guard keeps exact ratios from rounding up twice in floats
    return math.ceil(m / eta - 1e-12)


def stage_schedule(K: int, eta: float, budget: int) -> StageSchedule:
    """Stage count s, per-stage budget floor(B / s), and size path K -> 1.

    Sizes follow the elimination recursion size_t = ceil(size_{t-1} / eta);
    for integer eta the step count equals ceil(log_eta K) exactly.

    Raises
    ------
    ConfigurationError
        If the recursion cannot reach one arm (eta below 2 stalls at two
        arms) or the budget gives some stage no pulls.
    """
    if K < 2:
        raise ConfigurationError("need at least two arms")
    if not eta > 1.0:
        raise ConfigurationError("eta must exceed 1")
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
    features, its reward sum and its pull count.
    """
    arms, counts = plan.arms, plan.counts
    arm_of_pull = np.repeat(np.arange(arms.n_arms), counts)
    ys = sample_rewards(instance, np.asarray(arms.original_ids)[arm_of_pull], rng)
    sums = np.bincount(arm_of_pull, weights=ys, minlength=arms.n_arms)
    return RegressionData(xs=arms.projected, ys=sums, counts=counts)


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
    then rounding decides the cut.
    """
    m = len(active_ids)
    if mu_hat.shape[0] != m:
        raise ValueError("one estimate per active arm required")
    keep = _ceil_div(m, eta)
    ids = np.asarray(active_ids)
    order = np.lexsort((ids, -mu_hat))  # primary: highest mean; then lowest id
    return tuple(sorted(int(i) for i in ids[order[:keep]]))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _stage_means(plan: StagePlan, data: RegressionData, config: GseConfig,
                 ) -> tuple[np.ndarray, bool, int, bool]:
    """Estimated means with the fit's (converged, iterations, fallback)."""
    if plan.saturated:
        return data.ys / data.counts, True, 0, False
    fellback = False
    if config.model == "logistic":
        try:
            estimate = irls_glm(data, LOGISTIC)
        except EstimationFailureError:
            estimate, fellback = least_squares(data), True
    else:
        estimate = least_squares(data)
    mean_fn = LOGISTIC if (config.model == "logistic" and not fellback) else None
    mu_hat = mean_estimates(estimate, plan.arms.projected, mean_fn)
    return mu_hat, estimate.converged, estimate.iterations, fellback


@dataclass(slots=True)
class _Run:
    """One job of ``gse_lockstep`` between stages."""

    slot: int
    instance: BanditInstance
    config: GseConfig
    rng: np.random.Generator
    cache: DesignCache
    schedule: StageSchedule
    active: tuple[int, ...]
    traces: list


Job = tuple[BanditInstance, GseConfig, np.random.Generator]


def gse_lockstep(jobs: Sequence[Job], cache: Optional[DesignCache] = None,
                 ) -> list[Union[RunResult, FbbaiError]]:
    """Run successive elimination on every (instance, config, rng) job, all
    jobs in lockstep, stage by stage; one result per job, in order.

    Each stage looks up the plans of all live jobs at once
    (``_plan_stages``), so the designs the stage lacks are solved as one
    ``fw_g_optimal_stack`` call per arm-set shape.  Each job then explores,
    estimates and eliminates from its own generator, in the order a lone
    run draws, so its result does not depend on the other jobs.  The jobs
    share ``cache`` (which then serves their one instance), or else each
    gets its own.  A package error ends only the job that raised it and
    takes the place of its result.

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
        runs.append(_Run(slot, instance, config, rng,
                         DesignCache() if cache is None else cache, schedule,
                         tuple(range(instance.n_arms)), []))
    t = 0
    while runs:
        t += 1
        plans = _plan_stages([(run.cache, run.instance, run.active,
                               run.schedule.per_stage_budget, run.config.strategy)
                              for run in runs])
        live = []
        for run, plan in zip(runs, plans):
            try:
                if isinstance(plan, FbbaiError):
                    raise plan
                data = explore(run.instance, plan, run.rng)
                mu_hat, converged, iterations, fellback = _stage_means(
                    plan, data, run.config)
                survivors = eliminate(run.active, mu_hat, run.config.eta)
            except FbbaiError as exc:
                results[run.slot] = exc
                continue
            run.traces.append(StageTrace(
                stage=t, arms=plan.arms, counts=plan.counts, mu_hat=mu_hat,
                survivors=survivors, estimator_converged=converged,
                estimator_iterations=iterations, used_fallback=fellback,
                design=plan.design))
            run.active = survivors
            if t < run.schedule.stages:
                live.append(run)
            else:
                recommended = survivors[0]
                results[run.slot] = RunResult(
                    recommended=recommended,
                    success=recommended == run.instance.best_arm,
                    traces=tuple(run.traces),
                    total_pulls=sum(int(tr.counts.sum()) for tr in run.traces))
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
