"""Generalized successive elimination under a fixed sampling budget.

A run splits its budget B evenly over s = ceil(log_eta K) stages.  Each
stage projects the active arms onto their span, spends the stage budget
according to the configured allocation strategy, fits the reward model,
and keeps the top ceil(|active| / eta) arms by estimated mean.  The single
survivor is the recommendation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .design import Allocation, Design, allocate_budget, fw_g_optimal
from .design import fw_d_optimal  # noqa: F401  bench/tracer.py patches this name
from .errors import ConfigurationError, EstimationFailureError, InvalidAllocationError
from .estimators import (ParameterEstimate, RegressionData, irls_glm,
                         least_squares, mean_estimates)
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
    """Everything one stage did: who was active, pulls, estimates, survivors."""

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


class DesignCache:
    """Memo for projections, exploration designs and stage pull counts.

    Projection, design solving and rounding are deterministic functions of
    the active arm subset and the stage budget, so replications over a
    fixed instance can share the work.  Cached counts are read-only.
    """

    def __init__(self) -> None:
        self._projections: dict = {}
        self._designs: dict = {}
        self._counts: dict = {}

    def projection(self, instance: BanditInstance,
                   ids: tuple[int, ...]) -> ProjectedArmSet:
        hit = self._projections.get(ids)
        if hit is None:
            hit = project_to_span(instance.features[list(ids)], ids=ids)
            self._projections[ids] = hit
        return hit

    def design(self, active: ProjectedArmSet) -> Design:
        key = active.original_ids
        hit = self._designs.get(key)
        if hit is None:
            hit = fw_g_optimal(active.projected)
            self._designs[key] = hit
        return hit

    def counts(self, active: ProjectedArmSet, n: int, strategy: str,
               ) -> tuple[np.ndarray, Optional[Design]]:
        """Read-only pull counts of a stage of ``n`` pulls, with their design."""
        key = (active.original_ids, n, strategy)
        hit = self._counts.get(key)
        if hit is None:
            hit = _stage_counts(active, n, strategy, self)
            hit[0].flags.writeable = False
            self._counts[key] = hit
        return hit


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


def _stage_counts(active: ProjectedArmSet, n: int, strategy: str,
                  cache: DesignCache) -> tuple[np.ndarray, Optional[Design]]:
    """Pull counts of one stage and the design they were rounded from."""
    m, d_t = active.n_arms, active.dim
    if n < d_t:
        raise InvalidAllocationError(f"stage budget {n} below span dimension {d_t}")
    if strategy == "uniform":
        base, rem = divmod(n, m)
        counts = np.full(m, base, dtype=int)
        counts[:rem] += 1  # equal remainders; lowest indices win
        return counts, None
    design = cache.design(active)
    return allocate_budget(n, design, active.projected).counts, design


def explore(instance: BanditInstance, active: ProjectedArmSet, n: int,
            config: GseConfig, rng: np.random.Generator,
            cache: Optional[DesignCache] = None,
            ) -> tuple[Allocation, RegressionData, Optional[Design]]:
    """Spend ``n`` pulls on the active arms and return per-arm statistics.

    Pulls are drawn in active-arm order, each arm's pulls contiguous, one
    reward per pull, so a run is reproducible from (instance, config, seed)
    alone.  The returned data has one row per active arm: its projected
    features, its reward sum and its pull count.
    """
    if cache is None:
        cache = DesignCache()
    counts, design = cache.counts(active, n, config.strategy)
    arm_of_pull = np.repeat(np.arange(active.n_arms), counts)
    ys = sample_rewards(instance, np.asarray(active.original_ids)[arm_of_pull], rng)
    sums = np.bincount(arm_of_pull, weights=ys, minlength=active.n_arms)
    return (Allocation(counts=counts),
            RegressionData(xs=active.projected, ys=sums, counts=counts), design)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def eliminate(active_ids: tuple[int, ...], mu_hat: np.ndarray,
              eta: float) -> tuple[int, ...]:
    """Keep the ceil(m / eta) arms with the highest estimated means.

    Computed estimates that are equal rank the lower arm id first;
    survivors come back in ascending id order.  Estimates that are equal
    in exact arithmetic can still differ by rounding when the arms are not
    orthonormal (the ``logistic`` preset), and then rounding decides the
    cut; see ROADMAP item 2.
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


def _fit_stage(data: RegressionData, config: GseConfig,
               ) -> tuple[ParameterEstimate, bool]:
    if config.model == "logistic":
        try:
            return irls_glm(data, LOGISTIC), False
        except EstimationFailureError:
            return least_squares(data), True
    return least_squares(data), False


def gse_run(instance: BanditInstance, config: GseConfig,
            rng: np.random.Generator,
            cache: Optional[DesignCache] = None) -> RunResult:
    """Run successive elimination and recommend the single surviving arm.

    Strategy ``static`` is the single-stage baseline: one G-optimal
    allocation of the whole budget and one least-squares fit, i.e. this
    loop with eta = K, which keeps only the top arm.
    """
    if config.strategy == "static":
        config = replace(config, strategy="fw-g", model="linear",
                         eta=float(instance.n_arms))
    if cache is None:
        cache = DesignCache()
    schedule = stage_schedule(instance.n_arms, config.eta, config.budget)
    active: tuple[int, ...] = tuple(range(instance.n_arms))
    full_span = cache.projection(instance, active)
    if schedule.per_stage_budget < full_span.dim:
        raise ConfigurationError(
            f"per-stage budget {schedule.per_stage_budget} cannot span "
            f"dimension {full_span.dim}")
    traces: list[StageTrace] = []
    total = 0
    for t in range(1, schedule.stages + 1):
        proj = cache.projection(instance, active)
        alloc, data, design = explore(instance, proj, schedule.per_stage_budget,
                                      config, rng, cache)
        estimate, fellback = _fit_stage(data, config)
        mean_fn = LOGISTIC if (config.model == "logistic" and not fellback) else None
        mu_hat = mean_estimates(estimate, proj.projected, mean_fn)
        survivors = eliminate(active, mu_hat, config.eta)
        traces.append(StageTrace(stage=t, arms=proj, counts=alloc.counts,
                                 mu_hat=mu_hat, survivors=survivors,
                                 estimator_converged=estimate.converged,
                                 estimator_iterations=estimate.iterations,
                                 used_fallback=fellback, design=design))
        total += alloc.total
        active = survivors
    recommended = active[0]
    return RunResult(recommended=recommended,
                     success=recommended == instance.best_arm,
                     traces=tuple(traces), total_pulls=total)
