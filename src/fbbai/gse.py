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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .design import Design, _info_matrix, allocate_budget, fw_g_optimal
from .design import fw_d_optimal  # noqa: F401  bench/tracer.py patches this name
from .errors import ConfigurationError, EstimationFailureError
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
        key = (ids, n, strategy)
        hit = self._plans.get(key)
        if hit is None:
            arms = project_to_span(instance.features[list(ids)], ids=ids)
            if n < arms.dim:
                raise ConfigurationError(
                    f"per-stage budget {n} cannot span dimension {arms.dim}")
            design = None
            if strategy == "uniform":
                base, rem = divmod(n, arms.n_arms)
                counts = np.full(arms.n_arms, base, dtype=int)
                counts[:rem] += 1  # equal remainders; lowest indices win
            else:
                design = self.design(arms)
                counts = allocate_budget(n, design, arms.projected)
            counts.flags.writeable = False
            saturated = (arms.n_arms == arms.dim and well_conditioned(
                _info_matrix(counts, arms.projected)))
            hit = self._plans[key] = StagePlan(arms, counts, design, saturated)
        return hit

    def design(self, arms: ProjectedArmSet) -> Design:
        # a method of its own because bench/tracer.py times it as design.cache
        return fw_g_optimal(arms.projected)


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
    traces: list[StageTrace] = []
    total = 0
    for t in range(1, schedule.stages + 1):
        plan = cache.plan(instance, active, schedule.per_stage_budget,
                          config.strategy)
        data = explore(instance, plan, rng)
        mu_hat, converged, iterations, fellback = _stage_means(plan, data, config)
        survivors = eliminate(active, mu_hat, config.eta)
        traces.append(StageTrace(stage=t, arms=plan.arms, counts=plan.counts,
                                 mu_hat=mu_hat, survivors=survivors,
                                 estimator_converged=converged,
                                 estimator_iterations=iterations,
                                 used_fallback=fellback, design=plan.design))
        total += int(plan.counts.sum())
        active = survivors
    recommended = active[0]
    return RunResult(recommended=recommended,
                     success=recommended == instance.best_arm,
                     traces=tuple(traces), total_pulls=total)
