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
Somekh 2013).  Every later stage of a run keeps a subset of such a set,
which is saturated too: when cond(V) <= sqrt(1e12) leaves the margin
that interlacing needs (see ``_inherited_counts``), the run inherits
saturation and plans no later stage; it pulls with the counts row that
every inheriting run of the same (m, n, strategy) shares, the row the
full build would give.

``gse_lockstep`` runs this one stage loop for a batch of (instance,
config, rng) jobs: the jobs of one run (stage sizes, stage budget,
strategy, model) go through its stages in lockstep, as one cohort of
arrays, and each stage is one pass, as stacks.  The plans a stage's jobs
ask for are built together, as plan blocks, with no memo across stages:
the distinct keys of one shape and strategy get one stacked SVD
projection, Frank-Wolfe solve, rounding and saturation test, and keep
their rows stacked in a ``_PlanBlock``, from which a ``StagePlan`` is
made only when a trace or ``stage_plan`` asks for it.  A square set (m = d_t) takes Frank-Wolfe's iteration 0
outside the loop: where uniform weights certify, as they do for m
independent arms, its row is the design the loop would stop with and the
shared counts row of its (m, n), so it neither loops nor rounds.  Each
job draws on its own generator: a Bernoulli job each
arm's sum S_i ~ Binomial(c_i, mu_i), a Gaussian job one standard-normal
call for its pulls, scaled and summed per block of jobs
(``_block_sums``).  Saturated stages take their means S_i / c_i as one
division, unsaturated ones are fitted as one stack per model and block,
and one stacked ``np.lexsort`` makes every cut.  Every stacked kernel
gives each job the bits of its lone computation, so a job's result is
the one it gets alone.  ``gse_run`` is
the batch of one; the harness runs replications as such batches with
``traces=False``, so no ``StageTrace`` or ``StagePlan`` is built.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np

from .design import (Design, _all_norms, _cert_target, _check_budget, _design,
                     _fw_solve, _info_matrix, _round_rows, allocate_budget)
# bench/tracer.py patches these names
from .design import fw_d_optimal, fw_g_optimal  # noqa: F401
from .errors import (ConfigurationError, EstimationFailureError, FbbaiError,
                     SingularDesignError, _one)
from .estimators import (COND_LIMIT, RegressionData, irls_glm_stack,
                         least_squares_stack, mean_estimates_stack)
# bench/tracer.py patches these names
from .estimators import irls_glm, least_squares, mean_estimates  # noqa: F401
from .instances import LOGISTIC, BanditInstance, ProjectedArmSet, _project_stack
# bench/tracer.py patches these names
from .instances import project_to_span, sample_rewards  # noqa: F401

STRATEGIES = ("uniform", "fw-g", "static")
MODELS = ("linear", "logistic")


@dataclass(frozen=True)
class GseConfig:
    """Run parameters: budget, elimination rate, allocation and fit model.
    The budget is a positive integer below ``design.BUDGET_LIMIT``."""

    budget: int
    eta: float = 2.0
    strategy: str = "fw-g"
    model: str = "linear"

    def __post_init__(self) -> None:
        if not isinstance(self.budget, Integral) or self.budget < 1:
            raise ConfigurationError("budget must be a positive integer")
        _check_budget(self.budget)
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


def _uniform_counts(n: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Uniform counts of ``n[b]`` pulls on the active ids ``ids[b]`` of
    each row of a (B, m) stack: floor(n / m) pulls each, and the n mod m
    remainder pulls one each to the lowest ids.  So with n < m the arms
    that are sampled are the lowest ids, whatever order the ids are listed
    in."""
    base, rem = divmod(n, ids.shape[1])
    rank = ids.argsort(axis=1).argsort(axis=1)
    return base[:, None] + (rank < rem[:, None])


class _PlanBlock:
    """The plans of ``keys`` of one (m, d_t) shape and strategy, built
    together from their stacked ids, budgets, projected arms and bases and
    held as stacked rows: ``ids``, read-only ``counts``, ``saturated``,
    ``inherit``, ``projected``, ``basis`` and the solver's (weights, g,
    iterations, certified) ``design`` arrays, none for uniform counts.
    Uniform counts give the remainder pulls to the lowest active ids
    (``_uniform_counts``).  fw-g rows come from ``_design_counts``: a
    square row whose uniform weights certify at the hoisted iteration 0
    takes them and the shared row ``_inherited_counts(m, n, "fw-g")``;
    the others are solved and rounded, and rounding retries a row it
    rejects alone (``allocate_budget``).  A key whose budget is below d_t
    or whose build raises leaves ``keys`` for the dict ``failed``, with
    its error.  One ``np.linalg.cond`` of the rows' V gives both flags:
    ``saturated`` (m = d_t and cond(V) < ``COND_LIMIT``) and ``inherit``
    (saturated, cond(V) <= ``INHERIT_COND`` and counts within a factor 2;
    see ``_inherited_counts``).  ``plan`` makes a row's ``StagePlan`` on
    request.
    """

    def __init__(self, keys: list, ids: np.ndarray, n: np.ndarray,
                 projected: np.ndarray, basis: np.ndarray, uniform: bool) -> None:
        m, dim = projected.shape[1:]
        bad = {b: ConfigurationError(  # row -> the error its build raised
            f"per-stage budget {n[b]} cannot span dimension {dim}")
            for b in np.flatnonzero(n < dim).tolist()}
        if uniform:
            counts, design = _uniform_counts(n, ids), []
        else:
            counts, design = _design_counts(n, projected, bad)
        self.failed = {keys[b]: exc for b, exc in bad.items()}
        if bad:
            keep = np.delete(np.arange(len(keys)), list(bad))
            keys = [keys[b] for b in keep]
            ids, counts, projected, basis, *design = (
                a[keep] for a in (ids, counts, projected, basis, *design))
        self.saturated = self.inherit = np.zeros(len(keys), dtype=bool)
        if keys and m == dim:  # V must pass the linear fit's condition test
            cond = np.linalg.cond(_info_matrix(counts, projected))
            self.saturated = np.isfinite(cond) & (cond < COND_LIMIT)
            self.inherit = (self.saturated & (cond <= INHERIT_COND)
                            & (counts.max(axis=1) <= 2 * counts.min(axis=1)))
        counts.flags.writeable = False
        self.keys, self.ids, self.counts, self.design = keys, ids, counts, design
        self.projected, self.basis = projected, basis

    def plan(self, row: int) -> StagePlan:
        arms = ProjectedArmSet(self.projected[row], self.basis[row],
                               tuple(self.ids[row].tolist()))
        design = _design(self.design, row) if self.design else None
        return StagePlan(arms, self.counts[row], design, bool(self.saturated[row]))


def _design_counts(n: np.ndarray, projected: np.ndarray,
                   bad: dict) -> tuple[np.ndarray, list]:
    """The (B, m) fw-g counts and the design arrays of a block's rows,
    given their budgets and (B, m, d_t) projected arms.  ``bad`` maps the
    rows whose budget is below d_t, which are not solved, to their error;
    the rows whose solve or rounding raises join it.

    Square rows (m = d_t) get Frank-Wolfe's iteration 0 here, the loop's
    own first computation: one stacked ``_all_norms`` of weights 1.0 / m.
    A row whose largest norm g certifies takes the design the loop would
    stop with (weights 1.0 / m, g, 0 iterations, certified) and the
    shared row ``_inherited_counts(m, n, "fw-g")``, which is
    ``_round_rows`` of those weights; uniform g is m for m independent
    arms (Kiefer-Wolfowitz), so nearly every square row takes it.  The
    other rows, and every row of a block whose stacked factorization
    raises, are solved by ``DesignCache.design`` and rounded, retrying a
    rejected row alone (``allocate_budget``).  Stacked kernels give each
    row its lone bits, so every row is its lone solve and rounding."""
    B, m, dim = projected.shape
    design = [np.full((B, m), 1.0 / m), np.full(B, np.inf),
              np.zeros(B, dtype=int), np.zeros(B, dtype=bool)]
    if m == dim:
        try:
            design[1] = _all_norms(design[0], projected).max(axis=1)
        except SingularDesignError:
            pass  # the loop renews the rows one by one
    live = np.ones(B, dtype=bool)
    live[list(bad)] = False
    done = live & (design[1] <= _cert_target(dim))
    design[3][done] = True
    counts = np.zeros((B, m), dtype=int)
    for size in set(n[done].tolist()):
        counts[done & (n == size)] = _inherited_counts(m, size, "fw-g")
    rest = np.flatnonzero(live & ~done)
    if rest.size:
        *solved, errors = DesignCache.design(projected[rest])
        for a, rows in zip(design, solved):
            a[rest] = rows
        bad.update((int(rest[i]), exc) for i, exc in errors.items())
        counts[rest], short = _round_rows(n[rest], solved[0])
        for b in rest[list(short)].tolist():
            if b not in bad:
                try:
                    counts[b] = allocate_budget(int(n[b]), _design(design, b),
                                                projected[b])
                except FbbaiError as exc:
                    bad[b] = exc
    return counts, design


class DesignCache:
    # the solve that bench/tracer.py times as design.cache; goes with ROADMAP item 21
    @staticmethod
    def design(arms: np.ndarray) -> tuple:
        return _fw_solve(arms)


def _plan_stages(keys: Sequence[tuple],
                 ) -> list[Union[tuple[_PlanBlock, int], FbbaiError]]:
    """The (block, row) plan of each (instance, ids, n, strategy) key, or
    the error its build raised; ``ids`` is a tuple of ints.

    Each distinct key is built once, as stacks: the keys of one (m, d)
    shape and strategy are gathered (``_gather``) and projected onto their
    span by one stacked SVD, and each span dimension d_t makes one
    ``_PlanBlock``.  Instances hash by identity, so keys of different
    instances stay apart.  Every stacked kernel gives each key the bits of
    its lone computation.  Nothing is kept after the call.
    """
    plans: dict = {}  # key -> its (block, row), or its error
    by_shape = defaultdict(list)  # (m, d, uniform) -> keys to build
    for key in dict.fromkeys(keys):
        by_shape[len(key[1]), key[0].dim, key[3] == "uniform"].append(key)
    for (_, _, uniform), group in by_shape.items():
        ids = np.array([key[1] for key in group])
        n = np.array([key[2] for key in group])
        errors, stacks = _project_stack(
            _gather([key[0] for key in group], "features", ids))
        for items, projected, basis in stacks:
            block = _PlanBlock([group[b] for b in items.tolist()], ids[items],
                               n[items], projected, basis, uniform)
            plans.update((key, (block, row)) for row, key in enumerate(block.keys))
            plans.update(block.failed)
        plans.update((group[b], exc) for b, exc in errors.items())
    return [plans[key] for key in keys]


INHERIT_COND = math.sqrt(COND_LIMIT)  # cond(V) up to which saturation is inherited


@lru_cache(maxsize=256)  # every inheriting run of a point asks for a few
def _inherited_counts(m: int, n: int, strategy: str) -> np.ndarray:
    """The read-only counts row of n pulls on the m active arms of a run
    that inherits saturation, and of a square fw-g plan row whose uniform
    weights certify (``_design_counts``): ``_round_rows`` of weights
    1.0 / m, the G-design of m independent arms, for fw-g, raising its
    ``BudgetTooSmallError`` when n < m, and ``_uniform_counts`` for
    uniform, whose remainder pulls go to the lowest active ids, here the
    first m positions, since a run's active ids are ascending.

    A run whose stage was saturated with cond(V) <= ``INHERIT_COND`` =
    sqrt(``COND_LIMIT``) and counts within a factor 2 inherits saturation:
    ``gse_lockstep`` builds no later plan for it, and each later stage
    pulls with this row.  That is exactly what the full build gives:
    - the later active arms X_sub are rows of that stage's X, and their
      Gram matrix X_sub X_sub' is a principal submatrix of X X', so the
      eigenvalues interlace and cond(X_sub) <= cond(X);
    - with counts in a factor r of each other, cond(X)^2 <= r cond(V),
      and the later counts are within a factor 2 too, so
      cond(V_sub) <= 2 * 2 * cond(V) <= 4e6;
    - so the full build finds rank m = d_t, certifies Frank-Wolfe at its
      iteration 0 with weights 1.0 / m (uniform g is m exactly, and its
      computed value is within about 1e-8 of m against the 1% tolerance),
      rounds them to this row, and passes the 1e12 condition test: the
      same counts and the same ``saturated`` flag.
    Traced runs inherit too, but still ask for their full plans, built as
    stacks, which their ``StageTrace`` shows."""
    if strategy == "uniform":
        counts = _uniform_counts(np.array([n]), np.arange(m)[None])[0]
    else:
        (counts,), errors = _round_rows(np.array([n]), np.full((1, m), 1.0 / m))
        if errors:
            raise errors[0]
    counts.flags.writeable = False
    return counts


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
    # guard keeps exact ratios from rounding up twice in floats; a huge eta
    # must still keep one arm: ceil(m / eta) >= 1 for m >= 1
    return max(1, math.ceil(m / eta - 1e-12))


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


def stage_plan(instance: BanditInstance, ids: tuple[int, ...], n: int,
               strategy: str) -> StagePlan:
    """The plan of ``n`` pulls on the arm ids ``ids``, built alone; raises
    ``ConfigurationError`` for non-integers, ids that are not distinct arm
    ids in [0, K) or none at all, a strategy outside ``STRATEGIES``, or
    ``n`` below their span dimension or not below ``BUDGET_LIMIT``."""
    if not all(isinstance(i, Integral) for i in (*ids, n)):
        raise ConfigurationError(f"arm ids and n must be integers, not {ids}, {n}")
    _check_budget(n)
    ids, K = tuple(int(i) for i in ids), instance.n_arms
    if not (ids and len(set(ids)) == len(ids) and 0 <= min(ids) <= max(ids) < K):
        raise ConfigurationError(f"arm ids {ids} are not distinct ids in [0, {K})")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"strategy {strategy!r} not one of {STRATEGIES}")
    block, row = _one(_plan_stages([(instance, ids, int(n), strategy)]))
    return block.plan(row)


# ---------------------------------------------------------------------------
# Stage exploration
# ---------------------------------------------------------------------------


def explore(instance: BanditInstance, plan: StagePlan,
            rng: np.random.Generator) -> RegressionData:
    """Draw the plan's pulls and return per-arm statistics, one row per
    active arm: its projected features, reward sum and pull count.  A
    Bernoulli arm's sum is one Binomial(c_i, mu_i) variate; Gaussian
    rewards are one per pull, each arm's pulls contiguous, in active-arm
    order.  This is ``_stage_sums`` on a stack of one."""
    (sums,) = _stage_sums([(instance, rng)], plan.counts[None],
                          np.array([plan.arms.original_ids]))
    return RegressionData(xs=plan.arms.projected, ys=sums, counts=plan.counts)


def _plan_stacks(plans: Sequence[tuple[_PlanBlock, int]]) -> tuple[np.ndarray, ...]:
    """The (G, m) pull counts and the (G,) saturation and inherit flags of
    (block, row) plans that share an active-set size m: one ``take`` of
    each block's rows, and a stage's jobs nearly always share one block.
    Their active ids are the keys' ids, which the caller holds."""
    jobs = defaultdict(list)  # block -> the jobs of its rows, in order
    for g, (block, _) in enumerate(plans):
        jobs[block].append(g)
    parts = [tuple(a.take([plans[g][1] for g in js], axis=0) for a in (
        block.counts, block.saturated, block.inherit))
             for block, js in jobs.items()]
    if len(parts) == 1:
        return parts[0]
    order = np.argsort(np.concatenate(list(jobs.values())))
    return tuple(np.concatenate(part)[order] for part in zip(*parts))


def _gather(instances: Sequence[BanditInstance], attr: str,
            ids: Sequence) -> np.ndarray:
    """Row g of the result holds the rows ``ids[g]`` of attribute ``attr``
    of ``instances[g]``: one ``take`` of the stacked ids when all entries
    of ``instances`` are one instance, else one ``take`` per entry."""
    first = instances[0]
    if all(instance is first for instance in instances):
        return getattr(first, attr).take(ids, axis=0)
    return np.stack([getattr(instance, attr).take(row, axis=0)
                     for instance, row in zip(instances, ids)])


DRAW_BLOCK = 1 << 14  # pulls per block: the size of the kept draw buffer


class _DrawBuffers(threading.local):
    """Each thread's kept work buffer for one block's Gaussian draws:
    ``DRAW_BLOCK`` rewards, reused by every block, stage and run of the
    thread.  A larger block gets a transient array, so it never grows."""

    def __init__(self) -> None:
        self.draws = np.empty(DRAW_BLOCK)

    def take(self, n: int) -> np.ndarray:
        """A work array for ``n`` pulls: a view of the kept buffer when it
        is large enough, else a fresh array."""
        return self.draws[:n] if n <= DRAW_BLOCK else np.empty(n)


_BUFFERS = _DrawBuffers()


# Up to this many arms a Bernoulli row is one scalar binomial call per arm:
# the measured crossover, about 7 us per array call against 0.65 us per
# scalar call (BENCH_binomial.json).
SCALAR_BINOMIAL_ARMS = 10


def _stage_sums(jobs: Sequence[tuple], counts: np.ndarray,
                ids: np.ndarray) -> np.ndarray:
    """Reward sums of each (instance, rng) job whose plans share an
    active-set size m and whose pull counts and active ids are the rows of
    the (G, m) ``counts`` and ``ids``: a (G, m) array, row g holding job
    g's per-arm sums S_i.

    A sum of c Bernoulli(mu) rewards is Binomial(c, mu), so a Bernoulli job
    draws its row as one ``rng.binomial(counts, means)`` call, O(m): its
    sums have the distribution of ``sample_rewards`` on its pulls summed
    per arm, not its bits.  Up to ``SCALAR_BINOMIAL_ARMS`` arms the row is
    m scalar calls instead, the same draws without the array call's
    argument checks, which cost about ten scalar calls.  Gaussian and
    noiseless jobs go in blocks of about ``DRAW_BLOCK`` pulls
    (``_block_sums``), slices of their rows.  Each job draws on its own
    generator only, so its sums do not depend on the other jobs.
    """
    bernoulli = [instance.bernoulli for instance, _ in jobs]
    if not any(bernoulli):
        sums = np.empty(counts.shape)
        step = max(1, DRAW_BLOCK // max(1, int(counts.sum(axis=1).max())))
        for a in range(0, len(jobs), step):
            b = a + step
            sums[a:b] = _block_sums(jobs[a:b], counts[a:b], ids[a:b])
        return sums
    means = _gather([instance for instance, _ in jobs], "means", ids)
    few = counts.shape[1] <= SCALAR_BINOMIAL_ARMS
    rows = zip(counts.tolist(), means.tolist()) if few else zip(counts, means)
    drawn = [list(map(rng.binomial, c, mu)) if few else rng.binomial(c, mu)
             for (instance, rng), (c, mu) in zip(jobs, rows) if instance.bernoulli]
    if len(drawn) == len(jobs):  # the rows as one array
        return np.array(drawn, dtype=float)
    kinds = np.array(bernoulli)  # a mixed stage: its Gaussian rows go in blocks
    sums = np.empty(counts.shape)
    sums[kinds] = drawn
    sums[~kinds] = _stage_sums([job for job, kind in zip(jobs, bernoulli) if not kind],
                               counts[~kinds], ids[~kinds])
    return sums


def _block_sums(jobs: list, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-arm reward sums of Gaussian or noiseless jobs, given their
    (G, m) pull counts and active ids.

    Each job, in order, fills its slice of one work array (a view of the
    kept buffer, ``_DrawBuffers``) with one ``rng.standard_normal(out=...)``
    call, its pulls in the order ``explore`` pulls them, each arm's pulls
    contiguous; each run of consecutive jobs of one noise variance is then
    scaled by its sigma with one multiply, and a noiseless job's slice is
    -0.0, which adds exactly: the noise bits of ``sample_rewards``, job by
    job.  The means are one ``_gather`` repeated per pull and added in
    place, and one offset ``np.bincount`` adds each arm's rewards in draw
    order, as a lone job's bincount does.  So a job's sums are those of
    ``sample_rewards`` on its pulls summed by ``np.bincount``, bit for bit.
    """
    m = counts.shape[1]
    flat = counts.ravel()
    ends = np.cumsum(flat)  # where each arm's pulls end, and each job's
    draws = _BUFFERS.take(int(ends[-1]))
    lo, runs = 0, [(0, None)]  # (first pull, variance) of each run of jobs
    for (instance, rng), hi in zip(jobs, ends[m - 1::m].tolist()):
        if instance.noise_sigma2 != runs[-1][1]:
            runs.append((lo, instance.noise_sigma2))
        if instance.noise_sigma2 == 0.0:
            draws[lo:hi] = -0.0
        else:
            rng.standard_normal(out=draws[lo:hi])
        lo = hi
    for (a, sigma2), (b, _) in zip(runs[1:], runs[2:] + [(lo, None)]):
        if sigma2 != 0.0:
            draws[a:b] *= math.sqrt(sigma2)
    draws += np.repeat(_gather([job[0] for job in jobs], "means", ids), flat)
    sums = np.bincount(np.repeat(np.arange(flat.size), flat),
                       weights=draws, minlength=flat.size)
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
    of one.  Raises ``ConfigurationError`` unless eta is finite and above
    1, as ``GseConfig`` does, and there is one estimate per active arm.
    """
    _check_eta(eta)
    m = len(active_ids)
    mu_hat = np.asarray(mu_hat)
    if mu_hat.shape != (m,):
        raise ConfigurationError("one estimate per active arm required")
    (survivors,) = eliminate_stack(np.array([active_ids]), mu_hat[None],
                                   _ceil_div(m, eta))
    return tuple(survivors.tolist())


def eliminate_stack(ids: np.ndarray, mu_hat: np.ndarray, keep: int) -> np.ndarray:
    """``eliminate`` of each row of (G, m) active ids and estimates, keeping
    ``keep`` arms per row: one stacked ``np.lexsort``.  Returns the (G,
    keep) survivors, each row in ascending order."""
    order = np.lexsort((ids, -mu_hat))  # primary: highest mean; then lowest id
    return np.sort(ids[np.arange(len(ids))[:, None], order[:, :keep]], axis=1)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _estimate(model: str, plans: list, sums: np.ndarray, counts: np.ndarray,
              saturated: np.ndarray) -> tuple[np.ndarray, dict]:
    """The (G, m) estimated means of a stage group's jobs, which fit
    ``model``, from their (G, m) reward sums and pull counts, and a dict
    from each unsaturated row g to its fit's (converged, iterations,
    fellback) or the package error that ends its job.  Saturated rows take
    S_i / c_i.  The others, whose ``plans[g]`` are (block, row) pairs, are
    fitted as one stack per block; an item whose logistic fit fails falls
    back to least squares."""
    mu_hat = np.divide(sums, counts, out=np.zeros_like(sums),
                       where=saturated[:, None])
    fits: dict = {}
    unsaturated = defaultdict(list)  # block -> rows
    for g in np.flatnonzero(~saturated).tolist():
        unsaturated[plans[g][0]].append(g)
    for block, rows in unsaturated.items():
        arms = block.projected.take([plans[g][1] for g in rows], axis=0)
        y, c = sums[rows], counts[rows]
        fitted = (irls_glm_stack(arms, y, c, LOGISTIC) if model == "logistic"
                  else least_squares_stack(arms, y, c))
        # items whose logistic fit diverged are fitted by least squares
        back = [k for k, f in enumerate(fitted)
                if isinstance(f, EstimationFailureError)]
        if back:
            for k, f in zip(back, least_squares_stack(arms[back], y[back], c[back])):
                fitted[k] = f
        by_link = defaultdict(list)  # fell back -> items fitted
        for k, f in enumerate(fitted):
            if isinstance(f, FbbaiError):
                fits[rows[k]] = f
            else:
                by_link[k in back].append(k)
        for fellback, items in by_link.items():
            link = LOGISTIC if model == "logistic" and not fellback else None
            mu_hat[[rows[k] for k in items]] = mean_estimates_stack(
                np.array([fitted[k].theta_hat for k in items]), arms[items], link)
            for k in items:
                fits[rows[k]] = (fitted[k].converged, fitted[k].iterations, fellback)
    return mu_hat, fits


def gse_lockstep(jobs: Sequence[tuple[BanditInstance, GseConfig, np.random.Generator]],
                 *, traces: bool = True) -> list[Union[RunResult, FbbaiError]]:
    """Run successive elimination on every (instance, config, rng) job, the
    jobs of each run in lockstep, stage by stage; one result per job, in
    order.

    The jobs of one run (stage sizes K -> 1, stage budget n, strategy,
    fit model) step through its stages together, in one loop over
    ``zip(sizes, sizes[1:])``, as a cohort of arrays: job indices, (G, m)
    active ids and inherit flags.  Each stage is one pass: the cohort
    splits by its inherit flag, and each group has the plans of its jobs
    built at once, as stacks (``_plan_stages``): jobs of one instance that
    ask for one key share its plan row, and a key holds its instance, so
    jobs of different instances never share one.  A group that inherits
    saturation asks for no plan unless its traces need them, and pulls
    with its one ``_inherited_counts`` row.  The group draws
    (``_stage_sums``), estimates and is cut (``eliminate_stack``)
    together, and its survivors rejoin the cohort.  Every stage's counts
    sum to n, so a finished run's ``total_pulls`` is n times its stage
    count.  A job draws from its own generator, in the order a lone run
    draws, and every stacked step gives it the bits of its lone
    computation, so its result does not depend on the other jobs.  A
    package error ends only the job that raised it and takes the place of
    its result.  With ``traces=False`` no ``StageTrace`` is built and
    every result's ``traces`` is ``()``; nothing else changes.

    Strategy ``static`` is the single-stage baseline: one G-optimal
    allocation of the whole budget and one least-squares fit, i.e. this
    loop with eta = K, which keeps only the top arm.
    """
    results: list = [None] * len(jobs)
    runs = defaultdict(list)  # (stage sizes K -> 1, n, strategy, model) -> jobs
    for j, (instance, config, _) in enumerate(jobs):
        strategy, model, eta = config.strategy, config.model, config.eta
        if strategy == "static":
            strategy, model, eta = "fw-g", "linear", float(instance.n_arms)
        try:
            schedule = stage_schedule(instance.n_arms, eta, config.budget)
        except FbbaiError as exc:
            results[j] = exc
            continue
        runs[schedule.sizes, schedule.per_stage_budget, strategy,
             model].append(j)
    draws = [(instance, rng) for instance, _, rng in jobs]
    trace_of: dict = defaultdict(list)  # job index -> its StageTraces
    for (sizes, n, strategy, model), js in runs.items():
        idx, inherits = np.array(js), np.zeros(len(js), dtype=bool)
        active = np.broadcast_to(np.arange(sizes[0]), (idx.size, sizes[0]))
        for t, (m, keep) in enumerate(zip(sizes, sizes[1:]), 1):
            parts = []  # (job indices, survivors, inherit flags) per group
            flags = set(inherits.tolist())
            for inherit in flags:
                mask = inherits == inherit if len(flags) > 1 else slice(None)
                group, ids = idx[mask], active[mask]
                got = []
                if traces or not inherit:
                    got = _plan_stages([
                        (draws[j][0], row, n, strategy) for j, row in zip(
                            group.tolist(), map(tuple, ids.tolist()))])
                    bad = [g for g, plan in enumerate(got)
                           if isinstance(plan, FbbaiError)]
                    if bad:
                        for g in bad:
                            results[group[g]] = got[g]
                        live = np.delete(np.arange(group.size), bad)
                        group, ids = group[live], ids[live]
                        got = [got[g] for g in live.tolist()]
                if not group.size:
                    continue
                if inherit:
                    counts = np.broadcast_to(_inherited_counts(m, n, strategy),
                                             ids.shape)
                    saturated = passed = np.ones(group.size, dtype=bool)
                else:
                    counts, saturated, passed = _plan_stacks(got)
                order = group.tolist()
                sums = _stage_sums([draws[j] for j in order], counts, ids)
                mu_hat, fits = _estimate(model, got, sums, counts, saturated)
                bad = [g for g, fit in fits.items() if isinstance(fit, FbbaiError)]
                for g in bad:
                    results[order[g]] = fits[g]
                live = np.delete(np.arange(group.size), bad) if bad else np.arange(group.size)
                kept = eliminate_stack(ids[live], mu_hat[live], keep)
                if traces:
                    for g, survivors in zip(live.tolist(), map(tuple, kept.tolist())):
                        plan = got[g][0].plan(got[g][1])
                        trace_of[order[g]].append(StageTrace(
                            t, plan.arms, plan.counts, mu_hat[g], survivors,
                            *fits.get(g, (True, 0, False)), plan.design))
                parts.append((group[live], kept, passed[live]))
            if not parts:
                break
            idx, active, inherits = map(np.concatenate, zip(*parts))
        else:  # every stage's counts sum to n
            for j, best in zip(idx.tolist(), active[:, 0].tolist()):
                results[j] = RunResult(best, best == draws[j][0].best_arm,
                                       tuple(trace_of.pop(j, ())),
                                       n * (len(sizes) - 1))
    return results


def gse_run(instance: BanditInstance, config: GseConfig,
            rng: np.random.Generator) -> RunResult:
    """Run successive elimination and recommend the single surviving arm:
    ``gse_lockstep`` on one job, raising the error that ends it."""
    return _one(gse_lockstep([(instance, config, rng)]))
