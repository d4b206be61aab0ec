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
that interlacing needs (see ``DesignCache``), the run inherits
saturation and plans no later stage; it pulls with the counts row that
every inheriting run of the same (m, n, strategy) shares, the row the
full build would give.

``gse_lockstep`` runs this one stage loop for a batch of (instance,
config, rng) jobs in lockstep, and works each stage as stacks.  The plans
the jobs lack are built together, as plan blocks: the keys of one shape
and strategy get one stacked SVD projection, Frank-Wolfe solve, rounding
and saturation test, and keep their rows stacked in a ``_PlanBlock``.  A
stage's counts and ids are one ``take`` of each block's rows, and a
``StagePlan`` is made from a row only when a trace or ``DesignCache.plan``
asks for it.  Each job then draws its stage on its own generator.  A
Bernoulli job draws each arm's sum S_i ~ Binomial(c_i, mu_i) directly,
O(m) per stage.  A Gaussian job makes one generator call for its pulls'
noise, and the rest of its draw is done once per block of jobs, a slice
of the stage's rows: the noise fills a work buffer of ``DRAW_BLOCK``
pulls that every block and stage reuses, the means of jobs of one
instance are one ``take``, and the sums come from one offset
``np.bincount``.  Saturated stages take their means S_i / c_i as one
division, unsaturated ones are fitted as one stack per model and block,
and one stacked ``np.lexsort`` makes every cut.  Every stacked kernel
gives each job the bits of its lone computation, so a job's result is
the one it gets alone.
``gse_run`` is the batch of one, and the harness runs each chunk of
replications as a few such batches, with ``traces=False``: it reads only
each run's success, so no ``StageTrace`` or ``StagePlan`` is built.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np

from .design import (Design, _design, _fw_solve, _info_matrix, _round_rows,
                     allocate_budget)
# bench/tracer.py patches these names
from .design import fw_d_optimal, fw_g_optimal  # noqa: F401
from .errors import ConfigurationError, EstimationFailureError, FbbaiError, _one
from .estimators import (COND_LIMIT, RegressionData, irls_glm_stack,
                         least_squares_stack, mean_estimates_stack)
# bench/tracer.py patches these names
from .estimators import irls_glm, least_squares, mean_estimates  # noqa: F401
from .instances import (LOGISTIC, BanditInstance, ProjectedArmSet, _project_stack,
                        draw_noise)
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
    (``_uniform_counts``).  Rounding retries a row it rejects alone
    (``allocate_budget``); a key whose budget is below d_t or whose build
    raises leaves ``keys`` for the dict ``failed``, with its error.  One
    ``np.linalg.cond`` of the rows' V gives both flags: ``saturated``
    (m = d_t and cond(V) < ``COND_LIMIT``) and ``inherit`` (saturated,
    cond(V) <= ``INHERIT_COND`` and counts within a factor 2; see
    ``DesignCache``).  ``plan`` makes a row's ``StagePlan`` on request,
    once.
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
            *design, errors = DesignCache.design(projected)
            bad = {**errors, **bad}
            counts, short = _round_rows(n, design[0])
            for b in short:
                if b not in bad:
                    try:
                        counts[b] = allocate_budget(int(n[b]), _design(design, b),
                                                    projected[b])
                    except FbbaiError as exc:
                        bad[b] = exc
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
        self.projected, self.basis, self.plans = projected, basis, {}

    def plan(self, row: int) -> StagePlan:
        if row not in self.plans:
            arms = ProjectedArmSet(self.projected[row], self.basis[row],
                                   tuple(self.ids[row].tolist()))
            design = _design(self.design, row) if self.design else None
            self.plans[row] = StagePlan(arms, self.counts[row], design,
                                        bool(self.saturated[row]))
        return self.plans[row]


class DesignCache:
    """Memo of stage plans keyed by (instance, active ids, stage budget,
    strategy): a stage fixes its projection, design and rounding before it
    sees a reward, so runs of one instance or of many can share a cache.
    Each key maps to its row of a ``_PlanBlock``.

    A run whose stage was saturated with cond(V) <= ``INHERIT_COND`` =
    sqrt(``COND_LIMIT``) and counts within a factor 2 inherits saturation:
    ``gse_lockstep`` builds no later plan for it, and each later stage
    pulls with the counts row ``_inherited_counts(m, n, strategy)`` that
    every such run shares.  That is exactly what the full build gives:
    - the later active arms X_sub are rows of that stage's X, and their
      Gram matrix X_sub X_sub' is a principal submatrix of X X', so the
      eigenvalues interlace and cond(X_sub) <= cond(X);
    - with counts in a factor r of each other, cond(X)^2 <= r cond(V),
      and the later counts are within a factor 2 too, so
      cond(V_sub) <= 2 * 2 * cond(V) <= 4e6;
    - so the full build finds rank m = d_t, certifies Frank-Wolfe at its
      iteration 0 with weights 1.0 / m (uniform g is m exactly, and its
      computed value is within about 1e-8 of m against the 1% tolerance),
      rounds them to ``_inherited_counts``'s row, and passes the 1e12
      condition test: the same counts and the same ``saturated`` flag.
    Traced runs inherit too, but still ask for their full plans, built as
    stacks, which their ``StageTrace`` shows.
    """

    def __init__(self) -> None:
        self._plans: dict = {}

    def plan(self, instance: BanditInstance, ids: tuple[int, ...], n: int,
             strategy: str) -> StagePlan:
        """The plan of ``n`` pulls on the arm ids ``ids``; raises
        ``ConfigurationError`` for non-integers, a strategy outside
        ``STRATEGIES`` or ``n`` below their span dimension."""
        if not all(isinstance(i, Integral) for i in (*ids, n)):
            raise ConfigurationError(f"arm ids and n must be integers, not {ids}, {n}")
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"strategy {strategy!r} not one of {STRATEGIES}")
        ids = tuple(int(i) for i in ids)
        block, row = _one(_plan_stages(self, [(instance, ids, int(n), strategy)]))
        return block.plan(row)

    @staticmethod
    def design(arms: np.ndarray) -> tuple:
        # a method of its own because bench/tracer.py times it as
        # design.cache; called on the class, which the tracer's patch keeps
        return _fw_solve(arms)


def _plan_stages(cache: DesignCache, keys: Sequence[tuple],
                 ) -> list[Union[tuple[_PlanBlock, int], FbbaiError]]:
    """The (block, row) plan of each (instance, ids, n, strategy) key, from
    ``cache``; ``ids`` is a tuple of ints.

    The keys the cache lacks are built once each, as stacks: those of one
    (m, d) shape and strategy are gathered (``_gather``) and projected onto
    their span by one stacked SVD, and each span dimension d_t makes one
    ``_PlanBlock``.  Every stacked kernel gives each key the bits of its
    lone computation.  A key whose build raises gets its error, which is
    not stored.
    """
    plans = cache._plans
    failed: dict = {}
    by_shape = defaultdict(list)  # (m, d, uniform) -> keys to build
    for key in dict.fromkeys(keys):
        if key not in plans:
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
            failed.update(block.failed)
        failed.update((group[b], exc) for b, exc in errors.items())
    return [plans.get(key) or failed[key] for key in keys]


INHERIT_COND = math.sqrt(COND_LIMIT)  # cond(V) up to which saturation is inherited


@lru_cache(maxsize=256)  # every inheriting run of a point asks for a few
def _inherited_counts(m: int, n: int, strategy: str) -> np.ndarray:
    """The read-only counts row of n pulls on the m active arms of a run
    that inherits saturation (see ``DesignCache``): ``_round_rows`` of
    weights 1.0 / m, the G-design of m independent arms, for fw-g, and
    ``_uniform_counts`` for uniform, whose remainder pulls go to the
    lowest active ids, here the first m positions, since a run's active
    ids are ascending."""
    if strategy == "uniform":
        counts = _uniform_counts(np.array([n]), np.arange(m)[None])[0]
    else:
        counts = _round_rows(np.array([n]), np.full((1, m), 1.0 / m))[0][0]
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

    A Bernoulli instance draws each active arm's reward sum as one
    Binomial(c_i, mu_i) variate, in active-arm order.  Gaussian
    pulls are drawn in active-arm order, each arm's pulls contiguous, one
    reward per pull.  Either way a run is reproducible from (instance,
    config, seed) alone.  The returned data has one row per active arm:
    its projected features, its reward sum and its pull count.  This is
    ``_stage_sums`` on a stack of one.
    """
    (sums,) = _stage_sums([(instance, rng)], plan.counts[None],
                          np.array([plan.arms.original_ids]))
    return RegressionData(xs=plan.arms.projected, ys=sums, counts=plan.counts)


def _plan_stacks(plans: Sequence[tuple[_PlanBlock, int]],
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (G, m) pull counts and active ids and the (G,) saturation flags
    of (block, row) plans that share an active-set size m: one ``take`` of
    each block's rows, and a stage's jobs nearly always share one block."""
    jobs = defaultdict(list)  # block -> the jobs of its rows, in order
    for g, (block, _) in enumerate(plans):
        jobs[block].append(g)
    parts = [tuple(a.take([plans[g][1] for g in js], axis=0)
                   for a in (block.counts, block.ids, block.saturated))
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
    sums = np.empty(counts.shape)
    if not any(bernoulli):
        step = max(1, DRAW_BLOCK // max(1, int(counts.sum(axis=1).max())))
        for a in range(0, len(jobs), step):
            b = a + step
            sums[a:b] = _block_sums(jobs[a:b], counts[a:b], ids[a:b])
        return sums
    means = _gather([instance for instance, _ in jobs], "means", ids)
    few = counts.shape[1] <= SCALAR_BINOMIAL_ARMS
    rows = zip(counts.tolist(), means.tolist()) if few else zip(counts, means)
    for g, ((_, rng), (c, mu)) in enumerate(zip(jobs, rows)):
        if bernoulli[g]:
            sums[g] = list(map(rng.binomial, c, mu)) if few else rng.binomial(c, mu)
    if not all(bernoulli):  # a mixed stage: its Gaussian rows go in blocks
        gauss = [g for g, kind in enumerate(bernoulli) if not kind]
        sums[gauss] = _stage_sums([jobs[g] for g in gauss], counts[gauss],
                                  ids[gauss])
    return sums


def _block_sums(jobs: list, counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-arm reward sums of Gaussian or noiseless jobs, given their
    (G, m) pull counts and active ids.

    Each job, in order, makes its one ``draw_noise`` call for its pulls,
    which go in the order ``explore`` pulls: active arms in turn, each
    arm's pulls contiguous.  The draws fill the job's slice of one work
    array in place, a view of the kept buffer (``_DrawBuffers``).  The
    rest is done once for the block: the arms' means are one ``_gather``
    repeated per pull, added to the noise in place, and the rewards are
    summed by one offset ``np.bincount``, which adds each arm's rewards in
    draw order as a bincount of one job alone does; a noiseless job's
    noise is -0.0, which adds exactly.  So a job's sums are those of
    ``sample_rewards`` on its pulls, summed by ``np.bincount``, bit for
    bit.
    """
    m = counts.shape[1]
    flat = counts.ravel()
    ends = np.cumsum(flat)  # where each arm's pulls end, and each job's
    draws = _BUFFERS.take(int(ends[-1]))
    lo = 0
    for (instance, rng), hi in zip(jobs, ends[m - 1::m].tolist()):
        draw_noise(instance, draws[lo:hi], rng)
        lo = hi
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


def _estimate(group: list, sums: np.ndarray, counts: np.ndarray,
              saturated: np.ndarray) -> tuple[np.ndarray, list]:
    """The (G, m) estimated means of a stage group's (run, plan) jobs, from
    their (G, m) reward sums and pull counts, and one entry per job: its
    fit's (converged, iterations, fellback), or the package error that ends
    it.  Saturated jobs take S_i / c_i and (True, 0, False).  The others,
    whose plans are (block, row) pairs, are fitted as one stack per model
    and block; an item whose logistic fit fails falls back to least
    squares."""
    mu_hat = np.divide(sums, counts, out=np.zeros_like(sums),
                       where=saturated[:, None])
    fits: list = [(True, 0, False)] * len(group)
    unsaturated = defaultdict(list)  # (model, block) -> rows
    for g in np.flatnonzero(~saturated).tolist():
        run, (block, _) = group[g]
        unsaturated[run.config.model, block].append(g)
    for (model, block), rows in unsaturated.items():
        arms = block.projected.take([group[g][1][1] for g in rows], axis=0)
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
    inherits: bool = False  # saturation, from the next stage on (DesignCache)


Job = tuple[BanditInstance, GseConfig, np.random.Generator]


def gse_lockstep(jobs: Sequence[Job], cache: Optional[DesignCache] = None, *,
                 traces: bool = True) -> list[Union[RunResult, FbbaiError]]:
    """Run successive elimination on every (instance, config, rng) job, all
    jobs in lockstep, stage by stage; one result per job, in order.

    Each stage looks up the plans of all live jobs at once
    (``_plan_stages``), which builds the missing ones as stacks; a job
    that inherits saturation (see ``DesignCache``) pulls with its shared
    ``_inherited_counts`` row and asks for no plan, unless its trace needs
    one.  The jobs whose stages keep the same number of arms out of the
    same number, and that inherit or do not, then draw (``_stage_sums``),
    estimate and are cut (``eliminate_stack``) together.  Each job draws
    from its own generator, in the order a lone run draws, and every
    stacked step gives it the bits of its lone computation, so its result
    does not depend on the other jobs.  The
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
        # with traces, inheriting runs ask too: their traces show full plans
        asked = [run for run in runs if traces or not run.inherits]
        plans = dict(zip([run.slot for run in asked], _plan_stages(
            cache, [(run.instance, run.active, run.schedule.per_stage_budget,
                     run.config.strategy) for run in asked])))
        # (m, arms kept, inherits) -> (run, (block, row)), or for a run that
        # inherits saturation (run, its shared counts row)
        stage = defaultdict(list)
        for run in runs:
            if run.inherits:
                plan = _inherited_counts(len(run.active),
                                         run.schedule.per_stage_budget,
                                         run.config.strategy)
            elif isinstance(plan := plans[run.slot], FbbaiError):
                results[run.slot] = plan
                continue
            sizes = run.schedule.sizes
            stage[sizes[t - 1], sizes[t], run.inherits].append((run, plan))
        live = []
        for (_, keep, inherits), group in stage.items():
            if inherits:
                counts = np.array([plan for _, plan in group])
                ids = np.array([run.active for run, _ in group])
                saturated = np.ones(len(group), dtype=bool)
            else:
                counts, ids, saturated = _plan_stacks([plan for _, plan in group])
            sums = _stage_sums([(run.instance, run.rng) for run, _ in group],
                               counts, ids)
            mu_hat, fits = _estimate(group, sums, counts, saturated)
            pulls = counts.sum(axis=1).tolist()
            rows = []
            for g, fit in enumerate(fits):
                if isinstance(fit, FbbaiError):
                    results[group[g][0].slot] = fit
                else:
                    rows.append(g)
            survivors = eliminate_stack(ids[rows], mu_hat[rows], keep)
            for g, kept in zip(rows, survivors):
                run, plan = group[g]
                run.active = tuple(kept)
                run.pulls += pulls[g]
                if not inherits:
                    run.inherits = bool(plan[0].inherit[plan[1]])
                if traces:  # fits[g] is (converged, iterations, fellback)
                    block, row = plans[run.slot]
                    plan = block.plan(row)
                    run.traces.append(StageTrace(t, plan.arms, plan.counts, mu_hat[g],
                                                 run.active, *fits[g], plan.design))
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
    return _one(gse_lockstep([(instance, config, rng)], cache))
