"""Replicated evaluation: seeding, parallel Monte-Carlo, presets, CSV/JSON.

Every replication derives its own random stream from (master seed, family,
variant, budget, replication index), so results are identical no matter
how replications are split across worker processes.  Aborted replications
(any package error during a run) count as failures and are tallied
separately.

Pooled points share one process-wide pool: its workers are forked once per
worker count, reused by every later point with that count, and closed at
interpreter exit.  Each task carries all of its inputs, so parent state
patched after the first pooled call does not reach the workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .bounds import BoundInputs, bound_glm_gopt, bound_linear_gopt, oracle_c_min
from .errors import ConfigurationError, FbbaiError, UndefinedBoundError
from .gse import MODELS, DesignCache, GseConfig, gse_lockstep
from .gse import gse_run  # noqa: F401  bench/tracer.py patches this name
from .instances import (BanditInstance, gen_adaptive_instance,
                        gen_corner_instance, gen_logistic_instance,
                        gen_sphere_instance, gen_static_instance,
                        load_instance_csv)

InstanceSource = Union[BanditInstance, Callable[[np.random.Generator], BanditInstance]]

WORKERS_ENV = "FBBAI_WORKERS"


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """Named algorithm configuration: allocation strategy plus fit model.

    A None model defers to the instance: logistic for logistic-mean GLM
    instances, linear otherwise.  A concrete model is deliberate, e.g. a
    misspecified linear fit on logistic rewards.
    """

    name: str
    strategy: str
    model: Optional[str] = None


VARIANTS: dict[str, VariantSpec] = {
    "gse-uniform": VariantSpec("gse-uniform", "uniform"),
    "gse-fwg": VariantSpec("gse-fwg", "fw-g"),
    "gse-fwd": VariantSpec("gse-fwd", "fw-g"),  # the G-design on its own seeds
    "gse-fwg-linear": VariantSpec("gse-fwg-linear", "fw-g", "linear"),
    "gse-fwg-logistic": VariantSpec("gse-fwg-logistic", "fw-g", "logistic"),
    "static-gopt": VariantSpec("static-gopt", "static", "linear"),
}


def _default_model(instance: BanditInstance) -> str:
    if instance.model == "glm" and instance.mean_fn.name == "logistic":
        return "logistic"
    return "linear"


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _token_int(token: object) -> int:
    digest = hashlib.sha256(repr(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _point_entropy(master: int, family: str, variant: str,
                   budget: int) -> list[int]:
    """The entropy words a point's replications share; a replication's
    entropy appends its index."""
    return [int(master) & 0xFFFFFFFF, _token_int(family), _token_int(variant),
            _token_int(int(budget))]


def rep_seed(master: int, family: str, variant: str, budget: int,
             rep: int) -> np.random.SeedSequence:
    """Entropy for one replication, stable across chunkings and platforms.

    The replication's streams are its ``spawn(2)`` children: the instance
    stream (``spawn_key=(0,)``) and the run stream (``spawn_key=(1,)``).
    """
    return np.random.SeedSequence(
        _point_entropy(master, family, variant, budget) + [int(rep)])


def _stream(entropy: list[int], key: int) -> np.random.Generator:
    """``np.random.default_rng(rep_seed(...).spawn(2)[key])`` of the
    replication with this entropy, built without its parent."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy, spawn_key=(key,))))


# ---------------------------------------------------------------------------
# Monte-Carlo core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McResult:
    """Tally of one Monte-Carlo point."""

    replications: int
    successes: int
    aborts: int

    @property
    def accuracy(self) -> float:
        return self.successes / self.replications

    @property
    def stderr(self) -> float:
        p = self.accuracy
        return math.sqrt(p * (1.0 - p) / self.replications)


@dataclass(frozen=True)
class _Chunk:
    """Replications [start, stop) of one point; without ``spec.model``,
    ``config.model`` is a placeholder resolved per instance."""

    source: InstanceSource
    spec: VariantSpec
    config: GseConfig
    seed: int
    family: str
    start: int
    stop: int


LOCKSTEP_BATCH = 1000  # replications per gse_lockstep call: bounds a chunk's memory


def _mc_chunk(task: _Chunk) -> tuple[int, int]:
    """Tally replications [start, stop) of a point, run as successive
    lockstep batches of at most ``LOCKSTEP_BATCH``; a fixed instance's
    batches share one design cache, a generator's keep plans for one batch
    only, and a generator's package error aborts its replication."""
    fixed = isinstance(task.source, BanditInstance)
    cache = DesignCache() if fixed else None
    configs = {model: replace(task.config, model=model) for model in MODELS}
    successes = aborts = 0
    point = _point_entropy(task.seed, task.family, task.spec.name,
                           task.config.budget)
    for lo in range(task.start, task.stop, LOCKSTEP_BATCH):
        jobs = []
        for r in range(lo, min(lo + LOCKSTEP_BATCH, task.stop)):
            entropy = point + [r]
            try:
                inst = task.source if fixed else task.source(_stream(entropy, 0))
            except FbbaiError:
                aborts += 1
                continue
            config = configs[task.spec.model or _default_model(inst)]
            jobs.append((inst, config, _stream(entropy, 1)))
        for result in gse_lockstep(jobs, cache):
            if isinstance(result, FbbaiError):
                aborts += 1
            else:
                successes += int(result.success)
    return successes, aborts


def resolve_workers(workers: Optional[int]) -> int:
    """``workers``, else the integer in FBBAI_WORKERS, else 1; at least 1.

    Raises ``ConfigurationError`` naming the variable if its value is not
    an integer.
    """
    if workers is not None:
        return max(1, int(workers))
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, not {raw!r}") from None


_pool: Optional[tuple[int, ProcessPoolExecutor]] = None  # (workers, pool)


def _drop_pool() -> None:
    """Shut the kept pool down, waiting for its workers to exit."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _forget_pool() -> None:
    """In a forked child the parent's pool is not ours to use or close."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _lost_a_worker(pool: ProcessPoolExecutor) -> bool:
    # The executor exposes neither its workers nor its broken flag, and its
    # thread may not yet have seen a worker that died since the last call;
    # polling the workers finds (and reaps) a dead one at once.
    alive = all(p.is_alive() for p in pool._processes.values())
    return not alive or bool(pool._broken)


def _executor(n: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``n`` workers, started on first use.

    A kept pool of another size, or one that lost a worker since the last
    call, is shut down first and waited for, so at most one pool runs and
    new workers are forked while no pool thread is running.
    """
    global _pool
    if _pool is not None and (_pool[0] != n or _lost_a_worker(_pool[1])):
        _drop_pool()
    if _pool is None:
        _pool = (n, ProcessPoolExecutor(max_workers=n))
    return _pool[1]


def mc_accuracy(source: InstanceSource, variant: Union[str, VariantSpec],
                budget: int, replications: int, seed: int, *,
                family: str = "custom", eta: float = 2.0,
                workers: Optional[int] = None) -> McResult:
    """Estimate best-arm accuracy over independent replications.

    ``source`` is a fixed instance or a generator taking an rng; fixed
    instances share one design cache per worker.  Every replication runs
    ``GseConfig(budget, eta, spec.strategy)``, built once here, so an
    invalid configuration raises ``ConfigurationError`` before any
    replication runs.  Its model is the variant's, or else resolved per
    instance: logistic for logistic GLM instances, linear otherwise.  The
    result does not depend on ``workers``.

    With two or more workers and at least two replications per worker, the
    chunks run on the kept pool of that many workers (forked on first use,
    reused across points, closed at exit); each task carries its inputs.
    If a worker dies during the call, ``BrokenProcessPool`` is raised and
    the next call starts a fresh pool.
    """
    if replications < 1:
        raise ConfigurationError("need at least one replication")
    if isinstance(variant, str):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
        spec = VARIANTS[variant]
    else:
        spec = variant
    config = GseConfig(budget, eta, spec.strategy,
                       model=spec.model or "linear")
    n_workers = resolve_workers(workers)

    def chunk(start: int, stop: int) -> _Chunk:
        return _Chunk(source, spec, config, seed, family, start, stop)

    if n_workers == 1 or replications < 2 * n_workers:
        successes, aborts = _mc_chunk(chunk(0, replications))
        return McResult(replications, successes, aborts)
    bounds = np.linspace(0, replications, n_workers + 1).astype(int)
    successes = aborts = 0
    try:
        for s, a in _executor(n_workers).map(
                _mc_chunk, [chunk(int(lo), int(hi))
                            for lo, hi in zip(bounds[:-1], bounds[1:])]):
            successes += s
            aborts += a
    except BrokenProcessPool:
        _drop_pool()
        raise
    return McResult(replications, successes, aborts)


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------


def _gen_sphere(rng: np.random.Generator, K: int, d: int,
                **kw) -> BanditInstance:
    return gen_sphere_instance(K, d, rng, **kw)


def _gen_logistic(rng: np.random.Generator, K: int, d: int) -> BanditInstance:
    return gen_logistic_instance(K, d, rng)


def _gen_corner(rng: np.random.Generator, K: int, **kw) -> BanditInstance:
    return gen_corner_instance(K, rng, **kw)


def family_source(family: str, params: dict) -> InstanceSource:
    """Fixed instance or picklable generator for a named family.

    The ``csv`` family takes the keyword arguments of ``load_instance_csv``.
    A generator draws one discarded instance from a fixed stream here, so
    invalid parameters raise before any replication runs; the replication
    streams are unchanged.
    """
    if family == "adaptive":
        return gen_adaptive_instance(**params)
    if family == "static":
        return gen_static_instance(**params)
    if family == "csv":
        return load_instance_csv(**params)
    generators = {"sphere": _gen_sphere, "logistic": _gen_logistic,
                  "corner": _gen_corner}
    if family not in generators:
        raise ConfigurationError(f"unknown family {family!r}")
    source = partial(generators[family], **params)
    source(np.random.default_rng(0))
    return source


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One (instance family setting, variant, budget) cell of a sweep."""

    family_label: str
    family: str
    params: dict
    param_name: str
    param_value: float
    variant: str
    budget: int
    eta: float = 2.0


@dataclass(frozen=True)
class SweepRow:
    """One output record; its fields, in order, are the CSV_COLUMNS."""

    family: str
    variant: str
    param_name: str
    param_value: float
    R: int
    successes: int
    accuracy: float
    stderr: float
    bound_delta: float
    aborts: int
    wall_time_s: float


CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    name: str
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class Preset:
    name: str
    default_replications: int
    points: tuple[SweepPoint, ...]


def _build_presets() -> dict[str, Preset]:
    presets: dict[str, Preset] = {}
    trend_variants = ("gse-uniform", "gse-fwg", "gse-fwd", "static-gopt")

    pts = [SweepPoint("adaptive", "adaptive", {"d": 9}, "budget", float(B), v, B)
           for B in (300, 400, 500, 600) for v in trend_variants]
    presets["adaptive"] = Preset("adaptive", 1000, tuple(pts))

    pts = [SweepPoint("static", "static", {"delta": delta}, "delta", delta, v, 320)
           for delta in (0.5, 1.0, 2.0, 4.0, 8.0) for v in trend_variants]
    presets["static"] = Preset("static", 1000, tuple(pts))

    pts = [SweepPoint("sphere", "sphere", {"K": K, "d": 10}, "K", float(K),
                      v, 40 * K)
           for K in (8, 16, 32) for v in trend_variants]
    presets["sphere"] = Preset("sphere", 1000, tuple(pts))

    pts = [SweepPoint(f"logistic-d{d}", "logistic", {"K": 8, "d": d},
                      "budget_per_arm", float(bpa), v, 8 * bpa)
           for d in (5, 7, 10, 12) for bpa in (25, 50, 100)
           for v in ("gse-fwg", "gse-fwg-linear")]
    presets["logistic"] = Preset("logistic", 1000, tuple(pts))

    pts = [SweepPoint("corner", "corner", {"K": 10}, "budget", float(B), v, B)
           for B in (40, 80, 160, 320)
           for v in ("gse-uniform", "gse-fwg", "static-gopt")]
    presets["corner"] = Preset("corner", 1000, tuple(pts))
    return presets


PRESETS = _build_presets()


def bound_for_source(source: InstanceSource, budget: int,
                     eta: float) -> float:
    """Closed-form error bound for a fixed instance; NaN when undefined.

    Randomized families have no single bound value, so generators give NaN.
    """
    if not isinstance(source, BanditInstance):
        return float("nan")
    try:
        if source.model == "linear":
            inputs = BoundInputs(K=source.n_arms, d=source.dim, eta=eta,
                                 sigma2=source.noise_sigma2,
                                 delta_min=source.delta_min, budget=budget)
            return bound_linear_gopt(inputs)
        inputs = BoundInputs(K=source.n_arms, d=source.dim, eta=eta,
                             sigma2=source.noise_sigma2,
                             delta_min=source.linear_delta_min, budget=budget,
                             c_min=oracle_c_min(source))
        return bound_glm_gopt(inputs)
    except UndefinedBoundError:
        return float("nan")


def run_point(point: SweepPoint, replications: int, seed: int,
              workers: Optional[int] = None) -> SweepRow:
    source = family_source(point.family, point.params)
    start = time.perf_counter()
    res = mc_accuracy(source, point.variant, point.budget, replications, seed,
                      family=point.family_label, eta=point.eta,
                      workers=workers)
    wall = time.perf_counter() - start
    return SweepRow(family=point.family_label, variant=point.variant,
                    param_name=point.param_name, param_value=point.param_value,
                    R=replications, successes=res.successes,
                    accuracy=res.accuracy, stderr=res.stderr,
                    bound_delta=bound_for_source(source, point.budget, point.eta),
                    aborts=res.aborts, wall_time_s=wall)


def run_preset(name: str, replications: Optional[int] = None, seed: int = 0,
               workers: Optional[int] = None) -> SweepResult:
    """Run every point of a named preset."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    preset = PRESETS[name]
    R = preset.default_replications if replications is None else replications
    rows = tuple(run_point(p, R, seed, workers) for p in preset.points)
    return SweepResult(name=name, rows=rows)


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def format_csv(rows, include_wall_time: bool = True) -> str:
    cols = CSV_COLUMNS if include_wall_time else CSV_COLUMNS[:-1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, c)) for c in cols])
    return buf.getvalue()


def format_json(rows, include_wall_time: bool = True) -> str:
    cols = CSV_COLUMNS if include_wall_time else CSV_COLUMNS[:-1]
    records = []
    for row in rows:
        rec = {}
        for c in cols:
            v = getattr(row, c)
            if isinstance(v, float) and math.isnan(v):
                v = None
            rec[c] = v
        records.append(rec)
    return json.dumps(records, indent=2) + "\n"


def write_csv(path, rows, include_wall_time: bool = True) -> None:
    """Write sweep rows; wall time is excludable so outputs can be diffed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(format_csv(rows, include_wall_time))


def write_json(path, rows, include_wall_time: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(rows, include_wall_time))


def read_csv(path) -> list[dict]:
    """Read a sweep CSV back into dicts of strings (as written)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
