"""Replicated evaluation: seeding, parallel Monte-Carlo, presets, CSV/JSON.

Every replication derives its own random stream from (master seed, family,
variant, budget, replication index), so results are identical no matter
how replications are split across worker processes.  A chunk has NumPy's
``SeedSequence`` mix its point's words once, and each lockstep batch
finishes the hash for all its replications in one vectorized pass.
Aborted replications (any package error during a run) count as failures
and are tallied separately.

Pooled points share one process-wide pool: its workers are forked once per
worker count, reused by every later point with that count, and closed at
interpreter exit.  Each task carries all of its inputs, so parent state
patched after the first pooled call does not reach the workers.  A worker
exits by itself once the process that forked it is gone, even if that
process was killed.  A serial run never imports ``multiprocessing`` or
``concurrent.futures``: the first pooled point does.
"""

from __future__ import annotations

import atexit
import csv
import hashlib
import inspect
import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from itertools import repeat
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bounds import BoundInputs, bound_glm_gopt, bound_linear_gopt, oracle_c_min
from .errors import ConfigurationError, FbbaiError, UndefinedBoundError
from .gse import MODELS, GseConfig, gse_lockstep
from .gse import gse_run  # noqa: F401  bench/tracer.py patches this name
from .instances import BanditInstance
# FAMILIES names these, looked up when called; bench/tracer.py patches them
from .instances import (gen_adaptive_instance, gen_corner_instance,  # noqa: F401
                        gen_logistic_instance, gen_sphere_instance,
                        gen_static_instance, load_instance_csv)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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


def _check_seed(master: int) -> None:
    if not isinstance(master, Integral) or isinstance(master, bool):
        raise ConfigurationError(f"seed must be an integer, not {master!r}")
    if not 0 <= master < 2 ** 32:
        raise ConfigurationError(
            f"seed must be in [0, 2**32), not {master}")


def _point_entropy(master: int, family: str, variant: str,
                   budget: int) -> list[int]:
    """The entropy words a point's replications share; a replication's
    entropy appends its index."""
    return [int(master), _token_int(family), _token_int(variant),
            _token_int(int(budget))]


def rep_seed(master: int, family: str, variant: str, budget: int,
             rep: int) -> np.random.SeedSequence:
    """Entropy for one replication, stable across chunkings and platforms.

    The replication's streams are its ``spawn(2)`` children: the instance
    stream (``spawn_key=(0,)``) and the run stream (``spawn_key=(1,)``).
    A master seed that is not an integer in [0, 2**32) (a bool is not), a
    ``rep`` that is not a non-negative integer or a ``budget`` that is not
    an integer raises ``ConfigurationError``.
    """
    _check_seed(master)
    if not isinstance(rep, Integral) or rep < 0:
        raise ConfigurationError(
            f"rep must be a non-negative integer, not {rep!r}")
    if not isinstance(budget, Integral):
        raise ConfigurationError(f"budget must be an integer, not {budget!r}")
    return np.random.SeedSequence(
        _point_entropy(master, family, variant, budget) + [int(rep)])


# SeedSequence's hash (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): a pool of four uint32 words, filled by ``mix_entropy`` with
# the multiplier INIT_A * MULT_A**i on its i-th hashmix and read out by
# ``generate_state`` with INIT_B * MULT_B**i on its i-th word
_POOL, _MASK = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _multipliers(h: int, mult: int, n: int) -> list[int]:
    """``h`` and the ``n`` multipliers that follow it."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return out


_OUT = np.array(_multipliers(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
_STEPS = np.array(_multipliers(1, _MULT_A, _POOL), dtype=np.uint32)


def _point_pool(point: list[int]) -> tuple[np.ndarray, int]:
    """NumPy's pool of ``SeedSequence(point)`` and the multiplier its hash
    has reached: ``mix_entropy`` takes ``_POOL`` steps per word when the
    non-negative ints ``point`` make at least ``_POOL`` uint32 words (one
    for 0, one per started 32 bits otherwise), as a ``_point_entropy``
    always does."""
    words = sum(max(1, (int(n).bit_length() + 31) // 32) for n in point)
    h = _INIT_A * pow(_MULT_A, _POOL * words, 2 ** 32) & _MASK
    return np.random.SeedSequence(point).pool, h


def _absorb(pool: np.ndarray, h: np.ndarray,
            words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mix_entropy``'s step for one more word per row: ``words[b]`` mixed
    into each word of row b of the (n, ``_POOL``) uint32 ``pool`` with the
    row's multiplier ``h[b]``; returns the pool and the next multipliers."""
    mults = h[:, None] * _STEPS
    value = words[:, None] ^ mults[:, :-1]
    value *= mults[:, 1:]
    value ^= value >> 16
    pool = _MIX_L * pool - _MIX_R * value
    pool ^= pool >> 16
    return pool, mults[:, -1]


class _Seed(ISeedSequence):
    """A replication's ``PCG64`` seed, the four uint64 words its
    ``SeedSequence`` would generate."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for (4, np.uint64)


def _streams(pool: tuple[np.ndarray, int], reps,
             key: int) -> list[np.random.Generator]:
    """``np.random.default_rng(rep_seed(...).spawn(2)[key])`` of each
    replication in ``reps`` (non-negative ints below 2**64) of the point
    whose ``_point_pool`` is ``pool``.

    Only a replication's index words (one, or two from 2**32 up) and
    ``key`` follow the point's words in its entropy, so this restates the
    rest of ``SeedSequence``'s hash as uint32 array operations over the
    batch: the low index word, the high one for the rows that have it,
    the key and the eight output words.
    """
    reps = np.asarray(reps, dtype=np.uint64)
    start, h = pool
    pool, h = _absorb(np.tile(start, (reps.size, 1)),
                      np.full(reps.size, h, dtype=np.uint32),
                      (reps & _MASK).astype(np.uint32))
    wide = reps > _MASK
    if wide.any():
        pool[wide], h[wide] = _absorb(pool[wide], h[wide],
                                      (reps[wide] >> 32).astype(np.uint32))
    pool, _ = _absorb(pool, h, np.full(reps.size, key, dtype=np.uint32))
    state = np.tile(pool, 2) ^ _OUT[:-1]
    state *= _OUT[1:]
    state ^= state >> 16
    seeds = state.astype("<u4", copy=False).view("<u8")
    return [np.random.Generator(np.random.PCG64(_Seed(row))) for row in seeds]


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
    lockstep batches of at most ``LOCKSTEP_BATCH``, each keeping its own
    plans and building no stage traces; a generator's package error aborts
    its replication.  NumPy mixes the point's seed words once
    (``_point_pool``), and each batch seeds its replications' streams
    together from that pool (``_streams``)."""
    fixed = isinstance(task.source, BanditInstance)
    configs = {model: replace(task.config, model=model) for model in MODELS}
    successes = aborts = 0
    pool = _point_pool(_point_entropy(
        task.seed, task.family, task.spec.name, task.config.budget))
    for lo in range(task.start, task.stop, LOCKSTEP_BATCH):
        reps = range(lo, min(lo + LOCKSTEP_BATCH, task.stop))
        sources = repeat(None) if fixed else _streams(pool, reps, 0)
        jobs = []
        for rng, run in zip(sources, _streams(pool, reps, 1)):
            try:
                inst = task.source if fixed else task.source(rng)
            except FbbaiError:
                aborts += 1
                continue
            config = configs[task.spec.model or _default_model(inst)]
            jobs.append((inst, config, run))
        for result in gse_lockstep(jobs, traces=False):
            if isinstance(result, FbbaiError):
                aborts += 1
            else:
                successes += int(result.success)
    return successes, aborts


def resolve_workers(workers: Optional[int]) -> int:
    """``workers``, else the integer in FBBAI_WORKERS, else 1; at least 1.

    Raises ``ConfigurationError`` if ``workers`` is not an integer (NumPy
    integers are), or naming the variable if its value is not one.
    """
    if workers is not None:
        if not isinstance(workers, Integral):
            raise ConfigurationError(f"workers must be an integer, not {workers!r}")
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
atexit.register(_drop_pool)


def _lost_a_worker(pool: ProcessPoolExecutor) -> bool:
    # The executor exposes neither its workers nor its broken flag, and its
    # thread may not yet have seen a worker that died since the last call;
    # polling the workers finds (and reaps) a dead one at once.
    alive = all(p.is_alive() for p in pool._processes.values())
    return not alive or bool(pool._broken)


def _exit_with_owner(owner: int) -> None:
    """Pool initializer: a daemon thread ends this worker once ``owner``,
    the process that forked it, is gone (the worker is then re-parented),
    so a killed owner leaves no sleeping workers holding its pipes open."""
    def watch() -> None:
        while os.getppid() == owner:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _executor(n: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``n`` workers, started on first use.

    A kept pool of another size, or one that lost a worker since the last
    call, is shut down first and waited for, so at most one pool runs and
    new workers are forked while no pool thread is running.  Each worker
    exits on its own within about a second of its owner's death.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    global _pool
    if _pool is not None and (_pool[0] != n or _lost_a_worker(_pool[1])):
        _drop_pool()
    if _pool is None:
        _pool = (n, ProcessPoolExecutor(  # forked, so the owner is their parent
            max_workers=n, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_owner, initargs=(os.getpid(),)))
    return _pool[1]


def mc_accuracy(source: InstanceSource, variant: Union[str, VariantSpec],
                budget: int, replications: int, seed: int, *,
                family: str = "custom", eta: float = 2.0,
                workers: Optional[int] = None) -> McResult:
    """Estimate best-arm accuracy over independent replications.

    ``source`` is a fixed instance or a generator taking an rng.  Every
    replication runs ``GseConfig(budget, eta, spec.strategy)``, built once
    here, so an invalid configuration, like a seed or a replication count
    that is not an integer (a bool is not) or a seed outside [0, 2**32),
    raises ``ConfigurationError`` before any replication runs.  Its model
    is the variant's, or else resolved per instance: logistic for logistic
    GLM instances, linear otherwise.  The result does not depend on
    ``workers``.

    The replications run as a list of chunks: one chunk, run here, or,
    with two or more workers and at least two replications per worker,
    one chunk per worker, run on the kept pool of that many workers
    (forked on first use, reused across points, closed at exit); each
    task carries its inputs.
    If a worker dies during the call, ``BrokenProcessPool`` is raised and
    the next call starts a fresh pool.
    """
    if not isinstance(replications, Integral) or isinstance(replications, bool):
        raise ConfigurationError(
            f"replications must be an integer, not {replications!r}")
    if replications < 1:
        raise ConfigurationError("need at least one replication")
    _check_seed(seed)
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
    pooled = n_workers > 1 and replications >= 2 * n_workers
    bounds = np.linspace(0, replications,
                         (n_workers if pooled else 1) + 1).astype(int)
    chunks = [_Chunk(source, spec, config, seed, family, int(lo), int(hi))
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    successes = aborts = 0
    for s, a in (_pool_map(n_workers, chunks) if pooled
                 else map(_mc_chunk, chunks)):
        successes += s
        aborts += a
    return McResult(replications, successes, aborts)


def _pool_map(n: int, chunks: list) -> list[tuple[int, int]]:
    """``_mc_chunk`` of each chunk on the kept pool of ``n`` workers; a
    pool that breaks is dropped, so the next call starts a fresh one."""
    from concurrent.futures.process import BrokenProcessPool
    try:
        return list(_executor(n).map(_mc_chunk, chunks))
    except BrokenProcessPool:
        _drop_pool()
        raise


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------


# Each family's builder in this module, in the CLI's ``--family`` order
FAMILIES = {"adaptive": "gen_adaptive_instance", "static": "gen_static_instance",
            "sphere": "gen_sphere_instance", "logistic": "gen_logistic_instance",
            "corner": "gen_corner_instance", "csv": "load_instance_csv"}


def family_parameters(family: str) -> dict[str, bool]:
    """Each parameter of the family's builder, less ``rng``, in order,
    mapped to whether it is required; an unknown family raises
    ``ConfigurationError``."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}")
    return {name: p.default is p.empty for name, p in
            inspect.signature(globals()[FAMILIES[family]]).parameters.items()
            if name != "rng"}


def _generate(builder: str, params: dict,
              rng: np.random.Generator) -> BanditInstance:
    # looked up when called, so a patched name reaches earlier sources
    return globals()[builder](rng=rng, **params)


def family_source(family: str, params: dict) -> InstanceSource:
    """Fixed instance or picklable generator for a named family.

    A family takes the keyword arguments of its builder in ``FAMILIES``,
    less ``rng``; a builder that takes ``rng`` makes the family a
    generator.  Unknown or missing parameters raise ``ConfigurationError``
    before anything is built.  A generator draws one discarded instance
    from a fixed stream here, so invalid parameter values raise before any
    replication runs; the replication streams are unchanged.
    """
    takes = family_parameters(family)
    for name in params:
        if name not in takes:
            raise ConfigurationError(
                f"family {family!r} takes no parameter {name!r}")
    for name, required in takes.items():
        if required and name not in params:
            raise ConfigurationError(
                f"family {family!r} needs parameter {name!r}")
    builder = FAMILIES[family]
    if "rng" not in inspect.signature(globals()[builder]).parameters:
        return globals()[builder](**params)
    source = partial(_generate, builder, dict(params))
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
        form = bound_linear_gopt if source.model == "linear" else bound_glm_gopt
        return form(BoundInputs(K=source.n_arms, d=source.dim, eta=eta,
                                sigma2=source.noise_sigma2,
                                delta_min=source.linear_delta_min,
                                budget=budget, c_min=oracle_c_min(source)))
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
    records = [{c: None if isinstance(v := getattr(row, c), float)
                and math.isnan(v) else v for c in cols} for row in rows]
    return json.dumps(records, indent=2) + "\n"


def write_csv(path, rows, include_wall_time: bool = True) -> None:
    """Write sweep rows; wall time is excludable so outputs can be diffed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(format_csv(rows, include_wall_time))


def write_json(path, rows, include_wall_time: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(rows, include_wall_time))
