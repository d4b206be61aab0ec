"""Per-layer tracing installed from outside the package.

``install`` replaces the public functions that ``fbbai.harness``,
``fbbai.gse`` and ``fbbai.cli`` call with timing wrappers, at the name each
caller looks up, and ``uninstall`` puts the originals back.  A wrapper
records one span per call: its duration, the time its child spans covered,
and counts read from its arguments or result.  Spans are folded into
per-layer totals as they close, so nothing is written while a point runs.

Pool workers are forked from the traced process and inherit the wrappers.
A worker resets its totals when a chunk starts and, when the chunk ends,
sends them with the chunk's duration over a pipe that the parent drains
after each ``mc_accuracy`` call.  The payload is a few kilobytes, well
under the pipe buffer, so a worker never blocks on it.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import Counter, defaultdict

import fbbai.cli as cli
import fbbai.gse as gse
import fbbai.harness as harness
from fbbai.errors import EstimationFailureError, FbbaiError

GENERATORS = ("gen_adaptive_instance", "gen_static_instance",
              "gen_sphere_instance", "gen_logistic_instance",
              "gen_corner_instance")


class LayerTotals:
    """Self time, calls and counts per layer, for one process."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def merge(self, other: "LayerTotals") -> None:
        for name, value in other.self_s.items():
            self.self_s[name] += value
        self.calls.update(other.calls)
        self.counts.update(other.counts)


class Tracer:
    """Span stack and layer totals of the benchmark process and its workers."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.stack: list[list[float]] = []
        self.local = LayerTotals()     # spans closed in this process
        self.workers = LayerTotals()   # spans closed in forked workers
        self.pool_overhead_s = 0.0
        self.chunk_busy_s = 0.0
        self.pool_capacity_s = 0.0     # workers x point wall, parallel points
        self._queue = multiprocessing.get_context("fork").SimpleQueue()
        self._originals: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call is a span of layer ``name``.

        ``after(totals, args, result, exc)`` runs when the call ends and
        records counts; ``exc`` is the package error the call raised.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except FbbaiError as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.local.self_s[name] += elapsed - frame[0]
                self.local.calls[name] += 1
                if after is not None:
                    after(self.local, args, result, exc)

        return wrapper

    def _chunk(self, fn):
        """Span for ``_mc_chunk``; in a forked worker, also ship the totals."""
        traced = self.span("harness.chunk", fn)

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.main_pid:
                return traced(task)
            self.stack = []
            self.local = LayerTotals()
            start = time.perf_counter()
            result = traced(task)
            self._queue.put((time.perf_counter() - start, self.local))
            return result

        return wrapper

    def _point(self, fn):
        """Span for ``mc_accuracy``; collects worker totals after the call."""
        traced = self.span("harness.point", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = traced(*args, **kwargs)
            wall = time.perf_counter() - start
            chunk_times = []
            while not self._queue.empty():
                elapsed, totals = self._queue.get()
                chunk_times.append(elapsed)
                self.workers.merge(totals)
            if chunk_times:
                self.pool_overhead_s += wall - max(chunk_times)
                self.chunk_busy_s += sum(chunk_times)
                self.pool_capacity_s += len(chunk_times) * wall
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, after in (
                (harness, "rep_seed", "harness.rep_seed", None),
                (harness, "gse_run", "gse.run", _count_run),
                (gse, "project_to_span", "instances.project_to_span", None),
                (gse, "explore", "gse.explore", None),
                (gse.DesignCache, "design", "design.cache", None),
                (gse, "fw_g_optimal", "design.solve", _count_solve),
                (gse, "fw_d_optimal", "design.solve", _count_solve),
                (gse, "allocate_budget", "design.allocate_budget", None),
                (gse, "sample_rewards", "instances.sample_rewards", _count_draws),
                (gse, "least_squares", "estimators.least_squares", _count_rows),
                (gse, "irls_glm", "estimators.irls_glm", _count_irls),
                (gse, "mean_estimates", "estimators.mean_estimates", None),
                (gse, "eliminate", "gse.eliminate", None),
                (harness, "write_csv", "harness.write", _count_bytes),
                (harness, "write_json", "harness.write", _count_bytes),
                (cli, "write_csv", "harness.write", _count_bytes),
                (cli, "write_json", "harness.write", _count_bytes),
        ) + tuple((harness, g, "instances.generate", _count_abort)
                  for g in GENERATORS):
            self._patch(owner, attr, self.span(name, getattr(owner, attr), after))
        self._patch(harness, "_mc_chunk", self._chunk(harness._mc_chunk))
        self._patch(harness, "mc_accuracy", self._point(harness.mc_accuracy))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def totals(self) -> LayerTotals:
        combined = LayerTotals()
        combined.merge(self.local)
        combined.merge(self.workers)
        return combined


# -- counts read at the layer boundaries ------------------------------------


def _count_abort(totals, args, result, exc) -> None:
    if exc is not None:
        totals.counts["abort." + type(exc).__name__] += 1


def _count_run(totals, args, result, exc) -> None:
    _count_abort(totals, args, result, exc)
    if result is not None:
        totals.counts["gse.stages"] += len(result.traces)


def _count_solve(totals, args, result, exc) -> None:
    if result is not None:
        totals.counts["design.fw_iterations"] += result.iterations_used
        totals.counts["design.certified"] += int(result.certified)


def _count_draws(totals, args, result, exc) -> None:
    totals.counts["instances.sample_rewards.draws"] += len(args[1])


def _count_rows(totals, args, result, exc) -> None:
    totals.counts["estimators.least_squares.rows"] += args[0].n


def _count_irls(totals, args, result, exc) -> None:
    if result is not None:
        totals.counts["estimators.irls_glm.iterations"] += result.iterations
        totals.counts["estimators.irls_glm.converged"] += int(result.converged)
    elif isinstance(exc, EstimationFailureError):
        totals.counts["estimators.fallbacks"] += 1


def _count_bytes(totals, args, result, exc) -> None:
    if exc is None:
        totals.counts["harness.write.bytes"] += os.path.getsize(args[0])
