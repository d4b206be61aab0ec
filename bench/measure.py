"""Measuring process of the benchmark: one workload, one run.

``run_bench.py`` starts this script; it is not meant to be run by hand.
It imports ``fbbai`` from the checkout's ``src/``, builds the workload's
instance or generator and prints ``ready``; with ``--probe`` it then
prints the machine speed and stops, which is how set-up time is sampled.
Otherwise it runs Monte-Carlo points for ``--seconds``, checks the outputs
and prints one JSON report as its last line.  With ``--trace 1`` it first
runs untraced for half the time, then installs the tracer and runs the
same points again.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fbbai  # noqa: E402
import fbbai.cli as cli  # noqa: E402
import fbbai.harness as harness  # noqa: E402
from fbbai.instances import LOGISTIC, BanditInstance  # noqa: E402

EXPECTED = Path(__file__).with_name("expected.json")
OUT_ROOT = ROOT / ".bench_out"

# Reference points run at fixed master seeds, whatever --seed is, so their
# tallies can be compared with the values recorded in expected.json.
REFERENCE_MASTERS = (900001, 900002)
SWEEP_CHECK_R = 20
SWEEP_CHECK_SEED = 7
MIN_TAIL_POINTS = 11  # the tail percentile needs ten points beyond it


def master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th point of a run; distinct per point."""
    return (seed * 1_000_003 + index) & 0xFFFFFFFF


@dataclass
class Iteration:
    """One timed call: an MC point, or a whole sweep of points."""

    wall_s: float
    reps: int
    tallies: list[tuple[int, int]]   # (successes, aborts) per point
    point_walls: list[float]
    consistent: bool = True          # tallies fit R; CSV and JSON agree
    speed: float = 1.0               # calibration time / reference, around the call


@dataclass(frozen=True)
class McWorkload:
    """Repeated ``mc_accuracy`` points on one source and worker count."""

    name: str
    variant: str
    budget: int
    replications: int
    family: str
    build: Callable[[], object]
    accuracy_points: int = 20
    workers: int = 1

    def describe(self) -> str:
        return (f"mc_accuracy variant={self.variant} B={self.budget} "
                f"R={self.replications} per point")

    def iteration(self, source, master: int, replications: int) -> Iteration:
        start = time.perf_counter()
        res = harness.mc_accuracy(source, self.variant, self.budget,
                                  replications, master, family=self.family,
                                  workers=self.workers)
        wall = time.perf_counter() - start
        return Iteration(wall, replications, [(res.successes, res.aborts)],
                         [wall], res.successes + res.aborts <= replications)

    def reference(self, source, master: int) -> list[int]:
        res = harness.mc_accuracy(source, self.variant, self.budget,
                                  self.replications, master,
                                  family=self.family, workers=self.workers)
        return [res.successes, res.aborts]


@dataclass(frozen=True)
class SweepWorkload:
    """Repeated ``fbbai sweep --preset adaptive`` on two workers."""

    name: str
    replications: int
    accuracy_points: int = 1
    workers: int = 2
    preset: str = "adaptive"

    def describe(self) -> str:
        n = len(harness.PRESETS[self.preset].points)
        return (f"cli sweep --preset {self.preset} --workers {self.workers} "
                f"R={self.replications} per point, {n} points per sweep")

    def build(self):
        return harness.PRESETS[self.preset]

    def _sweep(self, replications: int, seed: int, extra: list[str]):
        out = tempfile.mkdtemp(dir=OUT_ROOT)
        try:
            argv = ["sweep", "--preset", self.preset,
                    "--workers", str(self.workers),
                    "--replications", str(replications),
                    "--seed", str(seed), "--out", out] + extra
            with contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"fbbai {' '.join(argv)} exited {code}")
            files = {p.name: p.read_bytes() for p in Path(out).iterdir()}
        finally:
            shutil.rmtree(out)
        return wall, files

    def iteration(self, source, master: int, replications: int) -> Iteration:
        # Timed sweeps keep the wall-time column: it is the only per-point
        # timing the CLI exposes without wrapping anything.
        wall, files = self._sweep(replications, master, [])
        records = json.loads(files[f"{self.preset}.json"])
        rows = list(csv.DictReader(io.StringIO(
            files[f"{self.preset}.csv"].decode("utf-8"))))
        consistent = len(rows) == len(records) and all(
            int(r["successes"]) == rec["successes"]
            and int(r["aborts"]) == rec["aborts"]
            and int(r["R"]) == rec["R"] == replications
            and rec["successes"] + rec["aborts"] <= replications
            for r, rec in zip(rows, records))
        return Iteration(wall, replications * len(records),
                         [(rec["successes"], rec["aborts"]) for rec in records],
                         [rec["wall_time_s"] for rec in records], consistent)

    def reference(self, source, master: int) -> dict:
        _, files = self._sweep(SWEEP_CHECK_R, master, ["--no-wall-time"])
        rows = csv.DictReader(io.StringIO(
            files[f"{self.preset}.csv"].decode("utf-8")))
        return {"sha256": {name: hashlib.sha256(data).hexdigest()
                           for name, data in sorted(files.items())},
                "tallies": [[int(r["successes"]), int(r["aborts"])]
                            for r in rows]}


def _static() -> BanditInstance:
    return harness.family_source("static", {"delta": 1.0, "K": 16, "sigma2": 10.0})


def _glm_grid() -> BanditInstance:
    theta = np.zeros(16)
    theta[0] = 0.75
    return BanditInstance(features=np.eye(16), theta_star=theta, model="glm",
                          mean_fn=LOGISTIC, noise_sigma2=0.25, bernoulli=True,
                          name="glm-grid-K16")


# Why each workload exists is recorded in BENCHMARK.json; sweep-w2 is not
# listed there and is run by hand (see run_bench.py).
WORKLOADS = {w.name: w for w in (
    McWorkload("static-ls", "gse-fwg", 2000, 400, "static", _static),
    McWorkload("glm-irls", "gse-fwg", 31136, 50, "glm-K16", _glm_grid),
    McWorkload("sphere-fresh", "gse-fwg", 1280, 25, "sphere",
               lambda: harness.family_source("sphere", {"K": 32, "d": 10}),
               accuracy_points=40),
    McWorkload("static-w2", "gse-fwg", 2000, 400, "static", _static,
               workers=2),
    SweepWorkload("sweep-w2", 500),
)}
TINY_REPLICATIONS = {"static-ls": 20, "static-w2": 20, "glm-irls": 2,
                     "sphere-fresh": 2, "sweep-w2": 8}


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------


class Calibration:
    """Fixed work that does not use fbbai, timed between calls.

    Neighbours on a shared machine change its speed by up to a half for
    tens of seconds at a time, and a timed call slows with the kernel.
    The kernel's time over ``REFERENCE_MS`` is the machine's speed at
    that moment; times are divided by it, so they read as at a fixed speed.
    """

    REFERENCE_MS = 8.0
    SHARE = 0.06  # of each call's wall time spent on calibration

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        a = rng.normal(size=(16, 16))
        self.matrix = a @ a.T + 16.0 * np.eye(16)
        self.rhs = rng.normal(size=16)
        self.vector = rng.normal(size=30000)
        self.slices: list[float] = []
        self._slice_ms()  # first calls into numpy pay one-off costs

    def _slice_ms(self) -> float:
        start = time.perf_counter()
        for i in range(480):
            np.linalg.solve(self.matrix, self.rhs)
            {j: j * i for j in range(8)}
        for _ in range(24):
            w = 1.0 / (1.0 + np.exp(-self.vector))
            float(w @ self.vector)
        return 1000.0 * (time.perf_counter() - start)

    def measure(self, slices: int) -> float:
        """Time ``slices`` slices; return their mean over REFERENCE_MS."""
        times = [self._slice_ms() for _ in range(slices)]
        self.slices += times
        return statistics.fmean(times) / self.REFERENCE_MS

    def measure_after(self, wall_s: float) -> float:
        """Measure for SHARE of a call that took ``wall_s``."""
        return self.measure(max(1, round(
            self.SHARE * 1000.0 * wall_s / self.REFERENCE_MS)))


def timed_loop(workload, source, seed: int, seconds: float,
               replications: int, min_iterations: int = 1,
               min_points: int = 0,
               calibration: Calibration | None = None) -> list[Iteration]:
    """Run calls 0, 1, ... until ``seconds`` pass and enough have run.

    With a calibration, each call's speed is the mean of the slices timed
    just before and just after it.
    """
    iterations: list[Iteration] = []
    points = 0
    before = calibration.measure(2) if calibration else 1.0
    deadline = time.perf_counter() + seconds
    while (len(iterations) < min_iterations or points < min_points
           or time.perf_counter() < deadline):
        it = workload.iteration(source, master_seed(seed, len(iterations)),
                                replications)
        if calibration:
            after = calibration.measure_after(it.wall_s)
            it.speed = (before + after) / 2.0
            before = after
        iterations.append(it)
        points += len(it.point_walls)
    return iterations


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    k = len(ordered) - MIN_TAIL_POINTS
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child.

    Forked workers share pages with this process, so the sum is an upper
    estimate of the memory in use at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def end_to_end(workload, iterations: list[Iteration],
               calibration: Calibration) -> dict:
    """End-to-end metrics; times are divided by each call's speed."""
    walls = [w / it.speed for it in iterations for w in it.point_walls]
    reps = sum(it.reps for it in iterations)
    raw_ms = 1000.0 * sum(it.wall_s for it in iterations) / reps
    ms = 1000.0 * sum(it.wall_s / it.speed for it in iterations) / reps
    aborts = sum(a for it in iterations for _, a in it.tallies)
    first = iterations[:workload.accuracy_points]
    acc_reps = sum(it.reps for it in first)
    acc_succ = sum(s for it in first for s, _ in it.tallies)
    pct, tail_s = tail(walls)
    kernel_ms = statistics.fmean(calibration.slices)
    return {
        "metrics": {
            "ms_per_rep": (ms, "ms"),
            "point_ms_p50": (1000.0 * statistics.median(walls), "ms"),
            "point_ms_tail": (1000.0 * tail_s, "ms"),
            "accuracy": (acc_succ / acc_reps, "share"),
            "completed_share": (1.0 - aborts / reps, "share"),
            "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
        },
        "notes": {
            "ms_per_rep": f"raw wall {raw_ms:.6g} ms, {len(iterations)} calls",
            "point_ms_tail": f"p{pct:.1f} of {len(walls)} points",
            "accuracy": f"first {len(first)} timed calls, {acc_reps} replications",
            "abort_share": f"{aborts / reps:.6g} ({aborts} of {reps} replications)",
            "speed": (f"calibration kernel {kernel_ms:.4f} ms over "
                      f"{len(calibration.slices)} slices; times read as at "
                      f"{Calibration.REFERENCE_MS:g} ms"),
        },
        "attempted": reps,
        "failed": aborts,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def consistency_check(iterations: list[Iteration]) -> tuple[str, bool, str]:
    bad = [i for i, it in enumerate(iterations) if not it.consistent]
    return ("timed.outputs_consistent", not bad,
            f"{len(iterations)} calls, inconsistent: {bad or 'none'}")


def output_checks(workload, source) -> list[tuple[str, bool, str]]:
    """Compare fixed-seed outputs with the values recorded in expected.json."""
    expected = json.loads(EXPECTED.read_text())["reference"]
    cases = [(workload, source)]
    if workload.name == "static-w2":
        # The pool workload also checks the bytes the CLI sweep writes.
        cases.append((WORKLOADS["sweep-w2"], None))
    checks = []
    for case, case_source in cases:
        masters = ((SWEEP_CHECK_SEED,) if isinstance(case, SweepWorkload)
                   else REFERENCE_MASTERS)
        for master in masters:
            got = case.reference(case_source, master)
            want = expected.get(case.name, {}).get(str(master))
            checks.append((f"reference.{case.name}.{master}", got == want,
                           "matches the recorded value" if got == want
                           else f"expected {want}, got {got}"))
    if workload.name == "static-ls":
        master = REFERENCE_MASTERS[0]
        tallies = {}
        for workers in (1, 2):
            res = harness.mc_accuracy(source, workload.variant,
                                      workload.budget, workload.replications,
                                      master, family=workload.family,
                                      workers=workers)
            tallies[workers] = [res.successes, res.aborts]
        checks.append(("parity.static-ls.workers-1-2",
                       tallies[1] == tallies[2],
                       f"workers=1 {tallies[1]}, workers=2 {tallies[2]}"))
    return checks


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


# Package errors a replication can raise; each is counted on its own.
ABORT_CLASSES = ("InvalidAllocationError", "EstimationFailureError",
                 "SingularDesignError", "BudgetTooSmallError",
                 "ConfigurationError", "DegenerateInputError")

# Layers whose self times partition the traced wall time with trace.other_ms.
SELF_TIME_LAYERS = (
    "estimators.least_squares", "estimators.irls_glm",
    "estimators.mean_estimates", "design.solve", "design.cache",
    "design.allocate_budget", "instances.project_to_span",
    "instances.sample_rewards", "instances.generate", "gse.run",
    "gse.explore", "gse.eliminate", "harness.rep_seed", "harness.chunk",
    "harness.point", "harness.write")


def layer_metrics(tracer, reps: int, wall_s: float,
                  untraced_ms: float) -> dict:
    t = tracer.totals()
    calls, counts = t.calls, t.counts

    def ms(layer: str) -> tuple[float, str]:
        return 1000.0 * t.self_s[layer] / reps, "ms/rep"

    def per_rep(value: float, unit: str) -> tuple[float, str]:
        return value / reps, unit

    def share(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "share"

    def per_call(num: float, den: float, unit: str) -> tuple[float, str]:
        return (num / den if den else 0.0), unit

    wall_ms = 1000.0 * wall_s / reps
    main_self_ms = 1000.0 * sum(tracer.local.self_s.values()) / reps
    aborts = {k.split(".", 1)[1]: v for k, v in counts.items()
              if k.startswith("abort.")}
    metrics = {
        "estimators.least_squares.ms": ms("estimators.least_squares"),
        "estimators.least_squares.calls": per_rep(calls["estimators.least_squares"], "calls/rep"),
        "estimators.least_squares.rows": per_rep(counts["estimators.least_squares.rows"], "rows/rep"),
        "estimators.irls_glm.ms": ms("estimators.irls_glm"),
        "estimators.irls_glm.calls": per_rep(calls["estimators.irls_glm"], "calls/rep"),
        "estimators.irls_glm.iterations": per_call(
            counts["estimators.irls_glm.iterations"],
            calls["estimators.irls_glm"] - counts["estimators.fallbacks"], "iter/call"),
        "estimators.irls_glm.converged_share": share(
            counts["estimators.irls_glm.converged"],
            calls["estimators.irls_glm"] - counts["estimators.fallbacks"]),
        "estimators.fallback_share": share(counts["estimators.fallbacks"],
                                           calls["estimators.irls_glm"]),
        "estimators.mean_estimates.ms": ms("estimators.mean_estimates"),
        "design.solve.ms": ms("design.solve"),
        "design.solve.calls": per_rep(calls["design.solve"], "calls/rep"),
        "design.fw_iterations": per_call(counts["design.fw_iterations"],
                                         calls["design.solve"], "iter/solve"),
        "design.certified_share": share(counts["design.certified"],
                                        calls["design.solve"]),
        "design.cache.ms": ms("design.cache"),
        "design.cache_hit_share": share(calls["design.cache"] - calls["design.solve"],
                                        calls["design.cache"]),
        "design.allocate_budget.ms": ms("design.allocate_budget"),
        "design.allocate_budget.calls": per_rep(calls["design.allocate_budget"], "calls/rep"),
        "instances.project_to_span.ms": ms("instances.project_to_span"),
        "instances.project_to_span.calls": per_rep(calls["instances.project_to_span"], "calls/rep"),
        "instances.sample_rewards.ms": ms("instances.sample_rewards"),
        "instances.sample_rewards.draws": per_rep(counts["instances.sample_rewards.draws"], "draws/rep"),
        "instances.generate.ms": ms("instances.generate"),
        "gse.run.self_ms": ms("gse.run"),
        "gse.explore.self_ms": ms("gse.explore"),
        "gse.eliminate.ms": ms("gse.eliminate"),
        "gse.stages": per_rep(counts["gse.stages"], "stages/rep"),
        "harness.rep_seed.ms": ms("harness.rep_seed"),
        "harness.chunk.self_ms": ms("harness.chunk"),
        "harness.point.self_ms": ms("harness.point"),
        "harness.pool.overhead_ms": per_rep(1000.0 * tracer.pool_overhead_s, "ms/rep"),
        "harness.chunk.busy_share": share(tracer.chunk_busy_s, tracer.pool_capacity_s),
        "harness.write.ms": ms("harness.write"),
        "harness.write.bytes": per_rep(counts["harness.write.bytes"], "B/rep"),
        "harness.aborts": (float(sum(aborts.values())), "count"),
        "trace.wall_ms": (wall_ms, "ms/rep"),
        "trace.untraced_ms": (untraced_ms, "ms/rep"),
        "trace.overhead_ms": (wall_ms - untraced_ms, "ms/rep"),
        "trace.other_ms": (wall_ms - main_self_ms, "ms/rep"),
    }
    for cls in ABORT_CLASSES:
        metrics[f"harness.aborts.{cls}"] = (float(aborts.pop(cls, 0)), "count")
    metrics["harness.aborts.other"] = (float(sum(aborts.values())), "count")
    return metrics


def _shares(self_ms: dict, total_ms: float) -> str:
    return ", ".join(f"{name} {100.0 * v / total_ms:.1f}%" for name, v in
                     sorted(self_ms.items(), key=lambda kv: -kv[1]))


def traced_run(workload, source, args, replications) -> dict:
    from tracer import Tracer  # imported here: untraced runs never load it

    half = args.seconds / 2.0
    untraced = timed_loop(workload, source, args.seed, half, replications)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, source, args.seed, half, replications)
    finally:
        tracer.uninstall()
    reps = sum(it.reps for it in traced)
    wall_s = sum(it.wall_s for it in traced)
    untraced_ms = (1000.0 * sum(it.wall_s for it in untraced)
                   / sum(it.reps for it in untraced))
    metrics = layer_metrics(tracer, reps, wall_s, untraced_ms)

    common = min(len(untraced), len(traced))
    same = all(u.tallies == t.tallies
               for u, t in zip(untraced[:common], traced[:common]))
    aborts = sum(a for it in traced for _, a in it.tallies)
    other_ms = metrics["trace.other_ms"][0]
    checks = [
        consistency_check(untraced + traced),
        ("trace.tallies_unchanged", same,
         f"first {common} calls traced and untraced"),
        ("trace.aborts_counted", metrics["harness.aborts"][0] == aborts,
         f"spans saw {metrics['harness.aborts'][0]:.0f}, tallies {aborts}"),
        ("trace.spans_within_wall", other_ms >= -1e-9 * metrics["trace.wall_ms"][0],
         f"other = {other_ms:.6g} ms/rep"),
    ]
    wall_ms = metrics["trace.wall_ms"][0]
    layers = {name: metrics[f"{name}.ms" if f"{name}.ms" in metrics
                            else f"{name}.self_ms"][0]
              for name in SELF_TIME_LAYERS}
    main = {name: 1000.0 * tracer.local.self_s[name] / reps
            for name in tracer.local.self_s}
    # With a pool, the point's own self time is mostly waiting for workers.
    ranked = {n: v for n, v in layers.items()
              if not (n == "harness.point" and tracer.pool_capacity_s)}
    top = max(ranked, key=ranked.get)
    notes = {
        "accounting": (f"benchmark-process self times {sum(main.values()):.4f}"
                       f" + other {other_ms:.4f} = wall {wall_ms:.4f} ms/rep"),
        "top_layer": f"{top} ({layers[top]:.4f} ms/rep, "
                     f"{100.0 * layers[top] / wall_ms:.1f}% of wall)",
        "process_shares": _shares(main, wall_ms),
        "traced_calls": f"{len(traced)} traced, {len(untraced)} untraced",
    }
    if tracer.pool_capacity_s:
        busy_ms = 1000.0 * tracer.chunk_busy_s / reps
        workers = {name: 1000.0 * tracer.workers.self_s[name] / reps
                   for name in tracer.workers.self_s}
        notes["worker_shares"] = ("of summed chunk time: "
                                  + _shares(workers, busy_ms))
    return {"metrics": metrics, "checks": checks, "notes": notes,
            "attempted": reps, "failed": aborts}


# ---------------------------------------------------------------------------


def machine(workload) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "workers": workload.workers,
            "threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop once the first point is ready")
    parser.add_argument("--tiny", action="store_true",
                        help="few replications per point (smoke test)")
    args = parser.parse_args()

    if not Path(fbbai.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fbbai imported from {fbbai.__file__}, not {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    source = workload.build()
    print("ready", flush=True)
    if args.probe:
        print(f"speed {Calibration().measure(3)!r}")
        return 0

    OUT_ROOT.mkdir(exist_ok=True)
    replications = (TINY_REPLICATIONS[workload.name] if args.tiny
                    else workload.replications)
    if args.trace:
        report = traced_run(workload, source, args, replications)
    else:
        calibration = Calibration()
        iterations = timed_loop(workload, source, args.seed, args.seconds,
                                replications, workload.accuracy_points,
                                MIN_TAIL_POINTS, calibration)
        report = end_to_end(workload, iterations, calibration)
        report["checks"] = [consistency_check(iterations)]
    report["checks"] += output_checks(workload, source)
    with contextlib.suppress(OSError):
        OUT_ROOT.rmdir()
    report["machine"] = machine(workload)
    report["workload"] = f"{workload.name}: {workload.describe()}"
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
