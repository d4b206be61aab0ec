"""Monte-Carlo benchmark of fbbai: one workload, one run.

    python3 bench/run_bench.py --workload static-ls --seed 1 --seconds 25 --trace 0

Workloads (their reasons are in BENCHMARK.json):

- ``static-ls``: fixed static instance K=16, delta=1, sigma2=10;
  ``gse-fwg`` linear, B=2000, R=400 per point, serial.
- ``glm-irls``: fixed Bernoulli-logistic grid K=16, gap 0.75; ``gse-fwg``
  logistic, B=31136, R=50 per point, serial.
- ``sphere-fresh``: sphere generator K=32, d=10, a new instance per
  replication; ``gse-fwg``, B=1280, R=25 per point, serial.
- ``static-w2``: the ``static-ls`` points on two workers; every point
  starts its own pool.
- ``sweep-w2`` (not in BENCHMARK.json): ``fbbai sweep --preset adaptive
  --workers 2``, R=500 per point, 16 points per sweep.  It is the only
  workload that times the CLI, the uniform, D-optimal and static variants
  and CSV/JSON output, but its times do not repeat on two shared cores
  (a sweep lasts seconds, longer than the machine-speed swings the
  calibration below follows), so it is run by hand for its layer split.

Every point of a run has its own master seed, derived from ``--seed`` and
the point's index, so design-cache fill is paid per point as in a real
sweep.  Points run until ``--seconds`` have passed.

With ``--trace 0`` the run prints the end-to-end metrics: ``ms_per_rep``
(timed wall over replications), ``point_ms_p50`` and ``point_ms_tail``
(one ``mc_accuracy`` call; the tail is the highest percentile with ten
points beyond it), ``setup_s`` (median over several fresh interpreters of
the time from start to the first point being ready), ``accuracy`` (over a
fixed number of first calls, so it depends on the seed only),
``completed_share`` (one minus the share of replications aborted by a
package error; the abort share itself is printed beside it) and
``peak_rss_mb``.

The times are wall times divided by the machine's speed at that moment.
Between calls the run times a fixed numpy kernel that does not use fbbai
(about 6% of the run); its time over 8 ms is the speed, taken as the mean
of the slices just before and just after each call, and for ``setup_s``
from slices each fresh interpreter runs after it is ready.  On a shared
machine the raw wall time of the same work drifts by 20% between runs of
25 s, while the divided time stays within about 5%.  The raw
``ms_per_rep`` is printed beside the metric.

With ``--trace 1`` it runs untraced for half the time, then with every
layer wrapped for the other half, and prints per-layer self time and
counts per replication (raw wall time), the tracing overhead, and the
share of each layer.

Either way it then checks outputs against ``bench/expected.json``:
fixed-seed tallies per workload (``static-w2`` must reproduce the serial
tallies on two workers), for ``static-ls`` one point on one and on two
workers, and on ``static-w2`` and ``sweep-w2`` the bytes and tallies of a
fixed-seed ``fbbai sweep --preset adaptive --no-wall-time``.  A mismatch
is printed by name and makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS threads are
pinned to one, and the machine (nproc, CPU, versions, workers) is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
SETUP_SAMPLES = 5        # fresh interpreters timed per run
TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("FBBAI_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_measure(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start the measuring process; return it and its time to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(MEASURE)] + argv,
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise SystemExit(f"measure.py did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the process within the deadline; kill it past that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("measure.py timed out")
    if proc.returncode != 0:
        raise SystemExit(f"measure.py exited {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few replications per point (smoke test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "fbbai" / "__init__.py").is_file():
        print(f"no fbbai package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in THREAD_VARS})
    deadline = time.perf_counter() + TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")

    setup = []
    if not args.trace:
        for _ in range(1 if args.tiny else SETUP_SAMPLES):
            proc, ready = start_measure(base + ["--probe"], deadline)
            speed = float(finish(proc, deadline).split()[-1])
            setup.append(ready / speed)
    proc, _ = start_measure(base, deadline)
    report = json.loads(finish(proc, deadline).splitlines()[-1])

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        report["notes"]["setup_s"] = (
            f"median of {len(setup)} interpreters, each divided by its speed")
    m = report["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} workers={m['workers']} "
          f"blas_threads={m['threads']}")
    print(f"workload {report['workload']}; seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    notes = report["notes"]
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name, text in notes.items():
        if name not in metrics:
            print(f"{name}: {text}")
    correct = True
    for name, ok, detail in report["checks"]:
        correct = correct and ok
        print(f"check {name}: {'ok' if ok else 'MISMATCH'} ({detail})")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
