"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload static-ls --seeds 1-10
    python3 bench/spread.py --workload static-ls --seeds 1-10 --trace 1

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
distance as a share of the median, beside the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged; setup_s
is exempt, as only its median is compared between commits.  ``--json``
writes the runs and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None, help="write runs and summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if args.trace == 0 or k in ("trace.wall_ms", "trace.overhead_ms")),
            flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": first["unit"]}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:40s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
              f" spread {spread:.4f}" + (f" bound {bound}" if bound else "") + flag)
    if not all(r["correct"] for r in runs):
        print("some runs reported correct=false")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "seeds": args.seeds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
