"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced with few replications
per point.  The test asserts that every metric BENCHMARK.json names is
printed with its unit, both as a text line and in the final JSON object,
and that the output checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# sweep-w2 is not in BENCHMARK.json but is kept runnable for its layer split.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sweep-w2"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line
                   for line in lines), f"{name} [{unit}] not printed"
    if not trace:
        assert any(line.startswith("abort_share: ") for line in lines)
    assert lines[0].startswith("machine: nproc=")


def test_bare_benchmark_directory_fails(tmp_path):
    """Without the package sources the run fails and prints no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run_bench.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
