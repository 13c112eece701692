#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size (about half a minute).

    python3 perfbench/smoke.py

For every workload and both trace modes it checks that the result line has
exactly the contract's keys, passes its own output checks, and prints every
metric named in BENCHMARK.json with its unit. It runs each traced workload
twice at one seed and checks that the work counts repeat exactly, and it
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (printed, expected)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), (name, m)
        assert math.isfinite(m["value"]), (name, m)
    return json.loads(record_line)["record"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads:
        check_result(bench(workload, 0), units[0])
        first = check_result(bench(workload, 1), units[1])
        again = check_result(bench(workload, 1), units[1])
        assert first["work_counts"] == again["work_counts"], (workload, first["work_counts"], again["work_counts"])
        print(f"ok  {workload}: {first['work_counts']}")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = bench(workloads[0], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without the hmsim sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
