#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py [--seed 0]

1. For every workload, two traced runs of the same code and seed report
   identical counts (exact calls, nodes, repeat share, ipr iterations, alpha
   stops, budget failures, ...), and both pass their output checks.
2. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT, RUNS_DIR, WORKLOADS
from tracing import COUNT_METRICS

RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed its output check:\n{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in COUNT_METRICS}


def check_bare_directory() -> None:
    bare = RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("bare directory: exit", proc.returncode, "and no result")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    check_bare_directory()
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            raise AssertionError(f"{workload}: counts differ between runs: {diff}")
        print(f"{workload}: counts repeat exactly: {json.dumps(first)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
