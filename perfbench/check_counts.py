"""Check that the traced run's work counters repeat exactly.

    python3 perfbench/check_counts.py [--workload NAME] [--seed N]

Runs the traced benchmark twice per workload with the same seed and
compares every count metric (unit "count" or "ratio") of round 0.
Times may differ between the runs; counts may not. Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("analyze", "serve", "search", "distance")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect results")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    status = 0
    for workload in [args.workload] if args.workload else NAMES:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            status = 1
            print(f"{workload}: counts differ: {diff}")
        else:
            print(f"{workload}: {len(first)} counts identical: {json.dumps(first)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
