#!/usr/bin/env python3
"""Show that the traced run's counts repeat exactly across hash seeds.

Usage, from the root of a checkout:

    python3 perfbench/repeat_counts.py --workload verify-catalog --seconds 5

It runs the traced benchmark at seed 0 once under ``PYTHONHASHSEED`` 1 and
once under 2 and compares every per-layer metric that is a count rather than a
time (units count, bytes, lines and ratio).  It exits 1 when any differs.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = {"count", "bytes", "lines", "ratio"}
HASH_SEEDS = ("1", "2")
SEED = 0


def traced_metrics(workload: str, seconds: int, hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "1"],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, default=5)
    args = ap.parse_args()
    runs = [traced_metrics(args.workload, args.seconds, h) for h in HASH_SEEDS]
    differ = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
    for k in sorted(runs[0]):
        mark = "DIFFERS" if k in differ else "same"
        print(f"{k:46s} {runs[0][k]!s:>12} {runs[1][k]!s:>12}  {mark}")
    print(f"{len(runs[0]) - len(differ)} of {len(runs[0])} counts repeat exactly "
          f"under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
