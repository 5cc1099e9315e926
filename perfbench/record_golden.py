#!/usr/bin/env python3
"""Record the report digests that the benchmark compares outputs against.

Usage, from the root of a checkout whose outputs are the reference:

    python3 perfbench/record_golden.py > perfbench/golden.json

It records the SHA-256 of every ``verify-catalog`` report and of the
``construct-thm35`` reports for the configs drawn by seeds 0-9.  Only
reports that pass are recorded.
"""

import json
import sys
import tempfile

import run  # noqa: F401  (pins the environment and puts the program on the path)
from probes import python_loop
from workloads import ConstructThm35, Pass, VerifyCatalog, parse_report, sha256_text

THM35_SEEDS = range(10)


def main() -> int:
    empty = {VerifyCatalog.name: {}, ConstructThm35.name: {}}
    golden = {VerifyCatalog.name: {}, ConstructThm35.name: {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for argv, want in VerifyCatalog(0, tmp, empty).commands:
            rc, text = Pass(python_loop).cli(argv)
            if rc != want:
                print(f"error: {' '.join(argv)} exits {rc}, expected {want}", file=sys.stderr)
                return 1
            golden[VerifyCatalog.name][" ".join(argv)] = sha256_text(text)
        for seed in THM35_SEEDS:
            for key, path in ConstructThm35(seed, tmp, empty).configs:
                rc, text = Pass(python_loop).cli(["build", "thm35", "--config", path, "--format", "json"])
                if rc != 0 or parse_report(text).get("passed") is not True:
                    print(f"error: thm35 {key} exits {rc}", file=sys.stderr)
                    return 1
                golden[ConstructThm35.name][key] = sha256_text(text)
    json.dump(golden, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
