#!/usr/bin/env python3
"""Verify every built-in system: structure equations plus zero curvature.

Usage: python scripts/verify_catalog.py
"""

import sys
import time

from pssurf.classify import catalog
from pssurf.forms import check_lemma31


def main() -> int:
    failures = 0
    t0 = time.time()
    for entry in catalog():
        report = check_lemma31(entry.forms, entry.system)
        zc = "pass" if report.zero_curvature else "FAIL"
        status = "pass" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"{entry.name:16s}  structure: {status:4s}  curvature: {zc:4s}  ({entry.description})")
        if not report.passed:
            for cond in report.failures():
                print(f"    {cond.condition_id}: {cond.residual_text[:100]}")
    print(f"total: {len(catalog())} entries in {time.time() - t0:.2f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
