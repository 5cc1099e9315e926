"""Byte-for-byte golden JSON reports from the command line.

The files under tests/golden/ were written by the code before the kernel's
exponential normalisation was merged into one pass; any refactor must
reproduce them exactly.  Run this file as a script to re-record them.
"""

import contextlib
import io
from pathlib import Path

import pytest

from pssurf.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden file stem, argv, expected exit code)
CASES = [
    *[
        (f"verify_{name}", ["verify", "example", name], 0)
        for name in ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")
    ],
    ("verify_mch-type_delta1", ["verify", "example", "mch-type", "--delta", "1"], 1),
    *[(f"ch2_{sub}", ["ch2", sub], 0) for sub in ("symmetry", "prolong", "taylor")],
    ("build_thm34", ["build", "thm34", "--config", str(GOLDEN / "build_thm34.config.json")], 0),
]


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("stem,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(stem, argv, expected_code):
    code, text = run_json(argv)
    assert code == expected_code
    assert text == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for stem, argv, _ in CASES:
        (GOLDEN / f"{stem}.json").write_text(run_json(argv)[1], encoding="utf-8")
