"""The benchmark's report digests replay through the CLI.

``perfbench/golden.json`` holds the SHA-256 of every report that the
verify-catalog and construct-thm35 workloads check.  A change that alters
one of those reports fails the benchmark's self-checks; this test shows it
in the test suite, without the benchmark's timing probes.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from pssurf.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(_PERFBENCH))  # workloads.py imports its sibling probes.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads((_PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _replay(workloads, argv):
    """The exit code and the stdout digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, workloads.sha256_text(out.getvalue())


def test_verify_catalog_digests(workloads, golden, tmp_path):
    wl = workloads.VerifyCatalog(0, str(tmp_path), golden)
    got = {" ".join(argv): _replay(workloads, argv) for argv, _ in wl.commands}
    want = {" ".join(argv): (code, wl.digests[" ".join(argv)]) for argv, code in wl.commands}
    assert len(got) == 9
    assert got == want


def test_construct_thm35_digests(workloads, golden, tmp_path):
    # each seed rewrites the same two config files, so run them before the next draw
    got = {}
    for seed in range(10):
        for key, path in workloads.ConstructThm35(seed, str(tmp_path), golden).configs:
            argv = ["build", "thm35", "--config", path, "--format", "json"]
            got[key] = _replay(workloads, argv)
    want = {key: (0, digest) for key, digest in golden["construct-thm35"].items()}
    assert len(got) == 20
    assert got == want
