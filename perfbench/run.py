#!/usr/bin/env python3
"""pssurf benchmark: one workload, one seed, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-catalog --seed 0 --seconds 30 --trace 0

Closed loop with one client: a single process issues one command at a time,
with no threads.  After building the lazy state and one warm-up pass, the
run repeats passes over the workload's commands for ``--seconds`` seconds.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (wall time of a fresh interpreter that imports every layer and
builds the lazy state; median of several), ``pass_s`` (wall time of the
program calls in one pass; median over the run) and ``peak_rss_mb`` (peak
resident memory of this process).  Both times are scaled to the reference
host speed by probes (see probes.py): each set-up interpreter by the probes
timed before and after it, each program call of a pass by the probes timed
before and after that call.  The raw times are printed with their quartiles
and sample counts above the result.  Checks failed against checks attempted
are the ``failed`` and ``attempted`` fields.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics: for each span its calls and self time per pass (median
over the traced passes), layer counters, source lines per module, and the
tracing overhead as traced against untraced ``pass_s``.  It also checks the
tracer: the spans each workload must reach fire, the predicted zeros read
zero, and the counts repeat exactly from pass to pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_PASSES = 3

# numpy must not start BLAS threads: one client, one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(SRC))


def summary(label: str, times: list[float]) -> float:
    """Print the median with its quartiles and the sample count."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(f"{label} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(times)}: "
          + " ".join(f"{t:.3f}" for t in times))
    return median


def scaled(label: str, times: list[float], probes: list[float], reference: float) -> float:
    """Median over runs of each time divided by the mean of the probes taken
    just before and just after it, times the probe's reference time."""
    summary(f"raw {label}", times)
    summary("probe", probes)
    ratios = [t / ((probes[i] + probes[i + 1]) / 2) for i, t in enumerate(times)]
    return statistics.median(ratios) * reference


def measure_setup(probe) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters building the lazy state, with a probe
    before the first and after each."""
    times, probes = [], [probe()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "lazy_state.py")], check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        probes.append(probe())
    return times, probes


def run_untraced(workload, checks, seconds: float) -> dict:
    from probes import REFERENCE_S, python_loop

    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        passes.append(workload.run_pass(checks))
    summary("raw pass_s", [p.seconds for p in passes])
    setups, setup_probes = measure_setup(python_loop)
    return {
        "setup_s": scaled("setup_s", setups, setup_probes, REFERENCE_S[python_loop]),
        "pass_s": summary("pass_s", [p.scaled for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, checks, seconds: float, tracer, setup_metrics: dict) -> dict:
    from spans import src_lines

    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_PASSES:
        plain.append(workload.run_pass(checks).seconds)
        tracer.install()
        try:
            p = workload.run_pass(checks)
        finally:
            tracer.uninstall()
        traced.append(p.seconds)
        per_pass.append({**tracer.metrics(), "cli.json_bytes": p.json_bytes})

    metrics = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["classify.catalog.total_ms"] = setup_metrics["classify.catalog.total_ms"]
    metrics.update(src_lines(str(SRC)))
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    # adjacent passes share the machine's current speed, so compare them pairwise
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(t / u for t, u in zip(traced, plain)) - 1.0)

    problems = [f"{k} varies between passes" for k in per_pass[0]
                if k.endswith(".calls") and len({m[k] for m in per_pass}) > 1]
    problems += [f"{s} never fires" for s in workload.fires if metrics[f"{s}.calls"] == 0]
    problems += [f"{s} fires {metrics[f'{s}.calls']} times, predicted 0"
                 for s in workload.silent if metrics[f"{s}.calls"] != 0]
    metrics["trace.selfcheck_failed"] = len(problems)
    for line in problems:
        print(f"trace self-check: {line}")
    print(f"traced pass_s {metrics['trace.pass_s']:.4f} untraced {metrics['trace.untraced_pass_s']:.4f} "
          f"overhead {metrics['trace.overhead_pct']:.1f}% over {len(traced)} traced passes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        import numpy
        import pssurf

        if Path(pssurf.__file__).resolve().parent != SRC / "pssurf":
            raise ImportError(f"pssurf comes from {pssurf.__file__}, not from this checkout")
        import lazy_state
        from spans import Tracer
        from workloads import WORKLOADS, Checks
    except (OSError, ValueError, ImportError) as err:
        print(f"error: cannot load the benchmark or the program: {err}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"python {platform.python_version()} numpy {numpy.__version__} nproc {os.cpu_count()} "
          f"machine {platform.machine()} workload {args.workload} seed {args.seed}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    checks = Checks()
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, tmp, golden)
        setup_metrics = {}
        if tracer:
            tracer.install()
            try:
                lazy_state.build()
            finally:
                tracer.uninstall()
            setup_metrics = tracer.metrics()
        else:
            lazy_state.build()
        workload.run_pass(checks)  # warm-up: caches fill, outputs still checked
        if tracer:
            values = run_traced(workload, checks, args.seconds, tracer, setup_metrics)
        else:
            values = run_untraced(workload, checks, args.seconds)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for failure in checks.failures:
        print(f"check failed: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
