"""The benchmark's workloads.

Each workload draws its inputs from the seed, runs one pass of commands
against the program, times only the program's calls, and then checks every
output.  A check that fails, or a call that raises, counts against the run;
it never ends it.

The program receives only the generated argv and config files: CLI
commands go through ``pssurf.cli.main(argv)`` in-process, and the generator
flow through the public functions of ``pssurf.chsym``.  Names are looked up
on the modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

import numpy as np

from pssurf import chsym, cli
from probes import REFERENCE_S, mixed_loop, python_loop


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Pass:
    """Program-call time and emitted report bytes of one pass.

    The host's speed drifts within a pass, so the pass times the workload's
    probe (see probes.py) before its first program call and after each one.
    ``seconds`` is the raw time of the calls; ``scaled`` divides each call's
    time by the mean of the probes just before and just after it, and reads
    as seconds on a host where the probe takes its reference time.
    """

    def __init__(self, probe):
        self.seconds = 0.0
        self.scaled = 0.0
        self.json_bytes = 0
        self.probe = probe
        self.probes = [probe()]

    def _add(self, seconds: float) -> None:
        self.probes.append(self.probe())
        self.seconds += seconds
        self.scaled += seconds / ((self.probes[-2] + self.probes[-1]) / 2) * REFERENCE_S[self.probe]

    def cli(self, argv: list[str]):
        """Run one CLI command; returns (exit code or exception text, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # counted as a failed check by the caller
            rc = f"raised {type(exc).__name__}: {exc}"
        self._add(time.perf_counter() - t0)
        text = out.getvalue()
        self.json_bytes += len(text.encode("utf-8"))
        return rc, text

    def call(self, fn, *args, **kwargs):
        """Run one library call; returns its result or the exception raised."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed check by the caller
            result = exc
        self._add(time.perf_counter() - t0)
        return result


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_report(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        return {}


class VerifyCatalog:
    """Nine short exact verdicts in seed-shuffled order.

    These are the verdicts users run most: ``verify example`` on each of the
    five catalog entries, the failing ``mch-type --delta 1`` (exit 1), and
    ``ch2 symmetry|prolong|taylor``.  Expressions stay small (no polynomial
    above 60 terms), so time goes to ``Poly.mul`` and ``Expr`` construction
    rather than gcd.  Reports are compared byte for byte, by
    SHA-256, with digests recorded at the commit that added the benchmark.
    """

    name = "verify-catalog"
    fires = (
        "kernel.Poly.mul", "kernel.poly_gcd", "kernel.poly_exact_div", "kernel.Expr.new",
        "kernel.Expr.diff", "kernel.Expr.substitute", "jetcalc.total_dx",
        "jetcalc.total_dt_mod_system", "forms.check_lemma31", "forms.exterior_d_mod_system",
        "laxzoo.zero_curvature_residual", "chsym.nonlocal_symmetry",
        "chsym.check_symmetry_residual", "chsym.prolongation_residuals",
        "chsym.first_order_expansion_residuals", "cli.main",
    )
    silent = ("numgrid.invert_grid",)
    probe = staticmethod(python_loop)

    ENTRIES = ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")

    def __init__(self, seed: int, tmp: str, golden: dict):
        cmds = [(["verify", "example", e, "--format", "json"], 0) for e in self.ENTRIES]
        cmds.append((["verify", "example", "mch-type", "--delta", "1", "--format", "json"], 1))
        cmds += [(["ch2", s, "--format", "json"], 0) for s in ("symmetry", "prolong", "taylor")]
        random.Random(seed).shuffle(cmds)
        self.commands = cmds
        self.digests = golden[self.name]

    def run_pass(self, checks: Checks) -> Pass:
        p = Pass(self.probe)
        results = [(argv, want, *p.cli(argv)) for argv, want in self.commands]
        for argv, want, rc, text in results:
            key = " ".join(argv)
            checks.check(rc == want, f"{key}: exit {rc}, expected {want}")
            checks.check(sha256_text(text) == self.digests.get(key), f"{key}: report digest differs")
        return p


class ConstructThm35:
    """``build thm35`` on one seed-drawn config, at delta = +1 and -1.

    g = u - u2, h = v - v2, L = a*u1 + b*v, M = c*u + d*v with a, b, c, d
    drawn from {+-1, +-2, +-3}, eta symbolic, orders (3, 3).
    ``build_theorem35`` verifies its output with ``check_lemma31``.  Expressions are large (up to
    256 terms) and over 90% of the time is under ``poly_gcd``,
    so a gcd algorithm change shows here while per-call overhead barely does.
    """

    name = "construct-thm35"
    fires = (
        "kernel.parse", "kernel.Poly.mul", "kernel.poly_gcd", "kernel.poly_exact_div",
        "kernel.Expr.new", "kernel.Expr.diff", "jetcalc.total_dx",
        "jetcalc.total_dt_mod_system", "forms.check_lemma31", "forms.exterior_d_mod_system",
        "classify.build_theorem35", "cli.main",
    )
    silent = ("numgrid.invert_grid", "laxzoo.zero_curvature_residual")
    probe = staticmethod(python_loop)

    COEFFS = (-3, -2, -1, 1, 2, 3)

    def __init__(self, seed: int, tmp: str, golden: dict):
        rng = random.Random(seed)
        a, b, c, d = (rng.choice(self.COEFFS) for _ in range(4))
        self.configs = []
        for delta in (1, -1):
            config = {
                "expressions": {
                    "g": "u - u2",
                    "h": "v - v2",
                    "L": f"{a}*u1 + {b}*v",
                    "M": f"{c}*u + {d}*v",
                },
                "params": {"eta": "eta", "delta": delta, "m": 3, "n": 3},
            }
            path = os.path.join(tmp, f"thm35_{'plus' if delta > 0 else 'minus'}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh, sort_keys=True)
            self.configs.append((f"{a},{b},{c},{d},{delta}", path))
        self.digests = golden[self.name]

    def run_pass(self, checks: Checks) -> Pass:
        p = Pass(self.probe)
        results = [(key, *p.cli(["build", "thm35", "--config", path, "--format", "json"]))
                   for key, path in self.configs]
        systems = []
        for key, rc, text in results:
            report = parse_report(text)
            checks.check(rc == 0, f"thm35 {key}: exit {rc}")
            checks.check(report.get("passed") is True, f"thm35 {key}: report not passed")
            if key in self.digests:
                checks.check(sha256_text(text) == self.digests[key], f"thm35 {key}: report digest differs")
            systems.append(report.get("system", {}).get("F"))
        checks.check(None not in systems and systems[0] != systems[1], "thm35: F equal for delta +1 and -1")
        return p


class Ch2Numeric:
    """The numeric CH2 path: residual ladder, solution CSV, generator flow.

    u0 is drawn from [0.55, 0.9] and eps from [0.5, 1.5], with eta = 1.  A
    pass runs ``ch2 residual`` on the default grid with 3 rungs, ``ch2
    solution`` on the same grid to a CSV file, and the generator-flow check
    (``finite_transform`` against ``flow_transform_richardson`` with 400
    steps at eps times 0.2, 0.4, ..., 1.0).  It makes no exact-algebra
    calls: coordinate inversion and numeric ``Expr.eval`` dominate, and the
    CSV writer is the write path.  Gates are tolerances, not digests, so
    last-bit changes to the numerics pass: the CLI's own ``passed`` field is
    not trusted.
    """

    name = "ch2-numeric"
    fires = (
        "kernel.Expr.eval", "chsym.flow_derivative", "chsym.flow_transform_richardson",
        "numgrid.invert_grid", "numgrid.fd_residual_arrays", "numgrid.write_solution_csv",
        "cli.main",
    )
    silent = ("kernel.poly_gcd", "kernel.Poly.mul")
    probe = staticmethod(mixed_loop)

    GRID = "-8:8:0.03125,-1:1:0.03125"
    NX, NT = 513, 65  # nodes of GRID per axis
    FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
    FIELDS = ("x", "u", "v", "ux", "vx", "m", "n", "phi1", "phi2", "p")

    def __init__(self, seed: int, tmp: str, golden: dict):
        rng = random.Random(seed)
        self.u0 = rng.uniform(0.55, 0.9)
        self.eps = rng.uniform(0.5, 1.5)
        self.eta = 1.0
        self.csv = os.path.join(tmp, "solution.csv")
        params = ["--u0", repr(self.u0), "--eta", repr(self.eta), "--eps", repr(self.eps)]
        self.residual_argv = ["ch2", "residual", *params, f"--grid={self.GRID}", "--rungs", "3",
                              "--format", "json"]
        self.solution_argv = ["ch2", "solution", *params, f"--grid={self.GRID}", "--out", self.csv]

    def run_pass(self, checks: Checks) -> Pass:
        p = Pass(self.probe)
        res_rc, res_text = p.cli(self.residual_argv)
        sol_rc, _ = p.cli(self.solution_argv)
        flows = p.call(self._flows)
        if isinstance(flows, Exception):
            flows = [(frac, flows, flows) for frac in self.FRACTIONS]

        report = parse_report(res_text).get("report", {})
        order = report.get("order_estimate")
        masked = report.get("masked_fraction")
        checks.check(res_rc == 0, f"ch2 residual: exit {res_rc}")
        checks.check(isinstance(order, float) and abs(order - 2.0) <= 0.3,
                     f"ch2 residual: observed order {order}")
        checks.check(isinstance(masked, float) and masked < 0.01,
                     f"ch2 residual: masked fraction {masked}")
        checks.check(sol_rc == 0, f"ch2 solution: exit {sol_rc}")
        checks.check(self._csv_ok(), "ch2 solution: CSV rows missing or not finite")
        for frac, closed, flowed in flows:
            checks.check(self._flow_error(closed, flowed) < 1e-6,
                         f"generator flow at eps*{frac}: relative error not below 1e-6")
        return p

    def _flows(self) -> list:
        """Closed-form and flowed transforms at each fraction of eps, as one
        program call so that probes are not timed between the short calls."""
        seed = chsym.seed_state(self.u0, self.eta)
        return [
            (frac, chsym.finite_transform(seed, frac * self.eps),
             chsym.flow_transform_richardson(seed, frac * self.eps, steps=400))
            for frac in self.FRACTIONS
        ]

    def _csv_ok(self) -> bool:
        try:
            data = np.loadtxt(self.csv, delimiter=",", skiprows=2, ndmin=2)
        except (OSError, ValueError):
            return False
        return data.shape == (self.NX * self.NT, 6) and bool(np.isfinite(data).all())

    def _flow_error(self, closed, flowed) -> float:
        if isinstance(closed, Exception) or isinstance(flowed, Exception):
            return math.inf
        return max(
            abs(getattr(closed, f) - getattr(flowed, f)) / max(1.0, abs(getattr(closed, f)))
            for f in self.FIELDS
        )


WORKLOADS = {w.name: w for w in (VerifyCatalog, ConstructThm35, Ch2Numeric)}
