"""Span tracer for the per-layer run.

The tracer wraps public functions of the program from outside: it replaces
each traced name in every ``pssurf`` module that bound it (``total_dx`` is
imported into classify, chsym, forms and laxzoo, ``parse`` into cli,
classify and chsym), in module-level dispatch tables that hold the function
(the CLI's ``_BUILDERS``), and, for methods, on the class itself.  Patching
only the defining module would miss every call made through another
module's binding.

Each span records its call count, its self time (duration minus the time
its child spans cover) and its total time (duration of the outermost call
only, so recursion such as gcd-of-contents is not counted twice).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

# span name -> (module, attribute path); a dotted path names a method
SPANS = {
    "kernel.parse": ("kernel", "parse"),
    "kernel.Poly.mul": ("kernel", "Poly.mul"),
    "kernel.poly_gcd": ("kernel", "poly_gcd"),
    "kernel.poly_exact_div": ("kernel", "poly_exact_div"),
    "kernel.Expr.new": ("kernel", "Expr.__init__"),
    "kernel.Expr.diff": ("kernel", "Expr.diff"),
    "kernel.Expr.substitute": ("kernel", "Expr.substitute"),
    "kernel.Expr.eval": ("kernel", "Expr.eval"),
    "jetcalc.total_dx": ("jetcalc", "total_dx"),
    "jetcalc.total_dt_mod_system": ("jetcalc", "total_dt_mod_system"),
    "jetcalc.check_rule_compatibility": ("jetcalc", "check_rule_compatibility"),
    "forms.check_lemma31": ("forms", "check_lemma31"),
    "forms.exterior_d_mod_system": ("forms", "exterior_d_mod_system"),
    "laxzoo.zero_curvature_residual": ("laxzoo", "zero_curvature_residual"),
    "laxzoo.from_forms": ("laxzoo", "from_forms"),
    "classify.build_theorem35": ("classify", "build_theorem35"),
    "classify.catalog": ("classify", "catalog"),
    "chsym.nonlocal_symmetry": ("chsym", "nonlocal_symmetry"),
    "chsym.check_symmetry_residual": ("chsym", "check_symmetry_residual"),
    "chsym.prolongation_residuals": ("chsym", "prolongation_residuals"),
    "chsym.first_order_expansion_residuals": ("chsym", "first_order_expansion_residuals"),
    "chsym.flow_derivative": ("chsym", "flow_derivative"),
    "chsym.flow_transform_richardson": ("chsym", "flow_transform_richardson"),
    "numgrid.invert_grid": ("numgrid", "invert_grid"),
    "numgrid.fd_residual_arrays": ("numgrid", "fd_residual_arrays"),
    "numgrid.write_solution_csv": ("numgrid", "write_solution_csv"),
    "cli.main": ("cli", "main"),
}

# spans that also report the duration of their outermost calls; the run
# reports classify.catalog's from the traced set-up, where the catalog is built
TOTAL_MS = (
    "kernel.poly_gcd",
    "forms.check_lemma31",
    "laxzoo.zero_curvature_residual",
    "classify.build_theorem35",
    "classify.catalog",
    "chsym.flow_transform_richardson",
)

MODULES = ("chsym", "classify", "cli", "forms", "jetcalc", "kernel", "laxzoo", "numgrid")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    depth: int = 0


class Tracer:
    """Installs span wrappers and accumulates their statistics until reset."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self._stack: list[list[float]] = []
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls, s.self_s, s.total_s = 0, 0.0, 0.0
        self.counters = {
            "gcd_nontrivial": 0,
            "peak_terms": 0,
            "invert_nodes": 0,
            "csv_bytes": 0,
            "conditions_failed": 0,
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats.calls += 1
                stats.self_s += dur - frame[0]
                stats.depth -= 1
                if stats.depth == 0:
                    stats.total_s += dur
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _posts(self):
        c = self.counters

        def terms(n: int) -> None:
            if n > c["peak_terms"]:
                c["peak_terms"] = n

        def gcd(args, result):
            terms(max(len(args[0].terms), len(args[1].terms)))
            if not result.is_const():
                c["gcd_nontrivial"] += 1

        def mul(args, result):
            terms(len(result.terms))

        def new(args, result):
            terms(max(len(args[0].num.terms), len(args[0].den.terms)))

        def invert(args, result):
            c["invert_nodes"] += int(result.size)

        def csv(args, result):
            c["csv_bytes"] += os.path.getsize(args[0])

        def lemma(args, result):
            c["conditions_failed"] += len(result.failures())

        return {
            "kernel.poly_gcd": gcd,
            "kernel.Poly.mul": mul,
            "kernel.Expr.new": new,
            "numgrid.invert_grid": invert,
            "numgrid.write_solution_csv": csv,
            "forms.check_lemma31": lemma,
        }

    def install(self) -> None:
        """Wrap every traced name wherever a pssurf module bound it."""
        self.reset()
        posts = self._posts()
        modules = [m for n, m in sys.modules.items() if n == "pssurf" or n.startswith("pssurf.")]
        for name, (mod_name, path) in SPANS.items():
            owner = sys.modules[f"pssurf.{mod_name}"]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the program no longer defines it; the span reads zero
            wrapped = self._wrap(name, original, posts.get(name))
            if owner is not sys.modules[f"pssurf.{mod_name}"]:
                self._rebind(owner, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)
                    elif isinstance(value, dict):
                        self._rebind_table(value, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _rebind_table(self, table: dict, original, wrapped) -> None:
        for key, entry in list(table.items()):
            if isinstance(entry, tuple) and any(e is original for e in entry):
                table[key] = tuple(wrapped if e is original else e for e in entry)
                self._undo.append(lambda key=key, entry=entry: table.__setitem__(key, entry))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_ms"] = s.self_s * 1e3
            if name in TOTAL_MS:
                out[f"{name}.total_ms"] = s.total_s * 1e3
        c = self.counters
        gcd_calls = self.stats["kernel.poly_gcd"].calls
        out["kernel.poly_gcd.nontrivial_ratio"] = c["gcd_nontrivial"] / gcd_calls if gcd_calls else 0.0
        out["kernel.peak_terms"] = c["peak_terms"]
        inv = self.stats["numgrid.invert_grid"]
        out["numgrid.invert_grid.nodes"] = c["invert_nodes"]
        out["numgrid.invert_grid.nodes_per_s"] = c["invert_nodes"] / inv.self_s if inv.self_s else 0.0
        csv = self.stats["numgrid.write_solution_csv"]
        out["numgrid.write_solution_csv.bytes"] = c["csv_bytes"]
        out["numgrid.write_solution_csv.mb_per_s"] = c["csv_bytes"] / 1e6 / csv.self_s if csv.self_s else 0.0
        out["forms.conditions_failed"] = c["conditions_failed"]
        return out


def src_lines(src_dir: str) -> dict[str, int]:
    """Non-blank, non-comment source lines of each program module."""
    out = {}
    for mod in MODULES:
        with open(os.path.join(src_dir, "pssurf", f"{mod}.py"), encoding="utf-8") as fh:
            out[f"{mod}.src_lines"] = sum(
                1 for line in fh if line.strip() and not line.lstrip().startswith("#")
            )
    return out
