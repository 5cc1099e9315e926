"""Command-line surface.

Subcommands:
  verify example <name>       run the structure-equation and Lax checks on a
                              catalog entry
  verify lemma31 --config F   verify user-supplied forms against a system
  build thm{34,35,36,37} --config F   run a classification constructor
  lax check --config F        zero-curvature check for an example or for
                              user-supplied forms
  ch2 {symmetry,prolong,taylor,solution,residual}   the momentum-form
                              pipeline for the cubic two-component system

Exit codes: 0 success, 1 mathematical failure, 2 usage or config error.
Reports embed the toolkit version and a hash of the effective config, and
identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

from . import __version__
from .classify import (
    HypothesisViolationError,
    Thm34Input,
    Thm36Input,
    build_theorem34,
    build_theorem35,
    build_theorem36,
    build_theorem37,
    catalog_entry,
)
from .forms import AssociatedForms, check_lemma31
from .jetcalc import PdeSystem
from .kernel import MAX_DIGITS, MAX_JET_ORDER, DomainError, Expr, KernelError, parse
from .laxzoo import from_forms, mat_is_zero, mat_strings, zero_curvature_residual

USAGE_ERROR = 2
MATH_FAILURE = 1


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _report_envelope(command: str, config: dict, payload: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config_sha256": _config_hash(config),
        **payload,
    }


def _emit(report: dict, fmt: str, out_path: str | None, table_text: str | None = None):
    """Write the report as strict JSON, or as table_text when the format is
    table."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = table_text + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shaped(value, kind: type, what: str):
    """value, if it has the JSON shape kind (dict or str), else a config error."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a string"
        raise ValueError(f"{what} must be {noun}")
    return value


def _config_int(literal: str) -> int:
    """A JSON integer literal of at most MAX_DIGITS digits, checked before
    int() meets the interpreter's own limit."""
    if len(literal.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"config number has more than {MAX_DIGITS} digits")
    return int(literal)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _shaped(json.load(fh, parse_int=_config_int), dict, "config")
        except RecursionError:
            raise ValueError("config nests too deeply") from None


def _parse_config(name: str, value) -> Expr:
    """parse() for a config value: a value that is not a string, or an
    expression that does not parse, is a config error, not a mathematical
    failure."""
    try:
        return parse(_shaped(value, str, f"config value '{name}'"))
    except KernelError as err:
        raise ValueError(str(err)) from err


def _config_exprs(config: dict, names: list[str]) -> dict[str, Expr]:
    table = _shaped(config.get("expressions", {}), dict, "config 'expressions'")
    missing = [n for n in names if n not in table]
    if missing:
        raise KeyError(f"config lacks expressions: {', '.join(missing)}")
    return {n: _parse_config(n, table[n]) for n in names}


def _params(config: dict) -> dict:
    return _shaped(config.get("params", {}), dict, "config 'params'")


def _int_param(name: str, val) -> int:
    """A config number as an int: an int or an integral float of at most
    MAX_DIGITS digits passes, a bool or any other value is a config error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or (
        isinstance(val, float) and not val.is_integer()
    ):
        raise ValueError(f"parameter '{name}' must be an integer, got {val!r}")
    if len(str(abs(int(val)))) > MAX_DIGITS:
        raise ValueError(f"parameter '{name}' has more than {MAX_DIGITS} digits")
    return int(val)


def _curvature_params(config: dict) -> tuple[int, tuple[int, int]]:
    """The curvature sign delta (default 1) and the orders (m, n) (default
    (2, 2)) of a config; a delta other than 1 or -1, or an order outside
    2..MAX_JET_ORDER, is a config error."""
    params = _params(config)
    delta = _int_param("delta", params.get("delta", 1))
    if delta not in (1, -1):
        raise ValueError(f"parameter 'delta' must be 1 or -1, got {delta}")
    orders = tuple(_int_param(name, params.get(name, 2)) for name in "mn")
    for name, order in zip("mn", orders):
        if not 2 <= order <= MAX_JET_ORDER:
            raise ValueError(f"parameter '{name}' must lie in 2..{MAX_JET_ORDER}, got {order}")
    return delta, orders


def _expr_param(config: dict, name: str) -> Expr:
    params = _params(config)
    if name not in params:
        raise KeyError(f"config lacks parameter '{name}'")
    val = params[name]
    if isinstance(val, (int, float)):
        return Expr.const(_int_param(name, val))
    return _parse_config(name, val)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _config_forms(config: dict) -> tuple[PdeSystem, AssociatedForms]:
    """The system (F, G) and forms (f11 .. f32) of an explicit-forms config."""
    e = _config_exprs(config, ["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"])
    delta, orders = _curvature_params(config)
    sys_ = PdeSystem(orders, e["F"], e["G"])
    f = ((e["f11"], e["f12"]), (e["f21"], e["f22"]), (e["f31"], e["f32"]))
    return sys_, AssociatedForms(f, delta)


def cmd_verify_example(args) -> int:
    entry = catalog_entry(args.name)
    forms = entry.forms
    if args.delta is not None and args.delta != forms.delta:
        forms = AssociatedForms(forms.f, args.delta)
    report = check_lemma31(forms, entry.system)
    payload = {"example": entry.name, "delta": forms.delta, **report.as_dict()}
    if args.delta is None:
        # a passing report holds three vanishing structure residuals, so
        # "passed" already implies zero curvature
        payload["zero_curvature"] = "pass" if report.zero_curvature else "fail"
    config = {"name": args.name, "delta": args.delta}
    envelope = _report_envelope("verify example", config, payload)
    _emit(envelope, args.format, args.out, report.to_table())
    return 0 if payload["passed"] else MATH_FAILURE


def cmd_verify_lemma31(args) -> int:
    config = _load_config(args.config)
    sys_, forms = _config_forms(config)
    report = check_lemma31(forms, sys_)
    envelope = _report_envelope("verify lemma31", config, report.as_dict())
    _emit(envelope, args.format, args.out, report.to_table())
    return 0 if report.passed else MATH_FAILURE


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

# theorem -> (constructor, its input dataclass)
_BUILDERS = {
    "thm34": (build_theorem34, Thm34Input),
    "thm35": (build_theorem35, Thm34Input),
    "thm36": (build_theorem36, Thm36Input),
    "thm37": (build_theorem37, Thm36Input),
}


def cmd_build(args) -> int:
    config = _load_config(args.config)
    builder, input_type = _BUILDERS[args.theorem]
    names = [f.name for f in dataclasses.fields(input_type)]
    # the free functions precede eta; delta and the orders follow it
    fields = _config_exprs(config, names[: names.index("eta")])
    fields["eta"] = _expr_param(config, "eta")
    fields["delta"], orders = _curvature_params(config)
    if "orders" in names:
        fields["orders"] = orders
    try:
        sys_, forms, *lax = builder(input_type(**fields))
    except HypothesisViolationError as err:
        sys.stderr.write(f"hypothesis violation: {err.condition}\nresidual: {err.residual}\n")
        return MATH_FAILURE
    payload = {
        "system": {
            "F": str(sys_.F),
            "G": str(sys_.G),
            "orders": list(sys_.orders),
            "delta": forms.delta,
        },
        "forms": [[str(a), str(b)] for a, b in forms.f],
        "passed": True,
    }
    for mf in lax:  # thm36 and thm37 also return the Lax pair
        payload["lax"] = {"X": mat_strings(mf.X), "T": mat_strings(mf.T), "algebra": mf.algebra}
    envelope = _report_envelope(f"build {args.theorem}", config, payload)
    _emit(envelope, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# lax
# ---------------------------------------------------------------------------


def cmd_lax_check(args) -> int:
    config = _load_config(args.config)
    if "example" in config:
        if extra := sorted(config.keys() - {"example"}):
            raise ValueError(f"config 'example' takes no other keys, got {', '.join(map(repr, extra))}")
        entry = catalog_entry(_shaped(config["example"], str, "config 'example'"))
        mf, sys_ = entry.lax, entry.system
    else:
        sys_, forms = _config_forms(config)
        mf = from_forms(forms, config.get("algebra"))
    res = zero_curvature_residual(mf, sys_)
    ok = mat_is_zero(res)
    payload = {"passed": ok, "residual": mat_strings(res)}
    envelope = _report_envelope("lax check", config, payload)
    _emit(envelope, args.format, args.out)
    return 0 if ok else MATH_FAILURE


# ---------------------------------------------------------------------------
# ch2
# ---------------------------------------------------------------------------


def cmd_ch2(args) -> int:
    from . import chsym

    config = {
        "subcommand": args.subcommand,
        "u0": getattr(args, "u0", None),
        "eta": getattr(args, "eta", None),
        "eps": getattr(args, "eps", None),
        "grid": getattr(args, "grid", None),
        "rungs": getattr(args, "rungs", None),
    }
    if args.subcommand == "symmetry":
        tup = chsym.nonlocal_symmetry()
        rm, rn = chsym.check_symmetry_residual(tup)
        payload = {
            "residual_m": str(rm),
            "residual_n": str(rn),
            "passed": rm.is_zero() and rn.is_zero(),
        }
        table = f"residual m: {rm}\nresidual n: {rn}"
    elif args.subcommand in ("prolong", "taylor"):
        if args.subcommand == "prolong":
            res = chsym.prolongation_residuals()
        else:
            res = chsym.first_order_expansion_residuals()
        payload = {
            "residuals": {k: str(v) for k, v in sorted(res.items())},
            "passed": all(v.is_zero() for v in res.values()),
        }
        table = "\n".join(f"{k}: {v}" for k, v in sorted(res.items()))
    elif args.subcommand == "solution":
        sol = chsym.exact_solution(args.u0, args.eta, args.eps)
        from .numgrid import write_solution_csv

        out = args.out or "solution.csv"
        write_solution_csv(out, sol, _parse_grid(args.grid))
        payload = {"passed": True, "k": sol.k, "speed": sol.speed, "csv": out}
        _emit(_report_envelope("ch2 solution", config, payload), "json", None)
        return 0
    elif args.subcommand == "residual":
        sol = chsym.exact_solution(args.u0, args.eta, args.eps)
        from .numgrid import (
            SolutionSampler,
            convergence_ladder,
            fd_residual_arrays,
            write_residual_csv,
        )

        grid = _parse_grid(args.grid)
        report, (u, v) = convergence_ladder(SolutionSampler(sol), grid, rungs=args.rungs)
        # diagnostic: the same profiles read in the untransformed coordinate
        xs, ts = grid.axes(halo_x=3, halo_t=1)
        raw = fd_residual_arrays(*sol.fields(xs[:, None], ts[None, :]), grid)
        passed = report.converged()
        payload = {
            "passed": passed,
            "report": report.as_dict(),
            "untransformed_diagnostic": raw.as_dict(),
        }
        if args.format == "csv":
            out = args.out or "residual.csv"
            header = (
                f"u0={sol.u0} eta={sol.eta} eps={sol.eps} k={sol.k} "
                f"grid={args.grid}"
            )
            write_residual_csv(out, u, v, grid, header)
            sys.stdout.write(f"wrote {out}\n")
        else:
            envelope = _report_envelope("ch2 residual", config, payload)
            _emit(envelope, args.format, args.out)
        if not passed:
            sys.stderr.write(
                f"convergence gate failed: order {report.order_estimate}, "
                f"masked fraction {report.masked_fraction}\n"
            )
        return 0 if passed else MATH_FAILURE
    envelope = _report_envelope(f"ch2 {args.subcommand}", config, payload)
    _emit(envelope, args.format, args.out, table)
    return 0 if payload["passed"] else MATH_FAILURE


def _parse_grid(text: str):
    from .numgrid import Grid

    try:
        x_part, t_part = text.split(",")
        x_min, x_max, hx = (float(s) for s in x_part.split(":"))
        t_min, t_max, ht = (float(s) for s in t_part.split(":"))
    except ValueError as err:
        raise ValueError(f"bad grid '{text}': {err}") from err
    return Grid(x_min, x_max, t_min, t_max, hx, ht)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_report_flags(p: argparse.ArgumentParser, *formats: str):
    """--format, offering formats and defaulting to the first, and --out."""
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it."""
    parser = argparse.ArgumentParser(
        prog="pssurf",
        description="verify and construct PDE systems describing constant-curvature surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verification commands")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    p_ex = verify_sub.add_parser("example", help="verify a catalog entry")
    p_ex.add_argument("name")
    p_ex.add_argument("--delta", type=int, choices=[1, -1], default=None)
    _add_report_flags(p_ex, "table", "json")
    p_ex.set_defaults(func=cmd_verify_example)
    p_lm = verify_sub.add_parser("lemma31", help="verify supplied forms")
    p_lm.add_argument("--config", required=True)
    _add_report_flags(p_lm, "table", "json")
    p_lm.set_defaults(func=cmd_verify_lemma31)

    p_build = sub.add_parser("build", help="run a classification constructor")
    build_sub = p_build.add_subparsers(dest="theorem", required=True)
    for name in _BUILDERS:
        p_b = build_sub.add_parser(name)
        p_b.add_argument("--config", required=True)
        _add_report_flags(p_b, "json")
        p_b.set_defaults(func=cmd_build, theorem=name)

    p_lax = sub.add_parser("lax", help="linear-problem checks")
    lax_sub = p_lax.add_subparsers(dest="what", required=True)
    p_lc = lax_sub.add_parser("check")
    p_lc.add_argument("--config", required=True)
    _add_report_flags(p_lc, "json")
    p_lc.set_defaults(func=cmd_lax_check)

    p_ch2 = sub.add_parser("ch2", help="cubic two-component pipeline")
    ch2_sub = p_ch2.add_subparsers(dest="subcommand", required=True)
    for name in ("symmetry", "prolong", "taylor"):
        p_c = ch2_sub.add_parser(name)
        _add_report_flags(p_c, "table", "json")
        p_c.set_defaults(func=cmd_ch2, subcommand=name)
    p_sol = ch2_sub.add_parser("solution")
    p_sol.add_argument("--u0", type=float, required=True)
    p_sol.add_argument("--eta", type=float, required=True)
    p_sol.add_argument("--eps", type=float, default=1.0)
    p_sol.add_argument("--grid", default="-8:8:0.25,-1:1:0.125")
    # always a CSV to --out and a JSON summary on stdout, so no --format
    p_sol.add_argument("--out", default=None)
    p_sol.set_defaults(func=cmd_ch2, subcommand="solution")
    p_res = ch2_sub.add_parser("residual")
    p_res.add_argument("--u0", type=float, required=True)
    p_res.add_argument("--eta", type=float, required=True)
    p_res.add_argument("--eps", type=float, default=1.0)
    p_res.add_argument("--grid", default="-8:8:0.03125,-1:1:0.03125")
    p_res.add_argument("--rungs", type=int, default=3)
    # the one command with a CSV format; it prints no table
    _add_report_flags(p_res, "json", "csv")
    p_res.set_defaults(func=cmd_ch2, subcommand="residual")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as err:
        sys.stderr.write(f"domain error: {err}\n")
        return MATH_FAILURE
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as err:
        # str() of a KeyError is the repr of its message, quotes included
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        sys.stderr.write(f"error: {message}\n")
        return USAGE_ERROR
    except KernelError as err:
        sys.stderr.write(f"error: {err}\n")
        return MATH_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
