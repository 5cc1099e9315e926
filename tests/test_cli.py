"""Command-line interface tests: exit codes, reports, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pssurf.classify import catalog_entry
from pssurf.cli import main, make_parser
from test_golden import CASES, CSV_CASES, GOLDEN


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _python(*args):
    """A fresh interpreter run with args, importing this checkout's pssurf."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_import_leaves_numpy_unloaded():
    # DomainError lives in the kernel so that the CLI can catch it without
    # importing the numeric modules, which bind numpy
    run = _python("-c", "import sys, pssurf.cli; print('numpy' in sys.modules)")
    assert (run.stdout, run.stderr) == ("False\n", "")


def _numpy_submodules_script(body):
    """A fresh-interpreter script: body, then the loaded numpy.* submodules
    written to stderr.  chsym binds numpy as a stub that executes on first
    attribute access, so a process that never touches an array may hold
    'numpy' itself but none of its submodules."""
    return (
        f"import sys\n{body}\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('numpy.'))))\n"
    )


class TestLazyNumpy:
    def test_symbolic_state_leaves_numpy_unexecuted(self):
        # every layer imported and the state a CLI call builds lazily: the
        # catalog, the CH2 system and the compiled flow generator
        run = _python("-c", _numpy_submodules_script(
            "from pssurf import chsym, classify, cli, forms, jetcalc, kernel, laxzoo, numgrid\n"
            "classify.catalog()\n"
            "chsym.ch2_system()\n"
            "chsym.flow_derivative(chsym.seed_state(0.75, 1.0))\n"
            "print('numpy' in sys.modules)"
        ))
        assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "[]")

    @pytest.mark.parametrize("sub", ["symmetry", "prolong", "taylor"])
    def test_symbolic_commands_leave_numpy_unexecuted(self, sub):
        run = _python(
            "-c",
            _numpy_submodules_script("from pssurf.cli import main\ncode = main(sys.argv[1:])")
            + "raise SystemExit(code)\n",
            "ch2", sub, "--format", "json",
        )
        assert run.returncode == 0
        assert run.stdout == (GOLDEN / f"ch2_{sub}.json").read_text(encoding="utf-8")
        assert run.stderr == "[]"

    def test_numeric_commands_match_goldens_on_first_array_use(self, tmp_path):
        # in a fresh interpreter numpy is first executed inside ch2 residual
        # and ch2 solution; the outputs are the goldens byte for byte
        (residual_argv,) = [argv for stem, argv, _ in CASES if stem == "ch2_residual"]
        run = _python("-m", "pssurf.cli", *residual_argv, "--format", "json")
        expected = (GOLDEN / "ch2_residual.json").read_text(encoding="utf-8")
        assert (run.returncode, run.stdout, run.stderr) == (0, expected, "")
        (solution_argv,) = [argv for name, argv in CSV_CASES if name == "ch2_solution.csv"]
        out = tmp_path / "sol.csv"
        run = _python("-m", "pssurf.cli", *solution_argv, "--out", str(out))
        assert (run.returncode, run.stderr) == (0, "")
        expected = (GOLDEN / "ch2_solution.csv").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "example", "song-qu-qiao"],
        ["verify", "lemma31", "--config", "forms.json"],
        ["build", "thm34", "--config", "data.json"],
        ["lax", "check", "--config", "lax.json"],
        *[["ch2", sub] for sub in ("symmetry", "prolong", "taylor")],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_csv_format_only_where_a_csv_is_written(argv):
    # these commands write no CSV, so --format csv is a usage error
    code, out, err = run_cli([*argv, "--format", "csv"])
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'csv'" in err


@pytest.mark.parametrize(
    "argv",
    [
        *[["build", thm, "--config", "data.json"] for thm in ("thm34", "thm35", "thm36", "thm37")],
        ["lax", "check", "--config", "lax.json"],
        ["ch2", "residual", "--u0", "0.75", "--eta", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_table_format_only_where_a_table_is_printed(argv):
    # these commands print no table, so --format table is a usage error
    code, out, err = run_cli([*argv, "--format", "table"])
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'table'" in err


@pytest.mark.parametrize(
    "stem, argv",
    [
        pytest.param(stem, argv, id=stem)
        for stem, argv, _ in CASES
        if stem.startswith("build_") or stem == "ch2_residual"
    ],
)
def test_json_is_the_default_where_no_table_is_printed(stem, argv):
    code, out, _ = run_cli(argv)
    assert (code, out) == (0, (GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))


def _thm35_config(**changes):
    config = json.loads((GOLDEN / "build_thm35_plus.config.json").read_text(encoding="utf-8"))
    return {**config, **changes}


_FORMS_EXPRESSIONS = dict.fromkeys(["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"], "u")


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["build", "thm35"], ["x"], "config must be an object"),
        (["build", "thm35"], _thm35_config(expressions=["g", "h", "L", "M"]),
         "config 'expressions' must be an object"),
        (["build", "thm35"],
         _thm35_config(expressions={**_thm35_config()["expressions"], "g": 3}),
         "config value 'g' must be a string"),
        (["build", "thm35"], _thm35_config(params=["eta"]), "config 'params' must be an object"),
        (["verify", "lemma31"], {"expressions": _FORMS_EXPRESSIONS, "params": []},
         "config 'params' must be an object"),
        (["lax", "check"], {"example": ["a"]}, "config 'example' must be a string"),
        # an example's own packing and curvature sign are used, so a key
        # beside it would be ignored
        (["lax", "check"], {"example": "mch-type", "algebra": "foo"},
         "config 'example' takes no other keys, got 'algebra'"),
        (["lax", "check"], {"params": {"delta": -1}, "example": "mch-type", "a\nb": 1},
         "config 'example' takes no other keys, got 'a\\nb', 'params'"),
    ],
    ids=["top-level-array", "expressions-array", "expression-number", "params-array",
         "lemma31-params-array", "example-array", "example-extra-key", "example-extra-keys"],
)
def test_malformed_config_shapes_are_usage_errors(tmp_path, command, config, message):
    # shapes are checked where the config is read, so no AttributeError or
    # TypeError escapes as a traceback with exit 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [*command, "--config", str(path)]
    fresh = _python("-m", "pssurf.cli", *argv)
    expected = (2, "", f"error: {message}\n")
    assert run_cli(argv) == expected
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected


_NESTED = "[" * 100_000 + "]" * 100_000
# six factors of this sum expanded to 100 947 terms
_EIGHTEEN_ATOMS = "(x + t + z + u + u1 + u2 + u3 + u4 + u5 + u6 + v + v1 + v2 + v3 + v4 + v5 + v6 + eta)"


def _with_long_number(config: dict) -> str:
    """The config as JSON text, its "LONG" string replaced by a 5000-digit
    number, which json.dumps itself cannot write."""
    return json.dumps(config).replace('"LONG"', "9" * 5000)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "g": "u^256"})), "exponent 256 of u exceeds 255"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "g": "(u+v+eta+u1+x+t)^20"})),
         "a power 20 of 6 terms may exceed 10000 terms"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "g": "u^99999999999999999999"})),
         "exponent 99999999999999999999 of u exceeds 255"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "9" * 5000})),
         "a number of 5000 digits exceeds 300 digits (at byte 0)"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "u1^" + "9" * 5000})),
         "a number of 5000 digits exceeds 300 digits (at byte 3)"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "3^100000*u1 + v"})),
         "a power 100000 may have coefficients of more than 300 digits"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "3^1000000000"})),
         "a power 1000000000 may have coefficients of more than 300 digits"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "*".join(["3^628"] * 1600)})),
         "a coefficient has more than 300 digits"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "3^628+3^628+3^628+3^628+u1"})),
         "a coefficient has more than 300 digits"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "*".join([_EIGHTEEN_ATOMS] * 6)})),
         "a product may exceed 10000 terms"),
        (["build", "thm35"], json.dumps(_thm35_config(expressions={
            **_thm35_config()["expressions"], "L": "(exp(300*x) - 1)/(exp(x) - 1)"})),
         "exponent 300 of exp(x) exceeds 255"),
        (["build", "thm35"], _NESTED, "config nests too deeply"),
        (["verify", "lemma31"], _NESTED, "config nests too deeply"),
        (["lax", "check"], _NESTED, "config nests too deeply"),
        (["build", "thm35"], _with_long_number(_thm35_config(params={"m": "LONG"})),
         "config number has more than 300 digits"),
        (["verify", "lemma31"], _with_long_number({"expressions": _FORMS_EXPRESSIONS, "params": {"delta": "LONG"}}),
         "config number has more than 300 digits"),
        (["lax", "check"], _with_long_number({"example": "mch-type", "params": {"delta": "LONG"}}),
         "config number has more than 300 digits"),
    ],
    ids=["exponent-bound", "term-bound", "huge-exponent", "long-literal", "long-exponent",
         "constant-power", "constant-power-huge", "constant-product", "constant-sum",
         "product-terms", "exponential-lattice", "nested-build", "nested-lemma31",
         "nested-lax", "long-number-build", "long-number-lemma31", "long-number-lax"],
)
def test_configs_past_a_bound_are_quick_usage_errors(tmp_path, command, text, message):
    # rejected before anything is expanded: (u+v+eta+u1+x+t)^20 took 11 s
    # and 53130 terms, 3^1000000 took 0.15 s, a product of 1600 factors
    # 3^628 took 1.9 s and exited 1, the nested file raised RecursionError,
    # and a 5000-digit number raised the interpreter's ValueError on
    # int-from-string, in an expression or as a config number
    path = tmp_path / "config.json"
    path.write_text(text)
    argv = [*command, "--config", str(path)]
    start = time.perf_counter()
    got = run_cli(argv)
    assert time.perf_counter() - start < 0.1
    fresh = _python("-m", "pssurf.cli", *argv)
    expected = (2, "", f"error: {message}\n")
    assert got == expected
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected


def test_exponent_bound_broken_in_the_mathematics_exits_one(tmp_path):
    # the config parses; the wedge products of the forms pass the bound
    exprs = {**_FORMS_EXPRESSIONS, "f11": "u^200", "f22": "u^100"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"expressions": exprs}))
    for command in (["verify", "lemma31"], ["lax", "check"]):
        code, out, err = run_cli([*command, "--config", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: exponent ") and err.endswith(" exceeds 255\n")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, exprs, params, message",
    [
        # X00*T00 = u^300/4 cancels in [X, T] and is not formed; D_t X00 fails first
        (["lax", "check"], {"f21": "u^200", "f22": "u^100"}, {},
         "t-derivative not locally expressible: u + u2 pairing fails"),
        # every wedge product is formed before any derivative, so f31*f22
        # breaks the bound before D_t f11 meets u5
        (["verify", "lemma31"],
         {"f11": "u - u2 + u5", "f12": "v", "f21": "v - v2", "f22": "u^100", "f31": "(u - u2)^200",
          "f32": "v1", "F": "u", "G": "v"}, {"m": 3, "n": 3}, "exponent 300 of u exceeds 255"),
    ],
    ids=["lax-check-derivative-first", "lemma31-wedges-first"],
)
def test_first_reported_error_of_the_residuals(tmp_path, command, exprs, params, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"expressions": {**_FORMS_EXPRESSIONS, **exprs}, "params": params}))
    assert run_cli([*command, "--config", str(path)]) == (1, "", f"error: {message}\n")


def test_coefficient_bound_broken_in_the_mathematics_exits_one(tmp_path):
    # each form parses under the digit bound; the wedge products print a
    # coefficient 10^598, past it
    exprs = {**_FORMS_EXPRESSIONS, "f11": "10^299*u", "f22": "10^299*u"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"expressions": exprs}))
    argv = ["verify", "lemma31", "--config", str(path)]
    start = time.perf_counter()
    got = run_cli(argv)
    assert time.perf_counter() - start < 0.1
    fresh = _python("-m", "pssurf.cli", *argv)
    expected = (1, "", "error: a coefficient has more than 300 digits\n")
    assert got == expected
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_solution_takes_no_format(fmt, tmp_path):
    # ch2 solution always writes its CSV and a JSON summary, so --format is unknown
    out = tmp_path / "sol.csv"
    code, stdout, err = run_cli(
        ["ch2", "solution", "--u0", "0.75", "--eta", "1", "--format", fmt, "--out", str(out)]
    )
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --format" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_one_parser_serves_every_command_of_a_process():
    # the parser is built once per process; after a usage error, later
    # commands must exit and print exactly as in a fresh interpreter
    commands = [
        ["verify", "example", "song-qu-qiao", "--delta", "2"],
        ["verify", "example", "mch-type", "--delta", "1", "--format", "json"],
        ["ch2", "taylor", "--format", "json"],
        ["build"],
        ["verify", "example", "song-qu-qiao"],
    ]
    in_process = [run_cli(argv) for argv in commands]
    fresh = [_python("-m", "pssurf.cli", *argv) for argv in commands]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in in_process] == [2, 1, 0, 2, 0]
    assert make_parser() is make_parser()


class TestVerify:
    def test_catalog_entry_passes(self):
        code, out, _ = run_cli(["verify", "example", "song-qu-qiao"])
        assert code == 0
        assert "overall: pass" in out

    def test_unknown_entry_is_usage_error(self):
        code, _, err = run_cli(["verify", "example", "unknown-system"])
        assert code == 2
        assert "unknown" in err

    def test_unknown_entry_message_is_unquoted(self):
        code, out, err = run_cli(["verify", "example", "nosuch"])
        assert (code, out, err) == (2, "", "error: unknown catalog entry 'nosuch'\n")

    def test_wrong_curvature_sign_fails(self):
        code, _, _ = run_cli(["verify", "example", "mch-type", "--delta", "1"])
        assert code == 1

    def test_spherical_entry_passes_as_stored(self):
        code, _, _ = run_cli(["verify", "example", "mch-type"])
        assert code == 0

    def test_json_report_fields(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify", "example", "cubic-ch2", "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["passed"] is True
        assert data["zero_curvature"] == "pass"
        assert data["tool_version"]
        assert len(data["config_sha256"]) == 64
        ids = {c["condition_id"] for c in data["conditions"]}
        assert "metric-nondegenerate" in ids

    def test_lemma31_from_config(self, tmp_path):
        entry_cfg = {
            "expressions": {
                "f11": "1/2*eta*((v-v2)-(u-u2))",
                "f12": "1/(2*eta)*((v+v1)-(u-u1))",
                "f21": "1",
                "f22": "1/eta^2 + 1/2*(u-u1)*(v+v1)",
                "f31": "-1/2*eta*((u-u2)+(v-v2))",
                "f32": "-1/(2*eta)*((u-u1)+(v+v1))",
                "F": "-1/2*(u-u2)*(u-u1)*(v+v1)",
                "G": "1/2*(v-v2)*(u-u1)*(v+v1)",
            },
            "params": {"delta": 1, "m": 2, "n": 2},
        }
        cfg = tmp_path / "forms.json"
        cfg.write_text(json.dumps(entry_cfg))
        code, out, _ = run_cli(["verify", "lemma31", "--config", str(cfg)])
        assert code == 0

    def test_lemma31_delta_outside_unit_signs_is_usage_error(self, tmp_path):
        cfg = tmp_path / "forms.json"
        exprs = dict.fromkeys(["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"], "u")
        cfg.write_text(json.dumps({"expressions": exprs, "params": {"delta": 0}}))
        code, out, err = run_cli(["verify", "lemma31", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "error: parameter 'delta' must be 1 or -1, got 0\n"

    def test_lemma31_parse_error_offset_counts_bytes(self, tmp_path):
        # the no-break space is one character and two UTF-8 bytes
        cfg = tmp_path / "forms.json"
        exprs = {**dict.fromkeys(["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"], "u"), "f12": "x\u00a0*("}
        cfg.write_text(json.dumps({"expressions": exprs, "params": {"delta": 1}}))
        code, out, err = run_cli(["verify", "lemma31", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "error: expected expression (at byte 5)\n"

    @pytest.mark.parametrize("name, value", [("delta", 1.9), ("m", 3.7), ("n", True)])
    def test_lemma31_non_integral_parameter_is_usage_error(self, tmp_path, name, value):
        # int() used to truncate 1.9 to 1 and take true as 1
        cfg = tmp_path / "forms.json"
        exprs = dict.fromkeys(["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"], "u")
        cfg.write_text(json.dumps({"expressions": exprs, "params": {name: value}}))
        code, out, err = run_cli(["verify", "lemma31", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: parameter '{name}' must be an integer, got {value!r}\n"


class TestBuild:
    def _cubic_config(self, tmp_path):
        cfg = {
            "expressions": {
                "g": "1/2*eta*(m - n)",
                "h": "-1/2*eta*(m + n)",
                "L": "1/4*eta*(u*v - u1*v1)*(m - n) + 1/(2*eta)*((u-u1)-(v+v1))",
                "M": "-1/eta^2 - 1/2*(u*v - u1*v1 + u*v1 - u1*v)",
            },
            "params": {"eta": -1, "delta": 1, "m": 3, "n": 3},
        }
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_thm34_reproduces_cubic_flow(self, tmp_path):
        cfg = self._cubic_config(tmp_path)
        out_path = tmp_path / "built.json"
        code, _, _ = run_cli(
            ["build", "thm34", "--config", str(cfg), "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        from pssurf.classify import catalog_entry
        from pssurf.kernel import parse

        entry = catalog_entry("cubic-ch2")
        assert parse(data["system"]["F"]) == entry.system.F
        assert parse(data["system"]["G"]) == entry.system.G

    def test_reports_are_deterministic(self, tmp_path):
        cfg = self._cubic_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["build", "thm34", "--config", str(cfg), "--format", "json", "--out", str(a)])
        run_cli(["build", "thm34", "--config", str(cfg), "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_wronskian_exits_one(self, tmp_path):
        cfg = json.loads(self._cubic_config(tmp_path).read_text())
        cfg["expressions"]["h"] = cfg["expressions"]["g"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(["build", "thm34", "--config", str(path)])
        assert code == 1
        assert "wronskian" in err

    def test_thm36_constraint_violation_exits_one(self, tmp_path):
        cfg = {
            "expressions": {
                "g": "m", "h": "n", "A": "1",
                "L1": "v1", "N1": "u1", "M": "u*v",
            },
            "params": {"eta": 1, "delta": 1},
        }
        path = tmp_path / "bad36.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(["build", "thm36", "--config", str(path)])
        assert code == 1

    def test_missing_config_is_usage_error(self):
        code, _, _ = run_cli(["build", "thm34", "--config", "/nonexistent.json"])
        assert code == 2

    def test_missing_parameter_and_expressions_messages_are_unquoted(self, tmp_path):
        cfg = json.loads(self._cubic_config(tmp_path).read_text())
        del cfg["params"]["eta"]
        path = tmp_path / "no-eta.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["build", "thm34", "--config", str(path)])
        assert (code, out, err) == (2, "", "error: config lacks parameter 'eta'\n")
        del cfg["expressions"]["g"], cfg["expressions"]["M"]
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["build", "thm34", "--config", str(path)])
        assert (code, out, err) == (2, "", "error: config lacks expressions: g, M\n")

    def _write(self, tmp_path, expressions, **params):
        cfg = json.loads(self._cubic_config(tmp_path).read_text())
        cfg["expressions"].update(expressions)
        cfg["params"].update(params)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"delta": 0}, "parameter 'delta' must be 1 or -1, got 0"),
            ({"delta": 2}, "parameter 'delta' must be 1 or -1, got 2"),
            ({"m": 100}, "parameter 'm' must lie in 2..12, got 100"),
            ({"n": 1}, "parameter 'n' must lie in 2..12, got 1"),
        ],
        ids=["delta-0", "delta-2", "m-100", "n-1"],
    )
    def test_curvature_sign_and_orders_out_of_range_are_usage_errors(
        self, tmp_path, params, message
    ):
        path = self._write(tmp_path, {}, **params)
        code, out, err = run_cli(["build", "thm34", "--config", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"delta": 1.9}, "parameter 'delta' must be an integer, got 1.9"),
            ({"delta": True}, "parameter 'delta' must be an integer, got True"),
            ({"m": 3.7}, "parameter 'm' must be an integer, got 3.7"),
            ({"n": False}, "parameter 'n' must be an integer, got False"),
            ({"n": "3"}, "parameter 'n' must be an integer, got '3'"),
        ],
        ids=["delta-1.9", "delta-true", "m-3.7", "n-false", "n-string"],
    )
    def test_non_integral_curvature_sign_and_orders_are_usage_errors(
        self, tmp_path, params, message
    ):
        # int() used to build thm34 at delta 1 and order 3 from 1.9 and 3.7
        path = self._write(tmp_path, {}, **params)
        code, out, err = run_cli(["build", "thm34", "--config", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integral_float_parameters_pass(self, tmp_path):
        path = self._write(tmp_path, {}, delta=1.0, m=3.0, n=3.0)
        code, out, _ = run_cli(["build", "thm34", "--config", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["system"]["orders"] == [3, 3]

    @pytest.mark.parametrize(
        "eta, expected",
        [
            (1e300, (2, "", "error: parameter 'eta' has more than 300 digits\n")),
            ("LONG", (2, "", "error: config number has more than 300 digits\n")),
            (1e299, 0),
        ],
        ids=["float-301-digits", "literal-301-digits", "float-300-digits"],
    )
    def test_a_spectral_constant_past_the_digit_bound_is_a_usage_error(self, tmp_path, eta, expected):
        # 1e300 is an integral float of 301 digits: it used to become the
        # constant and fail in the mathematics, exit 1, where the 301-digit
        # literal is a config error; a 300-digit constant builds
        cfg = json.loads(self._cubic_config(tmp_path).read_text())
        cfg["params"]["eta"] = eta
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg).replace('"LONG"', "1" + "0" * 300))
        got = run_cli(["build", "thm34", "--config", str(path)])
        assert (got if isinstance(expected, tuple) else got[0]) == expected

    def test_kernel_failure_in_the_mathematics_exits_one(self, tmp_path):
        path = self._write(tmp_path, {"L": "u11", "M": "u12 + v"}, m=12)
        code, _, err = run_cli(["build", "thm35", "--config", str(path)])
        assert code == 1
        assert err == "error: jet order overflow promoting u12\n"

    def test_expression_that_does_not_parse_is_usage_error(self, tmp_path):
        path = self._write(tmp_path, {"g": "u - u2 +"})
        code, _, err = run_cli(["build", "thm35", "--config", str(path)])
        assert code == 2
        assert err == "error: expected expression (at byte 8)\n"

    def test_deeply_nested_expression_is_usage_error(self, tmp_path):
        path = self._write(tmp_path, {"g": "(" * 198 + "u - u2" + ")" * 198})
        code, _, err = run_cli(["build", "thm35", "--config", str(path)])
        assert code == 2
        assert err == "error: expression nested too deeply (at byte 50)\n"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "pssurf.cli", "build", "thm35", "--config", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 2
        assert run.stderr == "error: expression nested too deeply (at byte 50)\n"

    def test_hypothesis_text_independent_of_hash_seed(self, tmp_path):
        # the residual lists problems in jet order, not in set order (which
        # follows the string hash seed)
        cfg = {
            "expressions": {"g": "u1 + u3 + v1 + v3", "h": "v - v2", "L": "u1", "M": "u + v"},
            "params": {"eta": "eta", "delta": 1, "m": 3, "n": 3},
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            runs.append(subprocess.run(
                [sys.executable, "-m", "pssurf.cli", "build", "thm35", "--config", str(path)],
                capture_output=True, env=env, timeout=300,
            ))
        assert [r.returncode for r in runs] == [1, 1]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr.decode().endswith(
            "residual: depends on u1; depends on u3; depends on v1; depends on v3\n"
        )


class TestLax:
    def test_by_example(self, tmp_path):
        cfg = tmp_path / "lax.json"
        cfg.write_text(json.dumps({"example": "skew-ch2"}))
        code, _, _ = run_cli(["lax", "check", "--config", str(cfg), "--format", "json"])
        assert code == 0

    def test_from_forms_table(self, tmp_path):
        cfg = {
            "expressions": {
                "f11": "1/2*eta*((v-v2)-(u-u2))",
                "f12": "1/(2*eta)*((v+v1)-(u-u1))",
                "f21": "1",
                "f22": "1/eta^2 + 1/2*(u-u1)*(v+v1)",
                "f31": "-1/2*eta*((u-u2)+(v-v2))",
                "f32": "-1/(2*eta)*((u-u1)+(v+v1))",
                "F": "-1/2*(u-u2)*(u-u1)*(v+v1)",
                "G": "1/2*(v-v2)*(u-u1)*(v+v1)",
            },
            "params": {"delta": 1, "m": 2, "n": 2},
        }
        path = tmp_path / "laxforms.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(["lax", "check", "--config", str(path), "--format", "json"])
        assert code == 0

    @pytest.mark.parametrize("algebra, expected", [(None, 0), ("su2", 0), ("sl2", 1)])
    def test_spherical_forms_pack_by_their_sign(self, tmp_path, algebra, expected):
        # without an algebra key the sign of the forms chooses the packing,
        # as for the catalog entries; sl2 does not close on spherical forms
        entry = catalog_entry("mch-type")
        names = ("f11", "f12", "f21", "f22", "f31", "f32")
        exprs = dict(zip(names, (str(e) for pair in entry.forms.f for e in pair)))
        exprs.update(F=str(entry.system.F), G=str(entry.system.G))
        cfg = {"expressions": exprs, "params": {"delta": -1, "m": 3, "n": 3}}
        if algebra is not None:
            cfg["algebra"] = algebra
        path = tmp_path / "spherical.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["lax", "check", "--config", str(path)])
        assert code == expected
        assert json.loads(out)["passed"] is (expected == 0)


class TestCh2:
    def test_symmetry_prints_zero_residuals(self):
        code, out, _ = run_cli(["ch2", "symmetry"])
        assert code == 0
        assert out.count("0") >= 2

    def test_taylor(self):
        code, _, _ = run_cli(["ch2", "taylor", "--format", "json"])
        assert code == 0

    def test_prolong(self):
        code, out, _ = run_cli(["ch2", "prolong"])
        assert code == 0
        assert "pseudo-potential-x: 0" in out

    def test_residual_csv_export(self, tmp_path):
        path = tmp_path / "residual.csv"
        code, out, _ = run_cli(
            [
                "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-4:4:0.125,-1:1:0.125", "--rungs", "3",
                "--format", "csv", "--out", str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "x,t,u,v,residual_1,residual_2"
        assert len(lines) > 100

    def test_residual_report_includes_diagnostic(self, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = run_cli(
            [
                "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-4:4:0.0625,-1:1:0.0625", "--rungs", "3",
                "--format", "json", "--out", str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        # reading the profile in the untransformed coordinate is not a
        # solution; its residual dwarfs the transformed-coordinate one
        diag = data["untransformed_diagnostic"]
        assert max(diag["l2_norms"]) > 10 * max(data["report"]["l2_norms"])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_residual_gate_failure_exits_1(self, tmp_path, monkeypatch, fmt):
        from pssurf import numgrid

        def failing_ladder(sampler, grid, rungs=3):
            u, v, _, _ = sampler.sample(grid)
            report = numgrid.ResidualReport(
                grid, (1.0, 1.0), (1.0, 1.0), 0.0, order_estimate=0.9
            )
            return report, (u, v)

        monkeypatch.setattr(numgrid, "convergence_ladder", failing_ladder)
        out_path = tmp_path / f"res.{fmt}"
        code, _, err = run_cli(
            [
                "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-2:2:0.125,-1:1:0.125", "--format", fmt, "--out", str(out_path),
            ]
        )
        assert code == 1
        assert "convergence gate failed" in err
        if fmt == "json":
            assert json.loads(out_path.read_text())["passed"] is False

    def test_all_zero_norms_report_is_strict_json(self):
        # at eps = 1e-300 the solution is the constant seed to the last bit,
        # so every rung's norms are 0 and the fitted order is infinite
        code, out, err = run_cli(
            ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1e-300",
             "--grid=-4:4:0.125,-1:1:0.125", "--format", "json"]
        )
        assert code == 1
        assert err == "convergence gate failed: order inf, masked fraction 0.0\n"

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        data = json.loads(out, parse_constant=reject)
        assert data["passed"] is False
        assert data["report"]["order_estimate"] is None
        assert data["report"]["l2_norms"] == [0.0, 0.0]

    def test_residual_csv_inverts_each_rung_once(self, tmp_path, monkeypatch):
        # the CSV export writes rung 1's samples instead of inverting again
        from pssurf import numgrid

        nodes = []
        invert = numgrid.invert_grid

        def counting(*args):
            x = invert(*args)
            nodes.append(x.size)
            return x

        monkeypatch.setattr(numgrid, "invert_grid", counting)
        code, _, _ = run_cli(
            [
                "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-4:4:0.125,-1:1:0.125", "--rungs", "3",
                "--format", "csv", "--out", str(tmp_path / "residual.csv"),
            ]
        )
        assert code == 0
        assert nodes == [1349, 4725, 17621]

    @pytest.mark.parametrize("param", ["--u0", "--eta", "--eps"])
    def test_nan_parameter_is_domain_error(self, tmp_path, param):
        params = {"--u0": "0.75", "--eta": "1", "--eps": "1", param: "nan"}
        argv = [token for pair in params.items() for token in pair]
        sol = tmp_path / "sol.csv"
        code, out, err = run_cli(["ch2", "solution", *argv, "--out", str(sol)])
        assert (code, out) == (1, "")
        assert err.startswith("domain error: ")
        assert not sol.exists()
        res = tmp_path / "res.json"
        code, out, err = run_cli(
            ["ch2", "residual", *argv, "--grid=-2:2:0.125,-1:1:0.125",
             "--format", "json", "--out", str(res)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("domain error: ")
        assert not res.exists()

    def test_solution_csv_and_header(self, tmp_path):
        path = tmp_path / "sol.csv"
        code, out, _ = run_cli(
            [
                "ch2", "solution", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-2:2:0.25,-1:1:0.125", "--out", str(path),
            ]
        )
        assert code == 0
        assert "k=0.5" in path.read_text().splitlines()[0]
        report = json.loads(out)
        assert report["k"] == pytest.approx(0.5)

    def test_malformed_grid_is_usage_error(self):
        code, _, err = run_cli(
            ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--grid", "bad"]
        )
        assert code == 2
        assert "bad grid 'bad'" in err

    @pytest.mark.parametrize("subcommand", ["residual", "solution"])
    @pytest.mark.parametrize(
        "grid, message",
        [
            ("-8:inf:0.03125,-1:1:0.03125", "grid bounds and spacings must be finite"),
            ("-inf:8:0.03125,-1:1:0.03125", "grid bounds and spacings must be finite"),
            ("-8:8:nan,-1:1:0.03125", "grid bounds and spacings must be finite"),
            ("-1e308:1e308:1,-1:1:0.125", "grid spans more steps than a float holds"),
            ("-8:8:1e-320,-1:1:0.125", "grid spans more steps than a float holds"),
        ],
    )
    def test_non_finite_grid_is_usage_error(self, subcommand, grid, message, tmp_path):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["ch2", subcommand, "--u0", "0.75", "--eta", "1", f"--grid={grid}", "--out", str(out)]
        )
        assert code == 2
        assert "Traceback" not in err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rungs", ["0", "-1"])
    def test_residual_without_rungs_is_usage_error(self, rungs):
        code, _, err = run_cli(
            ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--rungs", rungs]
        )
        assert code == 2
        assert "error: need at least one rung" in err

    def test_oversize_ladder_is_usage_error(self, monkeypatch):
        from pssurf import numgrid

        def never_sample(self, grid, halo_x=3, halo_t=1):
            raise AssertionError("sampled an oversize ladder")

        monkeypatch.setattr(numgrid.SolutionSampler, "sample", never_sample)
        code, _, err = run_cli(
            ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--rungs", "5"]
        )
        assert code == 2
        assert "above the limit" in err

    def test_oversize_solution_grid_is_usage_error(self, tmp_path, monkeypatch):
        from pssurf import numgrid

        def never_sample(self, grid, halo_x=3, halo_t=1):
            raise AssertionError("sampled an oversize grid")

        monkeypatch.setattr(numgrid.SolutionSampler, "sample", never_sample)
        out = tmp_path / "sol.csv"
        code, _, err = run_cli(
            [
                "ch2", "solution", "--u0", "0.75", "--eta", "1",
                "--grid=-8:8:1e-4,-1:1:1e-4", "--out", str(out),
            ]
        )
        assert code == 2
        assert err == (
            "error: solution grid needs 3200180001 nodes, above the limit of 4194304\n"
        )
        assert not out.exists()

    def test_coth_branch_solution_is_math_failure(self, tmp_path):
        # for eps < 0 x_tilde turns back between two poles: no single-valued
        # profile in the transformed coordinate; the poles raise no numpy
        # warnings on the way, so stderr holds the one error line
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [
                sys.executable, "-m", "pssurf.cli", "ch2", "solution", "--u0", "0.75", "--eta", "1",
                "--eps", "-1", "--out", str(tmp_path / "sol.csv"),
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr == "domain error: coordinate map is not monotone over the bracket\n"

    def test_coth_branch_residual_is_math_failure(self, tmp_path):
        out = tmp_path / "res.json"
        run = _python(
            "-m", "pssurf.cli", "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "-1",
            "--format", "json", "--out", str(out),
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "domain error: coordinate map is not monotone over the bracket\n"
        assert not out.exists()

    def test_solution_domain_error(self):
        code, _, err = run_cli(["ch2", "solution", "--u0", "2", "--eta", "1"])
        assert code == 1
        assert "must be positive" in err

    def test_residual_report(self, tmp_path):
        out_path = tmp_path / "residual.json"
        code, _, _ = run_cli(
            [
                "ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                "--grid=-4:4:0.0625,-1:1:0.0625", "--rungs", "3",
                "--format", "json", "--out", str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert abs(data["report"]["order_estimate"] - 2.0) < 0.3
