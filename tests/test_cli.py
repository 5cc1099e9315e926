"""Command-line interface tests: exit codes, reports, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pssurf.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestVerify:
    def test_catalog_entry_passes(self):
        code, out, _ = run_cli(["verify", "example", "song-qu-qiao"])
        assert code == 0
        assert "overall: pass" in out

    def test_unknown_entry_is_usage_error(self):
        code, _, err = run_cli(["verify", "example", "unknown-system"])
        assert code == 2
        assert "unknown" in err

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
