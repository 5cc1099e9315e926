"""Finite-difference oracle and coordinate-inversion tests."""

import io

import numpy as np
import pytest

from pssurf import chsym, numgrid
from pssurf.numgrid import (
    Grid,
    NonMonotoneError,
    OutOfRangeError,
    SolutionSampler,
    convergence_ladder,
    fd_residual_arrays,
    invert_grid,
)


def _base_grid(h=2**-5):
    return Grid(-8.0, 8.0, -1.0, 1.0, h, h)


class TestGrid:
    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0.0, 1.0, 0.25, 0.25)

    def test_refinement(self):
        g = _base_grid()
        assert g.refined().hx == g.hx / 2
        assert g.refined().nx == 2 * (g.nx - 1) + 1


class TestStencils:
    def test_exact_on_quadratics(self):
        g = _base_grid()
        xs, ts = g.axes(halo_x=3, halo_t=1)
        X, T = np.meshgrid(xs, ts, indexing="ij")
        # constant-in-time quadratic fields sit in the stencils' null space
        u = 0.75 + 0.0 * X
        v = np.ones_like(X)
        rep = fd_residual_arrays(u, v, g)
        assert max(rep.max_norms) == 0.0
        assert rep.masked_fraction == 0.0

    def test_polynomial_derivatives_to_rounding(self):
        g = _base_grid()
        xs, _ = g.axes()
        F = (2.0 + 0.5 * xs - 0.25 * xs**2)[:, None] * np.ones((1, 5))
        d1 = numgrid._stencil_dx(F, g.hx, 1)
        expected = (0.5 - 0.5 * xs[1:-1])[:, None]
        assert np.max(np.abs(d1 - expected)) < 1e-11
        d2 = numgrid._stencil_dx(F, g.hx, 2)
        assert np.max(np.abs(d2 + 0.5)) < 1e-9


def _bisect_grid(x_tilde_of, targets, ts, pad=4.0):
    """Oracle: the same bracketing as invert_grid, then 70 plain bisection
    steps on every node."""
    T, TT = np.meshgrid(targets, ts, indexing="ij")
    lo, hi = T - pad, T + pad
    flo, fhi = x_tilde_of(lo, TT) - T, x_tilde_of(hi, TT) - T
    for _ in range(13):
        bad = np.sign(flo) == np.sign(fhi)
        if not bad.any():
            break
        lo, hi = np.where(bad, lo - pad, lo), np.where(bad, hi + pad, hi)
        flo, fhi = x_tilde_of(lo, TT) - T, x_tilde_of(hi, TT) - T
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        fm = x_tilde_of(mid, TT) - T
        take_lo = np.sign(fm) == np.sign(flo)
        lo, flo = np.where(take_lo, mid, lo), np.where(take_lo, fm, flo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


class BisectionSampler(SolutionSampler):
    """SolutionSampler with the coordinate inversion done by the oracle."""

    def sample(self, grid, halo_x=3, halo_t=1):
        xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
        X = _bisect_grid(self.sol.x_tilde, xs, ts)
        TT = np.meshgrid(xs, ts, indexing="ij")[1]
        return self.sol.u_tilde(X, TT), self.sol.v_tilde(X, TT), X, TT


def _ident(x, t):
    return x


def _unit_slope(x, t):
    return np.ones_like(x)


def _invert_point(x_tilde_of, dx_tilde_of, t, target):
    return float(invert_grid(x_tilde_of, dx_tilde_of, np.array([target]), np.array([t]))[0, 0])


class TestInversion:
    def test_identity_map(self):
        assert _invert_point(_ident, _unit_slope, 0.0, 1.25) == pytest.approx(1.25)

    def test_round_trip(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        for target in (-5.0, -1.0, 0.0, 2.0, 6.0):
            xv = _invert_point(sol.x_tilde, sol.dx_tilde, 0.5, target)
            assert float(sol.x_tilde(np.array([xv]), np.array([0.5]))[0]) == pytest.approx(
                target, abs=1e-10
            )

    def test_monotonicity_of_coordinate_map(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        xs = np.linspace(-12.0, 12.0, 2000)
        vals = sol.x_tilde(xs, np.zeros_like(xs))
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    def test_slope_matches_central_difference(self, eps):
        sol = chsym.exact_solution(0.75, 1.0, eps)
        xs = np.linspace(-6.0, 6.0, 97) + 0.01  # off the coth pole at x = 0
        ts = np.full_like(xs, 0.0)
        h = 1e-6
        fd = (sol.x_tilde(xs + h, ts) - sol.x_tilde(xs - h, ts)) / (2 * h)
        assert np.allclose(sol.dx_tilde(xs, ts), fd, rtol=1e-6, atol=1e-6)

    def test_bisection_safeguard_on_overshooting_newton(self):
        # plain Newton from x = target overshoots and diverges on 10*atan(x) here
        atan10 = lambda x, t: 10.0 * np.arctan(x)
        slope = lambda x, t: 10.0 / (1.0 + x * x)
        targets, ts = np.array([-12.0, -5.0, 5.0, 12.0]), np.array([0.0])
        X = invert_grid(atan10, slope, targets, ts)
        assert np.allclose(X[:, 0], np.tan(targets / 10.0), rtol=1e-12, atol=0.0)
        assert np.allclose(X, _bisect_grid(atan10, targets, ts), rtol=1e-12, atol=0.0)

    def test_non_monotone_rejected(self):
        wobble = lambda x, t: np.sin(3 * x)
        wobble_slope = lambda x, t: 3 * np.cos(3 * x)
        with pytest.raises(NonMonotoneError):
            _invert_point(wobble, wobble_slope, 0.0, 0.2)

    def test_out_of_range_rejected(self):
        # tanh stays inside (-1, 1), so no bracket ever reaches 10
        slope = lambda x, t: 1.0 / np.cosh(x) ** 2
        with pytest.raises(OutOfRangeError):
            _invert_point(lambda x, t: np.tanh(x), slope, 0.0, 10.0)

    def test_vectorized_inversion_matches_scalar(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        targets = np.array([-3.0, 0.0, 4.0])
        ts = np.array([-0.5, 0.5])
        X = invert_grid(sol.x_tilde, sol.dx_tilde, targets, ts)
        oracle = _bisect_grid(sol.x_tilde, targets, ts)
        for i, target in enumerate(targets):
            for j, tv in enumerate(ts):
                scalar = _invert_point(sol.x_tilde, sol.dx_tilde, tv, target)
                assert X[i, j] == pytest.approx(scalar, abs=1e-10)
                assert X[i, j] == pytest.approx(oracle[i, j], abs=1e-10)

    @staticmethod
    def _assert_matches_oracle(sol, xs, ts):
        X = invert_grid(sol.x_tilde, sol.dx_tilde, xs, ts)
        oracle = _bisect_grid(sol.x_tilde, xs, ts)
        TT = np.meshgrid(xs, ts, indexing="ij")[1]
        assert np.all(np.isfinite(sol.x_tilde(oracle, TT)))
        assert np.all(np.abs(X - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle)))

    @pytest.mark.parametrize("u0, eps", [(0.75, 1.0), (0.6, 0.5), (0.85, 1.5)])
    def test_newton_matches_bisection_oracle_tanh_branch(self, u0, eps):
        xs, ts = _base_grid(2**-3).axes(halo_x=3, halo_t=1)
        self._assert_matches_oracle(chsym.exact_solution(u0, 1.0, eps), xs, ts)

    @pytest.mark.parametrize("u0, eps", [(0.75, -1.0), (0.6, -0.5)])
    def test_newton_matches_bisection_oracle_coth_branch(self, u0, eps):
        # on the coth branch x_tilde turns back between its two poles (about
        # -2.9 < x < 1.5 for these parameters and 0 <= t <= 0.5), so the
        # targets are placed where every bracket stays right of them
        xs, ts = np.linspace(6.0, 12.0, 49), np.linspace(0.0, 0.5, 9)
        self._assert_matches_oracle(chsym.exact_solution(u0, 1.0, eps), xs, ts)

    @pytest.mark.parametrize("eps", [-1.0, -0.5])
    def test_coth_branch_turning_back_rejected(self, eps):
        # every x_tilde has three preimages there; no single-valued inverse
        sol = chsym.exact_solution(0.75, 1.0, eps)
        xs, ts = _base_grid(2**-3).axes(halo_x=3, halo_t=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonMonotoneError):
                invert_grid(sol.x_tilde, sol.dx_tilde, xs, ts)


class TestConvergence:
    def test_exact_solution_second_order(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        report, _ = convergence_ladder(SolutionSampler(sol), _base_grid(), rungs=3)
        assert report.order_estimate == pytest.approx(2.0, abs=0.3)
        assert report.masked_fraction < 0.01
        norms = [max(r.l2_norms) for r in report.rungs]
        assert norms[0] > norms[1] > norms[2]

    def test_perturbed_field_breaks_order(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        sampler = SolutionSampler(sol)

        class Perturbed:
            def sample(self, grid, halo_x=3, halo_t=1):
                u, v, X, T = sampler.sample(grid, halo_x, halo_t)
                xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
                XX = np.meshgrid(xs, ts, indexing="ij")[0]
                return u + 0.01 * np.sin(XX), v, X, T

        report, _ = convergence_ladder(Perturbed(), _base_grid(), rungs=3)
        assert abs(report.order_estimate) < 0.5

    def test_untransformed_coordinates_are_not_a_solution(self):
        # diagnostic check: reading the fields as functions of the original
        # coordinate does not satisfy the flow, and the residual plateaus
        sol = chsym.exact_solution(0.75, 1.0, 1.0)

        class Raw:
            def sample(self, grid, halo_x=3, halo_t=1):
                xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
                X, T = np.meshgrid(xs, ts, indexing="ij")
                return sol.u_tilde(X, T), sol.v_tilde(X, T), X, T

        report, _ = convergence_ladder(Raw(), _base_grid(), rungs=3)
        assert abs(report.order_estimate) < 0.5
        assert max(report.l2_norms) > 1e-3

    @pytest.mark.parametrize("h", [2**-3, 2**-5])
    def test_masked_fraction_matches_bisection_oracle(self, h):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        report, _ = convergence_ladder(SolutionSampler(sol), _base_grid(h), rungs=3)
        oracle, _ = convergence_ladder(BisectionSampler(sol), _base_grid(h), rungs=3)
        assert report.masked_fraction == oracle.masked_fraction
        assert [r.masked_fraction for r in report.rungs] == [
            r.masked_fraction for r in oracle.rungs
        ]
        assert report.order_estimate == pytest.approx(oracle.order_estimate, abs=1e-3)

    def test_report_serialization(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        report, _ = convergence_ladder(SolutionSampler(sol), _base_grid(), rungs=3)
        data = report.as_dict()
        assert len(data["rungs"]) == 3
        assert "order_estimate" in data


class TestLadderLimits:
    @pytest.mark.parametrize("rungs", [0, -1])
    def test_no_rungs_rejected(self, rungs):
        with pytest.raises(ValueError, match="at least one rung"):
            numgrid._ladder_grids(_base_grid(), rungs)

    def test_node_limit_is_arithmetic(self):
        # the default ladder's finest rung: 2049 + 6 by 257 + 2 haloed nodes
        finest = numgrid._ladder_grids(_base_grid(), 3)[-1]
        assert (finest.nx + 6) * (finest.nt + 2) == 2055 * 259
        assert len(numgrid._ladder_grids(_base_grid(), 4)) == 4
        with pytest.raises(ValueError, match="above the limit"):
            numgrid._ladder_grids(_base_grid(), 5)
        with pytest.raises(ValueError, match="above the limit"):
            numgrid._ladder_grids(_base_grid(), 10**9)

    def test_solution_grid_limit_is_arithmetic(self, tmp_path, monkeypatch):
        # 2048 x 2048 nodes is exactly the limit; one more x node is over it
        at_limit = Grid(0.0, 2047.0, 0.0, 2047.0, 1.0, 1.0)
        assert at_limit.nx * at_limit.nt == numgrid.MAX_LADDER_NODES
        numgrid._check_node_limit(at_limit, 0, 0, "solution grid")
        over = Grid(0.0, 2048.0, 0.0, 2047.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="above the limit"):
            numgrid._check_node_limit(over, 0, 0, "solution grid")

        def never_sample(self, grid, halo_x=3, halo_t=1):
            raise AssertionError("sampled an oversize grid")

        monkeypatch.setattr(numgrid.SolutionSampler, "sample", never_sample)
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        with pytest.raises(ValueError, match="solution grid needs 4196352 nodes"):
            numgrid.write_solution_csv(str(tmp_path / "sol.csv"), sol, over)

    def test_oversize_ladder_rejected_before_sampling(self):
        class NeverSample:
            def sample(self, grid, halo_x=3, halo_t=1):
                raise AssertionError("sampled an oversize ladder")

        with pytest.raises(ValueError, match="above the limit"):
            convergence_ladder(NeverSample(), _base_grid(), rungs=5)


class TestConvergenceGate:
    @pytest.mark.parametrize(
        "order, masked, passed",
        [
            (2.0, 0.0, True),
            (2.3, 0.009, True),
            (2.3, 0.0, True),
            (1.7, 0.0, True),
            (1.71, 0.0, True),
            (2.31, 0.0, False),
            (1.69, 0.0, False),
            (2.0, 0.01, False),
            (None, 0.0, False),
            (float("inf"), 0.0, False),
            (float("nan"), 0.0, False),
        ],
    )
    def test_gate_on_constructed_reports(self, order, masked, passed):
        report = numgrid.ResidualReport(
            _base_grid(), (0.0, 0.0), (0.0, 0.0), masked, order_estimate=order
        )
        assert report.converged() is passed


class TestCsv:
    def test_block_writer_matches_per_node_rows(self):
        rng = np.random.default_rng(3)
        grid = Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125)
        xs, ts = grid.axes()
        shape = (xs.size, ts.size)
        fields = [
            rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape) for _ in range(4)
        ]
        fields[0][0, 0], fields[1][1, 2], fields[2][3, 1] = np.nan, -np.inf, -0.0
        expected = "".join(
            ",".join(repr(float(val)) for val in (xv, tv, *(F[i, j] for F in fields))) + "\n"
            for i, xv in enumerate(xs)
            for j, tv in enumerate(ts)
        )
        out = io.StringIO()
        numgrid._write_rows(out, xs, ts, fields)
        assert out.getvalue() == expected

    def test_header_and_shape(self, tmp_path):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        grid = Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125)
        path = tmp_path / "fields.csv"
        numgrid.write_solution_csv(str(path), sol, grid)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "k=0.5" in lines[0]
        assert lines[1] == "x,t,u,v,m,n"
        assert len(lines) == 2 + grid.nx * grid.nt
