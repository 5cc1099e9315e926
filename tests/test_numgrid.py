"""Finite-difference oracle and coordinate-inversion tests."""

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
    invert_coordinate,
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


class TestInversion:
    def test_identity_map(self):
        ident = lambda x, t: x
        assert invert_coordinate(ident, 0.0, 1.25, bracket=(-4.0, 4.0)) == pytest.approx(1.25)

    def test_round_trip(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        for target in (-5.0, -1.0, 0.0, 2.0, 6.0):
            xv = invert_coordinate(sol.x_tilde, 0.5, target, bracket=(-12.0, 12.0))
            assert float(sol.x_tilde(np.array([xv]), np.array([0.5]))[0]) == pytest.approx(
                target, abs=1e-10
            )

    def test_monotonicity_of_coordinate_map(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        xs = np.linspace(-12.0, 12.0, 2000)
        vals = sol.x_tilde(xs, np.zeros_like(xs))
        assert np.all(np.diff(vals) > 0)

    def test_non_monotone_rejected(self):
        wobble = lambda x, t: np.sin(3 * x)
        with pytest.raises(NonMonotoneError):
            invert_coordinate(wobble, 0.0, 0.2, bracket=(-3.0, 3.0))

    def test_out_of_range_rejected(self):
        ident = lambda x, t: x
        with pytest.raises(OutOfRangeError):
            invert_coordinate(ident, 0.0, 10.0, bracket=(-1.0, 1.0))

    def test_vectorized_inversion_matches_scalar(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        targets = np.array([-3.0, 0.0, 4.0])
        ts = np.array([-0.5, 0.5])
        X = invert_grid(sol.x_tilde, targets, ts)
        for i, target in enumerate(targets):
            for j, tv in enumerate(ts):
                scalar = invert_coordinate(sol.x_tilde, tv, target, bracket=(-16.0, 16.0))
                assert X[i, j] == pytest.approx(scalar, abs=1e-10)


class TestConvergence:
    def test_exact_solution_second_order(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        report = convergence_ladder(SolutionSampler(sol), _base_grid(), rungs=3)
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

        report = convergence_ladder(Perturbed(), _base_grid(), rungs=3)
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

        report = convergence_ladder(Raw(), _base_grid(), rungs=3)
        assert abs(report.order_estimate) < 0.5
        assert max(report.l2_norms) > 1e-3

    def test_report_serialization(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        report = convergence_ladder(SolutionSampler(sol), _base_grid(), rungs=3)
        data = report.as_dict()
        assert len(data["rungs"]) == 3
        assert "order_estimate" in data


class TestConvergenceGate:
    @pytest.mark.parametrize(
        "order, masked, passed",
        [
            (2.0, 0.0, True),
            (2.3, 0.009, True),
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
