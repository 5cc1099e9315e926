"""Finite-difference oracle and coordinate-inversion tests."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from pssurf import chsym, numgrid
from pssurf import kernel as K
from pssurf.classify import catalog_entry
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


class TestResidualBlock:
    def test_right_hand_sides_restate_the_catalog_flow(self):
        # _residual_block writes cubic-ch2's F and G out by hand, because the
        # residual goldens pin its bits; on fields quadratic in x and linear
        # in t every stencil is exact, so what it subtracts from
        # u_t - u_{2,t} must be the compiled catalog F, and likewise for G
        system = catalog_entry("cubic-ch2").system
        jets = [K.u(k) for k in range(4)] + [K.v(k) for k in range(4)]
        rhs = K.compile_numeric([system.F, system.G], jets)
        hx, ht = 0.125, 0.0625
        xs = -0.75 + hx * np.arange(14)
        ts = 0.25 + ht * np.arange(5)
        X, T = np.meshgrid(xs, ts, indexing="ij")
        rng = np.random.default_rng(818)
        fields = []
        for a, b in rng.uniform(-1.0, 1.0, size=(2, 2, 3)):
            # f = a0 + a1 x + a2 x^2 + t (b0 + b1 x + b2 x^2)
            f = a[0] + a[1] * X + a[2] * X**2 + T * (b[0] + b[1] * X + b[2] * X**2)
            f1 = a[1] + 2 * a[2] * X + T * (b[1] + 2 * b[2] * X)
            f2 = 2 * a[2] + 2 * b[2] * T
            f_t_minus_f2_t = b[0] + b[1] * X + b[2] * X**2 - 2 * b[2]
            fields.append((f, f1, f2, np.zeros_like(X), f_t_minus_f2_t))
        (u, *u_jets, u_flux), (v, *v_jets, v_flux) = fields
        res1, res2 = numgrid._residual_block(u, v, hx, ht)
        inner = (slice(3, -3), slice(1, -1))
        F, G = np.vectorize(rhs)(*(j[inner] for j in (u, *u_jets, v, *v_jets)))
        assert res1.shape == F.shape == (8, 3)
        np.testing.assert_allclose(u_flux[inner] - res1, F, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(v_flux[inner] - res2, G, rtol=1e-10, atol=1e-10)


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

    def invert(self, grid, halo_x=3, halo_t=1):
        xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
        return _bisect_grid(self.sol.x_tilde, xs, ts)


def _newton_grid(x_tilde_of, dx_tilde_of, targets, ts):
    """Oracle: the bracketed Newton inversion swept over the whole grid at
    once, with x_tilde and its slope as two callables; the blocked
    invert_grid must reproduce it bit for bit."""
    T, TT = np.meshgrid(targets, ts, indexing="ij", sparse=True)
    x = np.broadcast_to(T, (T.size, TT.size)).copy()
    lo, hi = x - 4.0, x + 4.0
    for _ in range(13):
        flo, fhi = x_tilde_of(lo, TT) - T, x_tilde_of(hi, TT) - T
        bad = np.sign(flo) == np.sign(fhi)
        if not bad.any():
            break
        lo, hi = lo - 4.0 * bad, hi + 4.0 * bad
    else:
        raise OutOfRangeError("failed to bracket the coordinate inversion")
    lo_side = -np.sign(fhi - flo)

    def check_monotone(slope):
        if np.any(slope * lo_side >= 0):
            raise NonMonotoneError("coordinate map is not monotone over the bracket")

    check_monotone(dx_tilde_of(lo, TT))
    check_monotone(dx_tilde_of(hi, TT))
    for _ in range(100):
        slope = dx_tilde_of(x, TT)
        check_monotone(slope)
        step = x_tilde_of(x, TT) - T
        take_lo = np.sign(step) == lo_side
        np.copyto(lo, x, where=take_lo)
        np.copyto(hi, x, where=~take_lo)
        step /= slope
        tol = 1e-13 * np.maximum(1.0, np.abs(x))
        small = np.abs(step) <= tol
        x -= step
        np.copyto(x, 0.5 * (lo + hi), where=~(small | ((lo <= x) & (x <= hi))))
        if np.all(small | (hi - lo <= tol)):
            break
    return x


def _identity_map(x, t):
    return x, np.ones_like(x)


def _atan10_map(x, t):
    return 10.0 * np.arctan(x), 10.0 / (1.0 + x * x)


def _wobble_map(x, t):
    return np.sin(3 * x), 3 * np.cos(3 * x)


def _tanh_map(x, t):
    return np.tanh(x), 1.0 / np.cosh(x) ** 2


def _holed_map(x, t):
    # the identity, undefined (NaN, as at a masked pole) for |x - 4.5| < 0.25
    hole = np.abs(x - 4.5) < 0.25
    return np.where(hole, np.nan, x), np.where(hole, np.nan, 1.0)


def _invert_point(map_of, t, target):
    return float(invert_grid(map_of, np.array([target]), np.array([t]))[0, 0])


class TestInversion:
    def test_identity_map(self):
        assert _invert_point(_identity_map, 0.0, 1.25) == pytest.approx(1.25)

    def test_round_trip(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        for target in (-5.0, -1.0, 0.0, 2.0, 6.0):
            xv = _invert_point(sol.coordinate_map, 0.5, target)
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
        assert np.allclose(sol.coordinate_map(xs, ts)[1], fd, rtol=1e-6, atol=1e-6)

    def test_bisection_safeguard_on_overshooting_newton(self):
        # plain Newton from x = target overshoots and diverges on 10*atan(x) here
        targets, ts = np.array([-12.0, -5.0, 5.0, 12.0]), np.array([0.0])
        X = invert_grid(_atan10_map, targets, ts)
        assert np.allclose(X[:, 0], np.tan(targets / 10.0), rtol=1e-12, atol=0.0)
        atan10 = lambda x, t: _atan10_map(x, t)[0]
        assert np.allclose(X, _bisect_grid(atan10, targets, ts), rtol=1e-12, atol=0.0)

    def test_bracket_end_at_a_pole(self):
        # targets 0.5 and 0.4 have their upper bracket end in the hole, so
        # their bracket side is NaN; the monotonicity checks skip it
        targets, ts = np.array([0.5, 1.0, 0.4]), np.array([0.0, 0.5])
        X = invert_grid(_holed_map, targets, ts)
        map_slopes = (lambda x, t: _holed_map(x, t)[0], lambda x, t: _holed_map(x, t)[1])
        assert X.tobytes() == _newton_grid(*map_slopes, targets, ts).tobytes()
        assert np.array_equal(X, np.repeat(targets[:, None], ts.size, axis=1))

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneError):
            _invert_point(_wobble_map, 0.0, 0.2)

    def test_out_of_range_rejected(self):
        # tanh stays inside (-1, 1), so no bracket ever reaches 10
        with pytest.raises(OutOfRangeError):
            _invert_point(_tanh_map, 0.0, 10.0)

    def test_vectorized_inversion_matches_scalar(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        targets = np.array([-3.0, 0.0, 4.0])
        ts = np.array([-0.5, 0.5])
        X = invert_grid(sol.coordinate_map, targets, ts)
        oracle = _bisect_grid(sol.x_tilde, targets, ts)
        for i, target in enumerate(targets):
            for j, tv in enumerate(ts):
                scalar = _invert_point(sol.coordinate_map, tv, target)
                assert X[i, j] == pytest.approx(scalar, abs=1e-10)
                assert X[i, j] == pytest.approx(oracle[i, j], abs=1e-10)

    @staticmethod
    def _assert_matches_oracle(sol, xs, ts):
        X = invert_grid(sol.coordinate_map, xs, ts)
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
                invert_grid(sol.coordinate_map, xs, ts)


def _kinked_map(x, t):
    # flat below -20, so no bracket reaches a target under it, and
    # x + 2 sin(x), which is not monotone, above 50
    wobble = x > 50
    return np.maximum(x, -20.0) + 2 * np.sin(x) * wobble, (x > -20) + 2 * np.cos(x) * wobble


NOT_MONOTONE = "coordinate map is not monotone over the bracket"
NOT_BRACKETED = "failed to bracket the coordinate inversion"


class TestRowBlocks:
    """Grid sweeps run in row blocks of about numgrid._BLOCK_NODES nodes; the
    results must not depend on where the block seams fall."""

    # one row per block, and a size that leaves a ragged last block on
    # every array below
    BLOCK_NODES = [1, 1000]

    @staticmethod
    def _sample_and_residuals():
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        grid = _base_grid()
        u, v, X, TT = SolutionSampler(sol).sample(grid)
        m, n = numgrid._evaluate(sol.momenta, X, TT[0])
        fused = numgrid._sampled_residuals(SolutionSampler(sol), grid)
        norms = np.array([*fused.max_norms, *fused.l2_norms, fused.masked_fraction])
        return (u, v, m, n, X, *numgrid._residual_arrays(u, v, grid), norms)

    def test_default_grid_spans_several_blocks(self):
        grid = _base_grid()
        for rows, cols in [(grid.nx + 6, grid.nt + 2), (grid.nx, grid.nt)]:
            blocks = numgrid._row_blocks(rows, cols)
            assert len(blocks) > 1
            assert blocks[-1].stop == rows

    @pytest.mark.parametrize("block_nodes", BLOCK_NODES)
    def test_block_size_changes_no_bits(self, monkeypatch, block_nodes):
        expected = [a.tobytes() for a in self._sample_and_residuals()]
        monkeypatch.setattr(numgrid, "_BLOCK_NODES", block_nodes)
        grid = _base_grid()
        for rows, cols in [(grid.nx + 6, grid.nt + 2), (grid.nx, grid.nt)]:
            step = numgrid._row_blocks(rows, cols)[0].stop
            assert step == 1 if block_nodes == 1 else rows % step
        assert [a.tobytes() for a in self._sample_and_residuals()] == expected

    # at u0 = 0.6, eps = 0.5 some blocks converge iterations before others,
    # so stopping a block early would change bits there
    @pytest.mark.parametrize("u0, eps", [(0.75, 1.0), (0.6, 0.5)])
    @pytest.mark.parametrize("rung", [0, 2])
    def test_matches_whole_grid_newton_bit_for_bit(self, rung, u0, eps):
        sol = chsym.exact_solution(u0, 1.0, eps)
        xs, ts = numgrid._ladder_grids(_base_grid(), 3)[rung].axes(halo_x=3, halo_t=1)
        assert len(numgrid._row_blocks(xs.size, ts.size)) > 1
        X = invert_grid(sol.coordinate_map, xs, ts)
        oracle = _newton_grid(
            lambda x, t: sol.coordinate_map(x, t)[0], lambda x, t: sol.coordinate_map(x, t)[1], xs, ts
        )
        assert X.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "targets, error, message",
        [
            ([0.0, 1.0, 2.0, 3.0, 100.0], NonMonotoneError, NOT_MONOTONE),
            ([0.0, 1.0, 2.0, 3.0, -30.0], OutOfRangeError, NOT_BRACKETED),
            # bracketing finishes in every block before a bracket end is checked
            ([100.0, 0.0, 1.0, 2.0, -30.0], OutOfRangeError, NOT_BRACKETED),
        ],
    )
    def test_failure_in_a_later_block(self, monkeypatch, targets, error, message):
        targets, ts = np.array(targets), np.array([0.0, 0.5])
        map_slopes = (lambda x, t: _kinked_map(x, t)[0], lambda x, t: _kinked_map(x, t)[1])
        with pytest.raises(error) as whole:
            _newton_grid(*map_slopes, targets, ts)
        monkeypatch.setattr(numgrid, "_BLOCK_NODES", 1)
        assert len(numgrid._row_blocks(targets.size, ts.size)) == targets.size
        with pytest.raises(error) as blocked:
            invert_grid(_kinked_map, targets, ts)
        assert str(blocked.value) == str(whole.value) == message


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

        class Perturbed(SolutionSampler):
            # u + 0.01 sin(x~) on every rung, x~ being the grid coordinate
            def fields(self, x, t):
                u, v = super().fields(x, t)
                return u + 0.01 * np.sin(self.sol.x_tilde(x, t)), v

        report, _ = convergence_ladder(Perturbed(sol), _base_grid(), rungs=3)
        assert abs(report.order_estimate) < 0.5

    def test_untransformed_coordinates_are_not_a_solution(self):
        # diagnostic check: reading the fields as functions of the original
        # coordinate does not satisfy the flow, and the residual plateaus
        sol = chsym.exact_solution(0.75, 1.0, 1.0)

        class Raw(SolutionSampler):
            # every node's x is its grid coordinate: no inversion
            def invert(self, grid, halo_x=3, halo_t=1):
                xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
                return np.repeat(xs[:, None], ts.size, axis=1)

        report, _ = convergence_ladder(Raw(sol), _base_grid(), rungs=3)
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

    def test_non_finite_values_serialize_as_null(self):
        # a fully masked rung has infinite norms, and a ladder whose norms
        # are all zero an infinite order; strict JSON has neither
        grid = Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125)
        xs, ts = grid.axes(halo_x=3, halo_t=1)
        nan = np.full((xs.size, ts.size), np.nan)
        rung = fd_residual_arrays(nan, nan, grid)
        assert (rung.max_norms, rung.l2_norms, rung.masked_fraction) == (
            (math.inf, math.inf), (math.inf, math.inf), 1.0
        )
        for order in (math.inf, math.nan):
            report = numgrid.ResidualReport(
                grid, rung.max_norms, rung.l2_norms, 1.0, rungs=(rung,), order_estimate=order
            )
            data = report.as_dict()
            assert data["order_estimate"] is None
            assert data["max_norms"] == data["l2_norms"] == [None, None]
            assert data["rungs"][0]["l2_norms"] == [None, None]
            json.dumps(data, allow_nan=False)


class TestFusedSweep:
    """Rungs after the first evaluate the fields on each haloed row block of
    the inverted grid (numgrid._sampled_residuals); the report must be the
    one fd_residual_arrays gives on whole-grid samples, bit for bit."""

    # at u0 = 0.6, eps = 0.5 some blocks converge iterations before others
    @pytest.mark.parametrize("u0, eps", [(0.75, 1.0), (0.6, 0.5)])
    def test_matches_whole_grid_samples(self, u0, eps):
        sampler = SolutionSampler(chsym.exact_solution(u0, 1.0, eps))
        for grid in numgrid._ladder_grids(_base_grid(), 3):
            u, v, _, _ = sampler.sample(grid)
            whole = fd_residual_arrays(u, v, grid)
            fused = numgrid._sampled_residuals(sampler, grid)
            assert fused == whole
            assert json.dumps(fused.as_dict()) == json.dumps(whole.as_dict())


class TestNorms:
    """The rung norms are taken in place; they must equal the norms of
    fresh arrays, np.max(np.abs(r)) and np.sqrt(np.mean(r**2)), over the
    nodes where both residuals are finite."""

    GRID = Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125)

    @staticmethod
    def _norms_of_copies(res1, res2):
        mask = np.isfinite(res1) & np.isfinite(res2)
        return [(float(np.max(np.abs(r[mask]))), float(np.sqrt(np.mean(r[mask] ** 2))))
                for r in (res1, res2)]

    def _check(self, res1, res2):
        expected = self._norms_of_copies(res1, res2)
        report = numgrid._residual_report(res1.copy(), res2.copy(), self.GRID)
        got = list(zip(report.max_norms, report.l2_norms))
        assert repr(got) == repr(expected)
        return got

    @staticmethod
    def _residuals(seed):
        rng = np.random.default_rng(seed)
        shape = (97, 61)
        return [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape) for _ in range(2)]

    def test_all_finite(self):
        # every node kept: the norms read the raveled arrays
        self._check(*self._residuals(5))

    def test_with_nan(self):
        # some nodes masked: the norms read r[mask]
        res1, res2 = self._residuals(6)
        res1[3, 4] = res2[50, 7] = res1[96, 60] = np.nan
        self._check(res1, res2)

    def test_signed_zeros_print_as_zero(self):
        res1 = np.zeros((97, 61))
        res1[::3] = -0.0
        got = self._check(res1, -res1)
        assert repr(got) == repr([(0.0, 0.0), (0.0, 0.0)])


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Traced peaks in full-grid float64 arrays: a rung holds at most three
    (x and its bracket in the inversion, then x and the residuals), plus
    the float16 bracket side, row-block temporaries and rung 1's samples."""

    def test_ladder_peak(self):
        sampler = SolutionSampler(chsym.exact_solution(0.75, 1.0, 1.0))
        # a small run first, so that numpy's set-up is not traced
        convergence_ladder(sampler, Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125), rungs=1)
        finest = numgrid._ladder_grids(_base_grid(), 3)[-1]
        array = (finest.nx + 6) * (finest.nt + 2) * 8
        peak = _traced_peak(lambda: convergence_ladder(sampler, _base_grid(), rungs=3))
        assert peak <= 4.5 * array

    def test_solution_csv_peak(self, tmp_path, monkeypatch):
        # blocks far smaller than the grid, as on a large --grid, so that
        # the count is of full-grid arrays: x and its bracket, not the
        # fields and momenta as well
        monkeypatch.setattr(numgrid, "_BLOCK_NODES", 2**10)
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        small = Grid(-2.0, 2.0, -1.0, 1.0, 0.25, 0.125)
        numgrid.write_solution_csv(str(tmp_path / "warm.csv"), sol, small)
        grid = Grid(-8.0, 8.0, -1.0, 1.0, 2**-5, 2**-6)
        path = str(tmp_path / "sol.csv")
        peak = _traced_peak(lambda: numgrid.write_solution_csv(path, sol, grid))
        assert peak <= 4.0 * grid.nx * grid.nt * 8


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
