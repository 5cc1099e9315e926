"""Grid evaluation of closed-form solutions, coordinate inversion for the
parametric solution, and finite-difference residual oracles.

The flow residuals are assembled from second-order central stencils; the
mixed derivative u_xxt composes the central t-derivative with the central
second x-derivative.  A refinement ladder (h, h/2, h/4, ...) yields an
observed convergence order; pole-adjacent points (flagged as NaN by the
field evaluators) are masked from the norms and counted.  The inversion,
the field evaluation and the stencils sweep the grid in row blocks, with
results bit-identical to one whole-grid sweep.

A rung holds at most three full-grid float64 arrays, about 26 bytes a
node: x and its bracket in the inversion (the bracket's side in float16),
then x and the residuals, since rungs after the first evaluate the fields
per haloed row block in the residual sweep.  The solution CSV is likewise
evaluated and written a row block at a time.

numpy is chsym's binding, which executes numpy on first array use: the
import of this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chsym import ExactSolution, np
from .kernel import DomainError


class NonMonotoneError(DomainError):
    pass


class OutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    t_min: float
    t_max: float
    hx: float
    ht: float

    def __post_init__(self):
        values = (self.x_min, self.x_max, self.t_min, self.t_max, self.hx, self.ht)
        if not all(map(math.isfinite, values)):
            raise ValueError("grid bounds and spacings must be finite")
        if self.hx <= 0 or self.ht <= 0:
            raise ValueError("grid spacings must be positive")
        steps = ((self.x_max - self.x_min) / self.hx, (self.t_max - self.t_min) / self.ht)
        if not all(map(math.isfinite, steps)):
            raise ValueError("grid spans more steps than a float holds")
        if self.nx < 10 or self.nt < 10:
            raise ValueError("need at least 8 interior points per axis")

    @property
    def nx(self) -> int:
        return int(round((self.x_max - self.x_min) / self.hx)) + 1

    @property
    def nt(self) -> int:
        return int(round((self.t_max - self.t_min) / self.ht)) + 1

    def refined(self) -> "Grid":
        return Grid(self.x_min, self.x_max, self.t_min, self.t_max, self.hx / 2, self.ht / 2)

    def axes(self, halo_x: int = 0, halo_t: int = 0) -> tuple[np.ndarray, np.ndarray]:
        xs = self.x_min + self.hx * np.arange(-halo_x, self.nx + halo_x)
        ts = self.t_min + self.ht * np.arange(-halo_t, self.nt + halo_t)
        return xs, ts


_MAX_STEPS = 100  # bisection alone meets the tolerance within about 50 halvings
_PAD = 4.0  # initial bracket half-width, and its growth per bracketing round
# nodes per row block of a grid sweep: a float64 temporary of a block is
# 256 KiB, so the few a sweep holds at once stay in a 2 MiB L2 cache
_BLOCK_NODES = 2**15


def _row_blocks(rows: int, cols: int, nodes: int | None = None) -> list[slice]:
    """Consecutive row slices of about `nodes` (by default _BLOCK_NODES)
    nodes each, at least one row, covering rows 0..rows-1."""
    step = max(1, (_BLOCK_NODES if nodes is None else nodes) // cols)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def invert_grid(map_of, targets: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Solve x_tilde(x, t) = target over a meshgrid of targets (axis 0) and
    times (axis 1) by bracketed Newton iteration from x = target.

    map_of(x, t) returns x_tilde and its slope in x.  Each iterate tightens
    its node's sign-change bracket; a Newton step that leaves the bracket or
    is not finite is replaced by the bracket midpoint.  A node has converged
    once its step, or its bracket, is within 1e-13 * max(1, |x|).  The map
    must be strictly monotone over each bracket: a slope at a bracket end or
    an iterate that is zero or against the bracket's direction raises
    NonMonotoneError (non-finite slopes, at masked poles, are skipped).

    The grid is swept in row blocks (_row_blocks) so that a sweep's
    temporaries stay in cache.  Bracketing is per node, so each block
    brackets on its own; an OutOfRangeError in any block is raised before a
    NonMonotoneError at a bracket end.  Newton runs the blocks in lockstep:
    every iteration sweeps every block and the loop stops once all of them
    have converged.  A node already within tolerance still moves, by an ulp
    or so, on later iterations, so stopping a block early would change the
    result's bits.
    """
    T = targets[:, None]
    TT = ts[None, :]
    x = np.repeat(T, ts.size, axis=1)
    lo, hi = x - _PAD, x + _PAD
    # -1 where x_tilde rises through the target, +1 where it falls (or 0 or
    # NaN); float16 holds each exactly, so comparing with it and multiplying
    # by it give the bits float64 would, at 2 bytes a node
    lo_side = np.empty(x.shape, dtype=np.float16)
    blocks = _row_blocks(*x.shape)
    monotone = True
    for b in blocks:
        for _ in range(13):  # the bracket grows by _PAD at most 12 times
            (flo, slo), (fhi, shi) = map_of(lo[b], TT), map_of(hi[b], TT)
            flo, fhi = flo - T[b], fhi - T[b]
            bad = np.sign(flo) == np.sign(fhi)
            if not bad.any():
                break
            grow = _PAD * bad
            lo[b] -= grow
            hi[b] += grow
        else:
            raise OutOfRangeError("failed to bracket the coordinate inversion")
        lo_side[b] = -np.sign(fhi - flo)
        monotone = monotone and _monotone(slo, lo_side[b]) and _monotone(shi, lo_side[b])
    if not monotone:
        raise NonMonotoneError("coordinate map is not monotone over the bracket")
    for _ in range(_MAX_STEPS):
        converged = True
        for b in blocks:
            xb, lob, hib, side = x[b], lo[b], hi[b], lo_side[b]
            x_tilde, slope = map_of(xb, TT)
            if not _monotone(slope, side):
                raise NonMonotoneError("coordinate map is not monotone over the bracket")
            step = x_tilde - T[b]  # the residual, divided by the slope below
            take_lo = np.sign(step) == side
            np.copyto(lob, xb, where=take_lo)
            np.copyto(hib, xb, where=~take_lo)
            step /= slope
            tol = 1e-13 * np.maximum(1.0, np.abs(xb))
            small = np.abs(step) <= tol
            xb -= step
            outside = ~(small | ((lob <= xb) & (xb <= hib)))
            if outside.any():
                xb[outside] = 0.5 * (lob[outside] + hib[outside])
            converged = converged and bool(np.all(small | (hib - lob <= tol)))
        if converged:
            break
    return x


def _monotone(slope: np.ndarray, lo_side: np.ndarray) -> bool:
    return not np.any(slope * lo_side >= 0)


@dataclass(frozen=True)
class ResidualReport:
    grid: Grid
    max_norms: tuple[float, float]
    l2_norms: tuple[float, float]
    masked_fraction: float
    rungs: tuple["ResidualReport", ...] = ()
    order_estimate: float | None = None

    def converged(self) -> bool:
        """The ladder gate: observed order within 0.3 of 2 and under 1% of
        nodes masked.  A ladder too short to estimate the order fails."""
        return (
            self.order_estimate is not None
            and 1.7 <= self.order_estimate <= 2.3
            and self.masked_fraction < 0.01
        )

    def as_dict(self) -> dict:
        """The report as JSON data; a norm or order that is not finite (a
        fully masked rung, or a ladder whose norms are all zero) is None,
        since strict JSON has no Infinity or NaN."""
        data = {
            "hx": self.grid.hx,
            "ht": self.grid.ht,
            "max_norms": list(map(_finite_or_none, self.max_norms)),
            "l2_norms": list(map(_finite_or_none, self.l2_norms)),
            "masked_fraction": self.masked_fraction,
        }
        if self.rungs:
            data["rungs"] = [r.as_dict() for r in self.rungs]
        if self.order_estimate is not None:
            data["order_estimate"] = _finite_or_none(self.order_estimate)
        return data


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _stencil_dx(F: np.ndarray, h: float, k: int) -> np.ndarray:
    """Central x-derivative of order k (1, 2 or 3) on axis 0, shrinking the
    array by the stencil halo."""
    if k == 1:
        return (F[2:, :] - F[:-2, :]) / (2 * h)
    if k == 2:
        return (F[2:, :] - 2 * F[1:-1, :] + F[:-2, :]) / (h * h)
    if k == 3:
        return (F[4:, :] - 2 * F[3:-1, :] + 2 * F[1:-3, :] - F[:-4, :]) / (2 * h**3)
    raise ValueError(f"unsupported derivative order {k}")


def _stencil_dt(F: np.ndarray, h: float) -> np.ndarray:
    return (F[:, 2:] - F[:, :-2]) / (2 * h)


def _crop_x(F: np.ndarray, k: int) -> np.ndarray:
    return F[k:-k, :] if k else F


def _residual_block(u: np.ndarray, v: np.ndarray, hx: float, ht: float):
    """Both equation residuals on the interior of haloed samples."""

    def jets(F):
        # x-jets on the t-extended interior, cropped to a common x-window
        F0 = _crop_x(F, 3)
        F1 = _crop_x(_stencil_dx(F, hx, 1), 2)
        F2 = _crop_x(_stencil_dx(F, hx, 2), 2)
        F3 = _crop_x(_stencil_dx(F, hx, 3), 1)
        return F0, F1, F2, F3

    u0, u1, u2, u3 = jets(u)
    v0, v1, v2, v3 = jets(v)

    ut = _stencil_dt(u0, ht)
    vt = _stencil_dt(v0, ht)
    uxxt = _stencil_dt(u2, ht)
    vxxt = _stencil_dt(v2, ht)
    u0, u1, u2, u3 = (F[:, 1:-1] for F in (u0, u1, u2, u3))
    v0, v1, v2, v3 = (F[:, 1:-1] for F in (v0, v1, v2, v3))

    mm = u0 - u2
    nn = v0 - v2
    mm_x = u1 - u3
    nn_x = v1 - v3
    B = u0 * v0 - u1 * v1
    Bx = u1 * v0 + u0 * v1 - u2 * v1 - u1 * v2
    C = u0 * v1 - u1 * v0
    F_rhs = 0.5 * (mm_x * B + mm * Bx) - 0.5 * mm * C
    G_rhs = 0.5 * (nn_x * B + nn * Bx) + 0.5 * nn * C
    return ut - uxxt - F_rhs, vt - vxxt - G_rhs


def _residual_sweep(fields_of, rows: int, cols: int, grid: Grid, nodes: int | None = None):
    """Both equation residuals on the interior of a haloed rows x cols
    grid, in row blocks of about `nodes` nodes: output rows [a, b) are
    computed from fields_of(slice(a, b + 6)), the haloed fields (u, v) on
    input rows [a, b + 6)."""
    shape = (rows - 6, cols - 2)
    res1, res2 = np.empty(shape), np.empty(shape)
    for b in _row_blocks(*shape, nodes):
        res1[b], res2[b] = _residual_block(*fields_of(slice(b.start, b.stop + 6)), grid.hx, grid.ht)
    return res1, res2


def _residual_arrays(u: np.ndarray, v: np.ndarray, grid: Grid):
    """Interior fields and both equation residuals from haloed samples."""
    res1, res2 = _residual_sweep(lambda rows: (u[rows], v[rows]), *u.shape, grid)
    return u[3:-3, 1:-1], v[3:-3, 1:-1], res1, res2


def fd_residual_arrays(u: np.ndarray, v: np.ndarray, grid: Grid) -> ResidualReport:
    """Residuals of the cubic two-component flow on sampled fields.

    u, v must be sampled with a 3-cell halo in x and a 1-cell halo in t; the
    returned norms cover the interior grid.
    """
    _, _, res1, res2 = _residual_arrays(u, v, grid)
    return _residual_report(res1, res2, grid)


def _sampled_residuals(sampler, grid: Grid) -> ResidualReport:
    """fd_residual_arrays(*sampler.sample(grid)[:2], grid), bit for bit,
    without the full-grid fields: one sweep evaluates sampler.fields on
    each haloed row block of the inverted grid and writes that block's
    residual rows."""
    X = sampler.invert(grid)
    ts = grid.axes(halo_x=3, halo_t=1)[1][None, :]
    # a block's fields and stencils hold about 20 temporaries of its size
    res1, res2 = _residual_sweep(
        lambda rows: sampler.fields(X[rows], ts), *X.shape, grid, _BLOCK_NODES // 4
    )
    del X
    return _residual_report(res1, res2, grid)


def _residual_report(res1: np.ndarray, res2: np.ndarray, grid: Grid) -> ResidualReport:
    """The rung's report: norms over the nodes where both residuals are
    finite.  Overwrites res1 and res2."""
    mask = np.isfinite(res1) & np.isfinite(res2)
    kept = np.count_nonzero(mask)
    masked_fraction = 1.0 - float(kept) / res1.size

    def norms(r):
        # res1 and res2 are C-contiguous, so ravel gives r[mask]'s order
        vals = r.ravel() if kept == r.size else r[mask]
        if vals.size == 0:
            return math.inf, math.inf
        # in place, the values of np.abs(vals) and then of vals**2: the same
        # max and pairwise sum; abs makes -0.0 into 0.0 before the max
        np.abs(vals, out=vals)
        top = float(vals.max())
        np.square(vals, out=vals)
        return top, float(np.sqrt(np.mean(vals)))

    (m1, l1), (m2, l2) = norms(res1), norms(res2)
    return ResidualReport(grid, (m1, m2), (l1, l2), masked_fraction)


@dataclass
class SolutionSampler:
    """Samples the transformed fields on a rectangular grid in the
    transformed coordinates by inverting the coordinate map per node.

    A sampler is two pieces: `invert`, the untransformed x of each node of
    the haloed grid, and `fields`, u and v at (x, t).  `sample` composes
    them; the ladder's later rungs use them apart (_sampled_residuals)."""

    sol: ExactSolution

    def invert(self, grid: Grid, halo_x: int = 3, halo_t: int = 1) -> np.ndarray:
        xs, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
        return invert_grid(self.sol.coordinate_map, xs, ts)

    def fields(self, x, t):
        return self.sol.fields(x, t)

    def sample(self, grid: Grid, halo_x: int = 3, halo_t: int = 1):
        X = self.invert(grid, halo_x, halo_t)
        _, ts = grid.axes(halo_x=halo_x, halo_t=halo_t)
        u, v = _evaluate(self.fields, X, ts)
        return u, v, X, np.broadcast_to(ts, X.shape)


def _evaluate(pair_of, X: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two arrays pair_of(x, t) returns at x = X and t = ts (axis 1),
    evaluated in row blocks."""
    out = np.empty_like(X), np.empty_like(X)
    for b in _row_blocks(*X.shape):
        out[0][b], out[1][b] = pair_of(X[b], ts[None, :])
    return out


# nodes one sampling may hold, halo included; the default ladder's finest
# rung holds 2055 x 259.  The memory is at most three full-grid float64
# arrays (x and its bracket in the inversion, then x and the residuals)
# and the float16 bracket side, about 26 bytes a node or 109 MB at the
# limit; the sweeps' temporaries are one row block each.
MAX_LADDER_NODES = 2**22


def _check_node_limit(grid: Grid, halo_x: int, halo_t: int, what: str) -> None:
    """Reject a grid whose sampling, halo included, would exceed
    MAX_LADDER_NODES nodes; called before anything is sampled."""
    nodes = (grid.nx + 2 * halo_x) * (grid.nt + 2 * halo_t)
    if nodes > MAX_LADDER_NODES:
        raise ValueError(f"{what} needs {nodes} nodes, above the limit of {MAX_LADDER_NODES}")


def _ladder_grids(base_grid: Grid, rungs: int) -> list[Grid]:
    """The rungs' grids, coarsest first.  A ladder without rungs, or whose
    finest rung would exceed the node limit with the sampler's halo, is
    rejected before anything is sampled."""
    if rungs < 1:
        raise ValueError(f"need at least one rung, got {rungs}")
    grids = [base_grid]
    while True:
        _check_node_limit(grids[-1], 3, 1, f"rung {len(grids)} of {rungs}")
        if len(grids) == rungs:
            return grids
        grids.append(grids[-1].refined())


def convergence_ladder(
    sampler, base_grid: Grid, rungs: int = 3
) -> tuple[ResidualReport, tuple[np.ndarray, np.ndarray]]:
    """Run the residual oracle over a refinement ladder and fit the observed
    order from the l2 norms.  Returns the ResidualReport and rung 1's haloed
    samples (u, v), the only arrays kept past their rung; the later rungs
    never hold their fields whole (_sampled_residuals)."""
    first, *finer = _ladder_grids(base_grid, rungs)
    u, v, _, _ = sampler.sample(first)
    reports = [fd_residual_arrays(u, v, first)]
    reports += [_sampled_residuals(sampler, grid) for grid in finer]
    order = None
    if len(reports) >= 3:
        hs = np.array([r.grid.hx for r in reports])
        norms = np.array([max(r.l2_norms) for r in reports])
        if np.all(norms > 0):
            order = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
        else:
            order = math.inf
    top = reports[0]
    masked = max(r.masked_fraction for r in reports)
    report = ResidualReport(
        top.grid, top.max_norms, top.l2_norms, masked, rungs=tuple(reports), order_estimate=order
    )
    return report, (u, v)


def _write_rows(fh, xs: np.ndarray, ts: np.ndarray, fields) -> None:
    """One row per node, x outer and t inner: x, t and each field, every
    value written as repr(float); one block per x value bounds the memory."""
    t_col = list(map(repr, ts.tolist()))
    for xv, *rows in zip(xs.tolist(), *fields):
        cols = (map(repr, row.tolist()) for row in rows)
        fh.write("\n".join(map(",".join, zip([repr(xv)] * len(t_col), t_col, *cols))) + "\n")


def write_residual_csv(path: str, u: np.ndarray, v: np.ndarray, grid: Grid, header: str) -> None:
    """Interior fields and both equation residuals, one row per node, from
    samples with the ladder's halo."""
    u0, v0, res1, res2 = _residual_arrays(u, v, grid)
    xs, ts = grid.axes()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("x,t,u,v,residual_1,residual_2\n")
        _write_rows(fh, xs, ts, (u0, v0, res1, res2))


def write_solution_csv(path: str, sol: ExactSolution, grid: Grid) -> None:
    """Fields on the grid in transformed coordinates, one row per node.  A
    grid over the node limit is rejected before anything is sampled.  The
    fields and momenta are evaluated on one row block of the inverted grid
    at a time, and that block's rows written."""
    _check_node_limit(grid, 0, 0, "solution grid")
    X = SolutionSampler(sol).invert(grid, halo_x=0, halo_t=0)
    xs, ts = grid.axes()
    t = ts[None, :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# u0={sol.u0} eta={sol.eta} eps={sol.eps} k={sol.k} speed={sol.speed} "
            f"grid={grid.x_min}:{grid.x_max}:{grid.hx},{grid.t_min}:{grid.t_max}:{grid.ht}\n"
        )
        fh.write("x,t,u,v,m,n\n")
        for b in _row_blocks(*X.shape):
            _write_rows(fh, xs[b], ts, (*sol.fields(X[b], t), *sol.momenta(X[b], t)))
