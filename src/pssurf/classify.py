"""Constructive classification of Camassa-Holm-type systems describing
pseudospherical or spherical surfaces, plus the built-in example catalog.

Each constructor takes the free functional data of one classification
pattern, validates every hypothesis, and synthesizes the PDE system together
with its associated forms (and, for the third-order patterns, the Lax pair).
F and G solve the two rows of ``forms.structure_equations`` whose
dx-coefficient depends on u, v.  Hypothesis violations raise rich errors
instead of producing invalid output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import kernel as K
from .forms import AssociatedForms, check_lemma31, structure_equations, wronskian
from .jetcalc import PdeSystem, check_factored_dependence, exterior_d_mod_system, total_dx
from .kernel import Expr, KernelError, parse
from .laxzoo import MatrixForm, from_forms


class HypothesisViolationError(KernelError):
    def __init__(self, condition: str, residual: Expr | str):
        super().__init__(f"hypothesis '{condition}' violated; residual: {residual}")
        self.condition = condition
        self.residual = str(residual)


@dataclass(frozen=True)
class Thm34Input:
    """Free data for the second-order-and-up pattern with the constant
    spectral slot in the middle row."""

    g: Expr
    h: Expr
    L: Expr
    M: Expr
    eta: Expr
    delta: int = 1
    orders: tuple[int, int] = (2, 2)


@dataclass(frozen=True)
class Thm36Input:
    """Free data for the third-order pattern u_t - u_{2,t} = A u3 + ..."""

    g: Expr
    h: Expr
    A: Expr
    L1: Expr
    N1: Expr
    M: Expr
    eta: Expr
    delta: int = 1


def _require_nonzero(e: Expr, condition: str):
    if e.is_zero():
        raise HypothesisViolationError(condition, e)


def _require_zero(e: Expr, condition: str):
    if not e.is_zero():
        raise HypothesisViolationError(condition, e)


def _require_reduced_dependence(e: Expr, name: str, xt_allowed: bool = True):
    """e may depend on u, v only through the combinations u - u2, v - v2
    (and, unless xt_allowed, not on x, t at all).  Problems are listed in
    jet order."""
    problems = check_factored_dependence(e)
    if not xt_allowed:
        problems += [f"depends on {c}" for c in (K.x, K.t) if not e.constant_along(c)]
    if problems:
        raise HypothesisViolationError(f"{name} reduced dependence", "; ".join(problems))


def _max_orders(*exprs: Expr) -> tuple[int, int]:
    mo = no = 0
    for e in exprs:
        for c in e.coords():
            if c.kind == K.KIND_JET and c.name == "u":
                mo = max(mo, c.order)
            elif c.kind == K.KIND_JET and c.name == "v":
                no = max(no, c.order)
    return mo, no


# D_t modulo F = G = 0 is the partial in t on coefficients that factor
# through u - u2 and v - v2
_UNFORCED = PdeSystem((2, 2), K.ZERO, K.ZERO)


def _solve_fg(forms: AssociatedForms, const_row: int, W: Expr) -> tuple[Expr, Expr]:
    """Invert for (F, G) the two structure equations whose dx-coefficient
    f_a1 depends on u, v.  Each residual is r_a - F df_a1/du - G df_a1/dv,
    where r_a is its residual under F = G = 0; W is their wronskian."""
    a, b = [r for r in range(3) if r != const_row - 1]
    ra, rb = exterior_d_mod_system(_UNFORCED, [structure_equations(forms)[r] for r in (a, b)])
    fa1, fb1 = forms.f[a][0], forms.f[b][0]
    F = (fb1.diff(K.v(0)) * ra - fa1.diff(K.v(0)) * rb) / W
    G = (-fb1.diff(K.u(0)) * ra + fa1.diff(K.u(0)) * rb) / W
    return F, G


def _assemble(
    f, delta: int, const_row: int, orders: tuple[int, int], W: Expr
) -> tuple[PdeSystem, AssociatedForms]:
    """The system solved from the forms f, with its orders bounded by
    `orders`, and the forms, checked against Lemma 3.1."""
    forms = AssociatedForms(f, delta)
    F, G = _solve_fg(forms, const_row, W)
    mo, no = orders
    fo, go = _max_orders(F, G)
    if fo > mo or go > no:
        raise HypothesisViolationError(
            "output orders within bounds", f"built orders ({fo}, {go}) exceed ({mo}, {no})"
        )
    sys = PdeSystem((mo, no), F, G)
    report = check_lemma31(forms, sys)
    if not report.passed:
        failed = ", ".join(c.condition_id for c in report.failures())
        raise HypothesisViolationError("constructed forms verify", failed)
    return sys, forms


def build_theorem34(inp: Thm34Input) -> tuple[PdeSystem, AssociatedForms]:
    """Pattern with f21 constant: N = (D_x M + h L) / g."""
    _require_reduced_dependence(inp.g, "g")
    _require_reduced_dependence(inp.h, "h")
    W = wronskian(inp.g, inp.h)
    _require_nonzero(W, "wronskian of (g, h) nonzero")
    N = (total_dx(inp.M) + inp.h * inp.L) / inp.g
    _require_nonzero(inp.g * inp.M - inp.eta * inp.L, "g*M - eta*L nonzero")
    f = ((inp.g, inp.L), (inp.eta, inp.M), (inp.h, N))
    _generic_condition(inp.L, N, *inp.orders)
    return _assemble(f, inp.delta, 2, inp.orders, W)


def build_theorem35(inp: Thm34Input) -> tuple[PdeSystem, AssociatedForms]:
    """Pattern with f31 constant: N = (delta * D_x M + h L) / g; M non-constant."""
    _require_reduced_dependence(inp.g, "g")
    _require_reduced_dependence(inp.h, "h")
    W = wronskian(inp.g, inp.h)
    _require_nonzero(W, "wronskian of (g, h) nonzero")
    if inp.M.is_const():
        raise HypothesisViolationError("M non-constant", inp.M)
    N = (Expr.const(inp.delta) * total_dx(inp.M) + inp.h * inp.L) / inp.g
    f = ((inp.g, inp.L), (inp.h, N), (inp.eta, inp.M))
    _generic_condition(inp.L, N, *inp.orders)
    return _assemble(f, inp.delta, 3, inp.orders, W)


def _generic_condition(L: Expr, N: Expr, mo: int, no: int):
    # L or N must carry each top jet, decided term by term: a sum of squares
    # can cancel over Q(i, sqrt 2)
    for c in (K.u(mo - 1), K.v(no - 1)):
        if L.constant_along(c) and N.constant_along(c):
            raise HypothesisViolationError("top-order coefficients present", K.ZERO)


def _check_pointwise_data(inp: Thm36Input):
    _require_reduced_dependence(inp.g, "g", xt_allowed=False)
    _require_reduced_dependence(inp.h, "h", xt_allowed=False)
    allowed = {K.u(0), K.u(1), K.v(0), K.v(1)}
    for name, e in (("A", inp.A), ("L1", inp.L1), ("N1", inp.N1), ("M", inp.M)):
        extra = {
            c
            for c in e.coords()
            if c.kind in (K.KIND_INDEP, K.KIND_JET, K.KIND_DEP) and c not in allowed
        }
        if extra:
            raise HypothesisViolationError(
                f"{name} depends only on (u, u1, v, v1)", ", ".join(sorted(map(str, extra)))
            )


def _third_order_constraint(inp: Thm36Input, signed: bool) -> None:
    """Exactness D_x M + h L1 - g N1 = 0 (with delta on D_x M when signed),
    reported together with its cross-derivative consequence."""
    lhs = inp.g * inp.N1 - inp.h * inp.L1
    cross = lhs.diff(K.u(2)).diff(K.v(1)) - lhs.diff(K.u(1)).diff(K.v(2))
    if not cross.is_zero():
        raise HypothesisViolationError(
            "cross-derivative compatibility of g*N1 - h*L1", cross
        )
    d = Expr.const(inp.delta) if signed else K.ONE
    _require_zero(d * total_dx(inp.M) + inp.h * inp.L1 - inp.g * inp.N1,
                  "D_x M + h*L1 - g*N1 vanishes")


def build_theorem36(inp: Thm36Input) -> tuple[PdeSystem, AssociatedForms, MatrixForm]:
    """Third-order pattern with f21 constant."""
    _check_pointwise_data(inp)
    W = wronskian(inp.g, inp.h)
    _require_nonzero(W, "wronskian of (g, h) nonzero")
    _require_nonzero(
        inp.L1 * inp.eta - inp.g * (inp.M + inp.eta * inp.A),
        "eta*L1 - g*(M + eta*A) nonzero",
    )
    _third_order_constraint(inp, signed=False)
    L = -inp.A * inp.g + inp.L1
    N = -inp.A * inp.h + inp.N1
    f = ((inp.g, L), (inp.eta, inp.M), (inp.h, N))
    sys, forms = _assemble(f, inp.delta, 2, (3, 3), W)
    return sys, forms, from_forms(forms)


def build_theorem37(inp: Thm36Input) -> tuple[PdeSystem, AssociatedForms, MatrixForm]:
    """Third-order pattern with f31 constant; M non-constant."""
    _check_pointwise_data(inp)
    W = wronskian(inp.g, inp.h)
    _require_nonzero(W, "wronskian of (g, h) nonzero")
    if inp.M.is_const():
        raise HypothesisViolationError("M non-constant", inp.M)
    _third_order_constraint(inp, signed=True)
    L = -inp.A * inp.g + inp.L1
    N = -inp.A * inp.h + inp.N1
    f = ((inp.g, L), (inp.h, N), (inp.eta, inp.M))
    sys, forms = _assemble(f, inp.delta, 3, (3, 3), W)
    return sys, forms, from_forms(forms)


def check_corollary33(sys: PdeSystem) -> bool:
    """Right-hand sides must be linear in the top-order jets."""
    um, vn = K.u(sys.orders[0]), K.v(sys.orders[1])
    for e in (sys.F, sys.G):
        for a in (um, vn):
            for b in (um, vn):
                if not e.diff(a).constant_along(b):
                    return False
    return True


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    system: PdeSystem
    forms: AssociatedForms
    lax: MatrixForm


def _entry(name: str, description: str, system: PdeSystem, forms: AssociatedForms) -> CatalogEntry:
    return CatalogEntry(name, description, system, forms, from_forms(forms))


# the momentum variables m = u - u2, n = v - v2 and the constants that the
# catalog entries are written in
_MH, _NH = parse("u - u2"), parse("v - v2")
_ETA = Expr.atom(K.eta)
_HALF = K.ONE / 2


def _entry_song_qu_qiao() -> CatalogEntry:
    Q = parse("u1*v1 - u*v + u*v1 - u1*v")
    F = total_dx(_MH * Q)
    G = total_dx(_NH * Q)
    sys = PdeSystem((3, 3), F, G)
    Ep = parse("exp((eta-1)*x)")
    Em = 1 / Ep
    f11 = _ETA * (_MH * Ep + _NH * Em)
    f12 = _ETA * Q * (_MH * Ep + _NH * Em) + (parse("u + u1") * Ep + parse("v - v1") * Em) / (2 * _ETA)
    f21 = _ETA
    f22 = 1 / (2 * _ETA**2) + Q
    f31 = -_ETA * (_MH * Ep - _NH * Em)
    f32 = -_ETA * Q * (_MH * Ep - _NH * Em) - (parse("u + u1") * Ep - parse("v - v1") * Em) / (2 * _ETA)
    forms = AssociatedForms(((f11, f12), (f21, f22), (f31, f32)), 1)
    return _entry("song-qu-qiao", "coupled cubic flow with conserved exponential frame", sys, forms)


def _entry_cubic_ch2() -> CatalogEntry:
    B = parse("u*v - u1*v1")
    C = parse("u*v1 - u1*v")
    F = _HALF * total_dx(_MH * B) - _HALF * _MH * C
    G = _HALF * total_dx(_NH * B) + _HALF * _NH * C
    sys = PdeSystem((3, 3), F, G)
    f11 = _HALF * _ETA * (_MH - _NH)
    f12 = _ETA / 4 * B * (_MH - _NH) + (parse("u - u1") - parse("v + v1")) / (2 * _ETA)
    f21 = Expr.const(-1)
    f22 = -1 / _ETA**2 - _HALF * (B + C)
    f31 = -_HALF * _ETA * (_MH + _NH)
    f32 = -_ETA / 4 * B * (_MH + _NH) - (parse("u - u1") + parse("v + v1")) / (2 * _ETA)
    forms = AssociatedForms(((f11, f12), (f21, f22), (f31, f32)), 1)
    return _entry("cubic-ch2", "two-component cubic Camassa-Holm flow", sys, forms)


def _entry_factored_ch2() -> CatalogEntry:
    prod = parse("(u - u1)*(v + v1)")
    F = -_HALF * _MH * prod
    G = _HALF * _NH * prod
    sys = PdeSystem((2, 2), F, G)
    f11 = _HALF * _ETA * (_NH - _MH)
    f12 = (parse("v + v1") - parse("u - u1")) / (2 * _ETA)
    f21 = K.ONE
    f22 = 1 / _ETA**2 + _HALF * prod
    f31 = -_HALF * _ETA * (_MH + _NH)
    f32 = -(parse("u - u1") + parse("v + v1")) / (2 * _ETA)
    forms = AssociatedForms(((f11, f12), (f21, f22), (f31, f32)), 1)
    return _entry("factored-ch2", "second-order flow with factored right-hand side", sys, forms)


def _entry_mch_type() -> CatalogEntry:
    R = parse("-1/2*(u^2 + v^2 - u1^2 - v1^2) - u*v1 + u1*v")
    F = total_dx(R * _MH) - 2 * Expr.atom(K.u(1))
    G = total_dx(R * _NH) - 2 * Expr.atom(K.v(1))
    sys = PdeSystem((3, 3), F, G)
    f11 = -_NH
    f12 = -R * _NH + parse("v + u1")
    f21 = K.ONE
    f22 = R - 1
    f31 = _MH
    f32 = R * _MH - parse("u - v1")
    forms = AssociatedForms(((f11, f12), (f21, f22), (f31, f32)), -1)
    return _entry("mch-type", "modified Camassa-Holm-type flow on spherical surfaces", sys, forms)


def _entry_skew_ch2() -> CatalogEntry:
    Pfx = parse("u*v1 - u1*v")
    B = parse("u*v - u1*v1")
    F = _HALF * total_dx(_MH * Pfx) - _HALF * _MH * B
    G = _HALF * total_dx(_NH * Pfx) + _HALF * _NH * B
    sys = PdeSystem((3, 3), F, G)
    f11 = -_HALF * _ETA * (_MH - _NH)
    f12 = -_ETA / 4 * Pfx * (_MH - _NH) - (parse("u - u1") - parse("v + v1")) / (2 * _ETA)
    f21 = K.ONE
    f22 = 1 / _ETA**2 + _HALF * parse("(u - u1)*(v + v1)")
    f31 = -_HALF * _ETA * (_MH + _NH)
    f32 = -_ETA / 4 * Pfx * (_MH + _NH) - (parse("u - u1") + parse("v + v1")) / (2 * _ETA)
    forms = AssociatedForms(((f11, f12), (f21, f22), (f31, f32)), 1)
    return _entry("skew-ch2", "two-component flow with antisymmetric flux", sys, forms)


_CATALOG_BUILDERS = {
    "song-qu-qiao": _entry_song_qu_qiao,
    "cubic-ch2": _entry_cubic_ch2,
    "factored-ch2": _entry_factored_ch2,
    "mch-type": _entry_mch_type,
    "skew-ch2": _entry_skew_ch2,
}


def catalog() -> list[CatalogEntry]:
    return [catalog_entry(name) for name in _CATALOG_BUILDERS]


@functools.cache
def catalog_entry(name: str) -> CatalogEntry:
    """The named entry, built on first use."""
    builder = _CATALOG_BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown catalog entry '{name}'")
    return builder()
