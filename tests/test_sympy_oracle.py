"""Paper-level verdicts recomputed in sympy, outside the kernel.

The Lemma 3.1 structure residuals

    r1 = D_x f12 - D_t f11 - (f31 f22 - f32 f21)
    r2 = D_x f22 - D_t f21 - (f11 f32 - f12 f31)
    r3 = D_x f32 - D_t f31 - delta (f11 f22 - f12 f21)

are rebuilt in sympy from the printed form coefficients f_ij; a residual
vanishes when it is zero in sympy's rational function field (``sfield``)
over the symbols and exponentials it holds, with i and sqrt(2) in the
coefficient field.  That verdict must equal the kernel's.  D_x is written
out in sympy (the partial in x plus the promotion u_k -> u_{k+1} of every
jet).  D_t is rebuilt from the system alone: a dx-coefficient f is rewritten
with u2 = u - w and v2 = v - z, which must leave no bare u or v, and
D_t f = f_t + F f_w + G f_z from the converted ``sys.F`` and ``sys.G``.  So
every verdict checks jetcalc's rule for D_t as well as the kernel's algebra
and the assembly in ``forms``.  Residuals and verdicts are cached, so each
is built and decided once however many tests ask for it.

With symbols in place of F and G the same D_t makes the structure equations
linear in F and G: for each constructor input below, the two whose
dx-coefficient is not constant are solved in sympy (``linsolve``) and the
solution must cancel against the constructor's F and G.  A seeded term
added to F must then fail a structure residual in the kernel and in sympy.

The zero-curvature residual D_t X - D_x T + [X, T] of the packed Lax pair is
rebuilt the same way, with X and T packed in sympy from the f_ij: sl(2, R)
as (1/2) [[f2, f1 - f3], [f1 + f3, -f2]] for delta = +1, and the su(2)-style
(1/2) [[I f2, f1 + I f3], [-f1 + I f3, -I f2]] for delta = -1.  Its verdict
must equal ``laxzoo.mat_is_zero`` of the kernel's residual.

Inputs: ``build thm35`` (Theorem 3.5) on the configs of the benchmark's
construct-thm35 workload, seeds 0-9 at delta = +1 and -1; ``build thm34``
on ``tests/golden/build_thm34.config.json``; ``build_theorem36`` on the
Song-Qu-Qiao frame and ``build_theorem37`` on the ``mch-type`` frame rotated
to its third-row pattern; and the five catalog entries.  Each is also
checked with the opposite curvature sign, where residual 3 and the zero
curvature must fail; for ``mch-type`` that is
``verify example mch-type --delta 1``.

Seeded families of Theorems 3.4, 3.6 and 3.7 at both signs (the integer
draws of ``test_constructor_texts.py``, with spectral slots eta, 2, -1, x
and t) are decided in sympy from the constructor's hypotheses alone: the
first one broken, in the constructor's order, must be the condition of the
kernel's ``HypothesisViolationError``, and an input that breaks none must
build, with F and G equal to the sympy solution.  "Constructed forms
verify" is decided in sympy on the three structure residuals; the drawn
slots meet every other Lemma 3.1 condition.

The Lemma 3.1 dependence conditions on the dx- and dt-coefficients are
decided in sympy one partial derivative at a time, on 40 seeded f11, f12
set into ``cubic-ch2``, and compared with ``check_lemma31``'s verdicts and
with the list of violations that the t-derivative reports.
"""

import functools
import json
import random
import re
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import auto_number, auto_symbol  # noqa: E402
from sympy.polys.fields import sfield  # noqa: E402

from pssurf import kernel as K  # noqa: E402
from pssurf.classify import (  # noqa: E402
    HypothesisViolationError,
    Thm34Input,
    Thm36Input,
    build_theorem34,
    build_theorem35,
    build_theorem36,
    build_theorem37,
    catalog_entry,
)
from pssurf.forms import AssociatedForms, check_lemma31  # noqa: E402
from pssurf.jetcalc import IllFormedDependenceError, PdeSystem, total_dt_mod_system  # noqa: E402
from pssurf.kernel import Expr, parse  # noqa: E402
from pssurf.laxzoo import from_forms, mat_is_zero, zero_curvature_residual  # noqa: E402
from test_constructor_texts import DRAWS, INTEGERS  # noqa: E402

_LOCALS = {"i": sympy.I, "s": sympy.sqrt(2), "exp": sympy.exp}
_X, _T = sympy.Symbol("x"), sympy.Symbol("t")


@functools.cache
def _sympy(e: Expr):
    # a printed expression has no decimal point or factorial, so the two
    # transformations that parse_expr adds for those are left out
    text = str(e).replace("^", "**")
    return sympy.parse_expr(text, local_dict=_LOCALS, transformations=(auto_symbol, auto_number))


def _thm35_input(seed: int, delta: int) -> Thm34Input:
    # the draw of the benchmark's construct-thm35 workload
    rng = random.Random(seed)
    a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
    return Thm34Input(
        g=parse("u - u2"), h=parse("v - v2"), L=parse(f"{a}*u1 + {b}*v"),
        M=parse(f"{c}*u + {d}*v"), eta=parse("eta"), delta=delta, orders=(3, 3),
    )


_JET = re.compile(r"[uv]\d*$")


def _jets(f) -> set:
    return {c for c in f.free_symbols if _JET.match(c.name)}


def _order(c) -> int:
    return int(c.name[1:] or 0)


@functools.cache
def _d_x(f):
    """D_x in sympy: the partial in x plus the promotion u_k -> u_{k+1},
    v_k -> v_{k+1} of every jet."""
    return sympy.diff(f, _X) + sum(sympy.diff(f, c) * _sym(f"{c.name[0]}{_order(c) + 1}") for c in _jets(f))


def _system_dt(system):
    """D_t in sympy from the system's F and G alone (see `_dt_with`)."""
    return _dt_with(_sympy(system.F), _sympy(system.G))


@functools.cache
def _dt_with(F, G):
    """D_t in sympy from F and G, for f that depend on u, u2 and v, v2 only
    through w = u - u2 and z = v - v2: D_t f = f_t + F f_w + G f_z."""
    u, u2, v, v2 = (sympy.Symbol(name) for name in ("u", "u2", "v", "v2"))
    w, z = sympy.Dummy("w"), sympy.Dummy("z")

    @functools.cache
    def d_t(f):
        g = sympy.expand(f.subs({u2: u - w, v2: v - z}))
        assert not g.free_symbols & {u, v}, f
        dg = sympy.diff(g, _T) + F * sympy.diff(g, w) + G * sympy.diff(g, z)
        return dg.subs({w: u - u2, z: v - v2})

    return d_t


@functools.cache
def _vanishes(r) -> bool:
    return sfield(r, extension=True)[1] == 0


def _sympy_rows(f) -> tuple:
    return tuple(tuple(_sympy(e) for e in row) for row in f)


def _rows_residuals(rows, d_t) -> tuple:
    """(r1, r2, D_x f32 - D_t f31, f11 f22 - f12 f21) in sympy for the
    sympy form coefficients rows; r3 is the third minus delta times the
    fourth."""
    (f11, f12), (f21, f22), (f31, f32) = rows
    return (_d_x(f12) - d_t(f11) - (f31 * f22 - f32 * f21), _d_x(f22) - d_t(f21) - (f11 * f32 - f12 * f31),
            _d_x(f32) - d_t(f31), f11 * f22 - f12 * f21)


@functools.cache
def _residuals(f, system) -> tuple:
    """`_rows_residuals` of the form coefficients f, with D_t from the
    system's F and G."""
    return _rows_residuals(_sympy_rows(f), _system_dt(system))


def _oracle_verdicts(forms: AssociatedForms, system) -> list[bool]:
    """The three verdicts for the forms at their curvature sign.  Residuals
    and verdicts are cached, so forms tested at both signs, or by several
    tests, build and test each residual once."""
    r1, r2, d3, w12 = _residuals(forms.f, system)
    return [_vanishes(r1), _vanishes(r2), _vanishes(d3 - forms.delta * w12)]


def _zero_curvature(rows, delta: int, d_t) -> bool:
    """Whether the Lax pair packed from the sympy form coefficients rows at
    the curvature sign delta has zero curvature."""
    I = sympy.I

    def packed(f1, f2, f3):
        if delta == 1:
            return sympy.Matrix([[f2, f1 - f3], [f1 + f3, -f2]]) / 2
        return sympy.Matrix([[I * f2, f1 + I * f3], [-f1 + I * f3, -I * f2]]) / 2

    # X from the dx-coefficients, T from the dt-coefficients; D_t and D_x
    # are linear, so D_t X packs the D_t of each dx-coefficient
    fx, ft = ([row[k] for row in rows] for k in (0, 1))
    X, T = packed(*fx), packed(*ft)
    residual = packed(*map(d_t, fx)) - packed(*map(_d_x, ft)) + X * T - T * X
    return all(_vanishes(r) for r in residual)


@functools.cache
def _oracle_zero_curvature(forms: AssociatedForms, system) -> bool:
    """`_zero_curvature` of the forms at their curvature sign, with D_t
    from the system."""
    return _zero_curvature(_sympy_rows(forms.f), forms.delta, _system_dt(system))


def _kernel_verdicts(forms: AssociatedForms, system) -> list[bool]:
    report = {c.condition_id: c.verdict for c in check_lemma31(forms, system).conditions}
    return [report[f"structure-residual-{k}"] for k in (1, 2, 3)]


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("seed", range(10))
def test_thm35_structure_verdicts_match_sympy(seed, delta):
    system, forms = build_theorem35(_thm35_input(seed, delta))
    assert _kernel_verdicts(forms, system) == _oracle_verdicts(forms, system) == [True] * 3
    flipped = AssociatedForms(forms.f, -delta)
    assert _kernel_verdicts(flipped, system) == _oracle_verdicts(flipped, system) == [True, True, False]


_CATALOG = ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_verdicts_match_sympy(name):
    entry = catalog_entry(name)
    forms, system = entry.forms, entry.system
    assert _kernel_verdicts(forms, system) == _oracle_verdicts(forms, system) == [True] * 3
    assert entry.lax.algebra == ("sl2" if forms.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(entry.lax, system))
    assert kernel_zc is _oracle_zero_curvature(forms, system) is True


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_at_the_opposite_sign_fails_in_both(name):
    entry = catalog_entry(name)
    flipped = AssociatedForms(entry.forms.f, -entry.forms.delta)
    oracle = _oracle_verdicts(flipped, entry.system)
    assert _kernel_verdicts(flipped, entry.system) == oracle == [True, True, False]
    lax = from_forms(flipped, "sl2" if flipped.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(lax, entry.system))
    assert kernel_zc is _oracle_zero_curvature(flipped, entry.system) is False


def _thm34_golden():
    config = json.loads((Path(__file__).parent / "golden" / "build_thm34.config.json").read_text())
    params = config["params"]
    inp = Thm34Input(
        **{name: parse(text) for name, text in config["expressions"].items()},
        eta=Expr.const(params["eta"]), delta=params["delta"], orders=(params["m"], params["n"]),
    )
    system, forms = build_theorem34(inp)
    return system, forms, from_forms(forms, "sl2" if forms.delta == 1 else "su2")


def _thm36_song_qu_qiao():
    Q = parse("u1*v1 - u*v + u*v1 - u1*v")
    return build_theorem36(Thm36Input(
        g=parse("(u-u2) + (v-v2)"), h=parse("-(u-u2) + (v-v2)"), A=-Q,
        L1=parse("1/2*(u + u1 + v - v1)"), N1=parse("-1/2*(u + u1 - v + v1)"),
        M=K.ONE / 2 + Q, eta=K.ONE, delta=1,
    ))


def _thm37_mch_type():
    # the frame (w1, -w3, w2) of the spherical entry, constant slot last
    (f11, f12), (_, f22), (f31, f32) = catalog_entry("mch-type").forms.f
    A = -parse("-1/2*(u^2 + v^2 - u1^2 - v1^2) - u*v1 + u1*v")
    return build_theorem37(Thm36Input(
        g=f11, h=-f31, A=A, L1=f12 + A * f11, N1=-f32 - A * f31, M=f22, eta=K.ONE, delta=-1,
    ))


def test_dt_rebuilt_from_the_system_agrees_with_jetcalc_on_song_qu_qiao():
    entry = catalog_entry("song-qu-qiao")
    system, (row1, row2, row3) = entry.system, entry.forms.f
    forms = entry.forms
    assert _oracle_verdicts(forms, system) == _kernel_verdicts(forms, system) == [True] * 3
    # seeded perturbations of f11 and f12 by exp((eta-1)*x) terms
    rng = random.Random(2202)
    seen = set()
    for _ in range(2):
        k1, k2 = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))
        p11 = rng.choice(("(u - u2)", "(v - v2)^2", "eta", "(u - u2)*(v - v2)"))
        p12 = rng.choice(("u1", "(v - v2)", "u*v1", "0"))
        f1 = (row1[0] + parse(f"{k1}*exp((eta-1)*x)*{p11}"), row1[1] + parse(f"{k2}*exp((eta-1)*x)*{p12}"))
        forms = AssociatedForms((f1, row2, row3), 1)
        kernel = _kernel_verdicts(forms, system)
        assert _oracle_verdicts(forms, system) == kernel, [str(f) for f in f1]
        seen.add(tuple(kernel))
    assert seen and (True, True, True) not in seen


_BUILDS = {"thm34-golden": _thm34_golden, "thm36-song-qu-qiao": _thm36_song_qu_qiao,
           "thm37-mch-type": _thm37_mch_type}


@pytest.mark.parametrize("name", _BUILDS)
def test_constructor_verdicts_match_sympy_at_both_signs(name):
    # thm34 returns no Lax pair; its forms are packed as the CLI would
    system, forms, lax = _BUILDS[name]()
    assert _kernel_verdicts(forms, system) == _oracle_verdicts(forms, system) == [True] * 3
    assert lax.algebra == ("sl2" if forms.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(lax, system))
    assert kernel_zc is _oracle_zero_curvature(forms, system) is True
    flipped = AssociatedForms(forms.f, -forms.delta)
    assert _kernel_verdicts(flipped, system) == _oracle_verdicts(flipped, system) == [True, True, False]
    lax = from_forms(flipped, "sl2" if flipped.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(lax, system))
    assert kernel_zc is _oracle_zero_curvature(flipped, system) is False


_FG = sympy.Dummy("F"), sympy.Dummy("G")
_CONSTRUCTED = [*_BUILDS, *(f"thm35-{seed}{sign}" for seed in range(10) for sign in "+-")]


def _constructed(name: str):
    """(system, forms) of a constructor input named in _CONSTRUCTED."""
    if name in _BUILDS:
        return _BUILDS[name]()[:2]
    return build_theorem35(_thm35_input(int(name[6:-1]), 1 if name[-1] == "+" else -1))


@pytest.mark.parametrize("name", _CONSTRUCTED)
def test_f_and_g_resolved_in_sympy_match_the_constructors(name):
    system, forms = _constructed(name)
    # the structure residuals with symbols F and G in D_t are linear in
    # both, and the two whose dx-coefficient is not constant hold them
    F, G = _FG
    r1, r2, d3, w12 = _rows_residuals(_sympy_rows(forms.f), _dt_with(F, G))
    rows = (r1, r2, d3 - forms.delta * w12)
    with_fg = [r for r in rows if r.has(F, G)]
    assert len(with_fg) == 2
    ((solved_f, solved_g),) = sympy.linsolve(with_fg, [F, G])
    assert sympy.cancel(solved_f - _sympy(system.F)) == 0
    assert sympy.cancel(solved_g - _sympy(system.G)) == 0
    # a seeded perturbation of F fails a structure residual on both sides
    rng = random.Random(name)
    term = parse(f"{rng.choice((-2, -1, 1, 3))}*{rng.choice(('u1', 'v', 'u*v1', 'x', 'u2^2'))}")
    perturbed = PdeSystem(system.orders, system.F + term, system.G)
    kernel = _kernel_verdicts(forms, perturbed)
    images = {F: _sympy(perturbed.F), G: _sympy(perturbed.G)}
    assert [_vanishes(r.subs(images)) for r in rows] == kernel, str(term)
    assert False in kernel, str(term)


_U, _U1, _U2, _V, _V1, _V2 = (sympy.Symbol(n) for n in ("u", "u1", "u2", "v", "v1", "v2"))
_FAMILY_SLOTS = ("eta", "2", "-1", "x", "t")


def _reduced(f, xt_allowed: bool = True) -> bool:
    """f depends on u, u2 and v, v2 only through u - u2 and v - v2, on no
    other jet, and, unless xt_allowed, not on x or t."""
    w, z = sympy.Dummy("w"), sympy.Dummy("z")
    g = sympy.cancel(f.subs({_U2: _U - w, _V2: _V - z}))
    return not (_jets(g) | (set() if xt_allowed else {_X, _T})) & g.free_symbols


def _pointwise(f) -> bool:
    return (_jets(f) | (f.free_symbols & {_X, _T})) <= {_U, _U1, _V, _V1}


def _hypotheses(theorem: str, inp) -> tuple[list, tuple]:
    """The constructor's hypotheses before assembly, in its order, as
    (condition, test) pairs in sympy, and the forms it assembles."""
    g, h, eta, M = (_sympy(getattr(inp, name)) for name in ("g", "h", "eta", "M"))
    W = sympy.diff(g, _U) * sympy.diff(h, _V) - sympy.diff(g, _V) * sympy.diff(h, _U)
    wronskian = ("wronskian of (g, h) nonzero", lambda: not _vanishes(W))
    if theorem == "thm34":
        L = _sympy(inp.L)
        N = (_d_x(M) + h * L) / g
        return [
            ("g reduced dependence", lambda: _reduced(g)), ("h reduced dependence", lambda: _reduced(h)),
            wronskian, ("g*M - eta*L nonzero", lambda: not _vanishes(g * M - eta * L)),
            ("top-order coefficients present",
             lambda: not any(_vanishes(sympy.diff(L, c)) and _vanishes(sympy.diff(N, c)) for c in (_U2, _V2))),
        ], ((g, L), (eta, M), (h, N))
    A, L1, N1 = (_sympy(getattr(inp, name)) for name in ("A", "L1", "N1"))
    lhs = g * N1 - h * L1
    sign = inp.delta if theorem == "thm37" else 1
    middle = (("eta*L1 - g*(M + eta*A) nonzero", lambda: not _vanishes(L1 * eta - g * (M + eta * A)))
              if theorem == "thm36" else ("M non-constant", lambda: bool(M.free_symbols)))
    L, N = -A * g + L1, -A * h + N1
    return [
        ("g reduced dependence", lambda: _reduced(g, False)), ("h reduced dependence", lambda: _reduced(h, False)),
        *((f"{name} depends only on (u, u1, v, v1)", lambda e=e: _pointwise(e))
          for name, e in (("A", A), ("L1", L1), ("N1", N1), ("M", M))),
        wronskian, middle,
        ("cross-derivative compatibility of g*N1 - h*L1",
         lambda: _vanishes(sympy.diff(lhs, _U2, _V1) - sympy.diff(lhs, _U1, _V2))),
        ("D_x M + h*L1 - g*N1 vanishes", lambda: _vanishes(sign * _d_x(M) + h * L1 - g * N1)),
    ], ((g, L), (eta, M), (h, N)) if theorem == "thm36" else ((g, L), (h, N), (eta, M))


def _oracle_build(theorem: str, inp) -> tuple:
    """(the first hypothesis sympy finds broken, None) or (None, (F, G))
    solved in sympy from the two structure equations that hold them."""
    hypotheses, rows = _hypotheses(theorem, inp)
    for condition, holds in hypotheses:
        if not holds():
            return condition, None
    F, G = _FG
    r1, r2, d3, w12 = _rows_residuals(rows, _dt_with(F, G))
    residuals = (r1, r2, d3 - inp.delta * w12)
    const = 1 if theorem in ("thm34", "thm36") else 2
    ((solved_f, solved_g),) = sympy.linsolve([r for k, r in enumerate(residuals) if k != const], [F, G])
    solved = sympy.cancel(solved_f), sympy.cancel(solved_g)
    if max(map(_order, _jets(solved[0]) | _jets(solved[1]))) > 3:
        return "output orders within bounds", None
    # the two solved equations hold by construction
    if not _vanishes(residuals[const].subs({F: solved[0], G: solved[1]})):
        return "constructed forms verify", None
    if theorem != "thm34" and not _zero_curvature(rows, inp.delta, _dt_with(*solved)):
        return "zero curvature of constructed pair", None
    return None, solved


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("theorem", ["thm34", "thm36", "thm37"])
def test_seeded_constructor_families_match_sympy(theorem, delta):
    draw, build = DRAWS[theorem]
    rng = random.Random(f"sympy {theorem} {delta}")
    seen = set()
    for k in range(5):  # every other draw breaks a hypothesis
        inp, breaks = draw(rng, delta, theorem, INTEGERS, _FAMILY_SLOTS, break_rate=k % 2)
        broken, solved = _oracle_build(theorem, inp)
        try:
            system, _, *_ = build(inp)
        except HypothesisViolationError as err:
            assert err.condition == broken, breaks
            seen.add("violation")
            continue
        assert broken is None and breaks is None, breaks
        assert sympy.cancel(solved[0] - _sympy(system.F)) == 0
        assert sympy.cancel(solved[1] - _sympy(system.G)) == 0
        seen.add("build")
    assert seen == {"build", "violation"}


# Factored dependence (Lemma 3.1): f_i1 depends on u, u2 only through
# u - u2 and on v, v2 only through v - v2, is free of the odd jets, and
# f_i2 is free of the top-order jets.  Each verdict is recomputed in sympy
# from the printed coefficient, one partial derivative at a time.

_PAIRED = ("(u - u2)", "(v - v2)", "eta*(u - u2)^2", "i*(v - v2)", "s*x", "exp(eta*x)*(u - u2)",
           "t/(1 + (v - v2)^2)", "(u - u2)/(eta + i)", "(v - v2)*(u - u2)*x")
_BREAKS = {
    "u": ("u", "u*u2", "u2^2*x"),
    "v": ("v*eta", "v2*t", "s*v*(u - u2)"),
    "odd": ("u1", "i*v3", "u1*v1*(u - u2)", "u5"),
}
_DT_PARTS = ("u1^2", "v2*eta", "u*v1", "i*exp(eta*x)", "1/(u1 + s)")
_TOP = ("u3*v", "s*v3", "u3^2*v1")


def _dependence_case(rng: random.Random) -> tuple[Expr, Expr]:
    """An f11 and an f12, each breaking each condition with probability 0.4."""
    f11 = rng.sample(_PAIRED, rng.randint(1, 3))
    f12 = rng.sample(_DT_PARTS, rng.randint(1, 2))
    f11 += [rng.choice(_BREAKS[c]) for c in ("u", "v", "odd") if rng.random() < 0.4]
    f12 += [rng.choice(_TOP)] if rng.random() < 0.4 else []
    return parse(" + ".join(f11)), parse(" + ".join(f12))


def _sym(name: str):
    return sympy.Symbol(name)


def _oracle_dependence(f11: Expr, f12: Expr, orders: tuple[int, int]):
    """The four Lemma 3.1 verdicts and check_factored_dependence's list."""
    f, g = _sympy(f11), _sympy(f12)

    def free_of(e, name: str) -> bool:
        return _vanishes(sympy.diff(e, _sym(name)))

    pairs = {b: _vanishes(sympy.diff(f, _sym(b)) + sympy.diff(f, _sym(f"{b}2"))) for b in "uv"}
    mo, no = orders
    odd = [f"u{k}" for k in range(1, mo + 1) if k != 2] + [f"v{k}" for k in range(1, no + 1) if k != 2]
    verdicts = {
        "f11-pairs-u-with-u2": pairs["u"],
        "f11-pairs-v-with-v2": pairs["v"],
        "f11-free-of-odd-jets": all(free_of(f, c) for c in odd),
        "f12-free-of-top-order": free_of(g, f"u{mo}") and free_of(g, f"v{no}"),
    }
    problems = []
    for b in "uv":
        problems += [] if pairs[b] else [f"{b} + {b}2 pairing fails"]
        problems += [f"depends on {b}{k}" for k in range(1, K.MAX_JET_ORDER + 1)
                     if k != 2 and not free_of(f, f"{b}{k}")]
    return verdicts, problems


def _kernel_problems(f11: Expr, system) -> list[str]:
    """check_factored_dependence's list, as the t-derivative reports it."""
    try:
        total_dt_mod_system(f11, system)
    except IllFormedDependenceError as err:
        return str(err).removeprefix("t-derivative not locally expressible: ").split("; ")
    return []


def test_factored_dependence_verdicts_match_sympy():
    entry = catalog_entry("cubic-ch2")
    _, rest2, rest3 = entry.forms.f
    rng = random.Random(3107)
    seen = set()
    for _ in range(40):
        f11, f12 = _dependence_case(rng)
        report = check_lemma31(AssociatedForms(((f11, f12), rest2, rest3), 1), entry.system)
        kernel = {c.condition_id: c.verdict for c in report.conditions}
        oracle, problems = _oracle_dependence(f11, f12, entry.system.orders)
        assert {k: kernel[k] for k in oracle} == oracle, (str(f11), str(f12))
        assert _kernel_problems(f11, entry.system) == problems, str(f11)
        seen |= set(oracle.items())
    # each condition both passes and fails
    assert len(seen) == 8
