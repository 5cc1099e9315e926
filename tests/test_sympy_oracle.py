"""Paper-level verdicts recomputed in sympy, outside the kernel.

The Lemma 3.1 structure residuals

    r1 = D_x f12 - D_t f11 - (f31 f22 - f32 f21)
    r2 = D_x f22 - D_t f21 - (f11 f32 - f12 f31)
    r3 = D_x f32 - D_t f31 - delta (f11 f22 - f12 f21)

are rebuilt in sympy from the printed form coefficients f_ij and from the
D_x and D_t images that ``jetcalc`` gives for each jet; a residual vanishes
when ``expand(numer(together(r))) == 0``.  That verdict must equal the
kernel's.  The D_t images come from ``jetcalc``, so this checks the kernel's
algebra and the assembly in ``forms``, not the evolution rules.

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

The Lemma 3.1 dependence conditions on the dx- and dt-coefficients are
decided in sympy one partial derivative at a time, on 40 seeded f11, f12
set into ``cubic-ch2``, and compared with ``check_lemma31``'s verdicts and
with the list of violations that the t-derivative reports.
"""

import json
import random
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from pssurf import kernel as K  # noqa: E402
from pssurf.classify import (  # noqa: E402
    Thm34Input,
    Thm36Input,
    build_theorem34,
    build_theorem35,
    build_theorem36,
    build_theorem37,
    catalog_entry,
)
from pssurf.forms import AssociatedForms, check_lemma31  # noqa: E402
from pssurf.jetcalc import IllFormedDependenceError, total_dt_mod_system, total_dx  # noqa: E402
from pssurf.kernel import Expr, parse  # noqa: E402
from pssurf.laxzoo import from_forms, mat_is_zero, zero_curvature_residual  # noqa: E402

_LOCALS = {"i": sympy.I, "s": sympy.sqrt(2), "exp": sympy.exp}
_X, _T = sympy.Symbol("x"), sympy.Symbol("t")


def _sympy(e: Expr):
    return sympy.parse_expr(str(e).replace("^", "**"), local_dict=_LOCALS)


def _thm35_input(seed: int, delta: int) -> Thm34Input:
    # the draw of the benchmark's construct-thm35 workload
    rng = random.Random(seed)
    a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
    return Thm34Input(
        g=parse("u - u2"), h=parse("v - v2"), L=parse(f"{a}*u1 + {b}*v"),
        M=parse(f"{c}*u + {d}*v"), eta=parse("eta"), delta=delta, orders=(3, 3),
    )


def _derivations(system):
    """(D_x, D_t) in sympy.  D_t maps u and v to the images of u - u2 and
    v - v2, so it holds on dx-coefficients, which depend on u, u2 (and v, v2)
    only through that difference."""
    jets = [K.u(k) for k in range(system.orders[0] + 1)]
    jets += [K.v(k) for k in range(system.orders[1] + 1)]
    dx_images = {sympy.Symbol(str(c)): _sympy(total_dx(Expr.atom(c))) for c in jets}
    dt_images = {
        sympy.Symbol(base): _sympy(total_dt_mod_system(parse(f"{base} - {base}2"), system))
        for base in ("u", "v")
    }

    def d_x(f):
        return sympy.diff(f, _X) + sum(sympy.diff(f, c) * img for c, img in dx_images.items())

    def d_t(f):
        return sympy.diff(f, _T) + sum(sympy.diff(f, c) * img for c, img in dt_images.items())

    return d_x, d_t


def _vanishes(r) -> bool:
    return sympy.expand(sympy.numer(sympy.together(r))) == 0


def _oracle_verdicts(forms: AssociatedForms, system) -> dict[int, list[bool]]:
    """The three verdicts for the forms' rows at either curvature sign."""
    d_x, d_t = _derivations(system)
    (f11, f12), (f21, f22), (f31, f32) = [[_sympy(e) for e in row] for row in forms.f]
    r1 = _vanishes(d_x(f12) - d_t(f11) - (f31 * f22 - f32 * f21))
    r2 = _vanishes(d_x(f22) - d_t(f21) - (f11 * f32 - f12 * f31))
    d3, w12 = d_x(f32) - d_t(f31), f11 * f22 - f12 * f21
    return {delta: [r1, r2, _vanishes(d3 - delta * w12)] for delta in (1, -1)}


def _oracle_zero_curvature(forms: AssociatedForms, system) -> bool:
    """Whether the Lax pair packed from the forms at their curvature sign
    has zero curvature."""
    d_x, d_t = _derivations(system)
    I = sympy.I
    packed = []
    for k in (0, 1):  # X from the dx-coefficients, T from the dt-coefficients
        f1, f2, f3 = (_sympy(row[k]) for row in forms.f)
        if forms.delta == 1:
            packed.append(sympy.Matrix([[f2, f1 - f3], [f1 + f3, -f2]]) / 2)
        else:
            packed.append(sympy.Matrix([[I * f2, f1 + I * f3], [-f1 + I * f3, -I * f2]]) / 2)
    X, T = packed
    residual = X.applyfunc(d_t) - T.applyfunc(d_x) + X * T - T * X
    return all(_vanishes(r) for r in residual)


def _kernel_verdicts(forms: AssociatedForms, system) -> list[bool]:
    report = {c.condition_id: c.verdict for c in check_lemma31(forms, system).conditions}
    return [report[f"structure-residual-{k}"] for k in (1, 2, 3)]


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("seed", range(10))
def test_thm35_structure_verdicts_match_sympy(seed, delta):
    system, forms = build_theorem35(_thm35_input(seed, delta))
    oracle = _oracle_verdicts(forms, system)
    assert _kernel_verdicts(forms, system) == oracle[delta] == [True] * 3
    flipped = AssociatedForms(forms.f, -delta)
    assert _kernel_verdicts(flipped, system) == oracle[-delta] == [True, True, False]


_CATALOG = ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_verdicts_match_sympy(name):
    entry = catalog_entry(name)
    forms, system = entry.forms, entry.system
    oracle = _oracle_verdicts(forms, system)
    assert _kernel_verdicts(forms, system) == oracle[forms.delta] == [True] * 3
    assert entry.lax.algebra == ("sl2" if forms.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(entry.lax, system))
    assert kernel_zc is _oracle_zero_curvature(forms, system) is True


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_at_the_opposite_sign_fails_in_both(name):
    entry = catalog_entry(name)
    flipped = AssociatedForms(entry.forms.f, -entry.forms.delta)
    oracle = _oracle_verdicts(flipped, entry.system)
    assert _kernel_verdicts(flipped, entry.system) == oracle[flipped.delta] == [True, True, False]
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


_BUILDS = {"thm34-golden": _thm34_golden, "thm36-song-qu-qiao": _thm36_song_qu_qiao,
           "thm37-mch-type": _thm37_mch_type}


@pytest.mark.parametrize("name", _BUILDS)
def test_constructor_verdicts_match_sympy_at_both_signs(name):
    # thm34 returns no Lax pair; its forms are packed as the CLI would
    system, forms, lax = _BUILDS[name]()
    oracle = _oracle_verdicts(forms, system)
    assert _kernel_verdicts(forms, system) == oracle[forms.delta] == [True] * 3
    assert lax.algebra == ("sl2" if forms.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(lax, system))
    assert kernel_zc is _oracle_zero_curvature(forms, system) is True
    flipped = AssociatedForms(forms.f, -forms.delta)
    assert _kernel_verdicts(flipped, system) == oracle[flipped.delta] == [True, True, False]
    lax = from_forms(flipped, "sl2" if flipped.delta == 1 else "su2")
    kernel_zc = mat_is_zero(zero_curvature_residual(lax, system))
    assert kernel_zc is _oracle_zero_curvature(flipped, system) is False


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
