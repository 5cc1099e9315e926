"""Verdicts decided on one combined numerator (``kernel.sum_vanishes``).

``check_lemma31`` and ``laxzoo.has_zero_curvature`` decide each structure
equation and each trace-free zero-curvature entry with ``forms.d_is_wedge``,
which builds no ``Expr``.  The reduced residuals of
``forms.structure_residuals`` and ``laxzoo.zero_curvature_residual`` stay as
the oracle: on seeded perturbations of the catalog and of ``build thm35``,
every verdict must equal theirs, and a failing report must print their text.
"""

import random

import pytest

from pssurf.classify import Thm34Input, build_theorem35, catalog_entry
from pssurf.forms import (
    AssociatedForms,
    _structure_equations,
    check_lemma31,
    d_is_wedge,
    structure_residuals,
)
from pssurf.jetcalc import PdeSystem
from pssurf.kernel import Poly, parse, sum_vanishes
from pssurf.laxzoo import (
    _curvature_equations,
    from_forms,
    has_zero_curvature,
    zero_curvature_residual,
)

_ONE = Poly.const(1)


class TestSumVanishes:
    def test_exponentials_meet_only_on_one_lattice(self):
        # exp((eta-1)*x)^2 as the square of its basis atom, against
        # exp(2*(eta-1)*x) held on its own lattice: one function, two atoms
        square = parse("exp((eta-1)*x)").num.pow(2)
        double = parse("exp(2*(eta-1)*x)").num
        assert square != double and square.sub(double).terms
        assert sum_vanishes([(square, _ONE), (double.neg(), _ONE)])
        assert sum_vanishes([(square.mul(parse("u").num), parse("u - u2").num),
                             (double.mul(parse("-u").num), parse("u - u2").num)])
        assert not sum_vanishes([(square, _ONE), (double, _ONE)])

    def test_sum_of_squares_cancels_under_i_squared(self):
        # 1/(u + i*v) = (u - i*v)/(u^2 + v^2) only because i*i = -1
        a, b = parse("1/(u + i*v)"), parse("(u - i*v)/(u^2 + v^2)")
        assert a.den != b.den and a != b
        assert sum_vanishes([(a.num, a.den), (b.num.neg(), b.den)])
        assert not sum_vanishes([(a.num, a.den), (b.num, b.den)])

    def test_equal_denominators_add_before_cross_multiplying(self):
        d = parse("u1 + s").num
        parts = [(parse("u").num, d), (parse("v").num, d), (parse("-u - v").num, d)]
        assert sum_vanishes(parts)
        assert not sum_vanishes(parts[:2])
        assert sum_vanishes([])


# Terms free of u2, v2 and of the top-order jets, so that a perturbed f12
# still passes the dependence gate and reaches the structure residuals.
_TERMS = ("u1", "v", "u*v1", "x", "eta", "eta*u1^2", "i*v1", "s*u", "exp((eta-1)*x)*v1",
          "u/(1 + v1^2)", "t*u1")


def _perturbations(forms: AssociatedForms, system: PdeSystem, rng: random.Random):
    """The forms at both signs, each also with a term added to f12 and one
    added to F."""
    for delta in (forms.delta, -forms.delta):
        signed = AssociatedForms(forms.f, delta)
        (f11, f12), row2, row3 = forms.f
        term = parse(f"{rng.choice((-2, -1, 1, 3))}*{rng.choice(_TERMS)}")
        yield signed, system
        yield AssociatedForms(((f11, f12 + term), row2, row3), delta), system
        term = parse(f"{rng.choice((-2, -1, 1, 3))}*{rng.choice(_TERMS)}")
        yield signed, PdeSystem(system.orders, system.F + term, system.G)


def _check_against_reduced_residuals(forms: AssociatedForms, system: PdeSystem) -> tuple:
    residuals = structure_residuals(forms, system)
    verdicts = [d_is_wedge(system, *eq) for eq in _structure_equations(forms)]
    assert verdicts == [r.is_zero() for r in residuals]
    report = {c.condition_id: c for c in check_lemma31(forms, system).conditions}
    for k, r in enumerate(residuals, start=1):
        condition = report[f"structure-residual-{k}"]
        assert (condition.verdict, condition.residual_text) == (r.is_zero(), str(r))
    lax = from_forms(forms)
    (r00, r01), (r10, r11) = zero_curvature_residual(lax, system)
    entries = [d_is_wedge(system, *eq) for eq in _curvature_equations(lax)]
    assert entries == [r.is_zero() for r in (r00, r01, r10)]
    assert (r00 + r11).is_zero()
    assert has_zero_curvature(lax, system) is all(entries)
    return tuple(verdicts), tuple(entries)


@pytest.mark.parametrize("name", ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2"))
def test_catalog_perturbations_match_the_reduced_residuals(name):
    entry = catalog_entry(name)
    rng = random.Random(f"combined-{name}")
    seen = {_check_against_reduced_residuals(f, s) for f, s in _perturbations(entry.forms, entry.system, rng)}
    assert ((True,) * 3, (True,) * 3) in seen and len(seen) > 1


@pytest.mark.parametrize("seed", range(10))
def test_thm35_perturbations_match_the_reduced_residuals(seed):
    rng = random.Random(seed)
    a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
    system, forms = build_theorem35(Thm34Input(
        g=parse("u - u2"), h=parse("v - v2"), L=parse(f"{a}*u1 + {b}*v"),
        M=parse(f"{c}*u + {d}*v"), eta=parse("eta"), delta=1, orders=(3, 3),
    ))
    seen = {_check_against_reduced_residuals(f, s) for f, s in _perturbations(forms, system, rng)}
    assert ((True,) * 3, (True,) * 3) in seen and len(seen) > 1


@pytest.mark.parametrize("row", (1, 2))
def test_a_jet_above_the_system_order_reports_the_dependence_error(row):
    # the gate looks at jets up to the system's orders (3, 3), so only the
    # t-derivative sees u5, here in the second or third equation (tests/
    # test_forms.py has f11), and no structure residual is reported
    entry = catalog_entry("cubic-ch2")
    f = list(entry.forms.f)
    f[row] = (f[row][0] + parse("u5"), f[row][1])
    report = check_lemma31(AssociatedForms(tuple(f), 1), entry.system)
    assert [(c.condition_id, c.residual_text) for c in report.conditions if not c.verdict] == [
        ("structure-residuals", "t-derivative not locally expressible: depends on u5")
    ]
    assert not any(c.condition_id.startswith("structure-residual-") for c in report.conditions)

