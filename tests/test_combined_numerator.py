"""Structure equations and zero curvature decided and printed from one fraction.

``forms.exterior_d_mod_system`` sums D_x b - D_t a - c * theta ^ phi of each
equation unreduced (``kernel.fraction_sum``) and reduces the sum once.
``check_lemma31`` takes each structure residual's verdict and text from that
``Expr``, and ``laxzoo.zero_curvature_residual`` is minus the residuals of
the three trace-free entries.

``golden/residual_texts.json`` was recorded on the earlier path, which
reduced D_x b, D_t a and each wedge product on its own and then subtracted.
It holds, for seeded perturbations of the catalog and of ``build thm35``, the
three structure-residual reports and the sl2 and su2 zero-curvature matrices,
or the error raised.  The one fraction must print them byte for byte.  Run
this file as a script to re-record them.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from pssurf import kernel as K
from pssurf.classify import Thm34Input, build_theorem35, catalog_entry
from pssurf.forms import AssociatedForms, check_lemma31
from pssurf.jetcalc import PdeSystem
from pssurf.kernel import KernelError, Poly, parse
from pssurf.laxzoo import from_forms, mat_strings, zero_curvature_residual

GOLDEN = Path(__file__).parent / "golden" / "residual_texts.json"

_ONE = Poly.const(1)
_CATALOG = ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")


class TestSumVanishes:
    def test_exponentials_meet_only_on_one_lattice(self):
        # exp((eta-1)*x)^2 as the square of its basis atom, against
        # exp(2*(eta-1)*x) held on its own lattice: one function, two atoms
        square = parse("exp((eta-1)*x)").num.pow(2)
        double = parse("exp(2*(eta-1)*x)").num
        assert square != double and square.sub(double).terms
        assert K.fraction_sum([(square, _ONE), (double.neg(), _ONE)]).is_zero()
        assert K.fraction_sum([(square.mul(parse("u").num), parse("u - u2").num),
                               (double.mul(parse("-u").num), parse("u - u2").num)]).is_zero()
        assert not K.fraction_sum([(square, _ONE), (double, _ONE)]).is_zero()

    def test_sum_of_squares_cancels_under_i_squared(self):
        # 1/(u + i*v) = (u - i*v)/(u^2 + v^2) only because i*i = -1
        a, b = parse("1/(u + i*v)"), parse("(u - i*v)/(u^2 + v^2)")
        assert a.den != b.den and a != b
        assert K.fraction_sum([(a.num, a.den), (b.num.neg(), b.den)]).is_zero()
        assert not K.fraction_sum([(a.num, a.den), (b.num, b.den)]).is_zero()

    def test_equal_denominators_add_before_cross_multiplying(self):
        d = parse("u1 + s").num
        parts = [(parse("u").num, d), (parse("v").num, d), (parse("-u - v").num, d)]
        assert K.fraction_sum(parts).is_zero()
        assert not K.fraction_sum(parts[:2]).is_zero()
        assert K.fraction_sum([]).is_zero()


class TestFractionSum:
    def test_sum_reduces_to_the_expr_sum(self):
        exprs = [parse(t) for t in ("u/(u1 + v)", "-v/(u1 + v)", "1/(u - u2)", "eta*exp(x)", "3/2")]
        got = K.fraction_sum([(e.num, e.den) for e in exprs])
        want = sum(exprs, K.ZERO)
        assert (got, str(got)) == (want, str(want)) and not got.den.is_const()

    def test_unreduced_pairs_reduce_once(self):
        # (u^2 - v^2)/(u - v) over an unreduced common denominator
        num, den = parse("u^2 - v^2").num, parse("u - v").num
        got = K.fraction_sum([(num, den.mul(den)), (parse("-v").num, den)])
        assert got == parse("u/(u - v)") and str(got) == "(u)/(u - v)"

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_one_denominator_sums_without_poly_add(self, monkeypatch, n):
        # numerators over one denominator add into one term dict, reduced
        # once; a Poly.add per fraction copied the partial sum every time
        den = parse("u - v").num
        nums = [parse(f"{k}*u1^{k} + v/{k + 1} - u").num for k in range(1, n + 1)] + [parse(f"{n}*u").num]
        adds, handed = [], []
        add = Poly.add
        monkeypatch.setattr(Poly, "add", lambda p, q: adds.append(q) or add(p, q))
        monkeypatch.setattr(K, "Expr", lambda num, den: handed.append((num, den)))
        K.fraction_sum([(p, den) for p in nums])
        monkeypatch.undo()
        assert adds == [] and handed == [(functools.reduce(Poly.add, nums), den)]

    def test_a_vanishing_sum_takes_no_gcd(self, monkeypatch):
        def no_gcd(a, b):
            raise AssertionError("gcd taken")

        a, b = parse("1/(u + i*v)"), parse("(u - i*v)/(u^2 + v^2)")
        monkeypatch.setattr(K, "poly_gcd", no_gcd)
        zero = K.fraction_sum([(a.num, a.den), (b.num.neg(), b.den)])
        assert zero.is_zero() and str(zero) == "0"


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


def _catalog_inputs(name: str):
    entry = catalog_entry(name)
    return _perturbations(entry.forms, entry.system, random.Random(f"combined-{name}"))


def _thm35_inputs(seed: int):
    rng = random.Random(seed)
    a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
    system, forms = build_theorem35(Thm34Input(
        g=parse("u - u2"), h=parse("v - v2"), L=parse(f"{a}*u1 + {b}*v"),
        M=parse(f"{c}*u + {d}*v"), eta=parse("eta"), delta=1, orders=(3, 3),
    ))
    return _perturbations(forms, system, rng)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KernelError as err:
        return f"{type(err).__name__}: {err}"


def _structure_reports(forms: AssociatedForms, system: PdeSystem) -> list:
    return [[c.condition_id, c.residual_text, c.verdict] for c in check_lemma31(forms, system).conditions
            if c.condition_id.startswith("structure-residual")]


def _texts(inputs) -> list:
    """Per input: its structure-residual reports and its sl2 and su2
    zero-curvature matrices, each as printed or as the error raised."""
    return [{
        "structure": _outcome(_structure_reports, forms, system),
        **{algebra: _outcome(lambda: mat_strings(zero_curvature_residual(from_forms(forms, algebra), system)))
           for algebra in ("sl2", "su2")},
    } for forms, system in inputs]


def residual_texts() -> dict:
    return {**{name: _texts(_catalog_inputs(name)) for name in _CATALOG},
            **{f"thm35 seed {seed}": _texts(_thm35_inputs(seed)) for seed in range(10)}}


def _check_against_recorded(key: str, inputs) -> None:
    texts = _texts(inputs)
    assert texts == json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    reports = [t["structure"] for t in texts if not isinstance(t["structure"], str)]
    assert all(verdict is (text == "0") for r in reports for _, text, verdict in r)
    verdicts = {tuple(verdict for *_, verdict in r) for r in reports}
    assert (True,) * 3 in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_perturbations_match_the_reduced_residuals(name):
    _check_against_recorded(name, _catalog_inputs(name))


@pytest.mark.parametrize("seed", range(10))
def test_thm35_perturbations_match_the_reduced_residuals(seed):
    _check_against_recorded(f"thm35 seed {seed}", _thm35_inputs(seed))


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(residual_texts(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
