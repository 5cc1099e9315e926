"""Total-derivative tests: promotion, rules, evolution substitution."""

import random

import pytest

from pssurf import chsym, forms, jetcalc, kernel as K
from pssurf.classify import catalog
from pssurf.jetcalc import (
    EMPTY_RULES,
    DerivationRules,
    IllFormedDependenceError,
    MissingRuleError,
    PdeSystem,
    check_factored_dependence,
    check_rule_compatibility,
    total_dt_mod_system,
    total_dx,
)
from pssurf.kernel import Expr, parse


def _partial(e: Expr, c: K.Coord) -> Expr:
    """Quotient rule on the fraction, one coordinate at a time."""
    dn = e.num.diff(c)
    if e.den.is_const():
        return Expr(dn, e.den)
    return Expr(dn.mul(e.den).sub(e.num.mul(e.den.diff(c))), e.den.mul(e.den))


def _summed_total_dx(e: Expr, rules: DerivationRules) -> Expr:
    """Reference D_x: one reduced Expr added per coordinate."""
    out = _partial(e, K.x)
    for c in sorted(e.coords(), key=lambda c: c.key):
        if c.kind == K.KIND_JET:
            out = out + Expr.atom(K.jet(c.name, c.order + 1)) * _partial(e, c)
        elif c.kind == K.KIND_DEP:
            out = out + rules.x_rules[c] * _partial(e, c)
    return rules.close(out)


def _summed_total_dt(e: Expr, sys: PdeSystem | None, rules: DerivationRules) -> Expr:
    """Reference D_t modulo the system, one reduced Expr added per coordinate."""
    out = _partial(e, K.t)
    if any(c.kind == K.KIND_JET and c.name in ("u", "v") for c in e.coords()):
        out = out + sys.F * _partial(e, K.u(0)) + sys.G * _partial(e, K.v(0))
    for c in sorted(e.coords(), key=lambda c: c.key):
        if c.kind == K.KIND_JET and c.name in ("m", "n"):
            image = rules.t_rules[K.jet(c.name, 0)]
            for _ in range(c.order):
                image = _summed_total_dx(image, rules)
            out = out + image * _partial(e, c)
        elif c.kind == K.KIND_DEP:
            out = out + rules.t_rules[c] * _partial(e, c)
    return rules.close(out)


def _toy_system() -> PdeSystem:
    # second-order flow with factored right-hand sides
    F = parse("-1/2*(u - u2)*(u - u1)*(v + v1)")
    G = parse("1/2*(v - v2)*(u - u1)*(v + v1)")
    return PdeSystem((2, 2), F, G)


class TestTotalDx:
    def test_promotion(self):
        assert total_dx(parse("u")) == parse("u1")

    def test_leibniz(self):
        assert total_dx(parse("u*v1")) == parse("u1*v1 + u*v2")

    def test_explicit_x_dependence(self):
        e = parse("x*u + exp((eta-1)*x)")
        assert total_dx(e) == parse("u + x*u1 + (eta-1)*exp((eta-1)*x)")

    def test_missing_rule(self):
        with pytest.raises(MissingRuleError):
            total_dx(parse("phi1"))

    def test_derivation_property_randomized(self):
        rng = random.Random(99)
        atoms = [K.u(0), K.u(1), K.v(0), K.x]
        for _ in range(200):
            a = sum(
                (Expr.atom(rng.choice(atoms)) * rng.randint(-3, 3) for _ in range(3)),
                Expr.const(rng.randint(-2, 2)),
            )
            b = sum(
                (Expr.atom(rng.choice(atoms)) * rng.randint(-3, 3) for _ in range(2)),
                Expr.const(1),
            ) * Expr.atom(rng.choice(atoms))
            res = total_dx(a * b) - a * total_dx(b) - b * total_dx(a)
            assert res.is_zero()

    def test_finite_difference_cross_check(self):
        # jets follow a concrete profile u(x) = x^3 - 2x, v(x) = x^2 + 1
        e = parse("u*v1 + u1^2 - x*v")
        de = total_dx(e)

        def point(xv: float) -> dict:
            return {
                K.x: xv,
                K.u(0): xv**3 - 2 * xv,
                K.u(1): 3 * xv**2 - 2,
                K.u(2): 6 * xv,
                K.v(0): xv**2 + 1,
                K.v(1): 2 * xv,
                K.v(2): 2.0,
            }

        for xv in (0.3, 1.1, -0.7):
            h = 1e-5
            fd = (e.eval(point(xv + h)) - e.eval(point(xv - h))) / (2 * h)
            assert fd == pytest.approx(de.eval(point(xv)), rel=1e-7, abs=1e-7)


class TestDerivationOracle:
    """The single-reduction derivation against the summed reference."""

    def test_catalog_coefficients(self):
        for entry in catalog():
            for f1, f2 in entry.forms.f:
                for f in (f1, f2):
                    assert total_dx(f) == _summed_total_dx(f, EMPTY_RULES), entry.name
                assert total_dt_mod_system(f1, entry.system) == _summed_total_dt(
                    f1, entry.system, EMPTY_RULES
                ), entry.name

    def test_linear_problem_rules(self):
        # rule images over eta next to integer-denominator ones
        _, _, rules = chsym.linear_problem()
        images = list(rules.x_rules.values()) + list(rules.t_rules.values())
        assert any(not e.den.is_const() for e in images)
        for e in images:
            assert total_dx(e, rules) == _summed_total_dx(e, rules)
        for e in rules.x_rules.values():
            assert total_dt_mod_system(e, None, rules) == _summed_total_dt(e, None, rules)


class TestTotalDt:
    def test_evolution_law(self):
        sys = _toy_system()
        assert total_dt_mod_system(parse("u - u2"), sys) == sys.F

    def test_chain_on_factored_function(self):
        sys = _toy_system()
        e = parse("(u - u2)^2")
        assert total_dt_mod_system(e, sys) == 2 * parse("u - u2") * sys.F

    def test_bare_jet_rejected(self):
        with pytest.raises(IllFormedDependenceError):
            total_dt_mod_system(parse("u1"), _toy_system())

    def test_no_system_rejected(self):
        with pytest.raises(IllFormedDependenceError):
            total_dt_mod_system(parse("u - u2"), None)

    def test_factored_dependence_report(self):
        assert check_factored_dependence(parse("u - u2")) == []
        problems = check_factored_dependence(parse("u1"))
        assert any("u1" in p for p in problems)


class TestRuleCompatibility:
    def test_consistent_rules(self):
        # w plays the role of an exponential integrating factor:
        # w_x = u - u2, w_t = F is consistent by construction
        sys = _toy_system()
        rules = DerivationRules(
            x_rules={K.p: parse("u - u2")},
            t_rules={K.p: K.ZERO},
        )
        res = check_rule_compatibility(rules, sys)
        # D_t(u - u2) - D_x(0) = F, nonzero: rules are inconsistent
        assert not res[K.p].is_zero()
        good = DerivationRules(
            x_rules={K.p: K.ZERO},
            t_rules={K.p: parse("u - u2")},
        )
        res = check_rule_compatibility(good, sys)
        # D_t(0) - D_x(u - u2) = -(u1 - u3)
        assert res[K.p] == -parse("u1 - u3")

    def test_rule_closure_validation(self):
        with pytest.raises(ValueError):
            DerivationRules(x_rules={K.phi1: parse("phi2")})


def _reduced_compatibility(rules: DerivationRules, sys: PdeSystem | None) -> dict:
    """The earlier path: D_t(x-rule) and D_x(t-rule) each reduced, then subtracted."""
    return {c: total_dt_mod_system(rules.x_rules[c], sys, rules) - total_dx(rules.t_rules[c], rules)
            for c in rules.x_rules if c in rules.t_rules}


def _texts(residuals: dict) -> dict:
    return {str(c): str(r) for c, r in residuals.items()}


class TestCompatibilityIsOneExteriorDerivative:
    """check_rule_compatibility is minus d(omega_s), omega_s = x_rule(s) dx +
    t_rule(s) dt, as one fraction; it must print what the reduced path printed."""

    _PERTURBATIONS = ("phi1", "m*phi2", "eta*n*phih1", "p*phi2", "m", "phih2/eta")

    def test_ch2_rule_table(self):
        _, _, rules = chsym.linear_problem()
        got, want = check_rule_compatibility(rules, None), _reduced_compatibility(rules, None)
        assert got == want and _texts(got) == _texts(want)
        assert set(_texts(got).values()) == {"0"}

    def test_perturbed_t_rules(self):
        _, _, rules = chsym.linear_problem()
        doubly_ruled = sorted((c for c in rules.x_rules if c in rules.t_rules), key=lambda c: c.key)
        rng = random.Random(20)
        for _ in range(8):
            coord = rng.choice(doubly_ruled)
            term = rng.randint(-3, 3) or 1
            term *= parse(rng.choice(self._PERTURBATIONS), mn_mode="jets")
            bad = DerivationRules(rules.x_rules, {**rules.t_rules, coord: rules.t_rules[coord] + term},
                                  rules.constraints)
            got, want = check_rule_compatibility(bad, None), _reduced_compatibility(bad, None)
            assert got == want and _texts(got) == _texts(want), (coord, term)
            assert not got[coord].is_zero(), (coord, term)

    def test_one_call_and_no_total_derivative(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(jetcalc, name)
            return lambda *args: calls.append(name) or fn(*args)

        _, _, rules = chsym.linear_problem()
        for name in ("exterior_d_mod_system", "total_dt_mod_system", "total_dx"):
            monkeypatch.setattr(jetcalc, name, counted(name))
        jetcalc.check_rule_compatibility(rules, None)
        assert calls == ["exterior_d_mod_system"]

    def test_forms_keeps_the_name(self):
        assert forms.exterior_d_mod_system is jetcalc.exterior_d_mod_system


class TestConstraints:
    def test_closure_substitution(self):
        constraints = {
            K.jet("u", k): Expr.atom(K.jet("u", k - 2)) - Expr.atom(K.jet("m", k - 2))
            for k in range(2, K.MAX_JET_ORDER + 1)
        }
        rules = DerivationRules(constraints=constraints)
        assert rules.close(parse("u2")) == parse("u - m", mn_mode="jets")
        assert rules.close(parse("u4")) == parse("u - m - m2", mn_mode="jets")
        out = total_dx(parse("u1*m", mn_mode="jets"), rules)
        assert out == parse("(u - m)*m + u1*m1", mn_mode="jets")
