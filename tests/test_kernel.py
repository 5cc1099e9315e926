"""Kernel unit tests: grammar, canonical form, calculus, numeric evaluation."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pssurf import kernel as K
from pssurf.kernel import (
    CyclicBindingError,
    DivisionByZeroError,
    Expr,
    NearZeroDenominatorError,
    ParseError,
    UnboundCoordinateError,
    UnknownIdentifierError,
    UnsupportedExponentError,
    parse,
)


class TestParse:
    def test_flux_polynomial(self):
        e = parse("u1*v1 - u*v + u*v1 - u1*v")
        built = (
            Expr.atom(K.u(1)) * Expr.atom(K.v(1))
            - Expr.atom(K.u(0)) * Expr.atom(K.v(0))
            + Expr.atom(K.u(0)) * Expr.atom(K.v(1))
            - Expr.atom(K.u(1)) * Expr.atom(K.v(0))
        )
        assert e == built

    def test_additive_multiplicative_identity(self):
        assert parse("0*u + 1") == Expr.const(1)

    def test_exponent_cancellation(self):
        assert parse("exp((eta-1)*x) * exp(-(eta-1)*x)") == Expr.const(1)

    def test_rational_literals(self):
        assert parse("3/4") == Expr.const(1) * 3 / 4
        assert parse("1/2*u") == Expr.atom(K.u(0)) / 2

    def test_powers(self):
        assert parse("u^3") == Expr.atom(K.u(0)) ** 3
        assert parse("u^-1") == 1 / Expr.atom(K.u(0))
        assert parse("u^(-2)") == 1 / Expr.atom(K.u(0)) ** 2

    def test_mn_alias_default(self):
        assert parse("m") == parse("u - u2")
        assert parse("n") == parse("v - v2")

    def test_mn_jets_mode(self):
        e = parse("m1*n", mn_mode="jets")
        assert K.m(1) in e.coords()
        assert K.n(0) in e.coords()

    def test_mn_jets_rejected_in_alias_mode(self):
        with pytest.raises(UnknownIdentifierError):
            parse("m1")

    def test_u0_is_a_parameter(self):
        e = parse("u0")
        assert e.coords() == {K.u0}

    def test_delta_pinning(self):
        assert parse("delta", delta_value=-1) == Expr.const(-1)
        assert parse("delta").coords() == {K.delta}

    def test_unknown_identifier_reports_token_and_offset(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("u + bogus")
        assert exc.value.token == "bogus"
        assert exc.value.offset == 4

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("u + ")
        assert exc.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("u u")

    def test_division_by_zero_literal(self):
        with pytest.raises(DivisionByZeroError):
            parse("1/(u - u)")

    def test_exp_shape_rejections(self):
        with pytest.raises(UnsupportedExponentError):
            parse("exp(u*v)")
        with pytest.raises(UnsupportedExponentError):
            parse("exp(x + 1)")
        with pytest.raises(UnsupportedExponentError):
            parse("exp(eta)")


class TestCanonicalForm:
    def test_gcd_reduction(self):
        assert parse("(u^2 - v^2)/(u + v)") == parse("u - v")

    def test_denominator_sign_normalization(self):
        assert str(parse("1/(-u)")) == "(-1)/(u)"
        assert parse("v/(-u)") == parse("-v/u")

    def test_zero_expression(self):
        e = parse("(u+v)^2 - u^2 - 2*u*v - v^2")
        assert e.is_zero()
        assert str(e) == "0"

    def test_imaginary_unit_rewrite(self):
        assert parse("i^2") == Expr.const(-1)
        assert parse("i^4") == Expr.const(1)
        assert parse("(1+i)*(1-i)") == Expr.const(2)

    def test_sqrt_two_rewrite(self):
        assert parse("s^2") == Expr.const(2)
        assert parse("(s/2)*(s/2)") == Expr.const(1) / 2

    def test_exp_merge_by_base(self):
        assert parse("exp(eta*x)*exp(x)") == parse("exp((eta+1)*x)")
        e = parse("exp(eta*x)*exp(kk*z)")
        assert len(e.num.terms) == 1
        mono = next(iter(e.num.terms))
        assert len(mono) == 2  # one exponential per base coordinate

    def test_exp_fraction_canonical_across_routes(self):
        a = parse("(1+u)*exp(-(eta-1)*x)")
        b = parse("(1+u)/exp((eta-1)*x)")
        assert a == b

    def test_exp_fraction_cancellation(self):
        # common factors carrying exponentials reduce fully when all
        # exponents are multiples of one generator
        a = parse("exp((eta-1)*x)") / parse("u + v")
        c = parse("u*exp(2*(eta-1)*x) + 3 - 1/exp((eta-1)*x)")
        assert (a * c) / c == a
        assert (a * c) / (parse("u + v") * c) == a / parse("u + v")

    def test_mixed_exponential_directions_zero_test(self):
        # exponents along independent directions reduce only up to
        # exponential units, but differences still normalize to zero
        r = parse("exp((eta-1)*x)") / parse("u + exp(x)")
        c = parse("u^3 + v - 2 + 1/exp((eta-1)*x)")
        r2 = (parse("exp((eta-1)*x)") * c) / (parse("u + exp(x)") * c)
        assert (r - r2).is_zero()

    def test_shift_with_commensurate_and_incommensurate_bases(self):
        # base x mixes eta*x with x (incommensurate, left as is) while base z
        # is shifted by its least power over both polynomials, which is not 0
        e = parse("exp(-1/3*z)/eta*i*exp(eta*x) - exp(-x)").diff(K.x)
        assert str(e) == "(i*exp(x*eta + 2*x) + exp(x)*exp(1/3*z))/(exp(2*x)*exp(1/3*z))"
        q = parse("exp(eta*x)*exp(2/3*z) + exp(x)*exp(1/3*z)") / parse("u*exp(1/3*z)")
        assert str(q) == "(exp(x*eta)*exp(1/3*z) + exp(x))/(u)"

    def test_jet_identity(self):
        # the bare symbol and the order-zero jet are the same coordinate
        assert K.jet("u", 0) == K.u(0)
        assert parse("u") == Expr.atom(K.jet("u", 0))


class TestDiff:
    def test_linearity(self):
        assert parse("u1*v2 + x").diff(K.u(1)) == parse("v2")

    def test_chain_rule_on_exponential(self):
        e = parse("exp((eta-1)*x)")
        assert e.diff(K.x) == parse("(eta-1)*exp((eta-1)*x)")

    def test_coefficient_derivative(self):
        # hand-differentiated: d/du1 of the quadratic flux is v1 - v
        f22 = parse("1/(2*eta^2) + u1*v1 - u*v + u*v1 - u1*v")
        assert f22.diff(K.u(1)) == parse("v1 - v")

    def test_quotient_rule(self):
        e = parse("u/v")
        assert e.diff(K.v(0)) == parse("-u/v^2")

    def test_parameter_free_constant(self):
        assert parse("7/3").diff(K.u(0)).is_zero()


class TestDerive:
    def test_integer_image_joins_fractional_image_denominator(self):
        # the integer image must be brought over eta as well
        e = parse("u^2*v")
        images = {K.u(0): parse("1/eta"), K.v(0): Expr.const(3)}
        assert e.derive(images) == parse("2*u*v/eta + 3*u^2")

    def test_distinct_image_denominators_on_a_fraction(self):
        e = parse("u/(v + 1) + exp(eta*x)")
        images = {K.x: K.ONE, K.u(0): parse("1/eta"), K.v(0): parse("1/(eta + 1)")}
        expected = parse("1/(eta*(v + 1)) - u/((eta + 1)*(v + 1)^2) + eta*exp(eta*x)")
        assert e.derive(images) == expected

    def test_absent_and_zero_images_contribute_nothing(self):
        e = parse("u1*v")
        assert e.derive({K.u(2): parse("1/eta"), K.v(0): K.ZERO}).is_zero()
        assert e.derive({}).is_zero()


class TestSubstitute:
    def test_adjoint_reduction(self):
        e = parse("phih1*phi2")
        out = e.substitute({K.phih1: parse("phi2"), K.phih2: parse("-phi1")})
        assert out == parse("phi2^2")

    def test_empty_bindings(self):
        e = parse("u - u2")
        assert e.substitute({}) == e

    def test_division_by_zero_after_substitution(self):
        e = parse("1/u")
        with pytest.raises(DivisionByZeroError):
            e.substitute({K.u(0): Expr.const(0)})

    def test_cyclic_binding_rejected(self):
        with pytest.raises(CyclicBindingError):
            parse("u*v").substitute({K.u(0): parse("v"), K.v(0): parse("u")})
        with pytest.raises(CyclicBindingError):
            parse("u").substitute({K.u(0): parse("u + 1")})

    def test_substitute_into_exponent(self):
        e = parse("exp((eta-1)*x)")
        assert e.substitute({K.eta: Expr.const(1)}) == Expr.const(1)
        out = e.substitute({K.eta: Expr.const(3)})
        assert out == parse("exp(2*x)")


class TestEval:
    def test_polynomial_point(self):
        e = parse("u^2 - u1^2")
        assert e.eval({K.u(0): 2.0, K.u(1): 1.0}) == pytest.approx(3.0)

    def test_zero_exponent(self):
        e = parse("exp((eta-1)*x)")
        assert e.eval({K.eta: 1.0, K.x: 5.0}) == pytest.approx(1.0)

    def test_wave_number_value(self):
        # k = sqrt(1 - eta^2 u0) at eta = 1, u0 = 3/4 gives 1/2; check k^2
        e = parse("1 - eta^2*u0")
        val = e.eval({K.eta: 1.0, K.u0: 0.75})
        assert math.sqrt(val) == pytest.approx(0.5)

    def test_unbound_coordinate(self):
        with pytest.raises(UnboundCoordinateError):
            parse("u*v").eval({K.u(0): 1.0})

    def test_near_zero_denominator(self):
        with pytest.raises(NearZeroDenominatorError):
            parse("1/(u - v)").eval({K.u(0): 1.0, K.v(0): 1.0})


class TestCompileNumeric:
    def test_bit_identical_to_eval_with_exp_atoms(self):
        rng = random.Random(11)
        coords = [K.u(0), K.u(1), K.v(0), K.eta, K.x]
        exprs = [
            parse("exp(eta*x)*u/(1 + v^2) - 3/7*exp(-2*x)*u1^3"),
            parse("(u - 2*v)^3/(5*exp(x/2) + eta^2) + exp((eta - 1)*x)"),
        ]
        for _ in range(20):
            e = _random_expr(rng) * parse("exp((2*eta + 1)*x)") + _random_expr(rng)
            exprs.append(e / (parse("1 + x^2 + u^2") + _random_expr(rng) ** 2))
        compiled = K.compile_numeric(exprs, coords)
        for _ in range(200):  # every denominator above stays away from zero
            vals = [rng.uniform(-1.5, 1.5) for _ in coords]
            point = dict(zip(coords, vals))
            assert compiled(*vals) == tuple(e.eval(point) for e in exprs)

    def test_near_zero_denominator(self):
        f = K.compile_numeric([parse("1/(u - v)")], [K.u(0), K.v(0)])
        assert f(2.0, 1.0) == (1.0,)
        with pytest.raises(NearZeroDenominatorError):
            f(1.0, 1.0)

    def test_unbound_coordinate_at_compile_time(self):
        with pytest.raises(UnboundCoordinateError):
            K.compile_numeric([parse("u*v")], [K.u(0)])
        with pytest.raises(UnboundCoordinateError):
            K.compile_numeric([parse("u*exp(eta*x)")], [K.u(0), K.x])

    def test_generated_names_are_positional(self):
        coords = [K.kk, K.theta, K.iunit, K.sqrt2]
        exprs = [parse("kk*theta - 2*i*s"), Expr.const(0), parse("3/4")]
        f = K.compile_numeric(exprs, coords)
        assert f.__code__.co_varnames[:4] == ("a0", "a1", "a2", "a3")
        point = dict(zip(coords, (2.0, 3.0, 0.5, 1.5)))
        assert f(2.0, 3.0, 0.5, 1.5) == tuple(e.eval(point) for e in exprs)


class TestIsZero:
    def test_binomial_identity(self):
        assert parse("(u+v)^2 - u^2 - 2*u*v - v^2").is_zero()

    def test_wronskian_not_zero(self):
        # frame wronskian of the cubic flow's frame functions is -eta^2/2
        g = parse("1/2*eta*((u-u2)-(v-v2))")
        h = parse("-1/2*eta*((u-u2)+(v-v2))")
        w = g.diff(K.u(0)) * h.diff(K.v(0)) - g.diff(K.v(0)) * h.diff(K.u(0))
        assert not w.is_zero()
        assert w == parse("-eta^2/2")

    def test_zero_over_nonzero(self):
        assert parse("0/(1+u^2)").is_zero()


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

_ATOMS = [K.u(0), K.u(1), K.v(0), K.eta]


def _random_expr(rng: random.Random, depth: int = 0) -> Expr:
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        if rng.random() < 0.4:
            return Expr.const(rng.randint(-8, 8))
        return Expr.atom(rng.choice(_ATOMS))
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    op = rng.random()
    if op < 0.4:
        return a + b
    if op < 0.75:
        return a * b
    if op < 0.9:
        return a - b
    d = rng.randint(1, 6)
    return a / d + b


def test_bulk_randomized_properties():
    rng = random.Random(20240817)
    cases = 0
    for _ in range(1250):
        a, b, c = (_random_expr(rng) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a - a).is_zero()
        cases += 3
    for _ in range(1250):
        a, b = _random_expr(rng), _random_expr(rng)
        ca, cb = rng.choice(_ATOMS), rng.choice(_ATOMS)
        leib = (a * b).diff(ca) - a * b.diff(ca) - b * a.diff(ca)
        assert leib.is_zero()
        comm = a.diff(ca).diff(cb) - a.diff(cb).diff(ca)
        assert comm.is_zero()
        cases += 2
    for _ in range(2500):
        e = _random_expr(rng)
        assert parse(str(e)) == e
        cases += 1
    for _ in range(1250):
        a, b = _random_expr(rng), _random_expr(rng)
        point = {at: rng.uniform(0.5, 2.0) for at in _ATOMS}
        try:
            lhs = (a * b + a).eval(point)
            rhs = a.eval(point) * b.eval(point) + a.eval(point)
        except NearZeroDenominatorError:
            continue
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-12
        cases += 1
    assert cases >= 10_000 - 1250  # eval cases may skip near poles


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9))
def test_rational_arithmetic_matches_fractions(a, b, q):
    e = Expr.const(a) / q + Expr.const(b)
    from fractions import Fraction

    assert e.const_value() == Fraction(a, q) + b


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_power_merge(i, j):
    u = Expr.atom(K.u(0))
    assert u**i * u**j == u ** (i + j)


def test_eval_diff_finite_difference_cross_check():
    rng = random.Random(7)
    checked = 0
    for _ in range(600):
        e = _random_expr(rng)
        c = rng.choice(_ATOMS)
        point = {at: rng.uniform(0.6, 1.8) for at in _ATOMS}
        h = 1e-5
        up = dict(point)
        dn = dict(point)
        up[c] += h
        dn[c] -= h
        try:
            fd = (e.eval(up) - e.eval(dn)) / (2 * h)
            ex = e.diff(c).eval(point)
        except NearZeroDenominatorError:
            continue
        scale = max(1.0, abs(ex))
        if abs(ex) > 1e-8 or abs(fd) > 1e-8:
            assert abs(fd - ex) / scale < 1e-6
            checked += 1
    assert checked > 150


class TestProductFolds:
    """Each rewrite a monomial product performs, and the coefficient rule."""

    def test_rewrite_atoms(self):
        assert parse("i*i") == -1
        assert parse("s^3") == 2 * parse("s")
        assert parse("(1+i)*(1-i)") == 2

    def test_exponentials_of_one_base_fold(self):
        assert parse("exp(x)*exp(2*x)") == parse("exp(3*x)")
        assert parse("exp(eta*x)*exp(-eta*x)") == 1

    def test_exponentials_of_two_bases_fold_separately(self):
        a = parse("u*exp(eta*x)*exp(z)")
        b = parse("v*exp(x)*exp(-2*z)")
        prod = a * b
        assert prod == parse("u*v*exp((eta+1)*x)*exp(-z)")
        assert prod == Expr.atom(K.u(0)) * K.v(0) * Expr.exp(parse("(eta+1)*x")) * Expr.exp(parse("-z"))
        assert len(prod.num.terms) == 1
        assert len(next(iter(prod.num.terms))) == 3  # v, u, one exp per base
        assert (prod * parse("exp(-eta*x)*exp(z)") - parse("u*v*exp(x)")).is_zero()

    def test_commensurate_exponential_fraction(self):
        # reduced through integer powers of one stand-in exponential
        assert parse("(exp(2*x) - 1)/(exp(x) - 1)") == parse("exp(x) + 1")
        e = parse("(exp(3*eta*x) - u^3)/(exp(eta*x) - u)")
        assert e == parse("exp(2*eta*x) + u*exp(eta*x) + u^2")

    def test_coefficients_are_int_unless_fractional(self):
        rng = random.Random(5)
        exprs = [
            parse("3/4*u + 2"),
            parse("(2*u + 4)/(6*v)"),
            parse("(1/2*u^2 - 1/2)/(1/3*u + 1/3)"),
            parse("i*s/2 + s*s"),
            parse("exp(2/3*eta*x)*u/(2*exp(1/3*eta*x) + 4)"),
            parse("7/3").diff(K.u(0)),
            parse("u^3/(2*v)").diff(K.u(0)),
        ]
        exprs += [_random_expr(rng) / (1 + _random_expr(rng) ** 2) for _ in range(40)]
        for e in exprs:
            for c in [*e.num.terms.values(), *e.den.terms.values()]:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (e, c)
            assert all(type(c) is int for c in e.den.terms.values()), e

    def test_pickle_round_trip(self):
        e = parse("u1*eta*exp(eta*x)/(v + 2) + 1/2")
        back = pickle.loads(pickle.dumps(e))
        assert back == e
        assert hash(back) == hash(e)
        assert str(back) == str(e)
        assert back * e == e * e

    def test_unpickled_coordinates_are_the_interned_ones(self):
        # coordinates compare by identity, so unpickling must re-intern them
        assert pickle.loads(pickle.dumps(K.u(1))) is K.u(1)
        assert pickle.loads(pickle.dumps(K.eta)) is K.eta
