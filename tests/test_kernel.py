"""Kernel unit tests: grammar, canonical form, calculus, numeric evaluation."""

import concurrent.futures
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

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

    def test_offsets_count_utf8_bytes(self):
        # a no-break space is 2 bytes and so is each Arabic-Indic digit, which
        # the tokenizer reads as digits; ASCII offsets are character offsets
        with pytest.raises(ParseError, match=r"expected expression \(at byte 5\)") as exc:
            parse("x\u00a0*(")
        assert exc.value.offset == 5
        with pytest.raises(ParseError, match=r"expected expression \(at byte 7\)") as exc:
            parse("\u0663\u0663 + )")
        assert exc.value.offset == 7

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("u u")

    def test_division_by_zero_literal(self):
        with pytest.raises(DivisionByZeroError):
            parse("1/(u - u)")

    def test_deep_nesting_is_a_parse_error(self):
        # the recursive descent stops at 50 open groups, far below Python's
        # recursion limit, so deep input never raises RecursionError
        assert parse("(" * 50 + "u" + ")" * 50) == parse("u")
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse("(" * 1000 + "u - u2" + ")" * 1000)
        assert exc.value.offset == 50
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("exp(" * 1000 + "x" + ")" * 1000)

    def test_sign_runs_and_exponent_groups_do_not_recurse(self):
        assert parse("-" * 1000 + "u") == parse("u")
        assert parse("-" * 999 + "u") == parse("-u")
        assert parse("+-" * 1000 + "u") == parse("u")
        assert parse("u^" + "(" * 1000 + "-2" + ")" * 1000) == parse("1/u^2")

    def test_non_decimal_digits_are_parse_errors(self):
        # "²".isdigit() holds, but int() rejects it: no bare ValueError
        with pytest.raises(ParseError, match="expected integer exponent") as exc:
            parse("u^²")
        assert exc.value.offset == 2
        with pytest.raises(ParseError, match="expected expression"):
            parse("²")
        with pytest.raises(UnknownIdentifierError):
            parse("u²")

    def test_a_sum_parses_as_the_fold_of_its_summands(self):
        # plain summands add into one term dict; the sum must be the left
        # fold of `Expr` additions, down to its term order and denominator
        rng = random.Random(2718)
        atoms = ("u", "v1", "x", "eta", "i", "s", "1/2", "3", "2/3*v", "exp(x)", "exp(-2*x)", "1/(u + 1)",
                 "(u - i)/(v + s)")
        for _ in range(300):
            summands = ["*".join(rng.choice(atoms) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 9))]
            signs = [rng.choice("+-") for _ in summands[1:]]
            want = parse(summands[0])
            for sign, summand in zip(signs, summands[1:]):
                want = want + (parse(summand) if sign == "+" else -parse(summand))
            text = summands[0] + "".join(f" {sign} {summand}" for sign, summand in zip(signs, summands[1:]))
            got = parse(text)
            for a, b in ((got.num, want.num), (got.den, want.den)):
                assert (list(a.terms.items()), a.den) == (list(b.terms.items()), b.den), text

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
        # a constant equals its int or Fraction value, so it hashes as one
        assert parse("i^2") == -1 and hash(parse("i^2")) == hash(-1)
        assert Expr.const(3) == 3 and len({Expr.const(3), 3}) == 1
        assert parse("1/2") == Fraction(1, 2) and hash(parse("1/2")) == hash(Fraction(1, 2))
        assert {parse("(s/2)*(s/2)"): "half"}[Fraction(1, 2)] == "half"

    def test_sqrt_two_rewrite(self):
        assert parse("s^2") == Expr.const(2)
        assert parse("(s/2)*(s/2)") == Expr.const(1) / 2

    def test_exp_merge_by_base(self):
        assert parse("exp(eta*x)*exp(x)") == parse("exp((eta+1)*x)")
        e = parse("exp(eta*x)*exp(kk*z)")
        assert len(e.num.terms) == 1
        mono = next(iter(e.num.terms))
        assert len(K._pairs(mono)) == 2  # one exponential per base coordinate

    def test_exp_coefficients_after_reduction_are_canonical(self):
        # exp(x/2)^2 leaves fraction reduction as exp(x/2) squared, which
        # stands for exp(x): its exponent is x with the int coefficient 1
        # over 1, in lowest terms as everywhere else, not 2*x over 2
        e = parse("exp(x/2)^2/(exp(x/2) + 1)")
        exponents = [a.exponent for p in (e.num, e.den) for mono in p.terms for a, _ in K._factors(mono)]
        assert [([(type(c), c) for c in q.terms.values()], q.den) for q in exponents] == [([(int, 1)], 1),
                                                                                           ([(int, 1)], 2)]

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
        # exponents along independent directions are powers of two basis
        # atoms, free in the gcd, so the common factor cancels
        r = parse("exp((eta-1)*x)") / parse("u + exp(x)")
        c = parse("u^3 + v - 2 + 1/exp((eta-1)*x)")
        r2 = (parse("exp((eta-1)*x)") * c) / (parse("u + exp(x)") * c)
        assert (r - r2).is_zero()
        assert r == r2 and hash(r) == hash(r2)

    def test_shift_with_commensurate_and_incommensurate_bases(self):
        # base x mixes eta*x with x, a lattice of rank 2 with the basis
        # eta*x, x; base z has the basis 1/3*z; each basis power is shifted
        # by its least value over both polynomials
        e = parse("exp(-1/3*z)/eta*i*exp(eta*x) - exp(-x)").diff(K.x)
        assert str(e) == "(i*exp(x*eta + x) + exp(1/3*z))/(exp(x)*exp(1/3*z))"
        q = parse("exp(eta*x)*exp(2/3*z) + exp(x)*exp(1/3*z)") / parse("u*exp(1/3*z)")
        assert str(q) == "(exp(x*eta)*exp(1/3*z) + exp(x))/(u)"
        # one direction x - eta*x: the basis is its negative, x*eta - x
        assert str(parse("exp(x - eta*x) + u")) == "(u*exp(x*eta - x) + 1)/(exp(x*eta - x))"

    @pytest.mark.xfail(strict=True, reason="gcd over free i, s: reduced against d*d, not d")
    def test_equal_denominator_sum_is_canonical(self):
        # the sum keeps the factor v*i + u in both parts, printed as
        # (4/3*v*i + 4/3*u)/(2*u*v*i + u^2 - v^2); the difference is zero
        a = parse("1/(u+i*v)") + parse("(1/3)/(u+i*v)")
        b = parse("(4/3)/(u+i*v)")
        assert (a - b).is_zero()
        assert a == b and hash(a) == hash(b)

    def test_exp_product_with_skew_factors_is_canonical(self):
        a = parse("exp((eta+1)*x)*exp(-eta*x)")
        assert (a - parse("exp(x)")).is_zero()
        assert a == parse("exp(x)") and hash(a) == hash(parse("exp(x)"))
        assert str(a) == "exp(x)"

    def test_quotient_of_two_directions_is_canonical(self):
        a = parse("(exp(2*x)-exp(2*eta*x))/(exp(x)-exp(eta*x))")
        b = parse("exp(x)+exp(eta*x)")
        assert a == b and hash(a) == hash(b)

    def test_the_lattice_shrinks_when_a_sum_cancels(self):
        # exp(x) leaves the sum, so its lattice is spanned by 2*x
        a = parse("exp(2*x) + exp(x)") - parse("exp(x)")
        assert a == parse("exp(2*x)") and hash(a) == hash(parse("exp(2*x)"))
        ((atom, power),) = K._pairs(next(iter(a.num.terms)))
        assert (str(atom), power) == ("exp(2*x)", 1)

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


_DEPENDENCE_LEAVES = ("u", "u1", "u2", "u3", "v", "v1", "v2", "x", "t", "eta", "i", "s", "(u-u2)",
                      "exp(x)", "exp(eta*x)", "exp(-x)", "exp(eta*u1)", "2", "-3", "1/2", "(-2/3)")


def _dependence_text(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(_DEPENDENCE_LEAVES)
    a, b = _dependence_text(rng, depth + 1), _dependence_text(rng, depth + 1)
    return f"({a} {rng.choice('+-*/')} {b})"


def _dependence_exprs(count: int = 1000, seed: int = 2101) -> list:
    """Seeded random fractions over jets, parameters and exponentials;
    `exp(eta*u1)` holds a jet only inside an exponent."""
    rng = random.Random(seed)
    exprs = []
    while len(exprs) < count:
        try:
            exprs.append(parse(_dependence_text(rng)))
        except DivisionByZeroError:
            pass
    return exprs


class TestConstantAlong:
    """`constant_along` decides on the quotient-rule numerator; the summed
    reduced partials it replaced are the oracle, and so is the derivation
    (`derive`, `derive_pair`) that `diff` and `constant_along` took before
    they read the polynomial partials directly."""

    _COORDS = (K.u(0), K.u(1), K.u(2), K.u(3), K.v(0), K.v(1), K.v(2),
               K.x, K.t, K.eta, K.iunit, K.sqrt2)
    # u4 occurs in no expression
    _ORACLE_COORDS = (*_COORDS, K.u(4))

    def test_matches_the_reduced_partials(self):
        zero = paired = 0
        for e in _dependence_exprs():
            for c in self._COORDS:
                verdict = e.constant_along(c)
                assert verdict == e.diff(c).is_zero(), (str(e), c)
                zero += verdict
            for base in ("u", "v"):
                a, b = K.jet(base, 0), K.jet(base, 2)
                verdict = e.constant_along(a, b)
                assert verdict == (e.diff(a) + e.diff(b)).is_zero(), (str(e), base)
                paired += verdict and bool({a, b} & e.coords())
        # both verdicts occur often, and the pairing vanishes on many
        # expressions that do depend on u, u2 or v, v2
        assert 4000 < zero < 10000 and paired > 100

    def test_diff_matches_the_derivation(self):
        inner = 0
        for e in _dependence_exprs():
            for c in self._ORACLE_COORDS:
                got, want = e.diff(c), e.derive({c: K.ONE})
                assert got == want and str(got) == str(want), (str(e), c)
            only_inside = K.u(1) in e.coords() - e.num.atoms() - e.den.atoms()
            inner += only_inside and not e.diff(K.u(1)).is_zero()
        # u1 held only inside exp(eta*u1) still has a partial in u1
        assert inner > 20

    def test_constant_along_matches_the_derivation_numerator(self):
        rng = random.Random(2102)
        seen = set()
        for e in _dependence_exprs():
            held = sorted(e.coords() & set(self._ORACLE_COORDS), key=lambda c: c.key)
            for k in (0, 1, 2):
                # one coordinate e holds when it holds any, the rest drawn
                # from all, so coordinates e does not hold occur too
                cs = rng.sample(self._ORACLE_COORDS, k)
                if k and held:
                    cs[0] = rng.choice(held)
                want = e.derive_pair({c: K.ONE for c in cs})[0].is_zero()
                assert e.constant_along(*cs) == want, (str(e), cs)
                seen.add((k, want))
        assert seen == {(0, True), (1, True), (1, False), (2, True), (2, False)}

    def test_a_sum_of_partials_can_vanish_where_each_does_not(self):
        e = parse("(u - u2)^2/(v - v2 + eta)")
        assert e.constant_along(K.u(0), K.u(2)) and e.constant_along(K.v(0), K.v(2))
        assert not e.constant_along(K.u(0)) and not e.constant_along(K.v(2))
        # i*i + 1 vanishes in the ring
        assert parse("u1*(i*i + 1) + v").constant_along(K.u(1))
        assert parse("u/v").constant_along(K.x) and parse("7/3").constant_along()


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls of owner.name from here on; the list holds one entry per call."""
    calls = []
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPartialsSkipTheDerivation:
    """`diff` and `constant_along` read the polynomial partials directly;
    `Poly.diff` takes each exponential's exponent partial once."""

    def test_no_derivation_for_a_partial(self, monkeypatch):
        e = parse("u/(u2+v)")
        calls = _count_calls(monkeypatch, Expr, "derive_pair")
        assert e.diff(K.u(0)) == parse("1/(u2+v)")
        assert not e.constant_along(K.u(0), K.u(2))
        assert calls == []

    def test_one_exponent_partial_per_exponential(self, monkeypatch):
        p, want = (parse(" + ".join(f"{k}*{eta}u^{k}*exp(eta*x)" for k in range(1, 21))).num
                   for eta in ("", "eta*"))
        calls = _count_calls(monkeypatch, K.Poly, "diff")
        assert p.diff(K.x) == want
        assert len(calls) == 2

    def test_derivation_takes_no_partial_of_a_constant_denominator(self, monkeypatch):
        # a polynomial is over 1, so each image costs one numerator partial
        e = parse("u^2*v + 3*u1")
        images = {K.u(0): parse("u1"), K.v(0): parse("v1/eta")}
        calls = _count_calls(monkeypatch, K.Poly, "diff")
        assert e.derive(images) == parse("2*u*v*u1 + u^2*v1/eta")
        assert len(calls) == 2


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

    def test_unit_denominator_emits_no_guard(self):
        f = K.compile_numeric([parse("u*v + 1/2")], [K.u(0), K.v(0)])
        assert "abs" not in f.__code__.co_names
        assert f(3.0, 0.5) == (2.0,)
        g = K.compile_numeric([parse("u*v + 1/2"), parse("1/(u - v)")], [K.u(0), K.v(0)])
        assert "abs" in g.__code__.co_names
        with pytest.raises(NearZeroDenominatorError):
            g(1.0, 1.0)

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


def _atom(text: str):
    """The one atom of a parsed atom, such as "u" or "exp(x)"."""
    ((atom, _),) = K._pairs(next(iter(parse(text).num.terms)))
    return atom


def _rational_poly(terms: dict) -> K.Poly:
    """The Poly of {monomial: rational}, over the least common denominator."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return K.Poly({m: int(c * den) for m, c in terms.items()}, den)


def _rationals(p: K.Poly) -> list:
    """p's terms as (monomial, Fraction) pairs, in insertion order."""
    return [(m, Fraction(c, p.den)) for m, c in p.terms.items()]


def _assert_lowest_terms(p: K.Poly) -> None:
    """int coefficients over a positive int den sharing no factor with all of
    them; zero over 1."""
    assert all(type(c) is int and c for c in p.terms.values()), p
    assert type(p.den) is int and p.den >= 1 and math.gcd(p.den, *p.terms.values()) == 1, p


def _tuple_times(m1: tuple, m2: tuple) -> tuple:
    """The tuple merge that packed monomials replaced, kept as their oracle:
    (rational factor, monomial) of m1 * m2 for (atom, power) tuples sorted by
    atom key.  It adds the powers of equal atoms, basis exponentials included,
    and rewrites i*i -> -1 and s*s -> 2; it has no exponent bound."""
    factor, out = 1, []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (a1, p1), (a2, p2) = m1[i], m2[j]
        if a1.key < a2.key:
            out.append(m1[i])
            i += 1
        elif a2.key < a1.key:
            out.append(m2[j])
            j += 1
        else:
            i += 1
            j += 1
            p = p1 + p2
            if a1 in (K.iunit, K.sqrt2):
                factor *= (-1 if a1 is K.iunit else 2) ** (p // 2)
                p %= 2
                if not p:
                    continue
            out.append((a1, p))
    return factor, (*out, *m1[i:], *m2[j:])


def _folded_pairs(pairs: tuple) -> tuple:
    """(atom, power) pairs in atom key order with each base's exponentials
    replaced by the one exponential of power 1 that they stand for."""
    exponents: dict = {}
    out = []
    for a, p in pairs:
        if isinstance(a, K.ExpAtom):
            exponents[a.base] = exponents.get(a.base, 0) + p * parse(str(a.exponent))
        else:
            out.append((a, p))
    out += [(_atom(f"exp({e})"), 1) for e in exponents.values()]
    return tuple(sorted(out, key=lambda ap: ap[0].key))


class TestPackedMonomials:
    """Packed products against the tuple merge, and the exponent and term
    bounds."""

    _PLAIN = ("u", "u1", "u3", "v", "v2", "eta", "theta", "x")
    _EXPS = ("exp(x)", "exp(2*x)", "exp(eta*x - x)", "exp(eta*x)", "exp(t)", "exp(2*t)", "exp(z)")

    def _random_mono(self, rng: random.Random) -> tuple:
        """(atom, power) pairs in key order: jets, parameters, x and basis
        exponentials at powers up to the bound, and i and s."""
        atoms = [*rng.sample(self._PLAIN, rng.randint(0, 3)), *rng.sample(self._EXPS, rng.randint(0, 2))]
        pairs = [(_atom(a), rng.choice((1, 2, 3, 7, 100, 127, 128, 200, 254, 255))) for a in atoms]
        pairs += [(_atom(a), 1) for a in ("i", "s") if rng.random() < 0.4]
        return tuple(sorted(pairs, key=lambda ap: ap[0].key))

    def test_packed_product_matches_the_tuple_merge(self):
        rng = random.Random(255)
        seen = {"plain": 0, "rewrite": 0, "exps": 0, "fold": 0, "over": 0}
        for _ in range(4000):
            t1, t2 = self._random_mono(rng), self._random_mono(rng)
            factor, want = _tuple_times(t1, t2)
            m1, m2 = K._pack(t1), K._pack(t2)
            assert K._pairs(m1) == t1
            over = {isinstance(a, K.ExpAtom) for a, p in want if p > K.MAX_EXPONENT}
            if False in over:
                seen["over"] += 1
                with pytest.raises(K.BoundError):
                    K._mono_times(m1, m2)
                with pytest.raises(K.BoundError):
                    K.Poly({m1: 1}).mul(K.Poly({m2: 3}))
                continue
            if over:  # only exponentials pass the bound: each base's fold into one
                want = _folded_pairs(want)
            got_factor, got = K._mono_times(m1, m2)
            assert (got_factor, K._pairs(got)) == (factor, want)
            assert K.Poly({m1: 1}).mul(K.Poly({m2: 3})).terms == {got: 3 * factor}
            # below the bound exponentials multiply by the packed add, like any atom
            exps = {a for a, _ in t1 if isinstance(a, K.ExpAtom)} & {a for a, _ in t2 if isinstance(a, K.ExpAtom)}
            seen["fold" if over else "exps" if exps else "rewrite" if factor != 1 else "plain"] += 1
        assert min(seen.values()) > 200, seen

    def test_quotient_and_common_part_are_field_wise(self):
        rng = random.Random(9)
        divides = 0
        for _ in range(1000):
            t1, t2 = self._random_mono(rng), self._random_mono(rng)
            if rng.random() < 0.3:  # a multiple of t1
                t2 = tuple((a, p if p == 1 else rng.randint(p, 255)) for a, p in t1)
            p1, p2 = dict(t1), dict(t2)
            m1, m2 = K._pack(t1), K._pack(t2)
            common = {a: min(p, p2[a]) for a, p in t1 if a in p2}
            assert dict(K._pairs(K._mono_min(m1, m2))) == common
            quo = K._mono_quo(m2, m1)
            if all(p2.get(a, 0) >= p for a, p in t1):
                divides += 1
                assert dict(K._pairs(quo)) == {a: p - p1.get(a, 0) for a, p in t2 if p != p1.get(a, 0)}
            else:
                assert quo is None
        assert divides > 200

    def test_exponent_bound(self):
        assert str(parse("u^255")) == "u^255"
        assert str(parse("(u^85)^3*v^255")) == "u^255*v^255"
        for text in ("u^256", "u^200*u^100", "(u^200)^2", "(u + v^128)^2", "u^255*u", "1/u^256"):
            with pytest.raises(K.BoundError):
                parse(text)
        # i and s do not grow their fields, and a power of one term scales
        # its exponentials: exp(300*x) is power 1 of its own basis atom
        assert parse("i^1001") == parse("i") and parse("s^256") == 2**128
        assert parse("exp(x)^300") == parse("exp(300*x)")
        assert hash(parse("exp(x)^300")) == hash(parse("exp(300*x)"))
        assert str(parse("(i*exp(-x))^300")) == "(1)/(exp(300*x))"
        # the power names the exponent it would make, not the first square
        # past the bound
        for text, message in (("u^99999999999999999999", "exponent 99999999999999999999 of u"),
                              ("(u*v^2 + u1)^150", "exponent 300 of v"), ("(u^3)^86", "exponent 258 of u")):
            with pytest.raises(K.BoundError, match=re.escape(message)):
                parse(text)

    def test_digit_bound(self):
        start = time.perf_counter()
        for text, byte in (("9" * 5000, 0), ("u^" + "9" * 5000, 2), ("u" + "1" * 400, 1),
                           ("2*" + "0" * 301, 2)):
            with pytest.raises(K.ParseError, match=re.escape(f"digits exceeds 300 digits (at byte {byte})")):
                parse(text)
        # 3^628 has 300 digits, 3^629 301, s^n holds 2^(n/2)
        for text in ("3^629", "3^1000000000", "(u/7 + 1/3)^240", "s^2000", "(9 + s)^300"):
            with pytest.raises(K.BoundError, match="more than 300 digits"):
                parse(text)
        assert time.perf_counter() - start < 0.1
        assert str(parse("9" * 300)) == "9" * 300
        assert str(parse("u^" + "0" * 299 + "7")) == "u^7"
        assert parse("3^628") == 3**628 and len(parse("(u/7 + 1/3)^200").num.terms) == 201
        # parse holds its products and quotients to the bound as printing
        # does; a product built outside parse is checked when printed
        for text in ("3^628*3", "3^628*3^628*3^628", "1/3^628/3", "u/3^628*v/3"):
            with pytest.raises(K.BoundError, match="a coefficient has more than 300 digits"):
                parse(text)
        assert str(parse("3^628*u/3")) == str(3**627) + "*u"
        # so does the sum of a whole parse, whose coefficients grow only
        # linearly in the input
        for text in ("3^628+3^628+3^628+3^628+u1", "3^628*u + 3^628*u + 3^628*u + 3^628*u"):
            with pytest.raises(K.BoundError, match="a coefficient has more than 300 digits"):
                parse(text)
        assert str(parse("3^628+3^628+3^628-3^628-3^628")) == str(3**628)
        big = parse("10^299*u") * parse("10^299*v")
        with pytest.raises(K.BoundError, match="a coefficient has more than 300 digits"):
            str(big)
        assert str(parse("(10^299 - 1)*u")) == "9" * 299 + "*u"

    def test_exponential_powers_past_the_bound_raise(self):
        # exp(255*x) is power 255 of the basis atom exp(x), which fits
        assert parse("(exp(255*x) - 1)/(exp(x) - 1)") == sum(parse(f"exp({k}*x)") for k in range(255))
        # power 300 does not: a value whose lattice needs it is refused
        for text in ("exp(300*x)/(exp(x) + u)", "(exp(300*x) - 1)/(exp(x) - 1)"):
            with pytest.raises(K.BoundError, match=re.escape("exponent 300 of exp(x) exceeds 255")):
                parse(text)
        assert str(parse("exp(300*x)/(exp(150*x) + u)")) == "(exp(300*x))/(u + exp(150*x))"

    def test_a_power_of_one_exponential_term_rises_in_one_step(self):
        # repeated squaring folded each eighth square into an exponential of
        # its own, interning up to 10 atoms for one power; one step interns
        # the base and the exponential the power stands for
        for text, printed in (("exp(x)^99999999999999999999", "exp(99999999999999999999*x)"),
                              ("exp(7*z)^1000", "exp(7000*z)"),
                              ("(3*u*exp(2*eta*t))^200", f"{3**200}*u^200*exp(400*t*eta)")):
            before = len(K._ATOMS)
            assert str(parse(text)) == printed
            assert len(K._ATOMS) - before <= 2, text

    def test_term_bound(self):
        # (u+v+eta+u1+x+t)^20 would make C(25, 20) = 53130 terms
        start = time.perf_counter()
        with pytest.raises(K.BoundError, match="terms"):
            parse("(u+v+eta+u1+x+t)^20")
        assert time.perf_counter() - start < 0.1
        # three terms to the power k may make C(k + 2, 2) terms
        assert math.comb(141, 2) <= K.MAX_TERMS < math.comb(142, 2)
        assert len(parse("(1 + i + s)^139").num.terms) == 4
        with pytest.raises(K.BoundError, match="terms"):
            parse("(1 + i + s)^140")
        assert len(parse("(u + 1)^255").num.terms) == 256

    def test_product_term_bound(self, monkeypatch):
        # S*S*S*S*S*S over 18 atoms expanded to 100 947 terms in 0.4 s; a
        # product is refused once its operands' term counts multiply past
        # the bound, numerator by numerator and denominator by denominator,
        # so no polynomial product of that size is ever started
        S = "(x + t + z + u + u1 + u2 + u3 + u4 + u5 + u6 + v + v1 + v2 + v3 + v4 + v5 + v6 + eta)"
        calls = _count_calls(monkeypatch, K.Poly, "mul")
        for text in ("*".join([S] * 6), "*".join([S] * 4), f"1/{S}^3/{S}", f"u/{S}^3*(1/{S})",
                     f"(1 + {S}^3)/(1/{S})"):
            with pytest.raises(K.BoundError, match="a product may exceed 10000 terms"):
                parse(text)
        assert calls
        assert max(len(a.terms) * len(b.terms) for a, b in calls) <= K.MAX_TERMS
        # 1140 * 18 passes the bound, 171 * 18 and 1140 * 1 do not
        assert len(parse("*".join([S] * 3)).num.terms) == 1140
        assert len(parse(f"{S}^3*u*(1/u1)").den.terms) == 1
        assert len(parse(f"{S}^2*{S}/u").num.terms) == 1140

    def test_sum_term_bound(self):
        # each + copies the sum so far, and 16 000 distinct summands took
        # 6.5 s; a sum is refused once its operands could make more than
        # 10000 terms
        summands = [f"u^{a}*v^{b}*x^{c}" for a in range(22) for b in range(22) for c in range(21)]
        with pytest.raises(K.BoundError, match="a sum may exceed 10000 terms"):
            parse(" + ".join(summands[:10_001]))
        # 5000 + 5000 terms pass (1 is in both) and 5000 + 5001 do not; over
        # two-term denominators, 5000*2 + 1*2 does not
        A = "(" + " + ".join(f"x^{k}" for k in range(100)) + ")*(" + " + ".join(f"t^{k}" for k in range(50)) + ")"
        B = "(" + " + ".join(f"z^{k}" for k in range(100)) + ")*(" + " + ".join(f"u1^{k}" for k in range(50)) + ")"
        assert len(parse(f"{A} + {B}").num.terms) == 9999
        for text in (f"{A} + ({B} + u)", f"{A}/(u + 1) - 1/(v + 1)", f"1/(u + 1) + {A}/(v + 1)"):
            with pytest.raises(K.BoundError, match="a sum may exceed 10000 terms"):
                parse(text)

    def test_interning_from_threads_gives_each_atom_one_field(self):
        # each thread builds products of exponentials no other code has used,
        # so their atoms are interned concurrently
        texts = [f"exp({k}*kk*z) * exp(theta*z) * u{k % 12 + 1}" for k in range(7, 407)]

        def build(part: list) -> list:
            return [parse(t) for t in part]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                parts = pool.map(build, [texts[k::4] for k in range(4)], timeout=60)
                built = [e for part in parts for e in part]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(K._SHIFTS.values()) == [K._FIELD * k for k in range(len(K._ATOMS))]
        assert all(K._SHIFTS[a] == K._FIELD * k for k, a in enumerate(K._ATOMS))
        assert sorted(map(str, built)) == sorted(str(parse(t)) for t in texts)

    def test_pickle_across_interning_orders(self, tmp_path):
        # the child interns atoms in another order before it unpickles, and
        # sends back a product it pickled itself
        text = "u1*eta*exp(eta*x)/(v + 2) + 1/2 + theta*exp(-t)"
        e = parse(text)
        sent, received = tmp_path / "sent.pickle", tmp_path / "received.pickle"
        sent.write_bytes(pickle.dumps(e))
        child = textwrap.dedent(f"""
            import pickle
            from pssurf.kernel import parse
            parse("n7 + m5 + kk + exp(3*z) + theta*exp(-t) + u1*v + exp(eta*x)", mn_mode="jets")
            e = pickle.loads(open({str(sent)!r}, "rb").read())
            again = parse({text!r})
            print(e, "|", e == again, hash(e) == hash(again))
            open({str(received)!r}, "wb").write(pickle.dumps(again * e))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(K.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout == f"{e} | True True\n"
        back = pickle.loads(received.read_bytes())
        assert back == e * e and hash(back) == hash(e * e) and str(back) == str(e * e)


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
        assert len(K._pairs(next(iter(prod.num.terms)))) == 3  # v, u, one exp per base
        assert (prod * parse("exp(-eta*x)*exp(z)") - parse("u*v*exp(x)")).is_zero()

    def test_difference_of_squares_needs_no_power_past_the_bound(self):
        # exp(2p*x) - exp(2q*x) is on the lattice of 2*gcd(p, q)*x, with
        # powers at most 255, whatever its factors' lattice needs
        rng = random.Random(2301)
        for _ in range(200):
            p, q = rng.randint(128, 255), rng.randint(1, 127)
            got = parse(f"(exp({p}*x) + exp({q}*x))*(exp({p}*x) - exp({q}*x))")
            want = parse(f"exp({2 * p}*x) - exp({2 * q}*x)")
            assert (got, hash(got), str(got)) == (want, hash(want), str(want)), (p, q)

    def test_products_of_exponential_sums_match_their_expansion(self):
        # a product and the parse of its expansion both raise BoundError,
        # or are equal in value, hash and print; each factor has a constant
        # term, so the product's top exponent is the sum of its factors'
        rng = random.Random(2302)

        def factor() -> dict:
            ks = [0, *(rng.randint(1, 255) for _ in range(rng.randint(1, 2)))]
            return {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in ks}

        def text(terms: dict) -> str:
            return " + ".join(f"({c})*exp({k}*x)" for k, c in terms.items() if c) or "0"

        def outcome(source: str):
            try:
                e = parse(source)
            except K.BoundError:
                return None
            return e, hash(e), str(e)

        seen = {"equal": 0, "raised": 0}
        for _ in range(300):
            a, b = factor(), factor()
            expanded: dict = {}
            for (k1, c1), (k2, c2) in itertools.product(a.items(), b.items()):
                expanded[k1 + k2] = expanded.get(k1 + k2, 0) + c1 * c2
            got = outcome(f"({text(a)})*({text(b)})")
            assert got == outcome(text(expanded)), (a, b)
            seen["raised" if got is None else "equal"] += 1
        assert min(seen.values()) > 50, seen

    def test_commensurate_exponential_fraction(self):
        # reduced as polynomials in one basis exponential
        assert parse("(exp(2*x) - 1)/(exp(x) - 1)") == parse("exp(x) + 1")
        e = parse("(exp(3*eta*x) - u^3)/(exp(eta*x) - u)")
        assert e == parse("exp(2*eta*x) + u*exp(eta*x) + u^2")

    def test_coefficients_are_ints_over_a_reduced_denominator(self):
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
        fractional = 0
        for e in exprs:
            _assert_lowest_terms(e.num)
            _assert_lowest_terms(e.den)
            # a canonical denominator is a primitive integer polynomial
            assert e.den.den == 1, e
            fractional += e.num.den > 1
        assert fractional >= 5

    def test_mul_matches_the_rational_double_loop(self):
        # the integer loop over one denominator against the plain loop on
        # rationals: the same rational terms in the same order, in lowest terms
        atoms = [_atom(t) for t in ("u", "v1", "eta", "i", "s", "exp(x)", "exp(2*x)", "exp(eta*x)")]
        rng = random.Random(31)

        def random_poly() -> K.Poly:
            terms: dict = {}
            for _ in range(rng.randint(1, 6)):
                mono = ()
                for a in rng.sample(atoms, rng.randint(0, 3)):
                    mono = _tuple_times(mono, ((a, 1),))[1]
                c = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 6, 9)))
                if c:
                    terms[K._pack(mono)] = c
            return _rational_poly(terms)

        def reference(p: K.Poly, q: K.Poly) -> dict:
            out: dict = {}
            for m1, c1 in _rationals(p):
                for m2, c2 in _rationals(q):
                    factor, mono = _tuple_times(K._pairs(m1), K._pairs(m2))
                    mono = K._pack(mono)
                    nc = out.get(mono, 0) + c1 * c2 * factor
                    if nc:
                        out[mono] = nc
                    else:
                        out.pop(mono, None)
            return out

        fractional = 0
        for _ in range(400):
            p, q = random_poly(), random_poly()
            if p.is_const() or q.is_const():
                continue
            want = list(reference(p, q).items())
            prod = p.mul(q)
            assert _rationals(prod) == want
            _assert_lowest_terms(prod)
            fractional += prod.den > 1
        assert fractional > 100

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


class TestExactDivisionBySingleTerm:
    def test_quotient_times_divisor_is_the_dividend(self):
        rng = random.Random(11)
        divisors = [parse("3*u^2*v1"), parse("-2/3*eta*exp(x)"), parse("i*s*u1^2")]
        for b in divisors:
            for _ in range(10):
                a = _random_expr(rng).num.mul(b.num)
                if a.is_zero():
                    continue
                q = K.poly_exact_div(a, b.num)
                assert q.mul(b.num) == a

    def test_exponential_product_divides_by_its_factor(self):
        # the division order takes each basis atom as a variable, so the
        # leading term of b*q is the product of the leading terms
        b, q = parse("exp(x) + 1"), parse("exp(x) + u")
        assert K._poly_div((b * q).num, b.num) == q.num

    def test_non_divisor_raises(self):
        a = parse("u^2*v + u").num
        with pytest.raises(K.KernelError, match="not exact"):
            K.poly_exact_div(a, parse("u*v").num)

    def test_exp_atom_does_not_divide_its_square(self):
        # exp(2*x) alone is power 1 of its own basis atom, which exp(x) does
        # not divide; on one lattice exp(x) divides its square
        with pytest.raises(K.KernelError, match="not exact"):
            K.poly_exact_div(parse("exp(2*x)").num, parse("exp(x)").num)
        square = parse("exp(2*x) + exp(x)").num
        assert K.poly_exact_div(square, parse("exp(x)").num) == parse("exp(x) + 1").num

    def test_constant_divisor_matches_divide(self):
        rng = random.Random(12)
        for c in (Fraction(3), Fraction(-2, 5), Fraction(7, 4)):
            for _ in range(10):
                a = _random_expr(rng).num
                if a.is_zero():
                    continue
                q = K.poly_exact_div(a, K.Poly.const(c))
                assert q.terms == a.divide(c).terms
                assert list(q.terms) == list(a.divide(c).terms)
