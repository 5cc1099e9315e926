"""The polynomial representation: int coefficients over one denominator.

A ``Poly`` keeps int coefficients over one positive int ``den`` in lowest
terms.  Each operation is checked here against the plain loop on Fraction
coefficients, for the rational value and the monomial order of every term;
float evaluation against ``float(Fraction)``, bit for bit; pickles; and a
guard that the arithmetic builds no ``Fraction`` at all.
"""

import fractions
import functools
import math
import pickle
import random
from fractions import Fraction

import pytest

from pssurf import classify, forms, jetcalc, laxzoo
from pssurf import kernel as K
from pssurf.kernel import Expr, Poly, parse
from test_kernel import _assert_lowest_terms, _rational_poly, _rationals
from test_kernel_over_one import _old_add, _old_diff, _old_mul, _old_poly_div, _old_pow

_ATOMS = [K.u(0), K.u(1), K.v(0), K.eta, K.iunit, K.sqrt2]
_EXPS = [K._exp_atom(parse(text).num) for text in ("x", "eta*x", "-x/2")]


def _random_poly(rng: random.Random, size: int = 4) -> Poly:
    """A sum of up to `size` terms with rational coefficients, some with
    an exponential."""
    terms: dict = {}
    for _ in range(rng.randint(1, size)):
        atoms = rng.sample(_ATOMS, rng.randint(0, 3))
        pairs = [(a, rng.randint(1, 1 if a in (K.iunit, K.sqrt2) else 3)) for a in atoms]
        if rng.random() < 0.25:
            pairs.append((rng.choice(_EXPS), 1))
        c = Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5, 12]), rng.choice([1, 1, 2, 3, 4, 6, 9]))
        terms[K._pack(sorted(pairs, key=lambda ap: ap[0].key))] = c
    return _rational_poly(terms)


def _assert_matches(got: Poly, want: Poly, context) -> None:
    """The same rational value term by term, in the same order, in lowest
    terms."""
    assert _rationals(got) == _rationals(want), context
    _assert_lowest_terms(got)


def _content(p: Poly) -> Fraction:
    """gcd of the numerators over lcm of the denominators of the reduced
    coefficients, signed by the leading one."""
    coeffs = [c for _, c in _rationals(p)]
    content = Fraction(math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs)))
    return -content if dict(_rationals(p))[p.leading()[0]] < 0 else content


def test_arithmetic_matches_the_loops_on_fractions():
    rng = random.Random(2026)
    scaled = exact = 0
    for _ in range(400):
        p, q = _random_poly(rng), _random_poly(rng)
        context = (str(p), str(q))
        _assert_matches(p.add(q), _old_add(p, q), context)
        _assert_matches(p.sub(q), _old_add(p, _rational_poly({m: -c for m, c in _rationals(q)})), context)
        _assert_matches(p.neg(), _rational_poly({m: -c for m, c in _rationals(p)}), context)
        _assert_matches(p.mul(q), _old_mul(p, q), context)
        c = Fraction(rng.choice([-5, -2, 3, 7]), rng.choice([1, 2, 6]))
        _assert_matches(p.divide(c), _rational_poly({m: v / c for m, v in _rationals(p)}), (context, c))
        coord = rng.choice([K.u(0), K.u(1), K.eta, K.x])
        _assert_matches(p.diff(coord), _old_diff(p, coord), (context, coord))
        k = rng.randint(0, 3)
        _assert_matches(p.pow(k), _old_pow(p, k), (context, k))
        g, d = p.content()
        assert Fraction(g, d) == _content(p) and d == p.den and math.gcd(g, d) == 1, context
        # under the rewrites, division by leading terms can leave a
        # remainder where the loop on fractions does
        got, want = K._poly_div(p.mul(q), q), _old_poly_div(p.mul(q), q)
        assert (got is None) == (want is None), context
        if want is not None:
            _assert_matches(got, want, context)
            _assert_matches(K.poly_exact_div(p.mul(q), q), want, context)
            exact += 1
        scaled += p.den > 1 and q.den > 1 and p.mul(q).den > 1
    assert scaled > 150 and exact > 250


def test_equal_values_along_different_routes_are_equal():
    u, half, one = Poly.atom(K.u(0)), Poly.const(Fraction(1, 2)), Poly.const(1)
    routes = [u.mul(half).add(half), u.add(one).mul(half), u.add(one).divide(2),
              _rational_poly({K._pack([(K.u(0), 1)]): Fraction(3, 6), K._pack(()): Fraction(2, 4)}),
              parse("u/3 + 1/3").num.mul(Poly.const(Fraction(3, 2))), parse("(u^2 - 1)/(2*u - 2)").num]
    assert len({(p, hash(p)) for p in routes[:-1]}) == 1
    rng = random.Random(5)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        left, right = p.add(q).mul(r), p.mul(r).add(q.mul(r))
        assert left == right and hash(left) == hash(right), (str(p), str(q), str(r))
        c = Fraction(rng.choice([-3, 2, 5]), rng.choice([2, 3]))
        scaled, divided = p.mul(Poly.const(c)), p.divide(1 / c)
        assert scaled == divided and hash(scaled) == hash(divided)
        assert p.sub(p) == Poly.zero() and p.sub(p).den == 1


@pytest.mark.parametrize("text, digits", [
    ("u/2 + v/3", 1),
    ("5/6*u - 7/10*v + 1/15", 2),
    (f"{3**627}/7*u + {10**299 - 3}/{2**900}*v - {5**400}/{3**600}", 299),
    (f"-{10**299 + 1}/{10**298 + 1}*u*v + 1/3*exp(x/2) + {7**350}/11", 299),
])
def test_eval_and_compiled_code_equal_float_of_fraction(text, digits):
    # a term's c / den need not be reduced: u/2 + v/3 is (3*u + 2*v)/6
    e = parse(text)
    p = e.num
    assert p.den > 1 and any(math.gcd(c, p.den) > 1 for c in p.terms.values())
    assert max(len(str(max(K._held(c, p.den)))) for c in p.terms.values()) >= digits
    point = {K.u(0): 0.3183098861837907, K.v(0): -1.7320508075688772, K.x: 0.7071067811865476}

    def value_of(atom):
        return math.exp(value_of_exp(atom)) if isinstance(atom, K.ExpAtom) else point[atom]

    def value_of_exp(atom):
        return reference(atom.exponent)

    def reference(poly: Poly) -> float:
        total = 0.0
        for mono, c in _rationals(poly):
            term = float(c)
            for atom, power in K._pairs(mono):
                term *= value_of(atom) ** power
            total += term
        return total

    want = reference(p).hex()
    assert p.eval(value_of).hex() == want
    assert e.eval(point).hex() == want
    (got,) = K.compile_numeric([e], [K.u(0), K.v(0), K.x])(*point.values())
    assert got.hex() == want


def test_pickle_round_trip_keeps_the_denominator():
    p = parse("u/2 + v/3 - 5/4").num
    back = pickle.loads(pickle.dumps(p))
    assert (back.terms, back.den) == (p.terms, p.den) and list(back.terms) == list(p.terms)
    assert back == p and hash(back) == hash(p) and back.den == 12
    e = parse("u1*eta*exp(eta*x/2)/(v + 2) + exp(-x)/3 + exp(2/3*t)*u")
    back = pickle.loads(pickle.dumps(e))
    assert back == e and hash(back) == hash(e) and str(back) == str(e)
    for a, b in zip(*(sorted(x.num.atoms() | x.den.atoms(), key=lambda at: at.key) for x in (e, back))):
        if isinstance(a, K.ExpAtom):
            assert list(a.exponent.terms.items()) == list(b.exponent.terms.items())
            assert a.exponent.den == b.exponent.den
    assert back * e == e * e


@pytest.fixture
def fraction_count(monkeypatch):
    """A counter of every Fraction constructed, those built inside Fraction
    arithmetic included."""
    count = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    return count


def test_the_counter_sees_fraction_arithmetic(fraction_count):
    Fraction(1, 2) + Fraction(1, 3)
    assert fraction_count[0] >= 3


def test_catalog_arithmetic_builds_no_fraction(fraction_count):
    # a Fraction took 1.2 us to build and 2.6 us to add on the reference
    # host, a fifth of a verify-catalog pass when coefficients were Fractions
    entries = classify.catalog()
    one_forms = [f for entry in entries for row in entry.forms.f for f in row]
    polys = [p for f in one_forms for p in (f.num, f.den) if not p.is_const()]
    images = {K.u(0): parse("u1"), K.u(1): parse("u2 + eta/2"), K.eta: parse("1/(2*eta^2) + u")}
    bindings = {K.u(2): parse("u/2 + 1/3"), K.eta: parse("2*u0 + 3")}
    rng = random.Random(0)
    fraction_count[0] = 0
    # the forms' polynomials carry 1/2, 1/4 and 1/(2*eta^2)
    assert sum(p.den > 1 for p in polys) >= 6
    for _ in range(200):
        p, q = rng.choice(polys), rng.choice(polys)
        p.add(q).sub(p.mul(q)).neg().diff(rng.choice([K.u(0), K.eta, K.x])).divide(rng.choice([2, -3]))
        p.pow(2).content()
        K._poly_div(p.mul(q), q)
        K.poly_gcd(p.mul(q), q.mul(rng.choice(polys)))
    for f in one_forms:
        f.derive(images)
        f.substitute(bindings)
        f * f - f / (f + 3)
    for entry in entries:
        forms.check_lemma31(entry.forms, entry.system)
        laxzoo.zero_curvature_residual(entry.lax, entry.system)
        jetcalc.total_dx(entry.forms.f[0][1])
    assert fraction_count[0] == 0


def test_rationals_enter_and_leave_only_at_the_edge():
    # Poly.const takes any rational and const_value gives an int or a
    # reduced Fraction
    assert Poly.const(Fraction(6, 4)).const_value() == Fraction(3, 2)
    assert type(Poly.const(Fraction(8, 4)).const_value()) is int
    assert Expr.const(Fraction(-2, 6)).const_value() == Fraction(-1, 3)
    assert functools.reduce(Poly.add, [Poly.const(Fraction(1, 3))] * 3) == Poly.const(1)
