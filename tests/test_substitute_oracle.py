"""``Expr.substitute`` against the per-term substitution it replaced.

The oracle builds one normalized ``Expr`` per term and per factor and adds
the terms one by one; ``Expr.substitute`` multiplies each term's images as
polynomials and reduces one fraction.  On seeded random fractions from the
catalog forms' polynomials, with images over 1, images with non-constant
denominators, ``exp((eta-1)*x)`` with eta bound, and `i` and `s`, both must
give equal values, and equal printed texts where no `i` or `s` appears (with
them free in the gcd, equal fractions can print differently).
"""

import random

from pssurf import classify
from pssurf import kernel as K
from pssurf.kernel import Expr, parse


def _old_subs_poly(p: K.Poly, bindings: dict) -> Expr:
    total = Expr.const(0)
    for mono, coeff in p.terms.items():
        term = Expr._over_one(K._reduced({K._ONE_MONO: coeff}, p.den))
        for atom, power in K._factors(mono):
            if isinstance(atom, K.ExpAtom):  # a folded exponential, of power 1
                term = term * Expr.exp(_old_subs_poly(atom.exponent, bindings))
            else:
                term = term * bindings.get(atom, Expr.atom(atom)) ** power
        total = total + term
    return total


def _old_substitute(e: Expr, bindings: dict) -> Expr:
    num = _old_subs_poly(e.num, bindings)
    den = _old_subs_poly(e.den, bindings)
    if den.is_zero():
        raise K.DivisionByZeroError("denominator normalizes to zero after substitution")
    return num / den


_IMAGES = [parse(text) for text in (
    "u1 + eta/2", "2*u0 + 3", "v - 1/3", "eta^2*u", "-x",
    "1/(u + 1)", "(v - eta)/(u1 + 2)", "eta/(v1 - u)", "(u0 + 1)/(2*eta)", "u1/(t - 1)^2",
    "i*v + s", "(u + i)/(s*v - 1)", "s*eta - i",
)]
_ETA_IMAGES = [parse(text) for text in ("3", "1", "u0 + 1", "1/2", "kk - 1", "i", "s + 1")]
_ROOTS = {K.iunit, K.sqrt2}


def _polys() -> list:
    forms = [f for entry in classify.catalog() for row in entry.forms.f for f in row]
    return [p for f in forms for p in (f.num, f.den) if not p.is_const()]


def _fraction(rng: random.Random, polys: list) -> Expr:
    e = Expr(rng.choice(polys), rng.choice(polys))
    if rng.random() < 0.5:
        e = e + Expr(rng.choice(polys), K.Poly.const(1)) * rng.choice((1, -2, K.ONE / 3))
    return e


def _bindings(rng: random.Random, e: Expr, images: list, keep: frozenset = frozenset()) -> dict:
    coords = sorted(e.coords() - _ROOTS - keep, key=lambda c: c.key)
    bound = rng.sample(coords, min(len(coords), rng.randint(1, 3)))
    out = {}
    for c in bound:
        free = [img for img in images if not img.coords() & set(bound)]
        if free:
            out[c] = rng.choice(free)
    return out


def _compare(e: Expr, bindings: dict) -> None:
    try:
        old = _old_substitute(e, bindings)
    except K.KernelError as err:
        try:
            e.substitute(bindings)
        except type(err):
            return
        raise AssertionError(f"only the oracle raised {err!r}")
    new = e.substitute(bindings)
    assert (new - old).is_zero(), (e, bindings)
    mentioned = e.coords().union(*(img.coords() for img in bindings.values()))
    if not mentioned & _ROOTS:
        assert str(new) == str(old), (e, bindings)


def test_substitute_matches_the_per_term_oracle():
    rng = random.Random(26)
    polys = _polys()
    for _ in range(100):
        e = _fraction(rng, polys)
        _compare(e, _bindings(rng, e, _IMAGES))


def test_substitute_into_exponents_matches_the_per_term_oracle():
    rng = random.Random(27)
    polys = _polys()
    wave = parse("exp((eta-1)*x)")
    for _ in range(30):
        e = _fraction(rng, polys)
        e = e * wave + rng.choice((K.ONE, parse("u*exp(-x)"), parse("exp(2*x)/(v + 1)")))
        keep = frozenset((K.x, K.eta))
        bindings = _bindings(rng, e, [img for img in _IMAGES if not img.coords() & keep], keep)
        bindings[K.eta] = rng.choice(_ETA_IMAGES)
        _compare(e, bindings)
