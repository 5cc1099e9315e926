"""Differential tests of the arithmetic that skips normalization.

Sums, differences and products of two expressions over 1 are built as a
polynomial over 1, without the normalizing constructor; ``Poly.mul`` returns
the other operand for the constant 1 and scales for any other constant, so
powers start from a free product; ``Poly.diff`` and ``Expr.derive`` add into
one dict.  Adding zero, scaling by or dividing by a constant and the first
power return a result that is canonical by construction.  Each result
must equal what the full constructor gives from the plain term-by-term loops
on Fraction coefficients kept below as the oracle, in value, hash, and the
order and rational value of every term, since ``compile_numeric`` sums
terms in dict order; and each result must be in lowest terms.

The trial division in front of the gcd takes its leading terms from a heap;
the leading-term loop it replaced is kept below as its oracle.
"""

import collections
import functools
import json
import random
from fractions import Fraction
from pathlib import Path

from pssurf import kernel as K
from pssurf.kernel import Expr, Poly, parse
from test_kernel import _assert_lowest_terms, _rational_poly, _rationals, _tuple_times

# -- oracle: the plain loops, each product and sum through full construction --
# Coefficients are Fractions.  Monomials are decoded to (atom, power) tuples,
# multiplied by the tuple merge and packed again.


def _old_add(a: Poly, b: Poly) -> Poly:
    out = dict(_rationals(a))
    for m, c in _rationals(b):
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return _rational_poly(out)


def _old_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    out: dict = {}
    for m1, c1 in _rationals(a):
        for m2, c2 in _rationals(b):
            factor, mono = _tuple_times(K._pairs(m1), K._pairs(m2))
            mono = K._pack(mono)
            nc = out.get(mono, 0) + c1 * c2 * factor
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
    return _rational_poly(out)


def _old_pow(p: Poly, n: int) -> Poly:
    result, base = Poly({K._pack(()): 1}), p
    while n:
        if n & 1:
            result = _old_mul(result, base)
        base = _old_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _old_diff(p: Poly, c) -> Poly:
    out = Poly.zero()
    for packed, coeff in _rationals(p):
        mono = K._pairs(packed)
        for idx, (atom, power) in enumerate(mono):
            if isinstance(atom, K.Coord):
                if atom is not c:
                    continue
                lower = ((atom, power - 1),) if power > 1 else ()
                out = _old_add(out, _rational_poly({K._pack(mono[:idx] + lower + mono[idx + 1 :]): coeff * power}))
            else:
                dexp = _old_diff(atom.exponent, c)
                if dexp.is_zero():
                    continue
                out = _old_add(out, _old_mul(dexp, _rational_poly({packed: coeff})))
    return out


def _old_derive(e: Expr, images: dict) -> Expr:
    n, d = e.num, e.den
    parts = []
    for c, image in images.items():
        dn, dd = _old_diff(n, c), _old_diff(d, c)
        if not image.is_zero() and not (dn.is_zero() and dd.is_zero()):
            parts.append((image, dn, dd))
    dens: list = []
    for image, _, _ in parts:
        if not image.den.is_const() and image.den not in dens:
            dens.append(image.den)
    Dn = Dd = Poly.zero()
    for image, dn, dd in parts:
        others = [q for q in dens if q != image.den]
        weight = functools.reduce(_old_mul, others, image.num)
        Dn = _old_add(Dn, _old_mul(weight, dn))
        Dd = _old_add(Dd, _old_mul(weight, dd))
    common = functools.reduce(_old_mul, dens, Poly({K._pack(()): 1}))
    if d.is_const():
        return Expr(Dn, _old_mul(d, common))
    return Expr(_old_add(_old_mul(Dn, d), _old_mul(n, Dd).neg()), _old_mul(_old_mul(d, d), common))


def _full_add(a: Expr, b: Expr) -> Expr:
    return Expr(_old_add(_old_mul(a.num, b.den), _old_mul(b.num, a.den)), _old_mul(a.den, b.den))


def _full_neg(a: Expr) -> Expr:
    return Expr(a.num.neg(), a.den)


def _full_mul(a: Expr, b: Expr) -> Expr:
    return Expr(_old_mul(a.num, b.num), _old_mul(a.den, b.den))


def _items(p: Poly) -> list:
    return [(K._pairs(m), c) for m, c in _rationals(p)]


def _assert_same(got: Expr, want: Expr, context) -> None:
    assert got == want, context
    assert hash(got) == hash(want), context
    assert _items(got.num) == _items(want.num), context
    assert _items(got.den) == _items(want.den), context
    _assert_lowest_terms(got.num)
    _assert_lowest_terms(got.den)


# -- seeded random expressions -------------------------------------------------

_LEAVES = [
    "u", "u1", "v", "eta", "i", "s", "2", "-1/3", "5/2",
    "exp(x)", "exp(-x)", "exp(eta*x)", "exp(-eta*x)", "exp(s*x)",
    "exp(-x) + exp(eta*x)", "exp(x) - exp(-eta*x)", "exp(s*x) + exp(-x)",
]


@functools.cache
def _pools(seed: int = 2026, size: int = 400) -> tuple[tuple, tuple]:
    """(every expression, those over 1), grown from the leaves by oracle sums,
    differences and products until `size` are over 1.  An operand is drawn
    from those over 1 three times in five; a result is kept while both parts
    stay below 9 terms."""
    rng = random.Random(seed)
    pool = [parse(s) for s in _LEAVES]
    over_one = [e for e in pool if e.den.is_const()]
    ops = (_full_add, lambda a, b: _full_add(a, _full_neg(b)), _full_mul)

    def operand() -> Expr:
        return rng.choice(over_one if rng.random() < 0.6 else pool)

    while len(over_one) < size:
        e = rng.choice(ops)(operand(), operand())
        if len(e.num.terms) < 9 and len(e.den.terms) < 9:
            pool.append(e)
            if e.den.is_const():
                over_one.append(e)
    return tuple(pool), tuple(over_one)


def _pool() -> tuple:
    return _pools()[0]


def _over_one() -> tuple:
    return _pools()[1]


def _has_exp(e: Expr) -> bool:
    return any(isinstance(a, K.ExpAtom) for a in e.num.atoms())


def _is_skew(e: Expr) -> bool:
    """Whether two exponentials of one base have exponents that are not
    rational multiples of each other."""
    exps = [a for a in e.num.atoms() if isinstance(a, K.ExpAtom)]
    return any(
        a.base is b.base and K._exp_ratio(a.items, b.items) is None for a in exps for b in exps
    )


def test_pool_covers_exponentials_and_roots():
    over_one = _over_one()
    assert len(over_one) == 400
    assert sum(map(_has_exp, over_one)) > 30
    assert sum(K.iunit in e.num.atoms() or K.param("s") in e.num.atoms() for e in over_one) > 30
    assert sum(map(_is_skew, over_one)) > 10


def test_every_exponential_has_a_positive_leading_coefficient():
    # the invariant that makes a polynomial over 1 canonical: the shift by
    # the least exponential power over both parts is then zero
    for e in _pool():
        for a in e.num.atoms() | e.den.atoms():
            if isinstance(a, K.ExpAtom):
                lead = min((m for m, _ in a.items), key=K._mono_order)
                assert dict(a.items)[lead] > 0, str(e)


def test_sums_products_and_powers_over_one_match_full_construction():
    rng = random.Random(7)
    over_one = _over_one()
    cases = 0
    for _ in range(1000):
        a, b = rng.choice(over_one), rng.choice(over_one)
        context = (str(a), str(b))
        _assert_same(a + b, _full_add(a, b), context)
        _assert_same(a - b, _full_add(a, _full_neg(b)), context)
        _assert_same(a * b, _full_mul(a, b), context)
        k = rng.randint(0, 3)
        _assert_same(a**k, Expr(_old_pow(a.num, k), _old_pow(a.den, k)), (str(a), k))
        cases += 4
    assert cases == 4000


def test_cancelling_sum_over_one_is_canonical_zero():
    a = parse("exp(x) + eta*u")
    zero = a - a
    assert _items(zero.num) == [] and _items(zero.den) == [((), 1)]
    assert zero.num.den == 1
    assert zero == K.ZERO and hash(zero) == hash(K.ZERO)
    assert (a * K.ZERO).num.terms == {}


def test_mixed_denominators_match_full_construction():
    rng = random.Random(11)
    pool = _pool()
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        context = (str(a), str(b))
        _assert_same(a + b, _full_add(a, b), context)
        _assert_same(a * b, _full_mul(a, b), context)


def test_mul_by_a_constant_matches_the_term_loop():
    rng = random.Random(3)
    pool = _pool()
    constants = [Poly.const(c) for c in (0, 1, -1, 2, Fraction(1, 2), Fraction(-4, 3))]
    for _ in range(400):
        p = rng.choice(pool).num
        c = rng.choice(constants)
        for got, want in ((p.mul(c), _old_mul(p, c)), (c.mul(p), _old_mul(c, p))):
            assert _items(got) == _items(want), (str(p), str(c))
            _assert_lowest_terms(got)
    p = parse("u*v + 1/2*exp(x)").num
    assert p.mul(Poly.const(1)) is p and Poly.const(1).mul(p) is p


def test_poly_const_of_an_int_needs_no_fraction():
    for c in (0, 1, -7, 2**70):
        p, q = Poly.const(c), Poly.const(Fraction(c))
        assert (p.terms, p.den) == (q.terms, q.den) == ({K._pack(()): c} if c else {}, 1)
    p = Poly.const(Fraction(6, 4))
    assert (p.terms, p.den) == ({K._pack(()): 3}, 2)


def test_diff_and_derive_match_the_quadratic_oracle():
    rng = random.Random(5)
    pool = _pool()
    coords = [K.u(0), K.u(1), K.v(0), K.x, K.eta, K.param("s")]
    for _ in range(250):
        e = rng.choice(pool)
        c = rng.choice(coords)
        assert _items(e.num.diff(c)) == _items(_old_diff(e.num, c)), (str(e), str(c))
        _assert_lowest_terms(e.num.diff(c))
        images = {cc: rng.choice(pool) for cc in rng.sample(coords, rng.randint(1, 3))}
        context = (str(e), {str(k): str(v) for k, v in images.items()})
        _assert_same(e.derive(images), _old_derive(e, images), context)
        _assert_same(e.diff(c), _old_derive(e, {c: K.ONE}), (str(e), str(c)))


# -- shortcuts: results canonical by construction ------------------------------

_CONSTANTS = [Expr.const(c) for c in (1, -1, 2, Fraction(1, 3), Fraction(-5, 2))]


def _parsed_fractions() -> list:
    """Every parse in parse_outcomes.json, in either mn_mode, whose
    denominator is not constant."""
    recorded = json.loads((Path(__file__).parent / "golden" / "parse_outcomes.json").read_text())
    out = []
    for text, *_ in recorded:
        for mode in ("alias", "jets"):
            try:
                e = parse(text, mn_mode=mode)
            except K.KernelError:
                continue
            if not e.den.is_const():
                out.append(e)
    return out


def test_shortcuts_match_full_construction():
    fractions = _parsed_fractions()
    assert len(fractions) == 314
    assert sum(bool({K.iunit, K.param("s")} & e.coords()) for e in fractions) >= 30
    pool = [e for e in _pool() if not e.den.is_const()]
    assert sum(map(_has_exp, pool)) > 30
    zero = K.ZERO
    for x in [*fractions, *pool]:
        context = str(x)
        for c in _CONSTANTS:
            _assert_same(x * c, _full_mul(x, c), (context, str(c)))
            _assert_same(c * x, _full_mul(c, x), (context, str(c)))
            quotient = Expr(_old_mul(x.num, c.den), _old_mul(x.den, c.num))
            _assert_same(x / c, quotient, (context, str(c)))
        _assert_same(x + zero, _full_add(x, zero), context)
        _assert_same(zero + x, _full_add(zero, x), context)
        _assert_same(x - zero, _full_add(x, _full_neg(zero)), context)
        _assert_same(x**1, Expr(x.num, x.den), context)
        _assert_same(x * zero, zero, context)
        _assert_same(zero * x, zero, context)


# -- heap division against the leading-term loop --------------------------------


def _tuple_quo(packed2: int, packed1: int) -> int | None:
    """m2 / m1 on decoded tuples, or None when m1 does not divide m2 (exp
    atoms must match exactly)."""
    m2, m1 = K._pairs(packed2), K._pairs(packed1)
    out = []
    j, n1 = 0, len(m1)
    for a, p in m2:
        if j < n1 and m1[j][0] == a:
            p -= m1[j][1]
            j += 1
            if p < 0:
                return None
            if not p:
                continue
        out.append((a, p))
    return K._pack(out) if j == n1 else None


def _old_poly_div(a: Poly, b: Poly) -> Poly | None:
    """The division loop the heap replaced: each step scans the remainder for
    its leading term and subtracts a fresh product."""
    if b.is_zero():
        raise K.DivisionByZeroError("polynomial division by zero")
    if a.is_zero():
        return Poly.zero()
    if len(b.terms) == 1:
        ((b_mono, b_coeff),) = _rationals(b)
        quo = {}
        for m, c in _rationals(a):
            if (q_mono := _tuple_quo(m, b_mono)) is None:
                return None
            quo[q_mono] = c / b_coeff
        return _rational_poly(quo)
    b_mono = b.leading()[0]
    b_coeff = dict(_rationals(b))[b_mono]
    quo: dict = {}
    rem = a
    while not rem.is_zero():
        r_mono = rem.leading()[0]
        if (q_mono := _tuple_quo(r_mono, b_mono)) is None:
            return None
        q_coeff = dict(_rationals(rem))[r_mono] / b_coeff
        quo[q_mono] = quo.get(q_mono, 0) + q_coeff
        rem = rem.sub(b.mul(_rational_poly({q_mono: q_coeff})))
    return _rational_poly({m: c for m, c in quo.items() if c})


def _division_pairs(seed: int = 17, count: int = 600):
    """(a, b) from the pool's numerators and denominators: exact products
    b*q, products plus a small remainder, and unrelated pairs."""
    rng = random.Random(seed)
    polys = [p for e in _pool() for p in (e.num, e.den) if not p.is_const()]
    for _ in range(count):
        a, b, q = rng.choice(polys), rng.choice(polys), rng.choice(polys)
        kind = rng.random()
        if kind < 0.5:
            yield b.mul(q), b
        elif kind < 0.75:
            yield b.mul(q).add(rng.choice(polys)), b
        else:
            yield a, b


def test_heap_division_matches_the_leading_term_loop():
    seen = collections.Counter()
    for a, b in _division_pairs():
        got, want = K._poly_div(a, b), _old_poly_div(a, b)
        context = (str(a), str(b))
        if want is None:
            assert got is None, context
        else:
            assert got is not None and _items(got) == _items(want), context
        atoms = a.atoms() | b.atoms()
        seen[want is None, "roots"] += bool({K.iunit, K.param("s")} & atoms)
        seen[want is None, "exps"] += any(isinstance(at, K.ExpAtom) for at in atoms)
    # both outcomes occur under the rewrites and the exponential folds
    assert min(seen.values()) >= 50, seen
