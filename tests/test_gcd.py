"""Differential tests of the polynomial gcd.

``poly_gcd`` runs GCDHEU first and the primitive PRS when no evaluation point
gives a gcd.  Seeded pairs (G*A, G*B) with a known factor G are reduced three
ways: by the kernel, by the kernel with no GCDHEU attempt (the PRS alone), and
by ``sympy.gcd`` with every kernel atom, ``i``, ``s`` and the basis
exponentials included, as a plain Symbol.  Both kernel paths compute on the
same integer polynomials, so they must give the same bytes.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from pssurf import kernel as K  # noqa: E402
from pssurf.kernel import Poly, parse  # noqa: E402

_PLAIN = [K.u(0), K.u(1), K.v(0), K.eta]
_ROOTS = [K.param("i"), K.param("s")]


def _prs_gcd(a: Poly, b: Poly, monkeypatch) -> Poly:
    with monkeypatch.context() as m:
        m.setattr(K, "_HEU_ATTEMPTS", 0)
        return K.poly_gcd(a, b)


def _to_sympy(p: Poly, symbols: dict):
    terms = []
    for mono, c in p.terms.items():
        factors = [symbols.setdefault(a, sympy.Symbol(f"a{len(symbols)}")) ** pw for a, pw in K._pairs(mono)]
        terms.append(sympy.Rational(c, p.den) * sympy.Mul(*factors))
    return sympy.Add(*terms)


def _check_gcd(a: Poly, b: Poly, known: Poly | None, monkeypatch) -> Poly:
    """The kernel's gcd of a and b, checked against the PRS alone and against
    sympy, and checked to be a multiple of the known common factor, if any."""
    g = K.poly_gcd(a, b)
    assert g.terms == _prs_gcd(a, b, monkeypatch).terms, (str(a), str(b))
    symbols: dict = {}
    sa, sb, sg = (_to_sympy(p, symbols) for p in (a, b, g))
    assert sympy.cancel(sg / sympy.gcd(sa, sb)).is_Rational, (str(a), str(b), str(g))
    if known is not None:
        assert sympy.cancel(sg / _to_sympy(known, symbols)).is_polynomial(), str(g)
    return g


def _random_poly(rng: random.Random, atoms: list, terms: int) -> Poly:
    p = Poly.zero()
    for _ in range(terms):
        t = Poly.const(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3])))
        for a in atoms:
            if e := rng.randint(0, 1 if a in _ROOTS else 2):
                t = t.mul(Poly.atom(a).pow(e))
        p = p.add(t)
    return p


def _free_pairs(seed: int, count: int):
    """(G*A, G*B, G) over u, u1, v, eta, i, s with rational coefficients.

    Each of i and s goes either into G or into the cofactors, never both, so
    no product squares it: G*A and G*B are then the same polynomials whether
    i and s are free atoms or not, and G is a factor of both in either ring.
    """
    rng = random.Random(seed)
    while count:
        side = [rng.randrange(2) for _ in _ROOTS]
        g_atoms = _PLAIN + [r for r, k in zip(_ROOTS, side) if k == 0]
        c_atoms = _PLAIN + [r for r, k in zip(_ROOTS, side) if k == 1]
        g, a, b = (
            _random_poly(rng, rng.sample(pool, rng.randint(1, 4)), rng.randint(1, n))
            for pool, n in ((g_atoms, 3), (c_atoms, 4), (c_atoms, 4))
        )
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        count -= 1
        yield g.mul(a), g.mul(b), g


def _squared_pairs(seed: int, count: int):
    """(G*A, G*B) over u, u1, v, eta, i, s in which G and A share i or s, so
    the product squares it and the rewrite i*i -> -1 or s*s -> 2 applies:
    G need not divide G*A once i and s are free atoms."""
    rng = random.Random(seed)
    pool = _PLAIN + _ROOTS
    while count:
        g, a, b = (
            _random_poly(rng, rng.sample(pool, rng.randint(2, 5)), rng.randint(1, n))
            for n in (3, 4, 4)
        )
        if b.is_zero() or not g.atoms() & a.atoms() & set(_ROOTS):
            continue
        count -= 1
        yield g.mul(a), g.mul(b)


def test_free_atom_pairs_agree_with_prs_and_sympy(monkeypatch):
    nontrivial = 0
    for a, b, g in _free_pairs(11, 40):
        nontrivial += not _check_gcd(a, b, g, monkeypatch).is_const()
    assert nontrivial >= 30
    for a, b in _squared_pairs(13, 30):
        _check_gcd(a, b, None, monkeypatch)


_EXP_TERMS = ("exp(eta*x)", "exp(2*eta*x)", "exp(-eta*x)", "exp(t/2)", "exp(-t)")


def _exp_poly_text(rng: random.Random, terms: int) -> str:
    out = []
    for _ in range(terms):
        factors = [str(rng.choice([-3, -1, 1, 2])) + "/" + str(rng.choice([1, 2]))]
        factors += rng.sample(["u", "v", "u1", "eta", *_EXP_TERMS], rng.randint(1, 3))
        out.append("*".join(factors))
    return " + ".join(out)


def test_localized_exponential_pairs_agree_with_prs_and_sympy(monkeypatch):
    # products of parsed exp(...) expressions, put on one lattice as fraction
    # reduction puts them: each base's exponentials become powers of basis
    # atoms, which the gcd treats as free atoms
    rng = random.Random(5)
    with_exps = nontrivial = 0
    for _ in range(15):
        g, a, b = (parse(_exp_poly_text(rng, rng.randint(2, 3))) for _ in range(3))
        num, den = K._on_lattice(g.num.mul(a.num), g.num.mul(b.num))
        with_exps += any(isinstance(at, K.ExpAtom) for at in num.atoms() | den.atoms())
        nontrivial += not _check_gcd(num, den, Poly.const(1), monkeypatch).is_const()
    assert with_exps >= 12 and nontrivial >= 12


def _whole_ring_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd on integer polynomials over every atom of both operands at
    once, normalized as ``poly_gcd`` normalizes: for operands of two terms
    or more, with at least one atom in common and no exponential."""
    ma, mb = (functools.reduce(K._mono_min, p.terms) for p in (a, b))
    a, b = (Poly({m - mp: c for m, c in p.terms.items()}, p.den) for p, mp in ((a, ma), (b, mb)))
    atoms = sorted(a.atoms() | b.atoms(), key=lambda at: at.key)
    index = {at: k for k, at in enumerate(atoms)}
    h = K._int_gcd(K._to_int_poly(a, index), K._to_int_poly(b, index))
    core = Poly({K._pack((atoms[k], e) for k, e in enumerate(m)): c for m, c in h.items()})
    return core.divide(Fraction(*core.content())).mul(Poly({K._mono_min(ma, mb): 1}))


_SHARED = [K.u(0), K.v(0), K.eta]
_ONE_SIDED = [K.u(1), K.x, K.t, K.param("i"), K.param("s")]


def _one_sided_pairs(seed: int, count: int):
    """(a, b, G) with a and b each G times a sum of parts times distinct
    monomials in its own atoms, drawn from u1, x, t, i and s: on one side,
    on the other or on both.  G and the parts are over u, v and eta, and
    every part but one also holds a decoy factor D, so the gcd is G only
    when every part enters it.  i and s are never on both sides, so no
    product squares them and G divides a and b in the free ring."""
    rng = random.Random(seed)
    while count:
        own: tuple = ([], [])
        for at in rng.sample(_ONE_SIDED, rng.randint(1, 3)):
            for side in rng.choice(((0,), (1,), (0, 1))):
                own[side].append(at)
        if set(own[0]) & set(own[1]) & set(_ROOTS):
            continue
        g, d = (_random_poly(rng, rng.sample(_SHARED, rng.randint(1, 3)), rng.randint(2, 3)) for _ in "gd")
        monos = [list(dict.fromkeys(next(iter(_random_poly(rng, atoms, 1).terms)) for _ in range(3)))
                 for atoms in own]
        skip = rng.randrange(sum(map(len, monos)))
        sums, k = [], 0
        for side in monos:
            total = Poly.zero()
            for mono in side:
                part = _random_poly(rng, rng.sample(_SHARED, rng.randint(1, 3)), rng.randint(1, 3))
                total = total.add(Poly({mono: 1}).mul(part).mul(d if k != skip else Poly.const(1)))
                k += 1
            sums.append(g.mul(total))
        a, b = sums
        if min(len(p.terms) for p in (a, b)) < 2 or a.atoms() == b.atoms():
            continue
        count -= 1
        yield a, b, g


def test_gcd_over_shared_atoms_equals_the_whole_ring_gcd(monkeypatch):
    # a common factor holds only atoms of both operands, so the gcd of the
    # parts over the shared atoms is the gcd over every atom, term for term
    # and in the same insertion order
    nontrivial = 0
    for k, (a, b, g) in enumerate(_one_sided_pairs(17, 60)):
        got = K.poly_gcd(a, b)
        assert list(got.terms.items()) == list(_whole_ring_gcd(a, b).terms.items()), (str(a), str(b))
        nontrivial += not got.is_const()
        if k % 4 == 0:
            _check_gcd(a, b, g, monkeypatch)
    assert nontrivial >= 50


def test_localized_exponentials_on_one_side_split_like_atoms(monkeypatch):
    # the basis atom of exp(t/2) or exp(-t) occurs in one operand only
    rng = random.Random(23)
    split = 0
    for _ in range(20):
        g, a = (parse(_exp_poly_text(rng, rng.randint(2, 3))) for _ in range(2))
        b = parse(" + ".join(f"{rng.choice([-2, 1, 3])}*{rng.choice(['u', 'v', 'exp(eta*x)'])}" for _ in range(2)))
        num, den = K._on_lattice(g.num.mul(a.num), g.num.mul(b.num))
        if min(len(num.terms), len(den.terms)) < 2 or num.atoms() == den.atoms():
            continue
        split += 1
        got = K.poly_gcd(num, den)
        assert list(got.terms.items()) == list(_whole_ring_gcd(num, den).terms.items())
        _check_gcd(num, den, None, monkeypatch)
    assert split >= 8


def test_exponential_on_one_side_splits_off_like_an_atom():
    # a basis exponential is a free atom, so the factor u + v is found
    a = parse("u*(u+v)*(v + exp(x))").num
    b = parse("u*(u+v)*(v + 1)").num
    assert K.poly_gcd(a, b) == parse("u^2 + u*v").num


def test_a_reduction_enters_poly_gcd_once(monkeypatch):
    # the split recurses through a private helper, so a tracer that wraps
    # the module's poly_gcd counts one call per reduction
    num = parse("(u+v)*(u*x + eta*x^2 + 3)").num
    den = parse("(u+v)*(u1*v + 2*u1 - eta)").num
    calls, inner = [], []
    outer, helper = K.poly_gcd, K._gcd
    monkeypatch.setattr(K, "poly_gcd", lambda a, b: calls.append(1) or outer(a, b))
    monkeypatch.setattr(K, "_gcd", lambda a, b: inner.append(1) or helper(a, b))
    e = K.Expr(num, den)
    assert str(e) == "(x^2*eta + x*u + 3)/(u1*v + 2*u1 - eta)"
    assert len(calls) == 1 and len(inner) > 2


def test_prs_fallback_takes_over_when_no_point_is_tried(monkeypatch):
    a, b, g = next(_free_pairs(3, 1))
    monkeypatch.setattr(K, "_HEU_ATTEMPTS", 0)
    calls = []
    prs = K._prs_gcd
    monkeypatch.setattr(K, "_prs_gcd", lambda *args: calls.append(args) or prs(*args))
    K.poly_exact_div(K.poly_gcd(a, b), g)
    assert calls


def _sympy_of(text: str):
    local = {"i": sympy.I, "s": sympy.sqrt(2), "exp": sympy.exp}
    return sympy.parse_expr(text.replace("^", "**"), local_dict=local)


def _agrees(kernel_expr, sympy_expr) -> bool:
    diff = _sympy_of(str(kernel_expr)) - sympy_expr
    return sympy.expand(sympy.numer(sympy.together(diff))) == 0


_SLOW = "(u/exp((eta+1)*x))*v*(v/exp(eta*x)*u - s*exp(-eta*x)) + (u1*s*u1 - eta + s) + 3"


def _slow_fraction():
    e = parse(_SLOW)
    return e / (e + 1) - e * e


def test_fraction_with_s_and_exponentials_finishes():
    # the primitive PRS alone ran for minutes here, five levels deep in
    # content gcds with growing coefficients
    start = time.perf_counter()
    r = _slow_fraction()
    assert time.perf_counter() - start < 5
    want = _sympy_of(_SLOW)
    assert _agrees(r, want / (want + 1) - want * want)
    assert not _agrees(r, want / (want + 1))


def test_fraction_with_s_and_exponentials_finishes_on_the_prs(monkeypatch):
    # the PRS on Poly, with i*i and s*s rewritten, did not finish in 60 s
    r = _slow_fraction()
    monkeypatch.setattr(K, "_HEU_ATTEMPTS", 0)
    start = time.perf_counter()
    forced = _slow_fraction()
    assert time.perf_counter() - start < 5
    assert list(forced.num.terms) == list(r.num.terms)
    assert list(forced.den.terms) == list(r.den.terms)


@pytest.mark.parametrize(
    "text",
    [
        "(u*u+v*v)/(u+i*v)",
        "(u*u-2*v*v)/(u-s*v)",
        "1/(u+i*v) - (u-i*v)/(u*u+v*v)",
        "exp(-x)/(v2/exp(z/2) - i)",
    ],
)
def test_reduction_with_factors_over_the_field_agrees_with_sympy(text):
    # the PRS found factors such as u + i*v that do not divide once i*i is
    # rewritten, and the reduction raised; the free-atom gcd divides exactly
    # (the fraction may stay unreduced over Q(i, sqrt 2))
    e = parse(text)
    assert _agrees(e, _sympy_of(text))
    assert _agrees(e.diff(K.indep("x")), sympy.diff(_sympy_of(text), sympy.Symbol("x")))


@pytest.mark.parametrize(
    "text",
    [
        "(u*u+v*v)/(u+i*v)",
        "(u*u-2*v*v)/(u-s*v)",
        "1/(u+i*v) - (u-i*v)/(u*u+v*v)",
        "(u1*v/(s-v))/((u1*v/(s-v))+v)",
        "(u-i)^2/(u-i)",
        "(u^2+1)/(u+i)",
        "(u+s)^2/(u+s)",
    ],
)
def test_prs_and_gcdheu_reduce_to_the_same_fraction(text, monkeypatch):
    # with i and s free in both gcd paths the canonical form does not depend
    # on which path finished
    e = parse(text)
    monkeypatch.setattr(K, "_HEU_ATTEMPTS", 0)
    forced = parse(text)
    assert str(forced) == str(e)
    assert forced == e and hash(forced) == hash(e)
    assert _agrees(forced, _sympy_of(text))


@pytest.mark.parametrize("heu_attempts", [K._HEU_ATTEMPTS, 0])
@pytest.mark.parametrize(
    "text, reduced",
    [("(u-i)^2/(u-i)", "u-i"), ("(u^2+1)/(u+i)", "u-i"), ("(u+s)^2/(u+s)", "u+s")],
)
def test_trial_division_cancels_under_the_rewrites(text, reduced, heu_attempts, monkeypatch):
    # the denominator divides the numerator only once i*i -> -1 or s*s -> 2;
    # the gcd with i and s free finds no factor, the trial division does
    monkeypatch.setattr(K, "_HEU_ATTEMPTS", heu_attempts)
    e = parse(text)
    assert e == parse(reduced) and hash(e) == hash(parse(reduced))
    assert str(e) == str(parse(reduced))
