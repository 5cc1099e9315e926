"""Differential tests of the kernel against sympy as an independent oracle.

Random rational expressions are built twice, once as a kernel ``Expr`` and
once as a sympy expression, by the same operations.  Kernel equality must
agree with ``sympy.cancel(A - B) == 0``; with exponential atoms, where the
kernel's gcd is conservative by design, only numeric evaluation is compared.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")

from pssurf import kernel as K  # noqa: E402
from pssurf.kernel import DivisionByZeroError, Expr, parse  # noqa: E402

_NAMES = {"u": K.u(0), "u1": K.u(1), "v": K.v(0), "eta": K.eta}
_SYMS = {name: sympy.Symbol(name) for name in (*_NAMES, "x")}


def _leaf(rng: random.Random):
    if rng.random() < 0.3:
        p, q = rng.randint(-4, 4), rng.randint(1, 3)
        return Expr.const(p) / q, sympy.Rational(p, q)
    name = rng.choice(list(_NAMES))
    return Expr.atom(_NAMES[name]), _SYMS[name]


def _random_pair(rng: random.Random, depth: int = 0, leaf=_leaf):
    """(kernel expression, sympy expression) built by the same operations."""
    if depth >= 3 or rng.random() < 0.3:
        return leaf(rng)
    (ka, sa), (kb, sb) = _random_pair(rng, depth + 1, leaf), _random_pair(rng, depth + 1, leaf)
    op = rng.random()
    if op < 0.3:
        return ka + kb, sa + sb
    if op < 0.5:
        return ka - kb, sa - sb
    if op < 0.8:
        return ka * kb, sa * sb
    if op < 0.9:
        k = rng.randint(2, 3)
        return ka**k, sa**k
    if kb.is_zero():
        return ka, sa
    return ka / kb, sa / sb


def _same(ka: Expr, kb: Expr, sa, sb) -> bool:
    kernel_equal = ka == kb
    assert kernel_equal == (sympy.cancel(sa - sb) == 0), (str(ka), str(kb))
    if kernel_equal:
        assert hash(ka) == hash(kb)
    return kernel_equal


def _two_routes(rng: random.Random):
    """Two constructions of one value, by a randomly chosen identity."""
    (ka, sa), (kb, sb), (kc, sc) = (_random_pair(rng, 1) for _ in range(3))
    route = rng.randrange(5)
    if route == 0:  # distribution
        return ka * (kb + kc), ka * kb + ka * kc, sa * (sb + sc), sa * sb + sa * sc
    if route == 1:  # reassociation of a product
        return (ka * kb) * kc, ka * (kb * kc), (sa * sb) * sc, sa * (sb * sc)
    if route == 2:  # reassociation of a sum
        return (ka + kb) - kc, ka + (kb - kc), (sa + sb) - sc, sa + (sb - sc)
    if kb.is_zero() or kc.is_zero():
        return ka, ka, sa, sa
    if route == 3:  # common denominator
        return ka / kb + kc / kb, (ka + kc) / kb, sa / sb + sc / sb, (sa + sc) / sb
    return (ka / kb) * (kc / kb), (ka * kc) / (kb * kb), (sa / sb) * (sc / sb), (sa * sc) / (sb * sb)


def test_two_routes_agree_with_sympy():
    rng = random.Random(1729)
    for _ in range(60):
        ka, kb, sa, sb = _two_routes(rng)
        assert _same(ka, kb, sa, sb)


def test_unequal_pairs_agree_with_sympy():
    rng = random.Random(4104)
    unequal = 0
    for _ in range(60):
        ka, kb, sa, sb = _two_routes(rng)
        (kd, sd) = _leaf(rng)
        if not _same(ka, kb + kd, sa, sb + sd):
            unequal += 1
        (ke, se) = _random_pair(rng, 1)
        _same(ka, ke, sa, se)
    assert unequal > 40


def test_printed_form_parses_back():
    rng = random.Random(31)
    for _ in range(150):
        ka, _ = _random_pair(rng)
        assert parse(str(ka)) == ka


def _exp_leaf(rng: random.Random):
    roll = rng.random()
    if roll < 0.25:
        k = rng.choice([-2, -1, 1, 2])
        return parse(f"exp({k}*eta*x)"), sympy.exp(k * _SYMS["eta"] * _SYMS["x"])
    if roll < 0.4:
        k = rng.choice([-1, 1, 3])
        return parse(f"exp({k}*x)"), sympy.exp(k * _SYMS["x"])
    return _leaf(rng)


def test_eval_with_exponentials_matches_lambdify():
    rng = random.Random(2718)
    order = [*_NAMES, "x"]
    coords = [*_NAMES.values(), K.x]
    checked = 0
    for _ in range(80):
        try:
            ke, se = _random_pair(rng, leaf=_exp_leaf)
        except DivisionByZeroError:
            continue
        f = sympy.lambdify([_SYMS[n] for n in order], se, modules="math")
        for _ in range(3):
            vals = [rng.uniform(0.5, 1.5) for _ in order]
            try:
                expected = f(*vals)
            except ZeroDivisionError:
                continue
            # skip points near a pole or a zero, where rounding dominates
            if not 1e-3 < abs(expected) < 1e6:
                continue
            got = ke.eval(dict(zip(coords, vals)))
            assert math.isclose(got, expected, rel_tol=1e-12), (str(ke), vals)
            checked += 1
    assert checked > 150
