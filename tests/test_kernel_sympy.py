"""Differential tests of the kernel against sympy as an independent oracle.

Random rational expressions are built twice, once as a kernel ``Expr`` and
once as a sympy expression, by the same operations.  Kernel equality must
agree with ``sympy.cancel(A - B) == 0``, and equal expressions must hash
alike.  With exponential leaves, sympy sees exp(k*x) as X**k and
exp(k*eta*x) as Y**k: exponentials along Q-independent directions are
algebraically independent, so the identity holds exactly when it holds for
the rational functions in X and Y.  Numeric evaluation is compared against
``sympy.lambdify`` as well.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")

from pssurf import kernel as K  # noqa: E402
from pssurf.kernel import DivisionByZeroError, Expr, parse  # noqa: E402

_NAMES = {"u": K.u(0), "u1": K.u(1), "v": K.v(0), "eta": K.eta}
_SYMS = {name: sympy.Symbol(name) for name in (*_NAMES, "x")}
_EXP_X, _EXP_ETA_X = sympy.Symbol("X"), sympy.Symbol("Y")


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


def _two_routes(rng: random.Random, leaf=_leaf):
    """Two constructions of one value, by a randomly chosen identity."""
    (ka, sa), (kb, sb), (kc, sc) = (_random_pair(rng, 1, leaf) for _ in range(3))
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


def _exp_x_leaf(rng: random.Random):
    """exp(k*x) as X**k, one exponential direction on the base x."""
    if rng.random() < 0.3:
        k = rng.choice([-2, -1, 1, 2, 3])
        return parse(f"exp({k}*x)"), _EXP_X**k
    return _leaf(rng)


def _two_directions_leaf(rng: random.Random):
    """exp(k*x) as X**k and exp(k*eta*x) as Y**k: two directions on x."""
    if rng.random() < 0.15:
        k = rng.choice([-2, -1, 1, 2])
        return parse(f"exp({k}*eta*x)"), _EXP_ETA_X**k
    return _exp_x_leaf(rng)


def _exact_two_routes(seed: int, leaf) -> int:
    """How many seeded two-route pairs with the given leaves compare equal,
    each checked against sympy and for equal hashes."""
    rng = random.Random(seed)
    equal = 0
    for _ in range(120):
        try:
            ka, kb, sa, sb = _two_routes(rng, leaf)
        except DivisionByZeroError:
            continue
        equal += _same(ka, kb, sa, sb)
    return equal


def test_two_routes_with_exponentials_of_one_direction_agree_with_sympy():
    assert _exact_two_routes(1730, _exp_x_leaf) > 100


def test_two_routes_with_exponentials_of_two_directions_agree_with_sympy():
    assert _exact_two_routes(1731, _two_directions_leaf) > 100


# The parse outcomes (tests/golden/parse_outcomes.json) that changed when
# each base's exponentials moved onto their own lattice: (old, new) texts.
_CHANGED_OUTCOMES = [
    ("(-v^2*exp(x)*exp(t*eta) + 2*v*v2*exp(x)*exp(t*eta) - v2^2*exp(x)*exp(t*eta) + exp(x*eta))"
     "/(v^2*exp(x) - 2*v*v2*exp(x) + v2^2*exp(x))",
     "(-v^2*exp(t*eta) + 2*v*v2*exp(t*eta) - v2^2*exp(t*eta) + exp(x*eta - x))/(v^2 - 2*v*v2 + v2^2)"),
    ("(-n^2*exp(x)*exp(t*eta) + exp(x*eta))/(n^2*exp(x))", "(-n^2*exp(t*eta) + exp(x*eta - x))/(n^2)"),
]


def test_changed_parse_outcomes_are_equal_in_sympy():
    for old, new in _CHANGED_OUTCOMES:
        assert sympy.cancel(sympy.parse_expr(old.replace("^", "**")) - sympy.parse_expr(new.replace("^", "**"))) == 0
        assert parse(old, mn_mode="jets") == parse(new, mn_mode="jets")
