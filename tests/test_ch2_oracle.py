"""The CH2 nonlocal-symmetry pipeline recomputed in sympy, outside the kernel.

The inputs are converted with the printed-text converter of
``test_sympy_oracle``: the momentum-form system ``ch2_system()``, the rule
table of ``linear_problem()``, the reduced symmetry tuple, the prolongation,
``finite_transform_symbolic()`` and the quartic density of
``check_bihamiltonian_d1``.  The derivations are written out here:

- D_x promotes u, v, m, n jets and closes them through the momentum
  definitions u2 = u - m, v2 = v - n; phi1, phi2, phih1, phih2 and p move
  by their x-rules.
- D_t acts on expressions free of bare u, v jets: m and n move by the
  momentum flow, m_k and n_k by its k-th D_x, the eigenfunctions and p by
  their t-rules.
- The linearization moves each jet base_k along D_x^k of its
  characteristic.

From these the symmetry residual, the six prolongation residuals, the
first-order expansion of the finite transformation (``sympy.diff`` in eps,
then eps = 0, against the generator rebuilt from the symmetry) and the
bi-Hamiltonian residuals (the Euler operator over plain u, v jets) are
rebuilt.  Each must vanish in sympy's rational function field, as the
kernel's verdict says.  One seeded perturbation per check must be nonzero on
both sides.
"""

import functools
import random
import re

import pytest

sympy = pytest.importorskip("sympy")

from pssurf import chsym  # noqa: E402
from pssurf import kernel as K  # noqa: E402
from pssurf.kernel import Expr, parse  # noqa: E402
from test_sympy_oracle import _sympy, _vanishes  # noqa: E402

_JET = re.compile(r"^([uvmn])(\d*)$")
_SYM = sympy.Symbol
_X, _T, _EPS = _SYM("x"), _SYM("t"), _SYM("eps")
_PHI1, _PHI2, _PP = _SYM("phi1"), _SYM("phi2"), _SYM("p")
_DEPS = ("phi1", "phi2", "phih1", "phih2", "p")
# the density of check_bihamiltonian_d1, as that function writes it
_DENSITY = "1/4*(u^2*v1 + u1^2*v1 - 2*u*u1*v)*(v - v2)"


def _jet(name: str, k: int):
    return _SYM(f"{name}{k or ''}")


def _jet_of(symbol) -> tuple[str, int] | None:
    match = _JET.match(symbol.name)
    return (match[1], int(match[2] or 0)) if match else None


@functools.cache
def _rules():
    _, _, rules = chsym.linear_problem()
    x_rules = {_SYM(str(c)): _sympy(e) for c, e in rules.x_rules.items()}
    t_rules = {_SYM(str(c)): _sympy(e) for c, e in rules.t_rules.items()}
    return x_rules, t_rules


def d_x(f):
    """Total x-derivative on closed momentum-form expressions."""
    x_rules, _ = _rules()
    out = sympy.diff(f, _X)
    for c in f.free_symbols:
        jet = _jet_of(c)
        if c in x_rules:
            image = x_rules[c]
        elif jet is None:
            continue
        elif jet[0] in "uv" and jet[1] == 1:  # u2 = u - m and v2 = v - n
            image = _jet(jet[0], 0) - _jet("m" if jet[0] == "u" else "n", 0)
        elif jet[0] in "uv" and jet[1] > 1:
            raise AssertionError(f"{c} is not closed")
        else:
            image = _jet(jet[0], jet[1] + 1)
        out += sympy.diff(f, c) * image
    return out


def d_x_pow(f, k: int):
    for _ in range(k):
        f = d_x(f)
    return f


def d_t(f):
    """Total t-derivative modulo the momentum flow, on expressions with no
    bare u, v jets."""
    _, t_rules = _rules()
    out = sympy.diff(f, _T)
    for c in f.free_symbols:
        jet = _jet_of(c)
        if jet is not None and jet[0] in "uv":
            raise AssertionError(f"bare {c} has no local t-image")
        if c.name in _DEPS:
            out += sympy.diff(f, c) * t_rules[c]
        elif jet is not None:
            out += sympy.diff(f, c) * d_x_pow(t_rules[_jet(jet[0], 0)], jet[1])
    return out


def linearize(f, directions: dict):
    """The Frechet derivative of f along the characteristics of its jets."""
    out = 0
    for c in f.free_symbols:
        jet = _jet_of(c)
        if jet is not None:
            out += sympy.diff(f, c) * d_x_pow(directions[jet[0]], jet[1])
    return out


def _directions(s: chsym.SymmetryTuple) -> dict:
    return {"u": _sympy(s.w_u), "v": _sympy(s.w_v), "m": _sympy(s.w_m), "n": _sympy(s.w_n)}


def _perturbation(seed: int) -> Expr:
    rng = random.Random(seed)
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    monomial = rng.choice(("m*phi1*phi2", "n1*phi2^2", "eta*m^2", "phi1^2*n"))
    return coeff * parse(monomial, mn_mode="jets")


# -- the symmetry -------------------------------------------------------------


def _oracle_symmetry_residual(s: chsym.SymmetryTuple) -> tuple:
    sys = chsym.ch2_system()
    directions = _directions(s)
    return (d_t(directions["m"]) - linearize(_sympy(sys.m_t), directions),
            d_t(directions["n"]) - linearize(_sympy(sys.n_t), directions))


def test_symmetry_residual_vanishes_in_sympy():
    s = chsym.nonlocal_symmetry()
    kernel = chsym.check_symmetry_residual(s)
    oracle = _oracle_symmetry_residual(s)
    assert [r.is_zero() for r in kernel] == [_vanishes(r) for r in oracle] == [True, True]


def test_perturbed_symmetry_fails_in_both():
    s = chsym.nonlocal_symmetry()
    bad = chsym.SymmetryTuple(s.w_u, s.w_v, s.w_m, s.w_n + _perturbation(1))
    kernel = chsym.check_symmetry_residual(bad)
    oracle = _oracle_symmetry_residual(bad)
    verdicts = [r.is_zero() for r in kernel]
    assert verdicts == [_vanishes(r) for r in oracle] and verdicts != [True, True]


# -- the prolongation ---------------------------------------------------------


def _oracle_prolongation_residuals(ws: tuple) -> dict:
    Mmat, Nmat, _ = chsym.linear_problem()
    x_rules, t_rules = _rules()
    directions = _directions(chsym.nonlocal_symmetry())
    w1, w2, wp = map(_sympy, ws)
    phis, eigen = (_PHI1, _PHI2), (w1, w2)
    out = {}
    for axis, mat, axis_rules, derivative in (("x", Mmat, x_rules, d_x), ("t", Nmat, t_rules, d_t)):
        for idx in range(2):
            row = [_sympy(e) for e in mat[idx]]
            rhs = sum(linearize(row[j], directions) * phis[j] + row[j] * eigen[j] for j in range(2))
            out[f"eigenfunction-{idx + 1}-{axis}"] = derivative(eigen[idx]) - rhs
        pd = axis_rules[_PP]
        rhs = linearize(pd, directions) + sympy.diff(pd, _PHI1) * w1 + sympy.diff(pd, _PHI2) * w2
        out[f"pseudo-potential-{axis}"] = derivative(wp) - rhs
    return out


def test_prolongation_residuals_vanish_in_sympy():
    kernel = chsym.prolongation_residuals()
    oracle = _oracle_prolongation_residuals(chsym.prolongation())
    assert set(kernel) == set(oracle) and len(kernel) == 6
    for name, r in kernel.items():
        assert r.is_zero() and _vanishes(oracle[name]), name


def test_perturbed_prolongation_fails_in_both(monkeypatch):
    w1, w2, wp = chsym.prolongation()
    bad = (w1, w2 + _perturbation(2), wp)
    monkeypatch.setattr(chsym, "prolongation", lambda: bad)
    kernel = chsym.prolongation_residuals()
    oracle = _oracle_prolongation_residuals(bad)
    verdicts = {name: (r.is_zero(), _vanishes(oracle[name])) for name, r in kernel.items()}
    assert all(a == b for a, b in verdicts.values()), verdicts
    assert not verdicts["eigenfunction-2-x"][0] and not verdicts["eigenfunction-2-t"][0]


# -- the finite transformation ------------------------------------------------


def _oracle_generator() -> dict:
    """The generator rebuilt from the symmetry: xi = -eta*phi1*phi2 and
    V[c] = w_c + xi * D_x c."""
    s = chsym.nonlocal_symmetry()
    w1, w2, wp = map(_sympy, chsym.prolongation())
    w_u, w_v = _sympy(s.w_u), _sympy(s.w_v)
    xi = -_SYM("eta") * _PHI1 * _PHI2
    coords = {
        "u": (_jet("u", 0), w_u), "v": (_jet("v", 0), w_v),
        "ux": (_jet("u", 1), d_x(w_u)), "vx": (_jet("v", 1), d_x(w_v)),
        "p": (_PP, wp), "m": (_jet("m", 0), _sympy(s.w_m)), "n": (_jet("n", 0), _sympy(s.w_n)),
        "phi1": (_PHI1, w1), "phi2": (_PHI2, w2),
    }
    return {"x": xi, **{name: w + xi * d_x(c) for name, (c, w) in coords.items()}}


def _oracle_expansion_residuals(closed: dict) -> dict:
    V = _oracle_generator()

    def rate(name):
        entry = sum(_sympy(a) / _sympy(b) for a, b in closed[name])
        return sympy.diff(entry, _EPS).subs(_EPS, 0)

    out = {"x": rate("x-shift-exp") - V["x"], "t": rate("t")}
    out |= {name: rate(name) - V[name] for name in ("u", "v", "m", "n", "p")}
    out |= {f"phi{k}": rate(f"phi{k}-squared") - 2 * _SYM(f"phi{k}") * V[f"phi{k}"] for k in (1, 2)}
    return out


def test_generator_matches_the_oracle():
    oracle = _oracle_generator()
    kernel = chsym.vector_field_components()
    assert set(kernel) == set(oracle)
    for name, e in kernel.items():
        assert _vanishes(_sympy(e) - oracle[name]), name


def test_first_order_expansion_vanishes_in_sympy():
    kernel = chsym.first_order_expansion_residuals()
    oracle = _oracle_expansion_residuals(chsym.finite_transform_symbolic())
    assert set(kernel) == set(oracle)
    for name, r in kernel.items():
        assert r.is_zero() and _vanishes(oracle[name]), name


def _perturbed(closed: dict, name: str, delta: Expr) -> dict:
    """closed with delta added to one entry as one more pair."""
    return {**closed, name: (*closed[name], (delta.num, delta.den))}


def test_perturbed_transformation_fails_in_both(monkeypatch):
    bad = _perturbed(chsym.finite_transform_symbolic(), "m", Expr.atom(K.eps) * _perturbation(3))
    monkeypatch.setattr(chsym, "finite_transform_symbolic", lambda: bad)
    kernel = chsym.first_order_expansion_residuals()
    oracle = _oracle_expansion_residuals(bad)
    verdicts = {name: (r.is_zero(), _vanishes(oracle[name])) for name, r in kernel.items()}
    assert verdicts == {name: (name != "m", name != "m") for name in kernel}


def _expr_closed_forms() -> dict:
    """The nine closed forms as `Expr` arithmetic, each quotient reduced as
    it is formed: the statement the pair table replaced."""
    eps, p, eta = Expr.atom(K.eps), Expr.atom(K.p), Expr.atom(K.eta)
    u, u1, v, v1, m, n, phi1, phi2 = (parse(name, mn_mode="jets")
                                      for name in ("u", "u1", "v", "v1", "m", "n", "phi1", "phi2"))
    d1 = 1 - eps * p
    d2 = 1 - eps * p - eps * eta * phi1 * phi2
    den = d2 * (2 * d1 - eps * eta**2 * (m * phi2**2 - n * phi1**2)) + eps**2 * eta**3 * n * phi1**3 * phi2
    return {
        "x-shift-exp": d2 / d1,
        "t": Expr.atom(K.t),
        "u": (u + u1) * d2 / (2 * d1) - (u1 - u) * d1 / (2 * d2) - eps * phi1**2 / d2,
        "v": (v + v1) * d2 / (2 * d1) - (v1 - v) * d1 / (2 * d2) + eps * phi2**2 / d1,
        "m": 2 * m * d2**2 / den,
        "n": 2 * n * d1**2 / den,
        "phi1-squared": phi1**2 / (d1 * d2),
        "phi2-squared": phi2**2 / (d1 * d2),
        "p": p / d1,
    }


def _reduce_as_you_go(closed: dict) -> dict:
    """The first-order residuals on the reduce-as-you-go path: the
    eps-derivative of each `Expr` closed form from `Expr.derive_pair`, eps = 0
    in both of its polynomials, then `/` and `-`."""
    V = chsym.vector_field_components()

    def rate(name):
        num, den = (Expr(q, K.Poly.const(1)).substitute({K.eps: K.ZERO})
                    for q in closed[name].derive_pair({K.eps: K.ONE}))
        return num / den

    out = {"x": rate("x-shift-exp") - V["x"], "t": rate("t")}
    out |= {name: rate(name) - V[name] for name in ("u", "v", "m", "n", "p")}
    out |= {f"phi{k}": rate(f"phi{k}-squared") - 2 * parse(f"phi{k}") * V[f"phi{k}"] for k in (1, 2)}
    return out


def test_pair_table_states_the_expr_closed_forms():
    closed = chsym.finite_transform_symbolic()
    assert {name: K.fraction_sum(pairs) for name, pairs in closed.items()} == _expr_closed_forms()
    assert {name: str(r) for name, r in _reduce_as_you_go(_expr_closed_forms()).items()} == dict.fromkeys(
        chsym.first_order_expansion_residuals(), "0")


def _fractional_perturbation(seed: int) -> Expr:
    """eps times a seeded perturbation over a seeded denominator free of eps."""
    den = random.Random(seed).choice(("1 + eta*phi1*phi2", "2 - m*phi2^2", "eta + n1", "u*v - u1*v1"))
    return Expr.atom(K.eps) * _perturbation(seed) / parse(den, mn_mode="jets")


_ENTRIES = {"x-shift-exp": "x", "t": "t", "u": "u", "v": "v", "m": "m", "n": "n",
            "phi1-squared": "phi1", "phi2-squared": "phi2", "p": "p"}


@pytest.mark.parametrize("seed, entry", enumerate(_ENTRIES, start=10), ids=list(_ENTRIES))
def test_each_perturbed_entry_fails_alone(monkeypatch, seed, entry):
    # the perturbed component alone fails in the kernel and in sympy, and
    # every residual prints as on the reduce-as-you-go path; the
    # perturbation's denominator survives eps = 0, so the failing residual
    # is a fraction that only the gcd brings to lowest terms
    delta = _fractional_perturbation(seed)
    bad = _perturbed(chsym.finite_transform_symbolic(), entry, delta)
    monkeypatch.setattr(chsym, "finite_transform_symbolic", lambda: bad)
    kernel = chsym.first_order_expansion_residuals()
    oracle = _oracle_expansion_residuals(bad)
    component = _ENTRIES[entry]
    verdicts = {name: (r.is_zero(), _vanishes(oracle[name])) for name, r in kernel.items()}
    assert verdicts == {name: (name != component, name != component) for name in _ENTRIES.values()}
    old = _expr_closed_forms()
    old_path = _reduce_as_you_go({**old, entry: old[entry] + delta})
    assert {name: str(r) for name, r in kernel.items()} == {name: str(r) for name, r in old_path.items()}


# -- the bi-Hamiltonian identity ------------------------------------------------


def _plain_d_x(f):
    """D_x over u, v jets with no constraint."""
    out = sympy.diff(f, _X)
    for c in f.free_symbols:
        if (jet := _jet_of(c)) is not None:
            out += sympy.diff(f, c) * _jet(jet[0], jet[1] + 1)
    return out


def _euler(density, base: str):
    out = 0
    for k in range(chsym._EULER_TOP + 1):
        d = sympy.diff(density, _jet(base, k))
        for _ in range(k):
            d = _plain_d_x(d)
        out += (-1) ** k * d
    return out


def _oracle_bihamiltonian(density: Expr) -> tuple:
    uv = chsym.ch2_system().uv_system
    rho = _sympy(density)
    return -_euler(rho, "v") - _sympy(uv.F), _euler(rho, "u") - _sympy(uv.G)


def test_bihamiltonian_residuals_vanish_in_sympy():
    kernel = chsym.check_bihamiltonian_d1()
    oracle = _oracle_bihamiltonian(parse(_DENSITY))
    assert [r.is_zero() for r in kernel] == [_vanishes(r) for r in oracle] == [True, True]


def test_perturbed_density_fails_in_both(monkeypatch):
    rng = random.Random(4)
    delta = rng.choice((-2, -1, 1, 2)) * parse(rng.choice(("u^2*v", "u*v1^2", "u1^2*v^2")))
    density = parse(_DENSITY) + delta
    # check_bihamiltonian_d1 parses its density and nothing else
    monkeypatch.setattr(chsym, "parse", lambda text: parse(text) + delta)
    kernel = chsym.check_bihamiltonian_d1()
    oracle = _oracle_bihamiltonian(density)
    verdicts = [r.is_zero() for r in kernel]
    assert verdicts == [_vanishes(r) for r in oracle] and verdicts != [True, True]
