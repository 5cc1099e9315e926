"""Exact-arithmetic expression kernel over jet coordinates.

Expressions are canonical fractions of multivariate polynomials with rational
coefficients.  The variable universe consists of independent coordinates
(x, t, z), jet coordinates (u, u1, ..., v, v1, ..., and in "jets" mode also
m, m1, ..., n, n1, ...), dependent auxiliaries (phi1, phi2, phih1, phih2, p)
and named parameters (eta, delta, eps, u0, kk, theta, ...).  Exponential
factors exp(q * c), with q a polynomial in parameters and c a single
coordinate, are opaque atoms that merge by exponent addition.

Canonical form: numerator and denominator are fully expanded, share no
polynomial factor (gcd-reduced), exponential content is shifted so that the
minimal exponent multiple over both is zero, and the denominator is scaled to
a primitive integer polynomial whose leading coefficient (graded lexicographic
order, earlier atoms most significant) is positive.  Two special parameters
carry rewrite rules applied during normalization: i*i -> -1 and s*s -> 2.

Expressions are immutable after construction; normalization is pure, so
values can be shared freely across threads or processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

MAX_JET_ORDER = 12
EPS_DIV_DEFAULT = 1e-12

KIND_INDEP = "indep"
KIND_JET = "jet"
KIND_DEP = "dep"
KIND_PARAM = "param"


class KernelError(Exception):
    """Base class for kernel failures."""


class ParseError(KernelError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, token: str, offset: int):
        super().__init__(f"unknown identifier '{token}'", offset)
        self.token = token


class DivisionByZeroError(KernelError):
    pass


class CyclicBindingError(KernelError):
    pass


class UnboundCoordinateError(KernelError):
    def __init__(self, coord: "Coord"):
        super().__init__(f"unbound coordinate '{coord}'")
        self.coord = coord


class NearZeroDenominatorError(KernelError):
    def __init__(self, value: float):
        super().__init__(f"denominator evaluates to {value!r}, below the division threshold")
        self.value = value


class UnsupportedExponentError(KernelError):
    pass


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_JET_BASES = {"u": 0, "v": 1, "m": 2, "n": 3}
_DEP_NAMES = {"phi1": 0, "phi2": 1, "phih1": 2, "phih2": 3, "p": 4}
_INDEP_NAMES = {"x": 0, "t": 1, "z": 2}


@dataclass(frozen=True)
class Coord:
    """A coordinate atom, identified by (kind, name, order)."""

    kind: str
    name: str
    order: int = 0

    @functools.cached_property
    def key(self) -> tuple:
        if self.kind == KIND_INDEP:
            return (0, _INDEP_NAMES[self.name], 0)
        if self.kind == KIND_JET:
            return (1, _JET_BASES[self.name], self.order)
        if self.kind == KIND_DEP:
            return (2, _DEP_NAMES[self.name], 0)
        return (3, self.name, 0)

    def __str__(self) -> str:
        if self.kind == KIND_JET and self.order > 0:
            return f"{self.name}{self.order}"
        return self.name

    def __repr__(self) -> str:
        return f"Coord({self})"


_COORD_CACHE: dict[tuple, Coord] = {}


def _coord(kind: str, name: str, order: int = 0) -> Coord:
    key = (kind, name, order)
    c = _COORD_CACHE.get(key)
    if c is None:
        if kind == KIND_JET:
            if name not in _JET_BASES:
                raise KernelError(f"unknown jet base '{name}'")
            if not 0 <= order <= MAX_JET_ORDER:
                raise KernelError(f"jet order {order} outside [0, {MAX_JET_ORDER}]")
        elif order != 0:
            raise KernelError("only jet coordinates carry an order")
        c = Coord(kind, name, order)
        _COORD_CACHE[key] = c
    return c


def jet(base: str, order: int = 0) -> Coord:
    return _coord(KIND_JET, base, order)


def indep(name: str) -> Coord:
    return _coord(KIND_INDEP, name)


def param(name: str) -> Coord:
    return _coord(KIND_PARAM, name)


def dep(name: str) -> Coord:
    return _coord(KIND_DEP, name)


# Parameters with a power rewrite rule: atom**2 -> rational constant.
_REWRITES = {("param", "i"): Fraction(-1), ("param", "s"): Fraction(2)}


# exponent polynomials are stored as canonical item tuples:
#   ((monomial, coeff), ...) sorted by monomial
# where each monomial is a tuple of (Coord, power) pairs.

ExpItems = tuple


@dataclass(frozen=True)
class ExpAtom:
    """Opaque factor exp(e) with e = (polynomial in parameters) * coordinate."""

    items: ExpItems
    base: Coord = field(compare=False, hash=False)

    @functools.cached_property
    def key(self) -> tuple:
        return (4, self.base.key, tuple((_mono_sort_key(m), c) for m, c in self.items))

    def exponent(self) -> "Poly":
        return Poly(dict(self.items))

    def __str__(self) -> str:
        return f"exp({Poly(dict(self.items))})"

    def __repr__(self) -> str:
        return str(self)


def _mono_sort_key(mono) -> tuple:
    return tuple((a.key, p) for a, p in mono)


def _exp_atom(items_poly: "Poly") -> ExpAtom | None:
    """Build an ExpAtom from an exponent polynomial, validating its shape.

    Returns None for the zero exponent (the factor is 1).
    """
    if items_poly.is_zero():
        return None
    base = None
    for mono, _ in items_poly.terms.items():
        non_params = [(a, p) for a, p in mono if not (isinstance(a, Coord) and a.kind == KIND_PARAM)]
        if len(non_params) != 1 or non_params[0][1] != 1:
            raise UnsupportedExponentError(
                "exponent must be a polynomial in parameters times one coordinate"
            )
        a = non_params[0][0]
        if not isinstance(a, Coord) or a.kind not in (KIND_INDEP, KIND_JET):
            raise UnsupportedExponentError(
                "exponent base must be an independent or jet coordinate"
            )
        if base is None:
            base = a
        elif base != a:
            raise UnsupportedExponentError("exponent mentions more than one coordinate")
    items = tuple(sorted(items_poly.terms.items(), key=lambda kv: _mono_sort_key(kv[0])))
    return ExpAtom(items, base)


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (atom, power), atoms unique, powers >= 1,
# exponential atoms always at power 1 (their power folds into the exponent).

_ONE_MONO: tuple = ()


def _items_scale(items: ExpItems, k: int) -> dict:
    return {m: c * k for m, c in items}


def _normalize_monomial(pairs: Iterable[tuple]) -> tuple[Fraction, tuple]:
    """Combine repeated atoms, fold exponentials, apply parameter rewrites."""
    powers: dict = {}
    exp_accum: dict[Coord, dict] = {}
    for atom, power in pairs:
        if power == 0:
            continue
        if isinstance(atom, ExpAtom):
            acc = exp_accum.setdefault(atom.base, {})
            for m, c in _items_scale(atom.items, power).items():
                nc = acc.get(m, Fraction(0)) + c
                if nc:
                    acc[m] = nc
                else:
                    acc.pop(m, None)
        else:
            powers[atom] = powers.get(atom, 0) + power
    factor = Fraction(1)
    out = []
    for atom, power in powers.items():
        if power == 0:
            continue
        if power < 0:
            raise KernelError("negative coordinate power in monomial")
        rw = _REWRITES.get((atom.kind, atom.name)) if isinstance(atom, Coord) else None
        if rw is not None and power >= 2:
            factor *= rw ** (power // 2)
            power %= 2
            if power == 0:
                continue
        out.append((atom, power))
    for base, acc in exp_accum.items():
        if not acc:
            continue
        items = tuple(sorted(acc.items(), key=lambda kv: _mono_sort_key(kv[0])))
        out.append((ExpAtom(items, base), 1))
    out.sort(key=lambda ap: ap[0].key)
    return factor, tuple(out)


def _mono_mul(m1: tuple, m2: tuple) -> tuple[Fraction, tuple]:
    if not m1:
        return Fraction(1), m2
    if not m2:
        return Fraction(1), m1
    return _normalize_monomial(list(m1) + list(m2))


def _mono_degree(mono: tuple) -> int:
    return sum(p for _, p in mono)


def _mono_cmp(m1: tuple, m2: tuple) -> int:
    """Graded lexicographic order; atoms earlier in the fixed order are more
    significant."""
    d1, d2 = _mono_degree(m1), _mono_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, p1 = m1[i]
        a2, p2 = m2[j]
        if a1.key == a2.key:
            if p1 != p2:
                return 1 if p1 > p2 else -1
            i += 1
            j += 1
        elif a1.key < a2.key:
            return 1  # m1 has the more significant atom
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


_MONO_KEY = functools.cmp_to_key(_mono_cmp)


def _mono_divides(m1: tuple, m2: tuple) -> bool:
    """True when m1 divides m2 (exp atoms must match exactly)."""
    d2 = dict(m2)
    for a, p in m1:
        if d2.get(a, 0) < p:
            return False
    return True


def _mono_div(m2: tuple, m1: tuple) -> tuple:
    d2 = dict(m2)
    for a, p in m1:
        d2[a] -= p
        if d2[a] == 0:
            del d2[a]
    return tuple(sorted(d2.items(), key=lambda ap: ap[0].key))


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({_ONE_MONO: c} if c else {})

    @staticmethod
    def atom(a) -> "Poly":
        factor, mono = _normalize_monomial([(a, 1)])
        if not mono:
            return Poly.const(factor)
        return Poly({mono: factor})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[_ONE_MONO]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def add(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Poly(out)

    def neg(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                factor, mono = _mono_mul(m1, m2)
                nc = out.get(mono, Fraction(0)) + c1 * c2 * factor
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero()
        return Poly({m: k * c for m, k in self.terms.items()})

    def mul_mono(self, mono: tuple, coeff: Fraction = Fraction(1)) -> "Poly":
        out: dict = {}
        for m, c in self.terms.items():
            factor, nm = _mono_mul(m, mono)
            nc = out.get(nm, Fraction(0)) + c * coeff * factor
            if nc:
                out[nm] = nc
            else:
                out.pop(nm, None)
        return Poly(out)

    def pow(self, n: int) -> "Poly":
        if n < 0:
            raise KernelError("negative power on a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return result

    def diff(self, c: Coord) -> "Poly":
        out = Poly.zero()
        for mono, coeff in self.terms.items():
            for idx, (atom, power) in enumerate(mono):
                if isinstance(atom, Coord):
                    if atom != c:
                        continue
                    rest = mono[:idx] + ((atom, power - 1),) + mono[idx + 1 :]
                    factor, nm = _normalize_monomial(rest)
                    out = out.add(Poly({nm: coeff * power * factor} if coeff * power * factor else {}))
                else:
                    dexp = atom.exponent().diff(c)
                    if dexp.is_zero():
                        continue
                    out = out.add(dexp.mul_mono(mono, coeff))
        return out

    def atoms(self) -> set:
        out = set()
        for mono in self.terms:
            for a, _ in mono:
                out.add(a)
        return out

    def coords(self) -> set:
        """All Coord atoms, including those inside exponents."""
        out = set()
        for a in self.atoms():
            if isinstance(a, Coord):
                out.add(a)
            else:
                out.add(a.base)
                out |= a.exponent().coords()
        return out

    def leading(self) -> tuple[tuple, Fraction]:
        mono = max(self.terms, key=_MONO_KEY)
        return mono, self.terms[mono]

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficient numerators over lcm
        of denominators), signed by the leading coefficient."""
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        _, lead = self.leading()
        return -content if lead < 0 else content

    def eval(self, value_of: Callable) -> float:
        total = 0.0
        for mono, coeff in self.terms.items():
            term = float(coeff)
            for atom, power in mono:
                term *= value_of(atom) ** power
            total += term
        return total

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: _MONO_KEY(kv[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            atom_strs = []
            for atom, power in mono:
                a = str(atom)
                atom_strs.append(a if power == 1 else f"{a}^{power}")
            body = "*".join(atom_strs)
            mag = abs(coeff)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            if not parts:
                parts.append(chunk if coeff > 0 else f"-{chunk}")
            else:
                parts.append(f"+ {chunk}" if coeff > 0 else f"- {chunk}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# Polynomial division and gcd
# ---------------------------------------------------------------------------


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises KernelError when not divisible."""
    if b.is_zero():
        raise DivisionByZeroError("polynomial division by zero")
    if a.is_zero():
        return Poly.zero()
    if b.is_const():
        return a.scale(Fraction(1) / b.const_value())
    b_mono, b_coeff = b.leading()
    quo: dict = {}
    rem = a
    while not rem.is_zero():
        r_mono, r_coeff = rem.leading()
        if not _mono_divides(b_mono, r_mono):
            raise KernelError("polynomial division is not exact")
        q_mono = _mono_div(r_mono, b_mono)
        q_coeff = r_coeff / b_coeff
        quo[q_mono] = quo.get(q_mono, Fraction(0)) + q_coeff
        rem = rem.sub(b.mul(Poly({q_mono: q_coeff})))
    return Poly({m: c for m, c in quo.items() if c})


def _degree_in(p: Poly, atom) -> int:
    deg = 0
    for mono in p.terms:
        for a, pw in mono:
            if a == atom:
                deg = max(deg, pw)
    return deg


def _as_univariate(p: Poly, atom) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for mono, coeff in p.terms.items():
        deg = 0
        rest = []
        for a, pw in mono:
            if a == atom:
                deg = pw
            else:
                rest.append((a, pw))
        bucket = out.setdefault(deg, Poly.zero())
        out[deg] = bucket.add(Poly({tuple(rest): coeff}))
    return {d: q for d, q in out.items() if not q.is_zero()}


def _from_univariate(coeffs: dict[int, Poly], atom) -> Poly:
    out = Poly.zero()
    for deg, c in coeffs.items():
        if deg == 0:
            out = out.add(c)
        else:
            out = out.add(c.mul_mono(((atom, deg),)))
    return out


def _uni_degree(coeffs: dict[int, Poly]) -> int:
    return max(coeffs) if coeffs else -1


def _uni_scale(coeffs: dict[int, Poly], p: Poly) -> dict[int, Poly]:
    return {d: c.mul(p) for d, c in coeffs.items()}


def _uni_sub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(a)
    for d, c in b.items():
        nc = out.get(d, Poly.zero()).sub(c)
        if nc.is_zero():
            out.pop(d, None)
        else:
            out[d] = nc
    return out


def _uni_shift(coeffs: dict[int, Poly], k: int) -> dict[int, Poly]:
    return {d + k: c for d, c in coeffs.items()}


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    da, db = _uni_degree(a), _uni_degree(b)
    lead_b = b[db]
    r = a
    while (dr := _uni_degree(r)) >= db and dr >= 0:
        lead_r = r[dr]
        r = _uni_sub(_uni_scale(r, lead_b), _uni_shift(_uni_scale(b, lead_r), dr - db))
    return r


def _mono_content(p: Poly) -> tuple:
    """Largest monomial dividing every term."""
    common: dict | None = None
    for mono in p.terms:
        d = dict(mono)
        if common is None:
            common = d
        else:
            common = {a: min(pw, d[a]) for a, pw in common.items() if a in d}
        if not common:
            return _ONE_MONO
    return tuple(sorted((common or {}).items(), key=lambda ap: ap[0].key))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd, up to a rational unit.

    Exponential atoms are not free polynomial generators (their powers fold
    into the exponent), so once the common monomial part is stripped, any
    remaining exponential forces the conservative answer: only the monomial
    factor is cancelled.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    ma, mb = _mono_content(a), _mono_content(b)
    common: dict = {}
    db = dict(mb)
    for atom, pw in ma:
        if atom in db:
            common[atom] = min(pw, db[atom])
    common_mono = tuple(sorted(common.items(), key=lambda ap: ap[0].key))
    if len(a.terms) == 1 or len(b.terms) == 1:
        return Poly({common_mono: Fraction(1)})
    a = Poly({_mono_div(m, ma): c for m, c in a.terms.items()})
    b = Poly({_mono_div(m, mb): c for m, c in b.terms.items()})
    if any(
        isinstance(atom, ExpAtom) for p in (a, b) for atom in p.atoms()
    ):
        return Poly({common_mono: Fraction(1)})
    core = _gcd_primitive(a, b)
    if common_mono:
        core = core.mul_mono(common_mono)
    return core


def _gcd_primitive(a: Poly, b: Poly) -> Poly:
    if a.is_const() or b.is_const():
        return Poly.const(1)
    shared = sorted(a.atoms() & b.atoms(), key=lambda at: at.key)
    if not shared:
        return Poly.const(1)
    main = min(shared, key=lambda at: (min(_degree_in(a, at), _degree_in(b, at)), at.key))
    ua, ub = _as_univariate(a, main), _as_univariate(b, main)
    cont_a = _poly_gcd_list(list(ua.values()))
    cont_b = _poly_gcd_list(list(ub.values()))
    pa = {d: poly_exact_div(c, cont_a) for d, c in ua.items()}
    pb = {d: poly_exact_div(c, cont_b) for d, c in ub.items()}
    if _uni_degree(pa) < _uni_degree(pb):
        pa, pb = pb, pa
    while True:
        if _uni_degree(pb) < 0:
            g = pa
            break
        r = _pseudo_rem(pa, pb)
        if r:
            # primitive PRS: strip the content to keep coefficients small
            cont_r = _poly_gcd_list(list(r.values()))
            if not cont_r.is_const():
                r = {d: poly_exact_div(c, cont_r) for d, c in r.items()}
        pa, pb = pb, r
        if _uni_degree(pa) == 0:
            g = {0: Poly.const(1)}
            break
    cont_g = _poly_gcd_list(list(g.values()))
    gp = {d: poly_exact_div(c, cont_g) for d, c in g.items()}
    result = _from_univariate(gp, main)
    cont = poly_gcd(cont_a, cont_b)
    result = result.mul(cont)
    return result.scale(Fraction(1) / result.content())


def _poly_gcd_list(polys: list[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_const() and not g.is_zero():
            return Poly.const(1)
    return g.scale(Fraction(1) / g.content()) if not g.is_zero() else g


# ---------------------------------------------------------------------------
# Exponential content normalization
# ---------------------------------------------------------------------------


def _exp_ratio(items_a: ExpItems, items_b: ExpItems) -> Fraction | None:
    """q with a == q * b, or None."""
    if len(items_a) != len(items_b):
        return None
    da, db = dict(items_a), dict(items_b)
    q = None
    for m, cb in db.items():
        ca = da.get(m)
        if ca is None:
            return None
        r = ca / cb
        if q is None:
            q = r
        elif q != r:
            return None
    return q


@dataclass(frozen=True)
class _ExpVar:
    """Stand-in polynomial variable for integer powers of one exponential
    generator; used only inside fraction reduction (its powers do not fold).
    Its exponent generates the exponents of its base after the shift, so a
    reduced fraction delocalizes to the same atoms whatever its history."""

    base: Coord
    items: ExpItems

    @functools.cached_property
    def key(self) -> tuple:
        return (5, self.base.key, tuple((_mono_sort_key(m), c) for m, c in self.items))


def _localize_exps(num: Poly, den: Poly) -> tuple[Poly, Poly, bool]:
    """Shift exponential content per base coordinate and rewrite it as integer
    powers of one _ExpVar, so fraction reduction can treat it as ordinary
    polynomial atoms.

    A base is commensurate when its exponents are rational multiples of one
    generator, oriented so its leading coefficient is positive.  Each such base
    is shifted by its least power over numerator and denominator (a term
    without the base has power 0), which pins down a shift independent of
    construction history.  Returns (num, den, localized).  When some base is
    incommensurate, the shifted polynomials are delocalized at once and reduce
    on ExpAtoms.  When nothing needs a shift and either some base is
    incommensurate or the denominator is a single term, the localized form
    would not change the reduction, so the polynomials come back unconverted.
    """
    gens: dict[Coord, ExpItems] = {}
    ratios: dict[ExpAtom, Fraction | None] = {}
    for p in (num, den):
        for mono in p.terms:
            for a, _ in mono:
                if isinstance(a, ExpAtom) and a not in ratios:
                    gen = gens.get(a.base)
                    if gen is None:
                        gen = a.items
                        lead = max((m for m, _ in gen), key=_MONO_KEY)
                        if dict(gen)[lead] < 0:
                            gen = tuple((m, -c) for m, c in gen)
                        gens[a.base] = gen
                    ratios[a] = _exp_ratio(a.items, gen)
    if not gens:
        return num, den, False
    skew = {a.base for a, q in ratios.items() if q is None}
    scale = {base: 1 for base in gens if base not in skew}
    for a, q in ratios.items():
        if a.base in scale:
            scale[a.base] = math.lcm(scale[a.base], q.denominator)
    power = {a: int(q * scale[a.base]) for a, q in ratios.items() if a.base in scale}

    def powers(mono: tuple) -> dict:
        return {a.base: power[a] for a, _ in mono if isinstance(a, ExpAtom) and a in power}

    rows = [[(mono, c, powers(mono)) for mono, c in p.terms.items()] for p in (num, den)]
    low = {base: min(pw.get(base, 0) for rs in rows for _, _, pw in rs) for base in scale}
    if not any(low.values()) and (skew or len(den.terms) == 1):
        return num, den, False
    step = {
        base: math.gcd(*(pw.get(base, 0) - k for rs in rows for _, _, pw in rs)) or 1
        for base, k in low.items()
    }
    variables = {
        base: _ExpVar(base, tuple((m, c * step[base] / scale[base]) for m, c in gens[base]))
        for base in low
    }

    def convert(rs: list) -> Poly:
        out: dict = {}
        for mono, coeff, pw in rs:
            pairs = [(a, e) for a, e in mono if not (isinstance(a, ExpAtom) and a in power)]
            for base, var in variables.items():
                k = (pw.get(base, 0) - low[base]) // step[base]
                if k:
                    pairs.append((var, k))
            out[tuple(sorted(pairs, key=lambda ap: ap[0].key))] = coeff
        return Poly(out)

    num, den = convert(rows[0]), convert(rows[1])
    if skew:
        return _delocalize_exps(num), _delocalize_exps(den), False
    return num, den, True


def _delocalize_exps(p: Poly) -> Poly:
    out: dict = {}
    for mono, coeff in p.terms.items():
        pairs = []
        for a, pw in mono:
            if isinstance(a, _ExpVar):
                items = tuple((m, c * pw) for m, c in a.items)
                pairs.append((ExpAtom(items, a.base), 1))
            else:
                pairs.append((a, pw))
        factor, nm = _normalize_monomial(pairs)
        out[nm] = out.get(nm, Fraction(0)) + coeff * factor
    return Poly({m: c for m, c in out.items() if c})


def _reduce_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    try:
        return poly_exact_div(num, den), Poly.const(1)
    except KernelError:
        g = poly_gcd(num, den)
        if not g.is_const():
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
        return num, den


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Canonical rational expression: a reduced fraction of Polys."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _normalized: bool = False):
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise DivisionByZeroError("denominator normalizes to zero")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.const(1)
            return
        num, den, localized = _localize_exps(num, den)
        if not den.is_const():
            if len(den.terms) == 1:
                # monomial denominator: cancel the common monomial directly
                ma, mb = _mono_content(num), next(iter(den.terms))
                db = dict(mb)
                common = {
                    atom: min(pw, db[atom]) for atom, pw in ma if atom in db
                }
                if common:
                    g = tuple(sorted(common.items(), key=lambda ap: ap[0].key))
                    num = Poly({_mono_div(mo, g): c for mo, c in num.terms.items()})
                    den = Poly({_mono_div(mo, g): c for mo, c in den.terms.items()})
            else:
                num, den = _reduce_fraction(num, den)
        if localized:
            num, den = _delocalize_exps(num), _delocalize_exps(den)
        c = den.content()
        if c != 1:
            num = num.scale(Fraction(1) / c)
            den = den.scale(Fraction(1) / c)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Expr":
        return Expr(Poly.const(c), Poly.const(1), _normalized=True)

    @staticmethod
    def atom(a) -> "Expr":
        if isinstance(a, ExpAtom):
            return Expr(Poly.atom(a), Poly.const(1))
        return Expr(Poly.atom(a), Poly.const(1), _normalized=True)

    @staticmethod
    def exp(arg: "Expr") -> "Expr":
        if not arg.den.is_const():
            raise UnsupportedExponentError("exponent must be polynomial")
        poly = arg.num.scale(Fraction(1) / arg.den.const_value())
        atom = _exp_atom(poly)
        if atom is None:
            return Expr.const(1)
        return Expr.atom(atom)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Expr":
        if isinstance(v, Expr):
            return v
        if isinstance(v, (int, Fraction)):
            return Expr.const(v)
        if isinstance(v, (Coord, ExpAtom)):
            return Expr.atom(v)
        raise TypeError(f"cannot coerce {v!r} to Expr")

    def __add__(self, other) -> "Expr":
        other = Expr._coerce(other)
        num = self.num.mul(other.den).add(other.num.mul(self.den))
        return Expr(num, self.den.mul(other.den))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.num.neg(), self.den, _normalized=True)

    def __sub__(self, other) -> "Expr":
        return self + (-Expr._coerce(other))

    def __rsub__(self, other) -> "Expr":
        return Expr._coerce(other) - self

    def __mul__(self, other) -> "Expr":
        other = Expr._coerce(other)
        return Expr(self.num.mul(other.num), self.den.mul(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = Expr._coerce(other)
        if other.num.is_zero():
            raise DivisionByZeroError("division by zero expression")
        return Expr(self.num.mul(other.den), self.den.mul(other.num))

    def __rtruediv__(self, other) -> "Expr":
        return Expr._coerce(other) / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise KernelError("only integer exponents are supported")
        if n < 0:
            if self.num.is_zero():
                raise DivisionByZeroError("zero to a negative power")
            return Expr(self.den, self.num).__pow__(-n)
        return Expr(self.num.pow(n), self.den.pow(n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise KernelError("expression is not constant")
        return self.num.const_value() / self.den.const_value()

    def coords(self) -> set:
        return self.num.coords() | self.den.coords()

    # -- calculus ------------------------------------------------------------

    def diff(self, c: Coord) -> "Expr":
        return self.derive({c: ONE})

    def derive(self, images: Mapping[Coord, "Expr"]) -> "Expr":
        """Apply the derivation D = sum of images[c] * d/dc, reducing once.

        Every image is brought over B, the product of the distinct
        non-constant image denominators, so D(n/d) = (Dn*d - n*Dd) / (d^2*B)
        is assembled from polynomials and normalized in one construction.
        """
        n, d = self.num, self.den
        parts = []
        for c, image in images.items():
            dn, dd = n.diff(c), d.diff(c)
            if not image.is_zero() and not (dn.is_zero() and dd.is_zero()):
                parts.append((image, dn, dd))
        # a canonical constant denominator is 1, so only the others enter B
        dens: list[Poly] = []
        for image, _, _ in parts:
            if not image.den.is_const() and image.den not in dens:
                dens.append(image.den)
        Dn = Dd = Poly.zero()
        for image, dn, dd in parts:
            others = [q for q in dens if q != image.den]
            weight = functools.reduce(Poly.mul, others, image.num)
            Dn = Dn.add(weight.mul(dn))
            Dd = Dd.add(weight.mul(dd))
        common = functools.reduce(Poly.mul, dens, Poly.const(1))
        if d.is_const():
            return Expr(Dn, d.mul(common))
        return Expr(Dn.mul(d).sub(n.mul(Dd)), d.mul(d).mul(common))

    def substitute(self, bindings: Mapping[Coord, "Expr"]) -> "Expr":
        if not bindings:
            return self
        bindings = {c: Expr._coerce(v) for c, v in bindings.items()}
        bound = set(bindings)
        for image in bindings.values():
            if image.coords() & bound:
                raise CyclicBindingError("binding image mentions a bound coordinate")
        num = _subs_poly(self.num, bindings)
        den = _subs_poly(self.den, bindings)
        if den.is_zero():
            raise DivisionByZeroError("denominator normalizes to zero after substitution")
        return num / den

    def eval(self, point: Mapping[Coord, float]) -> float:
        def value_of(atom):
            if isinstance(atom, ExpAtom):
                return math.exp(atom.exponent().eval(value_of))
            if atom not in point:
                raise UnboundCoordinateError(atom)
            return float(point[atom])

        den = self.den.eval(value_of)
        if abs(den) <= EPS_DIV_DEFAULT:
            raise NearZeroDenominatorError(den)
        return self.num.eval(value_of) / den

    def __str__(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        return f"({num})/({den})"

    def __repr__(self) -> str:
        return f"Expr({self})"


def _subs_poly(p: Poly, bindings: Mapping[Coord, Expr]) -> Expr:
    total = Expr.const(0)
    for mono, coeff in p.terms.items():
        term = Expr.const(coeff)
        for atom, power in mono:
            if isinstance(atom, ExpAtom):
                exp_poly = atom.exponent()
                touched = exp_poly.coords() & set(bindings)
                if touched:
                    new_exp = _subs_poly(exp_poly, {c: bindings[c] for c in touched})
                    term = term * Expr.exp(new_exp) ** power
                else:
                    term = term * Expr.atom(atom) ** power
            else:
                term = term * bindings.get(atom, Expr.atom(atom)) ** power
        total = total + term
    return total


def compile_numeric(exprs: Iterable[Expr], coords: Iterable[Coord]) -> Callable[..., tuple]:
    """Compile expressions into one straight-line function.

    The function takes one float per coordinate, positionally in the order
    of `coords`, and returns the tuple of expression values.  The code
    repeats `Expr.eval` operation for operation (terms and factors in
    `Poly.eval` order, exponentials through `math.exp`, the denominator
    checked against EPS_DIV_DEFAULT before the division), so each value is
    bit-identical to `Expr.eval` at the same point.  An atom outside
    `coords` raises `UnboundCoordinateError` here, not at call time.
    """
    names = {c: f"a{i}" for i, c in enumerate(coords)}

    def factor(atom, power: int) -> str:
        if isinstance(atom, ExpAtom):
            base = f"_exp({poly(atom.exponent())})"
        elif atom in names:
            base = names[atom]
        else:
            raise UnboundCoordinateError(atom)
        return base if power == 1 else f"{base} ** {power}"

    def poly(p: Poly) -> str:
        terms = ["0.0"]
        for mono, coeff in p.terms.items():
            factors = [factor(atom, power) for atom, power in mono]
            if coeff != 1 or not factors:
                factors.insert(0, repr(float(coeff)))
            terms.append(" * ".join(factors))
        return " + ".join(terms)

    lines = [f"def _compiled({', '.join(names.values())}):"]
    results = []
    for i, e in enumerate(exprs):
        lines.append(f"    d{i} = {poly(e.den)}")
        lines.append(f"    if abs(d{i}) <= {EPS_DIV_DEFAULT!r}: raise _NearZero(d{i})")
        lines.append(f"    r{i} = ({poly(e.num)}) / d{i}")
        results.append(f"r{i}")
    lines.append(f"    return ({''.join(r + ', ' for r in results)})")
    namespace = {"_exp": math.exp, "_NearZero": NearZeroDenominatorError}
    exec("\n".join(lines), namespace)
    return namespace["_compiled"]


ZERO = Expr.const(0)
ONE = Expr.const(1)


# ---------------------------------------------------------------------------
# Named coordinates
# ---------------------------------------------------------------------------

x = indep("x")
t = indep("t")
z = indep("z")
eta = param("eta")
delta = param("delta")
eps = param("eps")
u0 = param("u0")
kk = param("kk")
theta = param("theta")
iunit = param("i")
sqrt2 = param("s")
phi1 = dep("phi1")
phi2 = dep("phi2")
phih1 = dep("phih1")
phih2 = dep("phih2")
p = dep("p")


def u(k: int = 0) -> Coord:
    return jet("u", k)


def v(k: int = 0) -> Coord:
    return jet("v", k)


def m(k: int = 0) -> Coord:
    return jet("m", k)


def n(k: int = 0) -> Coord:
    return jet("n", k)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_BASE_NAMES: dict[str, Coord] = {
    "x": x,
    "t": t,
    "z": z,
    "eta": eta,
    "delta": delta,
    "eps": eps,
    "u0": u0,
    "kk": kk,
    "theta": theta,
    "i": iunit,
    "s": sqrt2,
    "phi1": phi1,
    "phi2": phi2,
    "phih1": phih1,
    "phih2": phih2,
    "p": p,
}


def _identifier_expr(name: str, mn_mode: str, delta_value: int | None, offset: int) -> Expr:
    if name in _BASE_NAMES:
        if name == "delta" and delta_value is not None:
            return Expr.const(delta_value)
        return Expr.atom(_BASE_NAMES[name])
    if name in ("u", "v") or (
        len(name) >= 2 and name[0] in "uv" and name[1:].isdigit()
    ):
        base = name[0]
        order = int(name[1:]) if len(name) > 1 else 0
        if not 1 <= order <= MAX_JET_ORDER and len(name) > 1:
            raise UnknownIdentifierError(name, offset)
        return Expr.atom(jet(base, order))
    if name in ("m", "n") or (
        len(name) >= 2 and name[0] in "mn" and name[1:].isdigit()
    ):
        base = name[0]
        order = int(name[1:]) if len(name) > 1 else 0
        if not 1 <= order <= MAX_JET_ORDER and len(name) > 1:
            raise UnknownIdentifierError(name, offset)
        if mn_mode == "jets":
            return Expr.atom(jet(base, order))
        if order > 0:
            raise UnknownIdentifierError(name, offset)
        src = "u" if base == "m" else "v"
        return Expr.atom(jet(src, 0)) - Expr.atom(jet(src, 2))
    raise UnknownIdentifierError(name, offset)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_ident(self) -> tuple[str, int] | None:
        self.skip_ws()
        start = self.pos
        if start < len(self.text) and self.text[start].isalpha():
            end = start + 1
            while end < len(self.text) and (self.text[end].isalnum()):
                end += 1
            self.pos = end
            return self.text[start:end], start
        return None

    def take_int(self) -> int | None:
        self.skip_ws()
        start = self.pos
        if start < len(self.text) and self.text[start].isdigit():
            end = start
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            self.pos = end
            return int(self.text[start:end])
        return None

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return
        raise ParseError(f"expected '{ch}'", self.pos)


def parse(text: str, mn_mode: str = "alias", delta_value: int | None = None) -> Expr:
    """Parse an expression.  mn_mode: "alias" expands m, n to u - u2, v - v2;
    "jets" treats m, n as first-class jet symbols."""
    toks = _Tokens(text)

    def parse_expr() -> Expr:
        node = parse_term()
        while True:
            c = toks.peek()
            if c == "+":
                toks.pos += 1
                node = node + parse_term()
            elif c == "-":
                toks.pos += 1
                node = node - parse_term()
            else:
                return node

    def parse_term() -> Expr:
        node = parse_factor()
        while True:
            c = toks.peek()
            if c == "*":
                toks.pos += 1
                node = node * parse_factor()
            elif c == "/":
                toks.pos += 1
                rhs = parse_factor()
                if rhs.is_zero():
                    raise DivisionByZeroError("division by zero expression")
                node = node / rhs
            else:
                return node

    def parse_factor() -> Expr:
        c = toks.peek()
        if c == "-":
            toks.pos += 1
            return -parse_factor()
        if c == "+":
            toks.pos += 1
            return parse_factor()
        return parse_power()

    def parse_power() -> Expr:
        base = parse_atom()
        if toks.peek() == "^":
            toks.pos += 1
            expn = parse_int_exponent()
            return base**expn
        return base

    def parse_int_exponent() -> int:
        c = toks.peek()
        if c == "(":
            toks.pos += 1
            val = parse_int_exponent()
            toks.expect(")")
            return val
        sign = 1
        if c == "-":
            toks.pos += 1
            sign = -1
        elif c == "+":
            toks.pos += 1
        val = toks.take_int()
        if val is None:
            raise ParseError("expected integer exponent", toks.pos)
        return sign * val

    def parse_atom() -> Expr:
        c = toks.peek()
        if c == "(":
            toks.pos += 1
            node = parse_expr()
            toks.expect(")")
            return node
        if c.isdigit():
            return Expr.const(toks.take_int())
        ident = toks.take_ident()
        if ident is None:
            raise ParseError("expected expression", toks.pos)
        name, start = ident
        if name == "exp":
            toks.expect("(")
            arg = parse_expr()
            toks.expect(")")
            return Expr.exp(arg)
        return _identifier_expr(name, mn_mode, delta_value, start)

    result = parse_expr()
    toks.skip_ws()
    if toks.pos != len(toks.text):
        raise ParseError("unexpected trailing input", toks.pos)
    return result
