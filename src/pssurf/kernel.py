"""Exact-arithmetic expression kernel over jet coordinates.

Expressions are canonical fractions of multivariate polynomials with rational
coefficients.  The variable universe consists of independent coordinates
(x, t, z), jet coordinates (u, u1, ..., v, v1, ..., and in "jets" mode also
m, m1, ..., n, n1, ...), dependent auxiliaries (phi1, phi2, phih1, phih2, p)
and named parameters (eta, delta, eps, u0, kk, theta, ...), and exponentials
exp(q * c), with q a polynomial in parameters and c a single coordinate.

Representation: a polynomial is int coefficients over one positive int
`den` in lowest terms (zero over 1), exponents included; a Fraction appears
only at the API edge.  Parsing (each product, quotient and the result),
powers and printing hold a number to MAX_DIGITS digits; parsing refuses a
product or sum whose operands could make more than MAX_TERMS terms.  Atoms
are interned and compare and hash by identity.  A monomial is one int with a
9-bit field per atom: 8 exponent bits and a guard bit.  A product is
`m1 + m2`; one mask test (the guard bits and bit 1 of the `i` and `s`
fields, which hold 0 or 1) sends it to the slow path, which applies the
rewrites and rejects a coordinate or parameter power above MAX_EXPONENT.
Each base's exponentials are integer powers of basis atoms exp(b_j * c);
printing, the term order, evaluation, substitution into exponents and
pickles see the exponential exp(sum p_j b_j c) they stand for, which a
product whose basis power passes the bound holds instead.
Terms are ordered graded lexicographically, atoms with a smaller key most
significant; division orders them with each basis atom as a variable.

Canonical form: numerator and denominator are fully expanded and share no
polynomial factor (gcd-reduced); the basis of each base's exponentials is
the Hermite normal form of the lattice the differences of their exponents
span, and each basis power's least value over both is 0; the denominator is
a primitive integer polynomial whose leading coefficient is positive.  Two
special parameters carry rewrite rules, applied in the product and nowhere
else: i*i -> -1 and s*s -> 2.  The gcd first splits off the atoms that
occur in one operand only: it is the gcd of the operands' coefficients, as
polynomials in the shared atoms, of their monomials in the one-sided ones.
Operands with equal atom sets go to GCDHEU on integer polynomials over
exponent tuples, with a primitive PRS on the same polynomials as the
fallback; all of these take `i`, `s` and the basis exponentials, which are
algebraically independent, as free atoms, so the reduced form does not
depend on which path finished, and a factor they find divides exactly under
the rewrites.  Arithmetic whose result is reduced by construction skips the
gcd: sums and products over 1, adding zero, the first power, and scaling by
a nonzero constant.

Expressions are immutable after construction; normalization is pure, so
values can be shared freely across threads or processes (a pickle carries
each monomial as (atom, power) pairs, and unpickling re-interns the atoms).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

MAX_JET_ORDER = 12
MAX_EXPONENT = 255
MAX_TERMS = 10_000
MAX_DIGITS = 300
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


class BoundError(KernelError):
    """A monomial exponent above MAX_EXPONENT, a power that may expand to
    more than MAX_TERMS terms, or a coefficient with more than MAX_DIGITS
    digits in its numerator or denominator.  Below that bound a coefficient
    converts to a finite float and prints far inside the interpreter's
    limit on int-to-string conversion."""


class DomainError(ValueError):
    """Parameter or state outside the validity domain of a closed form.
    Defined here, away from the numeric modules, so that the CLI can catch
    it without importing numpy."""


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_JET_BASES = {"u": 0, "v": 1, "m": 2, "n": 3}
_DEP_NAMES = {"phi1": 0, "phi2": 1, "phih1": 2, "phih2": 3, "p": 4}
_INDEP_NAMES = {"x": 0, "t": 1, "z": 2}
_KINDS = {KIND_INDEP: (0, _INDEP_NAMES), KIND_JET: (1, _JET_BASES),
          KIND_DEP: (2, _DEP_NAMES), KIND_PARAM: (3, None)}


@dataclass(frozen=True, eq=False)
class Coord:
    """A coordinate atom, identified by (kind, name, order); built only by `_coord`."""

    kind: str
    name: str
    order: int = 0

    def __post_init__(self):
        rank, names = _KINDS[self.kind]
        key = (rank, names[self.name] if names else self.name, self.order)
        object.__setattr__(self, "key", key)

    def __reduce__(self):
        return _coord, (self.kind, self.name, self.order)

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
_REWRITES = {param("i"): -1, param("s"): 2}


class ExpAtom:
    """The factor exp(e) with e = (polynomial in parameters) * coordinate,
    held with its terms in `_mono_sort_key` order and equal when the
    exponents are.  In a canonical expression it is a basis atom, exp(b * c)
    for one vector b of a basis of its base c's lattice, and its field holds
    an integer power like any other atom (see `_on_lattice`); printing and
    evaluation see the exponential the powers stand for."""

    def __init__(self, exponent: "Poly", base: Coord):
        self.exponent = exponent
        self.base = base
        self._hash = hash(exponent)

    @functools.cached_property
    def key(self) -> tuple:
        den = self.exponent.den
        return (4, self.base.key, tuple((_mono_sort_key(m), c if den == 1 else Fraction(c, den))
                                        for m, c in self.exponent.terms.items()))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, ExpAtom) and self.exponent == other.exponent)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return _exp_atom, (self.exponent,)

    @functools.cached_property
    def positive(self) -> bool:
        """Whether the exponent's `_mono_order`-leading coefficient is positive."""
        return self.exponent.leading()[1] > 0

    def __str__(self) -> str:
        return f"exp({self.exponent})"

    __repr__ = __str__


def _mono_sort_key(mono: int) -> tuple:
    return tuple((a.key, p) for a, p in _pairs(mono))


def _exp_atom(exponent: "Poly") -> ExpAtom | None:
    """Build an ExpAtom from an exponent polynomial, validating its shape.

    Returns None for the zero exponent (the factor is 1).
    """
    if exponent.is_zero():
        return None
    base = None
    for mono in exponent.terms:
        non_params = [(a, p) for a, p in _pairs(mono) if not (isinstance(a, Coord) and a.kind == KIND_PARAM)]
        if len(non_params) != 1 or non_params[0][1] != 1:
            msg = "exponent must be a polynomial in parameters times one coordinate"
            raise UnsupportedExponentError(msg)
        a = non_params[0][0]
        if not isinstance(a, Coord) or a.kind not in (KIND_INDEP, KIND_JET):
            raise UnsupportedExponentError("exponent base must be an independent or jet coordinate")
        if base is None:
            base = a
        elif base != a:
            raise UnsupportedExponentError("exponent mentions more than one coordinate")
    terms = sorted(exponent.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))
    return ExpAtom(_reduced(dict(terms), exponent.den), base)


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

# A monomial is an int of 9-bit fields, one per interned atom in `_ATOMS`:
# exponent bits 0-7 and guard bit 8, clear in every stored monomial.  The
# `i` and `s` fields come first and hold 0 or 1; the named coordinates
# follow, so a monomial of coordinates stays a short int however many
# exponentials are interned later.

_FIELD = 9

_ATOMS: list = []        # field index -> atom
_SHIFTS: dict = {}       # atom -> bit offset of its field
_GUARDS = 0              # the guard bit of every field
_EXPS = 0                # the exponent bits of every exponential's field
_INTERN = threading.Lock()
_MONO_CACHE = 1 << 16

_ONE_MONO = 0


def _shift(atom) -> int:
    """The bit offset of the atom's field, giving it the next field on first
    use; equal exponentials share one."""
    sh = _SHIFTS.get(atom)
    if sh is None:
        global _GUARDS, _EXPS
        with _INTERN:
            sh = _SHIFTS.get(atom)
            if sh is None:
                sh = _FIELD * len(_ATOMS)
                _ATOMS.append(atom)
                _GUARDS |= 0x100 << sh
                _EXPS |= (0xFF if isinstance(atom, ExpAtom) else 0) << sh
                _SHIFTS[atom] = sh
    return sh


# (bit offset, value of the square) of the rewritten parameters, and bit 1
# of their fields
_REWRITE_FIELDS = tuple((_shift(a), sq) for a, sq in _REWRITES.items())
_SQUARES = sum(2 << sh for sh, _ in _REWRITE_FIELDS)
_S_SHIFT = _SHIFTS[param("s")]
_DIGITS_LIMIT = 10 ** MAX_DIGITS


def _pack(pairs: Iterable) -> int:
    """The monomial of (atom, power) pairs with distinct atoms."""
    mono = 0
    for a, p in pairs:
        if p > MAX_EXPONENT:
            raise BoundError(f"exponent {p} of {a} exceeds {MAX_EXPONENT}")
        mono += p << _shift(a)
    return mono


@functools.lru_cache(maxsize=_MONO_CACHE)
def _decode(mono: int) -> tuple[tuple, tuple]:
    """(`_order`, (atom, power) pairs in atom key order) of a monomial, with
    each basis atom as a plain variable."""
    fields = ((a, mono >> sh & 0xFF) for a, sh in zip(_ATOMS, range(0, mono.bit_length(), _FIELD)))
    pairs = tuple(sorted(((a, p) for a, p in fields if p), key=lambda ap: ap[0].key))
    return _order(pairs), pairs


def _order(pairs: Iterable) -> tuple:
    """The graded lex sort key of (atom, power) pairs in atom key order,
    greatest first: (-degree, key1, -power1, ..., _LAST), where _LAST sorts
    after every key, so a longer prefix comes first."""
    return (-sum(p for _, p in pairs), *(k for a, p in pairs for k in (a.key, -p)), _LAST)


_LAST = (9,)


@functools.lru_cache(maxsize=_MONO_CACHE)
def _standing(mono: int) -> tuple[tuple, tuple]:
    """(sort key, pairs) of the monomial a monomial with exponentials stands
    for: each base's basis powers fold into one exponential of power 1."""
    pairs = [(a, p) for a, p in _pairs(mono) if not isinstance(a, ExpAtom)] + _folded(mono)
    pairs.sort(key=lambda ap: ap[0].key)
    return _order(pairs), tuple(pairs)


def _folded(*monos: int) -> list:
    """(exp(e), 1) pairs, one per base: the exponential that the basis
    powers of that base in all the monomials together stand for."""
    exps: dict = {}
    for mono in monos:
        for a, p in _pairs(mono):
            if isinstance(a, ExpAtom):
                exps.setdefault(a.base, []).append(a.exponent.scale(p, 1))
    return [(e, 1) for e in (_exp_atom(functools.reduce(Poly.add, ps)) for ps in exps.values()) if e]


def _mono_order(mono: int) -> tuple:
    """The term order, for printing and the leading coefficient: graded lex
    on what the monomial stands for."""
    return _standing(mono)[0] if mono & _EXPS else _decode(mono)[0]


def _div_order(mono: int) -> tuple:
    """The division order, a monomial order: basis atoms are variables."""
    return _decode(mono)[0]


def _pairs(mono: int) -> tuple:
    return _decode(mono)[1]


def _factors(mono: int) -> tuple:
    """The (atom, power) pairs that printing, evaluation and substitution
    see: each base's exponentials folded into one."""
    return _standing(mono)[1] if mono & _EXPS else _decode(mono)[1]


def _mono_min(m1: int, m2: int) -> int:
    """The field-wise minimum: the largest monomial dividing both."""
    guards = _GUARDS
    ge = ((m1 | guards) - m2) & guards  # the guard bits where m1 >= m2
    return m1 ^ ((m1 ^ m2) & (ge - (ge >> 8)))


def _mono_quo(m1: int, m2: int) -> int | None:
    """m1 / m2, or None when m2 does not divide m1."""
    guards = _GUARDS
    q = (m1 | guards) - m2
    return q ^ guards if q & guards == guards else None


def _mono_times(m1: int, m2: int) -> tuple[int, int]:
    """(rational factor, monomial) of m1 * m2: rewrites i*i and s*s, and
    when exponential fields pass the bound, folds each base's exponentials
    into the one they stand for; any other exponent past the bound raises.
    `Poly.mul` calls it only for a sum that its mask test flags."""
    m = m1 + m2
    if over := m & _GUARDS:
        if over & ~(_EXPS << 1):
            powers = dict(_pairs(m1))
            a, p = max(((a, p + powers.get(a, 0)) for a, p in _pairs(m2 & ~_EXPS)), key=lambda ap: ap[1])
            raise BoundError(f"exponent {p} of {a} exceeds {MAX_EXPONENT}")
        m = (m ^ over) & ~_EXPS | _pack(_folded(m1, m2))
    factor = 1
    for sh, sq in _REWRITE_FIELDS:
        if m >> sh & 2:
            m -= 2 << sh
            factor *= sq
    return factor, m


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Multivariate polynomial {packed monomial: int} / den, in lowest terms:
    gcd(den, every coefficient) = 1.  `eval` and `compile_numeric` sum terms
    in insertion order, so every operation keeps the term order of the plain
    term-by-term loop on rationals it stands for; a partial sum scaled by a
    positive int is zero exactly when the rational one is.  A pickle carries
    `den` and each monomial as (atom, power) pairs.

    A Poly is never mutated after construction, so values are shared: `mul`
    by the constant 1 returns the other operand itself.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        self.terms = terms
        self.den = den

    def __reduce__(self):
        return _unpickle_poly, (tuple((_pairs(m), c) for m, c in self.terms.items()), self.den)

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        c = c if c.__class__ is int else Fraction(c)
        return Poly({_ONE_MONO: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def atom(a) -> "Poly":
        return Poly({1 << _shift(a): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def const_value(self) -> int | Fraction:
        c = self.terms.get(_ONE_MONO, 0)
        return c if self.den == 1 else Fraction(c, self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def add(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        return _reduced(out, _add_into(out, self.den, other.terms, other.den))

    def neg(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.den)

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        if other.is_const():
            self, other = other, self
        if self.is_const():
            if not self.terms:
                return self
            c = self.terms[_ONE_MONO]
            return other if c == 1 == self.den else other.scale(c, self.den)
        out: dict = {}
        flag = _GUARDS | _SQUARES
        b = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in b:
                mono = m1 + m2
                if mono & flag:
                    factor, mono = _mono_times(m1, m2)
                    c2 *= factor
                nc = out.get(mono, 0) + c1 * c2
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return _reduced(out, self.den * other.den)

    def scale(self, p: int, q: int) -> "Poly":
        """self * p / q for nonzero ints p and q."""
        if q < 0:
            p, q = -p, -q
        return _reduced({m: c * p for m, c in self.terms.items()}, self.den * q)

    def divide(self, c) -> "Poly":
        """self / c for a nonzero rational c."""
        return self.scale(c.denominator, c.numerator)

    def pow(self, n: int) -> "Poly":
        """self ** n by repeated squaring, raising BoundError before anything
        is expanded when the power may pass a bound: k terms may make
        C(k + n - 1, n) terms, an atom's largest power p makes p * n (`i`
        and `s` do not grow, nor do one term's exponentials, which rise in
        one step and fold once), and with coefficients a_j / d in lowest
        common terms a coefficient's numerator is at most
        (w * sum |a_j|) ** n and its denominator d ** n, where w = 2 when a
        term holds `s` (|s| < 2 covers s*s -> 2) and 1 otherwise."""
        if n < 0:
            raise KernelError("negative power on a polynomial")
        terms = self.terms
        if n > 1:
            if math.comb(len(terms) + n - 1, n) > MAX_TERMS:
                raise BoundError(f"a power {n} of {len(terms)} terms may exceed {MAX_TERMS} terms")
            # a field of the union of the monomials is at least each power
            union = functools.reduce(operator.or_, terms, 0) & ~(_EXPS if len(terms) == 1 else 0)
            for a, p in _pairs(union):
                if p * n > MAX_EXPONENT and a not in _REWRITES:
                    sh = _SHIFTS[a]
                    if (top := n * max(m >> sh & 0xFF for m in terms)) > MAX_EXPONENT:
                        raise BoundError(f"exponent {top} of {a} exceeds {MAX_EXPONENT}")
            size = sum(map(abs, terms.values())) << (union >> _S_SHIFT & 1)
            if n * math.log10(max(size, self.den)) > MAX_DIGITS:
                raise BoundError(f"a power {n} may have coefficients of more than {MAX_DIGITS} digits")
            if len(terms) == 1 and (exps := (mono := next(iter(terms))) & _EXPS):
                # one term's exponentials rise in one step, folded once when
                # a power passes the bound
                if max(p for _, p in _pairs(exps)) * n > MAX_EXPONENT:
                    exps = _pack((_exp_atom(a.exponent.scale(n, 1)), 1) for a, _ in _folded(exps))
                else:
                    exps *= n
                return Poly({mono & ~_EXPS: terms[mono]}, self.den).pow(n).mul(Poly({exps: 1}))
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return result

    def diff(self, c: Coord) -> "Poly":
        # a coordinate sorts before every exponential, so its term goes first
        out: dict = {}
        den = self.den
        sh = _SHIFTS.get(c)
        exps = _EXPS
        for mono, coeff in self.terms.items():
            if sh is not None and (power := mono >> sh & 0xFF):
                den = _add_into(out, den, {mono - (1 << sh): coeff * power}, self.den)
            if mono & exps:
                for atom, power in _pairs(mono):
                    if isinstance(atom, ExpAtom):
                        term = atom.exponent.diff(c).mul(Poly({mono: coeff * power}, self.den))
                        den = _add_into(out, den, term.terms, term.den)
        return _reduced(out, den)

    def coefficient(self, c: Coord, k: int) -> "Poly":
        """The coefficient of c**k, for a coordinate c outside every exponential."""
        sh = _shift(c)
        return _reduced({m - (k << sh): v for m, v in self.terms.items() if m >> sh & 0xFF == k}, self.den)

    def atoms(self) -> set:
        # a field is nonzero in the union of the monomials where it is in one
        return {a for a, _ in _pairs(functools.reduce(operator.or_, self.terms, 0))}

    def coords(self) -> set:
        """All Coord atoms, including those inside exponents (an exponent
        holds its base)."""
        out = set()
        for a in self.atoms():
            out |= {a} if isinstance(a, Coord) else a.exponent.coords()
        return out

    def leading(self) -> tuple[int, int]:
        """(monomial, int coefficient over `den`) of the leading term."""
        mono = min(self.terms, key=_mono_order)
        return mono, self.terms[mono]

    def content(self) -> tuple[int, int]:
        """(p, q) with p / q the rational content in lowest terms: the gcd of
        the coefficients over `den`, signed by the leading coefficient."""
        g = math.gcd(*self.terms.values())
        return (-g if self.leading()[1] < 0 else g), self.den

    def eval(self, value_of: Callable) -> float:
        # int true division is correctly rounded, as float(Fraction) is
        total = 0.0
        den = self.den
        for mono, coeff in self.terms.items():
            term = coeff / den
            for atom, power in _factors(mono):
                term *= value_of(atom) ** power
            total += term
        return total

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: _mono_order(kv[0]))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            atom_strs = []
            for atom, power in _factors(mono):
                a = str(atom)
                atom_strs.append(a if power == 1 else f"{a}^{power}")
            body = "*".join(atom_strs)
            num, d = _held(coeff, self.den)
            mag = str(num) if d == 1 else f"{num}/{d}"
            if not body:
                chunk = mag
            elif mag == "1":
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


def _reduced(terms: dict, den: int) -> Poly:
    """The Poly terms / den in lowest terms, in the order of `terms`."""
    if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
        terms = {m: c // g for m, c in terms.items()}
        den //= g
    return Poly(terms, den)


def _add_into(out: dict, den: int, terms: dict, tden: int) -> int:
    """Add terms / tden into out / den in place, in their order: a new
    monomial goes last and a cancelled one leaves.  Returns the common
    denominator that `out` is now over, not reduced."""
    common = math.lcm(den, tden)
    if common != den:
        for m in out:
            out[m] *= common // den
    k = common // tden
    for m, c in terms.items():
        if nc := out.get(m, 0) + c * k:
            out[m] = nc
        else:
            del out[m]
    return common


def _held(c: int, den: int) -> tuple[int, int]:
    """(|numerator|, denominator) of c / den in lowest terms; BoundError when
    either has more than MAX_DIGITS digits."""
    g = math.gcd(c, den)
    num, d = abs(c) // g, den // g
    if num >= _DIGITS_LIMIT or d >= _DIGITS_LIMIT:
        raise BoundError(f"a coefficient has more than {MAX_DIGITS} digits")
    return num, d


def _unpickle_poly(items: tuple, den: int) -> Poly:
    return Poly({_pack(pairs): c for pairs, c in items}, den)


_POLY_ONE = Poly.const(1)


# ---------------------------------------------------------------------------
# Polynomial division and gcd
# ---------------------------------------------------------------------------


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises KernelError when not divisible."""
    if (quo := _poly_div(a, b)) is None:
        raise KernelError("polynomial division is not exact")
    return quo


def _poly_div(a: Poly, b: Poly) -> Poly | None:
    """a / b under the rewrites by leading terms in `_div_order`; None when
    that leaves a remainder.  On a's and b's ints A and B, A * d = B * quo +
    rem, scaled by the part of b's leading coefficient that a quotient term
    lacks.  The remainder's leading monomial comes from a heap of (order,
    monomial) entries: a monomial is pushed only when not queued, so no two
    entries tie, and one that has cancelled is dropped when it surfaces."""
    if b.is_zero():
        raise DivisionByZeroError("polynomial division by zero")
    if a.is_zero():
        return Poly.zero()
    if len(b.terms) == 1:
        ((b_mono, b_coeff),) = b.terms.items()
        quo = {}
        for m, c in a.terms.items():
            if (q_mono := _mono_quo(m, b_mono)) is None:
                return None
            quo[q_mono] = c
        quo = Poly(quo, a.den)
        return quo if b_coeff == b.den else quo.scale(b.den, b_coeff)
    b_mono = min(b.terms, key=_div_order)
    b_coeff = b.terms[b_mono]
    tail = [(m, c) for m, c in b.terms.items() if m != b_mono]
    quo: dict = {}
    rem = dict(a.terms)
    d = 1
    heap = [(_div_order(m), m) for m in rem]
    heapq.heapify(heap)
    queued = set(rem)
    while rem:
        r_mono = heapq.heappop(heap)[1]
        queued.remove(r_mono)
        if (r_coeff := rem.pop(r_mono, None)) is None:
            continue
        if (q_mono := _mono_quo(r_mono, b_mono)) is None:
            return None
        if (k := abs(b_coeff) // math.gcd(r_coeff, b_coeff)) != 1:
            rem, quo = ({m: c * k for m, c in part.items()} for part in (rem, quo))
            r_coeff, d = r_coeff * k, d * k
        q_coeff = r_coeff // b_coeff
        quo[q_mono] = quo.get(q_mono, 0) + q_coeff
        for m, c in tail:
            if (m + q_mono) & _GUARDS:  # b times an exact quotient has no exponent above a's
                return None
            factor, mono = _mono_times(m, q_mono)
            if nc := rem.get(mono, 0) - q_coeff * c * factor:
                rem[mono] = nc
                if mono not in queued:
                    queued.add(mono)
                    heapq.heappush(heap, (_div_order(mono), mono))
            else:
                del rem[mono]
    return _reduced({m: c * b.den for m, c in quo.items() if c}, d * a.den)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd, up to a rational unit, with `i`, `s` and each basis
    exponential as free atoms, scaled to a positive `_mono_order`-leading
    coefficient.  Exponentials along Q-independent directions are
    algebraically independent, so the basis atoms of one lattice are free
    polynomial generators and the gcd over them is exact.

    A common factor h holds only atoms that occur in both operands.  Over
    Z[shared atoms] the monomials in the other atoms are linearly
    independent, so h divides a exactly when it divides each of a's parts:
    the coefficients, polynomials in the shared atoms, of each monomial in
    a's one-sided atoms.  So the gcd is the gcd of all the parts of a and b,
    and only operands with equal atom sets reach the integer polynomials:
    GCDHEU, with the primitive PRS as the fallback when no evaluation point
    gives a gcd.
    """
    return _gcd(a, b)


def _gcd(a: Poly, b: Poly) -> Poly:
    """`poly_gcd`, recursing on itself, so that a reduction enters the public
    name once."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    ma, mb = (functools.reduce(_mono_min, p.terms) for p in (a, b))
    common_mono = _mono_min(ma, mb)
    if len(a.terms) == 1 or len(b.terms) == 1:
        return Poly({common_mono: 1})
    a = Poly({m - ma: c for m, c in a.terms.items()}, a.den)
    b = Poly({m - mb: c for m, c in b.terms.items()}, b.den)
    atoms_a, atoms_b = a.atoms(), b.atoms()
    shared = atoms_a & atoms_b
    if not shared:
        return Poly({common_mono: 1})
    if atoms_a != atoms_b:
        # group each operand's terms by their fields of one-sided atoms; a
        # group's part keeps the shared fields of its terms
        mask = sum(0xFF << _SHIFTS[at] for at in shared)
        parts: list = []
        for p in (a, b):
            side: dict = {}
            for m, c in p.terms.items():
                side.setdefault(m & ~mask, {})[m & mask] = c
            parts += (_reduced(terms, p.den) for terms in side.values())
        core, *rest = sorted(parts, key=lambda q: len(q.terms))
        for p in rest:
            if core.is_const():
                break
            core = _gcd(core, p)
    else:
        atoms = sorted(atoms_a, key=lambda at: at.key)
        index = {at: k for k, at in enumerate(atoms)}
        h = _int_gcd(_to_int_poly(a, index), _to_int_poly(b, index))
        core = Poly({_pack((atoms[k], e) for k, e in enumerate(m)): c for m, c in h.items()})
    g, _ = core.content()
    core = Poly({m: c // g for m, c in core.terms.items()})
    return core.mul(Poly({common_mono: 1})) if common_mono else core


# GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput. 1989) on integer
# polynomials {exponent tuple: int}, one variable at a time as in
# sympy/polys/heuristicgcd.py.  The evaluation point keeps the bound of Liao
# and Fateman (ISSAC 1995) under which a gcd that divides both operands is
# the gcd, so the trial division is conclusive.

_HEU_ATTEMPTS = 6


def _to_int_poly(p: Poly, index: dict) -> dict:
    """p times its `den`, over exponent tuples by `index`."""
    out = {}
    for mono, c in p.terms.items():
        e = [0] * len(index)
        for at, pw in _pairs(mono):
            e[index[at]] = pw
        out[tuple(e)] = c
    return out


def _int_gcd(f: dict, g: dict) -> dict:
    """gcd of nonzero integer polynomials f, g up to sign: GCDHEU, and the
    primitive PRS when every evaluation point fails."""
    return _heu_gcd(f, g) or _prs_gcd(f, g)


def _heu_gcd(f: dict, g: dict) -> dict | None:
    """gcd of nonzero integer polynomials f, g up to sign; None when every
    evaluation point fails.  Constants (no variables left) take math.gcd."""
    if () in f:
        return {(): math.gcd(f[()], g[()])}
    cont = math.gcd(*f.values(), *g.values())
    f, g = ({m: c // cont for m, c in p.items()} for p in (f, g))
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * math.isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(_HEU_ATTEMPTS):
        ff, gg = _heu_eval(f, x), _heu_eval(g, x)
        if ff and gg:
            if (h := _heu_gcd(ff, gg)) is None:
                return None
            h = _heu_interpolate(h, x)
            hc = math.gcd(*h.values())
            h = {m: c // hc for m, c in h.items()}
            # a unit gcd divides everything, so only a larger one is tried
            if (len(h) == 1 and not any(next(iter(h)))) or (
                _int_div(f, h) is not None and _int_div(g, h) is not None
            ):
                return {m: c * cont for m, c in h.items()}
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _heu_eval(f: dict, x: int) -> dict:
    """f with its first variable set to x."""
    out: dict = {}
    for m, c in f.items():
        rest = m[1:]
        out[rest] = out.get(rest, 0) + c * x ** m[0]
    return {m: c for m, c in out.items() if c}


def _heu_interpolate(h: dict, x: int) -> dict:
    """The polynomial with coefficients in the symmetric range mod x whose
    new first variable at x gives h."""
    out, k, half = {}, 0, x // 2
    while h:
        rest = {}
        for m, c in h.items():
            r = c % x
            if r > half:
                r -= x
            if r:
                out[(k, *m)] = r
            if c != r:
                rest[m] = (c - r) // x
        h, k = rest, k + 1
    return out


def _int_div(f: dict, h: dict) -> dict | None:
    """f / h in Z[X] by lex-leading terms; None when h does not divide f."""
    lm = max(h)
    lc = h[lm]
    rem, quo = dict(f), {}
    while rem:
        m = max(rem)
        q, r = divmod(rem[m], lc)
        qm = tuple(i - j for i, j in zip(m, lm))
        if r or min(qm) < 0:
            return None
        quo[qm] = q
        for hm, hc in h.items():
            k = tuple(i + j for i, j in zip(qm, hm))
            if c := rem.get(k, 0) - q * hc:
                rem[k] = c
            else:
                del rem[k]
    return quo


def _int_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _lead_coeff(f: dict, shift: int = 0) -> dict:
    """The coefficient of the highest power of the first variable, times
    that variable to the `shift`."""
    d = max(f)[0]
    return {(shift, *m[1:]): c for m, c in f.items() if m[0] == d}


def _int_primitive(f: dict) -> tuple[dict, dict]:
    """(content, primitive part) of f in the first variable: the content is
    the gcd of its coefficients, polynomials in the other variables."""
    coeffs: dict = {}
    for m, c in f.items():
        coeffs.setdefault(m[0], {})[m[1:]] = c
    cont = functools.reduce(_int_gcd, coeffs.values())
    return cont, _int_div(f, {(0, *m): c for m, c in cont.items()})


def _prs_gcd(f: dict, g: dict) -> dict:
    """Primitive PRS, after sympy's dmp_rr_prs_gcd, times the gcd of the
    contents.  It runs in the last variable of least degree, swapped to the
    front, as a main variable of higher degree swells the remainders."""
    k = min(reversed(range(len(next(iter(f))))),
            key=lambda j: min(max(m[j] for m in p) for p in (f, g)))

    def swap(p: dict) -> dict:
        return {(m[k], *m[1:k], m[0], *m[k + 1:]): c for m, c in p.items()} if k else p

    (fc, f), (gc, g) = _int_primitive(swap(f)), _int_primitive(swap(g))
    if max(f)[0] < max(g)[0]:
        f, g = g, f
    # a primitive part of degree 0 is 1
    while (dg := max(g)[0]) and f:
        lc_g = _lead_coeff(g)
        while f and (df := max(f)[0]) >= dg:
            # f * lc(g) - x^(df - dg) * lc(f) * g cancels the leading power
            out = _int_mul(f, lc_g)
            for m, c in _int_mul(g, _lead_coeff(f, df - dg)).items():
                out[m] = out.get(m, 0) - c
            f = {m: c for m, c in out.items() if c}
        if f:
            f, g = g, _int_primitive(f)[1]
    return swap(_int_mul(g, {(0, *m): c for m, c in _int_gcd(fc, gc).items()}))


# ---------------------------------------------------------------------------
# Exponential lattices
# ---------------------------------------------------------------------------


def _on_lattice(num: Poly, den: Poly, strict: bool = True) -> tuple[Poly, Poly]:
    """num / den with each base's exponentials on their lattice (`_rebased`),
    or as they are when each base has one basis atom, and when `strict`, a
    positive one whose powers have least value 0 and gcd 1.  A fraction about
    to be reduced needs only free atoms: the gcd strips a common shift."""
    exps = functools.reduce(operator.or_, den.terms, functools.reduce(operator.or_, num.terms, 0)) & _EXPS
    if not exps:
        return num, den
    bases = set()
    for a, _ in _pairs(exps):
        if a.base in bases:
            return _rebased(num, den)
        bases.add(a.base)
        if strict:
            powers = [m >> _SHIFTS[a] & 0xFF for p in (num, den) for m in p.terms]
            if not a.positive or min(powers) or math.gcd(*powers) != 1:
                return _rebased(num, den)
    return num, den


def _rebased(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / den with each base c's exponentials rewritten as powers of
    exp(b1 * c), ..., exp(br * c), where b1, ..., br is the Hermite normal
    form of the lattice spanned by the differences of their exponents, over
    the exponent's monomials in `_mono_order` (for one direction, the
    gcd-scaled exponent with a positive leading coefficient).  Each power is
    shifted to least value 0 over both polynomials; terms that meet add."""
    terms = [*num.terms, *den.terms]
    bases: dict = {}
    for a, _ in _pairs(functools.reduce(operator.or_, terms) & _EXPS):
        bases.setdefault(a.base, []).append(a)
    packed = [m & ~_EXPS for m in terms]
    for atoms in bases.values():
        cols = sorted({m for a in atoms for m in a.exponent.terms}, key=_mono_order)
        scale = math.lcm(*(a.exponent.den for a in atoms))
        vectors = [(_SHIFTS[a], [a.exponent.terms.get(m, 0) * (scale // a.exponent.den) for m in cols]) for a in atoms]
        points = [[sum((m >> sh & 0xFF) * v[k] for sh, v in vectors) for k in range(len(cols))] for m in terms]
        points = [[x - y for x, y in zip(point, points[0])] for point in points]
        rows = _hnf(points)
        powers = [_coordinates(point, rows) for point in points]
        low = [min(col) for col in zip(*powers)]
        basis = [_exp_atom(_reduced({m: x for m, x in zip(cols, row) if x}, scale)) for row in rows]
        for k, point in enumerate(powers):
            packed[k] += _pack(zip(basis, (p - least for p, least in zip(point, low))))
    out: list = []
    for p, monos in ((num, packed[:len(num.terms)]), (den, packed[len(num.terms):])):
        merged: dict = {}
        for c, mono in zip(p.terms.values(), monos):
            merged[mono] = merged.get(mono, 0) + c
        out.append(_reduced({m: c for m, c in merged.items() if c}, p.den))
    return out[0], out[1]


def _hnf(rows: list) -> list:
    """The Hermite normal form of the lattice the integer rows span: rows
    whose first nonzero entries (pivots) are positive and in strictly later
    columns, each entry above a pivot in [0, pivot)."""
    basis: list = []
    rows = [r for r in rows if any(r)]
    col = 0
    while rows:
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:  # Euclid on the column
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            reduced = [[x - r[col] // pivot[col] * y for x, y in zip(r, pivot)] for r in live[1:]]
            rows += [r for r in reduced if not r[col] and any(r)]
            live = [pivot, *(r for r in reduced if r[col])]
        if live:
            pivot = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            basis = [[x - b[col] // pivot[col] * y for x, y in zip(b, pivot)] for b in basis]
            basis.append(pivot)
        col += 1
    return basis


def _coordinates(point: list, rows: list) -> list:
    """The integer coordinates of a lattice point in the `_hnf` rows."""
    out = []
    for row in rows:
        col = next(k for k, x in enumerate(row) if x)
        k = point[col] // row[col]
        point = [x - k * y for x, y in zip(point, row)]
        out.append(k)
    return out


def _reduce_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    # the trial division runs under i*i -> -1 and s*s -> 2, so it can cancel
    # a denominator that the gcd, with i and s free, leaves
    if (quo := _poly_div(num, den)) is not None:
        return quo, Poly.const(1)
    g = poly_gcd(num, den)
    if not g.is_const():
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    return num, den


def fraction_sum(fractions: Iterable[tuple[Poly, Poly]]) -> "Expr":
    """The sum of unreduced num / den, each den nonzero, reduced once: over
    equal denominators the numerators add in one dict; the sums cross-multiply.
    A vanishing sum takes no gcd, since Q(i, sqrt 2) is a field and the basis
    exponentials are free atoms once `_on_lattice` puts them on one lattice."""
    sums: dict = {}
    for num, den in fractions:
        acc = sums.setdefault(den, [{}, 1])
        acc[1] = _add_into(acc[0], acc[1], num.terms, num.den)
    parts = [(_reduced(*acc), den) for den, acc in sums.items()] or [(Poly.zero(), _POLY_ONE)]
    num, common = parts[0]
    for part, den in parts[1:]:
        num, common = num.mul(den).add(part.mul(common)), common.mul(den)
    return Expr(num, common)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Canonical rational expression: a reduced fraction of Polys, each
    base's exponentials on the lattice of their own exponents.

    A constant canonical denominator is 1.  A sum or product of polynomials
    over 1 skips the gcd and only puts its exponentials on their lattice,
    which a cancelled term can shrink and which a shift can give a monomial
    denominator (coprime to the numerator, since the shift leaves a power 0
    of each basis atom in it).  x + 0, 0 + x and x ** 1 are x, and x * c,
    c * x and x / c for a constant c are zero for c = 0 and otherwise keep
    x's denominator: scaling by a nonzero rational changes neither the gcd,
    the exponents nor the denominator's content.  Equal non-constant
    denominators take the general path: with `i` and `s` free in the gcd,
    reducing against d instead of d*d can print a different, equal fraction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _normalized: bool = False):
        if _normalized:
            self.num = num
            self.den = den
            return
        num, den = _on_lattice(num, den, den.is_const())
        if den.is_zero():
            raise DivisionByZeroError("denominator normalizes to zero")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.const(1)
            return
        if not den.is_const():
            num, den = _on_lattice(*_reduce_fraction(num, den))
        g, d = den.content()
        if g != 1 or d != 1:
            num = num.scale(d, g)
            den = Poly({m: c // g for m, c in den.terms.items()})
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Expr":
        return Expr._over_one(Poly.const(c))

    @staticmethod
    def atom(a) -> "Expr":
        return Expr._over_one(Poly.atom(a))

    @staticmethod
    def _over_one(num: Poly) -> "Expr":
        """num / 1 for a polynomial that is reduced over 1: a sum or product
        of numerators over 1, a constant or a coordinate."""
        return Expr(*_on_lattice(num, _POLY_ONE), _normalized=True)

    @staticmethod
    def exp(arg: "Expr") -> "Expr":
        if not arg.den.is_const():
            raise UnsupportedExponentError("exponent must be polynomial")
        atom = _exp_atom(arg.num)
        return Expr.const(1) if atom is None else Expr._over_one(Poly.atom(atom))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def coerce(v) -> "Expr":
        if isinstance(v, Expr):
            return v
        if isinstance(v, (int, Fraction)):
            return Expr.const(v)
        if isinstance(v, (Coord, ExpAtom)):
            return Expr.atom(v)
        raise TypeError(f"cannot coerce {v!r} to Expr")

    def __add__(self, other) -> "Expr":
        other = Expr.coerce(other)
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den.is_const() and other.den.is_const():
            return Expr._over_one(self.num.add(other.num))
        num = self.num.mul(other.den).add(other.num.mul(self.den))
        return Expr(num, self.den.mul(other.den))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.num.neg(), self.den, _normalized=True)

    def __sub__(self, other) -> "Expr":
        return self + (-Expr.coerce(other))

    def __rsub__(self, other) -> "Expr":
        return Expr.coerce(other) - self

    def __mul__(self, other) -> "Expr":
        other = Expr.coerce(other)
        if self.den.is_const() and other.den.is_const():
            return Expr._over_one(self.num.mul(other.num))
        for x, c in ((self, other), (other, self)):
            if c.is_const():
                return ZERO if c.is_zero() else Expr(x.num.mul(c.num), x.den, _normalized=True)
        return Expr(self.num.mul(other.num), self.den.mul(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = Expr.coerce(other)
        if other.num.is_zero():
            raise DivisionByZeroError("division by zero expression")
        if other.is_const():
            c = other.num
            return Expr(self.num.scale(c.den, c.terms[_ONE_MONO]), self.den, _normalized=True)
        return Expr(self.num.mul(other.den), self.den.mul(other.num))

    def __rtruediv__(self, other) -> "Expr":
        return Expr.coerce(other) / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise KernelError("only integer exponents are supported")
        if n < 0:
            if self.num.is_zero():
                raise DivisionByZeroError("zero to a negative power")
            return Expr(self.den, self.num).__pow__(-n)
        if n == 1:
            return self
        return Expr(self.num.pow(n), self.den.pow(n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes as one
        return hash(self.num.const_value() if self.is_const() else (self.num, self.den))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> int | Fraction:
        if not self.is_const():
            raise KernelError("expression is not constant")
        return self.num.const_value()

    def coords(self) -> set:
        return self.num.coords() | self.den.coords()

    # -- calculus ------------------------------------------------------------

    def diff(self, c: Coord) -> "Expr":
        return self.derive({c: ONE})

    def constant_along(self, *coords: Coord) -> bool:
        """Whether the partials in coords sum to zero, decided on the numerator
        Dn*d - n*Dd of their sum, which reduction only divides by a gcd."""
        return self.derive_pair({c: ONE for c in coords})[0].is_zero()

    def derive(self, images: Mapping[Coord, "Expr"]) -> "Expr":
        """Apply the derivation D = sum of images[c] * d/dc, reducing once."""
        return Expr(*self.derive_pair(images))

    def derive_pair(self, images: Mapping[Coord, "Expr"]) -> tuple[Poly, Poly]:
        """D(n/d) as an unreduced (numerator, denominator) pair.  Every image
        is brought over B, the product of the distinct non-constant image
        denominators, so D(n/d) = (Dn*d - n*Dd) / (d^2*B) on polynomials,
        or (Dn, d*B) when Dd = 0 and d, free of `i` and `s`, reduces alike."""
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
        dn_terms: dict = {}
        dd_terms: dict = {}
        dn_den = dd_den = 1
        for image, dn, dd in parts:
            others = [q for q in dens if q != image.den]
            weight = functools.reduce(Poly.mul, others, image.num)
            dn, dd = weight.mul(dn), weight.mul(dd)
            dn_den = _add_into(dn_terms, dn_den, dn.terms, dn.den)
            dd_den = _add_into(dd_terms, dd_den, dd.terms, dd.den)
        Dn, Dd = _reduced(dn_terms, dn_den), _reduced(dd_terms, dd_den)
        common = functools.reduce(Poly.mul, dens, _POLY_ONE)
        if d.is_const() or Dd.is_zero() and _REWRITES.keys().isdisjoint(d.atoms()):
            return Dn, d.mul(common)
        return Dn.mul(d).sub(n.mul(Dd)), d.mul(d).mul(common)

    def substitute(self, bindings: Mapping[Coord, "Expr"]) -> "Expr":
        """Bound coordinates replaced, also in exponents: numerator and
        denominator each become one fraction (`_subs_poly`), then divide."""
        if not bindings:
            return self
        bindings = {c: Expr.coerce(v) for c, v in bindings.items()}
        bound = set(bindings)
        for image in bindings.values():
            if image.coords() & bound:
                raise CyclicBindingError("binding image mentions a bound coordinate")
        num, den = (_subs_poly(p, bindings) for p in (self.num, self.den))
        if den.is_zero():
            raise DivisionByZeroError("denominator normalizes to zero after substitution")
        return num / den

    def eval(self, point: Mapping[Coord, float]) -> float:
        def value_of(atom):
            if isinstance(atom, ExpAtom):
                return math.exp(atom.exponent.eval(value_of))
            if atom not in point:
                raise UnboundCoordinateError(atom)
            return float(point[atom])

        den = self.den.eval(value_of)
        if abs(den) <= EPS_DIV_DEFAULT:
            raise NearZeroDenominatorError(den)
        return self.num.eval(value_of) / den

    def __str__(self) -> str:
        if self.den.is_const():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"Expr({self})"


def _subs_poly(p: Poly, bindings: Mapping[Coord, Expr]) -> Expr:
    """p with bound atoms and folded exponentials replaced, as one `fraction_sum`: a term
    keeps its unbound atoms and multiplies in its images' num and den in `_factors` order,
    each (atom, power) raised once per call."""
    bound = _EXPS | sum(0xFF << _SHIFTS[c] for c in bindings if c in _SHIFTS)
    fractions, images = [], {}
    for mono, coeff in p.terms.items():
        num, den = _reduced({mono & ~bound: coeff}, p.den), _POLY_ONE
        for atom, power in _factors(mono):
            if (atom, power) not in images:
                e = Expr.exp(_subs_poly(atom.exponent, bindings)) if isinstance(atom, ExpAtom) else bindings.get(atom)
                images[atom, power] = None if e is None else (e.num.pow(power), e.den.pow(power))
            if (image := images[atom, power]) is not None:
                num, den = num.mul(image[0]), den.mul(image[1])
        fractions.append((num, den))
    return fraction_sum(fractions)


def compile_numeric(exprs: Iterable[Expr], coords: Iterable[Coord]) -> Callable[..., tuple]:
    """Compile expressions into one straight-line function.

    The function takes one float per coordinate, positionally in the order
    of `coords`, and returns the tuple of expression values.  The code
    repeats `Expr.eval` operation for operation (terms and factors in
    `Poly.eval` order, exponentials through `math.exp`, the denominator
    checked against EPS_DIV_DEFAULT before the division), so each value is
    bit-identical to `Expr.eval` at the same point.  A denominator of 1
    gets neither check nor division, since dividing by 1.0 is exact.  An
    atom outside `coords` raises `UnboundCoordinateError` here, not at call
    time.
    """
    names = {c: f"a{i}" for i, c in enumerate(coords)}

    def factor(atom, power: int) -> str:
        if isinstance(atom, ExpAtom):
            base = f"_exp({poly(atom.exponent)})"
        elif atom in names:
            base = names[atom]
        else:
            raise UnboundCoordinateError(atom)
        return base if power == 1 else f"{base} ** {power}"

    def poly(p: Poly) -> str:
        terms = ["0.0"]
        for mono, coeff in p.terms.items():
            factors = [factor(atom, power) for atom, power in _factors(mono)]
            if coeff != p.den or not factors:
                factors.insert(0, repr(coeff / p.den))
            terms.append(" * ".join(factors))
        return " + ".join(terms)

    lines = [f"def _compiled({', '.join(names.values())}):"]
    results = []
    for i, e in enumerate(exprs):
        if e.den.is_const():
            lines.append(f"    r{i} = ({poly(e.num)})")
        else:
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

x, t, z = (indep(name) for name in _INDEP_NAMES)
eta, delta, eps, u0, kk, theta = (param(name) for name in ("eta", "delta", "eps", "u0", "kk", "theta"))
iunit, sqrt2 = param("i"), param("s")
phi1, phi2, phih1, phih2, p = (dep(name) for name in _DEP_NAMES)
# the most used first, since a monomial's cost grows with its last field
for _c in (eta, x, t, *(jet(b, k) for k in range(MAX_JET_ORDER + 1) for b in _JET_BASES),
           z, delta, eps, u0, kk, theta, phi1, phi2, phih1, phih2, p):
    _shift(_c)


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
    str(c): c for c in (x, t, z, eta, delta, eps, u0, kk, theta, iunit, sqrt2, phi1, phi2, phih1, phih2, p)
}


def _decimal(digits: str, offset: int) -> int:
    """The value of a run of decimal digits, at most MAX_DIGITS of them."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"a number of {len(digits)} digits exceeds {MAX_DIGITS} digits", offset)
    return int(digits)


def _hold(e: Expr) -> Expr:
    """e, once each coefficient is held to MAX_DIGITS digits, as printing does."""
    for q in (e.num, e.den):
        for c in q.terms.values():
            _held(c, q.den)
    return e


def _identifier_expr(name: str, mn_mode: str, offset: int) -> Expr:
    if name in _BASE_NAMES:
        return Expr.atom(_BASE_NAMES[name])
    if name[0] in "uvmn" and (len(name) == 1 or name[1:].isdecimal()):
        base = name[0]
        order = _decimal(name[1:], offset + 1) if len(name) > 1 else 0
        if not 1 <= order <= MAX_JET_ORDER and len(name) > 1:
            raise UnknownIdentifierError(name, offset)
        if base in "uv" or mn_mode == "jets":
            return Expr.atom(jet(base, order))
        if order > 0:
            raise UnknownIdentifierError(name, offset)
        src = "u" if base == "m" else "v"
        return Expr.atom(jet(src, 0)) - Expr.atom(jet(src, 2))
    raise UnknownIdentifierError(name, offset)


# A token is a run of decimal digits, a word (a letter, then letters and
# digits) or any other single non-space character; whitespace separates
# tokens.  The word pattern also admits a leading non-decimal numeral such
# as "²"; `parse_atom` rejects a word that does not start with a letter.
_TOKEN = re.compile(r"\d+|[^\W\d_][^\W_]*|\S")

# Parenthesized groups nest at most this deep, which keeps the recursive
# descent far from Python's recursion limit.
_MAX_NESTING = 50


def parse(text: str, mn_mode: str = "alias") -> Expr:
    """Parse an expression.  mn_mode: "alias" expands m, n to u - u2, v - v2;
    "jets" treats m, n as first-class jet symbols."""
    # (token, UTF-8 byte offset) pairs as a stack: the next token last, above
    # an end marker
    toks = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    toks = [("", len(text)), *reversed(toks)]
    if not text.isascii():
        at = list(itertools.accumulate((len(c.encode("utf-8", "surrogatepass")) for c in text), initial=0))
        toks = [(tok, at[offset]) for tok, offset in toks]
    depth = 0

    def peek() -> str:
        return toks[-1][0]

    def expect(tok: str) -> int:
        if peek() != tok:
            raise ParseError(f"expected '{tok}'", toks[-1][1])
        return toks.pop()[1]

    def parse_group(offset: int) -> Expr:
        """The rest of a parenthesized group whose "(" at `offset` was taken."""
        nonlocal depth
        if depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", offset)
        depth += 1
        node = parse_expr()
        expect(")")
        depth -= 1
        return node

    def plain(e: Expr) -> bool:
        return e.den.is_const() and not functools.reduce(operator.or_, e.num.terms, 0) & _EXPS

    def parse_expr() -> Expr:
        # plain summands (polynomials over 1 free of exponentials) from the
        # first on add into one term dict, which `Poly.add` would copy at each
        # "+"; from the first other summand on, the sum takes `node + rhs`,
        # which puts exponentials on their lattice
        node = parse_term()
        terms, den = (dict(node.num.terms), node.num.den) if plain(node) else (None, 1)
        while peek() in ("+", "-"):
            rhs = parse_term() if toks.pop()[0] == "+" else -parse_term()
            n1, d1 = (len(node.num.terms), len(node.den.terms)) if terms is None else (len(terms), 1)
            if max(n1 * len(rhs.den.terms) + len(rhs.num.terms) * d1, d1 * len(rhs.den.terms)) > MAX_TERMS:
                raise BoundError(f"a sum may exceed {MAX_TERMS} terms")
            if terms is not None and plain(rhs):
                den = _add_into(terms, den, rhs.num.terms, rhs.num.den)
            else:
                node, terms = (node if terms is None else Expr._over_one(_reduced(terms, den))) + rhs, None
        return node if terms is None else Expr._over_one(_reduced(terms, den))

    def parse_term() -> Expr:
        node = parse_factor()
        while peek() in ("*", "/"):
            times = toks.pop()[0] == "*"
            rhs = parse_factor()
            a, b = (rhs.num, rhs.den) if times else (rhs.den, rhs.num)
            if max(len(node.num.terms) * len(a.terms), len(node.den.terms) * len(b.terms)) > MAX_TERMS:
                raise BoundError(f"a product may exceed {MAX_TERMS} terms")
            node = _hold(node * rhs if times else node / rhs)
        return node

    def parse_factor() -> Expr:
        negate = False
        while peek() in ("-", "+"):
            negate ^= toks.pop()[0] == "-"
        node = parse_power()
        return -node if negate else node

    def parse_power() -> Expr:
        base = parse_atom()
        if peek() == "^":
            toks.pop()
            return base ** parse_int_exponent()
        return base

    def parse_int_exponent() -> int:
        opened = 0
        while peek() == "(":
            toks.pop()
            opened += 1
        sign = 1
        if peek() == "-":
            toks.pop()
            sign = -1
        elif peek() == "+":
            toks.pop()
        tok, offset = toks.pop()
        if not tok.isdecimal():
            raise ParseError("expected integer exponent", offset)
        for _ in range(opened):
            expect(")")
        return sign * _decimal(tok, offset)

    def parse_atom() -> Expr:
        tok, offset = toks.pop()
        if tok == "(":
            return parse_group(offset)
        if tok.isdecimal():
            return Expr.const(_decimal(tok, offset))
        if not tok[:1].isalpha():
            raise ParseError("expected expression", offset)
        if tok == "exp":
            return Expr.exp(parse_group(expect("(")))
        return _identifier_expr(tok, mn_mode, offset)

    result = _hold(parse_expr())
    if peek():
        raise ParseError("unexpected trailing input", toks[-1][1])
    return result
