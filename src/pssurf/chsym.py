"""Nonlocal-symmetry pipeline for the cubic two-component Camassa-Holm
system.

The system is handled in momentum form, with m = u - u2 and n = v - v2 kept
as first-class jet symbols and the constraints used to close u, v jets of
order two and higher.  The module provides: the linear and adjoint problems
as derivation rules, the spectral-parameter gradient, the nonlocal symmetry
and its verification against the linearized flow, the pseudo-potential
prolongation, the finite symmetry transformation with its first-order
expansion checks, and the closed-form solution generated from the constant
seed.

Each stage is derived from the one before it, starting from the catalog's
cubic-ch2 entry.  The linear problem, its adjoint, the pseudo-potential and
the momentum flow are one rule table, which the symmetry and prolongation
residuals linearize.

numpy loads on first array use, not at import: only the closed-form
solution's evaluators (and numgrid, which shares this module's binding)
touch it, so the symbolic stages never load it.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import kernel as K
from .classify import catalog_entry
from .jetcalc import DerivationRules, PdeSystem, dt_images, dx_images, total_dx
from .kernel import DomainError, Expr, parse
from .laxzoo import mat_map


def _lazy_numpy():
    """numpy as imported so far, or a module that executes numpy on its
    first attribute access (the LazyLoader recipe of the importlib docs).
    LazyLoader's first access can race between threads in Python 3.11; the
    program is single-threaded, so the race does not arise."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

_HALF = K.ONE / 2
_ETA = Expr.atom(K.eta)
_EPS = Expr.atom(K.eps)
_U, _U1 = Expr.atom(K.u(0)), Expr.atom(K.u(1))
_V, _V1 = Expr.atom(K.v(0)), Expr.atom(K.v(1))
_M, _N = Expr.atom(K.m(0)), Expr.atom(K.n(0))
_PHI1, _PHI2 = Expr.atom(K.phi1), Expr.atom(K.phi2)
_PHIH1, _PHIH2 = Expr.atom(K.phih1), Expr.atom(K.phih2)
_PP = Expr.atom(K.p)


@dataclass(frozen=True)
class Ch2System:
    """The cubic two-component CH system in momentum form."""

    m_t: Expr
    n_t: Expr
    uv_system: PdeSystem  # the same flow written in u, v jets
    constraints: dict


@functools.cache
def ch2_system() -> Ch2System:
    """The catalog's cubic-ch2 system, closed into momentum form."""
    uv_system = catalog_entry("cubic-ch2").system
    constraints = {}
    for k in range(2, K.MAX_JET_ORDER + 1):
        constraints[K.u(k)] = Expr.atom(K.u(k - 2)) - Expr.atom(K.m(k - 2))
        constraints[K.v(k)] = Expr.atom(K.v(k - 2)) - Expr.atom(K.n(k - 2))
    close = DerivationRules(constraints=constraints).close
    return Ch2System(close(uv_system.F), close(uv_system.G), uv_system, constraints)


BETA = parse("u*v - u1*v1")


@functools.cache
def linear_problem() -> tuple[tuple, tuple, DerivationRules]:
    """The linear problem, its adjoint, and the pseudo-potential as one rule
    table.  Returns (M_matrix, N_matrix, rules); the matrices are the closed
    sl2 Lax pair of the catalog's cubic-ch2 forms."""
    sys = ch2_system()
    lax = catalog_entry("cubic-ch2").lax
    close = DerivationRules(constraints=sys.constraints).close
    Mmat = mat_map(close, lax.X)
    Nmat = mat_map(close, lax.T)
    # phi' = A phi, and for the adjoint row vector phih' = -phih A
    x_rules, t_rules = ({
        **{s: A[j][0] * _PHI1 + A[j][1] * _PHI2 for j, s in enumerate((K.phi1, K.phi2))},
        **{s: -(_PHIH1 * A[0][j] + _PHIH2 * A[1][j]) for j, s in enumerate((K.phih1, K.phih2))},
    } for A in (Mmat, Nmat))
    x_rules[K.p] = -_HALF * _ETA**2 * _M * _PHI2**2
    t_rules.update({
        K.p: -_PHI1 * _PHI2 / _ETA
        + _HALF * (_V + _V1) * _PHI1**2
        - _ETA**2 / 4 * BETA * _M * _PHI2**2,
        K.m(0): sys.m_t,
        K.n(0): sys.n_t,
    })
    rules = DerivationRules(
        x_rules=x_rules,
        t_rules=t_rules,
        constraints=sys.constraints,
    )
    return Mmat, Nmat, rules


def reduction_to_adjoint() -> dict:
    """The substitution turning adjoint quantities into eigenfunctions."""
    return {K.phih1: _PHI2, K.phih2: -_PHI1}


def spectral_gradient() -> tuple[Expr, Expr]:
    """Gradient of the spectral parameter with respect to (m, n), up to the
    common constant factor."""
    return (_PHIH1 * _PHI2, -_PHI1 * _PHIH2)


def apply_d1(pair: tuple[Expr, Expr], rules: DerivationRules) -> tuple[Expr, Expr]:
    """First Hamiltonian operator: (a, b) -> ((D_x^2 - 1) b, (1 - D_x^2) a)."""
    a, b = pair
    dxxb = total_dx(total_dx(b, rules), rules)
    dxxa = total_dx(total_dx(a, rules), rules)
    return (dxxb - b, a - dxxa)


@dataclass(frozen=True)
class SymmetryTuple:
    w_u: Expr
    w_v: Expr
    w_m: Expr
    w_n: Expr


@functools.cache
def nonlocal_symmetry() -> SymmetryTuple:
    """The characteristic generated by the spectral-parameter gradient, with
    the adjoint solution (phih1, phih2) = (phi2, -phi1) substituted."""
    _, _, rules = linear_problem()
    w_m, w_n = apply_d1(spectral_gradient(), rules)
    sub = reduction_to_adjoint()
    return SymmetryTuple(*(w.substitute(sub) for w in (_PHI1 * _PHIH2, _PHIH1 * _PHI2, w_m, w_n)))


def linearize(rhs: Expr, directions: dict, rules: DerivationRules) -> tuple[K.Poly, K.Poly]:
    """Directional (Frechet) derivative of rhs along characteristics, an unreduced (num, den) pair.

    directions maps base symbols ('u', 'v', 'm', 'n') and the order-0
    dependent symbols ('phi1', 'phi2', 'p') to their characteristics; the
    k-th jet moves along the k-th total x-derivative of its characteristic.
    """
    images = {}
    for c in sorted(rhs.coords(), key=lambda c: c.key):
        if c.kind not in (K.KIND_JET, K.KIND_DEP):
            continue
        char = directions.get(c.name)
        if char is None:
            raise KeyError(f"no direction supplied for symbol '{c.name}'")
        img = char
        for _ in range(c.order):
            img = total_dx(img, rules)
        images[c] = img
    return rhs.derive_pair(images)


def _directions(s: SymmetryTuple) -> dict[str, Expr]:
    """The characteristic of each base symbol, as `linearize` takes them."""
    return {"u": s.w_u, "v": s.w_v, "m": s.w_m, "n": s.w_n}


def _residual(w: Expr, images: dict, linearized: tuple[K.Poly, K.Poly]) -> Expr:
    """D w - linearized for the derivation D of `images`, one `fraction_sum` reduced once."""
    num, den = linearized
    return K.fraction_sum([w.derive_pair(images), (num.neg(), den)])


def check_symmetry_residual(s: SymmetryTuple) -> tuple[Expr, Expr]:
    """D_t w_c - linearize(t-rule of c) for c = m, n on the characteristic;
    identically zero certifies the symmetry."""
    _, _, rules = linear_problem()
    directions = _directions(s)
    return tuple(_residual(w, dt_images(w, None, rules), linearize(rules.t_rules[c], directions, rules))
                 for c, w in ((K.m(0), s.w_m), (K.n(0), s.w_n)))


# ---------------------------------------------------------------------------
# Pseudo-potential prolongation
# ---------------------------------------------------------------------------


def prolongation() -> tuple[Expr, Expr, Expr]:
    """Characteristics (w1, w2, w_p) extending the reduced symmetry to the
    eigenfunctions and the pseudo-potential, with derivatives expanded
    through the rule table."""
    _, _, rules = linear_problem()
    phi1x = rules.x_rules[K.phi1]
    phi2x = rules.x_rules[K.phi2]
    px = rules.x_rules[K.p]
    w1 = _PHI1 * _PP + _ETA * _PHI1 * phi1x * _PHI2 + _HALF * _ETA * _PHI1**2 * _PHI2
    w2 = _PHI2 * _PP + _ETA * _PHI1 * _PHI2 * phi2x + _HALF * _ETA * _PHI1 * _PHI2**2
    wp = _PP**2 + _ETA * _PHI1 * _PHI2 * px
    return w1, w2, wp


def prolongation_residuals() -> dict[str, Expr]:
    """Residuals D w_c - linearize(rule of c) for c = phi1, phi2, p on both
    axes of the rule table, along the prolonged characteristic."""
    _, _, rules = linear_problem()
    w1, w2, wp = prolongation()
    directions = {**_directions(nonlocal_symmetry()), "phi1": w1, "phi2": w2, "p": wp}
    axes = (("x", rules.x_rules, lambda e: dx_images(e, rules)),
            ("t", rules.t_rules, lambda e: dt_images(e, None, rules)))
    rows = (("eigenfunction-1", K.phi1, w1), ("eigenfunction-2", K.phi2, w2), ("pseudo-potential", K.p, wp))
    return {f"{name}-{axis}": _residual(w, images(w), linearize(axis_rules[c], directions, rules))
            for axis, axis_rules, images in axes for name, c, w in rows}


# ---------------------------------------------------------------------------
# Finite symmetry transformation
# ---------------------------------------------------------------------------


@functools.cache
def vector_field_components() -> dict[str, Expr]:
    """The non-evolutionary generator: coefficients of d/dx, d/du, ...

    The x-coefficient xi = -eta*phi1*phi2 is the one free choice.  Every
    other coefficient is the closed characteristic of its coordinate c plus
    xi * D_x c: the reduced nonlocal symmetry for u, v, m, n, its total
    x-derivative for ux, vx, and the prolongation for phi1, phi2, p.  The
    table is built once; callers only read it.
    """
    _, _, rules = linear_problem()
    s = nonlocal_symmetry()
    w1, w2, wp = prolongation()
    xi = -_ETA * _PHI1 * _PHI2
    characteristics = {
        "u": (_U, s.w_u), "v": (_V, s.w_v),
        "ux": (_U1, total_dx(s.w_u, rules)), "vx": (_V1, total_dx(s.w_v, rules)),
        "p": (_PP, wp), "m": (_M, s.w_m), "n": (_N, s.w_n),
        "phi1": (_PHI1, w1), "phi2": (_PHI2, w2),
    }
    out = {"x": xi}
    for name, (c, w) in characteristics.items():
        out[name] = w + xi * total_dx(c, rules)
    return out


def finite_transform_symbolic() -> dict[str, tuple[tuple[K.Poly, K.Poly], ...]]:
    """The finite transformation in the state and eps, each entry a sum of unreduced
    (numerator, denominator) polynomial pairs.  The x entry is exp(x_tilde - x); the
    phi entries are squared (their closed forms hold a square root)."""
    d1 = 1 - _EPS * _PP
    d2 = d1 - _EPS * _ETA * _PHI1 * _PHI2
    den = d2 * (2 * d1 - _EPS * _ETA**2 * (_M * _PHI2**2 - _N * _PHI1**2)) + _EPS**2 * _ETA**3 * _N * _PHI1**3 * _PHI2
    # polynomials over 1, so nothing is reduced
    sums = {
        "x-shift-exp": ((d2, d1),), "t": ((Expr.atom(K.t), K.ONE),),
        "u": (((_U + _U1) * d2, 2 * d1), ((_U - _U1) * d1, 2 * d2), (-_EPS * _PHI1**2, d2)),
        "v": (((_V + _V1) * d2, 2 * d1), ((_V - _V1) * d1, 2 * d2), (_EPS * _PHI2**2, d1)),
        "m": ((2 * _M * d2**2, den),), "n": ((2 * _N * d1**2, den),),
        "phi1-squared": ((_PHI1**2, d1 * d2),), "phi2-squared": ((_PHI2**2, d1 * d2),),
        "p": ((_PP, d1),),
    }
    return {name: tuple((a.num, b.num) for a, b in pairs) for name, pairs in sums.items()}


def first_order_expansion_residuals() -> dict[str, Expr]:
    """Residuals of d/deps at eps = 0 of each closed form against its generator
    coefficient, 2 phi V^phi for phi^2.  A pair a/b moves at (a1*b0 - a0*b1)/b0^2 from
    its eps^0 and eps^1 coefficients; a residual is one `fraction_sum` of its rates
    and the negated coefficient, so a vanishing one takes no gcd."""
    V = vector_field_components()
    compared = {"x-shift-exp": ("x", V["x"]), "t": ("t", K.ZERO),
                "phi1-squared": ("phi1", 2 * _PHI1 * V["phi1"]), "phi2-squared": ("phi2", 2 * _PHI2 * V["phi2"])}
    out = {}
    for name, pairs in finite_transform_symbolic().items():
        component, rate = compared.get(name) or (name, V[name])
        coefficients = [[(q.coefficient(K.eps, 0), q.coefficient(K.eps, 1)) for q in pair] for pair in pairs]
        rates = [(a1.mul(b0).sub(a0.mul(b1)), b0.mul(b0)) for (a0, a1), (b0, b1) in coefficients]
        out[component] = K.fraction_sum([*rates, (rate.num.neg(), rate.den)])
    return out


# ---------------------------------------------------------------------------
# Numeric enlarged states, the flow, and the exact solution
# ---------------------------------------------------------------------------


class EnlargedState(NamedTuple):
    """A point of the enlarged space; its fields, in order, are the
    arguments of the compiled generator."""

    x: float
    t: float
    u: float
    v: float
    ux: float
    vx: float
    m: float
    n: float
    phi1: float
    phi2: float
    p: float
    eta: float


# the EnlargedState fields in declaration order, as kernel coordinates
_STATE_COORDS = (
    K.x, K.t, K.u(0), K.v(0), K.u(1), K.v(1), K.m(0), K.n(0), K.phi1, K.phi2, K.p, K.eta
)


def _require_finite(**params: float) -> None:
    bad = ", ".join(f"{k} = {v}" for k, v in params.items() if not math.isfinite(v))
    if bad:
        raise DomainError(f"parameters must be finite: {bad}")


def seed_state(u0: float, eta: float, x: float = 0.0, t: float = 0.0) -> EnlargedState:
    """Eigenfunction and pseudo-potential values over the constant solution
    (u, v) = (u0, 1)."""
    _require_finite(u0=u0, eta=eta)
    disc = 1.0 - eta**2 * u0
    if disc <= 0.0:
        raise DomainError(f"1 - eta^2*u0 = {disc} must be positive")
    if u0 == 0.0 or eta == 0.0:
        raise DomainError("u0 and eta must be nonzero")
    k = math.sqrt(disc)
    zz = x + (3.0 - k * k) * t / (2.0 * eta * eta)
    e = math.exp(k * zz / 2.0)
    return EnlargedState(
        x=x,
        t=t,
        u=u0,
        v=1.0,
        ux=0.0,
        vx=0.0,
        m=u0,
        n=1.0,
        phi1=e,
        phi2=(1.0 + k) / (eta * u0) * e,
        p=-((1.0 + k) ** 2) / (2.0 * k * u0) * e * e,
        eta=eta,
    )


def finite_transform(s: EnlargedState, eps: float) -> EnlargedState:
    """Numeric application of the finite symmetry transformation."""
    d1 = 1.0 - eps * s.p
    d2 = 1.0 - eps * s.p - eps * s.eta * s.phi1 * s.phi2
    if abs(d1) <= K.EPS_DIV_DEFAULT:
        raise DomainError(f"denominator 1 - eps*p = {d1} vanishes")
    if abs(d2) <= K.EPS_DIV_DEFAULT:
        raise DomainError(f"denominator 1 - eps*p - eps*eta*phi1*phi2 = {d2} vanishes")
    ratio = d2 / d1
    if ratio <= 0.0:
        raise DomainError(f"logarithm argument {ratio} is not positive")
    if d1 * d2 <= 0.0:
        raise DomainError(f"square-root argument {d1 * d2} is not positive")
    den = d2 * (2.0 * d1 - eps * s.eta**2 * (s.m * s.phi2**2 - s.n * s.phi1**2)) + (
        eps**2 * s.eta**3 * s.n * s.phi1**3 * s.phi2
    )
    if abs(den) <= K.EPS_DIV_DEFAULT:
        raise DomainError("momentum denominator vanishes")
    g = ratio
    up = (s.u + s.ux) * g / 2.0
    um = (s.u - s.ux) / g / 2.0
    vp = (s.v + s.vx) * g / 2.0
    vm = (s.v - s.vx) / g / 2.0
    shift_u = eps * s.phi1**2 / d2
    shift_v = eps * s.phi2**2 / d1
    root = math.sqrt(d1 * d2)
    return EnlargedState(
        x=s.x + math.log(ratio),
        t=s.t,
        u=up + um - shift_u,
        v=vp + vm + shift_v,
        ux=up - um + shift_u,
        vx=vp - vm + shift_v,
        m=2.0 * s.m * d2**2 / den,
        n=2.0 * s.n * d1**2 / den,
        phi1=s.phi1 / root,
        phi2=s.phi2 / root,
        p=s.p / d1,
        eta=s.eta,
    )


@functools.cache
def _flow():
    """The generator compiled by kernel.compile_numeric, built on first use:
    one rate per EnlargedState field, zero for t and eta, which the flow
    fixes."""
    components = vector_field_components()
    return K.compile_numeric(
        [components.get(name, K.ZERO) for name in EnlargedState._fields], _STATE_COORDS
    )


def flow_derivative(s: Sequence[float]) -> tuple[float, ...]:
    """The generator's rates at a state given in EnlargedState field order."""
    return _flow()(*s)


def flow_transform(s: EnlargedState, eps: float, steps: int) -> EnlargedState:
    """Integrate the generator flow with the explicit midpoint rule; the
    steps run on plain float lists."""
    h = eps / steps
    half = h / 2.0
    y = list(s)
    for _ in range(steps):
        k1 = flow_derivative(y)
        mid = [a + half * r for a, r in zip(y, k1)]
        k2 = flow_derivative(mid)
        y = [a + h * r for a, r in zip(y, k2)]
    return EnlargedState._make(y)


def flow_transform_richardson(s: EnlargedState, eps: float, steps: int) -> EnlargedState:
    """Richardson-extrapolated midpoint flow (h and h/2); t and eta are
    taken from s."""
    coarse = flow_transform(s, eps, steps)
    fine = flow_transform(s, eps, 2 * steps)
    out = EnlargedState._make([(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse)])
    return out._replace(t=s.t, eta=s.eta)


# ---------------------------------------------------------------------------
# Closed-form solution
# ---------------------------------------------------------------------------


_MASK_TOL = 1e-8  # denominators this small are flagged as NaN


def _nonfinite_ok(method):
    """method run under np.errstate that ignores division by zero, invalid
    values and overflow.  The evaluators reach coth's poles and overflow on
    purpose; the results are masked as NaN or rejected by the monotonicity
    check, so numpy stays silent.  The errstate is made per call, so that
    decorating a method does not load numpy."""

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return method(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form fields of the transformed solution, parametrized by the
    untransformed coordinates.  All evaluators accept numpy arrays."""

    u0: float
    eta: float
    eps: float
    k: float
    speed: float  # z = x + speed * t

    @_nonfinite_ok
    def theta(self, x, t):
        """tanh (eps > 0) or coth (eps < 0) of the wave phase, as a new array
        (0-d for scalar x and t).  The in-place steps keep the order of
        k * z / 2 + log(mag) / 2."""
        k = self.k
        mag = abs(self.eps) * (1.0 - k * k) / (2.0 * k * self.u0)
        th = np.empty(np.broadcast_shapes(np.shape(x), np.shape(t)))
        np.add(x, self.speed * np.asarray(t, dtype=float), out=th)
        th *= k
        th /= 2.0
        th += 0.5 * np.log(mag)
        np.tanh(th, out=th)
        if self.eps <= 0:
            np.divide(1.0, th, out=th)
        return th

    def _guard(self, den):
        """den with the entries within _MASK_TOL of zero set to NaN, in
        place when den is an array."""
        den = np.asarray(den)
        np.copyto(den, np.nan, where=np.abs(den) <= _MASK_TOL)
        return den

    @_nonfinite_ok
    def coordinate_map(self, x, t):
        """x_tilde at (x, t) and its slope in x,
        1 - k^2 (1 - theta^2) / (2 (1 + k theta)), from one theta."""
        th = self.theta(x, t)
        k = self.k
        den = self._guard(th * k + 1.0)
        x_tilde = x + np.log(abs(1.0 - k)) - np.log(np.abs(den))
        slope = th  # 1 - k^2 (1 - th^2) / (2 den), in place
        slope *= th
        np.subtract(1.0, slope, out=slope)
        slope *= k * k
        den *= 2.0
        slope /= den
        np.subtract(1.0, slope, out=slope)
        return x_tilde, slope

    def x_tilde(self, x, t):
        return self.coordinate_map(x, t)[0]

    @_nonfinite_ok
    def fields(self, x, t):
        """u and v at (x, t), from one theta."""
        th = self.theta(x, t)
        k = self.k
        p = 1.0 + k * th
        u = (2.0 - k * k * (1.0 + th * th)) * self.u0 / self._guard(2.0 * (1.0 + k) * p)
        v = (1.0 + k * (k + 2.0 * th) + p**2) / self._guard(2.0 * (1.0 - k) * p)
        return u, v

    @_nonfinite_ok
    def momenta(self, x, t):
        """m and n at (x, t), from one theta."""
        k = self.k
        p2 = (1.0 + k * self.theta(x, t)) ** 2
        q = 1.0 - k * k + p2
        n = 2.0 * p2 / self._guard((1.0 - k) * q)  # before q is guarded in place
        return 2.0 * self.u0 * (1.0 - k) / self._guard(q), n


def exact_solution(u0: float, eta: float, eps: float) -> ExactSolution:
    """Closed forms generated by the finite transformation of the constant
    seed; tanh branch for eps > 0, coth branch for eps < 0."""
    _require_finite(u0=u0, eta=eta, eps=eps)
    if eta == 0.0:
        raise DomainError("eta must be nonzero")
    if eps == 0.0:
        raise DomainError("eps = 0 degenerates to the seed solution")
    if u0 == 0.0:
        raise DomainError("u0 must be nonzero")
    disc = 1.0 - eta * eta * u0
    if disc <= 0.0:
        raise DomainError(f"1 - eta^2*u0 = {disc} must be positive")
    k = math.sqrt(disc)
    mag = abs(eps) * (1.0 - k * k) / (2.0 * k * u0)
    if mag <= 0.0:
        raise DomainError("logarithm argument of the wave phase is not positive")
    speed = (3.0 - k * k) / (2.0 * eta * eta)
    if not math.isfinite(speed):
        raise DomainError(f"wave speed (3 - k^2)/(2*eta^2) = {speed} is not finite")
    return ExactSolution(u0=u0, eta=eta, eps=eps, k=k, speed=speed)


# ---------------------------------------------------------------------------
# Bi-Hamiltonian check (local operator side)
# ---------------------------------------------------------------------------


_EULER_TOP = 6  # highest jet order the Euler operator differentiates in


def euler_operator(density: Expr, base: str) -> Expr:
    """Variational derivative sum_k (-D_x)^k d(density)/d(base_k)."""
    out = K.ZERO
    sign = 1
    for k in range(_EULER_TOP + 1):
        d = density.diff(K.jet(base, k))
        for _ in range(k):
            d = total_dx(d)
        out = out + Expr.const(sign) * d
        sign = -sign
    return out


def check_bihamiltonian_d1() -> tuple[Expr, Expr]:
    """Residuals of the local Hamiltonian identity: applying the first
    operator to the gradient of the quartic functional must reproduce both
    flow components.

    Because the operator couples each momentum slot with (1 - D_x^2) of the
    opposite gradient, and the momenta are (1 - D_x^2) images of u and v,
    the check closes locally: the u- and v-Euler derivatives of the density
    must equal the n- and (minus the) m-equations written in u, v jets.
    """
    sys = ch2_system()
    density = parse("1/4*(u^2*v1 + u1^2*v1 - 2*u*u1*v)*(v - v2)")
    res_n = euler_operator(density, "u") - sys.uv_system.G
    res_m = -euler_operator(density, "v") - sys.uv_system.F
    return res_m, res_n
