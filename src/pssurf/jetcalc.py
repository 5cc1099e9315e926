"""Total derivatives over jet coordinates with pluggable derivation rules.

D_x acts by jet promotion (u_k -> u_{k+1}) plus explicit x-rules for
dependent auxiliaries; D_t is defined modulo an evolution system of the form
u_t - u_{2,t} = F, v_t - v_{2,t} = G, and only on expressions whose u, v
dependence factors through u - u2 and v - v2 (or through first-class m, n
symbols carrying their own t-rules).  ``factored_violations`` decides that
dependence, also for Lemma 3.1 in ``forms``, on the jets an expression holds.

D_x and D_t are derivations: ``dx_images`` and ``dt_images`` collect the
image of every coordinate an expression mentions (a jet whose promotion is
constrained moves to the constraint's image), which ``Expr.derive`` applies
at once; ``prolonged_images`` moves the k-th jet along D_x^k of a
characteristic; ``exterior_d_mod_system`` sums every flatness residual
(Lemma 3.1, zero curvature, rule compatibility) over ``Expr.derive_pair``,
reduced once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import kernel as K
from .kernel import Coord, Expr, KernelError


class JetCalcError(KernelError):
    pass


class MissingRuleError(JetCalcError):
    """No `kind` (an x-rule, a t-rule, a direction) is given for `base`;
    `coord`, the symbol that needed it, is base or one of base's jets."""

    def __init__(self, kind: str, base: Coord, coord: Coord):
        needed = "" if coord == base else f", which '{coord}' needs"
        super().__init__(f"no {kind} of '{base}'{needed}")
        self.coord = coord


class IllFormedDependenceError(JetCalcError):
    pass


@dataclass(frozen=True)
class PdeSystem:
    """Evolution laws u_t - u_{2,t} = F, v_t - v_{2,t} = G of orders (m, n).
    The curvature sign belongs to the forms (``AssociatedForms.delta``)."""

    orders: tuple[int, int]
    F: Expr
    G: Expr

    def __post_init__(self):
        mo, no = self.orders
        if mo < 2 or no < 2:
            raise ValueError("system orders must both be at least 2")
        allowed = {K.x, K.t}
        allowed |= {K.u(k) for k in range(mo + 1)}
        allowed |= {K.v(k) for k in range(no + 1)}
        for e in (self.F, self.G):
            bad = {
                c
                for c in e.coords()
                if c.kind in (K.KIND_INDEP, K.KIND_JET) and c not in allowed
            }
            if bad:
                raise ValueError(f"right-hand side mentions {sorted(map(str, bad))}")


@dataclass(frozen=True)
class DerivationRules:
    """x- and t-images of dependent symbols, plus optional jet constraints.

    m and n are first-class jet symbols when m or n has a t-rule.
    ``constraints`` maps jet coordinates to their images (e.g. u2 -> u - m in
    contexts where m, n are first-class).  They enter D_x as promotion
    images, so closed inputs have closed derivatives; ``close`` closes an
    input once.
    """

    x_rules: Mapping[Coord, Expr] = field(default_factory=dict)
    t_rules: Mapping[Coord, Expr] = field(default_factory=dict)
    constraints: Mapping[Coord, Expr] = field(default_factory=dict)

    def __post_init__(self):
        for coord in itertools.chain(self.x_rules, self.t_rules):
            if coord.kind not in (K.KIND_DEP, K.KIND_JET):
                raise ValueError(f"rules may only target dependent symbols, got {coord}")
        for coord, image in self.x_rules.items():
            for s in image.coords():
                if s.kind == K.KIND_DEP and s not in self.x_rules:
                    raise ValueError(
                        f"x-rule of {coord} mentions {s}, which has no x-rule of its own"
                    )

    def close(self, e: Expr) -> Expr:
        while pending := {c: self.constraints[c] for c in e.coords() & self.constraints.keys()}:
            e = e.substitute(pending)
        return e


EMPTY_RULES = DerivationRules()


def dx_images(e: Expr, rules: DerivationRules = EMPTY_RULES) -> dict[Coord, Expr]:
    """The D_x image of x and of every jet and dependent symbol e mentions."""
    images = {K.x: K.ONE}
    for c in sorted(e.coords(), key=lambda c: c.key):
        if c.kind == K.KIND_JET:
            if c.order + 1 > K.MAX_JET_ORDER:
                raise JetCalcError(f"jet order overflow promoting {c}")
            promoted = K.jet(c.name, c.order + 1)
            images[c] = rules.constraints.get(promoted) or Expr.atom(promoted)
        elif c.kind == K.KIND_DEP:
            rule = rules.x_rules.get(c)
            if rule is None:
                raise MissingRuleError("x-rule", c, c)
            images[c] = rule
    return images


def total_dx(e: Expr, rules: DerivationRules = EMPTY_RULES) -> Expr:
    """Total x-derivative: partial in x plus jet promotion plus x-rules."""
    return e.derive(dx_images(e, rules))


def prolonged_images(coords: Iterable[Coord], characteristics: Mapping[Coord, Expr],
                     rules: DerivationRules = EMPTY_RULES, *, kind: str) -> dict[Coord, Expr]:
    """Each jet or dependent symbol c of coords, in order, maps to D_x^k of
    its base's characteristic, k = c.order; a jet's base is its order-0 jet.
    Each base's chain of total x-derivatives is built once per call.  A
    base without a characteristic raises MissingRuleError, which names the
    characteristics' `kind` (a t-rule, a direction)."""
    images, chains = {}, {}
    for c in coords:
        base = K.jet(c.name, 0) if c.kind == K.KIND_JET else c
        if base not in characteristics:
            raise MissingRuleError(kind, base, c)
        chain = chains.setdefault(base, [characteristics[base]])
        while len(chain) <= c.order:
            chain.append(total_dx(chain[-1], rules))
        images[c] = chain[c.order]
    return images


def factored_violations(e: Expr, base: str, top: int) -> tuple[bool, list[Coord]]:
    """Whether e pairs base with base2 (its partials in them sum to zero),
    and the jets base_k, 0 < k <= top and k != 2, that e depends on."""
    return _held_violations(e, e.coords(), base, top)


def _held_violations(e: Expr, held: set, base: str, top: int) -> tuple[bool, list[Coord]]:
    # a partial in a jet e does not hold (held = e.coords()) is exactly zero
    pair = [c for c in (K.jet(base, 0), K.jet(base, 2)) if c in held]
    jets = [c for c in (K.jet(base, k) for k in range(1, top + 1) if k != 2) if c in held]
    return not pair or e.constant_along(*pair), [c for c in jets if not e.constant_along(c)]


def check_factored_dependence(e: Expr) -> list[str]:
    """Why e's u, v dependence fails to factor through u - u2, v - v2."""
    held = e.coords()
    top = max((c.order for c in held if c.kind == K.KIND_JET), default=0)
    problems = []
    for base in ("u", "v"):
        pairs, jets = _held_violations(e, held, base, top)
        problems += [] if pairs else [f"{base} + {base}2 pairing fails"]
        problems += [f"depends on {c}" for c in jets]
    return problems


def dt_images(e: Expr, sys: PdeSystem | None, rules: DerivationRules = EMPTY_RULES) -> dict[Coord, Expr]:
    """The D_t image modulo the system of t and of every symbol e mentions.

    The u, v dependence must factor through u - u2 and v - v2 (then
    (u - u2)_t is replaced by F and (v - v2)_t by G); m, n jets and dependent
    auxiliaries follow as the `prolonged_images` of their t-rules.
    """
    coords = e.coords()
    images = {K.t: K.ONE}
    uv_jets = [c for c in coords if c.kind == K.KIND_JET and c.name in ("u", "v")]
    if uv_jets:
        if sys is None:
            raise IllFormedDependenceError(
                "expression depends on u, v jets but no system was supplied"
            )
        if any(c.kind == K.KIND_JET and c.name in ("m", "n") for c in rules.t_rules):
            raise IllFormedDependenceError(
                "bare u, v jets have no local t-image when m, n are first-class; "
                "close the expression through the constraints first"
            )
        problems = check_factored_dependence(e)
        if problems:
            raise IllFormedDependenceError(
                "t-derivative not locally expressible: " + "; ".join(problems)
            )
        images[K.u(0)] = sys.F
        images[K.v(0)] = sys.G
    moving = [c for c in coords if c.kind == K.KIND_DEP or c.kind == K.KIND_JET and c.name in ("m", "n")]
    images.update(prolonged_images(sorted(moving, key=lambda c: c.key), rules.t_rules, rules, kind="t-rule"))
    return images


def total_dt_mod_system(e: Expr, sys: PdeSystem | None, rules: DerivationRules = EMPTY_RULES) -> Expr:
    """Total t-derivative reduced modulo the evolution system (see `dt_images`)."""
    return e.derive(dt_images(e, sys, rules))


def exterior_d_mod_system(
    sys: PdeSystem | None, equations: Iterable[tuple], rules: DerivationRules = EMPTY_RULES
) -> list[Expr]:
    """The dx ^ dt coefficient D_x b - D_t a - c * theta ^ phi modulo the
    system for each (omega = (a, b), c, theta, phi) of equations, summed as
    one fraction (`kernel.fraction_sum`) and reduced once.  Every wedge
    product is formed before any derivative.  Valid once the dx-coefficient
    dependence conditions hold, so that no du_k ^ dx terms survive."""
    equations = list(equations)
    wedges = [[(p.num.mul(q.num).scale(k, 1), p.den.mul(q.den))
               for k, p, q in ((-c, theta[0], phi[1]), (c, theta[1], phi[0]))]
              for _, c, theta, phi in equations]
    out = []
    for ((a, b), *_), products in zip(equations, wedges):
        dx, (dt_num, dt_den) = b.derive_pair(dx_images(b, rules)), a.derive_pair(dt_images(a, sys, rules))
        out.append(K.fraction_sum([dx, (dt_num.neg(), dt_den), *products]))
    return out


def check_rule_compatibility(
    rules: DerivationRules, sys: PdeSystem | None = None
) -> dict[Coord, Expr]:
    """Residuals D_t(x_rule(s)) - D_x(t_rule(s)) for every doubly-ruled symbol.

    All-zero residuals certify that the x- and t-rules are consistent on
    solutions of the system.
    """
    coords = [c for c in rules.x_rules if c in rules.t_rules]
    zero_form = (K.ZERO, K.ZERO)
    omegas = [((rules.x_rules[c], rules.t_rules[c]), 1, zero_form, zero_form) for c in coords]
    return {c: -r for c, r in zip(coords, exterior_d_mod_system(sys, omegas, rules))}
