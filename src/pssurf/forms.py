"""Differential 1- and 2-forms in dx, dt and the structure-equation verifier.

A system u_t - u_{2,t} = F, v_t - v_{2,t} = G describes pseudospherical
(delta = +1) or spherical (delta = -1) surfaces when three 1-forms
omega_i = f_i1 dx + f_i2 dt satisfy the constant-curvature structure
equations on solutions.  A 1-form is its (dx, dt) coefficient pair and a
2-form its dx ^ dt coefficient.  The verifier checks, for supplied f_ij:
the dependence conditions (jetcalc's ``factored_violations``, with each
partial decided on its numerator), the nondegeneracy of the frame Jacobian,
the three structure equations (the table ``structure_equations``, which the
constructors solve for F and G; ``exterior_d_mod_system``: one fraction
gives each verdict and text), and the metric nondegeneracy; "nonzero"
conditions are certified as not-identically-zero in the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import kernel as K
from .jetcalc import IllFormedDependenceError, PdeSystem, dt_images, dx_images, factored_violations
from .kernel import Expr


def exterior_d_mod_system(sys: PdeSystem | None, equations: Iterable[tuple]) -> list[Expr]:
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
        dx, (dt_num, dt_den) = b._derived(dx_images(b)), a._derived(dt_images(a, sys))
        out.append(K.fraction_sum([dx, (dt_num.neg(), dt_den), *products]))
    return out


@dataclass(frozen=True)
class AssociatedForms:
    """The (dx, dt) pairs (f_i1, f_i2) of the three 1-forms, with the curvature sign."""

    f: tuple[tuple[Expr, Expr], tuple[Expr, Expr], tuple[Expr, Expr]]
    delta: int


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    residual_text: str
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "residual_text": self.residual_text,
            "verdict": "pass" if self.verdict else "fail",
        }


@dataclass(frozen=True)
class Lemma31Report:
    conditions: tuple[ConditionReport, ...]
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.verdict for c in self.conditions))

    @property
    def zero_curvature(self) -> bool:
        """Whether the pair `laxzoo.from_forms` packs at the forms' sign is flat: its curvature
        is -1/2 pack(r1, r2, r3), so True only when all three residuals were computed and vanish."""
        return [c.verdict for c in self.conditions if c.condition_id.startswith("structure-residual-")] == [True] * 3

    def failures(self) -> list[ConditionReport]:
        return [c for c in self.conditions if not c.verdict]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "conditions": [c.as_dict() for c in self.conditions]}

    def to_table(self) -> str:
        width = max(len(c.condition_id) for c in self.conditions)
        lines = []
        for c in self.conditions:
            mark = "pass" if c.verdict else "FAIL"
            residual = c.residual_text
            if len(residual) > 72:
                residual = residual[:69] + "..."
            lines.append(f"{c.condition_id.ljust(width)}  {mark}  {residual}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def wronskian(g: Expr, h: Expr) -> Expr:
    return g.diff(K.u(0)) * h.diff(K.v(0)) - g.diff(K.v(0)) * h.diff(K.u(0))


def _dx_coefficient_conditions(
    forms: AssociatedForms, orders: tuple[int, int]
) -> Iterable[ConditionReport]:
    mo, no = orders
    for i, (fi1, fi2) in enumerate(forms.f, start=1):
        odd = []
        for base, top in (("u", mo), ("v", no)):
            pairs, jets = factored_violations(fi1, base, top)
            text = "0" if pairs else str(fi1.diff(K.jet(base, 0)) + fi1.diff(K.jet(base, 2)))
            yield ConditionReport(f"f{i}1-pairs-{base}-with-{base}2", text, pairs)
            odd += jets
        # each partial is decided on its own (a sum of squares can cancel
        # over Q(i, sqrt 2)); a failure lists the nonzero ones
        top = [c for c in (K.u(mo), K.v(no)) if not fi2.constant_along(c)]
        for cond, e, nonzero in (("1-free-of-odd-jets", fi1, odd), ("2-free-of-top-order", fi2, top)):
            text = "; ".join(f"d/d{c} = {e.diff(c)}" for c in nonzero) or "0"
            yield ConditionReport(f"f{i}{cond}", text, not nonzero)


def _frame_jacobian(forms: AssociatedForms) -> ConditionReport:
    """Nondegenerate when any 2x2 minor of the (d/du, d/dv) Jacobian of the
    dx-coefficients is nonzero.  The text is the sum of squared minors, or
    the minors themselves where that sum cancels over Q(i, sqrt 2) or is
    too large to build."""
    rows = [f[0] for f in forms.f]
    minors = [wronskian(rows[i], rows[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    nondegenerate = any(not m.is_zero() for m in minors)
    try:
        squares = minors[0] ** 2 + minors[1] ** 2 + minors[2] ** 2
        text = "" if nondegenerate and squares.is_zero() else str(squares)
    except K.BoundError:
        text = ""
    text = text or "minors: " + ", ".join(map(str, minors))
    return ConditionReport("frame-jacobian-nondegenerate", text, nondegenerate)


def structure_equations(forms: AssociatedForms) -> tuple:
    """(omega, c, theta, phi) of d(omega) = c * theta ^ phi for each structure equation."""
    w1, w2, w3 = forms.f
    return (w1, 1, w3, w2), (w2, 1, w1, w3), (w3, forms.delta, w1, w2)


def check_lemma31(forms: AssociatedForms, sys: PdeSystem) -> Lemma31Report:
    """Full verification that (sys, forms) describes pseudospherical or
    spherical surfaces.  Failures are reported, never raised."""
    conditions = list(_dx_coefficient_conditions(forms, sys.orders))
    gate_ok = all(c.verdict for c in conditions)

    conditions.append(_frame_jacobian(forms))

    if gate_ok:
        try:
            residuals = exterior_d_mod_system(sys, structure_equations(forms))
            for k, r in enumerate(residuals, start=1):
                conditions.append(ConditionReport(f"structure-residual-{k}", str(r), r.is_zero()))
        except IllFormedDependenceError as err:
            conditions.append(ConditionReport("structure-residuals", str(err), False))
    else:
        conditions.append(
            ConditionReport(
                "structure-residuals",
                "skipped: dx-coefficient conditions failed",
                False,
            )
        )

    (f11, f12), (f21, f22), _ = forms.f
    metric = f11 * f22 - f12 * f21
    conditions.append(
        ConditionReport("metric-nondegenerate", str(metric), not metric.is_zero())
    )
    return Lemma31Report(tuple(conditions))
