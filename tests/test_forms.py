"""Form algebra and structure-equation verifier tests."""

import pytest

from pssurf import kernel as K
from pssurf.classify import catalog_entry
from pssurf.forms import (
    AssociatedForms,
    check_lemma31,
    exterior_d_mod_system,
    structure_residuals,
    wedge,
)
from pssurf.jetcalc import IllFormedDependenceError, PdeSystem
from pssurf.kernel import Expr, parse


class TestWedge:
    def test_antisymmetry(self):
        w = (parse("u"), parse("v + x"))
        assert wedge(w, w).is_zero()

    def test_dx_wedge_dt(self):
        dx = (K.ONE, K.ZERO)
        dt = (K.ZERO, K.ONE)
        assert wedge(dx, dt) == K.ONE

    def test_cubic_flow_frame_area(self):
        entry = catalog_entry("cubic-ch2")
        w1, w2, _ = entry.forms.f
        area = wedge(w1, w2)
        assert not area.is_zero()
        # numeric spot check against float arithmetic of the components
        point = {
            K.x: 0.3, K.t: 0.0, K.eta: 1.3,
            K.u(0): 1.1, K.u(1): 0.4, K.u(2): -0.2,
            K.v(0): 0.8, K.v(1): -0.5, K.v(2): 0.1,
        }
        expected = (
            w1[0].eval(point) * w2[1].eval(point)
            - w1[1].eval(point) * w2[0].eval(point)
        )
        assert area.eval(point) == pytest.approx(expected, rel=1e-12)


class TestExteriorDerivative:
    def test_bare_u_rejected_without_system(self):
        with pytest.raises(IllFormedDependenceError):
            exterior_d_mod_system((parse("u"), K.ZERO), None)

    def test_bare_u_rejected_with_system(self):
        entry = catalog_entry("factored-ch2")
        with pytest.raises(IllFormedDependenceError):
            exterior_d_mod_system((parse("u"), K.ZERO), entry.system)

    def test_constant_dx_coefficient(self):
        entry = catalog_entry("factored-ch2")
        f22 = entry.forms.f[1][1]
        two = exterior_d_mod_system((Expr.atom(K.eta), f22), entry.system)
        from pssurf.jetcalc import total_dx

        assert two == total_dx(f22)

    def test_spherical_structure_equation(self):
        entry = catalog_entry("mch-type")
        w1, w2, w3 = entry.forms.f
        d1 = exterior_d_mod_system(w1, entry.system)
        assert (d1 - wedge(w3, w2)).is_zero()


class TestLemma31:
    def test_catalog_entry_passes(self):
        entry = catalog_entry("song-qu-qiao")
        report = check_lemma31(entry.forms, entry.system)
        assert report.passed

    def test_wrong_curvature_sign_fails(self):
        entry = catalog_entry("song-qu-qiao")
        flipped = AssociatedForms(entry.forms.f, -1)
        report = check_lemma31(flipped, entry.system)
        assert not report.passed
        failed = {c.condition_id for c in report.failures()}
        assert "structure-residual-3" in failed

    def test_perturbed_coefficient_fails(self):
        entry = catalog_entry("cubic-ch2")
        (f11, f12), (f21, f22), (f31, f32) = entry.forms.f
        bad = AssociatedForms(((f11, f12), (f21, f22 + parse("u")), (f31, f32)), 1)
        report = check_lemma31(bad, entry.system)
        assert not report.passed
        failed = {c.condition_id for c in report.failures()}
        assert "structure-residual-2" in failed
        # the residual picks up exactly D_x(u) = u1
        res = dict((c.condition_id, c) for c in report.conditions)
        assert "u1" in res["structure-residual-2"].residual_text

    def test_dx_coefficient_gate(self):
        entry = catalog_entry("cubic-ch2")
        (f11, f12), (f21, f22), (f31, f32) = entry.forms.f
        bad = AssociatedForms(((f11 + parse("u1"), f12), (f21, f22), (f31, f32)), 1)
        report = check_lemma31(bad, entry.system)
        assert not report.passed
        failed = {c.condition_id for c in report.failures()}
        assert "f11-free-of-odd-jets" in failed
        assert "structure-residuals" in failed  # gated, not computed

    def test_odd_jet_and_top_order_terms_decided_one_by_one(self):
        # 1^2 + i^2 = 0: a sum of squared partials would let these pass
        entry = catalog_entry("cubic-ch2")
        (f11, f12), rest2, rest3 = entry.forms.f
        bad = AssociatedForms(
            ((f11 + parse("u1 + i*u3"), f12 + parse("u3 + i*v3")), rest2, rest3), 1
        )
        report = check_lemma31(bad, entry.system)
        res = {c.condition_id: c for c in report.conditions}
        assert not res["f11-free-of-odd-jets"].verdict
        assert res["f11-free-of-odd-jets"].residual_text == "d/du1 = 1; d/du3 = i"
        assert not res["f12-free-of-top-order"].verdict
        assert res["f21-free-of-odd-jets"].residual_text == "0"

    def test_failing_dependence_reports_keep_their_text(self):
        # a failing condition prints the partials as summed Exprs, so
        # pairing u with u2 reads differently from the combined derivation
        # (eta*i - u + u2)/(2*u2*eta*i + u2^2 - eta^2)
        entry = catalog_entry("cubic-ch2")
        (f11, f12), rest2, rest3 = entry.forms.f

        def report(f11_, f12_, system=entry.system):
            forms = AssociatedForms(((f11_, f12_), rest2, rest3), 1)
            return {c.condition_id: c for c in check_lemma31(forms, system).conditions}

        res = report(f11 + parse("u/(u2 + i*eta)"), f12)["f11-pairs-u-with-u2"]
        assert not res.verdict
        assert res.residual_text == (
            "(-2*u*u2*eta*i + 3*u2^2*eta*i - eta^3*i - u*u2^2 + u*eta^2 + u2^3 - 3*u2*eta^2)"
            "/(4*u2^3*eta*i - 4*u2*eta^3*i + u2^4 - 6*u2^2*eta^2 + eta^4)"
        )
        res = report(f11 + parse("v*eta"), f12)["f11-pairs-v-with-v2"]
        assert (res.verdict, res.residual_text) == (False, "eta")
        res = report(f11, f12 + parse("u3*v"))["f12-free-of-top-order"]
        assert (res.verdict, res.residual_text) == (False, "d/du3 = v")
        # the forms gate looks at jets up to the system's orders (3, 3), so
        # only the t-derivative sees u5
        res = report(f11 + parse("u5"), f12)
        assert [(c.condition_id, c.residual_text) for c in res.values() if not c.verdict] == [
            ("structure-residuals", "t-derivative not locally expressible: depends on u5")
        ]

    def test_large_minors_are_reported_not_raised(self):
        entry = catalog_entry("cubic-ch2")
        (_, f12), rest2, rest3 = entry.forms.f
        f11 = parse("(u - u2)/(eta + i) + u2^2/(1 + (v - v2)^2) + u1*v1/(u - u2 + 1)")
        report = check_lemma31(AssociatedForms(((f11, f12), rest2, rest3), 1), entry.system)
        assert not report.passed
        # the squared minors pass the term bound, so the minors are printed
        jac = {c.condition_id: c for c in report.conditions}["frame-jacobian-nondegenerate"]
        assert jac.verdict and jac.residual_text.startswith("minors: ")

    def test_frame_jacobian_any_nonzero_minor(self):
        # rows (u, v, i*u): minor(0, 1) = 1, minor(1, 2) = -i, and the sum of
        # their squares cancels
        entry = catalog_entry("cubic-ch2")
        rows = (parse("u"), parse("v"), parse("i*u"))
        forms = AssociatedForms(tuple((r, K.ZERO) for r in rows), 1)
        res = {c.condition_id: c for c in check_lemma31(forms, entry.system).conditions}
        jac = res["frame-jacobian-nondegenerate"]
        assert jac.verdict
        assert jac.residual_text == "minors: 1, -i, 0"
        flat = AssociatedForms(tuple((r, K.ZERO) for r in (rows[0], rows[0], rows[2])), 1)
        res = {c.condition_id: c for c in check_lemma31(flat, entry.system).conditions}
        assert not res["frame-jacobian-nondegenerate"].verdict

    def test_swap_invariance(self):
        for name in ("cubic-ch2", "mch-type", "factored-ch2"):
            entry = catalog_entry(name)
            # the triple (omega2, omega1, -omega3) satisfies the same equations
            (f11, f12), (f21, f22), (f31, f32) = entry.forms.f
            swapped = AssociatedForms(((f21, f22), (f11, f12), (-f31, -f32)), entry.forms.delta)
            report = check_lemma31(swapped, entry.system)
            assert report.passed, name

    def test_report_serialization(self):
        entry = catalog_entry("factored-ch2")
        report = check_lemma31(entry.forms, entry.system)
        data = report.as_dict()
        assert data["passed"] is True
        ids = {c["condition_id"] for c in data["conditions"]}
        assert "metric-nondegenerate" in ids
        table = report.to_table()
        assert "overall: pass" in table

    def test_momentum_pairing_consequence(self):
        # dx-coefficients behave as functions of u - u2 and v - v2 only
        for entry_name in ("song-qu-qiao", "cubic-ch2", "skew-ch2"):
            entry = catalog_entry(entry_name)
            for fi1, _ in entry.forms.f:
                assert (fi1.diff(K.u(0)) + fi1.diff(K.u(2))).is_zero()
                assert (fi1.diff(K.v(0)) + fi1.diff(K.v(2))).is_zero()

    def test_structure_residuals_zero_with_symbolic_eta(self):
        for entry_name in ("cubic-ch2", "skew-ch2"):
            entry = catalog_entry(entry_name)
            r1, r2, r3 = structure_residuals(entry.forms, entry.system)
            assert K.eta in (entry.forms.f[0][0].coords())
            assert r1.is_zero() and r2.is_zero() and r3.is_zero()
