"""Classification constructors and catalog regression tests."""

import pytest

from pssurf import classify, kernel as K
from pssurf.classify import (
    HypothesisViolationError,
    Thm34Input,
    Thm36Input,
    build_theorem34,
    build_theorem35,
    build_theorem36,
    build_theorem37,
    catalog,
    catalog_entry,
    check_corollary33,
)
from pssurf.forms import check_lemma31
from pssurf.jetcalc import PdeSystem, total_dx
from pssurf.kernel import Expr, parse
from pssurf.laxzoo import mat_is_zero, zero_curvature_residual


class TestTheorem34:
    def test_reproduces_cubic_flow(self):
        entry = catalog_entry("cubic-ch2")
        (f11, f12), (_, f22), (f31, _) = entry.forms.f
        sys, forms = build_theorem34(
            Thm34Input(g=f11, h=f31, L=f12, M=f22, eta=Expr.const(-1), delta=1, orders=(3, 3))
        )
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G
        assert check_lemma31(forms, sys).passed

    def test_reproduces_factored_flow(self):
        entry = catalog_entry("factored-ch2")
        (f11, f12), (_, f22), (f31, _) = entry.forms.f
        sys, forms = build_theorem34(
            Thm34Input(g=f11, h=f31, L=f12, M=f22, eta=K.ONE, delta=1, orders=(2, 2))
        )
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G

    def test_reproduces_exponential_frame_flow(self):
        # the coupled cubic entry keeps the spectral parameter symbolic and
        # carries exponential frame factors; the constructor must still
        # round-trip exactly
        entry = catalog_entry("song-qu-qiao")
        (f11, f12), (_, f22), (f31, _) = entry.forms.f
        sys, forms = build_theorem34(
            Thm34Input(
                g=f11, h=f31, L=f12, M=f22,
                eta=Expr.atom(K.eta), delta=1, orders=(3, 3),
            )
        )
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G

    def test_reproduces_skew_flow(self):
        entry = catalog_entry("skew-ch2")
        (f11, f12), (_, f22), (f31, _) = entry.forms.f
        sys, _ = build_theorem34(
            Thm34Input(g=f11, h=f31, L=f12, M=f22, eta=K.ONE, delta=1, orders=(3, 3))
        )
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G

    def test_degenerate_wronskian_rejected(self):
        g = parse("u - u2")
        with pytest.raises(HypothesisViolationError) as exc:
            build_theorem34(Thm34Input(g=g, h=g, L=parse("u1"), M=parse("u"), eta=K.ONE))
        assert "wronskian" in exc.value.condition

    def test_synthetic_input_self_verifies(self):
        sys, forms = build_theorem34(
            Thm34Input(
                g=parse("u - u2"),
                h=parse("v - v2"),
                L=parse("u1 + v"),
                M=parse("u + v"),
                eta=Expr.atom(K.eta),
                delta=1,
                orders=(3, 3),
            )
        )
        assert check_lemma31(forms, sys).passed
        assert check_corollary33(sys)


class TestTheorem35:
    def test_reduced_dependence_problems_in_jet_order(self):
        with pytest.raises(HypothesisViolationError) as exc:
            build_theorem35(
                Thm34Input(
                    g=parse("u + u2 + u1*v3 + v1"), h=parse("v - v2"), L=parse("u1"),
                    M=parse("u + v"), eta=K.ONE, orders=(3, 3),
                )
            )
        assert exc.value.condition == "g reduced dependence"
        assert exc.value.residual == (
            "u + u2 pairing fails; depends on u1; depends on v1; depends on v3"
        )

    def test_constant_m_rejected(self):
        with pytest.raises(HypothesisViolationError) as exc:
            build_theorem35(
                Thm34Input(g=parse("u - u2"), h=parse("v - v2"), L=parse("u1"), M=K.ONE, eta=K.ONE)
            )
        assert "non-constant" in exc.value.condition

    def test_synthetic_input_both_signs(self):
        for delta in (1, -1):
            sys, forms = build_theorem35(
                Thm34Input(
                    g=parse("u - u2"),
                    h=parse("v - v2"),
                    L=parse("u1 + v"),
                    M=parse("u + v"),
                    eta=Expr.atom(K.eta),
                    delta=delta,
                    orders=(3, 3),
                )
            )
            report = check_lemma31(forms, sys)
            assert report.passed, (delta, [c.condition_id for c in report.failures()])

    def test_delta_changes_system(self):
        def build(delta):
            sys, _ = build_theorem35(
                Thm34Input(
                    g=parse("u - u2"),
                    h=parse("v - v2"),
                    L=parse("u1 + v"),
                    M=parse("u + v"),
                    eta=Expr.atom(K.eta),
                    delta=delta,
                    orders=(3, 3),
                )
            )
            return sys

        assert build(1).F != build(-1).F


    def test_generic_condition_decided_term_by_term(self):
        # L_u2^2 + N_u2^2 = 1 + i^2 = 0, yet both top jets are present
        L, N = parse("u2 + v2"), parse("i*u2 + i*v2")
        classify._generic_condition(L, N, 3, 3)
        with pytest.raises(HypothesisViolationError, match="top-order coefficients"):
            classify._generic_condition(L, parse("i*u2"), 3, 4)


class TestTheorem36:
    def _sqq_input(self):
        Q = parse("u1*v1 - u*v + u*v1 - u1*v")
        return Thm36Input(
            g=parse("(u-u2) + (v-v2)"),
            h=parse("-(u-u2) + (v-v2)"),
            A=-Q,
            L1=parse("1/2*(u + u1 + v - v1)"),
            N1=parse("-1/2*(u + u1 - v + v1)"),
            M=K.ONE / 2 + Q,
            eta=K.ONE,
            delta=1,
        )

    def test_coupled_cubic_family_member(self):
        sys, forms, lax = build_theorem36(self._sqq_input())
        entry = catalog_entry("song-qu-qiao")
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G
        assert mat_is_zero(zero_curvature_residual(lax, sys))

    def test_linear_flow_from_trivial_data(self):
        sys, forms, lax = build_theorem36(
            Thm36Input(
                g=parse("u - u2"),
                h=parse("v - v2"),
                A=K.ONE,
                L1=K.ZERO,
                N1=K.ZERO,
                M=K.ONE,
                eta=K.ONE,
                delta=1,
            )
        )
        assert sys.F.diff(K.u(3)) == K.ONE
        assert sys.F.diff(K.v(3)).is_zero()
        assert (sys.F - parse("u3 - u1 - 2*(v - v2)")).is_zero()
        assert mat_is_zero(zero_curvature_residual(lax, sys))

    def test_exactness_constraint_enforced(self):
        bad = self._sqq_input()
        bad = Thm36Input(
            g=bad.g, h=bad.h, A=bad.A, L1=bad.L1 + parse("u"), N1=bad.N1,
            M=bad.M, eta=bad.eta, delta=bad.delta,
        )
        with pytest.raises(HypothesisViolationError):
            build_theorem36(bad)

    def test_reproduces_spherical_entry_directly(self):
        # the spherical entry fits this pattern with the constant read as 1
        entry = catalog_entry("mch-type")
        (f11, f12), (_, f22), (f31, f32) = entry.forms.f
        A = -parse("-1/2*(u^2 + v^2 - u1^2 - v1^2) - u*v1 + u1*v")
        inp = Thm36Input(
            g=f11, h=f31, A=A,
            L1=f12 + A * f11, N1=f32 + A * f31, M=f22,
            eta=K.ONE, delta=-1,
        )
        sys, forms, lax = build_theorem36(inp)
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G
        assert mat_is_zero(zero_curvature_residual(lax, sys))

    def test_cross_derivative_violation_detected(self):
        with pytest.raises(HypothesisViolationError) as exc:
            build_theorem36(
                Thm36Input(
                    g=parse("u - u2"),
                    h=parse("v - v2"),
                    A=K.ONE,
                    L1=parse("v1"),
                    N1=parse("u1"),
                    M=parse("u*v"),
                    eta=K.ONE,
                    delta=1,
                )
            )
        assert exc.value.condition in (
            "cross-derivative compatibility of g*N1 - h*L1",
            "D_x M + h*L1 - g*N1 vanishes",
        )


class TestTheorem37:
    def test_incompatible_data_rejected(self):
        with pytest.raises(HypothesisViolationError):
            build_theorem37(
                Thm36Input(
                    g=parse("u - u2"),
                    h=parse("v - v2"),
                    A=K.ONE,
                    L1=parse("u1"),
                    N1=parse("v1"),
                    M=parse("u*v"),
                    eta=K.ONE,
                    delta=1,
                )
            )

    def test_reproduces_spherical_entry_through_frame_rotation(self):
        # the spherical catalog entry carries its constant slot in the
        # middle row; the triple (w1, -w3, w2) moves it to the third row,
        # which is this constructor's pattern, with the same curvature sign
        entry = catalog_entry("mch-type")
        (f11, f12), (f21, f22), (f31, f32) = entry.forms.f
        g37, L37 = f11, f12
        h37, N37 = -f31, -f32
        M37 = f22
        A = -parse("-1/2*(u^2 + v^2 - u1^2 - v1^2) - u*v1 + u1*v")
        inp = Thm36Input(
            g=g37,
            h=h37,
            A=A,
            L1=L37 + A * g37,
            N1=N37 + A * h37,
            M=M37,
            eta=K.ONE,
            delta=-1,
        )
        sys, forms, lax = build_theorem37(inp)
        assert sys.F == entry.system.F
        assert sys.G == entry.system.G
        assert check_lemma31(forms, sys).passed
        assert mat_is_zero(zero_curvature_residual(lax, sys))


class TestCorollary33:
    def test_catalog_flow_is_linear_in_top_jets(self):
        assert check_corollary33(catalog_entry("cubic-ch2").system)

    def test_quadratic_top_jet_detected(self):
        sys = PdeSystem((2, 2), parse("u2^2"), parse("v2"))
        assert not check_corollary33(sys)

    def test_generic_linear_shape(self):
        sys = PdeSystem(
            (3, 3),
            parse("u*v + (u1 + v)*u3 + x*v3"),
            parse("v1 + u3 - v3"),
        )
        assert check_corollary33(sys)


class TestCatalog:
    def test_entry_names(self):
        names = [e.name for e in catalog()]
        assert names == ["song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2"]
        assert len(names) == 5

    def test_song_qu_qiao_flux_form(self):
        entry = catalog_entry("song-qu-qiao")
        Q = parse("u1*v1 - u*v + u*v1 - u1*v")
        assert entry.system.F == total_dx(parse("(u - u2)") * Q)
        assert entry.system.G == total_dx(parse("(v - v2)") * Q)

    def test_spherical_entry_sign(self):
        entry = catalog_entry("mch-type")
        assert entry.forms.delta == -1

    def test_theorem_eta_metadata(self):
        assert catalog_entry("cubic-ch2").forms.f[1][0] == Expr.const(-1)
        assert catalog_entry("factored-ch2").forms.f[1][0] == K.ONE
        assert catalog_entry("skew-ch2").forms.f[1][0] == K.ONE
        assert catalog_entry("song-qu-qiao").forms.f[1][0] == Expr.atom(K.eta)

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            catalog_entry("not-a-system")

    def test_print_parse_round_trip_for_all_catalog_expressions(self):
        for entry in catalog():
            pool = [entry.system.F, entry.system.G]
            for a, b in entry.forms.f:
                pool += [a, b]
            if entry.lax is not None:
                pool += [e for row in entry.lax.X for e in row]
                pool += [e for row in entry.lax.T for e in row]
            for e in pool:
                assert parse(str(e)) == e


class TestReductions:
    def _mch_rhs(self):
        return total_dx(parse("(u - u2)*(u^2 - u1^2)"))

    def test_antidiagonal_reduction(self):
        # v -> -u collapses the coupled cubic flux flow onto the modified
        # CH equation m_t = [m (u^2 - u1^2)]_x
        entry = catalog_entry("song-qu-qiao")
        sub = {K.v(k): -Expr.atom(K.u(k)) for k in range(4)}
        F_red = entry.system.F.substitute(sub)
        G_red = entry.system.G.substitute(sub)
        assert F_red == self._mch_rhs()
        assert (G_red + F_red).is_zero()  # the v-equation stays consistent

    def test_proportional_reduction(self):
        # v -> 2u reduces the cubic two-component flow the same way
        entry = catalog_entry("cubic-ch2")
        sub = {K.v(k): 2 * Expr.atom(K.u(k)) for k in range(4)}
        F_red = entry.system.F.substitute(sub)
        G_red = entry.system.G.substitute(sub)
        assert F_red == self._mch_rhs()
        assert (G_red - 2 * F_red).is_zero()

    def test_diagonal_reduction_with_transport(self):
        # v -> u sends the spherical entry to the cubic CH equation with a
        # transport term of strength -2
        entry = catalog_entry("mch-type")
        sub = {K.v(k): Expr.atom(K.u(k)) for k in range(4)}
        F_red = entry.system.F.substitute(sub)
        expected = -2 * Expr.atom(K.u(1)) - self._mch_rhs()
        assert F_red == expected
