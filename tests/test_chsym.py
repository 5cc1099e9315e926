"""Nonlocal-symmetry pipeline tests for the cubic two-component flow."""

import math
import random

import pytest

from pssurf import chsym
from pssurf import kernel as K
from pssurf.classify import catalog_entry
from pssurf.jetcalc import (
    IllFormedDependenceError,
    MissingRuleError,
    check_rule_compatibility,
    total_dt_mod_system,
    total_dx,
)
from pssurf.kernel import Expr, parse
from test_jetcalc import _seeded_fractions
from test_kernel import _count_calls


def P(s: str) -> Expr:
    return parse(s, mn_mode="jets")


class TestLinearProblem:
    def test_matrix_entries(self):
        # literal oracle: the matrices are derived from the catalog's Lax pair
        Mmat, Nmat, _ = chsym.linear_problem()
        alpha = P("1/(2*eta^2) + 1/4*(u*v - u1*v1 + u*v1 - u1*v)")
        beta = P("u*v - u1*v1")
        assert Mmat == (
            (P("-1/2"), P("1/2*eta*m")),
            (P("-1/2*eta*n"), P("1/2")),
        )
        assert Nmat == (
            (-alpha, P("eta/4*m") * beta + P("(u - u1)/(2*eta)")),
            (-P("eta/4*n") * beta - P("(v + v1)/(2*eta)"), alpha),
        )

    def test_system_is_the_catalog_entry(self):
        sys = chsym.ch2_system()
        assert sys.uv_system == catalog_entry("cubic-ch2").system
        # literal oracle for the flow the catalog entry carries
        mh, nh = parse("u - u2"), parse("v - v2")
        B, C = parse("u*v - u1*v1"), parse("u*v1 - u1*v")
        assert sys.uv_system.F == total_dx(mh * B) / 2 - mh * C / 2
        assert sys.uv_system.G == total_dx(nh * B) / 2 + nh * C / 2
        assert sys.uv_system.orders == (3, 3)

    def test_compatibility_residuals_vanish(self):
        _, _, rules = chsym.linear_problem()
        res = check_rule_compatibility(rules, None)
        assert set(res) == {K.phi1, K.phi2, K.phih1, K.phih2, K.p}
        for coord, r in res.items():
            assert r.is_zero(), str(coord)

    def test_momentum_rules_consistent_with_jet_flow(self):
        # closing the u, v jet right-hand sides through the constraints must
        # reproduce the first-class momentum rules
        sys = chsym.ch2_system()
        _, _, rules = chsym.linear_problem()
        assert rules.close(sys.uv_system.F) == sys.m_t
        assert rules.close(sys.uv_system.G) == sys.n_t
        assert rules.close(parse("u - u2")) == P("m")

    def test_bare_jet_rejected_when_mn_first_class(self):
        # m and n have t-rules here, so u1 has no local t-image at all
        _, _, rules = chsym.linear_problem()
        system = chsym.ch2_system().uv_system
        with pytest.raises(IllFormedDependenceError, match="first-class"):
            total_dt_mod_system(parse("u1"), system, rules)

    def test_perturbed_rule_breaks_compatibility(self):
        Mmat, Nmat, rules = chsym.linear_problem()
        from pssurf.jetcalc import DerivationRules

        bad_t = dict(rules.t_rules)
        bad_t[K.phi1] = bad_t[K.phi1] + P("phi1")
        bad = DerivationRules(
            x_rules=rules.x_rules,
            t_rules=bad_t,
            constraints=rules.constraints,
        )
        res = check_rule_compatibility(bad, None)
        assert not res[K.phi1].is_zero()

    def test_adjoint_reduction_recovers_linear_problem(self):
        # substituting (phih1, phih2) = (phi2, -phi1) maps the adjoint
        # x-rules onto the original ones
        _, _, rules = chsym.linear_problem()
        sub = chsym.reduction_to_adjoint()
        reduced_h1 = rules.x_rules[K.phih1].substitute(sub)
        reduced_h2 = rules.x_rules[K.phih2].substitute(sub)
        assert reduced_h1 == rules.x_rules[K.phi2]
        assert reduced_h2 == -rules.x_rules[K.phi1]
        reduced_t1 = rules.t_rules[K.phih1].substitute(sub)
        reduced_t2 = rules.t_rules[K.phih2].substitute(sub)
        assert reduced_t1 == rules.t_rules[K.phi2]
        assert reduced_t2 == -rules.t_rules[K.phi1]


class TestSpectralGradient:
    def test_components(self):
        a, b = chsym.spectral_gradient()
        assert a == P("phih1*phi2")
        assert b == P("-phi1*phih2")

    def test_first_operator_image(self):
        _, _, rules = chsym.linear_problem()
        wm, wn = chsym.apply_d1(chsym.spectral_gradient(), rules)
        assert wm == P(
            "1/2*eta*(m1-m)*(phi1*phih1 - phi2*phih2)"
            " + 1/2*eta^2*m*(n*phi1*phih2 + m*phi2*phih1)"
        )
        assert wn == P(
            "1/2*eta*(n1+n)*(phi1*phih1 - phi2*phih2)"
            " + 1/2*eta^2*n*(n*phi1*phih2 + m*phi2*phih1)"
        )

    def test_operator_shape(self):
        _, _, rules = chsym.linear_problem()
        a, b = P("m*phi1"), P("n*phi2")
        out = chsym.apply_d1((a, b), rules)
        dxx = lambda e: total_dx(total_dx(e, rules), rules)
        assert out[0] == dxx(b) - b
        assert out[1] == a - dxx(a)


def _unreduced_symmetry() -> chsym.SymmetryTuple:
    """The characteristic before the adjoint solution is substituted, with
    independent adjoint eigenfunctions phih1, phih2."""
    _, _, rules = chsym.linear_problem()
    w_m, w_n = chsym.apply_d1(chsym.spectral_gradient(), rules)
    phi1, phi2, phih1, phih2 = (Expr.atom(c) for c in (K.phi1, K.phi2, K.phih1, K.phih2))
    return chsym.SymmetryTuple(phi1 * phih2, phih1 * phi2, w_m, w_n)


class TestNonlocalSymmetry:
    def test_reduced_characteristics(self):
        s = chsym.nonlocal_symmetry()
        assert s.w_u == P("-phi1^2")
        assert s.w_v == P("phi2^2")
        assert s.w_m == P(
            "eta*(m1-m)*phi1*phi2 + 1/2*eta^2*m*(m*phi2^2 - n*phi1^2)"
        )
        assert s.w_n == P(
            "eta*(n1+n)*phi1*phi2 + 1/2*eta^2*n*(m*phi2^2 - n*phi1^2)"
        )

    def test_momentum_consistency(self):
        # w_m = (1 - D_x^2) w_u under the linear-problem rules
        _, _, rules = chsym.linear_problem()
        s = chsym.nonlocal_symmetry()
        lhs = s.w_u - total_dx(total_dx(s.w_u, rules), rules)
        assert (lhs - s.w_m).is_zero()
        lhs_n = s.w_v - total_dx(total_dx(s.w_v, rules), rules)
        assert (lhs_n - s.w_n).is_zero()

    def test_unreduced_reduces_to_reduced(self):
        un = _unreduced_symmetry()
        red = chsym.nonlocal_symmetry()
        sub = chsym.reduction_to_adjoint()
        assert un.w_m.substitute(sub) == red.w_m
        assert un.w_n.substitute(sub) == red.w_n

    def test_reduced_residual_vanishes(self):
        s = chsym.nonlocal_symmetry()
        rm, rn = chsym.check_symmetry_residual(s)
        assert rm.is_zero() and rn.is_zero()

    def test_unreduced_residual_vanishes(self):
        s = _unreduced_symmetry()
        rm, rn = chsym.check_symmetry_residual(s)
        assert rm.is_zero() and rn.is_zero()

    def test_perturbed_characteristic_fails(self):
        s = chsym.nonlocal_symmetry()
        bad = chsym.SymmetryTuple(s.w_u, s.w_v, s.w_m + P("m"), s.w_n)
        rm, rn = chsym.check_symmetry_residual(bad)
        assert not rm.is_zero()


class TestProlongation:
    def test_pseudo_potential_characteristic(self):
        _, _, wp = chsym.prolongation()
        assert wp == P("p^2 - 1/2*eta^3*m*phi1*phi2^3")

    def test_eigenfunction_characteristics(self):
        w1, w2, _ = chsym.prolongation()
        assert w1 == P("phi1*p + 1/2*eta^2*m*phi1*phi2^2")
        assert w2 == P("phi2*p - 1/2*eta^2*n*phi1^2*phi2 + eta*phi1*phi2^2")

    def test_linearized_residuals_vanish(self):
        res = chsym.prolongation_residuals()
        assert set(res) == {
            "eigenfunction-1-x",
            "eigenfunction-1-t",
            "eigenfunction-2-x",
            "eigenfunction-2-t",
            "pseudo-potential-x",
            "pseudo-potential-t",
        }
        for name, r in res.items():
            assert r.is_zero(), name

    def test_dropping_potential_term_breaks_linearization(self):
        sys = chsym.ch2_system()
        Mmat, _, rules = chsym.linear_problem()
        s = chsym.nonlocal_symmetry()
        w1, w2, _ = chsym.prolongation()
        w1_bad = w1 - P("phi1*p")
        lhs = total_dx(w1_bad, rules)
        rhs = (
            Expr(*chsym.linearize(Mmat[0][0], {K.u(0): s.w_u, K.v(0): s.w_v, K.m(0): s.w_m, K.n(0): s.w_n}, rules))
            * P("phi1")
            + Expr(*chsym.linearize(Mmat[0][1], {K.u(0): s.w_u, K.v(0): s.w_v, K.m(0): s.w_m, K.n(0): s.w_n}, rules))
            * P("phi2")
            + Mmat[0][0] * w1_bad
            + Mmat[0][1] * w2
        )
        assert not (lhs - rhs).is_zero()


class TestFirstOrderExpansion:
    def test_all_components_match_generator(self):
        res = chsym.first_order_expansion_residuals()
        assert set(res) == {"x", "t", "u", "v", "m", "n", "p", "phi1", "phi2"}
        for name, r in res.items():
            assert r.is_zero(), name

    def test_warm_call_takes_no_gcd_and_no_substitution(self, monkeypatch):
        # once the generator's table is built, each component is decided on
        # one combined numerator; only a failing one is reduced, once
        chsym.first_order_expansion_residuals()
        delta = P("eps*phi1/(1 + eta*phi1*phi2)")
        closed = chsym.finite_transform_symbolic()
        bad = {**closed, "m": (*closed["m"], (delta.num, delta.den))}
        calls = {"poly_gcd": 0, "substitute": 0}
        gcd, substitute = K.poly_gcd, Expr.substitute

        def counted_gcd(a, b):
            calls["poly_gcd"] += 1
            return gcd(a, b)

        def counted_substitute(self, bindings):
            calls["substitute"] += 1
            return substitute(self, bindings)

        monkeypatch.setattr(K, "poly_gcd", counted_gcd)
        monkeypatch.setattr(Expr, "substitute", counted_substitute)
        assert all(r.is_zero() for r in chsym.first_order_expansion_residuals().values())
        assert calls == {"poly_gcd": 0, "substitute": 0}
        monkeypatch.setattr(chsym, "finite_transform_symbolic", lambda: bad)
        res = chsym.first_order_expansion_residuals()
        assert str(res["m"]) == "(phi1)/(phi1*phi2*eta + 1)"
        assert calls == {"poly_gcd": 1, "substitute": 0}

    def test_generator_values(self):
        # literal oracle: every component but x is derived from the symmetry
        V = chsym.vector_field_components()
        assert V == {
            "x": P("-eta*phi1*phi2"),
            "u": P("-(phi1^2 + eta*phi1*phi2*u1)"),
            "v": P("phi2^2 - eta*phi1*phi2*v1"),
            "ux": P("phi1^2 - eta*u*phi1*phi2"),
            "vx": P("phi2^2 - eta*v*phi1*phi2"),
            "p": P("p^2"),
            "m": P("-eta*m*phi1*phi2 + 1/2*eta^2*m*(m*phi2^2 - n*phi1^2)"),
            "n": P("eta*n*phi1*phi2 + 1/2*eta^2*n*(m*phi2^2 - n*phi1^2)"),
            "phi1": P("phi1*p + 1/2*eta*phi1^2*phi2"),
            "phi2": P("phi2*p + 1/2*eta*phi1*phi2^2"),
        }
        assert list(V) == ["x", "u", "v", "ux", "vx", "p", "m", "n", "phi1", "phi2"]


class TestClosure:
    def test_derivatives_of_closed_inputs_stay_closed(self):
        # the constraints enter only as promotion images, so a promotion that
        # missed its image would leave u2 or v2 in one of these
        constrained = set(chsym.ch2_system().constraints)
        _, _, rules = chsym.linear_problem()
        symmetries = [chsym.nonlocal_symmetry(), _unreduced_symmetry()]
        inputs = [*rules.x_rules.values(), *rules.t_rules.values(), *chsym.prolongation()]
        inputs += [w for s in symmetries for w in (s.w_u, s.w_v, s.w_m, s.w_n)]
        outputs = list(chsym.vector_field_components().values())
        for e in inputs:
            outputs.append(total_dx(e, rules))
            # bare u, v jets have no t-image when m and n are first-class
            if not any(c.kind == K.KIND_JET and c.name in ("u", "v") for c in e.coords()):
                outputs.append(total_dt_mod_system(e, None, rules))
        assert len(outputs) == 10 + len(inputs) + 16
        for e in outputs:
            assert not e.coords() & constrained, e


# every symbol the prolonged symmetry moves
_LINEARIZED_LEAVES = ("u", "u1", "v", "v1", "m", "m1", "m2", "m3", "n", "n1", "n2", "phi1", "phi2", "p", "eta", "3")


def _jet_by_jet_linearize(rhs: Expr, directions: dict, rules) -> tuple:
    """The earlier `linearize`: directions keyed by name, and each jet's
    characteristic prolonged from its base on its own."""
    images = {}
    for c in sorted(rhs.coords(), key=lambda c: c.key):
        if c.kind in (K.KIND_JET, K.KIND_DEP):
            image = directions[c.name]
            for _ in range(c.order):
                image = total_dx(image, rules)
            images[c] = image
    return rhs.derive_pair(images)


def _prolonged_directions() -> dict:
    w1, w2, wp = chsym.prolongation()
    s = chsym.nonlocal_symmetry()
    return {K.u(0): s.w_u, K.v(0): s.w_v, K.m(0): s.w_m, K.n(0): s.w_n, K.phi1: w1, K.phi2: w2, K.p: wp}


class TestLinearizeProlongsOnce:
    """`linearize` takes its images from `jetcalc.prolonged_images`; the
    jet-by-jet loop it replaced is the oracle."""

    def test_matches_the_jet_by_jet_loop(self):
        _, _, rules = chsym.linear_problem()
        directions = _prolonged_directions()
        by_name = {c.name: w for c, w in directions.items()}
        # the rule table's images, apart from the adjoint's, which nothing moves
        rule_images = [*rules.x_rules.values(), *rules.t_rules.values()]
        inputs = [*_seeded_fractions(_LINEARIZED_LEAVES, 10, 3502), *(e for e in rule_images if not e.coords() & {K.phih1, K.phih2})]
        for e in inputs:
            got, want = chsym.linearize(e, directions, rules), _jet_by_jet_linearize(e, by_name, rules)
            assert got == want and str(Expr(*got)) == str(Expr(*want)), str(e)

    def test_missing_direction_names_the_jet(self):
        _, _, rules = chsym.linear_problem()
        directions = {c: w for c, w in _prolonged_directions().items() if c != K.m(0)}
        with pytest.raises(MissingRuleError, match=r"^no direction of 'm', which 'm2' needs$") as err:
            chsym.linearize(P("u*m2 + phi1"), directions, rules)
        assert err.value.coord == K.m(2)


_BIHAMILTONIAN_DENSITY = "1/4*(u^2*v1 + u1^2*v1 - 2*u*u1*v)*(v - v2)"


def _summed_euler(density: Expr, base: str) -> Expr:
    """The earlier Euler operator: sum_k (-1)^k D_x^k of each partial, each
    power of D_x taken anew."""
    out = K.ZERO
    for k in range(chsym._EULER_TOP + 1):
        d = density.diff(K.jet(base, k))
        for _ in range(k):
            d = total_dx(d)
        out = out + Expr.const((-1) ** k) * d
    return out


class TestEulerByHorner:
    def test_matches_the_summed_operator(self):
        leaves = ("u", "u1", "u2", "u3", "v", "v1", "v2", "v3", "eta", "2")
        for density in [parse(_BIHAMILTONIAN_DENSITY), *_seeded_fractions(leaves, 12, 3503, "alias")]:
            for base in ("u", "v"):
                got, want = chsym.euler_operator(density, base), _summed_euler(density, base)
                assert got == want and str(got) == str(want), (str(density), base)

    def test_one_total_derivative_per_order(self, monkeypatch):
        calls = _count_calls(monkeypatch, chsym, "total_dx")
        chsym.euler_operator(parse(_BIHAMILTONIAN_DENSITY), "u")
        assert len(calls) <= chsym._EULER_TOP + 1


class TestBihamiltonian:
    def test_flow_reproduced(self):
        rm, rn = chsym.check_bihamiltonian_d1()
        assert rm.is_zero() and rn.is_zero()

    def test_euler_operator(self):
        assert chsym.euler_operator(parse("u1^2"), "u") == parse("-2*u2")
        # u1*v - D_x(u*v) = -u*v1
        assert chsym.euler_operator(parse("u*u1*v"), "u") == parse("-u*v1")


class TestEnlargedStates:
    def test_seed_values(self):
        s = chsym.seed_state(0.75, 1.0)
        assert s.m == 0.75 and s.n == 1.0
        assert s.phi1 == pytest.approx(1.0)
        assert s.phi2 == pytest.approx(1.5 / 0.75)
        assert s.p == pytest.approx(-(1.5**2) / (2 * 0.5 * 0.75))

    def test_seed_domain_errors(self):
        with pytest.raises(chsym.DomainError):
            chsym.seed_state(2.0, 1.0)
        with pytest.raises(chsym.DomainError):
            chsym.seed_state(0.0, 1.0)

    @pytest.mark.parametrize("u0,eta", [(math.nan, 1.0), (0.75, math.nan), (-math.inf, 1.0)])
    def test_seed_rejects_non_finite_parameters(self, u0, eta):
        with pytest.raises(chsym.DomainError, match="must be finite"):
            chsym.seed_state(u0, eta)

    def test_identity_at_zero(self):
        s = chsym.seed_state(0.75, 1.0, x=0.4, t=-0.3)
        out = chsym.finite_transform(s, 0.0)
        assert out == pytest.approx(s)

    def test_vanishing_denominator_rejected(self):
        s = chsym.seed_state(0.75, 1.0)
        eps_star = 1.0 / s.p
        with pytest.raises(chsym.DomainError):
            chsym.finite_transform(s, eps_star)

    def test_transform_preserves_momentum_sign_product(self):
        s = chsym.seed_state(0.75, 1.0)
        out = chsym.finite_transform(s, 1.0)
        assert out.m * out.n > 0

    def test_compiled_generator_matches_eval(self):
        # one rate per state field; t and eta are fixed by the flow
        rng = random.Random(5)
        components = chsym.vector_field_components()
        exprs = [components.get(name, K.ZERO) for name in chsym.EnlargedState._fields]
        for _ in range(200):
            vals = [rng.uniform(-2.0, 2.0) for _ in chsym._STATE_COORDS]
            point = dict(zip(chsym._STATE_COORDS, vals))
            rates = chsym.flow_derivative(chsym.EnlargedState(*vals))
            assert rates == tuple(e.eval(point) for e in exprs)

    def test_compiled_generator_has_no_denominator_guard(self):
        # all twelve components are polynomials, so no rate divides or calls abs
        components = chsym.vector_field_components()
        exprs = [components.get(name, K.ZERO) for name in chsym.EnlargedState._fields]
        assert len(exprs) == 12
        assert all(e.den == K.ONE.den for e in exprs)
        assert "abs" not in chsym._flow().__code__.co_names

    def test_flow_matches_transform(self):
        s = chsym.seed_state(0.75, 1.0, x=0.1, t=0.05)
        for eps in (0.25, 0.6, 1.0):
            closed = chsym.finite_transform(s, eps)
            flowed = chsym.flow_transform_richardson(s, eps, steps=160)
            for name, a, b in zip(chsym.EnlargedState._fields, closed, flowed):
                assert abs(a - b) / max(1.0, abs(a)) < 1e-6, (name, eps)

    def test_finite_transform_restates_its_symbolic_source(self):
        # finite_transform is written out by hand, because ch2_flow.txt pins
        # its bits; at seeded states it must agree with the compiled
        # finite_transform_symbolic(), x through exp(x~ - x) and each phi
        # through its square
        closed = chsym.finite_transform_symbolic()
        compiled = K.compile_numeric(map(K.fraction_sum, closed.values()), (*chsym._STATE_COORDS, K.eps))
        rng = random.Random(4127)
        checked = 0
        for _ in range(300):
            s = chsym.EnlargedState(*(rng.uniform(-1.5, 1.5) for _ in chsym._STATE_COORDS))
            eps = rng.uniform(-1.0, 1.0)
            try:
                out = chsym.finite_transform(s, eps)
                want = dict(zip(closed, compiled(*s, eps)))
            except K.DomainError:
                continue
            got = {"x-shift-exp": math.exp(out.x - s.x), "t": out.t, "u": out.u, "v": out.v, "m": out.m,
                   "n": out.n, "phi1-squared": out.phi1**2, "phi2-squared": out.phi2**2, "p": out.p}
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (s, eps)
            checked += 1
        assert checked > 100

    def test_slope_fields_match_finite_differences(self):
        # the closed forms for the transformed slopes are not printed
        # anywhere; cross-check them against difference quotients of the
        # transformed profile
        h = 1e-5
        for xv in (-0.8, 0.0, 1.2):
            c0 = chsym.finite_transform(chsym.seed_state(0.75, 1.0, x=xv), 1.0)
            cp = chsym.finite_transform(chsym.seed_state(0.75, 1.0, x=xv + h), 1.0)
            cm = chsym.finite_transform(chsym.seed_state(0.75, 1.0, x=xv - h), 1.0)
            fd_u = (cp.u - cm.u) / (cp.x - cm.x)
            fd_v = (cp.v - cm.v) / (cp.x - cm.x)
            assert fd_u == pytest.approx(c0.ux, rel=1e-5, abs=1e-7)
            assert fd_v == pytest.approx(c0.vx, rel=1e-5, abs=1e-7)


class TestExactSolution:
    def test_wave_parameters(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        assert sol.k == pytest.approx(0.5)
        assert sol.speed == pytest.approx(11.0 / 8.0)

    def test_domain_validation(self):
        with pytest.raises(chsym.DomainError):
            chsym.exact_solution(2.0, 1.0, 1.0)
        with pytest.raises(chsym.DomainError):
            chsym.exact_solution(0.75, 0.0, 1.0)
        with pytest.raises(chsym.DomainError):
            chsym.exact_solution(0.75, 1.0, 0.0)
        # eta^2 = 1e-320 is subnormal, so the speed overflows to inf
        with pytest.raises(chsym.DomainError, match="wave speed .* = inf is not finite"):
            chsym.exact_solution(1e305, 1e-160, 1.0)

    def test_matches_transformed_seed(self):
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        for xv in (-2.0, 0.0, 1.3):
            for tv in (-0.4, 0.0, 0.9):
                tr = chsym.finite_transform(chsym.seed_state(0.75, 1.0, x=xv, t=tv), 1.0)
                assert float(sol.x_tilde(xv, tv)) == pytest.approx(tr.x, abs=1e-12)
                u, v = sol.fields(xv, tv)
                m, n = sol.momenta(xv, tv)
                assert float(u) == pytest.approx(tr.u, abs=1e-12)
                assert float(v) == pytest.approx(tr.v, abs=1e-12)
                assert float(m) == pytest.approx(tr.m, abs=1e-12)
                assert float(n) == pytest.approx(tr.n, abs=1e-12)

    def test_coth_branch_matches_transform(self):
        # sample on the near side of the transformation's pole locus
        sol = chsym.exact_solution(0.75, 1.0, -0.5)
        tr = chsym.finite_transform(chsym.seed_state(0.75, 1.0, x=-3.0, t=0.1), -0.5)
        assert float(sol.fields(-3.0, 0.1)[0]) == pytest.approx(tr.u, abs=1e-10)
        assert float(sol.momenta(-3.0, 0.1)[0]) == pytest.approx(tr.m, abs=1e-10)

    def test_far_field_limits(self):
        # symbolic limits of the profile as the wave variable saturates
        k, u0 = K.kk, K.u0
        th = K.theta
        u_profile = (
            (2 - Expr.atom(k) ** 2 * (1 + Expr.atom(th) ** 2))
            * Expr.atom(u0)
            / (2 * (1 + Expr.atom(k)) * (1 + Expr.atom(k) * Expr.atom(th)))
        )
        at_plus = u_profile.substitute({th: K.ONE})
        at_minus = u_profile.substitute({th: Expr.const(-1)})
        expected_plus = (
            (2 - 2 * Expr.atom(k) ** 2)
            * Expr.atom(u0)
            / (2 * (1 + Expr.atom(k)) * (1 + Expr.atom(k)))
        )
        assert (at_plus - expected_plus).is_zero()
        assert (at_minus - Expr.atom(u0)).is_zero()
        # numeric far field for the concrete parameters
        sol = chsym.exact_solution(0.75, 1.0, 1.0)
        assert float(sol.fields(40.0, 0.0)[0]) == pytest.approx(
            0.75 * (1 - 0.5) / (1 + 0.5), rel=1e-6
        )
        assert float(sol.fields(-40.0, 0.0)[0]) == pytest.approx(0.75, rel=1e-6)
