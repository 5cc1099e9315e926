"""Matrix packings and zero-curvature residuals."""

import random

import pytest

from pssurf import kernel as K
from pssurf.classify import catalog_entry
from pssurf.forms import AssociatedForms, check_lemma31
from pssurf.jetcalc import total_dt_mod_system, total_dx
from pssurf.kernel import Expr, parse
from pssurf.laxzoo import (
    MatrixForm,
    from_forms,
    mat,
    mat_add,
    mat_is_zero,
    mat_map,
    mat_mul,
    mat_scale,
    mat_strings,
    mat_sub,
    zero_curvature_residual,
)

I = Expr.atom(K.iunit)


class TestPackings:
    def test_sl2_packing_of_cubic_ch2(self):
        mh, nh = parse("u - u2"), parse("v - v2")
        B, C = parse("u*v - u1*v1"), parse("u*v1 - u1*v")
        eta = Expr.atom(K.eta)
        half = K.ONE / 2
        X = mat_scale(half, mat(-1, eta * mh, -eta * nh, 1))
        T = mat_scale(
            half,
            mat(
                -1 / eta**2 - half * (B + C),
                half * eta * B * mh + parse("u - u1") / eta,
                -half * eta * B * nh - parse("v + v1") / eta,
                1 / eta**2 + half * (B + C),
            ),
        )
        built = from_forms(catalog_entry("cubic-ch2").forms, "sl2")
        assert built.X == X
        assert built.T == T

    def test_su2_packing_of_spherical_mch_type(self):
        mh, nh = parse("u - u2"), parse("v - v2")
        R = parse("-1/2*(u^2 + v^2 - u1^2 - v1^2) - u*v1 + u1*v")
        half = K.ONE / 2
        X = mat_scale(half, mat(I, -nh + I * mh, nh + I * mh, -I))
        T = mat_scale(
            half,
            mat(
                I * (R - 1),
                -R * (nh - I * mh) + parse("v + u1") + I * parse("v1 - u"),
                R * (nh + I * mh) - parse("v + u1") + I * parse("v1 - u"),
                -I * (R - 1),
            ),
        )
        built = from_forms(catalog_entry("mch-type").forms, "su2")
        assert built.X == X
        assert built.T == T

    def test_zero_forms_pack_to_zero(self):
        zero = AssociatedForms(((K.ZERO, K.ZERO),) * 3, 1)
        mf = from_forms(zero)
        assert mat_is_zero(mf.X) and mat_is_zero(mf.T)

    def test_trace_free_enforced(self):
        with pytest.raises(ValueError):
            MatrixForm(mat(1, 0, 0, 1), mat(0, 0, 0, 0))


class TestZeroCurvature:
    def test_catalog_pairs(self):
        for entry in (catalog_entry(n) for n in ("cubic-ch2", "mch-type")):
            res = zero_curvature_residual(entry.lax, entry.system)
            assert mat_is_zero(res)

    @pytest.mark.parametrize("algebra", ["sl2", "su2"])
    @pytest.mark.parametrize("name", ["song-qu-qiao", "cubic-ch2", "factored-ch2", "skew-ch2", "mch-type"])
    def test_packings_close_on_the_catalog(self, name, algebra):
        # both packings close for the pseudospherical entries (delta = 1);
        # the spherical mch-type closes only in su2, its default packing
        entry = catalog_entry(name)
        closes = mat_is_zero(zero_curvature_residual(from_forms(entry.forms, algebra), entry.system))
        assert closes == (algebra == "su2" or entry.forms.delta == 1)

    def test_negated_flow_breaks_curvature_linearly(self):
        entry = catalog_entry("cubic-ch2")
        from pssurf.jetcalc import PdeSystem

        negated = PdeSystem(entry.system.orders, -entry.system.F, entry.system.G)
        res = zero_curvature_residual(entry.lax, negated)
        # X12 = eta*(u - u2)/2, so the (1,2) residual is -eta*F
        eta = Expr.atom(K.eta)
        assert res[0][1] == -eta * entry.system.F
        assert res[0][0].is_zero()

    def test_residual_trace_free(self):
        entry = catalog_entry("skew-ch2")
        from pssurf.jetcalc import PdeSystem

        perturbed = PdeSystem(
            entry.system.orders, entry.system.F + parse("u1"), entry.system.G
        )
        res = zero_curvature_residual(entry.lax, perturbed)
        assert not mat_is_zero(res)
        assert (res[0][0] + res[1][1]).is_zero()


_ENTRIES = ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")


def _full_residual(mf: MatrixForm, sys) -> tuple:
    """The residual from all four entries and both full matrix products."""
    dtX = mat_map(lambda e: total_dt_mod_system(e, sys), mf.X)
    dxT = mat_map(total_dx, mf.T)
    return mat_add(mat_sub(dtX, dxT), mat_sub(mat_mul(mf.X, mf.T), mat_mul(mf.T, mf.X)))


def _outcome(residual, mf: MatrixForm, sys):
    try:
        return mat_strings(residual(mf, sys))
    except Exception as exc:  # both routes must fail alike
        return type(exc)


class TestThreeEntryResidual:
    """The three trace-free entries print what the full matrix products do."""

    @pytest.mark.parametrize("algebra", ["sl2", "su2"])
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("name", _ENTRIES)
    def test_catalog_frames(self, name, delta, algebra):
        entry = catalog_entry(name)
        mf = from_forms(AssociatedForms(entry.forms.f, delta), algebra)
        want = _outcome(_full_residual, mf, entry.system)
        assert _outcome(zero_curvature_residual, mf, entry.system) == want

    def test_random_perturbations(self):
        # i, s and exponentials leave the gcd with factors it cannot cancel,
        # where the printed fraction depends on the order of the reductions
        leaves = [parse(t) for t in ("i", "s", "exp(x)", "u2", "v2", "u", "eta", "1/3")]
        rng = random.Random(426)

        def perturbation(depth: int = 0) -> Expr:
            if depth >= 2 or rng.random() < 0.35:
                return rng.choice(leaves)
            a, b = perturbation(depth + 1), perturbation(depth + 1)
            op = rng.random()
            if op < 0.35:
                return a + b
            if op < 0.55:
                return a - b
            if op < 0.85:
                return a * b
            return a if b.is_zero() else a / b

        nonzero = 0
        for _ in range(20):
            entry = catalog_entry(rng.choice(_ENTRIES))
            f = [list(row) for row in entry.forms.f]
            i, j = rng.randrange(3), rng.randrange(2)
            f[i][j] = f[i][j] + perturbation()
            forms = AssociatedForms(tuple(map(tuple, f)), rng.choice((1, -1)))
            mf = from_forms(forms, rng.choice(("sl2", "su2")))
            want = _outcome(_full_residual, mf, entry.system)
            assert _outcome(zero_curvature_residual, mf, entry.system) == want
            nonzero += want != [["0", "0"], ["0", "0"]]
        assert nonzero > 10


def _structure_verdicts(forms, system):
    return [c.verdict for c in check_lemma31(forms, system).conditions
            if c.condition_id.startswith("structure-residual")]


class TestCurvatureStructureEquivalence:
    def test_zero_curvature_iff_structure_residuals(self):
        # positive direction on the catalog, negative on perturbations
        for name in ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2"):
            entry = catalog_entry(name)
            res = zero_curvature_residual(entry.lax, entry.system)
            assert mat_is_zero(res) and _structure_verdicts(entry.forms, entry.system) == [True] * 3
        for name in ("cubic-ch2", "factored-ch2", "mch-type"):
            entry = catalog_entry(name)
            (f11, f12), (f21, f22), (f31, f32) = entry.forms.f
            bad = AssociatedForms(
                ((f11, f12 + parse("u - u2")), (f21, f22), (f31, f32)),
                entry.forms.delta,
            )
            algebra = "su2" if entry.forms.delta == -1 else "sl2"
            mf = from_forms(bad, algebra)
            res = zero_curvature_residual(mf, entry.system)
            assert not mat_is_zero(res)
            assert not all(_structure_verdicts(bad, entry.system))
