"""Matrix packings and zero-curvature residuals."""

import random

import pytest

from pssurf import kernel as K
from pssurf.classify import catalog_entry
from pssurf.forms import (
    AssociatedForms,
    ConditionReport,
    Lemma31Report,
    check_lemma31,
    exterior_d_mod_system,
    structure_equations,
)
from pssurf.jetcalc import IllFormedDependenceError, total_dt_mod_system, total_dx
from pssurf.kernel import Expr, KernelError, parse
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

from test_constructor_texts import DRAWS, FIELD

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


# i, s and exponentials leave the gcd with factors it cannot cancel, where
# the printed fraction depends on the order of the reductions
_LEAVES = [parse(t) for t in ("i", "s", "exp(x)", "u2", "v2", "u", "eta", "1/3")]


def _perturbation(rng: random.Random, depth: int = 0) -> Expr:
    if depth >= 2 or rng.random() < 0.35:
        return rng.choice(_LEAVES)
    a, b = _perturbation(rng, depth + 1), _perturbation(rng, depth + 1)
    op = rng.random()
    if op < 0.35:
        return a + b
    if op < 0.55:
        return a - b
    if op < 0.85:
        return a * b
    return a if b.is_zero() else a / b


def _perturbed(f, rng: random.Random) -> tuple:
    """The forms' coefficients f with a seeded perturbation added to one slot."""
    f = [list(row) for row in f]
    i, j = rng.randrange(3), rng.randrange(2)
    f[i][j] = f[i][j] + _perturbation(rng)
    return tuple(map(tuple, f))


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
        rng = random.Random(426)
        nonzero = 0
        for _ in range(20):
            entry = catalog_entry(rng.choice(_ENTRIES))
            forms = AssociatedForms(_perturbed(entry.forms.f, rng), rng.choice((1, -1)))
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


def _packed_structure_identity(forms: AssociatedForms, system) -> bool:
    """Assert R = -1/2 pack(r1, r2, r3) for each packing of the forms' sign
    (sl2 and su2 at delta = +1, su2 at -1), with pack the packing of
    `from_forms`; False when the structure residuals are ill-formed.

    The two sides are equal as fractions everywhere.  A fraction whose
    denominator holds i or s has no canonical form yet (the strict xfail in
    test_kernel.py), so the two sides print alike only where the residuals'
    denominators are free of them."""
    try:
        r = exterior_d_mod_system(system, structure_equations(forms))
    except IllFormedDependenceError:
        return False
    canonical = not any(e.den.coords() & {K.iunit, K.sqrt2} for e in r)
    for algebra in ("sl2", "su2") if forms.delta == 1 else ("su2",):
        got = zero_curvature_residual(from_forms(forms, algebra), system)
        half_pack = from_forms(AssociatedForms(tuple((e, K.ZERO) for e in r), forms.delta), algebra).X
        want = mat_scale(-1, half_pack)
        assert mat_is_zero(mat_sub(got, want))
        if canonical:
            assert got == want and mat_strings(got) == mat_strings(want)
    return True


class TestCurvatureIsThePackedStructureResiduals:
    """The identity that lets `Lemma31Report.zero_curvature` stand for R = 0:
    pack is invertible over Q(i, sqrt 2), so R vanishes exactly when r1, r2
    and r3 do."""

    def test_perturbed_catalog_forms_at_both_signs(self):
        rng = random.Random("packed structure identity")
        ran = drawn = 0
        for name in _ENTRIES:
            entry = catalog_entry(name)
            for f in (entry.forms.f, *(_perturbed(entry.forms.f, rng) for _ in range(8))):
                for delta in (1, -1):
                    drawn += 1
                    ran += _packed_structure_identity(AssociatedForms(f, delta), entry.system)
        assert ran > drawn // 2, (ran, drawn)

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("theorem", ["thm36", "thm37"])
    def test_constructor_outputs_and_their_perturbations(self, theorem, delta):
        draw, build = DRAWS[theorem]
        rng = random.Random(f"packed structure identity {theorem} {delta}")
        outputs = []
        while len(outputs) < 6:
            try:
                system, forms, lax = build(draw(rng, delta, theorem, FIELD, break_rate=0)[0])
            except KernelError:  # a drawn slot can still break a hypothesis
                continue
            assert lax == from_forms(forms)
            outputs.append((system, forms))
        # the outputs' residuals vanish; a perturbed output's need not
        assert all(_packed_structure_identity(forms, system) for system, forms in outputs)
        perturbed = [_packed_structure_identity(AssociatedForms(_perturbed(forms.f, rng), delta), system)
                     for system, forms in outputs]
        # a perturbation that breaks the dependence conditions is skipped
        assert sum(perturbed) >= len(perturbed) // 2, perturbed

    @pytest.mark.parametrize("name", _ENTRIES)
    def test_the_report_reads_the_curvature_of_the_default_packing(self, name):
        entry = catalog_entry(name)
        for delta in (1, -1):
            forms = AssociatedForms(entry.forms.f, delta)
            direct = mat_is_zero(zero_curvature_residual(from_forms(forms), entry.system))
            assert check_lemma31(forms, entry.system).zero_curvature is direct is (delta == entry.forms.delta)

    def test_a_skipped_or_missing_residual_reads_fail(self):
        entry = catalog_entry("cubic-ch2")
        (f11, f12), *rest = entry.forms.f
        report = check_lemma31(AssociatedForms(((f11 + parse("u1"), f12), *rest), 1), entry.system)
        assert "structure-residuals" in [c.condition_id for c in report.conditions]
        assert not report.zero_curvature
        assert not Lemma31Report(()).zero_curvature
        assert not Lemma31Report((ConditionReport("structure-residual-1", "0", True),)).zero_curvature
