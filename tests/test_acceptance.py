"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import numpy as np

from pssurf import chsym
from pssurf import kernel as K
from pssurf.classify import Thm34Input, build_theorem34, catalog, catalog_entry
from pssurf.forms import check_lemma31
from pssurf.jetcalc import check_rule_compatibility, total_dx
from pssurf.kernel import Expr, parse
from pssurf.laxzoo import mat_is_zero, zero_curvature_residual
from pssurf.numgrid import Grid, SolutionSampler, convergence_ladder


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_catalog_soundness():
    t0 = time.time()
    ok = True
    details = []
    for entry in catalog():
        assert K.eta not in {}  # keep eta symbolic: no pinning anywhere
        report = check_lemma31(entry.forms, entry.system)
        ok &= report.passed
        if not report.passed:
            details.append(entry.name)
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report(1, "catalog soundness", ok, f"{len(catalog())} entries in {elapsed:.1f}s")


def test_criterion_2_zero_curvature():
    ok = True
    checked = 0
    for entry in catalog():
        if entry.lax is None:
            continue
        res = zero_curvature_residual(entry.lax, entry.system)
        ok &= mat_is_zero(res)
        checked += 1
    ok &= checked == 5
    _report(2, "zero curvature of stored pairs", ok, f"{checked} pairs")


def test_criterion_3_theorem_round_trips():
    ok = True
    for name, theorem_eta, orders in (
        ("cubic-ch2", Expr.const(-1), (3, 3)),
        ("factored-ch2", K.ONE, (2, 2)),
    ):
        entry = catalog_entry(name)
        (f11, f12), (_, f22), (f31, _) = entry.forms.f
        sys, forms = build_theorem34(
            Thm34Input(g=f11, h=f31, L=f12, M=f22, eta=theorem_eta, delta=1, orders=orders)
        )
        ok &= sys.F == entry.system.F and sys.G == entry.system.G
        ok &= check_lemma31(forms, sys).passed
    _report(3, "constructor round trips", ok)


def test_criterion_4_symbolic_suite():
    parts = {}
    # (a) rule compatibility for the eigenfunctions, adjoints, potential
    _, _, rules = chsym.linear_problem()
    res = check_rule_compatibility(rules, None)
    parts["compatibility"] = all(r.is_zero() for r in res.values()) and len(res) == 5
    sys = chsym.ch2_system()
    parts["momentum closure"] = (
        rules.close(sys.uv_system.F) == sys.m_t and rules.close(sys.uv_system.G) == sys.n_t
    )
    # (b) the momentum characteristic is the (1 - D_x^2) image
    s = chsym.nonlocal_symmetry()
    img = s.w_u - total_dx(total_dx(s.w_u, rules), rules)
    parts["momentum image"] = (img - s.w_m).is_zero()
    # (c) the linearized flow annihilates the characteristic
    rm, rn = chsym.check_symmetry_residual(s)
    parts["symmetry residual"] = rm.is_zero() and rn.is_zero()
    # (d) the local Hamiltonian identity reproduces the flow
    bm, bn = chsym.check_bihamiltonian_d1()
    parts["hamiltonian identity"] = bm.is_zero() and bn.is_zero()
    # (e) all nine first-order expansions match the generator
    fo = chsym.first_order_expansion_residuals()
    parts["first-order expansion"] = len(fo) == 9 and all(r.is_zero() for r in fo.values())
    ok = all(parts.values())
    _report(4, "symbolic pipeline", ok, ", ".join(k for k, v in parts.items() if not v) or "all parts")


def test_criterion_5_exact_solution_convergence():
    t0 = time.time()
    sol = chsym.exact_solution(0.75, 1.0, 1.0)
    base = Grid(-8.0, 8.0, -1.0, 1.0, 2**-5, 2**-5)
    report, _ = convergence_ladder(SolutionSampler(sol), base, rungs=3)
    elapsed = time.time() - t0
    ok = abs(report.order_estimate - 2.0) <= 0.3
    ok &= report.masked_fraction < 0.01
    ok &= elapsed < 60.0

    class Perturbed(SolutionSampler):
        # u + 0.01 sin(x~) on every rung, x~ being the grid coordinate
        def fields(self, x, t):
            u, v = super().fields(x, t)
            return u + 0.01 * np.sin(self.sol.x_tilde(x, t)), v

    broken, _ = convergence_ladder(Perturbed(sol), base, rungs=3)
    ok &= abs(broken.order_estimate) < 0.5
    _report(
        5,
        "exact-solution convergence",
        ok,
        f"order {report.order_estimate:.3f}, masked {report.masked_fraction:.4f}, "
        f"perturbed order {broken.order_estimate:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_flow_check():
    seed = chsym.seed_state(0.75, 1.0, x=0.0, t=0.0)
    worst = 0.0
    for eps in (0.2, 0.4, 0.6, 0.8, 1.0):
        closed = chsym.finite_transform(seed, eps)
        flowed = chsym.flow_transform_richardson(seed, eps, steps=400)
        for a, b in zip(closed, flowed):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst < 1e-6
    _report(6, "generator flow agreement", ok, f"max rel err {worst:.2e}")


def test_criterion_7_kernel_property_suite():
    rng = random.Random(31415926)
    atoms = [K.u(0), K.u(1), K.v(0), K.eta]

    def rand_expr(depth=0):
        roll = rng.random()
        if depth >= 3 or roll < 0.35:
            if rng.random() < 0.4:
                return Expr.const(rng.randint(-8, 8))
            return Expr.atom(rng.choice(atoms))
        a, b = rand_expr(depth + 1), rand_expr(depth + 1)
        op = rng.random()
        if op < 0.4:
            return a + b
        if op < 0.75:
            return a * b
        if op < 0.9:
            return a - b
        return a / rng.randint(1, 6) + b

    cases = 0
    ok = True
    for _ in range(1250):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        ok &= ((a + b) + c - (a + (b + c))).is_zero()
        ok &= (a * (b + c) - (a * b + a * c)).is_zero()
        ok &= (a - a).is_zero()
        cases += 3
    for _ in range(1250):
        a, b = rand_expr(), rand_expr()
        ca, cb = rng.choice(atoms), rng.choice(atoms)
        ok &= ((a * b).diff(ca) - a * b.diff(ca) - b * a.diff(ca)).is_zero()
        ok &= (a.diff(ca).diff(cb) - a.diff(cb).diff(ca)).is_zero()
        cases += 2
    for _ in range(2500):
        e = rand_expr()
        ok &= parse(str(e)) == e
        cases += 1
    fd_checked = 0
    for _ in range(8000):
        if cases + fd_checked >= 10_500:
            break
        e = rand_expr()
        c = rng.choice(atoms)
        point = {at: rng.uniform(0.6, 1.8) for at in atoms}
        h = 1e-5
        up, dn = dict(point), dict(point)
        up[c] += h
        dn[c] -= h
        try:
            fd = (e.eval(up) - e.eval(dn)) / (2 * h)
            ex = e.diff(c).eval(point)
        except K.NearZeroDenominatorError:
            continue
        if abs(ex) > 1e-8 or abs(fd) > 1e-8:
            ok &= abs(fd - ex) / max(1.0, abs(ex)) < 1e-6
            fd_checked += 1
    total = cases + fd_checked
    ok &= total >= 10_000
    _report(7, "kernel property suite", ok, f"{total} cases, {fd_checked} numeric cross-checks")
