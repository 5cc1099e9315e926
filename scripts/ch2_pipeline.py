#!/usr/bin/env python3
"""End-to-end run of the cubic two-component pipeline.

Symbolic stages: rule compatibility, nonlocal symmetry, prolongation,
first-order expansion of the finite transformation, Hamiltonian identity.
Numeric stages: generator-flow agreement and the finite-difference
convergence ladder for the closed-form solution.

Usage: python scripts/ch2_pipeline.py [--u0 0.75] [--eta 1.0] [--eps 1.0]
"""

import argparse
import sys
import time

from pssurf import chsym
from pssurf.jetcalc import check_rule_compatibility
from pssurf.numgrid import Grid, SolutionSampler, convergence_ladder


def stage(name: str, ok: bool, detail: str = ""):
    mark = "pass" if ok else "FAIL"
    print(f"  {name:34s} {mark}  {detail}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--u0", type=float, default=0.75)
    ap.add_argument("--eta", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=1.0)
    args = ap.parse_args()

    ok = True
    t0 = time.time()
    print("symbolic stages:")
    _, _, rules = chsym.linear_problem()
    res = check_rule_compatibility(rules, None)
    ok &= stage("rule compatibility", all(r.is_zero() for r in res.values()))
    s = chsym.nonlocal_symmetry()
    rm, rn = chsym.check_symmetry_residual(s)
    ok &= stage("nonlocal symmetry", rm.is_zero() and rn.is_zero())
    pres = chsym.prolongation_residuals()
    ok &= stage("prolongation", all(r.is_zero() for r in pres.values()))
    fo = chsym.first_order_expansion_residuals()
    ok &= stage("first-order expansion", all(r.is_zero() for r in fo.values()))
    bm, bn = chsym.check_bihamiltonian_d1()
    ok &= stage("hamiltonian identity", bm.is_zero() and bn.is_zero())

    print("numeric stages:")
    seed = chsym.seed_state(args.u0, args.eta)
    worst = 0.0
    for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
        eps = frac * args.eps
        closed = chsym.finite_transform(seed, eps)
        flowed = chsym.flow_transform_richardson(seed, eps, steps=400)
        for a, b in zip(closed, flowed):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok &= stage("generator flow", worst < 1e-6, f"max rel err {worst:.2e}")

    sol = chsym.exact_solution(args.u0, args.eta, args.eps)
    grid = Grid(-8.0, 8.0, -1.0, 1.0, 2**-5, 2**-5)
    report, _ = convergence_ladder(SolutionSampler(sol), grid, rungs=3)
    ok &= stage(
        "closed-form convergence",
        report.converged(),
        f"order {report.order_estimate:.3f}, masked {report.masked_fraction:.4f}",
    )
    print(f"done in {time.time() - t0:.1f}s: {'all stages pass' if ok else 'FAILURES present'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
