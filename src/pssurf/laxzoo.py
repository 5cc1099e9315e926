"""2x2 matrix-valued 1-forms, trace-free packings and zero-curvature checks.

The sl(2, R) packing puts the three associated 1-forms into
(1/2) [[w2, w1 - w3], [w1 + w3, -w2]].  The su(2)-style packings carry a
formal imaginary unit i with the rewrite i*i -> -1; the arrangement differs
between the two curvature signs (for delta = -1 the off-diagonal entries are
+-w1 + i*w3 and the diagonal holds i*w2).

Every packing is trace-free, and MatrixForm rejects a pair that is not, so
the zero-curvature residual D_t X - D_x T + [X, T] is trace-free too: it is
computed from the entries 00, 01 and 10, each a residual of
``forms.exterior_d_mod_system``, and its 11 entry is -R00.

With ``from_forms``' packing at the forms' own sign, R = -1/2 pack(r1, r2,
r3) of the structure residuals, and pack is invertible over Q(i, sqrt 2), so
``verify example`` reads R = 0 off ``forms.Lemma31Report.zero_curvature``.
Only ``lax check``, whose packing need not match the sign, computes R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import kernel as K
from .forms import AssociatedForms, exterior_d_mod_system
from .jetcalc import PdeSystem
from .kernel import Expr

Matrix = tuple[tuple[Expr, Expr], tuple[Expr, Expr]]

I = Expr.atom(K.iunit)


def mat(a, b, c, d) -> Matrix:
    cv = Expr._coerce
    return ((cv(a), cv(b)), (cv(c), cv(d)))


def mat_map(fn: Callable[[Expr], Expr], A: Matrix) -> Matrix:
    return tuple(tuple(fn(e) for e in row) for row in A)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(2)), K.ZERO) for j in range(2))
        for i in range(2)
    )


def mat_scale(c, A: Matrix) -> Matrix:
    c = Expr._coerce(c)
    return mat_map(lambda e: c * e, A)


def mat_is_zero(A: Matrix) -> bool:
    return all(e.is_zero() for row in A for e in row)


def mat_strings(A: Matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in A]


@dataclass(frozen=True)
class MatrixForm:
    """Trace-free X dx + T dt.

    The trace check is what makes `zero_curvature_residual` sound: it reads
    only the entries 00, 01 and 10 of X and T and takes X11 = -X00,
    T11 = -T00.
    """

    X: Matrix
    T: Matrix
    algebra: str = "sl2"

    def __post_init__(self):
        for name, M in (("X", self.X), ("T", self.T)):
            tr = M[0][0] + M[1][1]
            if not tr.is_zero():
                raise ValueError(f"{name} is not trace-free: trace = {tr}")


def from_forms(forms: AssociatedForms, algebra: str | None = None) -> MatrixForm:
    """Pack associated forms into a matrix pair: sl2 is the real packing, su2 the
    formal-i one for their curvature sign.  By default the sign picks sl2 (delta = 1) or su2."""
    if algebra is None:
        algebra = "sl2" if forms.delta == 1 else "su2"
    if algebra not in ("sl2", "su2"):
        raise ValueError(f"unknown algebra tag '{algebra}'")
    half = Expr.const(1) / 2

    def pack(w1: Expr, w2: Expr, w3: Expr) -> Matrix:
        if algebra == "sl2":
            return mat(w2, w1 - w3, w1 + w3, -w2)
        if forms.delta == 1:
            return mat(I * w3, w1 - I * w2, w1 + I * w2, -(I * w3))
        return mat(I * w2, w1 + I * w3, -w1 + I * w3, -(I * w2))

    # X packs the dx coefficients (f11, f21, f31), T the dt coefficients
    X, T = (mat_scale(half, pack(*column)) for column in zip(*forms.f))
    return MatrixForm(X, T, algebra)


def _curvature_equations(mf: MatrixForm) -> tuple:
    """(omega, c, theta, phi) with R_jk = 0 iff d(omega) = c * theta ^ phi for
    the entries 00, 01 and 10 and omega_jk = X_jk dx + T_jk dt."""
    w00, w01, w10 = zip((*mf.X[0], mf.X[1][0]), (*mf.T[0], mf.T[1][0]))
    return (w00, 1, w01, w10), (w01, 2, w00, w01), (w10, 2, w10, w00)


def zero_curvature_residual(mf: MatrixForm, sys: PdeSystem | None) -> Matrix:
    """D_t X - D_x T + [X, T] reduced modulo the system; the zero matrix
    certifies the Lax pair.  R_jk is minus the residual of d(omega_jk) =
    c * theta ^ phi (`_curvature_equations`), and R11 = -R00."""
    r00, r01, r10 = (-r for r in exterior_d_mod_system(sys, _curvature_equations(mf)))
    return ((r00, r01), (r10, -r00))
