"""The outcome of every seeded constructor input, byte for byte.

``golden/constructor_texts.json`` holds, for seeded inputs of Theorems
3.4-3.7 at delta = +1 and -1, what the constructor gave: the printed F, G
and forms of a build, the condition and residual of a hypothesis violation,
or the type and message of any other error.  The inputs draw small integer,
``i`` and ``s`` coefficients, and spectral slots that are a parameter, a
constant, ``x``, ``t`` or a jet (``u``, ``u1``, ``v2``).  Run this file as a
script to re-record them.

The draws are shared with ``test_sympy_oracle.py``, which re-decides the
same hypotheses in sympy on integer draws.  Theorems 3.4 and 3.5 draw
g = a (u - u2), h = c (u - u2) + d (v - v2) and linear L, M.  Theorems 3.6
and 3.7 draw g = a (u - u2) + b (v - v2), a full h, and build M, L1 and N1 so that
the exactness D_x M + h L1 - g N1 = 0 holds: M is a combination of
u^2 - u1^2, v^2 - v1^2, u v - u1 v1 and u v1 - u1 v, which D_x sends to
-(u - u2) M_u1 - (v - v2) M_v1, and L1, N1 solve the two coefficients.
About one draw in four then breaks one hypothesis on purpose.
"""

import json
import random
from pathlib import Path

import pytest

from pssurf import kernel as K
from pssurf.classify import (
    HypothesisViolationError,
    Thm34Input,
    Thm36Input,
    build_theorem34,
    build_theorem35,
    build_theorem36,
    build_theorem37,
)
from pssurf.kernel import Expr, KernelError, parse

GOLDEN = Path(__file__).parent / "golden" / "constructor_texts.json"

INTEGERS = ("-3", "-2", "-1", "1", "2", "3")
FIELD = (*INTEGERS, "i", "-i", "s", "(1 + i)", "(s - 1)")
SLOTS = ("eta", "2", "-1", "i", "s", "x", "t", "u", "u1", "v2", "eta^2 + 1")
_INVARIANTS = ("u^2 - u1^2", "v^2 - v1^2", "u*v - u1*v1", "u*v1 - u1*v")
_BREAKS = {
    "thm34": ("wronskian", "dependence", "g*M - eta*L"),
    "thm35": ("wronskian", "dependence", "M constant"),
    "thm36": ("wronskian", "pointwise", "cross", "exactness"),
    "thm37": ("wronskian", "pointwise", "cross", "exactness", "M constant"),
}


def _four(rng: random.Random, coeffs) -> tuple[str, str, str, str]:
    """Four coefficients drawn from coeffs."""
    return tuple(rng.choice(coeffs) for _ in range(4))


def _frame(a: str, b: str, c: str, d: str, breaks: str | None) -> tuple[Expr, Expr]:
    """g = a (u - u2) + b (v - v2) and h = c (u - u2) + d (v - v2), or h a
    multiple of g when the wronskian is to vanish."""
    g = parse(f"{a}*(u - u2) + {b}*(v - v2)")
    h = parse(f"{c}*(u - u2) + {d}*(v - v2)")
    return g, (parse(c) * g if breaks == "wronskian" else h)


def draw_thm34(rng: random.Random, delta: int, theorem: str, coeffs=INTEGERS, slots=SLOTS,
               break_rate: float = 0.25) -> tuple[Thm34Input, str | None]:
    """A Theorem 3.4 or 3.5 input and the hypothesis it breaks, if any."""
    breaks = rng.choice(_BREAKS[theorem]) if rng.random() < break_rate else None
    a, _, c, d = _four(rng, coeffs)
    g, h = _frame(a, "0", c, d, breaks)
    if breaks == "dependence":
        g = g + parse(f"{rng.choice(coeffs)}*u1")
    eta = parse(rng.choice(slots))
    p, q, r, t = _four(rng, coeffs)
    L = parse(f"{p}*u1 + {q}*v")
    M = parse(f"{r}*u + {t}*v")
    if breaks == "M constant":
        M = parse(r)
    elif breaks == "g*M - eta*L":
        L = g * M / eta
    return Thm34Input(g=g, h=h, L=L, M=M, eta=eta, delta=delta, orders=(3, 3)), breaks


def draw_thm36(rng: random.Random, delta: int, theorem: str, coeffs=INTEGERS, slots=SLOTS,
               break_rate: float = 0.25) -> tuple[Thm36Input, str | None]:
    """A Theorem 3.6 or 3.7 input and the hypothesis it breaks, if any."""
    breaks = rng.choice(_BREAKS[theorem]) if rng.random() < break_rate else None
    a, b, c, d = _four(rng, coeffs)
    while parse(f"{a}*{d} - {b}*{c}").is_zero():
        a, b, c, d = _four(rng, coeffs)
    g, h = _frame(a, b, c, d, breaks)
    k = [rng.choice(coeffs) for _ in _INVARIANTS]
    M = parse(f"{rng.choice(coeffs)} + " + " + ".join(f"{c_}*({inv})" for c_, inv in zip(k, _INVARIANTS)))
    if breaks == "M constant":
        M = parse(k[0])
    # c L1 - a N1 = sign M_u1 and d L1 - b N1 = sign M_v1, sign = delta for 3.7
    sign = Expr.const(delta if theorem == "thm37" else 1)
    m_u1, m_v1 = sign * M.diff(K.u(1)), sign * M.diff(K.v(1))
    if breaks == "wronskian":
        L1, N1 = parse(f"{k[1]}*u1"), parse(f"{k[2]}*v")
    else:
        det = parse(f"{a}*{d} - {b}*{c}")
        L1 = (parse(f"-{b}") * m_u1 + parse(a) * m_v1) / det
        N1 = (parse(f"-{d}") * m_u1 + parse(c) * m_v1) / det
    if breaks == "cross":
        N1 = N1 + parse(f"{k[3]}*u1*v1")
    elif breaks == "exactness":
        N1 = N1 + parse(f"{k[3]}*u")
    A = parse(f"{rng.choice(coeffs)}*u + {rng.choice(coeffs)}*v1")
    if breaks == "pointwise":
        A = A + parse("u2")
    eta = parse(rng.choice(slots))
    return Thm36Input(g=g, h=h, A=A, L1=L1, N1=N1, M=M, eta=eta, delta=delta), breaks


DRAWS = {"thm34": (draw_thm34, build_theorem34), "thm35": (draw_thm34, build_theorem35),
         "thm36": (draw_thm36, build_theorem36), "thm37": (draw_thm36, build_theorem37)}


def _outcome(theorem: str, inp) -> dict:
    try:
        system, forms, *_ = DRAWS[theorem][1](inp)
    except HypothesisViolationError as err:
        return {"violation": err.condition, "residual": err.residual}
    except KernelError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {"F": str(system.F), "G": str(system.G), "forms": [[str(a), str(b)] for a, b in forms.f]}


def _inputs(theorem: str, delta: int, count: int = 24) -> list:
    draw = DRAWS[theorem][0]
    rng = random.Random(f"{theorem} {delta}")
    return [draw(rng, delta, theorem, FIELD)[0] for _ in range(count)]


def constructor_texts() -> dict:
    return {f"{theorem} delta {delta}": [_outcome(theorem, inp) for inp in _inputs(theorem, delta)]
            for theorem in DRAWS for delta in (1, -1)}


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("theorem", DRAWS)
def test_constructor_outcomes_match_the_recorded_texts(theorem, delta):
    got = [_outcome(theorem, inp) for inp in _inputs(theorem, delta)]
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{theorem} delta {delta}"]


def test_the_recorded_inputs_reach_every_kind_of_outcome():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = {key: {next(iter(o)) for o in outcomes} for key, outcomes in recorded.items()}
    assert all({"F", "violation"} <= k for k in kinds.values()), kinds
    text = json.dumps(recorded)
    assert all(f in text for f in ("*i", "*s", "x", "t"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(constructor_texts(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
