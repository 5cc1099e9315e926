"""Bounded work on small inputs: the quotient rule skips d^2 when it can,
and a seeded fuzzer of small CLI configs finishes with an exact exit code.

``Expr._derived`` returns (Dn, d*B) when the denominator d does not depend on
the differentiated coordinates and holds no `i` or `s`; the full quotient
rule (Dn*d - n*Dd, d^2*B) made the reduction take a gcd against d^2, which
for the 40th power below ran for minutes.  Each case runs under a generous
wall-clock alarm, since the host may be shared.
"""

import contextlib
import io
import json
import random
import signal

from pssurf import cli
from pssurf import kernel as K
from pssurf.kernel import parse


class _StillRunning(Exception):
    """Raised by the alarm; not a class that ``cli.main`` maps to an exit code."""


@contextlib.contextmanager
def _alarm(seconds: float):
    def ring(signum, frame):
        raise _StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def test_quotient_with_a_free_denominator_skips_its_square():
    # about 5 s with the full rule, a hundredth of a second without it
    e = parse("((u - v3)/(v1 + v2 + v))^20")
    with _alarm(3):
        d = e.diff(K.v(3))
    assert d == -20 * parse("(u - v3)^19/(v1 + v2 + v)^20")
    assert d.den == e.den


def test_the_same_quotient_with_i_keeps_the_full_rule():
    # with i in d the shortcut could print another, equal fraction, so the
    # full quotient rule stays; a small power keeps this cheap
    e = parse("((u - v3)/(v1 + v2 + i*v))^2")
    with _alarm(30):
        d = e.diff(K.v(3))
    assert (d + 2 * parse("(u - v3)/(v1 + v2 + i*v)^2")).is_zero()


def test_lemma31_on_a_high_power_dt_coefficient_fails_in_bounded_time(tmp_path):
    config = {
        "expressions": {
            "f11": "u - u2", "f12": "u1*v", "f21": "v - v2",
            "f22": "(((v3*-1 + u))/((exp(eta*v1) + (v2 + v))))^40",
            "f31": "eta", "f32": "v1", "F": "u1", "G": "v1",
        },
        "params": {"m": 2, "n": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with _alarm(60):
        code, err = _run(["verify", "lemma31", "--config", str(path), "--format", "json"])
    assert code == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# Seeded fuzzer
# ---------------------------------------------------------------------------

_LEAVES = ("u", "u1", "u2", "u3", "v", "v1", "v2", "v3", "x", "t", "eta", "i", "s", "m", "n")


def _expr(rng: random.Random, depth: int = 0) -> str:
    """A small expression text: leaves, sums, products, quotients, powers
    (rarely up to 300) and exp of one coordinate."""
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return rng.choice(_LEAVES + ("1", "2", "-3", "1/2"))
    if roll < 0.45:
        return f"exp({rng.choice((-2, -1, 1, 3))}*{rng.choice(('x', 't', 'eta*x', 'u1'))})"
    if roll < 0.6:
        power = rng.choice((2, 2, 3, 4, 7, 300)) if rng.random() < 0.9 else rng.randint(8, 60)
        return f"({_expr(rng, depth + 1)})^{power}"
    op = rng.choice((" + ", " - ", "*", "/"))
    return f"({_expr(rng, depth + 1)}){op}({_expr(rng, depth + 1)})"


def _config(rng: random.Random, names: list[str]) -> dict:
    params = {"delta": rng.choice((1, -1)), "m": rng.choice((2, 3)), "n": rng.choice((2, 3))}
    if "eta" in names:
        names.remove("eta")
        params["eta"] = rng.choice((1, -1, 2, "eta", "1/2"))
    return {"expressions": {name: _expr(rng) for name in names}, "params": params}


_FORMS = ["f11", "f12", "f21", "f22", "f31", "f32", "F", "G"]
_COMMANDS = (
    (["verify", "lemma31"], _FORMS),
    (["lax", "check"], _FORMS),
    (["build", "thm34"], ["g", "h", "L", "M", "eta"]),
    (["build", "thm35"], ["g", "h", "L", "M", "eta"]),
    (["build", "thm36"], ["g", "h", "A", "L1", "N1", "M", "eta"]),
    (["build", "thm37"], ["g", "h", "A", "L1", "N1", "M", "eta"]),
)


def test_fuzzed_configs_exit_with_exact_codes(tmp_path):
    rng = random.Random(2026)
    codes = []
    for case in range(102):
        command, names = _COMMANDS[case % len(_COMMANDS)]
        config = _config(rng, list(names))
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(config))
        with _alarm(60):
            code, err = _run([*command, "--config", str(path), "--format", "json"])
        assert code in (0, 1, 2) and "Traceback" not in err, (command, config, err)
        codes.append(code)
    # the draw reaches the mathematics, not only config errors
    assert codes.count(1) >= 10
