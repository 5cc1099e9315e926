"""Byte-for-byte golden outputs.

The files under tests/golden/ pin the command-line JSON reports, the CSV
files of ``ch2 residual`` and ``ch2 solution``, and the ``repr`` of the
numeric finite transformation and of the Richardson-extrapolated generator
flow.  They were recorded before a refactor and any later change must
reproduce them exactly.  Run this file as a script to re-record them.

``parse_outcomes.json`` pins the expression parser: a few thousand seeded
strings drawn from the grammar's tokens, whitespace, unknown names and stray
punctuation, each with ``str(parse(text))`` in both ``mn_mode``s or the
error it raises as ``Type: message``.

The ``default_grid`` cases run on ``ch2 residual``'s default grid, large
enough that the numeric layer splits it into several row blocks, so an
error at a block seam shows in them.  Their parameters are ones where
some nodes converge iterations before others, so the inversion's lockstep
shows in them too.  The solution CSV on that grid is 3 MB, so its golden
is the SHA-256 of the file, not the file.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from pssurf import chsym
from pssurf.cli import main
from pssurf import kernel as K
from pssurf.kernel import parse

GOLDEN = Path(__file__).parent / "golden"
DEFAULT_GRID = "-8:8:0.03125,-1:1:0.03125"  # ch2 residual's default

# (golden file stem, argv, expected exit code)
CASES = [
    *[
        (f"verify_{name}", ["verify", "example", name], 0)
        for name in ("song-qu-qiao", "cubic-ch2", "factored-ch2", "mch-type", "skew-ch2")
    ],
    ("verify_mch-type_delta1", ["verify", "example", "mch-type", "--delta", "1"], 1),
    *[(f"ch2_{sub}", ["ch2", sub], 0) for sub in ("symmetry", "prolong", "taylor")],
    ("build_thm34", ["build", "thm34", "--config", str(GOLDEN / "build_thm34.config.json")], 0),
    # perfbench's construct-thm35 configs at seed 0, delta +1 and -1
    *[
        (f"build_thm35_{sign}",
         ["build", "thm35", "--config", str(GOLDEN / f"build_thm35_{sign}.config.json")], 0)
        for sign in ("plus", "minus")
    ],
    ("ch2_residual", ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                      "--grid=-4:4:0.125,-1:1:0.125", "--rungs", "3"], 0),
    ("ch2_residual_default_grid", ["ch2", "residual", "--u0", "0.6", "--eta", "1", "--eps", "0.5",
                                   f"--grid={DEFAULT_GRID}", "--rungs", "3"], 0),
]

# (golden file name, argv of a command that writes the file named by --out)
CSV_CASES = [
    ("ch2_residual.csv", ["ch2", "residual", "--u0", "0.75", "--eta", "1", "--eps", "1",
                          "--grid=-4:4:0.125,-1:1:0.125", "--rungs", "3", "--format", "csv"]),
    ("ch2_solution.csv", ["ch2", "solution", "--u0", "0.75", "--eta", "1", "--eps", "1",
                          "--grid=-2:2:0.25,-1:1:0.125"]),
]

# (golden file name, argv as in CSV_CASES): the golden holds the CSV's SHA-256
DIGEST_CASES = [
    ("ch2_solution_default_grid.csv.sha256",
     ["ch2", "solution", "--u0", "0.6", "--eta", "1", "--eps", "0.5", f"--grid={DEFAULT_GRID}"]),
]

# (u0, eta, x, t, eps, steps): the flow checks of test_chsym and test_acceptance
FLOW_CASES = [
    *[(0.75, 1.0, 0.1, 0.05, eps, 160) for eps in (0.25, 0.6, 1.0)],
    *[(0.75, 1.0, 0.0, 0.0, eps, 400) for eps in (0.2, 0.4, 0.6, 0.8, 1.0)],
]

# pieces of the strings in parse_outcomes.json; literal digits are kept one
# apiece (see parse_texts), so a drawn power stays small enough to expand
PARSE_NAMES = ["u", "v", "m", "n", "u1", "u2", "v1", "v3", "m1", "n2", "u12", "u13", "u0",
               "x", "t", "z", "eta", "delta", "eps", "kk", "theta", "i", "s", "phi1", "phih2", "p"]
PARSE_UNKNOWN = ["w", "uu", "u1x", "exp2", "foo", "Eta", "q", "u0v"]
PARSE_PIECES = [*"0123", "7", *"+-*/^", "(", ")", "^(-1)", "^(2)", "exp(", "exp(x)",
                "exp(eta*x)", "exp(-2*t)", *",.;=[]_!#"]
PARSE_SPACES = ["", "", "", " ", "  ", "\t", "\n"]
PARSE_COUNT = 3000


def draw_expr(rng, depth):
    """A string of the grammar: a random expression tree of the given depth."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice([*PARSE_NAMES, *"12345"])
    if r < 0.6:
        op = rng.choice(["+", "-", "*", "/", " + ", " - ", "*"])
        return draw_expr(rng, depth - 1) + op + draw_expr(rng, depth - 1)
    if r < 0.7:
        return "-" + draw_expr(rng, depth - 1)
    if r < 0.85:
        power = rng.choice(["2", "3", "-1", "(-2)", "( 2 )", "+1", "0"])
        return f"({draw_expr(rng, depth - 1)})^{power}"
    coef = rng.choice(["eta", "-1", "eta+1", "2*eta", "1/2", "eps", "i", "s"])
    return f"exp({coef}*{rng.choice(['x', 't', 'u', 'x*t', 'u1'])})"


def draw_soup(rng):
    """A string of random pieces, mostly outside the grammar."""
    pool = [*PARSE_NAMES, *PARSE_UNKNOWN, *PARSE_PIECES, *PARSE_PIECES]
    return [rng.choice(pool) for _ in range(rng.randint(1, 10))]


def parse_texts():
    """PARSE_COUNT distinct seeded strings: half grammar trees, one in three
    of them with one character deleted, doubled or replaced, and half random
    pieces."""
    rng = random.Random(20261018)
    texts = {}
    while len(texts) < PARSE_COUNT:
        if rng.random() < 0.5:
            text = draw_expr(rng, rng.randint(1, 4))
            if text and rng.random() < 1 / 3:
                k = rng.randrange(len(text))
                text = text[:k] + rng.choice(["", text[k] * 2, rng.choice(PARSE_PIECES)]) + text[k + 1:]
        else:
            text = ""
            for piece in draw_soup(rng):
                # two drawn digits never touch, so no literal exceeds 9
                space = rng.choice(PARSE_SPACES)
                if not space and text[-1:].isdigit() and piece[:1].isdigit():
                    space = " "
                text += space + piece
            text += rng.choice(PARSE_SPACES)
        texts[text] = None
    return list(texts)


def parse_outcome(text, mn_mode):
    try:
        return str(parse(text, mn_mode=mn_mode))
    except Exception as err:  # the golden records every outcome, errors included
        return f"{type(err).__name__}: {err}"


def parse_outcomes():
    return [[text, parse_outcome(text, "alias"), parse_outcome(text, "jets")] for text in parse_texts()]


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


def run_csv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(path)])
        return code, path.read_text(encoding="utf-8")


def csv_digest(argv):
    code, text = run_csv(argv)
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest() + "\n"


def flow_text():
    """One line per case: the closed-form transform, then the flowed one."""
    lines = []
    for u0, eta, x, t, eps, steps in FLOW_CASES:
        seed = chsym.seed_state(u0, eta, x=x, t=t)
        lines.append(repr(chsym.finite_transform(seed, eps)))
        lines.append(repr(chsym.flow_transform_richardson(seed, eps, steps)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("stem,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(stem, argv, expected_code):
    code, text = run_json(argv)
    assert code == expected_code
    assert text == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", CSV_CASES, ids=[c[0] for c in CSV_CASES])
def test_csv_matches_golden(name, argv):
    code, text = run_csv(argv)
    assert code == 0
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", DIGEST_CASES, ids=[c[0] for c in DIGEST_CASES])
def test_csv_digest_matches_golden(name, argv):
    code, digest = csv_digest(argv)
    assert code == 0
    assert digest == (GOLDEN / name).read_text(encoding="utf-8")


def test_flow_matches_golden():
    assert flow_text() == (GOLDEN / "ch2_flow.txt").read_text(encoding="utf-8")


def test_parse_outcomes_match_golden():
    recorded = json.loads((GOLDEN / "parse_outcomes.json").read_text(encoding="utf-8"))
    for text, alias, jets in recorded:
        assert [parse_outcome(text, "alias"), parse_outcome(text, "jets")] == [alias, jets], text
    assert [entry[0] for entry in recorded] == parse_texts()


def test_golden_exponents_are_at_most_half_the_bound():
    # so that a later cut to the exponent bound cannot change a golden
    # without this failing first
    recorded = json.loads((GOLDEN / "parse_outcomes.json").read_text(encoding="utf-8"))
    outcomes = [out for _, *outs in recorded for out in outs if "Error: " not in out]
    texts = outcomes + [(GOLDEN / f"{stem}.json").read_text(encoding="utf-8") for stem, _, _ in CASES]
    exponents = [int(e) for text in texts for e in re.findall(r"\^(\d+)", text)]
    assert len(texts) > 1400 and len(exponents) > 1600
    assert max(exponents) <= K.MAX_EXPONENT // 2
    # an exponential prints as one exp(...), so its basis powers are read
    # off the parsed outcome; jets mode reads the texts of both modes
    parsed = [parse(out, mn_mode="jets") for out in outcomes]
    powers = [p for e in parsed for q in (e.num, e.den) for m in q.terms
              for a, p in K._pairs(m) if isinstance(a, K.ExpAtom)]
    assert len(powers) > 900 and max(powers) <= K.MAX_EXPONENT // 2


if __name__ == "__main__":
    for stem, argv, _ in CASES:
        (GOLDEN / f"{stem}.json").write_text(run_json(argv)[1], encoding="utf-8")
    for name, argv in CSV_CASES:
        (GOLDEN / name).write_text(run_csv(argv)[1], encoding="utf-8")
    for name, argv in DIGEST_CASES:
        (GOLDEN / name).write_text(csv_digest(argv)[1], encoding="utf-8")
    (GOLDEN / "ch2_flow.txt").write_text(flow_text(), encoding="utf-8")
    (GOLDEN / "parse_outcomes.json").write_text(
        json.dumps(parse_outcomes(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
