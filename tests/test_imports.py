"""Every name a program module, script or test imports is used in that
module, and no program module or script imports a name private to another
pssurf module.

The project runs no linter, so this walks each module's syntax tree: a name
an import binds must be read somewhere in the module, or listed in its
``__all__``.  ``from __future__`` imports bind nothing and are skipped.  A
name with one leading underscore is private to its module: no module may
import it from a pssurf module, or read it as an attribute of an imported
pssurf module (``K._name`` after ``from . import kernel as K``).  Nor may
it read ``x._name`` off any object unless the module itself defines
``_name`` (as a function, class, variable or assigned attribute) or ``x``
is ``self`` or ``cls``; namedtuple's public ``_fields``, ``_make``,
``_replace`` and ``_asdict`` are exempt.  Tests are exempt from both rules:
they read private names such as ``K._mono_min`` on purpose.

Nor may a program module define a function or class that no program
module, script or benchmark reaches, apart from the few kept on purpose as
test oracles (``_KEPT_FOR_TESTS``).
"""

import ast
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted([*(_ROOT / "src" / "pssurf").glob("*.py"), *(_ROOT / "scripts").glob("*.py")])
_TESTS = sorted((_ROOT / "tests").glob("*.py"))
_PROGRAM = sorted(p for d in ("src", "scripts", "perfbench") for p in (_ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_pssurf(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").partition(".")[0] == "pssurf"


def private_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_pssurf(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "pssurf"):  # binds a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "pssurf":
                    found += [(node.lineno, part) for part in alias.name.split(".") if _private(part)]
                    modules.add(alias.asname or "pssurf")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


_NAMEDTUPLE_API = {"_fields", "_make", "_replace", "_asdict"}


def foreign_private_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = set(_NAMEDTUPLE_API)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    found = [
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr) and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=[str(p.relative_to(_ROOT)) for p in _MODULES + _TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", _MODULES, ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_no_private_name_crosses_a_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", _MODULES, ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_no_foreign_private_attribute_is_read(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: j", "line 4: b"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


def test_a_private_import_is_found():
    source = (
        "from . import kernel as K\n"
        "from .forms import _structure_equations, check_lemma31\n"
        "from pssurf.chsym import _flow\n"
        "from collections import _private_elsewhere\n"
        "import pssurf._hidden\n"
        "from .kernel import Expr\n"
        "x = K._DIGITS_LIMIT + K.MAX_DIGITS + K.__name__\n"
        "y = other._attr + Expr._coerce(1)\n"
    )
    assert private_imports(source) == [
        "line 2: _structure_equations", "line 3: _flow", "line 5: _hidden", "line 7: K._DIGITS_LIMIT",
    ]
    assert private_imports("from .forms import structure_equations\nfrom . import __version__\n") == []


def test_a_foreign_private_read_is_found():
    source = (
        "from .kernel import Expr\n"
        "def _helper(e):\n"
        "    return e._derived({})\n"
        "cv = Expr._coerce\n"
        "class Box:\n"
        "    def __init__(self, e):\n"
        "        self._cache = e\n"
        "    def get(self, other):\n"
        "        return self._cache, other._cache, cls._hidden, _helper(self._made)\n"
        "row = Row._make([1])._replace(a=2)._asdict(), Row._fields, Expr.__name__\n"
        "other._held = 1\n"
        "x = other._held + K._DIGITS_LIMIT\n"
    )
    assert foreign_private_reads(source) == [
        "line 3: e._derived", "line 4: Expr._coerce", "line 12: K._DIGITS_LIMIT",
    ]


def defined_names(source: str) -> set[str]:
    """Every non-dunder function and class the source defines, methods included."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


_DOTTED = re.compile(r"\w+(?:\.\w+)+")


def referenced_names(source: str) -> set[str]:
    """Every name a `Name` or an `Attribute` reads, and every part of a
    dotted string constant such as perfbench's ``"kernel.Expr.eval"``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


# reached only by tests: the Corollary 3.3 oracle and the matrix algebra of
# the zero-curvature oracle
_KEPT_FOR_TESTS = {"check_corollary33", "mat_add", "mat_sub", "mat_mul"}


def test_every_definition_is_reached():
    sources = {p: p.read_text(encoding="utf-8") for p in _PROGRAM}
    defined = set().union(*(defined_names(src) for p, src in sources.items() if p.parent.name == "pssurf"))
    referenced = set().union(*map(referenced_names, sources.values()))
    assert defined - referenced == _KEPT_FOR_TESTS


def test_an_unreached_definition_is_found():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.open()\n"
        "    def open(self):\n"
        "        pass\n"
        "    def shut(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Box()\n"
        "def unused():\n"
        '    "Calls helper. Not a dotted name."\n'
        "SPANS = ['mod.Box.spanned']\n"
    )
    assert defined_names(source) == {"Box", "open", "shut", "helper", "unused"}
    # a docstring's words are not references
    assert defined_names(source) - referenced_names(source) == {"shut", "helper", "unused"}
    assert {"Box", "open", "spanned", "mod"} <= referenced_names(source)
