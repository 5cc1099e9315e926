"""Every name a program module, script or test imports is used in that
module, and no program module or script imports a name private to another
pssurf module.

The project runs no linter, so this walks each module's syntax tree: a name
an import binds must be read somewhere in the module, or listed in its
``__all__``.  ``from __future__`` imports bind nothing and are skipped.  A
name with one leading underscore is private to its module: no module may
import it from a pssurf module, or read it as an attribute of an imported
pssurf module (``K._name`` after ``from . import kernel as K``).  Tests
are exempt from that rule: they read private names such as ``K._mono_min``
on purpose.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted([*(_ROOT / "src" / "pssurf").glob("*.py"), *(_ROOT / "scripts").glob("*.py")])
_TESTS = sorted((_ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=[str(p.relative_to(_ROOT)) for p in _MODULES + _TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", _MODULES, ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_no_private_name_crosses_a_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


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
