"""Every name a program module or script imports is used in that module.

The project runs no linter, so this walks each module's syntax tree: a name
an import binds must be read somewhere in the module, or listed in its
``__all__``.  ``from __future__`` imports bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted([*(_ROOT / "src" / "pssurf").glob("*.py"), *(_ROOT / "scripts").glob("*.py")])


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


@pytest.mark.parametrize("path", _MODULES, ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: j", "line 4: b"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []
