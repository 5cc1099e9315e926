"""The benchmark tracer's span table still names live program functions."""

import importlib
import importlib.util
import sys
from pathlib import Path

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SPANS


def test_every_span_resolves():
    # the tracer skips a name the program no longer defines and its span
    # reads zero, so a rename would blank a per-layer metric unnoticed
    missing = []
    for span, (module_name, path) in _spans_table().items():
        owner = importlib.import_module(f"pssurf.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{span}: pssurf.{module_name}.{path}")
    assert not missing
