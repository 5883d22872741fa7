"""The oracles stay in the tests, and the runtime keeps one trace form.

``tests/oracles`` holds the reference implementations the parity tests
compare the production paths against (the tree-walking interpreter,
from-scratch injection, the sequential aDVF loop, the propagation and
participation scans).  Production code must never reach them: if a module
under ``src/`` imported one, the runtime would carry a second path again
and the parity tests would compare a path with itself.

Golden traces are recorded, analysed, cached and loaded only as
``ColumnarTrace`` (``.npz`` artifacts, NumPy required): no module under
``src/`` may bring back the list-of-events trace, the JSON-lines trace
format or a NumPy-less fallback.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


@lru_cache(maxsize=None)
def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return tuple(names)


def test_no_module_under_src_imports_the_oracles():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no sources found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] == "oracles"
    ]
    assert offenders == []


#: Modules of the removed second trace representation.
_REMOVED_TRACE_MODULES = ("repro.tracing.trace", "repro.tracing.serialize")


def test_no_module_under_src_imports_a_removed_trace_module():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(path)
        if name in _REMOVED_TRACE_MODULES
    ]
    assert offenders == []
    for module in _REMOVED_TRACE_MODULES:
        relative = Path(*module.split(".")).with_suffix(".py")
        assert not (SRC / relative).exists(), relative


def test_no_trace_fallback_strings_under_src():
    """No NumPy-less switch anywhere, no JSON-lines artifact in trace code
    (the campaign store's ``export_jsonl`` is not trace code)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        banned = ["REPRO_NO_NUMPY", "have_numpy"]
        if path.relative_to(SRC).parts[:2] == ("repro", "tracing"):
            banned.append(".jsonl")
        offenders.extend(
            f"{path.relative_to(SRC)}: {word}" for word in banned if word in text
        )
    assert offenders == []
