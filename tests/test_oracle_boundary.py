"""The oracles stay in the tests.

``tests/oracles`` holds the reference implementations the parity tests
compare the production paths against (the tree-walking interpreter,
from-scratch injection, the sequential aDVF loop, the propagation scan).
Production code must never reach them: if a module under ``src/`` imported
one, the runtime would carry a second path again and the parity tests
would compare a path with itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


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
