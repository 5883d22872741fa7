"""Lazy package exports (PEP 562).

A package ``__init__`` names what it re-exports and from which submodule,
and imports that submodule only when one of the names is first read.  So
``import repro.vm.engine`` does not also compile ``repro.vm.registers``,
and a command pays only for the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it provides.  A name is imported on first access and then cached
    on the package, so later reads are plain attribute lookups.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owner)
