"""Registry of the workloads studied in the paper (Table I plus §VI).

``WORKLOADS`` maps short names to the module and class that build them;
:func:`get_workload` imports that module and instantiates the workload with
optional keyword overrides (problem size, seed, ABFT variant).
``TABLE1_ROWS`` lists the benchmark rows in the order of Table I so the
reporting layer can regenerate it.
"""

from __future__ import annotations

import difflib
import importlib
from typing import Dict, List, Tuple

from repro.workloads.base import Workload

#: name -> (module under ``repro.workloads``, workload class, fixed
#: constructor keywords).  :func:`get_workload` imports a workload's module
#: only when it builds that workload.
WORKLOADS: Dict[str, Tuple[str, str, Dict[str, object]]] = {
    "cg": ("cg", "CGWorkload", {}),
    "mg": ("mg", "MGWorkload", {}),
    "ft": ("ft", "FTWorkload", {}),
    "bt": ("bt", "BTWorkload", {}),
    "sp": ("sp", "SPWorkload", {}),
    "lu": ("lu", "LUWorkload", {}),
    "lulesh": ("lulesh", "LuleshWorkload", {}),
    "amg": ("amg", "AMGWorkload", {}),
    "matmul": ("matmul", "MatmulWorkload", {"abft": False}),
    "matmul_abft": ("matmul", "MatmulWorkload", {"abft": True}),
    "pf": ("particle_filter", "ParticleFilterWorkload", {"abft": False}),
    "pf_abft": ("particle_filter", "ParticleFilterWorkload", {"abft": True}),
}

#: The eight benchmarks of Table I, in row order.
TABLE1_ROWS: List[str] = ["cg", "mg", "ft", "bt", "sp", "lu", "lulesh", "amg"]

#: Reserved name for protected-plan variants: ``get_workload("protected",
#: plan=<ProtectionPlan.to_dict() payload>)`` applies the plan and returns
#: the protected workload.  This makes protected variants addressable by
#: ``(name, kwargs)`` exactly like registry workloads, so the parallel
#: campaign runner and the orchestrator can rebuild them in worker
#: processes and content-address their campaigns.
PROTECTED_WORKLOAD = "protected"


def workload_names() -> List[str]:
    """All registered workload names."""
    return sorted(WORKLOADS)


def validate_workload(name: str) -> str:
    """Check ``name`` against the registry; raise a helpful error otherwise.

    Used by the campaign CLI and orchestrator to fail fast (with
    did-you-mean suggestions) before any golden run or store row is
    created.
    """
    if name in WORKLOADS or name == PROTECTED_WORKLOAD:
        return name
    suggestions = difflib.get_close_matches(name, workload_names(), n=3)
    hint = f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
    raise KeyError(
        f"unknown workload {name!r}{hint}; available: {', '.join(workload_names())}"
    )


def workload_summaries() -> List[Dict[str, object]]:
    """Metadata row per registered workload (for ``python -m repro workloads``).

    The ``name`` column is the registry key (what the CLI accepts), which
    for aliased factories can differ from the instance's own name.
    """
    rows = []
    for name in workload_names():
        row = get_workload(name).describe()
        row["name"] = name
        rows.append(row)
    return rows


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by name.

    Keyword arguments are forwarded to the workload constructor (problem
    sizes, ``seed``, …).  The reserved name ``"protected"`` takes a
    ``plan=`` keyword (a persisted ``ProtectionPlan.to_dict()`` payload)
    and returns the plan's applied variant.
    """
    if name == PROTECTED_WORKLOAD:
        payload = kwargs.pop("plan", None)
        if payload is None or kwargs:
            raise TypeError(
                "the 'protected' workload takes exactly one keyword: "
                "plan=<ProtectionPlan.to_dict() payload>"
            )
        # deferred import: the protection package builds on workloads
        from repro.protection.advisor import ProtectionPlan
        from repro.protection.apply import apply_plan

        return apply_plan(ProtectionPlan.from_dict(dict(payload)))
    module, class_name, fixed = WORKLOADS[validate_workload(name)]
    factory = getattr(importlib.import_module(f"repro.workloads.{module}"), class_name)
    return factory(**fixed, **kwargs)
