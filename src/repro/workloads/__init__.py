"""Workloads studied in the paper's evaluation (Table I plus §VI).

Each workload packages

* one or more kernels written in the restricted Python dialect and compiled
  to the IR,
* a deterministic data-object setup (the arrays of Table I, with the same
  roles: index arrays, state arrays, grids, …),
* the output objects and the acceptance criterion that defines what an
  "acceptable" outcome means for it, and
* metadata (description, code segment, target data objects) used by the
  reporting layer to regenerate Table I.

Public API
----------
:class:`~repro.workloads.base.Workload`,
:class:`~repro.workloads.base.WorkloadInstance`,
:func:`~repro.workloads.registry.get_workload`,
:data:`~repro.workloads.registry.WORKLOADS`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("RunOutcome", "Workload", "WorkloadInstance"),
        "registry": ("WORKLOADS", "get_workload", "workload_names"),
    },
)
