"""Registry of selective-protection schemes with trace-derived cost models.

A *protection scheme* is one way of spending fault-tolerance budget on a
data object: ABFT checksums, replication with voting, re-execution, or
detection-only checksums.  The aDVF advisor (:mod:`repro.protection.advisor`)
chooses among them, so every scheme exposes two models:

* a **cost model** — how many extra dynamic operations and extra bytes the
  scheme adds, computed from the workload's golden
  :class:`~repro.tracing.columnar.ColumnarTrace` (dynamic op counts, output
  element counts, object sizes), not from hand-waved constants.  Replication
  schemes predict ``(replicas - 1) × base ops`` plus the structural cost of
  their generated compare/vote loops; the bespoke ABFT schemes trace the
  protected workload variant (cache-backed, see
  :mod:`repro.tracing.cache`) and report the exact measured delta.
* a **coverage model** — which outcome classes the scheme converts: what it
  *corrects* (faulty run ends with acceptable outputs), what it only
  *detects*, and whether crashes/hangs are covered (none of the in-process
  schemes survive a crash of the primary execution).

``benchmarks/bench_protection.py`` asserts the cost models against measured
op counts of the applied variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.tracing.cache import golden_trace

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.tracing.columnar import ColumnarTrace
    from repro.workloads.base import Workload


#: Workloads with a bespoke ABFT-protected variant in the registry:
#: base name -> (variant registry name, objects the variant protects).
BESPOKE_ABFT_VARIANTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "matmul": ("matmul_abft", ("C",)),
    "pf": ("pf_abft", ("xe",)),
}

# Structural per-element op counts of the generated duplicate-and-compare
# wrapper loops (repro.protection.apply).  These follow directly from the
# "-O0" lowering of the generated source — every loop iteration pays the
# fixed cond/inc blocks (7 ops) plus its body loads/stores — and are
# asserted against measured traces in benchmarks/bench_protection.py.
#: `v1 = x[i]; v2 = x__r2[i]; if v1 != v2` compare-loop iteration.
COMPARE_OPS_PER_ELEMENT = 17
#: Majority-vote iteration on the fault-free (all-agree) path.
VOTE_OPS_PER_ELEMENT = 17
#: Adopt-loop iteration (`x[i] = x__r2[i]`); only runs on mismatch, so it
#: does not enter the golden-run cost, but validation replays pay it.
ADOPT_OPS_PER_ELEMENT = 11
#: Call, return-value bookkeeping and loop prologue ops per replica.
REPLICA_FIXED_OPS = 40


@dataclass(frozen=True)
class SchemeCost:
    """Predicted overhead of protecting one object with one scheme."""

    #: Extra dynamic operations added to the golden execution.
    extra_ops: int
    #: Extra bytes of data-object storage (shadow copies, checksums).
    extra_bytes: int
    #: True when the cost is paid once for the whole program, regardless of
    #: how many objects the scheme is selected for (replication schemes).
    program_wide: bool = False


@dataclass(frozen=True)
class CoverageModel:
    """What the scheme does to the unmasked share of a fault's outcomes."""

    #: The scheme restores an acceptable outcome for single SDC-class
    #: errors striking the protected object.
    corrects_sdc: bool
    #: The scheme flags single SDC-class errors without repairing them.
    detects_sdc: bool
    #: Crashes/hangs of the (primary) execution are survived.  All schemes
    #: here run in-process, so none of them cover crashes.
    covers_crash: bool = False

    def to_dict(self) -> Dict[str, bool]:
        return {
            "corrects_sdc": self.corrects_sdc,
            "detects_sdc": self.detects_sdc,
            "covers_crash": self.covers_crash,
        }


@dataclass(frozen=True)
class WorkloadCostInputs:
    """The trace- and memory-derived quantities the cost models consume."""

    #: Dynamic operations of the golden (unprotected) execution.
    base_ops: int
    #: Total elements across the workload's output objects (compare/vote
    #: loops iterate over these).
    output_elements: int
    #: Total bytes of all non-stack data objects (shadow-copy cost).
    object_bytes: int
    #: Per-object element counts and byte sizes.
    object_elements: Dict[str, int] = field(default_factory=dict)
    object_sizes: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_workload(
        cls, workload: "Workload", trace: "ColumnarTrace"
    ) -> "WorkloadCostInputs":
        """Derive the inputs from a golden trace plus the initial memory."""
        memory = workload.fresh_instance().memory
        objects = memory.data_objects(include_stack=False)
        elements = {obj.name: obj.count for obj in objects}
        sizes = {obj.name: obj.size_bytes for obj in objects}
        return cls(
            base_ops=len(trace),
            output_elements=sum(
                elements.get(name, 0) for name in workload.output_objects
            ),
            object_bytes=sum(sizes.values()),
            object_elements=elements,
            object_sizes=sizes,
        )


class ProtectionScheme:
    """Base class: a named scheme with cost and coverage models.

    ``kind`` distinguishes bespoke ABFT variants (``"abft"``) from the
    generic replication transforms (``"replicate"``) the apply layer
    synthesises at the IR level.
    """

    name: str = "abstract"
    kind: str = "abstract"
    description: str = ""
    coverage: CoverageModel = CoverageModel(corrects_sdc=False, detects_sdc=False)

    def applies_to(self, workload_name: str, object_name: str) -> bool:
        """Whether the scheme can protect ``object_name`` of the workload."""
        raise NotImplementedError

    def cost(
        self,
        workload: "Workload",
        inputs: WorkloadCostInputs,
        object_name: str,
    ) -> SchemeCost:
        """Predicted overhead of protecting ``object_name``."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Serialisable summary (stored inside protection plans)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "coverage": self.coverage.to_dict(),
        }


class AbftChecksumScheme(ProtectionScheme):
    """Bespoke ABFT (row/column checksums or checksummed replicas).

    Applies only to objects whose workload ships a hand-written ABFT
    variant (:data:`BESPOKE_ABFT_VARIANTS`).  The cost model is exact: it
    traces the variant — a pure function of ``(variant name, kwargs)``, so
    the artifact is shared through the golden-trace cache — and reports the
    measured op and byte deltas against the unprotected baseline.
    """

    name = "abft_checksum"
    kind = "abft"
    description = "algorithm-based checksum encode/verify/correct"
    coverage = CoverageModel(corrects_sdc=True, detects_sdc=True)

    def applies_to(self, workload_name: str, object_name: str) -> bool:
        variant = BESPOKE_ABFT_VARIANTS.get(workload_name)
        return variant is not None and object_name in variant[1]

    def cost(
        self,
        workload: "Workload",
        inputs: WorkloadCostInputs,
        object_name: str,
    ) -> SchemeCost:
        from repro.workloads.registry import get_workload

        variant_name, _ = BESPOKE_ABFT_VARIANTS[_registry_name(workload)]
        kwargs = _constructor_kwargs(workload)
        variant = get_workload(variant_name, **kwargs)
        trace, _, _ = golden_trace(variant, variant_name, kwargs)
        variant_inputs = WorkloadCostInputs.from_workload(variant, trace)
        return SchemeCost(
            extra_ops=max(0, variant_inputs.base_ops - inputs.base_ops),
            extra_bytes=max(0, variant_inputs.object_bytes - inputs.object_bytes),
        )


class _ReplicationScheme(ProtectionScheme):
    """Shared cost structure of the generated duplicate-and-compare family.

    Each extra replica re-executes the entry kernel (``base_ops`` dynamic
    operations, the trace-derived dominant term) on shadow copies of every
    data object; the per-element term covers the generated compare/vote
    loops over the output objects.  The cost is program-wide: one wrapper
    covers every object selected under the scheme.
    """

    kind = "replicate"
    #: Total executions of the entry kernel (primary included).
    replicas = 2
    #: Per-output-element ops of the generated comparison/vote loops.
    loop_ops_per_element = COMPARE_OPS_PER_ELEMENT

    def applies_to(self, workload_name: str, object_name: str) -> bool:
        return True

    def cost(
        self,
        workload: "Workload",
        inputs: WorkloadCostInputs,
        object_name: str,
    ) -> SchemeCost:
        extra_replicas = self.replicas - 1
        return SchemeCost(
            extra_ops=(
                extra_replicas * (inputs.base_ops + REPLICA_FIXED_OPS)
                + self.loop_ops_per_element * inputs.output_elements
            ),
            extra_bytes=extra_replicas * inputs.object_bytes,
            program_wide=True,
        )


class DuplicationVoteScheme(_ReplicationScheme):
    """Full duplication with majority voting (triple modular redundancy)."""

    name = "duplication"
    description = "3x execution, per-element majority vote on the outputs"
    coverage = CoverageModel(corrects_sdc=True, detects_sdc=True)
    replicas = 3
    loop_ops_per_element = VOTE_OPS_PER_ELEMENT


class ReexecutionScheme(_ReplicationScheme):
    """Selective re-execution: recompute the producers, adopt on mismatch."""

    name = "reexec"
    description = "re-execute the producing kernel; adopt its outputs on mismatch"
    coverage = CoverageModel(corrects_sdc=True, detects_sdc=True)
    replicas = 2
    loop_ops_per_element = COMPARE_OPS_PER_ELEMENT


class DetectOnlyScheme(_ReplicationScheme):
    """Detect-only checksum: replica output comparison, no repair.

    Converts silent corruptions into *detected* ones (counted in a flag
    object by the generated wrapper) — valuable when recovery happens
    outside the program (checkpoint/restart) — but leaves the outcome
    itself unacceptable, so the advisor only credits it a configurable
    fraction of a correcting scheme's value.
    """

    name = "detect_checksum"
    description = "re-execute and compare output checksums; flag mismatches"
    coverage = CoverageModel(corrects_sdc=False, detects_sdc=True)
    replicas = 2
    loop_ops_per_element = COMPARE_OPS_PER_ELEMENT


#: name -> scheme singleton, in deterministic registry order.
SCHEMES: Dict[str, ProtectionScheme] = {
    scheme.name: scheme
    for scheme in (
        AbftChecksumScheme(),
        DuplicationVoteScheme(),
        ReexecutionScheme(),
        DetectOnlyScheme(),
    )
}


def get_scheme(name: str) -> ProtectionScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown protection scheme {name!r}; "
            f"available: {', '.join(sorted(SCHEMES))}"
        ) from None


def applicable_schemes(
    workload_name: str, object_name: str, names: Optional[List[str]] = None
) -> List[ProtectionScheme]:
    """The schemes that can protect ``object_name``, in registry order."""
    pool = [SCHEMES[n] for n in names] if names else list(SCHEMES.values())
    return [s for s in pool if s.applies_to(workload_name, object_name)]


# --------------------------------------------------------------------- #
# helpers shared with the apply layer
# --------------------------------------------------------------------- #
def _registry_name(workload: "Workload") -> str:
    """The registry key of a workload instance (its own name)."""
    return workload.name


def _constructor_kwargs(workload: "Workload") -> Dict[str, object]:
    """Reconstruct the size kwargs a registry factory needs.

    Workloads keep their constructor parameters as same-named attributes
    (``n``, ``cgitmax``, ``nparticles`` …), so the bespoke-variant cost
    model can re-instantiate the protected twin at identical scale.
    """
    import inspect

    kwargs: Dict[str, object] = {}
    signature = inspect.signature(type(workload).__init__)
    for name in signature.parameters:
        if name in ("self", "abft"):
            continue
        if hasattr(workload, name):
            kwargs[name] = getattr(workload, name)
    return kwargs
