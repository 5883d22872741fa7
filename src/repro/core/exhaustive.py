"""Exhaustive fault injection (§V-B model validation).

The exhaustive campaign injects into *every* valid fault site of a data
object and reports the success rate (fraction of runs whose outcome is
identical or acceptable).  The paper uses it as ground truth to validate
that aDVF ranks data objects correctly; it is accurate but — as the paper
stresses — impractical at scale, which is why the optional stride/sampling
parameters exist for laptop-sized runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.acceptance import OutcomeClass
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.core.sites import FaultSitePool, enumerate_fault_sites, strided_subsample
from repro.tracing.columnar import ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import Workload



@dataclass
class ExhaustiveResult:
    """Aggregate of an exhaustive (or strided-exhaustive) campaign."""

    object_name: str
    sites_total: int
    sites_injected: int
    outcomes: Dict[OutcomeClass, int] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Fraction of injections with correct (identical/acceptable) outcome."""
        if self.sites_injected == 0:
            return 0.0
        successes = sum(
            count for outcome, count in self.outcomes.items() if outcome.is_success
        )
        return successes / self.sites_injected

    @property
    def crash_rate(self) -> float:
        if self.sites_injected == 0:
            return 0.0
        crashes = self.outcomes.get(OutcomeClass.CRASH, 0) + self.outcomes.get(
            OutcomeClass.HANG, 0
        )
        return crashes / self.sites_injected

    def describe(self) -> str:
        parts = ", ".join(
            f"{outcome.value}={count}" for outcome, count in sorted(
                self.outcomes.items(), key=lambda item: item[0].value
            )
        )
        return (
            f"{self.object_name}: success rate {self.success_rate:.3f} over "
            f"{self.sites_injected}/{self.sites_total} sites ({parts})"
        )


class ExhaustiveCampaign:
    """Run (a deterministic subsample of) the exhaustive fault space.

    Injections use checkpointed replay by default: the campaign's injector
    prepares the golden run and the snapshot schedule once, and every fault
    of every object replays only the suffix after its site (pass an explicit
    ``injector`` to share that preparation across campaigns).
    """

    def __init__(
        self,
        workload: Workload,
        bit_stride: int = 1,
        max_participations: Optional[int] = None,
        max_injections: Optional[int] = None,
        injector: Optional[DeterministicFaultInjector] = None,
    ) -> None:
        self.workload = workload
        self.bit_stride = bit_stride
        self.max_participations = max_participations
        self.max_injections = max_injections
        self.injector = injector or DeterministicFaultInjector(workload)

    def sites_for(self, trace: ColumnarTrace, object_name: str) -> FaultSitePool:
        return enumerate_fault_sites(
            trace,
            object_name,
            bit_stride=self.bit_stride,
            max_participations=self.max_participations,
        )

    def run(self, trace: ColumnarTrace, object_name: str) -> ExhaustiveResult:
        """Inject into every (sampled) site of ``object_name``."""
        sites = self.sites_for(trace, object_name)
        total = len(sites)
        sites = strided_subsample(sites, self.max_injections)
        outcomes: Dict[OutcomeClass, int] = {}
        # one batched submission: the replay scheduler groups the sites by
        # snapshot interval and shares the suffix walk across them
        for result in self.injector.inject_many([s.to_spec() for s in sites]):
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        return ExhaustiveResult(
            object_name=object_name,
            sites_total=total,
            sites_injected=len(sites),
            outcomes=outcomes,
        )

    def run_many(
        self, trace: ColumnarTrace, object_names: Sequence[str]
    ) -> Dict[str, ExhaustiveResult]:
        """Campaigns for several data objects over the same trace."""
        return {name: self.run(trace, name) for name in object_names}


def rank_by_success_rate(results: Dict[str, ExhaustiveResult]) -> List[str]:
    """Object names ordered from most to least resilient."""
    return sorted(results, key=lambda name: results[name].success_rate, reverse=True)
