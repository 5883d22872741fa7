"""From-scratch injection: the ground truth for checkpointed replay.

:class:`RerunInjector` is a :class:`~repro.core.injector.DeterministicFaultInjector`
whose golden run and every faulty run are fresh executions of a new
workload instance on the tree-walking :class:`~oracles.interpreter.Interpreter`.
No snapshot, digest, memo or decoded op is involved, so an engine or replay
bug cannot hide in a comparison against it; outcomes are classified by the
inherited ``_classify``, exactly as the production injector classifies its
replays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.vm.errors import StepLimitExceeded, VMError
from repro.vm.faults import FaultSpec
from repro.workloads.base import RunOutcome, Workload

from oracles.interpreter import Interpreter


def run_interpreted(
    workload: Workload, trace=None, fault: Optional[FaultSpec] = None
) -> RunOutcome:
    """One execution of a fresh ``workload`` instance on the interpreter."""
    instance = workload.fresh_instance()
    result = Interpreter(
        instance.module,
        instance.memory,
        trace=trace,
        fault=fault,
        max_steps=workload.max_steps,
    ).run(workload.entry, instance.args)
    return RunOutcome(
        outputs={
            name: instance.memory.object(name).values()
            for name in workload.output_objects
        },
        return_value=result.return_value,
        steps=result.steps,
        trace=trace,
    )


class RerunInjector(DeterministicFaultInjector):
    """Inject by re-running the whole workload, interpreted, per fault."""

    @property
    def golden(self) -> RunOutcome:
        if self._golden is None:
            self._golden = run_interpreted(self.workload)
        return self._golden

    def inject(self, spec: FaultSpec) -> FaultInjectionResult:
        outcome = None
        error: Optional[BaseException] = None
        try:
            outcome = run_interpreted(self.workload, fault=spec)
        except (StepLimitExceeded, VMError) as exc:
            error = exc
        return self._classify(spec, outcome, error)

    def inject_many(self, specs: Sequence[FaultSpec]) -> List[FaultInjectionResult]:
        return [self.inject(spec) for spec in specs]
