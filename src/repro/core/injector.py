"""Deterministic fault injector (§IV).

The injector executes a workload from identical initial state with one
single-bit fault applied at a specific dynamic instruction operand, runs it
to completion, and classifies the outcome against the golden run using the
workload's acceptance criterion.  MOARD uses it for the analyses the trace
analysis tool cannot resolve statically: algorithm-level masking, corrupted
control flow / addressing, and value-overshadowing confirmation.

Every injection replays from a :class:`~repro.core.replay.ReplayContext`:
the golden run and a snapshot schedule are computed once, and
:meth:`DeterministicFaultInjector.inject_many` submits a set of faults —
one or many — to the context's batch scheduler in one call, which runs
only the suffix after each fault site and stops executions that converge
back onto the golden state early.  Outcomes are bit-identical to full
re-runs (the test suite asserts them against from-scratch runs and a
from-scratch, interpreted oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.acceptance import OutcomeClass, ScalarResultCheck, classify_outcome
from repro.core.replay import ReplayContext
from repro.vm.errors import StepLimitExceeded, VMError
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import RunOutcome, Workload



@dataclass
class FaultInjectionResult:
    """Classification of one faulty run."""

    spec: FaultSpec
    outcome: OutcomeClass
    detail: str = ""

    @property
    def masked(self) -> bool:
        return self.outcome.is_masked

    def to_row(self) -> Dict[str, object]:
        """Flat-dict form matching the campaign store's outcome columns."""
        row = self.spec.to_dict()
        row["outcome"] = self.outcome.value
        row["detail"] = self.detail
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "FaultInjectionResult":
        """Inverse of :meth:`to_row`."""
        return cls(
            spec=FaultSpec.from_dict(row),
            outcome=OutcomeClass(row["outcome"]),
            detail=str(row.get("detail", "")),
        )


class DeterministicFaultInjector:
    """Run a workload with single, precisely-placed bit flips."""

    def __init__(
        self,
        workload: Workload,
        check_return_value: Optional[bool] = None,
        context: Optional[ReplayContext] = None,
        memo_key: Optional[str] = None,
    ) -> None:
        self.workload = workload
        if check_return_value is None:
            check_return_value = getattr(workload, "check_return_value", True)
        self.check_return_value = check_return_value
        self._golden: Optional[RunOutcome] = None
        #: A caller-supplied golden run + snapshot schedule may be shared
        #: (e.g. the aDVF engine records its golden trace during the same
        #: execution that captures the checkpoints).
        self._context: Optional[ReplayContext] = context
        #: Trace digest keying the persisted convergence-memo artifact
        #: (``None`` disables memo persistence for this injector).
        self.memo_key = memo_key
        self.runs = 0
        self._stats_seen: Dict[str, int] = {}
        self._warmed = False

    # ------------------------------------------------------------------ #
    @property
    def context(self) -> ReplayContext:
        """The shared golden run + snapshot schedule (built on first use)."""
        if self._context is None:
            self._context = ReplayContext(self.workload)
        self._warm_start()
        return self._context

    def _warm_start(self) -> None:
        """Merge the persisted memo artifact into the context's memo, once.

        A no-op without a ``memo_key`` or a configured
        :class:`~repro.tracing.cache.MemoCache`; a missing or mismatched
        artifact just leaves the memo cold.
        """
        if self._warmed:
            return
        self._warmed = True
        if self.memo_key is None:
            return
        from repro.tracing.cache import MemoCache

        cache = MemoCache.from_env()
        if cache is not None:
            self._context.memo.merge_payload(cache.load(self.memo_key))

    @property
    def golden(self) -> RunOutcome:
        """The cached fault-free reference run."""
        if self._golden is None:
            self._golden = self.context.golden_outcome()
        return self._golden

    def inject_many(self, specs: Sequence[FaultSpec]) -> List[FaultInjectionResult]:
        """Inject every spec as one batch of the replay scheduler.

        Every non-empty submission, a single spec included, is one
        :meth:`ReplayContext.replay_many` call: driven through a shared
        lockstep suffix walk from one snapshot restore, and answered by
        the convergence memo where possible — outcome-identical to one
        from-scratch faulty run per spec (the parity suite asserts it).
        See :mod:`repro.parallel` for the multiprocessing campaign runner.
        """
        specs = list(specs)
        if not specs:
            return []
        self.runs += len(specs)
        replayed = self.context.replay_many(specs)
        return [
            self._classify(result.spec, result.outcome, result.error)
            for result in replayed
        ]

    def consume_batch_stats(self) -> Dict[str, int]:
        """Batch-scheduler counter deltas since the previous call.

        Returns an empty dict before the context is built.  Used by
        campaign workers to stamp per-shard scheduler telemetry (batches,
        memo hit rate) into the store.
        """
        context = self._context
        if context is None:
            return {}
        current = context.stats.to_dict()
        delta = {
            key: value - self._stats_seen.get(key, 0)
            for key, value in current.items()
        }
        self._stats_seen = current
        return delta

    def consume_memo_delta(self) -> Optional[Dict[str, object]]:
        """Payload of memo entries learned since the previous call.

        ``None`` when nothing new was recorded, no injection ran yet, or
        the injector has no ``memo_key`` (persistence disabled).  Campaign
        workers return this per chunk; the orchestrator folds the deltas
        into the persisted artifact via
        :meth:`repro.tracing.cache.MemoCache.merge_store`.
        """
        if self.memo_key is None or self._context is None:
            return None
        delta = self._context.memo.consume_delta()
        if delta is not None:
            delta["trace"] = self.memo_key
        return delta

    def _classify(
        self,
        spec: FaultSpec,
        outcome: Optional["RunOutcome"],
        error: Optional[BaseException],
    ) -> FaultInjectionResult:
        """Classify one faulty run."""
        golden = self.golden
        crashed = hung = False
        detail = ""
        outputs: Dict[str, np.ndarray] = {}
        return_value = None
        if error is not None:
            if isinstance(error, StepLimitExceeded):
                hung = True
                detail = str(error)
            elif isinstance(error, VMError):
                crashed = True
                detail = str(error)
            else:
                # a non-VM failure is a harness bug, not an injection
                # outcome — surface it
                raise error
        else:
            outputs = outcome.outputs
            return_value = outcome.return_value

        classification = classify_outcome(
            self.workload.acceptance,
            golden.outputs,
            outputs,
            crashed=crashed,
            hung=hung,
            golden_return=golden.return_value,
            faulty_return=return_value,
            return_check=ScalarResultCheck() if self.check_return_value else None,
        )
        return FaultInjectionResult(spec=spec, outcome=classification, detail=detail)

    # ------------------------------------------------------------------ #
    def outcome_histogram(
        self, results: Sequence[FaultInjectionResult]
    ) -> Dict[OutcomeClass, int]:
        histogram: Dict[OutcomeClass, int] = {}
        for result in results:
            histogram[result.outcome] = histogram.get(result.outcome, 0) + 1
        return histogram
