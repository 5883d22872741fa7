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
back onto the golden state early.  Faults that left the lockstep walk
for a replay of their own are memoised by spec, in process and across
processes through a persisted artifact, so a repeated spec is answered
without a replay.  Outcomes are
bit-identical to full re-runs (the test suite asserts them against
from-scratch runs and a from-scratch, interpreted oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.acceptance import OutcomeClass, ScalarResultCheck, classify_outcome
from repro.core.replay import ReplayContext
from repro.obs.metrics import registry as _metrics_registry
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
    """Run a workload with single, precisely-placed bit flips.

    Results are memoised by fault spec: a fault's outcome is a pure
    function of its spec and the golden execution, so a spec the injector
    has classified before is answered from its table instead of replayed.
    The table records the faults that left the lockstep walk for a replay
    of their own (:attr:`~repro.core.replay.BatchReplayResult.private`),
    whatever that replay's outcome, crashes and hangs included; a fault
    the walk resolves itself — carried to its end, or raising at one of
    its ops — costs only a share of the next walk, so it is not
    recorded.  With a ``memo_key`` (the trace digest), the table
    warm-starts from the persisted artifact of
    :class:`~repro.tracing.cache.MemoCache` and ships what it learns
    onward through :meth:`consume_memo_delta`.
    """

    def __init__(
        self,
        workload: Workload,
        context: Optional[ReplayContext] = None,
        memo_key: Optional[str] = None,
    ) -> None:
        self.workload = workload
        self._golden: Optional[RunOutcome] = None
        #: A caller-supplied golden run + snapshot schedule may be shared
        #: (e.g. the aDVF engine records its golden trace during the same
        #: execution that captures the checkpoints).
        self._context: Optional[ReplayContext] = context
        #: Trace digest keying the persisted memo artifact (``None``
        #: disables memo persistence for this injector).
        self.memo_key = memo_key
        self._stats_seen: Dict[str, int] = {}
        #: Classified results of privately replayed faults by spec; ``_warm``
        #: holds the specs that came from the artifact, and ``_learned``
        #: the results recorded since the last delta.
        self._memo: Dict[FaultSpec, FaultInjectionResult] = {}
        if memo_key is not None:
            # warm-start once, here: a campaign builds its injector before
            # its workers fork, so they inherit the table; a missing or
            # mismatched artifact leaves it cold
            from repro.tracing.cache import MemoCache

            cache = MemoCache.from_env()
            payload = cache.load(memo_key) if cache is not None else None
            for row in payload["rows"] if payload else ():
                result = FaultInjectionResult.from_row(row)
                self._memo[result.spec] = result
        self._warm: Set[FaultSpec] = set(self._memo)
        self._learned: List[FaultInjectionResult] = []
        self._memo_stats = dict.fromkeys(
            ("memo_hits", "memo_misses", "memo_persist_hits"), 0
        )

    # ------------------------------------------------------------------ #
    @property
    def context(self) -> ReplayContext:
        """The shared golden run + snapshot schedule (built on first use)."""
        if self._context is None:
            self._context = ReplayContext(self.workload)
        return self._context

    @property
    def golden(self) -> RunOutcome:
        """The cached fault-free reference run."""
        if self._golden is None:
            self._golden = self.context.golden_outcome()
        return self._golden

    def inject_many(self, specs: Sequence[FaultSpec]) -> List[FaultInjectionResult]:
        """Inject every spec, one result per spec, in order.

        Specs the table holds are answered from it; every other distinct
        spec is replayed once, all of them in one
        :meth:`ReplayContext.replay_many` call (a shared lockstep suffix
        walk from one snapshot restore).  Each result carries the spec
        submitted at its position, so a duplicate keeps its own ``note``.
        Outcome-identical to one from-scratch faulty run per spec (the
        parity suite asserts it).  See :mod:`repro.parallel` for the
        multiprocessing campaign runner.
        """
        specs = list(specs)
        if not specs:
            return []
        memo = self._memo
        results = {spec: memo[spec] for spec in specs if spec in memo}
        hits = sum(spec in results for spec in specs)
        persist_hits = sum(spec in self._warm for spec in specs)
        fresh = [spec for spec in dict.fromkeys(specs) if spec not in results]
        misses = 0
        for replayed in self.context.replay_many(fresh) if fresh else ():
            result = self._classify(replayed.spec, replayed.outcome, replayed.error)
            results[replayed.spec] = result
            if replayed.private:
                memo[replayed.spec] = result
                misses += 1
                if self.memo_key is not None:
                    self._learned.append(result)
        self._count(hits, misses, persist_hits)
        return [
            FaultInjectionResult(spec, results[spec].outcome, results[spec].detail)
            for spec in specs
        ]

    def _count(self, hits: int, misses: int, persist_hits: int) -> None:
        """Add to the memo counters, here and in the metrics registry."""
        reg = _metrics_registry()
        for key, value in (("memo_hits", hits), ("memo_misses", misses),
                           ("memo_persist_hits", persist_hits)):
            if value:
                self._memo_stats[key] += value
                if reg.enabled:
                    reg.inc("replay." + key, value, workload=self.workload.name)

    def consume_batch_stats(self) -> Dict[str, int]:
        """Memo and batch-scheduler counter deltas since the previous call.

        The scheduler's counters appear once the context is built (a call
        answered wholly from the table builds none).  Used by campaign
        workers to stamp per-shard telemetry (batches, memo hits and
        misses) into the store.
        """
        current = dict(self._memo_stats)
        if self._context is not None:
            current.update(self._context.stats.to_dict())
        delta = {
            key: value - self._stats_seen.get(key, 0)
            for key, value in current.items()
        }
        self._stats_seen = current
        return delta

    def consume_memo_delta(self) -> Optional[Dict[str, object]]:
        """Artifact payload of the results recorded since the previous call.

        ``None`` when nothing new was recorded or the injector has no
        ``memo_key`` (persistence disabled).  Campaign workers return this
        per unit; the orchestrator folds the deltas into the persisted
        artifact via :meth:`repro.tracing.cache.MemoCache.merge_store`.
        """
        if not self._learned:
            return None
        from repro.tracing.cache import MEMO_FORMAT_VERSION

        rows = [result.to_row() for result in self._learned]
        self._learned = []
        return {"format": MEMO_FORMAT_VERSION, "rows": rows,
                "trace": self.memo_key}

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
            return_check=(ScalarResultCheck()
                          if self.workload.check_return_value else None),
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
