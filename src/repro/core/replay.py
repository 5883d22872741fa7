"""Checkpointed replay of fault injections (the engine-side acceleration).

The seed injector re-executed the whole workload from scratch for every
injected fault.  A fault at dynamic instruction *d* cannot influence
anything before *d*, so the prefix of every faulty run is identical to the
golden run — the dominant, perfectly redundant cost of an injection
campaign.

:class:`ReplayContext` removes it:

1. run the workload **once**, capturing a :class:`~repro.vm.engine.Snapshot`
   schedule (complete dynamic state every *interval* instructions, memory
   as a copy-on-write fork);
2. restore the snapshot nearest the earliest pending fault and run forward
   with the faults armed — the prefix is never re-executed;
3. while running forward, compare state digests against the golden
   snapshots' digests *after* each fault site: a match proves the
   execution has converged back onto the golden run (masked fault), so the
   suffix is skipped too and the golden outcome is returned.

:meth:`ReplayContext.replay_many` is the one way faults are served, a
single fault included: the specs are sorted by site, one restore seeds a
shared lockstep suffix walk with per-fault divergence state
(:meth:`repro.vm.engine.Engine.resume_many`), divergent replays capture a
copy-on-write snapshot of the walk and run privately with digest checks
(every restore, the walk's included, goes through
:meth:`~repro.vm.engine.Engine.prepare_resume`).  Repeated faults are
answered one layer up, from the injector's table of classified results
(:class:`~repro.core.injector.DeterministicFaultInjector`).

Replayed executions are bit-identical to full re-runs: the engine restores
registers, the call stack, the complete address space and the allocator
counters, so every address, stack-slot name and dynamic id matches.  The
test suite asserts outcome identity against from-scratch runs
(``WorkloadInstance.run(fault=...)``) and from-scratch interpreted runs,
across workloads and fault targets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import registry as _metrics_registry
from repro.vm.engine import Engine, Snapshot, snapshot_digest
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import RunOutcome, Workload

#: Snapshots a derived checkpoint interval aims for: the golden run lands
#: between this many and twice as many.
TARGET_CHECKPOINTS = 64


class ReplayContext:
    """Golden run + snapshot schedule of one workload, shared by many
    injections, which :meth:`replay_many` answers in batches.

    Parameters
    ----------
    workload:
        The workload to prepare.  Its ``fresh_instance`` must be
        deterministic (the base-class contract).
    checkpoint_interval:
        Snapshot spacing in dynamic instructions.  Default: derived from
        the golden run alone.  The golden run starts at an interval of 64
        and lets the engine's ``snapshot_budget`` thin the schedule by
        doubling, landing between :data:`TARGET_CHECKPOINTS` and twice that
        many snapshots without a separate step-counting probe run.  The
        schedule, and with it every ``converged_at``, is the same in every
        context and every process.
    sink:
        Optional :class:`~repro.tracing.columnar.ColumnarTrace` that
        records the golden run while the snapshot schedule is captured, so
        consumers needing both the golden trace and replay injection — the
        aDVF engine — pay for a single golden execution.  Exposed
        afterwards as :attr:`golden_trace`.
    """

    def __init__(
        self,
        workload: "Workload",
        checkpoint_interval: Optional[int] = None,
        sink=None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.workload = workload

        self.instance = workload.fresh_instance()
        derived = checkpoint_interval is None
        engine = Engine(
            self.instance.module,
            self.instance.memory,
            sink=sink,
            snapshot_interval=64 if derived else checkpoint_interval,
            snapshot_budget=2 * TARGET_CHECKPOINTS if derived else None,
            max_steps=workload.max_steps,
        )
        block = engine.backend == "block"
        if block and sink is None:
            engine.entry_log = []
        result = engine.run(workload.entry, self.instance.args)
        #: The golden dynamic trace, when a recording sink was supplied.
        self.golden_trace = sink
        #: Fused segment -> sorted golden entry positions (block backend
        #: only): the batch walk compiles ``lanes`` only where they let it
        #: pay (:meth:`repro.mir.lower.MirSegment.hot`).
        self.segment_entries = None
        if block:
            from repro.mir import mir_program_for
            from repro.mir.lower import entries_from_log, entries_from_trace

            self.segment_entries = (
                entries_from_log(engine.entry_log)
                if sink is None
                else entries_from_trace(mir_program_for(engine.program), sink)
            )
        self.checkpoint_interval = engine.snapshot_interval
        self.snapshots: List[Snapshot] = engine.snapshots
        self._snapshot_positions = [snap.dyn for snap in self.snapshots]
        self.golden_steps = result.steps
        self.golden_return = result.return_value
        self.golden_outputs: Dict[str, np.ndarray] = {
            name: self.instance.memory.object(name).values()
            for name in workload.output_objects
        }
        #: Scheduler telemetry (cumulative over all ``replay_many`` calls).
        self.stats = ReplayBatchStats()
        self._golden_digest_cache: Optional[Dict[int, bytes]] = None
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("replay.contexts", workload=workload.name)
            reg.observe(
                "replay.golden_steps", float(result.steps),
                workload=workload.name,
            )

    # ------------------------------------------------------------------ #
    def golden_outcome(self) -> "RunOutcome":
        """The fault-free outcome (outputs are fresh copies)."""
        from repro.workloads.base import RunOutcome

        return RunOutcome(
            outputs={name: a.copy() for name, a in self.golden_outputs.items()},
            return_value=self.golden_return,
            steps=self.golden_steps,
            trace=None,
        )

    # ------------------------------------------------------------------ #
    def plan_batches(
        self, specs: Sequence[FaultSpec], presorted: bool = False
    ) -> List[ReplayBatch]:
        """Group ``specs`` by the snapshot interval their site falls in.

        This is the scheduler's one grouping implementation:
        :meth:`replay_many` calls it (with ``presorted=True`` on its
        already-ordered list) for the per-batch telemetry, and tests use it
        to introspect the snapshot each fault replays from.
        """
        ordered = (
            list(specs)
            if presorted
            else sorted(specs, key=lambda spec: spec.dynamic_id)
        )
        batches: List[ReplayBatch] = []
        current: List[FaultSpec] = []
        current_index = -1
        for spec in ordered:
            index = bisect_right(self._snapshot_positions, spec.dynamic_id) - 1
            if index < 0:
                raise ValueError(
                    f"no snapshot at or before dynamic id {spec.dynamic_id}"
                )
            if index != current_index:
                if current:
                    batches.append(ReplayBatch(
                        snapshot_index=current_index,
                        snapshot_dyn=self.snapshots[current_index].dyn,
                        specs=tuple(current),
                    ))
                current = []
                current_index = index
            current.append(spec)
        if current:
            batches.append(ReplayBatch(
                snapshot_index=current_index,
                snapshot_dyn=self.snapshots[current_index].dyn,
                specs=tuple(current),
            ))
        return batches

    def _golden_digests(self) -> Dict[int, bytes]:
        if self._golden_digest_cache is None:
            self._golden_digest_cache = {
                snap.dyn: snapshot_digest(snap) for snap in self.snapshots
            }
        return self._golden_digest_cache

    # ------------------------------------------------------------------ #
    def replay_many(self, specs: Sequence[FaultSpec]) -> List[BatchReplayResult]:
        """Execute every spec via the batch scheduler, in input order.

        Faults whose execution raises are returned with ``error`` set
        instead of raising, so one crashing fault does not abort the batch
        (callers classify crashes/hangs exactly as a from-scratch faulty
        run would raise them).
        """
        specs = list(specs)
        if not specs:
            return []
        order = sorted(range(len(specs)), key=lambda i: (specs[i].dynamic_id, i))
        ordered = [specs[i] for i in order]
        stats = self.stats
        stats_before = stats.to_dict()
        stats.batches += 1
        stats.groups += len(self.plan_batches(ordered, presorted=True))
        stats.faults += len(specs)
        engine = Engine(
            self.instance.module,
            self.instance.memory,
            max_steps=self.workload.max_steps,
        )
        resolutions = engine.resume_many(
            self.snapshots, ordered, golden_digests=self._golden_digests(),
            segment_entries=self.segment_entries,
        )
        stats.walk_ops += engine.walk_ops
        stats.walk_fused_ops += engine.walk_fused_ops
        stats.walk_lane_ops += engine.walk_lane_ops
        stops = engine.walk_stops
        if stops:
            stats.walk_stops_arm += stops.get("arm", 0)
            stats.walk_stops_evict += stops.get("evict", 0)
            stats.walk_stops_lane_error += stops.get("lane_error", 0)
        results: List[Optional[BatchReplayResult]] = [None] * len(specs)
        for position, resolution in zip(order, resolutions):
            results[position] = self._finish(resolution)
        reg = _metrics_registry()
        if reg.enabled:
            # mirror this call's ReplayBatchStats delta into the registry,
            # keeping the per-context dataclass as the canonical struct
            for key, value in stats.to_dict().items():
                delta = value - stats_before[key]
                if not delta:
                    continue
                if key.startswith(_STOPS_PREFIX):
                    reg.inc(
                        "replay.walk_stops", delta, workload=self.workload.name,
                        cause=key[len(_STOPS_PREFIX):],
                    )
                else:
                    reg.inc(
                        "replay." + key, delta, workload=self.workload.name
                    )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _finish(self, resolution) -> BatchReplayResult:
        """Translate an engine resolution into a :class:`BatchReplayResult`,
        updating counters."""
        from repro.workloads.base import RunOutcome

        stats = self.stats
        spec = resolution.spec
        kind = resolution.kind
        if resolution.private:
            stats.evicted += 1
        else:
            stats.lockstep += 1

        if kind == "golden":
            stats.converged += 1
            return BatchReplayResult(
                spec=spec,
                outcome=self.golden_outcome(),
                converged_at=resolution.converged_at,
                via="lockstep" if not resolution.private else "private",
            )
        if kind == "completed":
            outputs = {
                name: array.copy()
                for name, array in self.golden_outputs.items()
            }
            for name, index, value in resolution.cell_deltas:
                array = outputs.get(name)
                if array is not None:
                    array[index] = value
            return BatchReplayResult(
                spec=spec,
                outcome=RunOutcome(
                    outputs=outputs,
                    return_value=resolution.return_value,
                    steps=resolution.steps,
                    trace=None,
                ),
                via="completed",
            )
        if kind == "private":
            return BatchReplayResult(
                spec=spec,
                outcome=RunOutcome(
                    outputs={
                        name: resolution.memory.object(name).values()
                        for name in self.workload.output_objects
                    },
                    return_value=resolution.return_value,
                    steps=resolution.steps,
                    trace=None,
                ),
                via="private",
            )
        # kind == "error"
        return BatchReplayResult(spec=spec, error=resolution.error, via="error")


# --------------------------------------------------------------------- #
# batched replay scheduler
# --------------------------------------------------------------------- #
#: ``ReplayBatchStats`` fields mirrored as ``replay.walk_stops{cause=...}``.
_STOPS_PREFIX = "walk_stops_"


@dataclass
class ReplayBatchStats:
    """Counters of the batched replay scheduler (telemetry, per context).

    ``batches`` counts lockstep walks (each restores exactly one snapshot,
    so ``faults / batches`` is the amortization the scheduler achieves);
    ``groups`` counts the snapshot-interval groups those walks spanned.
    ``walk_ops`` counts the ops the lockstep walks executed,
    ``walk_fused_ops`` the subset that ran as fused MIR segments and
    ``walk_lane_ops`` the subset of those that ran in a segment's
    divergence-carrying ``lanes`` variant; ``walk_stops_<cause>`` count the
    ``lanes`` runs that handed an op back to the op loop because a fault
    armed there (``arm``), an address or branch direction diverged
    (``evict``) or an evaluation raised (``lane_error``).  All are added
    once per walk, never per op; the registry mirrors the stops as one
    ``replay.walk_stops`` counter labelled by ``cause``.
    """

    batches: int = 0
    groups: int = 0
    faults: int = 0
    lockstep: int = 0
    evicted: int = 0
    converged: int = 0
    walk_ops: int = 0
    walk_fused_ops: int = 0
    walk_lane_ops: int = 0
    walk_stops_arm: int = 0
    walk_stops_evict: int = 0
    walk_stops_lane_error: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "groups": self.groups,
            "faults": self.faults,
            "lockstep": self.lockstep,
            "evicted": self.evicted,
            "converged": self.converged,
            "walk_ops": self.walk_ops,
            "walk_fused_ops": self.walk_fused_ops,
            "walk_lane_ops": self.walk_lane_ops,
            "walk_stops_arm": self.walk_stops_arm,
            "walk_stops_evict": self.walk_stops_evict,
            "walk_stops_lane_error": self.walk_stops_lane_error,
        }


@dataclass(frozen=True)
class ReplayBatch:
    """One snapshot-interval group of a batched submission.

    ``snapshot_dyn`` is the dynamic id of the snapshot serving the group;
    ``specs`` are the group's faults in ascending site order.  The
    scheduler restores each group's snapshot at most once (in practice a
    whole submission shares a single restore — the lockstep walk runs
    through consecutive groups without re-restoring).
    """

    snapshot_index: int
    snapshot_dyn: int
    specs: Tuple[FaultSpec, ...]


@dataclass
class BatchReplayResult:
    """Outcome of one fault of a batched submission.

    Exactly one of ``outcome`` / ``error`` is set; ``error`` carries the
    same exception type and message a from-scratch faulty run raises.
    ``converged_at`` is the dynamic id at which the execution was proven
    bit-identical to golden (``None`` when it never was); ``via`` names the
    resolution path (``lockstep`` / ``completed`` / ``private`` /
    ``error``) for telemetry and tests.
    """

    spec: FaultSpec
    outcome: Optional["RunOutcome"] = None
    error: Optional[BaseException] = None
    converged_at: Optional[int] = None
    via: str = "lockstep"
