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
:meth:`~repro.vm.engine.Engine.prepare_resume`), and a
convergence memo (:class:`ReplayMemo`) answers repeated divergent states
without re-execution.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import registry as _metrics_registry
from repro.vm.engine import Engine, Snapshot, snapshot_digest
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import RunOutcome, Workload

#: Format version of the serialised convergence-memo artifact.  Bumped on
#: any change to the payload layout or the entry encoding; persisted memos
#: of other versions are treated as cold (never migrated in place).
MEMO_FORMAT_VERSION = 2

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
        schedule, and with it every ``converged_at`` and persisted memo
        key, is the same in every context and every process.
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
        result = engine.run(workload.entry, self.instance.args)
        #: The golden dynamic trace, when a recording sink was supplied.
        self.golden_trace = sink
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
        #: The convergence memo of :meth:`replay_many`.  Exposed for
        #: persistence: callers warm-start it from an artifact via
        #: :meth:`ReplayMemo.merge_payload` and ship learned entries onward
        #: via :meth:`ReplayMemo.consume_delta`.
        self.memo = ReplayMemo()
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
            memo=self.memo,
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
        updating counters and the convergence memo."""
        from repro.workloads.base import RunOutcome

        stats = self.stats
        spec = resolution.spec
        kind = resolution.kind
        memo = self.memo
        if resolution.private:
            stats.evicted += 1
            if kind != "memo":
                stats.memo_misses += 1
        else:
            stats.lockstep += 1

        if kind == "golden":
            stats.converged += 1
            if resolution.visited:
                stats.memo_evictions += memo.record(resolution.visited, _MemoEntry(
                    "golden", converged_at=resolution.converged_at,
                ))
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
            outputs = {
                name: resolution.memory.object(name).values()
                for name in self.workload.output_objects
            }
            if resolution.visited:
                stats.memo_evictions += memo.record(resolution.visited, _MemoEntry(
                    "outcome",
                    outputs={k: v.copy() for k, v in outputs.items()},
                    return_value=resolution.return_value,
                    steps=resolution.steps,
                ))
            return BatchReplayResult(
                spec=spec,
                outcome=RunOutcome(
                    outputs=outputs,
                    return_value=resolution.return_value,
                    steps=resolution.steps,
                    trace=None,
                ),
                via="private",
            )
        if kind == "memo":
            entry = resolution.memo_entry
            stats.memo_hits += 1
            if getattr(entry, "warm", False):
                stats.memo_persist_hits += 1
            if resolution.visited:
                stats.memo_evictions += memo.record(resolution.visited, entry)
            if entry.kind == "golden":
                stats.converged += 1
                return BatchReplayResult(
                    spec=spec,
                    outcome=self.golden_outcome(),
                    converged_at=entry.converged_at,
                    via="memo",
                )
            if entry.kind == "error":
                return BatchReplayResult(spec=spec, error=entry.error, via="memo")
            return BatchReplayResult(
                spec=spec,
                outcome=RunOutcome(
                    outputs={k: v.copy() for k, v in entry.outputs.items()},
                    return_value=entry.return_value,
                    steps=entry.steps,
                    trace=None,
                ),
                via="memo",
            )
        # kind == "error"
        if resolution.visited:
            stats.memo_evictions += memo.record(resolution.visited, _MemoEntry(
                "error", error=resolution.error,
            ))
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
    ``memo_hits`` / ``memo_misses`` account the convergence memo: a *hit*
    answers a divergent replay from a previously recorded state, a *miss*
    is a divergent replay that had to run to completion.
    ``memo_persist_hits`` is the subset of hits answered by an entry that
    arrived through a persisted memo artifact (cross-process warm start);
    ``memo_evictions`` counts entries dropped by the memo's FIFO eviction.
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
    memo_hits: int = 0
    memo_misses: int = 0
    memo_persist_hits: int = 0
    memo_evictions: int = 0
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
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_persist_hits": self.memo_persist_hits,
            "memo_evictions": self.memo_evictions,
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


class _MemoEntry:
    """Recorded outcome tail of one divergent replay (see :class:`ReplayMemo`)."""

    __slots__ = ("kind", "outputs", "return_value", "steps", "converged_at",
                 "error", "warm")

    def __init__(self, kind, outputs=None, return_value=None, steps=0,
                 converged_at=None, error=None, warm=False) -> None:
        self.kind = kind  # "golden" | "outcome" | "error"
        self.outputs = outputs
        self.return_value = return_value
        self.steps = steps
        self.converged_at = converged_at
        self.error = error
        #: Whether the entry arrived through a persisted memo artifact
        #: (cross-process warm start) rather than a replay in this process.
        self.warm = warm


# --------------------------------------------------------------------- #
# memo entry (de)serialisation
# --------------------------------------------------------------------- #
def _encode_array(array: np.ndarray) -> Dict[str, object]:
    """JSON form of an output array, exact for every dtype the VM uses.

    ``tolist`` widens float32 to Python floats (float64) losslessly; JSON
    round-trips float64 via shortest-repr exactly; and narrowing back to
    the recorded dtype recovers the original bits (every float32 is
    exactly representable in float64).  Integers are exact throughout.
    """
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "values": array.ravel().tolist(),
    }


def _decode_array(payload: Dict[str, object]) -> np.ndarray:
    return np.array(
        payload["values"], dtype=np.dtype(str(payload["dtype"]))
    ).reshape([int(n) for n in payload["shape"]])


def _encode_scalar(value):
    # numpy scalars first: np.float64 subclasses float, so the plain-type
    # check would silently strip the dtype tag
    if isinstance(value, np.generic):
        return {"__np__": str(value.dtype), "value": value.item()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unserialisable memo return value {value!r}")


def _decode_scalar(payload):
    if isinstance(payload, dict) and "__np__" in payload:
        return np.dtype(str(payload["__np__"])).type(payload["value"])
    return payload


def _decode_error(type_name: str, message: str) -> BaseException:
    """Rebuild a VM error of the recorded type carrying the recorded message.

    Classification only depends on the exception's type (hang vs crash) and
    its ``str()``, so the instance is constructed without re-running the
    subclass constructor (signatures differ across error types).  Unknown
    type names degrade to the :class:`~repro.vm.errors.VMError` base.
    """
    from repro.vm import errors as vm_errors

    cls = getattr(vm_errors, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, vm_errors.VMError)):
        cls = vm_errors.VMError
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    return error


def _encode_entry(entry: _MemoEntry) -> Dict[str, object]:
    if entry.kind == "golden":
        return {"kind": "golden", "converged_at": entry.converged_at}
    if entry.kind == "error":
        return {
            "kind": "error",
            "error_type": type(entry.error).__name__,
            "error_message": str(entry.error),
        }
    return {
        "kind": "outcome",
        "outputs": {
            name: _encode_array(array)
            for name, array in sorted((entry.outputs or {}).items())
        },
        "return_value": _encode_scalar(entry.return_value),
        "steps": entry.steps,
    }


def _decode_entry(payload: Dict[str, object], warm: bool) -> _MemoEntry:
    kind = payload["kind"]
    if kind == "golden":
        converged_at = payload.get("converged_at")
        return _MemoEntry(
            "golden",
            converged_at=None if converged_at is None else int(converged_at),
            warm=warm,
        )
    if kind == "error":
        return _MemoEntry(
            "error",
            error=_decode_error(
                str(payload.get("error_type", "VMError")),
                str(payload.get("error_message", "")),
            ),
            warm=warm,
        )
    return _MemoEntry(
        "outcome",
        outputs={
            name: _decode_array(spec)
            for name, spec in dict(payload.get("outputs", {})).items()
        },
        return_value=_decode_scalar(payload.get("return_value")),
        steps=int(payload.get("steps", 0)),
        warm=warm,
    )


class ReplayMemo:
    """Convergence memoization table: ``(checkpoint op, state digest) → tail``.

    A faulty execution is a pure function of its complete dynamic state, so
    once a replay passing through checkpoint ``c`` with state digest ``d``
    has been run to its outcome, every later replay reaching ``(c, d)`` must
    end the same way and can skip the remaining suffix entirely.  Golden
    convergence is the special case where ``d`` equals the golden digest
    (handled separately by the engine's digest checks); this table covers
    repeated *divergent* states.

    The table is bounded: past ``max_entries`` the oldest entries are
    FIFO-evicted (insertion order, which tracks replay recency closely
    enough here) so long campaigns keep memoising recent states instead of
    freezing the table at its first fill.  It is also *portable*:
    :meth:`to_payload` / :meth:`merge_payload` serialise entry tails —
    outputs, return value, steps, error type + message — into plain JSON,
    keyed by ``(position, digest hex)``, so campaign workers and resumed
    campaigns can warm-start from a shared artifact
    (see :class:`repro.tracing.cache.MemoCache`).
    """

    def __init__(self, max_entries: int = 16384) -> None:
        self.max_entries = max_entries
        self._table: Dict[Tuple[int, bytes], _MemoEntry] = {}
        #: Entries dropped by FIFO eviction (cumulative).
        self.evictions = 0
        #: Keys recorded locally since the last :meth:`consume_delta`
        #: (merged warm entries are deliberately excluded — deltas ship
        #: only what this process learned).
        self._dirty: set = set()

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, position: int, digest: bytes) -> Optional[_MemoEntry]:
        return self._table.get((position, digest))

    def record(self, visited: Sequence[Tuple[int, bytes]], entry: _MemoEntry) -> int:
        """Memoize ``entry`` under every visited state; returns evictions."""
        table = self._table
        evicted = 0
        for key in visited:
            if key not in table and len(table) >= self.max_entries:
                oldest = next(iter(table))
                del table[oldest]
                self._dirty.discard(oldest)
                evicted += 1
            table[key] = entry
            self._dirty.add(key)
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _payload_for(self, keys: Iterable[Tuple[int, bytes]]) -> Dict[str, object]:
        entries: List[Dict[str, object]] = []
        index_of: Dict[int, int] = {}
        key_rows: List[List[object]] = []
        for key in sorted(keys):
            entry = self._table.get(key)
            if entry is None:
                continue
            index = index_of.get(id(entry))
            if index is None:
                index = index_of[id(entry)] = len(entries)
                entries.append(_encode_entry(entry))
            position, digest = key
            key_rows.append([position, digest.hex(), index])
        return {
            "format": MEMO_FORMAT_VERSION,
            "entries": entries,
            "keys": key_rows,
        }

    def to_payload(self) -> Dict[str, object]:
        """The whole table as a JSON-serialisable artifact payload."""
        return self._payload_for(self._table.keys())

    def consume_delta(self) -> Optional[Dict[str, object]]:
        """Payload of the keys recorded since the previous call, or ``None``.

        Workers ship these deltas back per chunk; the orchestrator merges
        them into the persisted artifact with :meth:`merge_payloads`.
        """
        if not self._dirty:
            return None
        payload = self._payload_for(self._dirty)
        self._dirty.clear()
        return payload if payload["keys"] else None

    def merge_payload(self, payload: Optional[Dict[str, object]],
                      warm: bool = True) -> int:
        """Fold a persisted payload into the table (existing entries win).

        Returns the number of entries added.  Payloads of a different
        format version are ignored (cold memo, never a crash), and the
        table never evicts live entries to make room for warm ones.
        """
        if not payload or payload.get("format") != MEMO_FORMAT_VERSION:
            return 0
        decoded: Dict[int, _MemoEntry] = {}
        table = self._table
        added = 0
        for position, digest_hex, index in payload.get("keys", ()):
            key = (int(position), bytes.fromhex(str(digest_hex)))
            if key in table:
                continue
            if len(table) >= self.max_entries:
                break
            entry = decoded.get(int(index))
            if entry is None:
                entry = decoded[int(index)] = _decode_entry(
                    payload["entries"][int(index)], warm=warm
                )
            table[key] = entry
            added += 1
        return added

    @staticmethod
    def merge_payloads(
        base: Optional[Dict[str, object]], delta: Optional[Dict[str, object]]
    ) -> Optional[Dict[str, object]]:
        """Merge two artifact payloads without decoding entry bodies.

        ``base`` entries win on key conflicts, so the fold over any set of
        *disjoint* worker deltas is order-independent.  A ``None`` (or
        empty) side yields the other; mismatched format versions keep
        ``base`` (never mix layouts in one artifact).
        """
        if not base or not base.get("keys"):
            return delta
        if not delta or not delta.get("keys"):
            return base
        if base.get("format") != delta.get("format"):
            return base
        seen = {(int(row[0]), str(row[1])) for row in base["keys"]}
        entries = list(base["entries"])
        keys = [list(row) for row in base["keys"]]
        remap: Dict[int, int] = {}
        for position, digest_hex, index in delta["keys"]:
            if (int(position), str(digest_hex)) in seen:
                continue
            new_index = remap.get(int(index))
            if new_index is None:
                new_index = remap[int(index)] = len(entries)
                entries.append(delta["entries"][int(index)])
            keys.append([position, digest_hex, new_index])
        merged = dict(base)
        merged["entries"] = entries
        merged["keys"] = keys
        return merged


@dataclass
class BatchReplayResult:
    """Outcome of one fault of a batched submission.

    Exactly one of ``outcome`` / ``error`` is set; ``error`` carries the
    same exception type and message a from-scratch faulty run raises.
    ``converged_at`` is the dynamic id at which the execution was proven
    bit-identical to golden (``None`` when it never was); ``via`` names the
    resolution path (``lockstep`` / ``completed`` / ``private`` / ``memo``
    / ``error``) for telemetry and tests.
    """

    spec: FaultSpec
    outcome: Optional["RunOutcome"] = None
    error: Optional[BaseException] = None
    converged_at: Optional[int] = None
    via: str = "lockstep"
