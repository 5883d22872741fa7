"""Durable, resumable campaign orchestration.

The :class:`CampaignOrchestrator` turns a :mod:`~repro.campaigns.plans`
sampling plan into deterministic *shards* of fault specs, runs them through
a :class:`~repro.parallel.campaign.ShardPipeline` in *units* — a run of
consecutive shards of one data object, injected as one replay batch (one
lockstep walk) by one process — with a window of ``2 x workers`` units in
flight over the worker pool (one unit at a time in this process when
``workers=1``), and checkpoints every completed shard into a
:class:`~repro.campaigns.store.CampaignStore` **in shard order**, whatever
order the workers finish in, one store transaction per unit.

Because shard contents are a pure function of (workload, plan, shard
size) and shards are persisted atomically, **resume is just run**: a
second invocation of :meth:`CampaignOrchestrator.run` recomputes the same
shard sequence, skips every shard already in the store, and executes only
the remainder — producing results bit-identical to an uninterrupted run.
Adaptive plans replay their stopping decisions from the persisted
outcomes, so even "keep sampling until the CI converges" campaigns resume
exactly.  Each data object of an adaptive plan keeps at most one batch in
flight (its next batch depends on the previous one's outcomes), so its
units hold one shard; the pipeline overlaps batches of different objects
instead.  Shards stay the durable unit: units change how shards run and
commit, never the shard list, its indices or its outcome rows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaigns.plans import (
    AdaptivePlan,
    ExhaustivePlan,
    SamplingPlan,
    StaticPlan,
)
from repro.campaigns.stats import wilson_interval
from repro.campaigns.store import CampaignStore
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import (
    disable_recording,
    drain_span_records,
    enable_recording,
    recording_enabled,
    set_span_context,
    span,
)
from repro.parallel.campaign import (
    CampaignChunkError,
    CampaignRunner,
    InjectJob,
    ShardOutput,
    ShardPipeline,
    _default_workers,
)
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import (
    MemoCache,
    golden_trace,
    merge_memo_payloads,
    trace_digest,
)
from repro.vm.faults import FaultSpec
from repro.workloads.registry import get_workload, validate_workload

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.core.reports import AnalysisConfig, ObjectReport

#: Default number of fault specs per persisted shard (checkpoint granularity).
DEFAULT_SHARD_SIZE = 32

#: Most fault specs in one pipeline unit (a unit holds at least one shard).
#: A unit is one ``inject_many`` call, so one lockstep walk of the golden
#: suffix serves all its specs.  Injecting the 1024 specs of cg
#: ``fixed:512@5`` (``seed=5``, two objects) in one process, min of 5
#: interleaved repeats on a 2-vCPU VM (Python 3.11): 32-spec batches
#: 0.491 s, 128-spec 0.319 s, 256-spec halves of each object 0.298 s, one
#: batch per object 0.288 s, and 256-spec batches mixing both objects
#: 0.349 s.  So units stay within one object, and 256 keeps nearly all of
#: the gain while a two-worker pool still gets a unit of each object per
#: worker.
UNIT_SPECS = 256


@dataclass(frozen=True)
class ShardTask:
    """One unit of durable work: a deterministic slice of the plan."""

    index: int
    object_name: str
    batch: int
    specs: Tuple[FaultSpec, ...]


@dataclass
class CampaignResult:
    """What one orchestrator run did, plus the campaign's cumulative state."""

    campaign_id: str
    run_id: int
    status: str
    executed_shards: int
    skipped_shards: int
    executed_injections: int
    #: Cumulative per-object outcome-class counts, read back from the store.
    histograms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Cumulative per-object ``(successes, trials)``.
    tallies: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def interval(self, object_name: str, z: float = 1.96) -> Tuple[float, float]:
        """Wilson CI of the object's masking rate from the stored tallies.

        Raises ``KeyError`` for objects the campaign never injected, so a
        typo surfaces instead of silently yielding the vacuous ``(0, 1)``.
        """
        if object_name not in self.tallies:
            raise KeyError(
                f"no outcomes for object {object_name!r} in campaign "
                f"{self.campaign_id}; objects with data: {sorted(self.tallies)}"
            )
        successes, trials = self.tallies[object_name]
        return wilson_interval(successes, trials, z)


@dataclass
class _RunCounters:
    """Mutable per-run accounting, updated as shards finish (not after)."""

    executed: int = 0
    skipped: int = 0
    injected: int = 0


#: A stream item: a :class:`ShardTask` to run, or the index of a shard
#: already in the store (committed as a skip).
_Item = Union[ShardTask, int]


class _ShardStream:
    """One commit sequence of shards, in commit order.

    A static plan is one stream whose items are all known up front.  An
    adaptive plan has one stream per data object, fed by a generator that
    yields each next item and is sent the results of every task it
    yields: its next batch depends on them, so such a stream never has
    more than one task in flight.
    """

    def __init__(
        self,
        items: Sequence[_Item] = (),
        source: Optional[Generator[_Item, object, Tuple[int, int]]] = None,
        object_name: str = "",
        unit_caps: Optional[Dict[str, int]] = None,
    ) -> None:
        self.queue: Deque[_Item] = deque(items)
        self.object_name = object_name
        #: Most shards of each data object in one unit (``None``: one).
        self.unit_caps = unit_caps
        #: The adaptive tally ``(successes, trials)`` once the source ends.
        self.tally: Optional[Tuple[int, int]] = None
        self._source = source
        self._awaiting: Optional[int] = None
        self._reply: object = None

    def fill(self) -> None:
        """Pull items from the source until it waits on a task's results."""
        while self._source is not None and self._awaiting is None:
            try:
                item = self._source.send(self._reply)
            except StopIteration as stop:
                self._source = None
                self.tally = stop.value
                return
            self._reply = None
            self.queue.append(item)
            if isinstance(item, ShardTask):
                self._awaiting = item.index

    def feed(self, index: int, output: object) -> None:
        """Hand a finished task's results to a source waiting on them."""
        if index == self._awaiting and isinstance(output, ShardOutput):
            self._reply = output.results
            self._awaiting = None


class CampaignOrchestrator:
    """Shard a sampling plan, execute it durably, resume it for free.

    Parameters
    ----------
    store:
        The persistent result store.  The campaign's content-addressed id
        is computed (and its row created) on construction.
    workload_name / workload_kwargs:
        Registry name and constructor overrides of the workload; the name
        is validated eagerly so typos fail before any work is done.
    plan:
        A :class:`~repro.campaigns.plans.SamplingPlan`
        (default: :class:`~repro.campaigns.plans.ExhaustivePlan`).
    workers:
        Worker processes; each runs whole units of shards on the injector
        this process built and the workers inherit through ``fork`` (one
        golden run per campaign).  ``1`` (the default via ``REPRO_WORKERS``
        unset on small machines) spawns nothing and runs the shards in
        this process.
    shard_size:
        Specs per shard for static plans — the checkpoint granularity.
        Adaptive plans shard per batch (``plan.batch_size``).
    progress:
        Optional callable receiving human-readable progress lines.
    """

    def __init__(
        self,
        store: CampaignStore,
        workload_name: str,
        workload_kwargs: Optional[Dict[str, object]] = None,
        plan: Optional[SamplingPlan] = None,
        workers: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.store = store
        self.workload_name = validate_workload(workload_name)
        self.workload_kwargs = dict(workload_kwargs or {})
        self.plan = plan if plan is not None else ExhaustivePlan()
        self.workers = workers if workers is not None else _default_workers()
        self.shard_size = shard_size
        self.progress = progress
        self.campaign_id = store.ensure_campaign(
            self.workload_name,
            self.workload_kwargs,
            self.plan.to_dict(),
            self.shard_size,
        )
        #: Content address of the golden-trace artifact (trace cache key).
        self.trace_digest = trace_digest(self.workload_name, self.workload_kwargs)
        #: Seconds spent enumerating fault sites, per data object (the
        #: analysis-pass timing stamped onto the object's shards).
        self._pass_seconds: Dict[str, float] = {}
        self._log = get_logger("campaign")
        #: Registry cursor scoping each run's metrics delta for the store.
        self._run_cursor = f"campaign-run:{self.campaign_id}"
        #: Memo entries the run's committed shards learned, folded in
        #: commit order and persisted once when the run ends.
        self._memo_delta: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # construction from persisted state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        store: CampaignStore,
        campaign_id: str,
        workers: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> "CampaignOrchestrator":
        """Rebuild the orchestrator of a persisted campaign (for resume)."""
        from repro.campaigns.plans import plan_from_dict

        record = store.campaign(campaign_id)
        orchestrator = cls(
            store,
            record.workload,
            record.workload_kwargs,
            plan_from_dict(record.plan),
            workers=workers,
            shard_size=record.shard_size,
            progress=progress,
        )
        if orchestrator.campaign_id != campaign_id:  # pragma: no cover - paranoia
            raise RuntimeError(
                f"campaign id drifted on rebuild: {orchestrator.campaign_id} "
                f"!= {campaign_id}"
            )
        return orchestrator

    # ------------------------------------------------------------------ #
    # shard planning
    # ------------------------------------------------------------------ #
    def static_shards(self, trace) -> List[ShardTask]:
        """The full deterministic shard list of a static plan."""
        assert isinstance(self.plan, StaticPlan)
        workload = self._workload()
        tasks: List[ShardTask] = []
        index = 0
        for object_name in self.plan.objects_for(workload):
            pass_start = time.perf_counter()
            with span("campaign.analysis", object=object_name):
                specs = self.plan.specs_for(trace, object_name)
            self._pass_seconds[object_name] = time.perf_counter() - pass_start
            pieces = max(1, -(-len(specs) // self.shard_size))
            for batch, chunk in enumerate(chunk_evenly(specs, pieces)):
                if not chunk:
                    continue
                tasks.append(
                    ShardTask(
                        index=index,
                        object_name=object_name,
                        batch=batch,
                        specs=tuple(chunk),
                    )
                )
                index += 1
        return tasks

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, max_shards: Optional[int] = None) -> CampaignResult:
        """Execute (or resume) the campaign.

        ``max_shards`` bounds the number of shards *executed* by this run
        — the standard way to interrupt a campaign deterministically in
        tests and smoke runs.  Completed shards found in the store are
        skipped, never re-executed.
        """
        run_id = self.store.begin_run(self.campaign_id)
        self.store.set_status(self.campaign_id, "running")
        self.store.set_trace_digest(self.campaign_id, self.trace_digest)
        reg = _metrics_registry()
        if reg.enabled:
            # reset the run cursor so the persisted delta covers exactly
            # this run's activity (worker-process deltas fold in as the
            # runner merges them)
            reg.snapshot_delta(self._run_cursor)
        # Flight recorder: buffer finished spans for the store; discard any
        # records predating this run, and stamp the correlation ids that
        # fork-started worker processes inherit.
        was_recording = recording_enabled()
        enable_recording()
        drain_span_records()
        set_span_context(campaign=self.campaign_id, run=run_id)

        counters = _RunCounters()
        status = "failed"
        try:
            with span("campaign.run", campaign=self.campaign_id, run=run_id):
                workload = self._workload()
                trace, context = self._golden_trace(workload)
                done = self.store.completed_shards(self.campaign_id)
                if isinstance(self.plan, AdaptivePlan):
                    streams = [
                        _ShardStream(
                            source=self._adaptive_object(
                                trace, object_index, object_name, done
                            ),
                            object_name=object_name,
                        )
                        for object_index, object_name in enumerate(
                            self.plan.objects_for(workload)
                        )
                    ]
                else:
                    tasks = self.static_shards(trace)
                    # the shard list is all a static plan needs of the
                    # trace: drop it, so forked workers do not carry it
                    trace = None
                    if context is not None:
                        context.golden_trace = None
                    streams = [_ShardStream(
                        [task.index if task.index in done else task
                         for task in tasks],
                        unit_caps=self._unit_caps(tasks),
                    )]
                job = InjectJob(self.workload_name, self.workload_kwargs)
                finished = self._execute(
                    streams, run_id, max_shards, counters, ShardPipeline(
                        job, self.workers,
                        setup=partial(job.setup, workload, context),
                    ),
                )
            status = "complete" if finished else "interrupted"
        finally:
            # A worker crash mid-campaign must not leave the row claiming
            # "running" forever, and whatever was persisted before the
            # failure still counts toward the run's accounting.
            self.store.set_status(self.campaign_id, status)
            self.store.finish_run(
                self.campaign_id, run_id, counters.executed, counters.skipped
            )
            self._persist_memo()
            # the campaign.run span (and any other run-scoped spans) closed
            # above, so this final flush captures them as orphan rows
            self._persist_spans(run_id)
            set_span_context(campaign=None, run=None)
            if not was_recording:
                disable_recording()
            if reg.enabled:
                self.store.save_run_metrics(
                    self.campaign_id, run_id, reg.snapshot_delta(self._run_cursor)
                )
        return CampaignResult(
            campaign_id=self.campaign_id,
            run_id=run_id,
            status=status,
            executed_shards=counters.executed,
            skipped_shards=counters.skipped,
            executed_injections=counters.injected,
            histograms=self.store.outcome_histograms(self.campaign_id),
            tallies=self.store.object_tallies(self.campaign_id),
        )

    def resume(self, max_shards: Optional[int] = None) -> CampaignResult:
        """Alias of :meth:`run` — resuming *is* running (shards dedupe)."""
        return self.run(max_shards=max_shards)

    # ------------------------------------------------------------------ #
    # pipelined execution
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        streams: List[_ShardStream],
        run_id: int,
        max_shards: Optional[int],
        counters: "_RunCounters",
        pipeline: ShardPipeline,
    ) -> bool:
        """Run the streams' tasks through ``pipeline`` (closed on return),
        committing in order.

        Streams commit one after another, each in its own order, so the
        store sees exactly the shard sequence of a one-at-a-time run.
        Between commits the pipeline is refilled in that same order, in
        units (:meth:`_refill`), and never with a task that ``max_shards``
        already excludes.  Units finishing early wait for their turn; a
        unit's shards commit in one store transaction, timed whole (the
        SQLite commit included) by a ``campaign.commit`` span labelled
        with the unit's first shard.  A failed unit
        raises when its first shard's turn comes, after every earlier
        shard committed.  ``counters`` is updated as units commit; returns
        whether every stream ran to its end.
        """
        outputs: Dict[int, object] = {}
        owner: Dict[int, _ShardStream] = {}
        #: submitted units by their first shard's index
        units: Dict[int, List[ShardTask]] = {}
        head = 0
        with pipeline:
            while head < len(streams):
                stream = streams[head]
                stream.fill()
                while stream.queue:
                    item = stream.queue[0]
                    if not isinstance(item, ShardTask):
                        stream.queue.popleft()
                        counters.skipped += 1
                        continue
                    if max_shards is not None and counters.executed >= max_shards:
                        return False
                    if item.index not in outputs:
                        break
                    if isinstance(outputs[item.index], CampaignChunkError):
                        raise outputs[item.index]
                    # the queue head starts a unit, whose shards all
                    # finished together and follow it in the queue
                    unit = units.pop(item.index)
                    with span("campaign.commit", shard=item.index,
                              shards=len(unit)), self.store.transaction():
                        for task in unit:
                            stream.queue.popleft()
                            self._commit_shard(task, outputs.pop(task.index),
                                               run_id)
                    counters.executed += len(unit)
                    counters.injected += sum(len(task.specs) for task in unit)
                    stream.fill()
                if not stream.queue:
                    self._stream_done(stream)
                    head += 1
                    continue
                self._refill(pipeline, streams[head:], owner, units,
                             counters.executed, max_shards)
                for index, output in pipeline.wait(stream.queue[0].index):
                    outputs[index] = output
                    owner[index].feed(index, output)
        return True

    @staticmethod
    def _refill(
        pipeline: ShardPipeline,
        streams: Sequence[_ShardStream],
        owner: Dict[int, _ShardStream],
        units: Dict[int, List[ShardTask]],
        position: int,
        max_shards: Optional[int],
    ) -> None:
        """Submit units of unsubmitted tasks in commit order while the
        window has room; ``position`` counts the tasks that commit before
        the next one (committed or queued ahead of it), so ``max_shards``
        bounds it.

        A unit takes consecutive tasks of one stream and one data object:
        at most the stream's ``unit_caps`` for that object (one shard when
        it has none), at most :data:`UNIT_SPECS` specs unless its first
        task alone holds more, and never a task ``max_shards`` excludes."""
        for stream in streams:
            stream.fill()
            queue = stream.queue
            caps = stream.unit_caps
            i = 0
            while i < len(queue):
                item = queue[i]
                i += 1
                if not isinstance(item, ShardTask):
                    continue
                if item.index in owner:
                    position += 1
                    continue
                if not pipeline.has_room() or (
                    max_shards is not None and position >= max_shards
                ):
                    return
                unit = [item]
                specs = len(item.specs)
                cap = caps.get(item.object_name, 1) if caps else 1
                if max_shards is not None:
                    cap = min(cap, max_shards - position)
                while i < len(queue) and len(unit) < cap:
                    task = queue[i]
                    if (
                        not isinstance(task, ShardTask)
                        or task.object_name != item.object_name
                        or specs + len(task.specs) > UNIT_SPECS
                    ):
                        break
                    unit.append(task)
                    specs += len(task.specs)
                    i += 1
                pipeline.submit([(task.index, task.specs) for task in unit])
                units[item.index] = unit
                for task in unit:
                    owner[task.index] = stream
                position += len(unit)

    def _unit_caps(self, tasks: Sequence[ShardTask]) -> Dict[str, int]:
        """Most shards per unit, per data object: its shards in the static
        shard list split over the workers, so every worker gets work."""
        counts: Dict[str, int] = {}
        for task in tasks:
            counts[task.object_name] = counts.get(task.object_name, 0) + 1
        workers = max(1, self.workers)
        return {name: -(-count // workers) for name, count in counts.items()}

    def _adaptive_object(
        self, trace, object_index: int, object_name: str, done
    ) -> Generator[_Item, object, Tuple[int, int]]:
        """One object's adaptive batches: draw until the CI converges.

        Shard index ``object_index * max_batches + batch`` is globally
        unique and deterministic; persisted batches are folded into the
        cumulative tally without re-execution, so the stop decision replays
        identically on resume.  Yields each batch's item and is sent back
        the results of every task; returns the final ``(successes,
        trials)``.
        """
        plan = self.plan
        assert isinstance(plan, AdaptivePlan)
        pass_start = time.perf_counter()
        with span("campaign.analysis", object=object_name):
            sites = plan.site_pool(trace, object_name)
        self._pass_seconds[object_name] = time.perf_counter() - pass_start
        successes = trials = 0
        for batch in range(plan.max_batches):
            if trials > 0 and plan.satisfied(successes, trials):
                break
            shard_index = object_index * plan.max_batches + batch
            if shard_index in done:
                outcomes = [
                    row.outcome for row in self.store.outcomes(
                        self.campaign_id, shard_index=shard_index
                    )
                ]
                yield shard_index
            else:
                results = yield ShardTask(
                    index=shard_index,
                    object_name=object_name,
                    batch=batch,
                    specs=tuple(plan.batch_specs(sites, object_name, batch)),
                )
                outcomes = [result.outcome for result in results]
            trials += len(outcomes)
            successes += sum(int(outcome.is_success) for outcome in outcomes)
        return successes, trials

    def _stream_done(self, stream: _ShardStream) -> None:
        """Report an adaptive object whose batches all committed."""
        if stream.tally is None:
            return
        successes, trials = stream.tally
        low, high = wilson_interval(successes, trials, self.plan.z)
        self._say(
            f"[{self.campaign_id}] {stream.object_name}: {successes}/{trials} "
            f"masked, CI [{low:.3f}, {high:.3f}]",
            event="object.converged",
            object=stream.object_name,
            successes=successes,
            trials=trials,
            ci_low=low,
            ci_high=high,
        )

    # ------------------------------------------------------------------ #
    # aDVF reports
    # ------------------------------------------------------------------ #
    def compute_reports(
        self,
        config: Optional[AnalysisConfig] = None,
        object_names: Optional[Sequence[str]] = None,
        refresh: bool = False,
    ) -> Dict[str, ObjectReport]:
        """aDVF reports for the campaign's objects, persisted in the store.

        Reports already in the store are returned as-is unless ``refresh``
        is set; missing ones are computed with the parallel runner and
        saved, so ``campaign report`` renders from durable rows only.
        The runner builds one aDVF engine in this process
        (:meth:`~repro.parallel.campaign.AnalyzeJob.setup`), and its
        workers inherit it: the golden trace comes from the trace cache
        (a missing or unreadable artifact is rebuilt), and one golden run
        serves every object.
        """
        workload = self._workload()
        names = list(object_names or self.plan.objects_for(workload))
        stored = {} if refresh else self.store.reports(self.campaign_id)
        missing = [name for name in names if name not in stored]
        if missing:
            runner = CampaignRunner(
                self.workload_name, self.workload_kwargs, workers=self.workers
            )
            fresh = runner.analyze_objects(missing, config)
            for name, report in fresh.items():
                self.store.save_report(self.campaign_id, name, report)
            stored.update(fresh)
        return {name: stored[name] for name in names if name in stored}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _workload(self):
        return get_workload(self.workload_name, **self.workload_kwargs)

    def _golden_trace(self, workload):
        """The golden columnar trace — cache artifact when enabled, else
        fresh — and the replay context whose golden run recorded a fresh
        one (``None`` on a cache hit).

        Resumed campaigns land on the same digest, so the artifact built by
        the first run is reused instead of re-tracing the workload.
        """
        start = time.perf_counter()
        with span("campaign.trace", campaign=self.campaign_id):
            trace, source, context = golden_trace(
                workload, self.workload_name, self.workload_kwargs
            )
        self._say(
            f"[{self.campaign_id}] golden trace {self.trace_digest}: {source} "
            f"({len(trace)} events, {time.perf_counter() - start:.2f}s)",
            event="trace.acquired",
            trace_digest=self.trace_digest,
            source=source,
            events=len(trace),
        )
        return trace, context

    def _say(self, message: str, event: str = "progress", **fields) -> None:
        """One progress line: stderr via the structured logger (gated by
        ``REPRO_LOG_LEVEL``), JSONL via ``REPRO_LOG``, plus any explicitly
        supplied ``progress`` callback."""
        self._log.info(event, message, campaign_id=self.campaign_id, **fields)
        if self.progress is not None:
            self.progress(message)

    def _commit_shard(
        self, task: ShardTask, output: ShardOutput, run_id: int
    ) -> None:
        """Persist one finished shard's outcomes and spans, and fold its
        learned memo entries into the run's pending delta.

        ``duration_s`` is the shard's share of its unit's ``worker.inject``
        span (the span times the shard's share of the unit's specs) —
        execution time, not the time the unit queued in the pipeline
        window — so per-shard rates compare across worker counts, and a
        unit's shard durations sum to its span.  A unit's batch stats,
        memo delta and spans arrive on its first shard.  :meth:`_execute`
        calls this inside the unit's store transaction."""
        duration = output.inject_s
        stats = output.batch_stats
        if output.memo_delta:
            self._memo_delta = merge_memo_payloads(
                self._memo_delta, output.memo_delta
            )
        with span("campaign.shard", shard=task.index, object=task.object_name):
            self.store.record_shard(
                self.campaign_id,
                task.index,
                task.object_name,
                task.batch,
                run_id,
                duration,
                output.results,
                analysis_s=self._pass_seconds.get(task.object_name, 0.0),
                batch_stats=stats,
            )
        rate = len(output.results) / duration if duration > 0 else float("inf")
        self._say(
            f"[{self.campaign_id}] shard {task.index} ({task.object_name}, "
            f"batch {task.batch}): {len(output.results)} injections in "
            f"{duration:.2f}s ({rate:.0f}/s, {stats.get('batches', 0)} replay "
            f"batches, {stats.get('memo_hits', 0)} memo hits)",
            event="shard.done",
            shard=task.index,
            object=task.object_name,
            batch=task.batch,
            injections=len(output.results),
            duration_s=duration,
        )
        self._persist_spans(run_id, output.span_records)

    def _persist_spans(
        self, run_id: int, shipped: Sequence[Dict[str, object]] = ()
    ) -> None:
        """Flush flight-recorder spans to the store.

        ``shipped`` are records a worker process sent back with a unit's
        first shard (``worker.inject``, labelled with that shard).  Records
        from this process either carry their own ``shard`` label
        (``worker.inject`` of an in-process unit, ``campaign.shard``) or are
        run-scoped
        phases — trace acquisition, analysis passes, the memo merge — that
        persist as orphan rows (``shard_index = -1``)."""
        records = list(shipped)
        records.extend(drain_span_records())
        if records:
            self.store.save_run_spans(self.campaign_id, run_id, records)

    def _persist_memo(self) -> None:
        """Fold the memo entries this run's committed shards learned into
        the shared artifact: one read-merge-write per run.

        Every worker warm-starts once, at its first shard, so an artifact
        rewritten mid-run would reach only later runs.  ``run`` calls this
        when it ends, interrupted or failed runs included, so a resume
        still warm-starts from what the completed shards learned.
        """
        delta, self._memo_delta = self._memo_delta, None
        if not delta:
            return
        cache = MemoCache.from_env()
        if cache is None:
            return
        try:
            with span("campaign.memo_merge"):
                cache.merge_store(self.trace_digest, delta)
        except OSError as exc:
            # the memo only saves replays: a finished run's outcomes, spans
            # and metrics must not be lost to a cache that cannot be written
            self._log.warning(
                "memo.persist_failed",
                f"[{self.campaign_id}] memo not persisted to {cache.root}: {exc}",
                campaign_id=self.campaign_id, error=str(exc),
            )
