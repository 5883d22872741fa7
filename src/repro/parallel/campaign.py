"""Multiprocessing campaign runner for fault injections and aDVF analyses.

All fan-out goes through one :class:`ShardPipeline`.  A pipeline serves one
*job* in keyed *units*: a unit is a list of items that one process serves
in one call, with one output.  :class:`InjectJob` injects a unit of fault
specs in one replay batch (one snapshot restore and one lockstep suffix
walk), :class:`AnalyzeJob` computes aDVF reports for a chunk of data
objects.  A job's *state* — the injector with its golden run and snapshot
schedule, or the aDVF engine with its golden trace, analyzers and replay
context — is built once, in the calling process, at the first submit: by
a ``setup`` the caller hands the pipeline (e.g. one wrapping a replay
context it already holds), else by the job's own ``setup``.  The job's
``run`` serves one unit on that state.  A bounded window of units is in
flight at once, and the caller reorders finished units by key.

At one worker the pipeline spawns nothing and runs each unit in this
process.  With more, workers are ``fork``-started after the state exists
and inherit it (workloads hold compiled IR with unpicklable
back-references, so state never crosses a pipe): no worker compiles the
workload or runs its golden execution.  Each worker freezes the collector
over the inherited heap (:func:`gc.freeze`), so its collections neither
scan nor copy the parent's pages.  Work is split deterministically, so
parallel results equal sequential ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.core.replay import ReplayContext
from repro.obs.metrics import metrics_enabled, registry as _metrics_registry
from repro.obs.spans import drain_span_records, enable_recording, span
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import trace_digest
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.core.advf import AdvfEngine
    from repro.core.reports import AnalysisConfig, ObjectReport
    from repro.tracing.columnar import ColumnarTrace
    from repro.workloads.base import Workload

#: Called after each worker chunk completes with ``(chunks_done, chunks_total)``.
ProgressCallback = Callable[[int, int], None]


def _default_workers() -> int:
    """Worker-count default: ``REPRO_WORKERS`` env var, else cores - 1.

    The environment variable wins wherever no explicit ``workers=`` override
    is passed, so batch jobs can size campaigns without touching call sites;
    without it the pool leaves one core free for the coordinating process
    (capped at 8 — injection chunks saturate memory bandwidth well before
    that on typical laptops).
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    return max(1, min(8, (os.cpu_count() or 2) - 1))


class CampaignChunkError(RuntimeError):
    """A worker chunk or shard failed, with enough context to reproduce it.

    Wraps the worker's original exception (available as ``__cause__``)
    instead of letting a bare ``future.result()`` traceback escape with no
    hint of which workload/chunk/specs were being processed.
    """

    def __init__(
        self,
        workload_name: str,
        chunk_index: int,
        items: Sequence[object],
        cause: BaseException,
        unit: str = "chunk",
    ) -> None:
        self.workload_name = workload_name
        self.chunk_index = chunk_index
        self.items = list(items)
        first = self.items[0] if self.items else None
        last = self.items[-1] if self.items else None
        super().__init__(
            f"campaign {unit} {chunk_index} of workload {workload_name!r} failed "
            f"({len(self.items)} items, first={first!r}, last={last!r}): "
            f"{type(cause).__name__}: {cause}"
        )


# --------------------------------------------------------------------- #
# jobs: what one pipeline unit does, in a worker or in this process
# --------------------------------------------------------------------- #
@dataclass
class UnitOutput:
    """What injecting one unit of fault specs produced, in a worker or in
    this process."""

    results: List[FaultInjectionResult]
    #: The unit's ``worker.inject`` span: execution time, without the
    #: time the unit queued in the pipeline window.
    inject_s: float
    #: The replay scheduler's counter delta for the unit.
    batch_stats: Dict[str, int]
    #: Memo rows the unit learned — the classified results of its faults
    #: that left the lockstep walk (``None`` when nothing new); callers
    #: persist them so later runs and resumes warm-start.
    memo_delta: Optional[Dict[str, object]]
    #: The worker's metrics-registry delta (``None`` in this process,
    #: whose registry already holds the activity).
    metrics_delta: Optional[Dict[str, object]] = None
    #: Finished-span records shipped by a worker process (empty in this
    #: process, whose own buffer holds them).
    span_records: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class ChunkReports:
    """What analysing one chunk of data objects produced."""

    reports: List[Tuple[str, ObjectReport]]
    #: As for :class:`UnitOutput`: set only by a worker process.
    metrics_delta: Optional[Dict[str, object]] = None
    span_records: List[Dict[str, object]] = field(default_factory=list)


@dataclass(frozen=True)
class InjectJob:
    """Inject units of fault specs on one injector, so the golden run,
    the snapshot schedule and the injector's table of memoised fault
    results serve every unit of the job (forked workers inherit it).

    A unit goes to ``inject_many`` as one spec list, so it costs one
    snapshot restore and one lockstep walk."""

    workload_name: str
    workload_kwargs: Dict[str, object]

    def setup(
        self,
        workload: Optional[Workload] = None,
        context: Optional[ReplayContext] = None,
    ) -> DeterministicFaultInjector:
        """The job's injector, its replay context already built: ``context``
        when given (e.g. the golden run that recorded the trace), else one
        untraced golden run of ``workload`` (default: built from the
        registry name and kwargs)."""
        if context is None:
            if workload is None:
                from repro.workloads.registry import get_workload

                workload = get_workload(
                    self.workload_name, **self.workload_kwargs
                )
            context = ReplayContext(workload)
        # the trace digest keys the persisted memo artifact, so every
        # campaign over the same trace (resumes included) warm-starts from
        # the fault results earlier runs recorded
        return DeterministicFaultInjector(
            context.workload, context=context,
            memo_key=trace_digest(self.workload_name, self.workload_kwargs),
        )

    def run(
        self, injector: DeterministicFaultInjector, key: int,
        specs: Sequence[FaultSpec],
    ) -> UnitOutput:
        with span("worker.inject", workload=self.workload_name,
                  specs=len(specs), shard=key) as timed:
            results = injector.inject_many(specs)
        return UnitOutput(
            results, timed.duration_s, injector.consume_batch_stats(),
            injector.consume_memo_delta(),
        )


@dataclass(frozen=True)
class AnalyzeJob:
    """aDVF reports for chunks of data objects on one :class:`AdvfEngine`:
    the compiled module, the golden trace, the analyzers and the
    injector's replay context serve every object of the job (forked
    workers inherit them)."""

    workload_name: str
    workload_kwargs: Dict[str, object]
    config: AnalysisConfig

    def setup(
        self, workload: Workload, trace: ColumnarTrace,
        context: Optional[ReplayContext],
    ) -> AdvfEngine:
        """The job's engine on ``workload``'s golden ``trace`` (and the
        replay context whose golden run recorded it, if any), prepared:
        the analyzers and the injector built."""
        from repro.core.advf import AdvfEngine

        engine = AdvfEngine(
            workload, self.config, trace=trace, context=context
        )
        engine.prepare()
        return engine

    def run(
        self, engine: AdvfEngine, key: int, object_names: Sequence[str]
    ) -> ChunkReports:
        with span("worker.analyze", workload=self.workload_name,
                  objects=len(object_names)):
            return ChunkReports(
                [(name, engine.analyze_object(name)) for name in object_names]
            )


Job = Union[InjectJob, AnalyzeJob]

#: The job a pool worker serves and the state it inherited (set by the pool
#: initializer).
_WORKER_JOB: Optional[Job] = None
_WORKER_STATE: object = None


def _fork_context():
    """The ``fork`` start method, which hands workers the caller's state."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        raise RuntimeError(
            "more than one worker needs the 'fork' process start method, "
            "which this platform lacks; run with one worker"
        ) from None


def _worker_init(job: Job, state: object) -> None:
    """Pool initializer: adopt the job and the state inherited across
    ``fork``; discard the parent's telemetry.

    The collector is frozen first: the inherited heap — the state, the
    parent's modules — moves to the permanent generation, so this
    worker's collections never traverse it (or copy its pages).  A fresh
    worker also carries a copy of the parent's registry (golden run,
    analysis passes, …).  Setting the unit cursor here makes the first
    unit's delta cover only work the worker itself performed, so the
    parent's pre-fork activity is never shipped back and double-counted.
    Span recording follows the same pattern: enabled, then drained once to
    discard records inherited across fork (the parent persists its own).
    """
    global _WORKER_JOB, _WORKER_STATE
    gc.freeze()
    _WORKER_JOB, _WORKER_STATE = job, state
    if metrics_enabled():
        _metrics_registry().snapshot_delta("worker-chunk")
    enable_recording()
    drain_span_records()


def _worker_run(key: int, items: List[object]) -> Union[UnitOutput, ChunkReports]:
    """Pool entry point: one unit of this worker's job.

    The output carries what the parent cannot see: this process's
    registry activity since the previous unit (the parent folds the deltas
    with ``registry().merge`` — associative, so the fold is independent of
    completion order) and its finished spans.
    """
    output = _WORKER_JOB.run(_WORKER_STATE, key, items)
    if metrics_enabled():
        output.metrics_delta = _metrics_registry().snapshot_delta(
            "worker-chunk"
        )
    output.span_records = drain_span_records()
    return output


class ShardPipeline:
    """Units of one job over a worker pool, a bounded window in flight.

    :meth:`submit` queues one keyed unit: a list of items (the specs of
    consecutive shards of one data object, a chunk of object names) that
    one process serves in one call.  :meth:`wait` blocks until at least
    one queued unit has finished and returns ``(key, output)`` pairs, in
    key order; a failed unit's output is a :class:`CampaignChunkError`.
    A failure is returned, not raised, so a caller that commits in key
    order can first commit everything before the failed unit.

    Every unit runs on one job state, built once in this process: by
    ``setup`` when the caller passes one (a zero-argument callable, e.g.
    one that wraps a replay context it already holds), else by the job's
    own ``setup``, at the first :meth:`submit` — a run that submits
    nothing builds nothing, and a state that cannot be built fails every
    unit.  With ``workers == 1`` nothing is spawned:
    :meth:`wait` runs the unit the caller names (the one it commits
    next) in this process, so execution order is commit order.  With
    more workers a ``fork``-started pool is created right after the
    state, at the first :meth:`submit`; its workers inherit the state,
    and up to :attr:`window` units run or queue in it at once, finishing
    in any order.  A platform without ``fork`` cannot run more than one
    worker (:class:`RuntimeError` at construction).
    """

    def __init__(
        self,
        job: Job,
        workers: int,
        unit: str = "shard",
        setup: Optional[Callable[[], object]] = None,
    ) -> None:
        self.job = job
        self.workers = workers
        #: What a failure message calls one submission ("shard"/"chunk").
        self.unit = unit
        #: Most units in flight (submitted, not yet returned by
        #: :meth:`wait`) at once; callers check :meth:`has_room`.
        self.window = 2 * workers
        #: Queued units' items by key.
        self._queued: Dict[int, List[object]] = {}
        self._futures: Dict[Future, int] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._mp_context = _fork_context() if workers > 1 else None
        self._setup = setup or job.setup
        self._state: object = None
        self._state_error: Optional[Exception] = None

    @property
    def in_flight(self) -> int:
        return len(self._queued)

    def has_room(self) -> bool:
        return len(self._queued) < self.window

    def submit(self, key: int, items: Sequence[object]) -> None:
        """Queue one unit of ``items`` under ``key``."""
        items = list(items)
        self._queued[key] = items
        if self._state is None and self._state_error is None:
            try:
                self._state = self._setup()
            except Exception as exc:  # fails every unit, each at its wait
                self._state_error = exc
        if self.workers <= 1 or self._state_error is not None:
            return
        if self._pool is None:
            # forked workers receive the initializer's arguments without
            # pickling: the state reaches them as inherited memory
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context,
                initializer=_worker_init, initargs=(self.job, self._state),
            )
        self._futures[self._pool.submit(_worker_run, key, items)] = key

    def wait(self, key: int) -> List[Tuple[int, object]]:
        """Finished units; in this process, runs the unit ``key``."""
        if not self._queued:
            raise RuntimeError("no unit in flight to wait for")
        if self.workers <= 1 or self._state_error is not None:
            if key not in self._queued:  # the caller's next unit is not queued
                key = next(iter(self._queued))
            items = self._queued.pop(key)
            if self._state_error is not None:
                return [(key, self._failure(key, items, self._state_error))]
            try:
                return [(key, self.job.run(self._state, key, items))]
            except Exception as exc:
                return [(key, self._failure(key, items, exc))]
        finished, _ = futures_wait(self._futures, return_when=FIRST_COMPLETED)
        out: List[Tuple[int, object]] = []
        for future in sorted(finished, key=self._futures.__getitem__):
            key = self._futures.pop(future)
            items = self._queued.pop(key)
            try:
                output = future.result()
            except Exception as exc:
                out.append((key, self._failure(key, items, exc)))
                continue
            if output.metrics_delta:
                _metrics_registry().merge(output.metrics_delta)
            out.append((key, output))
        return out

    def _failure(self, key: int, items: List[object],
                 exc: BaseException) -> CampaignChunkError:
        error = CampaignChunkError(
            self.job.workload_name, key, items, exc, unit=self.unit
        )
        error.__cause__ = exc
        return error

    def close(self) -> None:
        """Drop queued units and stop the pool (running units finish)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
        self._queued.clear()
        self._state = None

    def __enter__(self) -> "ShardPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_chunks(
    job: Job,
    chunks: Sequence[list],
    workers: int,
    setup: Optional[Callable[[], object]] = None,
    on_progress: Optional[ProgressCallback] = None,
) -> list:
    """Every non-empty chunk as one unit of a pipeline of at most one
    worker per chunk; outputs in chunk order.  ``on_progress`` (if given)
    is called with ``(chunks_done, chunks_total)`` as chunks complete.  A
    failed chunk raises its :class:`CampaignChunkError`."""
    chunks = [chunk for chunk in chunks if chunk]
    outputs: list = [None] * len(chunks)
    if not chunks:
        return outputs
    with ShardPipeline(
        job, min(workers, len(chunks)), unit="chunk", setup=setup
    ) as pipeline:
        for index, chunk in enumerate(chunks):
            pipeline.submit(index, chunk)
        done = 0
        while pipeline.in_flight:
            for index, output in pipeline.wait(outputs.index(None)):
                if isinstance(output, CampaignChunkError):
                    raise output
                outputs[index] = output
                done += 1
                if on_progress is not None:
                    on_progress(done, len(chunks))
    return outputs


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #
@dataclass
class CampaignRunner:
    """Fan out fault injections over local processes.

    ``workload_name`` must be a key of :data:`repro.workloads.registry.WORKLOADS`
    (the job's ``setup`` builds the workload from it, once, in this
    process); ``workload_kwargs`` are the constructor overrides (sizes,
    seed, ABFT flag, …).  :meth:`run_injections` splits its specs into at
    most one contiguous chunk per worker and runs them through
    :func:`run_chunks`.  A failed chunk raises :class:`CampaignChunkError`
    naming the chunk and its items, with the original exception chained
    as ``__cause__``.
    """

    workload_name: str
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    workers: int = field(default_factory=_default_workers)

    def run_injections(
        self,
        specs: Sequence[FaultSpec],
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[FaultInjectionResult]:
        """Inject every spec, preserving input order in the result list.

        Campaigns submit runs of one data object's shards to a pipeline
        instead (:class:`~repro.campaigns.orchestrator.CampaignOrchestrator`):
        specs split across workers walk the same golden suffix once per
        worker, and specs of different objects share little of a walk.
        """
        specs = list(specs)
        pieces = 1 if self.workers <= 1 or len(specs) < 4 else self.workers
        outputs = run_chunks(
            InjectJob(self.workload_name, self.workload_kwargs),
            chunk_evenly(specs, pieces), self.workers,
            on_progress=on_progress,
        )
        return [result for output in outputs for result in output.results]
