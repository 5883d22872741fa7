"""Multiprocessing campaign runner for fault injections and aDVF analyses.

All fan-out goes through one :class:`ShardPipeline`.  A pipeline serves one
*job* in *units*: a unit is a run of keyed parts that one process serves
in one call.  :class:`InjectJob` injects a unit of whole shards of fault
specs in one replay batch (one snapshot restore and one lockstep suffix
walk, never a shard split across workers), :class:`AnalyzeJob` computes
aDVF reports for chunks of data objects.  A job's *state* — the injector
with its golden run and snapshot schedule, or the aDVF engine with its
golden trace, analyzers and replay context — is built once, in the calling
process, at the first submit: by a ``setup`` the caller hands the pipeline
(e.g. one wrapping a replay context it already holds), else by the job's
own ``setup``.  The job's ``run`` serves one unit on that state, returning
one output per part.  A bounded window of
units is in flight at once, and the caller reorders finished parts by key.

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
import time
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
from repro.obs.log import get_logger
from repro.obs.metrics import metrics_enabled, registry as _metrics_registry
from repro.obs.spans import drain_span_records, enable_recording, span
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import golden_trace, trace_digest
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.core.advf import AdvfEngine
    from repro.core.reports import AnalysisConfig, ObjectReport
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
class ShardOutput:
    """What injecting one shard produced, in a worker or in this process.

    A unit's shards share one replay batch, so what belongs to the whole
    unit — ``batch_stats``, ``memo_delta``, ``metrics_delta`` and
    ``span_records`` — ships once, on its first shard (empty on the
    others), and every sum over shards stays the unit's."""

    results: List[FaultInjectionResult]
    #: The shard's share of its unit's ``worker.inject`` span (the span
    #: times the shard's share of the unit's specs): execution time,
    #: without the time the unit queued in the pipeline window.
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
    #: As for :class:`ShardOutput`: set only by a worker process.
    metrics_delta: Optional[Dict[str, object]] = None
    span_records: List[Dict[str, object]] = field(default_factory=list)


#: One keyed part of a pipeline unit: ``(key, items)``.
Part = Tuple[int, Sequence[object]]


@dataclass(frozen=True)
class InjectJob:
    """Inject units of whole shards on one injector, so the golden run,
    the snapshot schedule and the injector's table of memoised fault
    results serve every unit of the job (forked workers inherit it).

    A unit's shards (consecutive shards of one data object) go to
    ``inject_many`` as one concatenated spec list, so the unit costs one
    snapshot restore and one lockstep walk; the results are split back
    into one :class:`ShardOutput` per shard, in order."""

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
        self, injector: DeterministicFaultInjector, parts: Sequence[Part],
    ) -> List[ShardOutput]:
        specs: List[FaultSpec] = [spec for _, shard in parts for spec in shard]
        with span("worker.inject", workload=self.workload_name,
                  specs=len(specs), shard=parts[0][0],
                  shards=len(parts)) as timed:
            results = injector.inject_many(specs)
        per_spec = timed.duration_s / max(1, len(specs))
        outputs = []
        start = 0
        for _, shard in parts:
            stop = start + len(shard)
            outputs.append(ShardOutput(
                results=results[start:stop],
                inject_s=per_spec * len(shard),
                batch_stats={},
                memo_delta=None,
            ))
            start = stop
        outputs[0].batch_stats = injector.consume_batch_stats()
        outputs[0].memo_delta = injector.consume_memo_delta()
        return outputs


@dataclass(frozen=True)
class AnalyzeJob:
    """aDVF reports for chunks of data objects on one :class:`AdvfEngine`:
    the compiled module, the golden trace, the analyzers and the
    injector's replay context serve every object of the job (forked
    workers inherit them)."""

    workload_name: str
    workload_kwargs: Dict[str, object]
    config: AnalysisConfig

    def setup(self) -> AdvfEngine:
        """The job's engine, prepared: the golden trace acquired through
        :func:`~repro.tracing.cache.golden_trace` (the artifact a campaign
        run wrote, or one golden run that records it and captures the
        replay context), the analyzers and the injector built."""
        from repro.core.advf import AdvfEngine
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload_name, **self.workload_kwargs)
        start = time.perf_counter()
        trace, source, context = golden_trace(
            workload, self.workload_name, self.workload_kwargs
        )
        digest = trace_digest(self.workload_name, self.workload_kwargs)
        get_logger("campaign").info(
            "trace.acquired",
            f"golden trace {digest}: {source} "
            f"({len(trace)} events, {time.perf_counter() - start:.2f}s)",
            trace_digest=digest,
            source=source,
            events=len(trace),
        )
        engine = AdvfEngine(
            workload, self.config, trace=trace, context=context
        )
        engine.prepare()
        return engine

    def run(
        self, engine: AdvfEngine, parts: Sequence[Part]
    ) -> List[ChunkReports]:
        outputs = []
        for _, object_names in parts:
            with span("worker.analyze", workload=self.workload_name,
                      objects=len(object_names)):
                outputs.append(ChunkReports(
                    [(name, engine.analyze_object(name)) for name in object_names]
                ))
        return outputs


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


def _worker_run(parts: List[Part]) -> List[Union[ShardOutput, ChunkReports]]:
    """Pool entry point: one unit of this worker's job, one output per part.

    The first output carries what the parent cannot see: this process's
    registry activity since the previous unit (the parent folds the deltas
    with ``registry().merge`` — associative, so the fold is independent of
    completion order) and its finished spans.
    """
    outputs = _WORKER_JOB.run(_WORKER_STATE, parts)
    if metrics_enabled():
        outputs[0].metrics_delta = _metrics_registry().snapshot_delta(
            "worker-chunk"
        )
    outputs[0].span_records = drain_span_records()
    return outputs


class ShardPipeline:
    """Units of one job over a worker pool, a bounded window in flight.

    :meth:`submit` queues one unit: a run of ``(key, items)`` parts (the
    consecutive shards of one data object, a chunk of object names) that
    one process serves in one call.  :meth:`wait` blocks until at least
    one queued unit has finished and returns its parts as ``(key, output)``
    pairs, in key order; a failed unit returns one ``(first key,
    CampaignChunkError)`` pair.  A failure is returned, not raised, so a
    caller that commits in key order can first commit everything before
    the failed unit.

    Every unit runs on one job state, built once in this process: by
    ``setup`` when the caller passes one (a zero-argument callable, e.g.
    one that wraps a replay context it already holds), else by the job's
    own ``setup``, at the first :meth:`submit` — a run that submits
    nothing builds nothing, and a state that cannot be built fails every
    unit.  With ``workers == 1`` nothing is spawned:
    :meth:`wait` runs the unit whose first part is the key the caller
    names (the one it commits next) in this process, so execution order
    is commit order.  With more workers a ``fork``-started pool is created
    right after the state, at the first :meth:`submit`; its workers
    inherit the state, and up to :attr:`window` units run or queue in it
    at once, finishing in any order.  A platform without ``fork`` cannot
    run more than one worker (:class:`RuntimeError` at construction).
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
        #: Queued units by their first part's key.
        self._queued: Dict[int, List[Part]] = {}
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

    def submit(self, parts: Sequence[Part]) -> None:
        """Queue one unit: ``(key, items)`` parts, keyed by the first."""
        parts = [(key, list(items)) for key, items in parts]
        key = parts[0][0]
        self._queued[key] = parts
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
        self._futures[self._pool.submit(_worker_run, parts)] = key

    def wait(self, key: int) -> List[Tuple[int, object]]:
        """Finished parts; in this process, runs the unit ``key`` starts."""
        if not self._queued:
            raise RuntimeError("no unit in flight to wait for")
        if self.workers <= 1 or self._state_error is not None:
            if key not in self._queued:  # the caller's next unit is not queued
                key = next(iter(self._queued))
            parts = self._queued.pop(key)
            if self._state_error is not None:
                return [(key, self._failure(parts, self._state_error))]
            try:
                outputs = self.job.run(self._state, parts)
            except Exception as exc:
                return [(key, self._failure(parts, exc))]
            return [(k, output) for (k, _), output in zip(parts, outputs)]
        finished, _ = futures_wait(self._futures, return_when=FIRST_COMPLETED)
        out: List[Tuple[int, object]] = []
        for future in sorted(finished, key=self._futures.__getitem__):
            key = self._futures.pop(future)
            parts = self._queued.pop(key)
            try:
                outputs = future.result()
            except Exception as exc:
                out.append((key, self._failure(parts, exc)))
                continue
            if outputs[0].metrics_delta:
                _metrics_registry().merge(outputs[0].metrics_delta)
            out.extend((k, output) for (k, _), output in zip(parts, outputs))
        return out

    def _failure(self, parts: List[Part],
                 exc: BaseException) -> CampaignChunkError:
        """The unit's failure, named by its first part's key."""
        items = [item for _, part in parts for item in part]
        error = CampaignChunkError(
            self.job.workload_name, parts[0][0], items, exc, unit=self.unit
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


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #
@dataclass
class CampaignRunner:
    """Fan out fault injections / aDVF analyses over local processes.

    ``workload_name`` must be a key of :data:`repro.workloads.registry.WORKLOADS`
    (the job's ``setup`` builds the workload from it, once, in this
    process); ``workload_kwargs`` are the constructor overrides (sizes,
    seed, ABFT flag, …).  Both calls split their input into at most one
    contiguous chunk per worker and run the chunks through a
    :class:`ShardPipeline`, whose forked workers inherit the job's state;
    a single chunk runs in this process.  ``on_progress`` (if given) is
    called with ``(chunks_done, chunks_total)`` as chunks complete.  A
    failed chunk raises :class:`CampaignChunkError` naming the chunk and
    its items, with the original exception chained as ``__cause__``.
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
        outputs = self._run_chunks(
            InjectJob(self.workload_name, self.workload_kwargs),
            chunk_evenly(specs, pieces), on_progress,
        )
        return [result for output in outputs for result in output.results]

    def analyze_objects(
        self,
        object_names: Sequence[str],
        config: Optional[AnalysisConfig] = None,
        on_progress: Optional[ProgressCallback] = None,
    ) -> Dict[str, ObjectReport]:
        """aDVF reports, one object chunk per worker (see :class:`AnalyzeJob`)."""
        from repro.core.reports import AnalysisConfig

        outputs = self._run_chunks(
            AnalyzeJob(
                self.workload_name, self.workload_kwargs,
                config or AnalysisConfig(),
            ),
            chunk_evenly(list(object_names), max(1, self.workers)),
            on_progress,
        )
        return {name: report for output in outputs
                for name, report in output.reports}

    def _run_chunks(
        self,
        job: Job,
        chunks: Sequence[list],
        on_progress: Optional[ProgressCallback],
    ) -> list:
        """Every non-empty chunk through one pipeline; outputs in chunk order."""
        chunks = [chunk for chunk in chunks if chunk]
        outputs: list = [None] * len(chunks)
        if not chunks:
            return outputs
        with ShardPipeline(
            job, min(self.workers, len(chunks)), unit="chunk"
        ) as pipeline:
            for index, chunk in enumerate(chunks):
                pipeline.submit([(index, chunk)])
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
