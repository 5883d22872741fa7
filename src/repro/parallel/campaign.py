"""Multiprocessing campaign runner for fault injections and aDVF analyses.

Each worker process rebuilds the workload from its registry name and
constructor arguments (workload objects themselves are not pickled — the
kernels hold compiled IR with unpicklable back-references), runs its share
of the work, and sends back plain result objects.  Work is split
deterministically so parallel results equal sequential ones.

All fan-out goes through one :class:`ShardPipeline`.  A pipeline serves one
*job*: :class:`InjectJob` injects whole shards of fault specs (one
snapshot restore and one suffix walk per replay batch, never a shard split
across workers), :class:`AnalyzeJob` computes aDVF reports for chunks of
data objects.  A job's ``setup`` builds its per-process state once — the
injector with its golden run and snapshot schedule, or the aDVF engine —
and its ``run`` serves one unit on that state.  A bounded window of units
is in flight at once, and the caller reorders finished units by key.  At
one worker the pipeline spawns nothing and runs each unit in this process.

Analysis chunks acquire the golden trace through
:func:`~repro.tracing.cache.golden_trace`: they load the trace-cache
artifact the campaign run wrote, and a process that finds it missing or
unreadable traces the workload and rewrites it.
"""

from __future__ import annotations

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
from repro.obs.log import get_logger
from repro.obs.metrics import metrics_enabled, registry as _metrics_registry
from repro.obs.spans import drain_span_records, enable_recording, span
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import golden_trace, trace_digest
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.core.advf import AdvfEngine
    from repro.core.reports import AnalysisConfig, ObjectReport

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
    """What injecting one shard produced, in a worker or in this process."""

    results: List[FaultInjectionResult]
    #: Duration of the shard's ``worker.inject`` span: its own execution
    #: time, without the time it queued in the pipeline window.
    inject_s: float
    #: The replay scheduler's counter delta for this shard.
    batch_stats: Dict[str, int]
    #: Convergence-memo entries the shard learned (``None`` when nothing
    #: new); callers persist it so later shards and resumes warm-start.
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


@dataclass(frozen=True)
class InjectJob:
    """Inject whole shards of fault specs on one injector per process, so
    the golden run, the snapshot schedule and the convergence memo serve
    every shard the process runs."""

    workload_name: str
    workload_kwargs: Dict[str, object]

    def setup(self) -> DeterministicFaultInjector:
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload_name, **self.workload_kwargs)
        # the trace digest keys the persisted convergence-memo artifact, so
        # every worker of a campaign (and every resumed campaign) warm-starts
        # from the entries earlier replays already learned
        return DeterministicFaultInjector(
            workload,
            memo_key=trace_digest(self.workload_name, self.workload_kwargs),
        )

    def run(
        self, injector: DeterministicFaultInjector, key: int,
        specs: List[FaultSpec],
    ) -> ShardOutput:
        # The whole shard goes to the batched replay scheduler in one call
        # (grouped by snapshot interval, shared suffix walk, convergence memo).
        with span("worker.inject", workload=self.workload_name,
                  specs=len(specs), shard=key) as timed:
            results = injector.inject_many(specs)
        return ShardOutput(
            results=results,
            inject_s=timed.duration_s,
            batch_stats=injector.consume_batch_stats(),
            memo_delta=injector.consume_memo_delta(),
        )


@dataclass(frozen=True)
class AnalyzeJob:
    """aDVF reports for chunks of data objects on one :class:`AdvfEngine`
    per process: the compiled module, the golden trace, the propagation
    indices and the injector's replay context serve every object the
    process analyses."""

    workload_name: str
    workload_kwargs: Dict[str, object]
    config: AnalysisConfig

    def setup(self) -> AdvfEngine:
        from repro.core.advf import AdvfEngine
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload_name, **self.workload_kwargs)
        start = time.perf_counter()
        trace, source = golden_trace(
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
        return AdvfEngine(workload, self.config, trace=trace)

    def run(
        self, engine: AdvfEngine, key: int, object_names: List[str]
    ) -> ChunkReports:
        with span("worker.analyze", workload=self.workload_name,
                  objects=len(object_names)):
            return ChunkReports(
                [(name, engine.analyze_object(name)) for name in object_names]
            )


Job = Union[InjectJob, AnalyzeJob]

#: The job a pool worker serves (set by the pool initializer) and the state
#: its ``setup`` built on the worker's first unit.
_WORKER_JOB: Optional[Job] = None
_WORKER_STATE: object = None


def _worker_init(job: Job) -> None:
    """Pool initializer: take the job; discard state inherited across ``fork``.

    On fork-start platforms a fresh worker process carries a copy of the
    parent's registry (golden-trace build, analysis passes, …).  Setting
    the unit cursor here makes the first unit's delta cover only work the
    worker itself performed, so the parent's pre-fork activity is never
    shipped back and double-counted.  Span recording follows the same
    pattern: enabled, then drained once to discard records inherited
    across fork (the parent persists its own).
    """
    global _WORKER_JOB, _WORKER_STATE
    _WORKER_JOB, _WORKER_STATE = job, None
    if metrics_enabled():
        _metrics_registry().snapshot_delta("worker-chunk")
    enable_recording()
    drain_span_records()


def _worker_run(key: int, items: list) -> Union[ShardOutput, ChunkReports]:
    """Pool entry point: one unit of this worker's job.

    The output carries what the parent cannot see: this process's registry
    activity since the previous unit (the parent folds the deltas with
    ``registry().merge`` — associative, so the fold is independent of
    completion order) and its finished spans.
    """
    global _WORKER_STATE
    if _WORKER_STATE is None:
        _WORKER_STATE = _WORKER_JOB.setup()
    output = _WORKER_JOB.run(_WORKER_STATE, key, items)
    if metrics_enabled():
        output.metrics_delta = _metrics_registry().snapshot_delta("worker-chunk")
    output.span_records = drain_span_records()
    return output


class ShardPipeline:
    """Units of one job over a worker pool, a bounded window in flight.

    :meth:`submit` queues one unit (a shard of specs, a chunk of object
    names) under an integer key; :meth:`wait` blocks until at least one
    queued unit has finished and returns the finished ones as ``(key,
    output or CampaignChunkError)`` pairs.  A failure is returned, not
    raised, so a caller that commits in key order can first commit
    everything before the failed unit.

    With ``workers == 1`` nothing is spawned: :meth:`wait` runs the unit
    the caller names (the one it commits next) in this process, on state
    the pipeline keeps for its lifetime, so execution order is commit
    order.  With more workers the pool is created on the first
    :meth:`submit` (a run that submits nothing spawns no process) and up
    to :attr:`window` units run or queue in it at once, finishing in any
    order.
    """

    def __init__(self, job: Job, workers: int, unit: str = "shard") -> None:
        self.job = job
        self.workers = workers
        #: What a failure message calls one submission ("shard"/"chunk").
        self.unit = unit
        #: Most units in flight (submitted, not yet returned by
        #: :meth:`wait`) at once; callers check :meth:`has_room`.
        self.window = 2 * workers
        self._queued: Dict[int, list] = {}
        self._futures: Dict[Future, int] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._state: object = None

    @property
    def in_flight(self) -> int:
        return len(self._queued)

    def has_room(self) -> bool:
        return len(self._queued) < self.window

    def submit(self, key: int, items: Sequence[object]) -> None:
        items = list(items)
        self._queued[key] = items
        if self.workers <= 1:
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init,
                initargs=(self.job,),
            )
        self._futures[self._pool.submit(_worker_run, key, items)] = key

    def wait(self, key: int) -> List[Tuple[int, object]]:
        """Finished units; in this process, runs unit ``key`` first."""
        if not self._queued:
            raise RuntimeError("no unit in flight to wait for")
        if self.workers <= 1:
            if key not in self._queued:  # the caller's next unit is not queued
                key = next(iter(self._queued))
            items = self._queued.pop(key)
            try:
                if self._state is None:
                    self._state = self.job.setup()
                output = self.job.run(self._state, key, items)
            except Exception as exc:
                return [(key, self._failure(key, items, exc))]
            return [(key, output)]
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

    def _failure(self, key: int, items: list,
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
    so worker processes can rebuild the workload; ``workload_kwargs`` are the
    constructor overrides (sizes, seed, ABFT flag, …).  Both calls split
    their input into at most one contiguous chunk per worker and run the
    chunks through a :class:`ShardPipeline`; a single chunk runs in this
    process.  ``on_progress`` (if given) is called with ``(chunks_done,
    chunks_total)`` as chunks complete.  A failed chunk raises
    :class:`CampaignChunkError` naming the chunk and its items, with the
    original exception chained as ``__cause__``.
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

        Campaigns should submit their own shards to a pipeline instead: a
        shard split across workers walks the same golden suffix once per
        worker.
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
