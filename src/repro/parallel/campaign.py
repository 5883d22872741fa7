"""Multiprocessing campaign runner for fault injections and aDVF analyses.

Each worker process rebuilds the workload from its registry name and
constructor arguments (workload objects themselves are not pickled — the
kernels hold compiled IR with unpicklable back-references), runs its share
of the work, and sends back plain result objects.  Work is split
deterministically so parallel results equal sequential ones.

Fault injections run as whole *shards* through a :class:`ShardPipeline`:
each worker injects a complete shard (one snapshot restore and one suffix
walk per replay batch, never a shard split across workers), a bounded
window of shards is in flight at once, and the caller reorders finished
shards by key.  At one worker the pipeline spawns nothing and runs each
shard in this process.

For aDVF analyses the golden trace is built (or fetched from the trace
cache) **once per campaign** and shipped to workers as a file-backed
columnar artifact: each worker process loads the ``.npz`` instead of
re-tracing the workload per chunk, and keeps it cached for later chunks of
the same campaign.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.obs.metrics import metrics_enabled, registry as _metrics_registry
from repro.obs.spans import drain_span_records, enable_recording, span
from repro.parallel.partition import chunk_evenly
from repro.tracing.cache import TraceCache, trace_digest
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
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
# worker entry points (module-level so they are picklable)
# --------------------------------------------------------------------- #
#: Per-worker-process injector cache, keyed by (workload name, kwargs JSON).
#: A pipeline submits many shards of the same workload to the same
#: processes; caching keeps the golden run and the checkpoint schedule
#: alive across shards instead of rebuilding them per submission.
_WORKER_INJECTORS: Dict[Tuple[str, str], DeterministicFaultInjector] = {}


def _build_injector(
    workload_name: str, workload_kwargs: Dict[str, object]
) -> DeterministicFaultInjector:
    from repro.workloads.registry import get_workload

    workload = get_workload(workload_name, **workload_kwargs)
    # the trace digest keys the persisted convergence-memo artifact, so
    # every worker of a campaign (and every resumed campaign) warm-starts
    # from the entries earlier replays already learned
    return DeterministicFaultInjector(
        workload, memo_key=trace_digest(workload_name, workload_kwargs)
    )


def _worker_injector(
    workload_name: str, workload_kwargs: Dict[str, object]
) -> DeterministicFaultInjector:
    import json

    key = (workload_name, json.dumps(workload_kwargs, sort_keys=True, default=repr))
    injector = _WORKER_INJECTORS.get(key)
    if injector is None:
        injector = _WORKER_INJECTORS[key] = _build_injector(
            workload_name, workload_kwargs
        )
    return injector


#: True only in pool worker processes (set by the initializer).  The shard
#: and chunk functions also run in-process (one worker, small jobs); there
#: they must *not* drain the span-record buffer — the parent owns it.
_IS_WORKER = False


def _worker_metrics_baseline() -> None:
    """Pool initializer: discard registry state inherited across ``fork``.

    On fork-start platforms a fresh worker process carries a copy of the
    parent's registry (golden-trace build, analysis passes, …).  Setting
    the chunk cursor here makes the first chunk's delta cover only work
    the worker itself performed, so the parent's pre-fork activity is
    never shipped back and double-counted.  Span recording follows the
    same pattern: enabled, then drained once to discard records inherited
    across fork (the parent persists its own).
    """
    global _IS_WORKER
    _IS_WORKER = True
    if metrics_enabled():
        _metrics_registry().snapshot_delta("worker-chunk")
    enable_recording()
    drain_span_records()


def _chunk_span_records() -> Optional[List[Dict[str, object]]]:
    """This worker's finished spans since the previous chunk (None when
    running in the parent process, whose buffer the orchestrator drains)."""
    if not _IS_WORKER:
        return None
    return drain_span_records()


def _chunk_metrics_delta() -> Optional[Dict[str, object]]:
    """This process's registry activity since the previous chunk.

    Worker processes ship the delta back with each chunk result; the
    parent folds the deltas with ``registry().merge`` — associative, so
    the fold is independent of chunk completion order.  (When the chunk
    runs in the parent process the caller discards the delta: the
    activity is already in the parent registry.)
    """
    if not metrics_enabled():
        return None
    return _metrics_registry().snapshot_delta("worker-chunk")


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


def _inject_shard(
    injector: DeterministicFaultInjector,
    workload_name: str,
    key: int,
    specs: List[FaultSpec],
) -> ShardOutput:
    # The whole shard goes to the batched replay scheduler in one call
    # (grouped by snapshot interval, shared suffix walk, convergence memo).
    with span("worker.inject", workload=workload_name, specs=len(specs),
              shard=key) as timed:
        results = injector.inject_many(specs)
    return ShardOutput(
        results=results,
        inject_s=timed.duration_s,
        batch_stats=injector.consume_batch_stats(),
        memo_delta=injector.consume_memo_delta(),
        metrics_delta=_chunk_metrics_delta() if _IS_WORKER else None,
        span_records=_chunk_span_records() or [],
    )


def _worker_inject_shard(
    workload_name: str,
    workload_kwargs: Dict[str, object],
    key: int,
    specs: List[FaultSpec],
) -> ShardOutput:
    """Pool entry point: one shard on this worker's cached injector."""
    return _inject_shard(
        _worker_injector(workload_name, workload_kwargs), workload_name, key,
        specs,
    )


class ShardPipeline:
    """Whole injection shards over a worker pool, a bounded window in flight.

    :meth:`submit` queues one shard under an integer key; :meth:`wait`
    blocks until at least one queued shard has finished and returns the
    finished ones as ``(key, ShardOutput or CampaignChunkError)`` pairs.
    A failure is returned, not raised, so a caller that commits in key
    order can first commit everything before the failed shard.

    With ``workers == 1`` nothing is spawned: :meth:`wait` runs the shard
    the caller names (the one it commits next) in this process, on an
    injector the pipeline keeps for its lifetime, so execution order is
    commit order.  With more workers the pool is created on the first
    :meth:`submit` (a run that submits nothing spawns no process) and up
    to :attr:`window` shards run or queue in it at once, finishing in any
    order.
    """

    def __init__(
        self,
        workload_name: str,
        workload_kwargs: Dict[str, object],
        workers: int,
        unit: str = "shard",
    ) -> None:
        self.workload_name = workload_name
        self.workload_kwargs = workload_kwargs
        self.workers = workers
        #: What a failure message calls one submission ("shard"/"chunk").
        self.unit = unit
        #: Most shards in flight (submitted, not yet returned by
        #: :meth:`wait`) at once; callers check :meth:`has_room`.
        self.window = 2 * workers
        self._queued: Dict[int, List[FaultSpec]] = {}
        self._futures: Dict[Future, int] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._injector: Optional[DeterministicFaultInjector] = None

    @property
    def in_flight(self) -> int:
        return len(self._queued)

    def has_room(self) -> bool:
        return len(self._queued) < self.window

    def submit(self, key: int, specs: Sequence[FaultSpec]) -> None:
        specs = list(specs)
        self._queued[key] = specs
        if self.workers <= 1:
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_metrics_baseline
            )
        future = self._pool.submit(
            _worker_inject_shard, self.workload_name, self.workload_kwargs,
            key, specs,
        )
        self._futures[future] = key

    def wait(self, key: int) -> List[Tuple[int, object]]:
        """Finished shards; in this process, runs shard ``key`` first."""
        if not self._queued:
            raise RuntimeError("no shard in flight to wait for")
        if self.workers <= 1:
            if key not in self._queued:  # the caller's next shard is not queued
                key = next(iter(self._queued))
            specs = self._queued.pop(key)
            try:
                if self._injector is None:
                    self._injector = _build_injector(
                        self.workload_name, self.workload_kwargs
                    )
                output = _inject_shard(
                    self._injector, self.workload_name, key, specs
                )
            except Exception as exc:
                return [(key, self._failure(key, specs, exc))]
            return [(key, output)]
        finished, _ = futures_wait(self._futures, return_when=FIRST_COMPLETED)
        out: List[Tuple[int, object]] = []
        for future in sorted(finished, key=self._futures.__getitem__):
            key = self._futures.pop(future)
            specs = self._queued.pop(key)
            try:
                output = future.result()
            except Exception as exc:
                out.append((key, self._failure(key, specs, exc)))
                continue
            if output.metrics_delta:
                _metrics_registry().merge(output.metrics_delta)
            out.append((key, output))
        return out

    def _failure(self, key: int, specs: List[FaultSpec],
                 exc: BaseException) -> CampaignChunkError:
        error = CampaignChunkError(
            self.workload_name, key, specs, exc, unit=self.unit
        )
        error.__cause__ = exc
        return error

    def close(self) -> None:
        """Drop queued shards and stop the pool (running shards finish)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
        self._queued.clear()

    def __enter__(self) -> "ShardPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Per-worker-process columnar-trace cache, keyed by artifact path.  A
#: worker may analyse several chunks of the same campaign; the golden
#: trace is deserialised once per process, not once per chunk.
_WORKER_TRACES: Dict[str, ColumnarTrace] = {}


def _worker_trace(trace_path: str) -> ColumnarTrace:
    trace = _WORKER_TRACES.get(trace_path)
    if trace is None:
        trace = _WORKER_TRACES[trace_path] = ColumnarTrace.load(trace_path)
    return trace


def _analyze_objects_chunk(
    workload_name: str,
    workload_kwargs: Dict[str, object],
    object_names: List[str],
    config: AnalysisConfig,
    trace_path: Optional[str] = None,
) -> Tuple[List[Tuple[str, ObjectReport]], Optional[Dict[str, object]]]:
    from repro.core.advf import AdvfEngine
    from repro.workloads.registry import get_workload

    # One workload + one AdvfEngine per worker chunk: the compiled module,
    # the golden trace, the propagation indices and the injector's replay
    # context are built once and reused for every object in the chunk
    # (the seed rebuilt all of them per object).  When the parent shipped a
    # file-backed golden trace, the worker loads that artifact instead of
    # re-tracing the workload.
    workload = get_workload(workload_name, **workload_kwargs)
    trace = _worker_trace(trace_path) if trace_path is not None else None
    engine = AdvfEngine(workload, config, trace=trace)
    with span("worker.analyze", workload=workload_name,
              objects=len(object_names)):
        pairs = [(name, engine.analyze_object(name)) for name in object_names]
    return pairs, _chunk_metrics_delta()


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #
@dataclass
class CampaignRunner:
    """Fan out fault injections / aDVF analyses over local processes.

    ``workload_name`` must be a key of :data:`repro.workloads.registry.WORKLOADS`
    so worker processes can rebuild the workload; ``workload_kwargs`` are the
    constructor overrides (sizes, seed, ABFT flag, …).
    """

    workload_name: str
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    workers: int = field(default_factory=_default_workers)
    _trace_path: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _trace_tmpdir: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # golden-trace artifact
    # ------------------------------------------------------------------ #
    def trace_artifact(self) -> str:
        """Path of the campaign's file-backed columnar golden trace.

        Built (or fetched from the :class:`~repro.tracing.cache.TraceCache`)
        once per runner; all analysis chunks — in-process or in worker
        processes — load this artifact instead of re-tracing the workload.
        With the cache disabled (``REPRO_TRACE_CACHE=off``) the artifact
        lives in a temporary directory released by :meth:`close`.
        """
        if self._trace_path is not None:
            return self._trace_path
        digest = trace_digest(self.workload_name, self.workload_kwargs)
        cache = TraceCache.from_env()
        if cache is not None:
            cache.get_or_build(digest, self._build_golden_trace)
            self._trace_path = str(cache.find(digest))
        else:
            self._trace_tmpdir = tempfile.mkdtemp(prefix="repro-trace-")
            path = Path(self._trace_tmpdir) / f"{digest}.npz"
            self._build_golden_trace().save(path)
            self._trace_path = str(path)
        return self._trace_path

    def _build_golden_trace(self) -> ColumnarTrace:
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload_name, **self.workload_kwargs)
        return workload.traced_run().trace

    def run_injections(
        self,
        specs: Sequence[FaultSpec],
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[FaultInjectionResult]:
        """Inject every spec, preserving input order in the result list.

        The specs are split into one contiguous chunk per worker and each
        chunk runs whole through a :class:`ShardPipeline` (campaigns should
        submit their own shards to a pipeline instead: a shard split across
        workers walks the same golden suffix once per worker).
        ``on_progress`` (if given) is called with ``(chunks_done,
        chunks_total)`` as chunks complete.  Worker failures raise
        :class:`CampaignChunkError` naming the failing chunk and its spec
        range, with the original exception chained as ``__cause__``.
        """
        specs = list(specs)
        if not specs:
            return []
        pieces = 1 if self.workers <= 1 or len(specs) < 4 else self.workers
        chunks = [c for c in chunk_evenly(specs, pieces) if c]
        outputs: List[Optional[ShardOutput]] = [None] * len(chunks)
        with ShardPipeline(
            self.workload_name, self.workload_kwargs, self.workers, unit="chunk"
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
        return [result for output in outputs for result in output.results]

    @staticmethod
    def _fold_metrics(delta: Optional[Dict[str, object]]) -> None:
        """Fold one worker chunk's registry delta into this process."""
        if delta:
            _metrics_registry().merge(delta)

    def _collect(
        self,
        fn: Callable,
        argument_tuples: Sequence[Tuple],
        chunk_items: Sequence[Sequence[object]],
        on_progress: Optional[ProgressCallback],
    ) -> List[object]:
        """Fan ``fn(*args)`` out over the pool; return results in chunk order.

        Completion is observed as it happens (for progress callbacks) while
        results are reassembled by chunk index so parallel output stays
        deterministic.
        """
        total = len(argument_tuples)
        slots: List[object] = [None] * total
        pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_metrics_baseline
        )
        try:
            future_index = {
                pool.submit(fn, *args): index
                for index, args in enumerate(argument_tuples)
            }
            done = 0
            pending = set(future_index)
            while pending:
                finished, pending = futures_wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = future_index[future]
                    try:
                        slots[index] = future.result()
                    except Exception as exc:
                        raise CampaignChunkError(
                            self.workload_name, index, chunk_items[index], exc
                        ) from exc
                    done += 1
                    if on_progress is not None:
                        on_progress(done, total)
        finally:
            pool.shutdown()
        return slots

    def close(self) -> None:
        """Release any temporary trace artifact."""
        if self._trace_tmpdir is not None:
            shutil.rmtree(self._trace_tmpdir, ignore_errors=True)
            self._trace_tmpdir = None
            self._trace_path = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def analyze_objects(
        self,
        object_names: Sequence[str],
        config: Optional[AnalysisConfig] = None,
        on_progress: Optional[ProgressCallback] = None,
    ) -> Dict[str, ObjectReport]:
        """aDVF analyses fanned out as one object *chunk* per worker.

        Objects of the same workload share everything that is per-workload:
        the golden trace is built once in the parent (or served by the
        trace cache) and shipped as a columnar artifact that each worker
        process loads once; workers build the workload and the injector's
        checkpoint schedule once per chunk instead of once per object.
        """
        from repro.core.reports import AnalysisConfig

        config = config or AnalysisConfig()
        names = list(object_names)
        if not names:
            return {}
        try:
            trace_path = self.trace_artifact()
        except Exception as exc:
            raise CampaignChunkError(self.workload_name, 0, names, exc) from exc
        if self.workers <= 1 or len(names) == 1:
            try:
                # in-process: the metrics delta is already in this
                # process's registry (discarded, not merged)
                pairs, _ = _analyze_objects_chunk(
                    self.workload_name, self.workload_kwargs, names, config,
                    trace_path,
                )
            except Exception as exc:
                raise CampaignChunkError(self.workload_name, 0, names, exc) from exc
            if on_progress is not None:
                on_progress(1, 1)
            return dict(pairs)
        chunks = [
            c for c in chunk_evenly(names, min(self.workers, len(names))) if c
        ]
        per_chunk = self._collect(
            _analyze_objects_chunk,
            [
                (self.workload_name, self.workload_kwargs, chunk, config, trace_path)
                for chunk in chunks
            ],
            chunks,
            on_progress,
        )
        out: Dict[str, ObjectReport] = {}
        for pairs, delta in per_chunk:
            self._fold_metrics(delta)
            for name, report in pairs:
                out[name] = report
        return out


def run_injections_parallel(
    workload_name: str,
    specs: Sequence[FaultSpec],
    workers: Optional[int] = None,
    **workload_kwargs,
) -> List[FaultInjectionResult]:
    """Convenience wrapper around :class:`CampaignRunner.run_injections`."""
    runner = CampaignRunner(
        workload_name, workload_kwargs, workers or _default_workers()
    )
    return runner.run_injections(specs)


def analyze_objects_parallel(
    workload_name: str,
    object_names: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    workers: Optional[int] = None,
    **workload_kwargs,
) -> Dict[str, ObjectReport]:
    """Convenience wrapper around :class:`CampaignRunner.analyze_objects`."""
    runner = CampaignRunner(
        workload_name, workload_kwargs, workers or _default_workers()
    )
    return runner.analyze_objects(object_names, config)
