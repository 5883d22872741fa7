"""Unified telemetry: metrics registry, span tracing, structured logging.

One instrumentation protocol for every layer of the stack — the engine's
dispatch loop, the batched replay scheduler, the MIR and trace caches,
campaign workers, the orchestrator, the store and the CLI — replacing the
ad-hoc per-subsystem counters and bare progress prints that preceded it.

Quick tour::

    from repro.obs import registry, span, get_logger

    registry().inc("mir.segment_compiles", 3, variant="plain")
    with span("replay.batch", shard=7):
        ...                                  # timed, nestable, exported
    get_logger("campaign").info("shard.done", "shard 7 finished", shard=7)

On top of the in-process primitives sit three durable/live surfaces:

* the **flight recorder** (:mod:`repro.obs.spans` recording +
  ``run_spans`` store rows): finished spans of a campaign run — with
  campaign/run/shard/pid correlation labels — survive process exit and
  render as a waterfall via ``python -m repro timeline``;
* the **live endpoint** (:mod:`repro.obs.serve`): ``python -m repro obs
  serve`` exposes ``/metrics`` (Prometheus text), ``/healthz``,
  ``/campaigns`` and an SSE ``/events`` stream over stdlib HTTP;
* the **bench watchdog** (:mod:`repro.obs.bench`): ``python -m repro
  bench check`` gates fresh benchmark runs against the committed
  ``BENCH_*.json`` baselines and appends history entries to them.

Environment knobs:

``REPRO_METRICS``
    ``0`` / ``off`` replaces the registry with a no-op implementation;
    the engine's instrumentation then costs nothing measurable.
``REPRO_LOG``
    JSONL event destination (``stderr``, ``-``, or a file path) receiving
    every structured log/span event, stamped with a provenance header
    (repro + store schema versions).
``REPRO_LOG_LEVEL``
    Human stderr verbosity: ``debug`` | ``info`` (default) | ``warning``
    | ``error`` | ``quiet``.
``REPRO_LOG_MAX_BYTES``
    Size cap on the ``REPRO_LOG`` file: exceeding it rotates the file
    once to ``<path>.1`` and starts fresh (meta header re-written).
``REPRO_OBS_PORT``
    Default port of the live endpoint; setting it makes ``campaign
    run``/``resume`` serve in-process even without ``--serve``.

Worker processes record into their own process-local registry and ship
``registry().snapshot_delta(cursor)`` payloads to the parent, which folds
them with ``registry().merge(delta)`` — the fold is associative and
deterministic, so parallel campaigns aggregate exactly.  Their finished
spans travel the same road: buffered per process, drained per chunk, and
persisted by the orchestrator.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "log": (
            "LEVELS",
            "StructuredLogger",
            "add_event_sink",
            "emit_event",
            "get_logger",
            "log_level",
            "provenance",
            "remove_event_sink",
        ),
        "metrics": (
            "TIME_BUCKETS",
            "Histogram",
            "MetricsRegistry",
            "NullRegistry",
            "configure",
            "diff_snapshots",
            "merge_snapshots",
            "metrics_enabled",
            "registry",
        ),
        "prom": ("render_promfile", "write_promfile"),
        "spans": (
            "Span",
            "clear_span_context",
            "current_span",
            "disable_recording",
            "drain_span_records",
            "enable_recording",
            "get_span_context",
            "recording_enabled",
            "set_span_context",
            "span",
            "span_context",
        ),
    },
)
