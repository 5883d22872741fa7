"""Dynamic instruction traces.

The trace is MOARD's central data structure: the application trace generator
(our VM) records one event per executed IR instruction, carrying operand
values, producer links, and the resolution of every memory access back to a
named data object; :class:`~repro.tracing.events.TraceEvent` is the view of
one event.  The trace analysis tool (:mod:`repro.core`) consumes these
events to count error-masking opportunities per data object.

Every trace is recorded, analysed, cached and loaded as one
:class:`~repro.tracing.columnar.ColumnarTrace`, the only sink the engine
records into; a run that needs no events takes no sink at all.  The
analyses read it by dynamic id (``trace[i]`` builds one event view) or
through its NumPy columns; there is no other trace reader.

Public API
----------
:class:`~repro.tracing.events.TraceEvent`,
:class:`~repro.tracing.events.OperandKind`,
:class:`~repro.tracing.columnar.ColumnarTrace`,
:class:`~repro.tracing.cache.TraceCache`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "events": ("OperandKind", "TraceEvent"),
        "columnar": ("ColumnarTrace", "TraceColumns"),
        "cache": ("TraceCache", "trace_digest"),
    },
)
