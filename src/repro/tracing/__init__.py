"""Dynamic instruction traces.

The trace is MOARD's central data structure: the application trace generator
(our VM) records one :class:`~repro.tracing.events.TraceEvent` per executed
IR instruction, carrying operand values, producer links, and the resolution
of every memory access back to a named data object.  The trace analysis tool
(:mod:`repro.core`) consumes these events to count error-masking
opportunities per data object.

Every trace is recorded, analysed, cached and loaded as one
:class:`~repro.tracing.columnar.ColumnarTrace`; the
:class:`~repro.tracing.sinks.CountingSink` stands in when a run needs
opcode tallies only.

Public API
----------
:class:`~repro.tracing.events.TraceEvent`,
:class:`~repro.tracing.events.OperandKind`,
:class:`~repro.tracing.columnar.ColumnarTrace`,
:class:`~repro.tracing.cache.TraceCache`,
:class:`~repro.tracing.cursor.TraceCursor`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "events": ("OperandKind", "TraceEvent"),
        "cursor": ("TraceCursor", "TraceLike"),
        "columnar": ("ColumnarTrace", "TraceColumns"),
        "cache": ("TraceCache", "trace_digest"),
        "sinks": ("CountingSink", "TraceSink"),
    },
)
