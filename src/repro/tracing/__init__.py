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

from repro.tracing.events import OperandKind, TraceEvent
from repro.tracing.cursor import TraceCursor, TraceLike
from repro.tracing.columnar import ColumnarTrace, TraceColumns
from repro.tracing.cache import TraceCache, trace_digest
from repro.tracing.sinks import CountingSink, TraceSink

__all__ = [
    "OperandKind",
    "TraceEvent",
    "TraceCursor",
    "TraceLike",
    "TraceSink",
    "ColumnarTrace",
    "TraceColumns",
    "CountingSink",
    "TraceCache",
    "trace_digest",
]
