"""Event-object reference for the store-destination read-modify-write walk.

:class:`~repro.core.masking.OperationMaskingAnalyzer` walks the producer
chain of a stored value over the trace columns.  This oracle is the direct
reading it replaced: the same walk over materialised
:class:`~repro.tracing.events.TraceEvent` objects.
"""

from __future__ import annotations

from repro.tracing.columnar import ColumnarTrace
from repro.tracing.events import TraceEvent


def is_read_modify_write(
    trace: ColumnarTrace, store_event: TraceEvent, max_depth: int = 32
) -> bool:
    """Whether the value stored by ``store_event`` depends on the destination.

    Walks the producer chain of the stored value looking for a load of the
    same ``(object, element)``.  An accumulation such as ``x[i] = x[i] + v``
    is a read-modify-write: the store does *not* overwrite an error sitting
    in ``x[i]`` because the error has already been folded into the value
    being written back.
    """
    target = store_event.touches
    if target is None:
        return False
    worklist = [store_event.operand_producers[0]]
    seen = set()
    depth = 0
    while worklist and depth < max_depth:
        depth += 1
        producer_id = worklist.pop()
        if producer_id < 0 or producer_id in seen:
            continue
        seen.add(producer_id)
        producer = trace[producer_id]
        if producer.is_load and producer.touches == target:
            return True
        worklist.extend(producer.operand_producers)
    return False
