"""Per-event reference for :func:`repro.core.participation.find_participations`.

The production pass finds participations with array masks over the columns
of a :class:`~repro.tracing.columnar.ColumnarTrace`.  This oracle is the
direct reading of the definition it replaced: walk every event, record a
store into the object as a store destination, and record every operand that
is the unmodified result of a load from the object as a consumption.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.participation import Participation, ParticipationRole
from repro.tracing.columnar import ColumnarTrace
from repro.tracing.events import OperandKind, TraceEvent


def operand_is_direct_load_of(
    trace: ColumnarTrace, event: TraceEvent, operand_index: int, object_name: str
) -> Optional[Tuple[int, int]]:
    """``(element index, load id)`` when the operand is a direct load hit."""
    if event.operand_kinds[operand_index] is not OperandKind.INSTRUCTION:
        return None
    producer_id = event.operand_producers[operand_index]
    if producer_id < 0:
        return None
    producer = trace[producer_id]
    if not producer.is_load or producer.object_name != object_name:
        return None
    return (producer.element_index, producer.dynamic_id)  # type: ignore[return-value]


def scan_participations(
    trace: ColumnarTrace,
    object_name: str,
    max_participations: Optional[int] = None,
) -> List[Participation]:
    """Every participation of ``object_name``, one event at a time.

    ``max_participations`` takes the same evenly-strided subsample as the
    production pass.
    """
    participations: List[Participation] = []
    for event in trace:
        if event.is_store and event.object_name == object_name:
            participations.append(
                Participation(
                    event_id=event.dynamic_id,
                    role=ParticipationRole.STORE_DEST,
                    operand_index=-1,
                    element_index=event.element_index,  # type: ignore[arg-type]
                    load_event_id=-1,
                    value_type=event.operand_types[0],
                    static_uid=event.static_uid,
                )
            )
        if event.is_load:
            continue
        for operand_index in range(event.operand_count()):
            hit = operand_is_direct_load_of(trace, event, operand_index, object_name)
            if hit is None:
                continue
            element_index, load_id = hit
            participations.append(
                Participation(
                    event_id=event.dynamic_id,
                    role=ParticipationRole.CONSUMED,
                    operand_index=operand_index,
                    element_index=element_index,
                    load_event_id=load_id,
                    value_type=event.operand_types[operand_index],
                    static_uid=event.static_uid,
                )
            )
    if max_participations is not None and len(participations) > max_participations:
        stride = len(participations) / max_participations
        participations = [
            participations[int(i * stride)] for i in range(max_participations)
        ]
    return participations
