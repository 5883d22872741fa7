"""Finding the operations in which a target data object participates.

aDVF (Eq. 1) is defined over "operations with the participation of the
target data object".  At the IR-trace level a participation is either

* an operation that *consumes* a value loaded from the object (the loaded
  value is used, unmodified, as one of the operation's operands), or
* a ``store`` whose destination is an element of the object (the paper's
  "assignment to the data object": the old value at the destination is what
  the injected error would sit in).

Loads themselves are not counted as participations — the loaded value's
*consumer* is — matching the paper's LU walk-through, where
``sum[m] = sum[m] + v*v`` contributes one addition and one assignment (not a
load) to the denominator.

Participations are found by a vectorized pass over the integer columns of
the :class:`~repro.tracing.columnar.ColumnarTrace` (object-id masks instead
of per-event Python dispatch).  The parity suite checks it against the
per-event scan kept in ``tests/oracles/participation_scan.py``: identical
participation lists, in identical order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.ir.types import IRType
from repro.tracing.columnar import (
    INSTRUCTION_KIND_CODE,
    LOAD_CODE,
    STORE_CODE,
    ColumnarTrace,
)
from repro.tracing.events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.tracing.cursor import TraceLike


class ParticipationRole(enum.Enum):
    """How the target data object takes part in the operation."""

    #: One operand of the operation is the value of an element of the object.
    CONSUMED = "consumed"
    #: The operation stores into an element of the object (overwrite site).
    STORE_DEST = "store_dest"


@dataclass(frozen=True)
class Participation:
    """One (operation, element) pair entering the aDVF denominator."""

    event_id: int
    role: ParticipationRole
    #: Operand position of the consumed value (``-1`` for STORE_DEST).
    operand_index: int
    #: Element index within the target data object.
    element_index: int
    #: Dynamic id of the load that produced the consumed value (``-1`` for
    #: STORE_DEST).
    load_event_id: int
    #: IR type of the element value at the point of participation.
    value_type: IRType
    #: Static instruction identity (for error-equivalence grouping).
    static_uid: int


def find_participations(
    trace: ColumnarTrace,
    object_name: str,
    max_participations: Optional[int] = None,
) -> List[Participation]:
    """Enumerate every participation of ``object_name`` in ``trace``.

    ``max_participations`` caps the result by taking an evenly-strided
    subsample (deterministic), which keeps analysis of very long traces
    bounded; the aDVF value is a ratio, so even subsampling preserves it in
    expectation.
    """
    participations = _find_participations_columnar(
        trace, trace.columns(), object_name
    )

    if max_participations is not None and len(participations) > max_participations:
        stride = len(participations) / max_participations
        participations = [
            participations[int(i * stride)] for i in range(max_participations)
        ]
    return participations


def _find_participations_columnar(
    trace: ColumnarTrace, cols, object_name: str
) -> List[Participation]:
    """Vectorized participation discovery over the trace columns.

    Store destinations are an object-id mask over the store events;
    consumptions are found by gathering each instruction-kind operand's
    producer and testing *the producers* (one gather) for "load of the
    target object" — no per-event Python dispatch.  The merged result is
    ordered by event id, store destination (operand index ``-1``) before
    consumed operands in operand order.
    """
    target = cols.object_index.get(object_name)
    if target is None:
        return []

    store_ids = np.nonzero(
        (cols.opcode == STORE_CODE) & (cols.object_id == target)
    )[0]

    candidates = np.nonzero(
        (cols.kinds == INSTRUCTION_KIND_CODE) & (cols.producers >= 0)
    )[0]
    producer_ids = cols.producers[candidates]
    hits = (cols.opcode[producer_ids] == LOAD_CODE) & (
        cols.object_id[producer_ids] == target
    )
    flat = candidates[hits]
    owners = cols.owner[flat]
    not_load = cols.opcode[owners] != LOAD_CODE
    flat = flat[not_load]
    owners = owners[not_load]
    operand_indices = flat - cols.offsets[owners]
    load_ids = cols.producers[flat]

    event_ids = np.concatenate([store_ids, owners])
    opidx = np.concatenate(
        [np.full(len(store_ids), -1, dtype=np.int64), operand_indices]
    )
    loads = np.concatenate([np.full(len(store_ids), -1, dtype=np.int64), load_ids])
    elements = np.concatenate([cols.element[store_ids], cols.element[load_ids]])
    order = np.lexsort((opidx, event_ids))

    uid_of = trace.static_uid_of
    type_of = trace.operand_type
    out: List[Participation] = []
    for event_id, operand_index, load_id, element in zip(
        event_ids[order].tolist(),
        opidx[order].tolist(),
        loads[order].tolist(),
        elements[order].tolist(),
    ):
        if operand_index < 0:
            out.append(
                Participation(
                    event_id=event_id,
                    role=ParticipationRole.STORE_DEST,
                    operand_index=-1,
                    element_index=element,
                    load_event_id=-1,
                    value_type=type_of(event_id, 0),
                    static_uid=uid_of(event_id),
                )
            )
        else:
            out.append(
                Participation(
                    event_id=event_id,
                    role=ParticipationRole.CONSUMED,
                    operand_index=operand_index,
                    element_index=element,
                    load_event_id=load_id,
                    value_type=type_of(event_id, operand_index),
                    static_uid=uid_of(event_id),
                )
            )
    return out


def is_read_modify_write(
    trace: TraceLike, store_event: TraceEvent, max_depth: int = 32
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


def participation_counts_by_role(
    participations: List[Participation],
) -> Dict[ParticipationRole, int]:
    """Histogram of participations by role (used in reports and tests)."""
    counts: Dict[ParticipationRole, int] = {}
    for participation in participations:
        counts[participation.role] = counts.get(participation.role, 0) + 1
    return counts
