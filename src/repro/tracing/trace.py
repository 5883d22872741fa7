"""The in-memory dynamic trace and its query helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ir.instructions import Opcode
from repro.tracing.events import OperandKind, TraceEvent


@dataclass
class TraceSummary:
    """Aggregate statistics over a trace (for reports and sanity checks)."""

    total_events: int
    by_opcode: Dict[str, int]
    loads: int
    stores: int
    objects_touched: Dict[str, int]
    functions: Dict[str, int]


class Trace:
    """An ordered sequence of :class:`TraceEvent` with lookup indices.

    Events are appended by the VM in execution order; ``dynamic_id`` equals
    the position in the list, which the analyses rely on for O(1) producer
    lookups.  ``Trace`` is the full-fidelity implementation of the
    :class:`~repro.tracing.sinks.TraceSink` protocol — see that module for
    the compact and counting alternatives.
    """

    #: Sink-protocol flag: this sink stores complete events.
    wants_events = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        #: name -> list of dynamic ids of events touching the object's memory
        self._touch_index: Dict[str, List[int]] = {}

    def tick(self, opcode: Opcode) -> None:  # pragma: no cover - protocol
        raise TypeError("Trace stores full events; use append()")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def append(self, event: TraceEvent) -> None:
        if event.dynamic_id != len(self._events):
            raise ValueError(
                f"trace events must be appended in order: expected id "
                f"{len(self._events)}, got {event.dynamic_id}"
            )
        self._events.append(event)
        if event.object_name is not None:
            self._touch_index.setdefault(event.object_name, []).append(event.dynamic_id)

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, dynamic_id: int) -> TraceEvent:
        return self._events[dynamic_id]

    # ------------------------------------------------------------------ #
    # queries used by the MOARD analyses
    # ------------------------------------------------------------------ #
    def memory_events_for(self, object_name: str) -> List[TraceEvent]:
        """All loads/stores whose address resolves into ``object_name``."""
        return [self._events[i] for i in self._touch_index.get(object_name, [])]

    def loads_for(self, object_name: str) -> List[TraceEvent]:
        return [e for e in self.memory_events_for(object_name) if e.is_load]

    def stores_for(self, object_name: str) -> List[TraceEvent]:
        return [e for e in self.memory_events_for(object_name) if e.is_store]

    def consumers_of(self, dynamic_id: int, window: Optional[int] = None) -> List[TraceEvent]:
        """Events that use the result of ``dynamic_id`` as an operand.

        ``window`` bounds how far forward to look (number of subsequent
        events); ``None`` scans to the end of the trace.
        """
        end = len(self._events) if window is None else min(
            len(self._events), dynamic_id + 1 + window
        )
        out: List[TraceEvent] = []
        for event in self._events[dynamic_id + 1 : end]:
            if dynamic_id in event.operand_producers:
                out.append(event)
        return out

    def producer_event(self, event: TraceEvent, operand_index: int) -> Optional[TraceEvent]:
        """The event that produced operand ``operand_index``, if any."""
        producer = event.operand_producers[operand_index]
        if producer < 0:
            return None
        return self._events[producer]

    def operand_is_direct_load_of(
        self, event: TraceEvent, operand_index: int, object_name: str
    ) -> Optional[Tuple[int, int]]:
        """If the operand is the unmodified result of a load from the object.

        Returns ``(element index, load dynamic id)`` when operand
        ``operand_index`` of ``event`` is directly the value loaded from
        ``object_name`` (no intervening arithmetic), else ``None``.  This is
        the trace-level notion of "an operation consumes an element of the
        target data object" used by the aDVF engine.
        """
        if event.operand_kinds[operand_index] is not OperandKind.INSTRUCTION:
            return None
        producer = self.producer_event(event, operand_index)
        if producer is None or not producer.is_load:
            return None
        if producer.object_name != object_name:
            return None
        return (producer.element_index, producer.dynamic_id)  # type: ignore[return-value]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """Events satisfying ``predicate`` (keeps order)."""
        return [e for e in self._events if predicate(e)]

    def slice(self, start: int, count: int) -> List[TraceEvent]:
        """``count`` events starting at dynamic id ``start``."""
        return self._events[start : start + count]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def summary(self) -> TraceSummary:
        by_opcode: Dict[str, int] = {}
        objects: Dict[str, int] = {}
        functions: Dict[str, int] = {}
        loads = stores = 0
        for event in self._events:
            by_opcode[event.opcode.value] = by_opcode.get(event.opcode.value, 0) + 1
            functions[event.function] = functions.get(event.function, 0) + 1
            if event.is_load:
                loads += 1
            elif event.is_store:
                stores += 1
            if event.object_name is not None:
                objects[event.object_name] = objects.get(event.object_name, 0) + 1
        return TraceSummary(
            total_events=len(self._events),
            by_opcode=by_opcode,
            loads=loads,
            stores=stores,
            objects_touched=objects,
            functions=functions,
        )

    def opcode_histogram(self) -> Dict[str, int]:
        return self.summary().by_opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace: {len(self._events)} events>"
