"""Pluggable trace sinks for the execution engine.

The engine (:mod:`repro.vm.engine`) streams its dynamic events into a
*sink*.  Two consumers need different fidelity:

* the golden trace the analyses read, the trace cache persists and the
  campaign workers load — :class:`~repro.tracing.columnar.ColumnarTrace`
  stores every field of every event as parallel flat columns and
  reconstructs :class:`~repro.tracing.events.TraceEvent` views on demand;
* fault-injection replays need **nothing**: the :class:`CountingSink` keeps
  per-opcode tallies without ever materialising an event, so injection runs
  execute trace-free.

The contract is :class:`TraceSink`: sinks advertise via ``wants_events``
whether the engine should construct :class:`TraceEvent` objects (calling
``append``) or merely report opcodes (calling ``tick``).  Event-wanting runs
always go through the op loop; the fused superinstruction backend serves
sink-free runs and, through ``tick_block`` when the sink has it, counting
runs.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable

from repro.ir.instructions import Opcode
from repro.tracing.events import TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """What the engine needs from a trace consumer.

    ``wants_events``
        When ``True`` the engine builds a full :class:`TraceEvent` per
        dynamic instruction and calls :meth:`append`; when ``False`` it
        calls :meth:`tick` with just the opcode — the per-step cost of the
        sink drops to one method call and no allocation.  A sink needs only
        the method its ``wants_events`` selects.
    """

    wants_events: bool

    def append(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def tick(self, opcode: Opcode) -> None:  # pragma: no cover - protocol
        ...


class CountingSink:
    """No-op sink: counts events (total and per opcode), stores nothing.

    This is what deterministic fault injection runs with — the execution is
    observable only through its final state, so recording events would be
    pure overhead.
    """

    wants_events = False

    __slots__ = ("total", "by_opcode")

    def __init__(self) -> None:
        self.total = 0
        self.by_opcode: Dict[str, int] = {}

    def tick(self, opcode: Opcode) -> None:
        self.total += 1
        key = opcode.value
        self.by_opcode[key] = self.by_opcode.get(key, 0) + 1

    def tick_block(self, counts: Dict[str, int], total: int) -> None:
        """Bulk-aggregate a whole superinstruction in O(distinct opcodes).

        The MIR fast path pre-computes per-segment opcode tallies at
        lowering time, so counting-sink replays pay one call per executed
        *segment* instead of one per dynamic instruction.
        """
        self.total += total
        by_opcode = self.by_opcode
        for key, count in counts.items():
            by_opcode[key] = by_opcode.get(key, 0) + count

    def append(self, event: TraceEvent) -> None:
        # accept full events too, so the sink composes with any producer
        self.tick(event.opcode)

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CountingSink: {self.total} events>"

