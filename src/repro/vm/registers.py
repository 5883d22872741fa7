"""Physical-register allocation simulation over a dynamic trace.

MOARD associates data semantics with *register* contents: "MOARD tracks the
register allocation when analyzing the trace, such that we can know at any
moment which registers have the data of the target data object" (§IV).  The
VM already gives the analyses value-level provenance, but this module keeps
the register-file view for fidelity: it replays a trace against a bounded
register file with least-recently-used spilling and reports, per dynamic
instruction, which physical registers currently hold values loaded from a
given data object.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.tracing.columnar import ColumnarTrace


@dataclass
class RegisterFile:
    """A fixed pool of physical registers with LRU replacement."""

    num_registers: int = 16
    #: register index -> dynamic id of the value currently held (or None)
    contents: List[Optional[int]] = field(default_factory=list)
    spills: int = 0

    def __post_init__(self) -> None:
        if self.num_registers <= 0:
            raise ValueError("register file needs at least one register")
        if not self.contents:
            self.contents = [None] * self.num_registers
        self._lru: "OrderedDict[int, None]" = OrderedDict(
            (i, None) for i in range(self.num_registers)
        )

    def _touch(self, register: int) -> None:
        self._lru.move_to_end(register)

    def assign(self, value_id: int) -> int:
        """Place ``value_id`` into a register, spilling the LRU one if full."""
        for register, held in enumerate(self.contents):
            if held is None:
                self.contents[register] = value_id
                self._touch(register)
                return register
        register = next(iter(self._lru))
        if self.contents[register] is not None:
            self.spills += 1
        self.contents[register] = value_id
        self._touch(register)
        return register

    def locate(self, value_id: int) -> Optional[int]:
        for register, held in enumerate(self.contents):
            if held == value_id:
                self._touch(register)
                return register
        return None


@dataclass
class RegisterAllocation:
    """Result of replaying a trace through :class:`RegisterFile`.

    Attributes
    ----------
    assignment:
        dynamic id -> register index holding that instruction's result.
    object_residency:
        dynamic id -> set of registers holding (unmodified) values of the
        target data object at that point in the execution.
    spills:
        Number of LRU evictions of still-referenced values.
    """

    num_registers: int
    assignment: Dict[int, int]
    object_residency: Dict[int, Set[int]]
    spills: int

    def registers_holding_object_at(self, dynamic_id: int) -> Set[int]:
        """Registers holding values of the tracked object just after ``dynamic_id``."""
        return self.object_residency.get(dynamic_id, set())

    def max_residency(self) -> int:
        """Peak number of registers simultaneously holding object values."""
        if not self.object_residency:
            return 0
        return max(len(s) for s in self.object_residency.values())


def allocate_registers(
    trace: ColumnarTrace,
    object_name: Optional[str] = None,
    num_registers: int = 16,
) -> RegisterAllocation:
    """Replay ``trace`` through a simulated register file.

    Every instruction result is assigned a register (reusing a free one or
    spilling the least recently used).  When ``object_name`` is given, the
    returned allocation also records which registers held values loaded from
    that object after each dynamic instruction — the register-level view of
    data semantics the paper describes.
    """
    register_file = RegisterFile(num_registers=num_registers)
    assignment: Dict[int, int] = {}
    residency: Dict[int, Set[int]] = {}
    #: register -> dynamic id of the load event whose value it holds (if that
    #: value came straight from the tracked object)
    object_values_in_registers: Dict[int, int] = {}

    for event in trace:
        if event.result_value is not None or event.is_load:
            register = register_file.assign(event.dynamic_id)
            assignment[event.dynamic_id] = register
            # a register that gets a new value no longer holds the old one
            object_values_in_registers.pop(register, None)
            if (
                object_name is not None
                and event.is_load
                and event.object_name == object_name
            ):
                object_values_in_registers[register] = event.dynamic_id
        if object_name is not None:
            residency[event.dynamic_id] = set(object_values_in_registers)

    return RegisterAllocation(
        num_registers=num_registers,
        assignment=assignment,
        object_residency=residency,
        spills=register_file.spills,
    )
