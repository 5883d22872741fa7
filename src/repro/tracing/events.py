"""Trace event records.

One :class:`TraceEvent` is emitted per executed IR instruction.  The fields
are chosen to make the three MOARD analyses possible *without re-executing
the program*:

* operation-level analysis needs the opcode, predicate, operand values and
  operand types;
* error-propagation analysis needs producer links (which earlier dynamic
  instruction produced each operand, and which store last wrote the memory a
  load reads) so corrupted values can be chased forward;
* data-semantics association needs the ``(object, element)`` resolution of
  every load/store address.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, Union

from repro.ir.instructions import Opcode

Number = Union[int, float]


class OperandKind(enum.Enum):
    """How an operand value came to be."""

    #: Result of an earlier dynamic instruction (``producer`` is its id).
    INSTRUCTION = "instr"
    #: A literal constant embedded in the IR.
    CONSTANT = "const"
    #: A function argument (pointer base addresses and scalar parameters).
    ARGUMENT = "arg"


class TraceEvent:
    """A single executed instruction.

    Attributes are documented in the module docstring; ``producer`` entries
    are ``-1`` when the operand is a constant or an argument, and
    ``writer_id`` is ``-1`` when a load reads memory never written during the
    traced execution (initial workload data).
    """

    __slots__ = (
        "dynamic_id",
        "opcode",
        "function",
        "block",
        "static_uid",
        "source_line",
        "operand_values",
        "operand_types",
        "operand_producers",
        "operand_kinds",
        "result_value",
        "result_type",
        "predicate",
        "callee",
        "address",
        "object_name",
        "element_index",
        "writer_id",
        "taken_label",
    )

    def __init__(
        self,
        dynamic_id: int,
        opcode: Opcode,
        function: str,
        block: str,
        static_uid: int,
        source_line: Optional[int],
        operand_values: Tuple[Number, ...],
        operand_types: Tuple[object, ...],
        operand_producers: Tuple[int, ...],
        operand_kinds: Tuple[OperandKind, ...],
        result_value: Optional[Number],
        result_type: Optional[object],
        predicate: Optional[str] = None,
        callee: Optional[str] = None,
        address: Optional[int] = None,
        object_name: Optional[str] = None,
        element_index: Optional[int] = None,
        writer_id: int = -1,
        taken_label: Optional[str] = None,
    ) -> None:
        self.dynamic_id = dynamic_id
        self.opcode = opcode
        self.function = function
        self.block = block
        self.static_uid = static_uid
        self.source_line = source_line
        self.operand_values = operand_values
        self.operand_types = operand_types
        self.operand_producers = operand_producers
        self.operand_kinds = operand_kinds
        self.result_value = result_value
        self.result_type = result_type
        self.predicate = predicate
        self.callee = callee
        self.address = address
        self.object_name = object_name
        self.element_index = element_index
        self.writer_id = writer_id
        self.taken_label = taken_label

    # ------------------------------------------------------------------ #
    # classification helpers used throughout the analyses
    # ------------------------------------------------------------------ #
    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BR

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def touches(self) -> Optional[Tuple[str, int]]:
        """``(object name, element index)`` for memory accesses, else ``None``."""
        if self.object_name is None or self.element_index is None:
            return None
        return (self.object_name, self.element_index)

    def operand_count(self) -> int:
        return len(self.operand_values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.object_name is not None:
            extra = f" -> {self.object_name}[{self.element_index}]"
        return (
            f"<TraceEvent #{self.dynamic_id} {self.opcode.value} "
            f"in {self.function}{extra}>"
        )
