"""Fault specifications consumed by the execution engine.

A :class:`FaultSpec` names one bit of one operand occurrence of one dynamic
instruction — exactly the "fault injection site" vocabulary of the paper's
deterministic fault injector (§IV): *dynamic instruction ID, operand ID, bit
location*.  The additional :class:`FaultTarget` values let the exhaustive
validator also strike an instruction's result or the old memory contents a
store is about to overwrite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class FaultTarget(enum.Enum):
    """Where, relative to the chosen dynamic instruction, the bit is flipped."""

    #: Flip a bit in one input operand *before* the instruction executes.
    OPERAND = "operand"
    #: Flip a bit in the instruction's result *after* it executes.
    RESULT = "result"
    #: Flip a bit in the memory word a ``store`` is about to overwrite
    #: (models an error sitting in the data object that the store masks).
    STORE_DEST_OLD = "store_dest_old"


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic single-bit fault.

    Attributes
    ----------
    dynamic_id:
        Index of the dynamic instruction (0-based position in the trace).
    bit:
        Bit position to flip, 0 = least-significant bit.
    target:
        Which value of the instruction is struck.
    operand_index:
        Operand position for :attr:`FaultTarget.OPERAND` faults.
    note:
        Free-form provenance string (which analysis generated the site).
    """

    dynamic_id: int
    bit: int
    target: FaultTarget = FaultTarget.OPERAND
    operand_index: int = 0
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.dynamic_id < 0:
            raise ValueError("dynamic_id must be non-negative")
        if self.bit < 0:
            raise ValueError("bit must be non-negative")
        if self.target is FaultTarget.OPERAND and self.operand_index < 0:
            raise ValueError("operand_index must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the campaign store and JSONL exports."""
        return {
            "dynamic_id": self.dynamic_id,
            "bit": self.bit,
            "target": self.target.value,
            "operand_index": self.operand_index,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dynamic_id=int(payload["dynamic_id"]),
            bit=int(payload["bit"]),
            target=FaultTarget(payload.get("target", FaultTarget.OPERAND.value)),
            operand_index=int(payload.get("operand_index", 0)),
            note=str(payload.get("note", "")),
        )

    def describe(self) -> str:
        """Human-readable one-liner used in logs and reports."""
        where = {
            FaultTarget.OPERAND: f"operand {self.operand_index}",
            FaultTarget.RESULT: "result",
            FaultTarget.STORE_DEST_OLD: "store destination (old value)",
        }[self.target]
        return f"flip bit {self.bit} of {where} at dynamic instruction {self.dynamic_id}"
