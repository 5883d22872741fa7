"""Local re-evaluation of trace events with substituted operand values.

Both the operation-level masking rules and the error-propagation analysis
answer the question "what would this instruction have produced if operand
*i* held a corrupted value?" *without running the program*.  This module
maps a recorded :class:`~repro.tracing.events.TraceEvent` (the event view
``ColumnarTrace[dynamic_id]`` returns) plus substituted operand values onto
the shared arithmetic in :mod:`repro.vm.semantics`.

Events that cannot be re-evaluated locally (user-function calls, loads and
stores whose *address* operand changed, branches) are reported as such so the
caller can fall back to deterministic fault injection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.ir.instructions import (
    FCmpPredicate,
    ICmpPredicate,
    Opcode,
)
from repro.ir.types import PointerType
from repro.frontend.intrinsics import INTRINSICS
from repro.tracing.events import TraceEvent
from repro.vm import semantics
from repro.vm.errors import ArithmeticFault

Number = Union[int, float]


class ReexecStatus(enum.Enum):
    """How the local re-evaluation of one event went."""

    #: A value-producing instruction was recomputed; ``value`` holds the result.
    VALUE = "value"
    #: The event produces no value to track (e.g. ``ret`` in the entry
    #: function, unconditional ``br``); nothing to do.
    NO_VALUE = "no_value"
    #: Re-evaluation would change control flow or memory addressing; the
    #: analysis cannot continue locally.
    DIVERGED = "diverged"
    #: The instruction would have trapped (integer division by zero).
    TRAPPED = "trapped"
    #: The event cannot be modelled locally (user-function call result).
    OPAQUE = "opaque"


@dataclass
class ReexecResult:
    status: ReexecStatus
    value: Optional[Number] = None
    detail: str = ""


_ICMP_BY_NAME = {p.value: p for p in ICmpPredicate}
_FCMP_BY_NAME = {p.value: p for p in FCmpPredicate}


def reevaluate(event: TraceEvent, values: Sequence[Number]) -> ReexecResult:
    """Re-evaluate ``event`` as if its operands held ``values``.

    ``values`` must have one entry per original operand (pass the recorded
    values for operands that are not perturbed).
    """
    opcode = event.opcode
    try:
        if opcode is Opcode.ICMP:
            predicate = _ICMP_BY_NAME[event.predicate or "eq"]
            result = semantics.eval_icmp(predicate, event.operand_types[0], values)
            return ReexecResult(ReexecStatus.VALUE, result)
        if opcode is Opcode.FCMP:
            predicate = _FCMP_BY_NAME[event.predicate or "oeq"]
            result = semantics.eval_fcmp(predicate, values)
            return ReexecResult(ReexecStatus.VALUE, result)
        if opcode is Opcode.SELECT:
            return ReexecResult(ReexecStatus.VALUE, semantics.eval_select(values))
        if opcode is Opcode.FNEG:
            return ReexecResult(ReexecStatus.VALUE, semantics.eval_fneg(values[0]))
        if opcode is Opcode.GEP:
            pointee = event.operand_types[0]
            assert isinstance(pointee, PointerType)
            result = semantics.eval_gep(pointee.element_size, values)
            return ReexecResult(ReexecStatus.VALUE, result)
        if opcode is Opcode.CALL:
            callee = event.callee or ""
            if callee in INTRINSICS and event.result_type is not None:
                result = semantics.eval_intrinsic(callee, event.result_type, values)
                return ReexecResult(ReexecStatus.VALUE, result)
            return ReexecResult(
                ReexecStatus.OPAQUE, detail=f"call to user function {callee!r}"
            )
        if opcode in (
            Opcode.TRUNC,
            Opcode.ZEXT,
            Opcode.SEXT,
            Opcode.FPTOSI,
            Opcode.SITOFP,
            Opcode.FPTRUNC,
            Opcode.FPEXT,
            Opcode.BITCAST,
        ):
            result = semantics.eval_conversion(
                opcode, event.operand_types[0], event.result_type, values[0]
            )
            return ReexecResult(ReexecStatus.VALUE, result)
        if opcode is Opcode.LOAD:
            # A load's operand is its address; a perturbed address means the
            # access pattern itself changed, which cannot be replayed locally.
            if int(values[0]) != int(event.operand_values[0]):
                return ReexecResult(ReexecStatus.DIVERGED, detail="load address changed")
            return ReexecResult(ReexecStatus.VALUE, event.result_value)
        if opcode is Opcode.STORE:
            if int(values[1]) != int(event.operand_values[1]):
                return ReexecResult(ReexecStatus.DIVERGED, detail="store address changed")
            return ReexecResult(ReexecStatus.NO_VALUE)
        if opcode is Opcode.BR:
            if values and event.operand_values and bool(values[0]) != bool(
                event.operand_values[0]
            ):
                return ReexecResult(
                    ReexecStatus.DIVERGED, detail="branch direction changed"
                )
            return ReexecResult(ReexecStatus.NO_VALUE)
        if opcode in (Opcode.RET, Opcode.ALLOCA, Opcode.PHI):
            return ReexecResult(ReexecStatus.NO_VALUE)
        # generic binary arithmetic
        result = semantics.eval_binary(opcode, event.result_type, values)
        return ReexecResult(ReexecStatus.VALUE, result)
    except ArithmeticFault as exc:
        return ReexecResult(ReexecStatus.TRAPPED, detail=str(exc))


def results_identical(event: TraceEvent, recomputed: Optional[Number]) -> bool:
    """Whether a recomputed result matches the recorded one bit-for-bit.

    NaN is treated as equal to NaN: from the point of view of downstream
    consumers a NaN stays a NaN regardless of payload.
    """
    original = event.result_value
    if original is None or recomputed is None:
        return original is None and recomputed is None
    if isinstance(original, float) or isinstance(recomputed, float):
        of, rf = float(original), float(recomputed)
        if of != of and rf != rf:  # both NaN
            return True
        return of == rf
    return int(original) == int(recomputed)
