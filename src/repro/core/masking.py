"""Operation-level error-masking analysis (§III-C).

Given one participation of the target data object in one dynamic operation
and one error pattern, decide — from operation semantics and the recorded
runtime values alone — whether the error would be masked, and if so under
which of the paper's three operation-level categories:

1. **Value overwriting** — stores over the erroneous element, truncations
   and shifts that throw the corrupted bits away.
2. **Logical and comparison operations** — the corrupted operand does not
   change the result of the logic/compare/select operation.
3. **Value overshadowing** — the corrupted operand of an addition or
   subtraction is dominated by the other operand, so the result is
   (numerically or practically) unchanged.

When the operation-level evidence is insufficient the verdict marks the
participation for error-propagation analysis and/or deterministic fault
injection, mirroring the decision procedure in Fig. 3 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.ir.instructions import (
    ADDITIVE_OPCODES,
    BITWISE_OPCODES,
    COMPARISON_OPCODES,
    Opcode,
    SHIFT_OPCODES,
)
from repro.core.participation import (
    Participation,
    ParticipationRole,
    is_read_modify_write,
)
from repro.core.patterns import ErrorPattern
from repro.core.reexec import ReexecStatus, reevaluate, results_identical
from repro.core.reports import MaskingCategory, MaskingLevel
from repro.tracing.cursor import TraceLike
from repro.tracing.events import TraceEvent


@dataclass
class MaskingVerdict:
    """Outcome of the operation-level analysis for one (participation, pattern).

    ``masked`` is ``True``/``False`` when the operation-level evidence is
    conclusive and ``None`` when further analysis is needed;
    ``needs_propagation``/``needs_injection`` say which follow-up applies.
    """

    masked: Optional[bool]
    category: Optional[MaskingCategory] = None
    level: Optional[MaskingLevel] = None
    needs_propagation: bool = False
    needs_injection: bool = False
    overshadow_candidate: bool = False
    #: Relative deviation of the recomputed result (additive ops only).
    relative_deviation: Optional[float] = None
    #: Recomputed (corrupted) result, used to seed propagation analysis.
    corrupted_result: Optional[float] = None
    detail: str = ""

    @property
    def resolved(self) -> bool:
        return self.masked is not None and not (
            self.needs_propagation or self.needs_injection
        )


def _relative_deviation(original: float, corrupted: float) -> float:
    if math.isnan(corrupted) or math.isinf(corrupted):
        return math.inf
    if original == 0.0:
        return abs(corrupted)
    return abs(corrupted - original) / max(abs(original), 1e-300)


class OperationMaskingAnalyzer:
    """Implements the §III-C operation-level rules over a dynamic trace."""

    def __init__(self, trace: TraceLike, overshadow_threshold: float = 1e-10) -> None:
        self.trace = trace
        #: Relative deviation below which an additive result is considered a
        #: value-overshadowing candidate (confirmed by injection when enabled).
        self.overshadow_threshold = overshadow_threshold

    # ------------------------------------------------------------------ #
    def analyze(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        event: Optional[TraceEvent] = None,
    ) -> MaskingVerdict:
        """Operation-level verdict for one participation under one pattern.

        ``event`` may carry the pre-materialised trace event of the
        participation (columnar consumers cache these); when omitted it is
        fetched from the trace.
        """
        if participation.role is ParticipationRole.STORE_DEST:
            return self._analyze_store_destination(participation, event=event)
        return self._analyze_consumption(participation, pattern, event=event)

    # ------------------------------------------------------------------ #
    # store destinations: value overwriting
    # ------------------------------------------------------------------ #
    def _analyze_store_destination(
        self,
        participation: Participation,
        event: Optional[TraceEvent] = None,
        rmw: Optional[bool] = None,
    ) -> MaskingVerdict:
        if rmw is None:
            if event is None:
                event = self.trace[participation.event_id]
            rmw = is_read_modify_write(self.trace, event)
        if rmw:
            # The value written back incorporates the (erroneous) old value;
            # the store does not overwrite the error.  The error's effect is
            # accounted for at the consuming operation, so this participation
            # is conclusively unmasked (paper's Statement B).
            return MaskingVerdict(
                masked=False,
                detail="store is a read-modify-write of the same element",
            )
        return MaskingVerdict(
            masked=True,
            category=MaskingCategory.OVERWRITE,
            level=MaskingLevel.OPERATION,
            detail="store overwrites the erroneous element",
        )

    # ------------------------------------------------------------------ #
    # consumed values
    # ------------------------------------------------------------------ #
    def _analyze_consumption(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        event: Optional[TraceEvent] = None,
    ) -> MaskingVerdict:
        if event is None:
            event = self.trace[participation.event_id]
        index = participation.operand_index
        opcode = event.opcode
        original_value = event.operand_values[index]
        value_type = event.operand_types[index]
        corrupted_value = pattern.apply(original_value, value_type)

        # A corrupted value that the operation writes straight to memory:
        # nothing is masked here, the error moves into memory.
        if opcode is Opcode.STORE and index == 0:
            return MaskingVerdict(
                masked=None,
                needs_propagation=True,
                corrupted_result=corrupted_value,
                detail="corrupted value stored to memory",
            )
        # Corrupted address operands (store pointer, load pointer) and
        # corrupted branch conditions change addressing / control flow.
        if opcode is Opcode.STORE and index == 1:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="store address corrupted"
            )
        if opcode is Opcode.LOAD:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="load address corrupted"
            )
        if opcode is Opcode.BR:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="branch condition corrupted"
            )
        if opcode is Opcode.RET:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="return value corrupted"
            )

        values = list(event.operand_values)
        values[index] = corrupted_value
        reexec = reevaluate(event, values)

        if reexec.status is ReexecStatus.OPAQUE:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail=reexec.detail
            )
        if reexec.status is ReexecStatus.TRAPPED:
            return MaskingVerdict(masked=False, detail=reexec.detail)
        if reexec.status is ReexecStatus.DIVERGED:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail=reexec.detail
            )
        if reexec.status is ReexecStatus.NO_VALUE:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="unmodelled operation"
            )

        recomputed = reexec.value
        identical = results_identical(event, recomputed)
        category = self._category_for(opcode, index)

        if identical:
            return MaskingVerdict(
                masked=True,
                category=category,
                level=MaskingLevel.OPERATION,
                detail=f"{opcode.value} result unchanged by the corrupted operand",
            )

        # Not masked here.  For additive floating-point operations a small
        # relative deviation is a value-overshadowing candidate: whether the
        # outcome stays acceptable is decided downstream (propagation and, if
        # needed, deterministic injection), but the masking is attributed to
        # overshadowing because it is what shrinks the error (paper §III-C).
        verdict = MaskingVerdict(
            masked=None,
            needs_propagation=True,
            corrupted_result=recomputed,
            detail=f"{opcode.value} result changed; propagate",
        )
        if opcode in ADDITIVE_OPCODES and event.result_type is not None and (
            event.result_type.is_float
        ):
            deviation = _relative_deviation(float(event.result_value), float(recomputed))
            verdict.relative_deviation = deviation
            if deviation <= self.overshadow_threshold:
                verdict.overshadow_candidate = True
                verdict.detail = (
                    f"{opcode.value} deviation {deviation:.2e} below overshadow "
                    f"threshold"
                )
        return verdict

    # ------------------------------------------------------------------ #
    @staticmethod
    def _category_for(opcode: Opcode, operand_index: int) -> MaskingCategory:
        """Operation-level category when the recomputed result is unchanged."""
        if opcode in (Opcode.TRUNC, Opcode.FPTRUNC) or opcode in SHIFT_OPCODES:
            return MaskingCategory.OVERWRITE
        if (
            opcode in COMPARISON_OPCODES
            or opcode in BITWISE_OPCODES
            or opcode is Opcode.SELECT
        ):
            return MaskingCategory.LOGIC_COMPARE
        # additive, multiplicative, conversion and intrinsic absorption are
        # magnitude effects: value overshadowing.
        return MaskingCategory.OVERSHADOW
