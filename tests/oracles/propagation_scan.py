"""Window-scan reference for :class:`repro.core.propagation.PropagationAnalyzer`.

The production analyzer chases corruption along def-use edges and visits
only the events that can change the corruption state.  This oracle is the
direct reading of §III-D it replaced: step through *every* event of the
k-window, drop the corruption that can no longer be read before each one,
and stop at the first event where nothing corrupted is left.  Its indices
come from one plain per-event pass, independent of the production builders.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.masking import MaskingCategory, category_for
from repro.core.participation import Participation, ParticipationRole
from repro.core.patterns import ErrorPattern
from repro.core.propagation import PropagationResult
from repro.core.reexec import ReexecStatus, reevaluate, results_identical
from repro.tracing.columnar import ColumnarTrace


class ScanPropagationAnalyzer:
    """Forward error propagation by scanning the whole k-window."""

    def __init__(
        self,
        trace: ColumnarTrace,
        k: int = 50,
        output_objects: Optional[Set[str]] = None,
    ) -> None:
        self.trace = trace
        self.k = k
        self.output_objects = output_objects or set()
        self._last_use: Dict[int, int] = {}
        self._last_load_of_address: Dict[int, int] = {}
        self._address_object: Dict[int, Optional[str]] = {}
        for event in trace:
            for producer in event.operand_producers:
                if producer >= 0:
                    self._last_use[producer] = event.dynamic_id
            if event.address is not None:
                self._address_object[event.address] = event.object_name
                if event.is_load:
                    self._last_load_of_address[event.address] = event.dynamic_id

    def analyze(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        corrupted_result: Optional[float] = None,
    ) -> PropagationResult:
        start_event = self.trace[participation.event_id]
        corrupted_values: Dict[int, float] = {}
        corrupted_memory: Dict[int, float] = {}
        category_votes: Dict[MaskingCategory, int] = {}
        contaminated: Set[str] = set()

        if participation.role is ParticipationRole.STORE_DEST:
            return PropagationResult(
                masked=None,
                category=None,
                steps_analyzed=0,
                corrupted_values_remaining=0,
                corrupted_memory_remaining=0,
                reason="store destination participations are resolved at the operation level",
            )

        if start_event.is_store:
            corrupted_memory[start_event.address] = pattern.apply(
                start_event.operand_values[0], start_event.operand_types[0]
            ) if corrupted_result is None else corrupted_result
            if start_event.object_name is not None:
                contaminated.add(start_event.object_name)
        else:
            if corrupted_result is None:
                values = list(start_event.operand_values)
                values[participation.operand_index] = pattern.apply(
                    values[participation.operand_index],
                    participation.value_type,
                )
                reexec = reevaluate(start_event, values)
                if reexec.status is not ReexecStatus.VALUE:
                    return PropagationResult(
                        masked=None,
                        category=None,
                        steps_analyzed=0,
                        corrupted_values_remaining=0,
                        corrupted_memory_remaining=0,
                        diverged=True,
                        reason=f"seed re-evaluation: {reexec.status.value}",
                    )
                corrupted_result = reexec.value
            if results_identical(start_event, corrupted_result):
                return PropagationResult(
                    masked=True,
                    category=MaskingCategory.OVERSHADOW,
                    steps_analyzed=0,
                    corrupted_values_remaining=0,
                    corrupted_memory_remaining=0,
                    reason="consuming operation already absorbed the error",
                )
            corrupted_values[start_event.dynamic_id] = corrupted_result

        position = start_event.dynamic_id
        end = min(len(self.trace), position + 1 + self.k)
        steps = 0

        def diverged(reason: str) -> PropagationResult:
            return PropagationResult(
                masked=None,
                category=max(category_votes, key=category_votes.get)
                if category_votes else None,
                steps_analyzed=steps,
                corrupted_values_remaining=len(corrupted_values),
                corrupted_memory_remaining=len(corrupted_memory),
                diverged=True,
                reason=reason,
                contaminated_objects=contaminated,
            )

        for event_id in range(position + 1, end):
            event = self.trace[event_id]
            steps += 1
            self._drop_dead(corrupted_values, corrupted_memory, event.dynamic_id)
            if not corrupted_values and not corrupted_memory:
                break

            involved = False
            substituted = list(event.operand_values)
            for i, producer in enumerate(event.operand_producers):
                if producer in corrupted_values:
                    substituted[i] = corrupted_values[producer]
                    involved = True

            if event.is_load:
                if event.operand_producers[0] in corrupted_values:
                    return diverged("corrupted load address")
                if event.address in corrupted_memory:
                    corrupted_values[event.dynamic_id] = corrupted_memory[event.address]
                continue

            if event.is_store:
                address = event.address
                if involved and int(substituted[1]) != int(event.operand_values[1]):
                    return diverged("corrupted store address")
                if involved and event.operand_producers[0] in corrupted_values:
                    corrupted_memory[address] = substituted[0]
                    if event.object_name is not None:
                        contaminated.add(event.object_name)
                elif address in corrupted_memory:
                    del corrupted_memory[address]
                    category_votes[MaskingCategory.OVERWRITE] = (
                        category_votes.get(MaskingCategory.OVERWRITE, 0) + 1
                    )
                continue

            if not involved:
                continue

            reexec = reevaluate(event, substituted)
            if reexec.status is ReexecStatus.DIVERGED:
                return diverged(reexec.detail or "control/addressing divergence")
            if reexec.status is ReexecStatus.OPAQUE:
                return diverged(reexec.detail or "opaque call")
            if reexec.status is ReexecStatus.TRAPPED:
                return PropagationResult(
                    masked=False,
                    category=None,
                    steps_analyzed=steps,
                    corrupted_values_remaining=len(corrupted_values),
                    corrupted_memory_remaining=len(corrupted_memory),
                    reason=f"secondary error traps: {reexec.detail}",
                    contaminated_objects=contaminated,
                )
            if reexec.status is ReexecStatus.NO_VALUE:
                continue

            if results_identical(event, reexec.value):
                category = category_for(event.opcode)
                category_votes[category] = category_votes.get(category, 0) + 1
            else:
                corrupted_values[event.dynamic_id] = reexec.value

        self._drop_dead(corrupted_values, corrupted_memory, end)
        masked = not corrupted_values and not corrupted_memory
        category = None
        if category_votes:
            category = max(category_votes, key=category_votes.get)
        elif masked:
            category = MaskingCategory.OVERWRITE
        return PropagationResult(
            masked=True if masked else False,
            category=category if masked else None,
            steps_analyzed=steps,
            corrupted_values_remaining=len(corrupted_values),
            corrupted_memory_remaining=len(corrupted_memory),
            reason="all corruption masked within the window"
            if masked
            else "corruption survived the propagation window",
            contaminated_objects=contaminated,
        )

    def _drop_dead(
        self,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
        position: int,
    ) -> None:
        """Remove corruption that can no longer be read at ``position``."""
        for vid in [
            v for v in corrupted_values if self._last_use.get(v, -1) < position
        ]:
            del corrupted_values[vid]
        dead_addresses = []
        for address in corrupted_memory:
            if address not in self._address_object:
                continue
            if self._address_object[address] in self.output_objects:
                continue
            if self._last_load_of_address.get(address, -1) < position:
                dead_addresses.append(address)
        for address in dead_addresses:
            del corrupted_memory[address]
