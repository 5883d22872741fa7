"""Bounded error-propagation analysis (§III-D).

When an error is not masked by the operation that consumes it, MOARD chases
the corrupted value forward through the dynamic trace for at most *k*
operations, re-evaluating each successor with the corrupted inputs and
checking whether every secondary error is eventually masked at the
operation level (overwritten, absorbed, or dropped by logic/compare
operations).  If all corruption disappears within the window the original
error is *masked by error propagation*; if corruption survives (or control
flow / memory addressing would change, which cannot be replayed locally) the
verdict is left to the algorithm-level analysis (deterministic injection).

Only a few events of a window read anything corrupted, so the chase follows
def-use edges instead of stepping through the window.  Two forward indices,
built once per trace, name the events that can change the corruption state:

* *readers* — for every producing event, the ascending ids of the events
  that take its result as an operand;
* *accesses* — for every address, the ascending ids of the loads and stores
  that touch it.

A value that becomes corrupted queues its readers, a memory cell that
becomes corrupted queues its later accesses, and the chase pops the queued
events in trace order.  Every other event of the window leaves the state
alone except through deaths: a corrupted value is dead after its last use,
a corrupted cell after its last load (never, for a cell of an output object
or an address no event resolves).  The step at which all corruption is dead
is therefore computed rather than stepped to, and ``steps_analyzed`` counts
the events a full window scan would have visited up to that point.

The bound *k* is justified empirically in the paper (87 % of unmasked
injections are decided within 10 operations, 100 % within 50); the
``benchmarks/bench_kbound.py`` harness reproduces that observation on our
workloads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

import numpy as np

from repro.ir.instructions import Opcode
from repro.core.reports import MaskingCategory
from repro.core.participation import Participation, ParticipationRole
from repro.core.patterns import ErrorPattern
from repro.core.reexec import ReexecStatus, reevaluate, results_identical
from repro.tracing.columnar import LOAD_CODE, STORE_CODE, ColumnarTrace

#: Death step of corruption that is never dropped.
_NEVER = float("inf")


@dataclass
class PropagationResult:
    """Outcome of chasing one error forward through the trace."""

    #: ``True``: every corrupted value/memory cell was masked inside the
    #: window.  ``False``: corruption survived the window (or the trace
    #: ended with corrupted output state).  ``None``: the analysis had to
    #: stop (control-flow or addressing divergence, opaque call).
    masked: Optional[bool]
    #: Dominant category of the operations that absorbed the corruption.
    category: Optional[MaskingCategory]
    steps_analyzed: int
    corrupted_values_remaining: int
    corrupted_memory_remaining: int
    diverged: bool = False
    reason: str = ""
    #: Data objects whose memory was (transiently) contaminated.
    contaminated_objects: Set[str] = field(default_factory=set)


class PropagationAnalyzer:
    """Forward error propagation over a recorded trace, along def-use edges.

    The readers and accesses indices, the last load of every address and
    the address-to-object map are built once, from the integer columns of
    the :class:`~repro.tracing.columnar.ColumnarTrace`.  :meth:`analyze`
    materialises only the events it pops from its candidate heap.

    ``visits`` (candidate events processed) and ``steps`` (the sum of
    ``steps_analyzed``) accumulate across calls; the caller reads and
    resets them.
    """

    def __init__(
        self,
        trace: ColumnarTrace,
        k: int = 50,
        output_objects: Optional[Set[str]] = None,
    ) -> None:
        self.trace = trace
        self.k = k
        #: Objects whose final contents constitute the application outcome;
        #: corruption left in them is never "dead".
        self.output_objects = output_objects or set()
        self.visits = 0
        self.steps = 0
        #: Readers of event ``v`` are ``_readers[_reader_start[v]:_reader_start[v + 1]]``
        #: (CSR in packed int64 arrays, a quarter the size of int lists).
        self._reader_start = array("q")
        self._readers = array("q")
        self._accesses: Dict[int, List[int]] = {}
        self._last_load_of_address: Dict[int, int] = {}
        self._address_object: Dict[int, Optional[str]] = {}
        self._index_trace()

    def _index_trace(self) -> None:
        cols = self.trace.columns()
        # Flat operand order is event order, so a stable sort by producer
        # keeps each producer's readers ascending.
        used = np.nonzero(cols.producers >= 0)[0]
        producers = cols.producers[used]
        order = np.argsort(producers, kind="stable")
        self._reader_start = array("q", np.searchsorted(
            producers[order], np.arange(len(self.trace) + 1)
        ).astype(np.int64).tobytes())
        self._readers = array("q", cols.owner[used][order].tobytes())

        memory = np.nonzero(
            ((cols.opcode == LOAD_CODE) | (cols.opcode == STORE_CODE))
            & (cols.address >= 0)
        )[0]
        addresses = cols.address[memory]
        order = np.argsort(addresses, kind="stable")
        ids = memory[order].tolist()
        keys, starts = np.unique(addresses[order], return_index=True)
        bounds = starts.tolist() + [len(ids)]
        self._accesses = {
            address: ids[lo:hi]
            for address, lo, hi in zip(keys.tolist(), bounds, bounds[1:])
        }
        loads = memory[cols.opcode[memory] == LOAD_CODE]
        self._last_load_of_address = dict(
            zip(cols.address[loads].tolist(), loads.tolist())
        )
        touched = np.nonzero(cols.address >= 0)[0]
        names = {i: name for name, i in cols.object_index.items()}
        self._address_object = {
            address: names.get(oid)
            for address, oid in zip(
                cols.address[touched].tolist(), cols.object_id[touched].tolist()
            )
        }

    # ------------------------------------------------------------------ #
    def analyze(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        corrupted_result: Optional[float] = None,
    ) -> PropagationResult:
        """Chase the error of ``pattern`` at ``participation`` forward.

        ``corrupted_result`` is the recomputed result of the consuming
        operation (from the operation-level analysis); when the participation
        is a store of a corrupted value the corrupted memory cell is seeded
        instead.
        """
        start_event = self.trace[participation.event_id]
        corrupted_values: Dict[int, float] = {}
        corrupted_memory: Dict[int, float] = {}
        category_votes: Dict[MaskingCategory, int] = {}
        contaminated: Set[str] = set()

        if participation.role is ParticipationRole.STORE_DEST:
            # An error in the destination that the store overwrites never
            # propagates; this analyzer is only called for unresolved cases.
            return PropagationResult(
                masked=None,
                category=None,
                steps_analyzed=0,
                corrupted_values_remaining=0,
                corrupted_memory_remaining=0,
                reason="store destination participations are resolved at the operation level",
            )

        position = start_event.dynamic_id
        end = min(len(self.trace), position + 1 + self.k)
        candidates: List[int] = []
        if start_event.is_store:
            # corrupted value written to memory
            address = start_event.address
            corrupted_memory[address] = pattern.apply(
                start_event.operand_values[0], start_event.operand_types[0]
            ) if corrupted_result is None else corrupted_result
            if start_event.object_name is not None:
                contaminated.add(start_event.object_name)
            self._push_accesses(candidates, address, position, end)
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
            corrupted_values[position] = corrupted_result
            self._push_readers(candidates, position, end)

        last = position
        while candidates:
            event_id = heappop(candidates)
            if event_id <= last:
                continue  # queued twice
            # the state a window scan would hold on reaching this event
            latest = self._drop_dead(corrupted_values, corrupted_memory, event_id)
            if not corrupted_values and not corrupted_memory:
                break  # everything died at or before this candidate
            last = event_id
            self.visits += 1
            steps = event_id - position
            event = self.trace[event_id]

            if event.is_load:
                # a corrupted address operand means the access pattern itself
                # changed, which cannot be replayed against recorded state
                if event.operand_producers[0] in corrupted_values:
                    return self._diverged(
                        "corrupted load address", steps, corrupted_values,
                        corrupted_memory, category_votes, contaminated,
                    )
                if event.address in corrupted_memory:
                    corrupted_values[event_id] = corrupted_memory[event.address]
                    self._push_readers(candidates, event_id, end)
                continue

            substituted = self._substitute(event, corrupted_values)
            if event.is_store:
                address = event.address
                if substituted is not None and int(
                    substituted[1]
                ) != int(event.operand_values[1]):
                    return self._diverged(
                        "corrupted store address", steps, corrupted_values,
                        corrupted_memory, category_votes, contaminated,
                    )
                if substituted is not None and (
                    event.operand_producers[0] in corrupted_values
                ):
                    # a cell already corrupted has its accesses queued
                    if address not in corrupted_memory:
                        self._push_accesses(candidates, address, event_id, end)
                    corrupted_memory[address] = substituted[0]
                    if event.object_name is not None:
                        contaminated.add(event.object_name)
                elif address in corrupted_memory:
                    # overwritten with a clean value while still live
                    del corrupted_memory[address]
                    category_votes[MaskingCategory.OVERWRITE] = (
                        category_votes.get(MaskingCategory.OVERWRITE, 0) + 1
                    )
                continue

            if substituted is None:
                continue

            reexec = reevaluate(event, substituted)
            if reexec.status is ReexecStatus.DIVERGED:
                return self._diverged(
                    reexec.detail or "control/addressing divergence", steps,
                    corrupted_values, corrupted_memory, category_votes, contaminated,
                )
            if reexec.status is ReexecStatus.OPAQUE:
                return self._diverged(
                    reexec.detail or "opaque call", steps, corrupted_values,
                    corrupted_memory, category_votes, contaminated,
                )
            if reexec.status is ReexecStatus.TRAPPED:
                self.steps += steps
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
                category = self._absorption_category(event.opcode)
                category_votes[category] = category_votes.get(category, 0) + 1
            else:
                corrupted_values[event_id] = reexec.value
                self._push_readers(candidates, event_id, end)
        else:
            # no candidate left in the window: drop what is dead at its end
            latest = self._drop_dead(corrupted_values, corrupted_memory, end)
        # A window scan stops at the first event where all corruption is
        # dead, or runs to the window's last event.
        steps = min(max(latest, last + 1), end - 1) - position
        self.steps += steps
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

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _push_readers(self, candidates: List[int], value_id: int, end: int) -> None:
        """Queue the readers of ``value_id`` that lie before ``end``."""
        readers = self._readers
        lo = self._reader_start[value_id]
        hi = bisect_left(readers, end, lo, self._reader_start[value_id + 1])
        for reader in readers[lo:hi]:
            heappush(candidates, reader)

    def _push_accesses(
        self, candidates: List[int], address: int, after: int, end: int
    ) -> None:
        """Queue the loads and stores of ``address`` in ``(after, end)``."""
        ids = self._accesses.get(address, ())
        lo = bisect_right(ids, after)
        for access in ids[lo:bisect_left(ids, end, lo)]:
            heappush(candidates, access)

    def _drop_dead(
        self,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
        position: int,
    ) -> float:
        """Remove corruption that can no longer influence the outcome at
        ``position``; return the step at which all of it (dropped or not)
        is dead.

        A value is dead after its last use; a cell after its last load,
        unless it belongs to an output object or no event resolves its
        address.
        """
        latest = 0
        start = self._reader_start
        readers = self._readers
        dead = []
        for value_id in corrupted_values:
            hi = start[value_id + 1]
            death = readers[hi - 1] + 1 if hi > start[value_id] else 0
            if death <= position:
                dead.append(value_id)
            if death > latest:
                latest = death
        for value_id in dead:
            del corrupted_values[value_id]
        if corrupted_memory:
            dead = []
            for address in corrupted_memory:
                if (
                    address not in self._address_object
                    or self._address_object[address] in self.output_objects
                ):
                    latest = _NEVER
                    continue
                death = self._last_load_of_address.get(address, -1) + 1
                if death <= position:
                    dead.append(address)
                if death > latest:
                    latest = death
            for address in dead:
                del corrupted_memory[address]
        return latest

    @staticmethod
    def _substitute(event, corrupted_values: Dict[int, float]):
        """Operand values of ``event`` with corrupted producers substituted,
        or ``None`` when it reads nothing corrupted."""
        values = None
        for i, producer in enumerate(event.operand_producers):
            if producer in corrupted_values:
                if values is None:
                    values = list(event.operand_values)
                values[i] = corrupted_values[producer]
        return values

    @staticmethod
    def _absorption_category(opcode: Opcode) -> MaskingCategory:
        from repro.ir.instructions import (
            BITWISE_OPCODES,
            COMPARISON_OPCODES,
            SHIFT_OPCODES,
        )

        if opcode in (Opcode.TRUNC, Opcode.FPTRUNC) or opcode in SHIFT_OPCODES:
            return MaskingCategory.OVERWRITE
        if opcode in COMPARISON_OPCODES or opcode in BITWISE_OPCODES or opcode is Opcode.SELECT:
            return MaskingCategory.LOGIC_COMPARE
        return MaskingCategory.OVERSHADOW

    def _diverged(
        self,
        reason: str,
        steps: int,
        corrupted_values: Dict[int, float],
        corrupted_memory: Dict[int, float],
        category_votes: Dict[MaskingCategory, int],
        contaminated: Set[str],
    ) -> PropagationResult:
        self.steps += steps
        return PropagationResult(
            masked=None,
            category=max(category_votes, key=category_votes.get) if category_votes else None,
            steps_analyzed=steps,
            corrupted_values_remaining=len(corrupted_values),
            corrupted_memory_remaining=len(corrupted_memory),
            diverged=True,
            reason=reason,
            contaminated_objects=contaminated,
        )
