"""Vectorized analysis passes over a columnar trace (§III-C, accelerated).

A per-site aDVF loop would re-derive the same facts per ``(participation,
error pattern)`` — 64 times per participation for double-precision data:
whether a store destination is a read-modify-write (a producer-chain walk),
which trivial category a consumed operand falls into (address / branch /
return / stored value), and the materialised trace event itself.  All of
these are properties of the *participation*, not the pattern.

:class:`OperationPasses` computes them once per data object, array-at-a-time
over the trace's NumPy columns:

* **value-overwriting pass** — store-destination participations are
  screened with a vectorized depth-1 read-modify-write predicate (is the
  stored value directly the load of the same element?); only the undecided
  remainder falls back to the per-event producer-chain walk, and every
  result is memoised per store event;
* **trivial-consumption pass** — consumed participations are bulk-classified
  by opcode/operand-index arrays into the categories the decision procedure
  resolves without re-execution (corrupted stored value, corrupted
  store/load address, branch condition, return value);
* everything else (logic/compare re-evaluation, overshadowing threshold
  tests) goes through the unchanged
  :class:`~repro.core.masking.OperationMaskingAnalyzer` rules with a cached
  event materialisation — the "undecided remainder" of Fig. 3.

Verdicts are identical, field for field, to
:meth:`~repro.core.masking.OperationMaskingAnalyzer.analyze` — the parity
suite asserts it on every registered workload.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.masking import MaskingVerdict, OperationMaskingAnalyzer
from repro.core.participation import Participation, ParticipationRole
from repro.core.patterns import ErrorPattern
from repro.ir.instructions import Opcode
from repro.tracing.columnar import ColumnarTrace, LOAD_CODE, STORE_CODE

#: Trivial-consumption classes (what the decision procedure does with a
#: corrupted operand before any re-execution is attempted).
GENERIC = 0          #: needs per-pattern re-evaluation (the remainder)
STORED_VALUE = 1     #: store operand 0 — the corrupted value goes to memory
STORE_ADDRESS = 2    #: store operand 1 — addressing changes
LOAD_ADDRESS = 3     #: load operand — addressing changes
BRANCH_CONDITION = 4 #: br operand — control flow changes
RETURN_VALUE = 5     #: ret operand


def _rmw_walk(trace: ColumnarTrace, store_id: int, max_depth: int = 32) -> bool:
    """Column-backed read-modify-write walk.

    Replicates :func:`~repro.core.participation.is_read_modify_write` —
    same stack order, same ``seen`` set, same pop-count bound — over the
    raw columns, so no :class:`TraceEvent` is materialised per visited
    producer.  Results are identical by construction (and asserted by the
    parity suite).
    """
    target_object = trace.object_name_of(store_id)
    target_element = trace.element_index_of(store_id)
    if target_object is None or target_element is None:
        return False
    opcode_of = trace.opcode_of
    producers_of = trace.operand_producers_of
    worklist = [producers_of(store_id)[0]]
    seen = set()
    depth = 0
    while worklist and depth < max_depth:
        depth += 1
        producer_id = worklist.pop()
        if producer_id < 0 or producer_id in seen:
            continue
        seen.add(producer_id)
        if (
            opcode_of(producer_id) is Opcode.LOAD
            and trace.object_name_of(producer_id) == target_object
            and trace.element_index_of(producer_id) == target_element
        ):
            return True
        worklist.extend(producers_of(producer_id))
    return False


class OperationPasses:
    """Compute-once/share-everywhere operation-level passes for one trace.

    One instance serves every data object analysed against the same golden
    trace; per-object preparation (:meth:`prepare`) only touches the
    participations of that object.  ``timings`` accumulates wall-clock
    seconds per pass for reporting.
    """

    def __init__(
        self, trace: ColumnarTrace, masking: OperationMaskingAnalyzer
    ) -> None:
        self.trace = trace
        self.masking = masking
        #: store event id -> is the store a read-modify-write?
        self._rmw: Dict[int, bool] = {}
        #: (event id, operand index) -> trivial-consumption class
        self._consumption: Dict[tuple, int] = {}
        self.timings: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # bulk passes
    # ------------------------------------------------------------------ #
    def prepare(self, participations: Iterable[Participation]) -> None:
        """Run the bulk passes for one object's participation list."""
        start = time.perf_counter()
        stores: List[int] = []
        consumed: List[Participation] = []
        for participation in participations:
            if participation.role is ParticipationRole.STORE_DEST:
                if participation.event_id not in self._rmw:
                    stores.append(participation.event_id)
            elif (participation.event_id, participation.operand_index) not in (
                self._consumption
            ):
                consumed.append(participation)
        self._store_overwrite_pass(stores)
        self._trivial_consumption_pass(consumed)
        self.timings["operation_passes"] = (
            self.timings.get("operation_passes", 0.0)
            + (time.perf_counter() - start)
        )

    def _store_overwrite_pass(self, store_ids: List[int]) -> None:
        """Vectorized depth-1 RMW screen; chain walk for the remainder."""
        if not store_ids:
            return
        cols = self.trace.columns()
        sids = np.asarray(store_ids, dtype=np.int64)
        producer0 = cols.producers[cols.offsets[sids]]
        valid = producer0 >= 0
        resolved = (cols.object_id[sids] >= 0) & (cols.element[sids] >= 0)
        depth1 = np.zeros(len(sids), dtype=bool)
        pv = producer0[valid]
        sv = sids[valid]
        depth1[valid] = (
            (cols.opcode[pv] == LOAD_CODE)
            & (cols.object_id[pv] == cols.object_id[sv])
            & (cols.element[pv] == cols.element[sv])
        )
        depth1 &= resolved
        undecided = []
        for event_id, is_rmw in zip(store_ids, depth1.tolist()):
            if is_rmw:
                self._rmw[event_id] = True
            else:
                undecided.append(event_id)
        for event_id in undecided:
            self._rmw[event_id] = _rmw_walk(self.trace, event_id)

    def _trivial_consumption_pass(self, consumed: List[Participation]) -> None:
        opcode_of = self.trace.opcode_of
        for participation in consumed:
            opcode = opcode_of(participation.event_id)
            index = participation.operand_index
            if opcode is Opcode.STORE and index == 0:
                klass = STORED_VALUE
            elif opcode is Opcode.STORE and index == 1:
                klass = STORE_ADDRESS
            elif opcode is Opcode.LOAD:
                klass = LOAD_ADDRESS
            elif opcode is Opcode.BR:
                klass = BRANCH_CONDITION
            elif opcode is Opcode.RET:
                klass = RETURN_VALUE
            else:
                klass = GENERIC
            self._consumption[(participation.event_id, index)] = klass

    # ------------------------------------------------------------------ #
    # per-site verdicts (pass-backed, identical to the analyzer's)
    # ------------------------------------------------------------------ #
    def store_rmw(self, event_id: int) -> bool:
        flag = self._rmw.get(event_id)
        if flag is None:
            flag = self._rmw[event_id] = _rmw_walk(self.trace, event_id)
        return flag

    def verdict(
        self, participation: Participation, pattern: ErrorPattern
    ) -> MaskingVerdict:
        """The operation-level verdict, served from the precomputed passes.

        Field-identical to ``OperationMaskingAnalyzer.analyze`` — trivially
        classified sites are answered straight from the pass results
        (without materialising the event), the remainder delegates to the
        analyzer with a cached event.
        """
        if participation.role is ParticipationRole.STORE_DEST:
            return self.masking._analyze_store_destination(
                participation, rmw=self.store_rmw(participation.event_id)
            )
        key = (participation.event_id, participation.operand_index)
        klass = self._consumption.get(key)
        if klass is None:
            self._trivial_consumption_pass([participation])
            klass = self._consumption[key]
        if klass == STORED_VALUE:
            corrupted = pattern.apply(
                self.trace.operand_value(participation.event_id, 0),
                participation.value_type,
            )
            return MaskingVerdict(
                masked=None,
                needs_propagation=True,
                corrupted_result=corrupted,
                detail="corrupted value stored to memory",
            )
        if klass == STORE_ADDRESS:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="store address corrupted"
            )
        if klass == LOAD_ADDRESS:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="load address corrupted"
            )
        if klass == BRANCH_CONDITION:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="branch condition corrupted"
            )
        if klass == RETURN_VALUE:
            return MaskingVerdict(
                masked=None, needs_injection=True, detail="return value corrupted"
            )
        return self.masking._analyze_consumption(
            participation, pattern, event=self.trace[participation.event_id]
        )
