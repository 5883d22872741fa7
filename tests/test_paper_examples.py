"""Tests tied directly to the paper's worked examples.

* Listing 1 / §III-A: overwriting masks, bit-shifting masks the shifted-out
  bits only.
* Fig. 2 / Eq. 2: the aDVF denominator of ``sum`` in ``l2norm`` counts one
  element participation per assignment plus two per accumulation statement
  and two per sqrt statement.
"""

import pytest

from repro.core.masking import MaskingCategory, OperationMaskingAnalyzer
from repro.core.participation import (
    ParticipationRole,
    find_participations,
    participation_counts_by_role,
)
from repro.core.patterns import ErrorPattern
from repro.frontend import compile_kernel
from repro.ir import F64, I64, Opcode
from repro.tracing import ColumnarTrace
from repro.vm import Memory

from oracles.interpreter import Interpreter


# --------------------------------------------------------------------- #
# Listing-1-style kernel: assignment overwrite + bit shifting
# --------------------------------------------------------------------- #
def listing1(par_a: "i64*", n: "i64", bits: "i64") -> "i64":
    par_a[0] = 9                      # overwrite: any error in par_a[0] masked
    c = par_a[2] * 2                  # error propagates to c
    if c > 10:
        par_a[4] = c >> bits          # shifting can throw corrupted bits away
    return par_a[4]


@pytest.fixture(scope="module")
def listing1_trace():
    function = compile_kernel(listing1)
    memory = Memory()
    par_a = memory.allocate("par_a", I64, 6, initial=[1, 2, 30, 4, 5, 6])
    trace = ColumnarTrace()
    Interpreter(function.metadata["module"], memory, trace=trace).run(
        "listing1", {"par_a": par_a, "n": 6, "bits": 3}
    )
    return trace


class TestListing1:
    def test_assignment_overwrite_masks_every_bit(self, listing1_trace):
        analyzer = OperationMaskingAnalyzer(listing1_trace)
        stores = [
            p
            for p in find_participations(listing1_trace, "par_a")
            if p.role is ParticipationRole.STORE_DEST and p.element_index == 0
        ]
        assert stores
        for bit in (0, 17, 42, 63):
            verdict = analyzer.analyze(stores[0], ErrorPattern((bit,)))
            assert verdict.masked is True
            assert verdict.category is MaskingCategory.OVERWRITE

    def test_shift_masks_only_low_bits(self, listing1_trace):
        analyzer = OperationMaskingAnalyzer(listing1_trace)
        shift_parts = [
            p
            for p in find_participations(listing1_trace, "par_a")
            if listing1_trace[p.event_id].opcode is Opcode.ASHR
        ]
        # c (derived from par_a[2]) is shifted, but c itself is a local, so we
        # check the shift on the traced event directly: the value operand of
        # the ashr keeps high bits and drops low ones.
        shifts = [e for e in listing1_trace if e.opcode is Opcode.ASHR]
        assert shifts
        event = shifts[0]
        from repro.core.reexec import reevaluate, results_identical

        low = list(event.operand_values)
        low[0] = ErrorPattern((0,)).apply(low[0], I64)
        assert results_identical(event, reevaluate(event, low).value)
        high = list(event.operand_values)
        high[0] = ErrorPattern((40,)).apply(high[0], I64)
        assert not results_identical(event, reevaluate(event, high).value)
        assert isinstance(shift_parts, list)


# --------------------------------------------------------------------- #
# Fig. 2 / Eq. 2: the l2norm denominator structure
# --------------------------------------------------------------------- #
class TestEquation2Structure:
    def test_participation_counts_match_eq2(self):
        from repro.workloads.lu import l2norm

        function = compile_kernel(l2norm)
        memory = Memory()
        n = 6
        v = memory.allocate(
            "v", F64, n * 5, initial=[0.1 * i for i in range(n * 5)]
        )
        sums = memory.allocate("sum", F64, 5)
        trace = ColumnarTrace()
        Interpreter(function.metadata["module"], memory, trace=trace).run(
            "l2norm", {"v": v, "sum": sums, "n": n, "nelem": n}
        )
        participations = find_participations(trace, "sum")
        counts = participation_counts_by_role(participations)
        iternum1 = iternum3 = 5
        iternum2 = n * 5
        # loop 1: one store per iteration; loop 2: one store + one consumed add
        # per iteration; loop 3: one store + one consumed division per iteration
        assert counts[ParticipationRole.STORE_DEST] == iternum1 + iternum2 + iternum3
        assert counts[ParticipationRole.CONSUMED] == iternum2 + iternum3
        assert len(participations) == iternum1 + 2 * iternum2 + 2 * iternum3

    def test_loop1_stores_all_mask_and_loop2_stores_do_not(self):
        from repro.workloads.lu import l2norm

        function = compile_kernel(l2norm)
        memory = Memory()
        n = 4
        v = memory.allocate("v", F64, n * 5, initial=[1.0] * (n * 5))
        sums = memory.allocate("sum", F64, 5)
        trace = ColumnarTrace()
        Interpreter(function.metadata["module"], memory, trace=trace).run(
            "l2norm", {"v": v, "sum": sums, "n": n, "nelem": n}
        )
        analyzer = OperationMaskingAnalyzer(trace)
        stores = [
            p
            for p in find_participations(trace, "sum")
            if p.role is ParticipationRole.STORE_DEST
        ]
        verdicts = [analyzer.analyze(p, ErrorPattern((30,))) for p in stores]
        masked = sum(1 for v in verdicts if v.masked is True)
        unmasked = sum(1 for v in verdicts if v.masked is False)
        # statement A stores (5) mask; statement B accumulations (n*5) do not;
        # statement C stores read-modify-write sum[m] as well.
        assert masked == 5
        assert unmasked == n * 5 + 5
