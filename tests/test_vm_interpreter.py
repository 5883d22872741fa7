"""Unit tests for the interpreter: semantics, tracing, faults, crashes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_kernel
from repro.ir import F64, I64, Opcode
from repro.ir.instructions import FCmpPredicate, ICmpPredicate
from repro.ir.types import I8, I32
from repro.tracing import ColumnarTrace
from repro.vm import (
    FaultSpec,
    FaultTarget,
    Memory,
    SegmentationFault,
    StepLimitExceeded,
)
from repro.vm import semantics
from repro.vm.errors import ArithmeticFault, VMError
from repro.vm.registers import allocate_registers

from oracles.interpreter import Interpreter


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #
def k_intops(x: "i64", y: "i64") -> "i64":
    return (x * y + x - y) // (y + 1)


def k_div(x: "i64", y: "i64") -> "i64":
    return x // y


def k_store_loop(a: "double*", n: "i64") -> "void":
    for i in range(n):
        a[i] = i * 1.5


def k_oob(a: "double*", i: "i64") -> "double":
    return a[i]


def k_spin(n: "i64") -> "i64":
    i = 0
    while i < n:
        i = i + 0  # never advances when n > 0
    return i


def k_sumsq(a: "double*", n: "i64") -> "double":
    s = 0.0
    for i in range(n):
        s = s + a[i] * a[i]
    return s


class TestExecutionBasics:
    def test_integer_ops(self):
        f = compile_kernel(k_intops)
        module = f.metadata["module"]
        result = Interpreter(module, Memory()).run("k_intops", {"x": 7, "y": 3})
        expected = (7 * 3 + 7 - 3) // (3 + 1)
        assert result.return_value == expected

    def test_positional_args(self):
        f = compile_kernel(k_div)
        result = Interpreter(f.metadata["module"], Memory()).run("k_div", [9, 2])
        assert result.return_value == 4

    def test_argument_count_checked(self):
        f = compile_kernel(k_div)
        with pytest.raises(VMError):
            Interpreter(f.metadata["module"], Memory()).run("k_div", [9])

    def test_missing_named_argument(self):
        f = compile_kernel(k_div)
        with pytest.raises(VMError):
            Interpreter(f.metadata["module"], Memory()).run("k_div", {"x": 9})

    def test_division_by_zero_is_arithmetic_fault(self):
        f = compile_kernel(k_div)
        with pytest.raises(ArithmeticFault):
            Interpreter(f.metadata["module"], Memory()).run("k_div", {"x": 1, "y": 0})

    def test_out_of_bounds_is_segfault(self):
        f = compile_kernel(k_oob)
        memory = Memory()
        a = memory.allocate("a", F64, 4, initial=[0, 1, 2, 3])
        with pytest.raises(SegmentationFault):
            Interpreter(f.metadata["module"], memory).run("k_oob", {"a": a, "i": 1000})

    def test_step_limit(self):
        f = compile_kernel(k_spin)
        with pytest.raises(StepLimitExceeded):
            Interpreter(f.metadata["module"], Memory(), max_steps=500).run(
                "k_spin", {"n": 5}
            )

    def test_stack_objects_released(self):
        f = compile_kernel(k_intops)
        memory = Memory()
        Interpreter(f.metadata["module"], memory).run("k_intops", {"x": 1, "y": 1})
        assert memory.data_objects(include_stack=True) == []

    def test_saxpy_results(self, saxpy_setup):
        module, memory, a, b = saxpy_setup
        Interpreter(module, memory).run(
            "saxpy", {"a": a, "b": b, "n": 6, "alpha": 0.5}
        )
        assert list(b.values()) == [10.5, 11.0, 11.5, 12.0, 12.5, 13.0]


def _loads_for(trace, object_name):
    return [e for e in trace if e.is_load and e.object_name == object_name]


def _stores_for(trace, object_name):
    return [e for e in trace if e.is_store and e.object_name == object_name]


class TestTracing:
    def test_trace_events_in_order(self, saxpy_setup):
        module, memory, a, b = saxpy_setup
        trace = ColumnarTrace()
        Interpreter(module, memory, trace=trace).run(
            "saxpy", {"a": a, "b": b, "n": 6, "alpha": 2.0}
        )
        assert len(trace) > 0
        assert [e.dynamic_id for e in trace] == list(range(len(trace)))

    def test_trace_resolves_objects(self, saxpy_setup):
        module, memory, a, b = saxpy_setup
        trace = ColumnarTrace()
        Interpreter(module, memory, trace=trace).run(
            "saxpy", {"a": a, "b": b, "n": 6, "alpha": 2.0}
        )
        assert len(_loads_for(trace, "a")) == 6
        assert len(_stores_for(trace, "b")) == 6
        assert len(_loads_for(trace, "b")) == 6

    def test_load_records_writer(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        # dst[i] is written (0.0) then read back in the accumulation statement
        loads = _loads_for(trace, "dst")
        assert loads and all(e.writer_id >= 0 for e in loads)

    def test_branch_events_record_taken_label(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        branches = [e for e in trace if e.is_branch]
        assert branches and all(e.taken_label for e in branches)

    def test_producer_links(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        for event in trace:
            for producer in event.operand_producers:
                assert producer < event.dynamic_id

    def test_summary(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        histogram = trace.opcode_histogram()
        assert sum(histogram.values()) == len(trace)
        assert histogram["load"] > 0 and histogram["store"] > 0
        assert "fmul" in histogram


class TestFaultInjectionHooks:
    def _run(self, fault, alpha=2.0):
        f = compile_kernel(k_sumsq)
        module = f.metadata["module"]
        memory = Memory()
        a = memory.allocate("a", F64, 4, initial=[1.0, 2.0, 3.0, 4.0])
        return Interpreter(module, memory, fault=fault).run(
            "k_sumsq", {"a": a, "n": 4}
        )

    def test_golden_value(self):
        assert self._run(None).return_value == pytest.approx(30.0)

    def test_operand_fault_changes_result(self):
        trace = ColumnarTrace()
        f = compile_kernel(k_sumsq)
        memory = Memory()
        a = memory.allocate("a", F64, 4, initial=[1.0, 2.0, 3.0, 4.0])
        Interpreter(f.metadata["module"], memory, trace=trace).run(
            "k_sumsq", {"a": a, "n": 4}
        )
        # find an fmul that consumes a loaded element and flip its sign bit
        fmul = next(e for e in trace if e.opcode is Opcode.FMUL)
        fault = FaultSpec(dynamic_id=fmul.dynamic_id, bit=63, operand_index=0)
        faulty = self._run(fault)
        assert faulty.return_value != pytest.approx(30.0)

    def test_result_fault(self):
        trace = ColumnarTrace()
        f = compile_kernel(k_sumsq)
        memory = Memory()
        a = memory.allocate("a", F64, 4, initial=[1.0, 2.0, 3.0, 4.0])
        Interpreter(f.metadata["module"], memory, trace=trace).run(
            "k_sumsq", {"a": a, "n": 4}
        )
        fadd = next(e for e in trace if e.opcode is Opcode.FADD)
        fault = FaultSpec(
            dynamic_id=fadd.dynamic_id, bit=52, target=FaultTarget.RESULT
        )
        assert self._run(fault).return_value != pytest.approx(30.0)

    def test_store_dest_old_fault_is_masked_by_store(self):
        """Flipping the memory a store is about to overwrite never matters."""
        f = compile_kernel(k_store_loop)
        module = f.metadata["module"]
        memory = Memory()
        a = memory.allocate("a", F64, 4, initial=[9.0, 9.0, 9.0, 9.0])
        trace = ColumnarTrace()
        Interpreter(module, memory, trace=trace).run("k_store_loop", {"a": a, "n": 4})
        store = next(e for e in trace if e.is_store and e.object_name == "a")
        golden = list(memory.object("a").values())

        memory2 = Memory()
        a2 = memory2.allocate("a", F64, 4, initial=[9.0, 9.0, 9.0, 9.0])
        fault = FaultSpec(
            dynamic_id=store.dynamic_id, bit=60, target=FaultTarget.STORE_DEST_OLD
        )
        Interpreter(module, memory2, fault=fault).run("k_store_loop", {"a": a2, "n": 4})
        assert list(a2.values()) == golden

    def test_fault_operand_index_out_of_range(self):
        fault = FaultSpec(dynamic_id=0, bit=0, operand_index=7)
        with pytest.raises(VMError):
            self._run(fault)


class TestSemanticsHelpers:
    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=80)
    def test_add_matches_wrapping(self, a, b):
        result = semantics.eval_binary(Opcode.ADD, I32, [a, b])
        assert result == ((a + b + 2**31) % 2**32) - 2**31

    @given(st.integers(-(2**15), 2**15), st.integers(1, 2**15))
    @settings(max_examples=60)
    def test_sdiv_truncates_toward_zero(self, a, b):
        result = semantics.eval_binary(Opcode.SDIV, I64, [a, b])
        assert result == int(a / b)

    @given(st.integers(-(2**15), 2**15), st.integers(1, 2**15))
    @settings(max_examples=60)
    def test_srem_identity(self, a, b):
        q = semantics.eval_binary(Opcode.SDIV, I64, [a, b])
        r = semantics.eval_binary(Opcode.SREM, I64, [a, b])
        assert q * b + r == a

    def test_shift_semantics(self):
        assert semantics.eval_binary(Opcode.SHL, I8, [1, 7]) == -128
        assert semantics.eval_binary(Opcode.LSHR, I8, [-1, 1]) == 127
        assert semantics.eval_binary(Opcode.ASHR, I8, [-2, 1]) == -1

    def test_float_divide_edge_cases(self):
        assert semantics.float_divide(1.0, 0.0) == math.inf
        assert semantics.float_divide(-1.0, 0.0) == -math.inf
        assert math.isnan(semantics.float_divide(0.0, 0.0))

    def test_fcmp_nan_is_false(self):
        assert semantics.eval_fcmp(FCmpPredicate.OEQ, [float("nan"), 1.0]) == 0
        assert semantics.eval_fcmp(FCmpPredicate.OLT, [float("nan"), 1.0]) == 0

    def test_icmp_unsigned(self):
        assert semantics.eval_icmp(ICmpPredicate.UGT, I8, [-1, 1]) == 1  # 255 > 1
        assert semantics.eval_icmp(ICmpPredicate.SGT, I8, [-1, 1]) == 0

    def test_conversions(self):
        assert semantics.eval_conversion(Opcode.FPTOSI, F64, I64, 3.9) == 3
        assert semantics.eval_conversion(Opcode.FPTOSI, F64, I64, float("nan")) == 0
        assert semantics.eval_conversion(Opcode.TRUNC, I64, I8, 300) == 44
        assert semantics.eval_conversion(Opcode.SITOFP, I64, F64, 7) == 7.0
        bits = semantics.eval_conversion(Opcode.BITCAST, F64, I64, 1.0)
        assert semantics.eval_conversion(Opcode.BITCAST, I64, F64, bits) == 1.0

    def test_intrinsic_nan_on_domain_error(self):
        assert math.isnan(semantics.eval_intrinsic("sqrt", F64, [-1.0]))
        assert semantics.eval_intrinsic("fmax", F64, [2.0, 3.0]) == 3.0


class TestRegisterAllocation:
    def test_allocation_over_trace(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        allocation = allocate_registers(trace, object_name="src", num_registers=8)
        assert allocation.assignment, "results should be assigned registers"
        assert allocation.max_residency() >= 1
        assert all(0 <= r < 8 for r in allocation.assignment.values())

    def test_small_register_file_spills(self, accumulate_trace):
        trace = accumulate_trace["trace"]
        allocation = allocate_registers(trace, num_registers=2)
        assert allocation.spills > 0

    def test_invalid_register_count(self):
        from repro.vm.registers import RegisterFile

        with pytest.raises(ValueError):
            RegisterFile(num_registers=0)
