"""Tree-walking interpreter for the MOARD IR: the executor parity oracle.

The interpreter executes one entry function (plus everything it calls)
against a :class:`~repro.vm.memory.Memory` populated with the workload's
data objects, recursing over the IR objects directly: operand classes are
re-derived per step, values live in per-frame dicts keyed by value uid and
every call is a Python call.  It is the straightforward reading of the IR
semantics, so the parity tests run the same kernels through it and through
the pre-decoded :class:`~repro.vm.engine.Engine` and assert the results
are bit-identical: outputs, return values, step counts, crash types and
messages, and (with a :class:`~repro.tracing.columnar.ColumnarTrace`
attached) the full event stream.  A single-bit :class:`~repro.vm.faults.FaultSpec` can be
armed exactly as on the engine.

Numeric semantics follow the usual C/LLVM rules on a 64-bit machine and
are shared with the engine through :mod:`repro.vm.semantics`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.frontend.intrinsics import INTRINSICS
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Argument, Constant, UndefValue, Value
from repro.tracing.columnar import ColumnarTrace
from repro.tracing.events import OperandKind, TraceEvent
from repro.vm import semantics
from repro.vm.bits import flip_bit
from repro.vm.engine import ExecutionResult, prepare_arguments
from repro.vm.errors import StepLimitExceeded, UnknownIntrinsic, VMError
from repro.vm.faults import FaultSpec, FaultTarget
from repro.vm.memory import DataObject, Memory

Number = Union[int, float]


class _Frame:
    """Per-call execution state."""

    __slots__ = ("env", "producers", "stack_objects")

    def __init__(self) -> None:
        #: value uid -> runtime value
        self.env: Dict[int, Number] = {}
        #: value uid -> dynamic id of the event that produced it (-1 if none)
        self.producers: Dict[int, int] = {}
        self.stack_objects: List[DataObject] = []


class Interpreter:
    """Execute IR functions over a :class:`Memory`."""

    def __init__(
        self,
        module: Module,
        memory: Memory,
        trace: Optional[ColumnarTrace] = None,
        fault: Optional[FaultSpec] = None,
        max_steps: int = 5_000_000,
        max_call_depth: int = 200,
    ) -> None:
        self.module = module
        self.memory = memory
        self.trace = trace
        self.fault = fault
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self._dyn = 0
        self._depth = 0
        #: byte address -> dynamic id of the store that last wrote it
        self._last_writer: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        function_name: str,
        args: Union[Dict[str, object], Sequence[object]],
    ) -> ExecutionResult:
        """Execute ``function_name`` with ``args``.

        ``args`` may be a mapping from parameter names or a positional
        sequence.  Pointer parameters accept :class:`DataObject` instances
        (their base address is passed) or raw integer addresses; scalar
        parameters accept Python numbers.
        """
        func = self.module.get_function(function_name)
        arg_values = prepare_arguments(func, args)
        value = self._exec_function(func, arg_values, [-1] * len(arg_values))
        return ExecutionResult(return_value=value, steps=self._dyn, trace=self.trace)

    @property
    def steps_executed(self) -> int:
        return self._dyn

    # ------------------------------------------------------------------ #
    # execution core
    # ------------------------------------------------------------------ #
    def _exec_function(
        self,
        func: Function,
        arg_values: Sequence[Number],
        arg_producers: Sequence[int],
    ) -> Optional[Number]:
        if self._depth >= self.max_call_depth:
            raise VMError(f"call depth limit ({self.max_call_depth}) exceeded")
        self._depth += 1
        frame = _Frame()
        for formal, value, producer in zip(func.args, arg_values, arg_producers):
            frame.env[formal.uid] = value
            frame.producers[formal.uid] = producer

        block = func.entry
        prev_block = None
        try:
            while True:
                branched = False
                for instr in block.instructions:
                    outcome = self._exec_instruction(func, frame, instr, prev_block)
                    if instr.opcode is Opcode.RET:
                        return outcome
                    if instr.opcode is Opcode.BR:
                        prev_block, block = block, outcome
                        branched = True
                        break
                if not branched:
                    raise VMError(
                        f"block {block.label} in {func.name} fell through without "
                        f"a terminator"
                    )
        finally:
            self._depth -= 1
            for obj in frame.stack_objects:
                self.memory.release(obj)

    # ------------------------------------------------------------------ #
    # operand resolution and fault application
    # ------------------------------------------------------------------ #
    def _resolve_operand(
        self, frame: _Frame, operand: Value
    ) -> Tuple[Number, int, OperandKind]:
        if isinstance(operand, Constant):
            return operand.value, -1, OperandKind.CONSTANT
        if isinstance(operand, UndefValue):
            return 0, -1, OperandKind.CONSTANT
        if isinstance(operand, Argument):
            return (
                frame.env[operand.uid],
                frame.producers.get(operand.uid, -1),
                OperandKind.ARGUMENT,
            )
        try:
            value = frame.env[operand.uid]
        except KeyError:
            raise VMError(
                f"use of value {operand.short()} before definition"
            ) from None
        return value, frame.producers.get(operand.uid, -1), OperandKind.INSTRUCTION

    def _maybe_fault_operands(
        self, instr: Instruction, values: List[Number]
    ) -> List[Number]:
        fault = self.fault
        if (
            fault is not None
            and fault.target is FaultTarget.OPERAND
            and fault.dynamic_id == self._dyn
        ):
            index = fault.operand_index
            if index >= len(values):
                raise VMError(
                    f"fault operand index {index} out of range for "
                    f"{instr.opcode.value} with {len(values)} operands"
                )
            values = list(values)
            values[index] = flip_bit(
                values[index], fault.bit, instr.operands[index].type
            )
        return values

    def _maybe_fault_result(self, instr: Instruction, result: Number) -> Number:
        fault = self.fault
        if (
            fault is not None
            and fault.target is FaultTarget.RESULT
            and fault.dynamic_id == self._dyn
            and instr.has_result
        ):
            return flip_bit(result, fault.bit, instr.type)
        return result

    # ------------------------------------------------------------------ #
    # single instruction execution
    # ------------------------------------------------------------------ #
    def _exec_instruction(
        self,
        func: Function,
        frame: _Frame,
        instr: Instruction,
        prev_block,
    ):
        if self._dyn >= self.max_steps:
            raise StepLimitExceeded(self.max_steps)

        resolved = [self._resolve_operand(frame, op) for op in instr.operands]
        values = [r[0] for r in resolved]
        producers = tuple(r[1] for r in resolved)
        kinds = tuple(r[2] for r in resolved)
        values = self._maybe_fault_operands(instr, values)

        opcode = instr.opcode
        if opcode is Opcode.CALL and (instr.callee or "") not in INTRINSICS:
            return self._exec_user_call(func, frame, instr, values, producers, kinds)
        result: Optional[Number] = None
        address: Optional[int] = None
        object_name: Optional[str] = None
        element_index: Optional[int] = None
        writer_id = -1
        taken_label: Optional[str] = None
        branch_target = None

        if opcode is Opcode.ALLOCA:
            pointee = instr.type.pointee  # type: ignore[union-attr]
            obj = self.memory.allocate_stack(
                instr.name or "tmp", pointee, instr.alloca_count
            )
            frame.stack_objects.append(obj)
            result = obj.base
        elif opcode is Opcode.LOAD:
            address = int(values[0])
            obj, element_index = self.memory.resolve(address)
            object_name = obj.name
            result = self.memory.load(address, instr.type)
            writer_id = self._last_writer.get(address, -1)
        elif opcode is Opcode.STORE:
            address = int(values[1])
            obj, element_index = self.memory.resolve(address)
            object_name = obj.name
            fault = self.fault
            if (
                fault is not None
                and fault.target is FaultTarget.STORE_DEST_OLD
                and fault.dynamic_id == self._dyn
            ):
                self.memory.flip_bit_at(address, fault.bit)
            self.memory.store(address, instr.operands[0].type, values[0])
            self._last_writer[address] = self._dyn
        elif opcode is Opcode.GEP:
            pointee = instr.operands[0].type.pointee  # type: ignore[union-attr]
            result = int(values[0]) + int(values[1]) * pointee.size_bytes
        elif opcode is Opcode.BR:
            if len(instr.targets) == 1:
                branch_target = instr.targets[0]
            else:
                branch_target = instr.targets[0] if values[0] else instr.targets[1]
            taken_label = branch_target.label
        elif opcode is Opcode.RET:
            result = values[0] if values else None
        elif opcode is Opcode.CALL:
            result = self._exec_intrinsic_call(instr, values)
        elif opcode is Opcode.PHI:
            result = self._exec_phi(instr, values, prev_block)
        elif opcode is Opcode.SELECT:
            result = semantics.eval_select(values)
        elif opcode is Opcode.ICMP:
            result = semantics.eval_icmp(instr.predicate, instr.operands[0].type, values)
        elif opcode is Opcode.FCMP:
            result = semantics.eval_fcmp(instr.predicate, values)
        elif opcode is Opcode.FNEG:
            result = semantics.eval_fneg(values[0])
        elif instr.is_binary:
            result = semantics.eval_binary(opcode, instr.type, values)
        else:
            result = semantics.eval_conversion(
                opcode, instr.operands[0].type, instr.type, values[0]
            )

        if instr.has_result and opcode is not Opcode.CALL:
            result = self._maybe_fault_result(instr, result)
        if instr.has_result:
            frame.env[instr.uid] = result
            frame.producers[instr.uid] = self._dyn

        if self.trace is not None:
            self.trace.append(
                TraceEvent(
                    dynamic_id=self._dyn,
                    opcode=opcode,
                    function=func.name,
                    block=instr.parent.label if instr.parent else "?",
                    static_uid=instr.uid,
                    source_line=instr.source_line,
                    operand_values=tuple(values),
                    operand_types=tuple(op.type for op in instr.operands),
                    operand_producers=producers,
                    operand_kinds=kinds,
                    result_value=result if instr.has_result else None,
                    result_type=instr.type if instr.has_result else None,
                    predicate=instr.predicate.value if instr.predicate else None,
                    callee=instr.callee,
                    address=address,
                    object_name=object_name,
                    element_index=element_index,
                    writer_id=writer_id,
                    taken_label=taken_label,
                )
            )
        self._dyn += 1

        if opcode is Opcode.BR:
            return branch_target
        if opcode is Opcode.RET:
            return result
        return result

    # ------------------------------------------------------------------ #
    # opcode families
    # ------------------------------------------------------------------ #
    def _exec_intrinsic_call(self, instr: Instruction, values: List[Number]) -> Number:
        return semantics.eval_intrinsic(instr.callee or "", instr.type, values)

    def _exec_user_call(
        self,
        func: Function,
        frame: _Frame,
        instr: Instruction,
        values: List[Number],
        producers: Tuple[int, ...],
        kinds: Tuple[OperandKind, ...],
    ) -> Optional[Number]:
        """Execute a call to another function in the module.

        The call event is recorded *before* the callee's instructions so
        dynamic ids stay monotonically ordered; the argument producer links
        are forwarded into the callee frame so propagation analysis can
        follow corrupted values across the call boundary.
        """
        callee = instr.callee or ""
        if callee not in self.module:
            raise UnknownIntrinsic(f"call to unknown function {callee!r}")
        callee_func = self.module.get_function(callee)
        call_dyn_id = self._dyn
        if self.trace is not None:
            self.trace.append(
                TraceEvent(
                    dynamic_id=call_dyn_id,
                    opcode=Opcode.CALL,
                    function=func.name,
                    block=instr.parent.label if instr.parent else "?",
                    static_uid=instr.uid,
                    source_line=instr.source_line,
                    operand_values=tuple(values),
                    operand_types=tuple(op.type for op in instr.operands),
                    operand_producers=producers,
                    operand_kinds=kinds,
                    result_value=None,
                    result_type=instr.type if instr.has_result else None,
                    predicate=None,
                    callee=callee,
                    address=None,
                    object_name=None,
                    element_index=None,
                    writer_id=-1,
                    taken_label=None,
                )
            )
        self._dyn += 1
        result = self._exec_function(callee_func, values, list(producers))
        if instr.has_result:
            if result is None:
                raise VMError(f"call to {callee} returned no value")
            frame.env[instr.uid] = result
            frame.producers[instr.uid] = call_dyn_id
        return result

    def _exec_phi(self, instr: Instruction, values: List[Number], prev_block) -> Number:
        if prev_block is None:
            raise VMError("phi executed in the entry block")
        for value, block in zip(values, instr.incoming_blocks):
            if block is prev_block:
                return value
        raise VMError(
            f"phi has no incoming value for predecessor {prev_block.label}"
        )
