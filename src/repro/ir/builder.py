"""Convenience builder for constructing IR.

The :class:`IRBuilder` keeps a current insertion block and provides one
method per opcode with light type checking.  The frontend uses it to lower
kernel ASTs; tests and examples use it to construct small programs by hand.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    FCmpPredicate,
    ICmpPredicate,
    Instruction,
    Opcode,
)
from repro.ir.types import (
    F32,
    F64,
    I1,
    I64,
    IRType,
    PointerType,
    VOID,
    pointer_to,
)
from repro.ir.values import Constant, Value

Number = Union[int, float]
Operand = Union[Value, Number]


class IRBuilder:
    """Build instructions into a function, block by block."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.block: Optional[BasicBlock] = function.blocks[0] if function.blocks else None
        #: Source line attached to newly created instructions (frontend sets it).
        self.current_line: Optional[int] = None

    # ------------------------------------------------------------------ #
    # insertion point management
    # ------------------------------------------------------------------ #
    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    def _insert(self, instruction: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("IRBuilder has no insertion block")
        if self.block.is_terminated:
            raise RuntimeError(
                f"cannot append {instruction.opcode.value} to terminated block "
                f"{self.block.label}"
            )
        instruction.source_line = self.current_line
        return self.block.append(instruction)

    # ------------------------------------------------------------------ #
    # operand coercion
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(value: Operand, type: IRType) -> Value:
        if isinstance(value, Value):
            return value
        return Constant(type, value)

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #
    def alloca(self, type: IRType, count: int = 1, name: str = "") -> Instruction:
        """Allocate ``count`` elements of ``type`` in the function's frame."""
        return self._insert(
            Instruction(
                Opcode.ALLOCA, pointer_to(type), [], name=name, alloca_count=count
            )
        )

    def load(self, pointer: Value, name: str = "") -> Instruction:
        ptr_type = pointer.type
        if not isinstance(ptr_type, PointerType) or ptr_type.pointee is None:
            raise TypeError(f"load requires a typed pointer, got {ptr_type}")
        return self._insert(
            Instruction(Opcode.LOAD, ptr_type.pointee, [pointer], name=name)
        )

    def store(self, value: Operand, pointer: Value) -> Instruction:
        ptr_type = pointer.type
        if not isinstance(ptr_type, PointerType) or ptr_type.pointee is None:
            raise TypeError(f"store requires a typed pointer, got {ptr_type}")
        value = self._coerce(value, ptr_type.pointee)
        return self._insert(Instruction(Opcode.STORE, VOID, [value, pointer]))

    def gep(self, pointer: Value, index: Operand, name: str = "") -> Instruction:
        """Pointer arithmetic: ``pointer + index * sizeof(pointee)``."""
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"gep requires a pointer, got {pointer.type}")
        index = self._coerce(index, I64)
        return self._insert(
            Instruction(Opcode.GEP, pointer.type, [pointer, index], name=name)
        )

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _binary(
        self, opcode: Opcode, lhs: Operand, rhs: Operand, type: IRType, name: str
    ) -> Instruction:
        lhs = self._coerce(lhs, type)
        rhs = self._coerce(rhs, type)
        return self._insert(Instruction(opcode, type, [lhs, rhs], name=name))

    # integer
    def add(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.ADD, lhs, rhs, type, name)

    def sub(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.SUB, lhs, rhs, type, name)

    def mul(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.MUL, lhs, rhs, type, name)

    def sdiv(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.SDIV, lhs, rhs, type, name)

    def srem(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.SREM, lhs, rhs, type, name)

    def shl(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.SHL, lhs, rhs, type, name)

    def lshr(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.LSHR, lhs, rhs, type, name)

    def ashr(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.ASHR, lhs, rhs, type, name)

    def and_(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.AND, lhs, rhs, type, name)

    def or_(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.OR, lhs, rhs, type, name)

    def xor(self, lhs: Operand, rhs: Operand, type: IRType = I64, name: str = "") -> Instruction:
        return self._binary(Opcode.XOR, lhs, rhs, type, name)

    # float
    def fadd(self, lhs: Operand, rhs: Operand, type: IRType = F64, name: str = "") -> Instruction:
        return self._binary(Opcode.FADD, lhs, rhs, type, name)

    def fsub(self, lhs: Operand, rhs: Operand, type: IRType = F64, name: str = "") -> Instruction:
        return self._binary(Opcode.FSUB, lhs, rhs, type, name)

    def fmul(self, lhs: Operand, rhs: Operand, type: IRType = F64, name: str = "") -> Instruction:
        return self._binary(Opcode.FMUL, lhs, rhs, type, name)

    def fdiv(self, lhs: Operand, rhs: Operand, type: IRType = F64, name: str = "") -> Instruction:
        return self._binary(Opcode.FDIV, lhs, rhs, type, name)

    def frem(self, lhs: Operand, rhs: Operand, type: IRType = F64, name: str = "") -> Instruction:
        return self._binary(Opcode.FREM, lhs, rhs, type, name)

    def fneg(self, value: Operand, type: IRType = F64, name: str = "") -> Instruction:
        value = self._coerce(value, type)
        return self._insert(Instruction(Opcode.FNEG, type, [value], name=name))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def _conversion(
        self, opcode: Opcode, value: Value, to_type: IRType, name: str
    ) -> Instruction:
        return self._insert(Instruction(opcode, to_type, [value], name=name))

    def trunc(self, value: Value, to_type: IRType, name: str = "") -> Instruction:
        return self._conversion(Opcode.TRUNC, value, to_type, name)

    def zext(self, value: Value, to_type: IRType, name: str = "") -> Instruction:
        return self._conversion(Opcode.ZEXT, value, to_type, name)

    def sext(self, value: Value, to_type: IRType, name: str = "") -> Instruction:
        return self._conversion(Opcode.SEXT, value, to_type, name)

    def fptosi(self, value: Value, to_type: IRType = I64, name: str = "") -> Instruction:
        return self._conversion(Opcode.FPTOSI, value, to_type, name)

    def sitofp(self, value: Value, to_type: IRType = F64, name: str = "") -> Instruction:
        return self._conversion(Opcode.SITOFP, value, to_type, name)

    def fptrunc(self, value: Value, to_type: IRType = F32, name: str = "") -> Instruction:
        return self._conversion(Opcode.FPTRUNC, value, to_type, name)

    def fpext(self, value: Value, to_type: IRType = F64, name: str = "") -> Instruction:
        return self._conversion(Opcode.FPEXT, value, to_type, name)

    def bitcast(self, value: Value, to_type: IRType, name: str = "") -> Instruction:
        return self._conversion(Opcode.BITCAST, value, to_type, name)

    # ------------------------------------------------------------------ #
    # comparisons and select
    # ------------------------------------------------------------------ #
    def icmp(
        self,
        predicate: ICmpPredicate,
        lhs: Operand,
        rhs: Operand,
        type: IRType = I64,
        name: str = "",
    ) -> Instruction:
        lhs = self._coerce(lhs, type)
        rhs = self._coerce(rhs, type)
        return self._insert(
            Instruction(Opcode.ICMP, I1, [lhs, rhs], name=name, predicate=predicate)
        )

    def fcmp(
        self,
        predicate: FCmpPredicate,
        lhs: Operand,
        rhs: Operand,
        type: IRType = F64,
        name: str = "",
    ) -> Instruction:
        lhs = self._coerce(lhs, type)
        rhs = self._coerce(rhs, type)
        return self._insert(
            Instruction(Opcode.FCMP, I1, [lhs, rhs], name=name, predicate=predicate)
        )

    def select(
        self, cond: Value, if_true: Value, if_false: Value, name: str = ""
    ) -> Instruction:
        return self._insert(
            Instruction(
                Opcode.SELECT, if_true.type, [cond, if_true, if_false], name=name
            )
        )

    # ------------------------------------------------------------------ #
    # control flow
    # ------------------------------------------------------------------ #
    def br(self, target: BasicBlock) -> Instruction:
        """Unconditional branch."""
        return self._insert(Instruction(Opcode.BR, VOID, [], targets=[target]))

    def cond_br(
        self, cond: Value, if_true: BasicBlock, if_false: BasicBlock
    ) -> Instruction:
        return self._insert(
            Instruction(Opcode.BR, VOID, [cond], targets=[if_true, if_false])
        )

    def ret(self, value: Optional[Value] = None) -> Instruction:
        operands: List[Value] = [] if value is None else [value]
        return self._insert(Instruction(Opcode.RET, VOID, operands))

    def call(
        self,
        callee: str,
        args: Sequence[Value],
        return_type: IRType = F64,
        name: str = "",
    ) -> Instruction:
        return self._insert(
            Instruction(Opcode.CALL, return_type, list(args), name=name, callee=callee)
        )

    def phi(
        self,
        type: IRType,
        incoming: Sequence[Value],
        blocks: Sequence[BasicBlock],
        name: str = "",
    ) -> Instruction:
        if len(incoming) != len(blocks):
            raise ValueError("phi requires one incoming value per block")
        return self._insert(
            Instruction(
                Opcode.PHI,
                type,
                list(incoming),
                name=name,
                incoming_blocks=list(blocks),
            )
        )
