"""Pure evaluation semantics shared by the execution engine and the analyses.

The operation-level masking analysis and the error-propagation analysis both
need to *re-evaluate* instructions with perturbed operand values without
running the program.  To guarantee they reason about exactly the arithmetic
the VM executes, the numeric semantics live here as pure functions and the
engine delegates to them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

from repro.frontend.intrinsics import INTRINSICS
from repro.ir.instructions import FCmpPredicate, ICmpPredicate, Opcode
from repro.ir.types import IRType
from repro.vm.bits import (
    bits_to_value,
    float32_from_bits,
    float32_to_bits,
    to_signed,
    to_unsigned,
    value_to_bits,
)
from repro.vm.errors import ArithmeticFault, VMError

Number = Union[int, float]


def float_divide(lhs: float, rhs: float) -> float:
    """IEEE-style division: finite/0 gives signed infinity, 0/0 gives NaN."""
    try:
        return lhs / rhs
    except ZeroDivisionError:
        if lhs == 0.0 or math.isnan(lhs):
            return float("nan")
        return math.copysign(float("inf"), lhs) * math.copysign(1.0, rhs)


def float_remainder(lhs: float, rhs: float) -> float:
    """``fmod`` with NaN on a zero divisor."""
    try:
        return math.fmod(lhs, rhs)
    except (ZeroDivisionError, ValueError):
        return float("nan")


def eval_binary(opcode: Opcode, result_type: IRType, values: Sequence[Number]) -> Number:
    """Evaluate an integer or floating-point binary instruction."""
    if opcode in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM):
        lhs, rhs = float(values[0]), float(values[1])
        if opcode is Opcode.FADD:
            return lhs + rhs
        if opcode is Opcode.FSUB:
            return lhs - rhs
        if opcode is Opcode.FMUL:
            return lhs * rhs
        if opcode is Opcode.FDIV:
            return float_divide(lhs, rhs)
        return float_remainder(lhs, rhs)

    bits = result_type.bits
    lhs, rhs = int(values[0]), int(values[1])
    if opcode is Opcode.ADD:
        raw = lhs + rhs
    elif opcode is Opcode.SUB:
        raw = lhs - rhs
    elif opcode is Opcode.MUL:
        raw = lhs * rhs
    elif opcode in (Opcode.SDIV, Opcode.SREM):
        if rhs == 0:
            raise ArithmeticFault("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        raw = quotient if opcode is Opcode.SDIV else lhs - quotient * rhs
    elif opcode in (Opcode.UDIV, Opcode.UREM):
        if rhs == 0:
            raise ArithmeticFault("integer division by zero")
        lhs_u, rhs_u = to_unsigned(lhs, bits), to_unsigned(rhs, bits)
        raw = lhs_u // rhs_u if opcode is Opcode.UDIV else lhs_u % rhs_u
    elif opcode is Opcode.SHL:
        raw = to_unsigned(lhs, bits) << (to_unsigned(rhs, bits) % bits)
    elif opcode is Opcode.LSHR:
        raw = to_unsigned(lhs, bits) >> (to_unsigned(rhs, bits) % bits)
    elif opcode is Opcode.ASHR:
        raw = lhs >> (to_unsigned(rhs, bits) % bits)
    elif opcode is Opcode.AND:
        raw = to_unsigned(lhs, bits) & to_unsigned(rhs, bits)
    elif opcode is Opcode.OR:
        raw = to_unsigned(lhs, bits) | to_unsigned(rhs, bits)
    elif opcode is Opcode.XOR:
        raw = to_unsigned(lhs, bits) ^ to_unsigned(rhs, bits)
    else:  # pragma: no cover - exhaustive over binary opcodes
        raise VMError(f"unhandled binary opcode {opcode}")
    return to_signed(raw, bits)


def eval_icmp(predicate: ICmpPredicate, operand_type: IRType, values: Sequence[Number]) -> int:
    """Evaluate an integer comparison (result is 0/1)."""
    lhs, rhs = int(values[0]), int(values[1])
    bits = operand_type.bits
    if predicate in (
        ICmpPredicate.ULT,
        ICmpPredicate.ULE,
        ICmpPredicate.UGT,
        ICmpPredicate.UGE,
    ):
        lhs, rhs = to_unsigned(lhs, bits), to_unsigned(rhs, bits)
    table = {
        ICmpPredicate.EQ: lhs == rhs,
        ICmpPredicate.NE: lhs != rhs,
        ICmpPredicate.SLT: lhs < rhs,
        ICmpPredicate.SLE: lhs <= rhs,
        ICmpPredicate.SGT: lhs > rhs,
        ICmpPredicate.SGE: lhs >= rhs,
        ICmpPredicate.ULT: lhs < rhs,
        ICmpPredicate.ULE: lhs <= rhs,
        ICmpPredicate.UGT: lhs > rhs,
        ICmpPredicate.UGE: lhs >= rhs,
    }
    return 1 if table[predicate] else 0


def eval_fcmp(predicate: FCmpPredicate, values: Sequence[Number]) -> int:
    """Evaluate an ordered floating-point comparison (NaN compares false)."""
    lhs, rhs = float(values[0]), float(values[1])
    if math.isnan(lhs) or math.isnan(rhs):
        return 0
    table = {
        FCmpPredicate.OEQ: lhs == rhs,
        FCmpPredicate.ONE: lhs != rhs,
        FCmpPredicate.OLT: lhs < rhs,
        FCmpPredicate.OLE: lhs <= rhs,
        FCmpPredicate.OGT: lhs > rhs,
        FCmpPredicate.OGE: lhs >= rhs,
    }
    return 1 if table[predicate] else 0


def eval_conversion(
    opcode: Opcode, source_type: IRType, target_type: IRType, value: Number
) -> Number:
    """Evaluate a conversion instruction."""
    if opcode is Opcode.TRUNC:
        return to_signed(int(value), target_type.bits)
    if opcode is Opcode.ZEXT:
        return to_unsigned(int(value), source_type.bits)
    if opcode is Opcode.SEXT:
        return int(value)
    if opcode is Opcode.FPTOSI:
        value_f = float(value)
        if math.isnan(value_f):
            return 0
        limit = (1 << (target_type.bits - 1)) - 1
        if value_f >= limit:
            return limit
        if value_f <= -limit - 1:
            return -limit - 1
        return int(value_f)
    if opcode is Opcode.SITOFP:
        return float(int(value))
    if opcode is Opcode.FPTRUNC:
        return float32_from_bits(float32_to_bits(float(value)))
    if opcode is Opcode.FPEXT:
        return float(value)
    if opcode is Opcode.BITCAST:
        return bits_to_value(value_to_bits(value, source_type), target_type)
    raise VMError(f"unhandled conversion opcode {opcode}")


def eval_intrinsic(name: str, result_type: IRType, values: Sequence[Number]) -> Number:
    """Evaluate one of the math intrinsics with IEEE-friendly error handling."""
    info = INTRINSICS[name]
    try:
        result = info.evaluate(*values)
    except (ValueError, OverflowError):
        result = float("nan")
    if result_type.is_integer:
        return to_signed(int(result), result_type.bits)
    return float(result)


def eval_fneg(value: Number) -> float:
    return -float(value)


def eval_select(values: Sequence[Number]) -> Number:
    return values[1] if values[0] else values[2]


def eval_gep(pointee_size: int, values: Sequence[Number]) -> int:
    """Pointer arithmetic of ``getelementptr``."""
    return int(values[0]) + int(values[1]) * pointee_size
