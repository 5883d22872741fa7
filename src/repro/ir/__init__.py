"""A small, typed, LLVM-like intermediate representation.

This package is the lowest substrate of the MOARD reproduction.  The paper
analyses dynamic LLVM IR traces; this package provides the equivalent
architecture-independent instruction set that the rest of the system
(frontend, virtual machine, trace analysis) is built on.

The IR is deliberately small but covers every operation class the MOARD
operation-level masking rules reason about:

* memory operations (``alloca``, ``load``, ``store``, ``getelementptr``)
* integer arithmetic and bitwise logic (``add`` … ``xor``, shifts)
* floating-point arithmetic (``fadd`` … ``fdiv``)
* conversions (``trunc``, ``zext``, ``sext``, ``fptosi``, ``sitofp``, …)
* comparisons (``icmp``, ``fcmp``) and ``select``
* control flow (``br``, ``ret``) and calls to intrinsics / other functions

Public API
----------
:class:`~repro.ir.types.IRType` and the singleton type objects (``I64``,
``F64``, …), :class:`~repro.ir.values.Constant`,
:class:`~repro.ir.instructions.Instruction`, :class:`~repro.ir.function.Function`,
:class:`~repro.ir.function.Module`, :class:`~repro.ir.builder.IRBuilder`,
:func:`~repro.ir.verify.verify_module` and :func:`~repro.ir.printer.print_module`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "types": (
            "IRType",
            "TypeKind",
            "VOID",
            "I1",
            "I8",
            "I16",
            "I32",
            "I64",
            "F32",
            "F64",
            "PointerType",
            "pointer_to",
        ),
        "values": ("Value", "Constant", "Argument", "UndefValue"),
        "instructions": (
            "Opcode",
            "ICmpPredicate",
            "FCmpPredicate",
            "Instruction",
            "INT_BINARY_OPCODES",
            "FLOAT_BINARY_OPCODES",
            "SHIFT_OPCODES",
            "BITWISE_OPCODES",
            "CONVERSION_OPCODES",
            "COMPARISON_OPCODES",
            "TERMINATOR_OPCODES",
        ),
        "function": ("BasicBlock", "Function", "Module"),
        "builder": ("IRBuilder",),
        "verify": ("VerificationError", "verify_function", "verify_module"),
        "printer": ("print_function", "print_module"),
    },
)
