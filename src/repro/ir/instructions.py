"""Instruction set of the MOARD reproduction IR.

The opcode vocabulary deliberately mirrors LLVM so the operation-level
masking rules of the paper (§III-C) transfer directly:

* ``store``/``trunc``/shifts are *value overwriting* candidates,
* ``and``/``or``/``xor``/``icmp``/``fcmp``/``select``/``br`` are the
  *logic & comparison* class,
* ``fadd``/``fsub``/``add``/``sub`` are *value overshadowing* candidates,
* everything else propagates errors.

Instructions are :class:`~repro.ir.values.Value` subclasses (SSA style); an
instruction with a ``void`` result type (``store``, ``br``, ``ret``) never
appears as an operand.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.ir.types import IRType
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import BasicBlock


class Opcode(enum.Enum):
    """Every operation the IR (and therefore the VM and the analyses) knows."""

    # memory
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GEP = "getelementptr"

    # integer arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"

    # shifts and bitwise logic
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    AND = "and"
    OR = "or"
    XOR = "xor"

    # floating point arithmetic
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FREM = "frem"
    FNEG = "fneg"

    # conversions
    TRUNC = "trunc"
    ZEXT = "zext"
    SEXT = "sext"
    FPTOSI = "fptosi"
    SITOFP = "sitofp"
    FPTRUNC = "fptrunc"
    FPEXT = "fpext"
    BITCAST = "bitcast"

    # comparisons / selection
    ICMP = "icmp"
    FCMP = "fcmp"
    SELECT = "select"

    # control flow
    BR = "br"
    RET = "ret"
    CALL = "call"
    PHI = "phi"


class ICmpPredicate(enum.Enum):
    """Signed/equality integer comparison predicates."""

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"


class FCmpPredicate(enum.Enum):
    """Ordered floating-point comparison predicates."""

    OEQ = "oeq"
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"


#: Opcode groups used throughout the masking analysis.
INT_BINARY_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.UDIV,
        Opcode.SREM,
        Opcode.UREM,
        Opcode.SHL,
        Opcode.LSHR,
        Opcode.ASHR,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)
FLOAT_BINARY_OPCODES = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM}
)
SHIFT_OPCODES = frozenset({Opcode.SHL, Opcode.LSHR, Opcode.ASHR})
BITWISE_OPCODES = frozenset({Opcode.AND, Opcode.OR, Opcode.XOR})
CONVERSION_OPCODES = frozenset(
    {
        Opcode.TRUNC,
        Opcode.ZEXT,
        Opcode.SEXT,
        Opcode.FPTOSI,
        Opcode.SITOFP,
        Opcode.FPTRUNC,
        Opcode.FPEXT,
        Opcode.BITCAST,
    }
)
COMPARISON_OPCODES = frozenset({Opcode.ICMP, Opcode.FCMP})
TERMINATOR_OPCODES = frozenset({Opcode.BR, Opcode.RET})
ADDITIVE_OPCODES = frozenset({Opcode.ADD, Opcode.SUB, Opcode.FADD, Opcode.FSUB})


class Instruction(Value):
    """A single IR instruction.

    Attributes
    ----------
    opcode:
        The :class:`Opcode`.
    operands:
        Ordered operand values.  Operand conventions:

        * ``STORE``: ``[value, pointer]``
        * ``LOAD``: ``[pointer]``
        * ``GEP``: ``[pointer, index]``
        * binary ops: ``[lhs, rhs]``
        * ``ICMP``/``FCMP``: ``[lhs, rhs]`` plus :attr:`predicate`
        * ``SELECT``: ``[cond, if_true, if_false]``
        * ``BR``: ``[]`` (unconditional) or ``[cond]``; targets in
          :attr:`targets`
        * ``RET``: ``[]`` or ``[value]``
        * ``CALL``: argument values; callee name in :attr:`callee`
        * ``PHI``: incoming values; blocks in :attr:`incoming_blocks`
    """

    __slots__ = (
        "opcode",
        "operands",
        "predicate",
        "targets",
        "callee",
        "incoming_blocks",
        "alloca_count",
        "parent",
        "source_line",
    )

    def __init__(
        self,
        opcode: Opcode,
        result_type: IRType,
        operands: Sequence[Value],
        name: str = "",
        predicate: Optional[enum.Enum] = None,
        targets: Optional[List["BasicBlock"]] = None,
        callee: Optional[str] = None,
        incoming_blocks: Optional[List["BasicBlock"]] = None,
        alloca_count: int = 1,
        source_line: Optional[int] = None,
    ) -> None:
        super().__init__(result_type, name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.predicate = predicate
        self.targets: List["BasicBlock"] = list(targets) if targets else []
        self.callee = callee
        self.incoming_blocks: List["BasicBlock"] = (
            list(incoming_blocks) if incoming_blocks else []
        )
        self.alloca_count = alloca_count
        #: The basic block that owns this instruction (set on insertion).
        self.parent: Optional["BasicBlock"] = None
        #: Kernel-source line this instruction was generated from, if known.
        self.source_line = source_line

    # ------------------------------------------------------------------ #
    # classification helpers used by the VM and the analyses
    # ------------------------------------------------------------------ #
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_binary(self) -> bool:
        return self.opcode in INT_BINARY_OPCODES or self.opcode in FLOAT_BINARY_OPCODES

    @property
    def has_result(self) -> bool:
        return not self.type.is_void

    # convenient accessors --------------------------------------------- #
    @property
    def pointer_operand(self) -> Value:
        if self.opcode is Opcode.STORE:
            return self.operands[1]
        if self.opcode in (Opcode.LOAD, Opcode.GEP):
            return self.operands[0]
        raise TypeError(f"{self.opcode} has no pointer operand")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(op.short() for op in self.operands)
        pred = f" {self.predicate.value}" if self.predicate else ""
        return f"<{self.opcode.value}{pred} {ops}>"
