"""Tracing virtual machine for the MOARD IR.

The VM plays the role of the instrumented native execution in the original
MOARD tool-chain: it executes compiled kernels against a flat,
byte-addressable memory populated with named *data objects*, and emits a
dynamic instruction trace (see :mod:`repro.tracing`) carrying operand
values, producer links and memory-address → data-object resolution.  It also
hosts the deterministic bit-flip fault hooks used by the fault injectors in
:mod:`repro.core`.

Public API
----------
:class:`~repro.vm.memory.Memory`, :class:`~repro.vm.memory.DataObject`,
the pre-decoded :class:`~repro.vm.engine.Engine` (the one executor) with
its :class:`~repro.vm.engine.Snapshot` checkpoints and
:class:`~repro.vm.engine.ExecutionResult`,
:class:`~repro.vm.faults.FaultSpec`, the error types in
:mod:`repro.vm.errors`, and the bit-manipulation helpers in
:mod:`repro.vm.bits`.
"""

from repro.vm.bits import (
    bit_width_of,
    bits_to_value,
    flip_bit,
    float32_from_bits,
    float32_to_bits,
    float64_from_bits,
    float64_to_bits,
    to_signed,
    to_unsigned,
    value_to_bits,
)
from repro.vm.errors import (
    VMError,
    SegmentationFault,
    StepLimitExceeded,
    ArithmeticFault,
    UnknownIntrinsic,
)
from repro.vm.faults import FaultSpec, FaultTarget
from repro.vm.memory import DataObject, Memory, MemoryImage
from repro.vm.engine import (
    DecodedProgram,
    Engine,
    ExecutionResult,
    Snapshot,
    prepare_arguments,
)
from repro.vm.registers import RegisterAllocation, RegisterFile, allocate_registers

__all__ = [
    "bit_width_of",
    "bits_to_value",
    "flip_bit",
    "float32_from_bits",
    "float32_to_bits",
    "float64_from_bits",
    "float64_to_bits",
    "to_signed",
    "to_unsigned",
    "value_to_bits",
    "VMError",
    "SegmentationFault",
    "StepLimitExceeded",
    "ArithmeticFault",
    "UnknownIntrinsic",
    "FaultSpec",
    "FaultTarget",
    "DataObject",
    "Memory",
    "MemoryImage",
    "ExecutionResult",
    "prepare_arguments",
    "DecodedProgram",
    "Engine",
    "Snapshot",
    "RegisterAllocation",
    "RegisterFile",
    "allocate_registers",
]
