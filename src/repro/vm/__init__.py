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
:class:`~repro.vm.engine.ExecutionResult` and its
:class:`~repro.vm.engine.Snapshot`, the one captured-state type (call-stack
copies plus a copy-on-write :meth:`~repro.vm.memory.Memory.fork`, restored
only by :meth:`~repro.vm.engine.Engine.prepare_resume`),
:class:`~repro.vm.faults.FaultSpec`, the error types in
:mod:`repro.vm.errors`, and the bit-manipulation helpers in
:mod:`repro.vm.bits`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "bits": (
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
        ),
        "errors": (
            "VMError",
            "SegmentationFault",
            "StepLimitExceeded",
            "ArithmeticFault",
            "UnknownIntrinsic",
        ),
        "faults": ("FaultSpec", "FaultTarget"),
        "memory": ("DataObject", "Memory"),
        "engine": (
            "DecodedProgram",
            "Engine",
            "ExecutionResult",
            "Snapshot",
            "prepare_arguments",
        ),
        "registers": (
            "RegisterAllocation",
            "RegisterFile",
            "allocate_registers",
        ),
    },
)
