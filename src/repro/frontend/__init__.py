"""Kernel frontend: compiles a restricted Python subset to the MOARD IR.

The original MOARD instruments C/Fortran benchmarks with an LLVM pass.  This
reproduction instead lets workloads be written as ordinary Python functions
in a restricted "kernel" dialect (typed parameters, ``for``/``while``/``if``,
flat 1-D pointer indexing, scalar arithmetic, math intrinsics) which are then
compiled — via the CPython ``ast`` module — into the IR defined in
:mod:`repro.ir`.  Executing the compiled IR on the tracing VM produces the
dynamic instruction traces the aDVF analysis consumes.

Public API
----------
:func:`compile_kernel`, :func:`compile_kernels`,
:func:`compile_kernel_source`, :class:`KernelCompileError`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "errors": ("KernelCompileError",),
        "intrinsics": ("INTRINSICS", "IntrinsicInfo"),
        "compiler": (
            "compile_kernel",
            "compile_kernel_source",
            "compile_kernels",
        ),
    },
)
