"""Algorithm-based fault tolerance helpers (§VI case study).

The ABFT-protected kernels themselves live with their workloads
(:mod:`repro.workloads.matmul`, :mod:`repro.workloads.particle_filter`);
this package provides the NumPy-level checksum encoder/decoder used by the
tests and examples to reason about ABFT independently of the IR pipeline.

Public API
----------
:func:`~repro.abft.checksums.encode_row_checksums`,
:func:`~repro.abft.checksums.encode_column_checksums`,
:func:`~repro.abft.checksums.locate_single_error`,
:func:`~repro.abft.checksums.correct_single_error`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "checksums": (
            "correct_single_error",
            "encode_column_checksums",
            "encode_row_checksums",
            "locate_single_error",
            "verify_product",
        ),
    },
)
