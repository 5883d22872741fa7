"""Block-structured MIR with a fused superinstruction backend.

Lowers a :class:`~repro.vm.engine.DecodedProgram` into extended basic
blocks (:mod:`repro.mir.lower`), compiles each loop-free straight-line
segment into an ``exec``-specialized superinstruction
(:mod:`repro.mir.fuse`) once the segment is hot, and caches the result per
program digest (:mod:`repro.mir.cache`).  The engine's ``block`` backend,
its one production configuration, dispatches whole segments through these
callables whenever the segment is hot, no fault is armed in-window, no
pause boundary intersects the segment, and the run has no sink — dropping
to the per-op loop otherwise, traced runs included, so the op loop remains
the only trace emitter and, pinned as ``backend="op"`` in the parity
tests, the bit-identity oracle.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("clear_digest_cache", "invalidate", "mir_program_for"),
        "lower": (
            "FUSABLE_BODY",
            "HOT_ENTRIES",
            "MirFunction",
            "MirProgram",
            "MirSegment",
            "SEGMENT_BARRIERS",
            "lower_function",
            "lower_program",
        ),
    },
)
