"""Block-structured MIR with a fused superinstruction backend.

Lowers a :class:`~repro.vm.engine.DecodedProgram` into extended basic
blocks (:mod:`repro.mir.lower`), compiles each loop-free straight-line
segment into an ``exec``-specialized superinstruction
(:mod:`repro.mir.fuse`) once the segment is hot, and caches the result per
program digest (:mod:`repro.mir.cache`).  The engine's ``backend="block"``
fast path dispatches whole segments through these callables whenever the
segment is hot, no fault is armed in-window, no pause boundary intersects
the segment, and the sink (if any) supports bulk appends — dropping to the
per-op loop otherwise, so the op loop remains the bit-identity oracle.
"""

from repro.mir.cache import clear_digest_cache, invalidate, mir_program_for
from repro.mir.lower import (
    FUSABLE_BODY,
    HOT_ENTRIES,
    MirFunction,
    MirProgram,
    MirSegment,
    SEGMENT_BARRIERS,
    lower_function,
    lower_program,
)

__all__ = [
    "FUSABLE_BODY",
    "HOT_ENTRIES",
    "MirFunction",
    "MirProgram",
    "MirSegment",
    "SEGMENT_BARRIERS",
    "clear_digest_cache",
    "invalidate",
    "lower_function",
    "lower_program",
    "mir_program_for",
]
