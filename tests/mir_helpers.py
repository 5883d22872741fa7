"""Test helpers for the MIR superinstruction backend.

A fused segment compiles each superinstruction variant only once it is hot
(:data:`repro.mir.HOT_ENTRIES` entries that want it), so a short run
may execute a segment in the op loop from start to end.  Tests that pin
behaviour of the compiled code either warm the program first
(:func:`compile_all`) or check that the block backend really dispatched a
fused segment (:func:`segment_dispatches`), so a parity check can never end
up comparing the op loop with itself.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.mir import clear_digest_cache, invalidate, mir_program_for
from repro.obs.metrics import configure, registry
from repro.vm.engine import DecodedProgram


def compile_all(module) -> int:
    """Compile the ``plain``, ``traced`` and ``lanes`` variants of every
    fused segment of ``module``'s lowered program, through the segments'
    own compile methods; returns the number of fused segments."""
    program = mir_program_for(DecodedProgram.of(module))
    fused = 0
    for function in program.functions.values():
        for seg in function.segments:
            if seg.fused:
                seg.compile_plain()
                if seg.traced is None:
                    seg.compile_traced()
                seg.compile_lanes()
                fused += 1
    return fused


def cold(module=None) -> None:
    """Forget every compiled program, so the next lowering starts cold:
    the process-wide digest table and ``module``'s own cached program."""
    clear_digest_cache()
    if module is not None:
        invalidate(module)


@contextmanager
def segment_dispatches():
    """Count the fused-segment dispatches of the block backend's runs
    (``Engine.run``/``resume``) inside the ``with`` body.

    Yields a one-element list that holds the count once the body exits.
    Reads the metrics registry, enabling it for the body if it is off.
    """
    reg = registry()
    disabled = not reg.enabled
    if disabled:
        reg = configure(True)
    before = reg.counter_value("engine.segment_dispatches", backend="block")
    count = [0]
    try:
        yield count
    finally:
        count[0] = (
            reg.counter_value("engine.segment_dispatches", backend="block") - before
        )
        if disabled:
            configure(False)
