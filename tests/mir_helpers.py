"""Test helpers for the MIR superinstruction backend.

A fused segment compiles each superinstruction variant only once it is hot
(:data:`repro.mir.HOT_ENTRIES` entries that want it), so a short run
may execute a segment in the op loop from start to end.  Tests that pin
behaviour of the compiled code either warm the program first
(:func:`compile_all`) or check that the block backend really dispatched a
fused segment (:func:`segment_dispatches`), so a parity check can never end
up comparing the op loop with itself.

The engine's backend is a constructor argument only.  A test that builds
its engines indirectly (through a workload, a replay context or an
injector) picks the backend they default to with :func:`engine_backend`;
the suite-wide ``--engine-backend`` option sets the same default.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partialmethod

import pytest

from repro.mir import clear_digest_cache, invalidate, mir_program_for
from repro.obs.metrics import configure, registry
from repro.vm.engine import DecodedProgram, Engine


def default_engine_backend(backend: str) -> partialmethod:
    """``Engine.__init__`` with ``backend`` as its default backend; an
    explicit ``backend=`` argument still wins."""
    return partialmethod(Engine.__init__, backend=backend)


@contextmanager
def engine_backend(backend: str):
    """Build every :class:`Engine` that names no backend inside the
    ``with`` body on ``backend`` (worker processes forked meanwhile
    inherit it)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "__init__", default_engine_backend(backend))
        yield


def compile_all(module) -> int:
    """Compile the ``plain`` and ``lanes`` variants of every fused segment
    of ``module``'s lowered program, through the segments' own compile
    method; returns the number of fused segments."""
    program = mir_program_for(DecodedProgram.of(module))
    fused = 0
    for function in program.functions.values():
        for seg in function.segments:
            if seg.fused:
                seg.compile("plain")
                seg.compile("lanes")
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
    (``Engine.run``/``resume``) inside the ``with`` body, and the segment
    variants compiled meanwhile.

    Yields a two-element list that holds ``[dispatches, compiles]`` once
    the body exits.  Reads the metrics registry, enabling it for the body if
    it is off.
    """
    reg = registry()
    disabled = not reg.enabled
    if disabled:
        reg = configure(True)

    def read():
        return (
            reg.counter_value("engine.segment_dispatches"),
            reg.counter_total("mir.segment_compiles"),
        )

    before = read()
    count = [0, 0]
    try:
        yield count
    finally:
        count[:] = [now - then for now, then in zip(read(), before)]
        if disabled:
            configure(False)
