"""Per-process compiled-MIR cache keyed by the program's print digest.

Campaign workers rebuild the same workload module over and over (fresh
instances, worker processes, protected variants); lowering and
superinstruction codegen are pure functions of the *printed IR*, so the
lowered program (and whatever of it has been compiled) is cached twice
over:

* on the module object itself (same fast-attribute idiom as
  ``DecodedProgram.of``), invalidated together with the decode cache;
* in a process-wide digest-keyed table, so structurally identical modules
  (same workload recompiled) share one compiled program: every variant a
  clone runs is the template's callable.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.printer import module_digest
from repro.mir.lower import MirFunction, MirProgram, MirSegment, lower_program
from repro.obs.metrics import registry as _metrics_registry
from repro.vm.engine import DecodedProgram

_CACHE_ATTR = "_mir_program_cache"

#: digest -> lowered program (process-wide).
_MIR_CACHE: Dict[bytes, MirProgram] = {}


def _clone_for(template: MirProgram, decoded: DecodedProgram) -> Optional[MirProgram]:
    """Rebind a digest-cached program to another (identical) module.

    The expensive parts — segmentation and the *plain* and *lanes*
    superinstruction callables — are pure functions of the printed IR.
    Each clone segment points at its template segment (``_origin``): the
    entry counts that decide when a variant is hot are kept there, so every
    clone of one program adds to the same counts, and each variant is
    compiled once, on the template, and picked up by a clone at its first
    entry after that (:meth:`~repro.mir.lower.MirSegment.hot`).  No
    compiled code embeds a module's trace identities (``static_uid`` is a
    process-global counter, different per module instance): traced runs
    record through the op loop on the clone's own decode.
    """
    if set(template.functions) != set(decoded.functions):
        return None  # digest collision or stale entry: lower from scratch
    functions = {}
    for name, df in decoded.functions.items():
        tf = template.functions[name]
        if tf.segments and tf.segments[-1].pcs[-1] >= len(df.ops):
            return None
        segments = []
        for tseg in tf.segments:
            seg = MirSegment(tseg.index, tseg.pcs, tseg.fused, df)
            seg._origin = tseg
            segments.append(seg)
        functions[name] = MirFunction(df, segments)
    return MirProgram(functions)


def mir_program_for(decoded: DecodedProgram) -> MirProgram:
    """The lowered form of ``decoded`` (its segments compile when hot)."""
    module = decoded.module
    cached = getattr(module, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    digest = module_digest(module)
    template = _MIR_CACHE.get(digest)
    reg = _metrics_registry()
    if template is None:
        if reg.enabled:
            reg.inc("mir_cache.misses")
        program = lower_program(decoded)
        _MIR_CACHE[digest] = program
    else:
        program = _clone_for(template, decoded)
        if program is None:
            if reg.enabled:
                reg.inc("mir_cache.misses")
            program = lower_program(decoded)
            _MIR_CACHE[digest] = program
        elif reg.enabled:
            reg.inc("mir_cache.hits")
    setattr(module, _CACHE_ATTR, program)
    return program


def invalidate(module) -> None:
    """Drop the per-module cache (call after mutating the module's IR)."""
    if hasattr(module, _CACHE_ATTR):
        delattr(module, _CACHE_ATTR)


def clear_digest_cache() -> None:
    """Drop the process-wide digest table (test isolation hook)."""
    _MIR_CACHE.clear()
