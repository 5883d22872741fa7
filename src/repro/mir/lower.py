"""Lowering from :class:`~repro.vm.engine.DecodedProgram` into a block MIR.

The decoded engine executes one ``DecodedOp`` per Python loop iteration; the
dispatch overhead of that loop (operand resolution, fault-window checks,
per-op sink calls) is the hard floor under every golden run.  This module
lowers a decoded function into *extended basic blocks*: maximal loop-free
straight-line segments of slot-typed instructions.  A segment starts at any
executable pc, follows fall-through control flow, and — when an
unconditional branch targets a block with exactly one predecessor and no
phis — merges across the branch, so a chain ``body → tail → exit-check``
becomes a single segment even though the frontend split it into blocks.

Segments are a *partition* of the function's pc space: every pc belongs to
exactly one segment at exactly one offset, and
:meth:`MirFunction.location_of` / :meth:`MirFunction.pc_at` convert between
the two addressings losslessly.  Fault-site addressing, checkpoint
schedules, and trace dynamic ids all remain in op-index space; the MIR is
pure execution strategy.

Segments with at least two ops are *fused*: they may run as a
superinstruction (see :mod:`repro.mir.fuse`), an ``exec``-specialized Python
callable that executes the whole segment without touching the op loop.
Each variant is compiled only once the segment is hot: at the N-th entry
that wants it, N per variant in :data:`HOT_ENTRIES`
(:meth:`MirSegment.hot`).  Until then, for single-op segments and the
non-fusable ops (``ret``, user calls, ``phi``), and for every traced run
(traced runs record through the op loop only), the op loop runs the
segment's ops and doubles as the bit-identity oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vm.engine import (
    DecodedFunction,
    DecodedProgram,
    K_ALLOCA,
    K_BR,
    K_BR_COND,
    K_CALL_INTRINSIC,
    K_CALL_USER,
    K_FN,
    K_GEP,
    K_LOAD,
    K_PHI,
    K_RET,
    K_STORE,
)

#: Kinds that may appear in the interior of a fused segment.
FUSABLE_BODY = frozenset((K_FN, K_LOAD, K_STORE, K_GEP, K_ALLOCA, K_CALL_INTRINSIC))

#: Kinds that end a segment *before* themselves (executed by the op loop).
SEGMENT_BARRIERS = frozenset((K_RET, K_CALL_USER, K_PHI))

#: A fused segment compiles a superinstruction variant at the entry that
#: brings that variant's entry count to its value here; the entries before
#: it run in the op loop.  Short replays enter most segments only a few
#: times, where compiling costs more than the op loop it would replace.
#: ``plain`` compiles in about a third of the time of ``lanes`` (which
#: carries fault lanes per op).  Each campaign worker process counts its
#: own entries, so ``lanes`` stays low enough that a two-worker cg walk
#: still runs ~96% of its ops fused.  Traced runs never enter a segment:
#: they record through the op loop.
HOT_ENTRIES = {"plain": 2, "lanes": 8}


class MirSegment:
    """One straight-line segment: a run of pcs executed as a unit.

    ``pcs`` lists the op-index of every op in execution order (contiguous
    within a block; EBB merges jump to the start of the merged block).
    ``plain`` / ``lanes`` are the compiled superinstruction variants,
    ``None`` until compiled (always, for unfused segments).  A variant
    compiles at the N-th dispatch-site entry that wants it, N per variant in
    :data:`HOT_ENTRIES` (:meth:`hot`): ``plain`` for sink-free runs and
    for batch-walk entries no divergence reaches, ``lanes`` for
    batch-walk entries that carry divergence.  The entry counts and the
    compiled variants live on the digest-shared origin segment, so the
    digest cache's clones of one program pool their heat and share one
    compile (see :func:`repro.mir.cache._clone_for`).

    ``live_in`` lists the register slots the segment reads before writing
    them (in first-read order) and ``first_write`` maps every slot it writes
    to the offset of its (SSA: only) definition: the ``lanes`` variant reads
    the divergence maps of the first on entry and writes a stopped prefix's
    registers back from the second.
    """

    __slots__ = (
        "index",
        "start_pc",
        "pcs",
        "n_ops",
        "fused",
        "plain",
        "lanes",
        "live_in",
        "first_write",
        "_df",
        "_origin",
        "_heat",
    )

    def __init__(self, index: int, pcs: Tuple[int, ...], fused: bool, df: DecodedFunction):
        self.index = index
        self.start_pc = pcs[0]
        self.pcs = pcs
        self.n_ops = len(pcs)
        self.fused = fused
        self.plain = None
        self.lanes = None
        self._df = df
        #: segment whose heat and compiled ``plain``/``lanes`` this one
        #: shares (digest cache)
        self._origin = None
        #: variant -> entries that wanted it (read on the origin only)
        self._heat = {"plain": 0, "lanes": 0}
        ops = df.ops
        live_in: List[int] = []
        first_write: Dict[int, int] = {}
        for offset, pc in enumerate(pcs):
            op = ops[pc]
            for slot in op.src:
                if slot >= 0 and slot not in first_write and slot not in live_in:
                    live_in.append(slot)
            if op.dest >= 0 and op.dest not in first_write:
                first_write[op.dest] = offset
        self.live_in: Tuple[int, ...] = tuple(live_in)
        self.first_write = first_write

    def hot(self, variant: str):
        """Count one entry that wants ``variant`` ("plain" or "lanes");
        return its callable, compiling it at the variant's
        :data:`HOT_ENTRIES`-th entry, or ``None`` while the segment is cold
        (the caller runs the op loop instead)."""
        heat = (self._origin or self)._heat
        entries = heat[variant] + 1
        heat[variant] = entries
        if entries < HOT_ENTRIES[variant]:
            return None
        return self.compile(variant)

    def compile(self, variant: str):
        """Compile ``variant`` ("plain" or "lanes") now, once per program:
        the callable is cached on the origin segment, so the digest cache's
        clones pick it up instead of compiling again."""
        shared = self._origin or self
        fn = getattr(shared, variant)
        if fn is None:
            from repro.mir.fuse import compile_segment

            fn = compile_segment(shared._df, shared, variant)
            setattr(shared, variant, fn)
        setattr(self, variant, fn)
        return fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "fused" if self.fused else "plain-loop"
        return f"<MirSegment #{self.index} pcs={self.pcs[0]}..{self.pcs[-1]} n={self.n_ops} {tag}>"


class MirFunction:
    """All segments of one decoded function plus the two addressings."""

    __slots__ = ("name", "df", "segments", "dispatch", "_loc")

    def __init__(self, df: DecodedFunction, segments: List[MirSegment]):
        self.name = df.name
        self.df = df
        self.segments = segments
        n = len(df.ops)
        # op-index -> (segment, offset); total over all pcs by construction.
        loc: List[Optional[Tuple[int, int]]] = [None] * n
        for seg in segments:
            for offset, pc in enumerate(seg.pcs):
                loc[pc] = (seg.index, offset)
        self._loc = loc
        # Fast-path dispatch table: a fused segment at its *entry* pc, None
        # everywhere else.  Resuming mid-segment (checkpoints land anywhere)
        # simply misses the table and runs the op loop until the next entry.
        dispatch: List[Optional[MirSegment]] = [None] * n
        for seg in segments:
            if seg.fused:
                dispatch[seg.start_pc] = seg
        self.dispatch = dispatch

    def location_of(self, pc: int) -> Tuple[int, int]:
        """Map an op index to its ``(segment_index, offset)``."""
        return self._loc[pc]

    def pc_at(self, segment_index: int, offset: int) -> int:
        """Map ``(segment_index, offset)`` back to the op index."""
        return self.segments[segment_index].pcs[offset]


class MirProgram:
    """Lowered form of a whole decoded program."""

    __slots__ = ("functions",)

    def __init__(self, functions: Dict[str, MirFunction]):
        self.functions = functions


def _block_meta(df: DecodedFunction) -> Tuple[List[int], List[int]]:
    """Per-block start pcs and predecessor counts (entry gets an implicit one)."""
    nblocks = len(df.block_labels)
    block_start = [-1] * nblocks
    preds = [0] * nblocks
    if nblocks:
        preds[0] += 1  # function entry edge
    for pc, op in enumerate(df.ops):
        bi = op.block_index
        if block_start[bi] < 0:
            block_start[bi] = pc
        kind = op.kind
        if kind == K_BR:
            preds[op.block_true] += 1
        elif kind == K_BR_COND:
            preds[op.block_true] += 1
            preds[op.block_false] += 1
    return block_start, preds


def lower_function(df: DecodedFunction) -> MirFunction:
    """Partition ``df`` into segments (none compiled yet: see :meth:`MirSegment.hot`)."""
    ops = df.ops
    n = len(ops)
    block_start, preds = _block_meta(df)
    covered = [False] * n
    segments: List[MirSegment] = []

    for pc0 in range(n):
        if covered[pc0]:
            continue
        if ops[pc0].kind in SEGMENT_BARRIERS:
            covered[pc0] = True
            segments.append(MirSegment(len(segments), (pc0,), False, df))
            continue

        pcs: List[int] = []
        visited_blocks = {ops[pc0].block_index}
        pc = pc0
        while True:
            op = ops[pc]
            kind = op.kind
            if kind in FUSABLE_BODY:
                pcs.append(pc)
                pc += 1
                continue
            if kind == K_BR_COND:
                pcs.append(pc)
                break
            if kind == K_BR:
                target = op.block_true
                target_pc = block_start[target]
                if (
                    preds[target] == 1
                    and target not in visited_blocks
                    and not covered[target_pc]
                    and ops[target_pc].kind != K_PHI
                ):
                    # EBB merge: the branch is the sole way into ``target``
                    # and the merge stays loop-free, so fall through it.
                    pcs.append(pc)
                    visited_blocks.add(target)
                    pc = target_pc
                    continue
                pcs.append(pc)
                break
            # ret / user call / phi: segment ends just before it and the op
            # loop picks up at this pc (the codegen's static exit).
            break

        for covered_pc in pcs:
            covered[covered_pc] = True
        segments.append(MirSegment(len(segments), tuple(pcs), len(pcs) >= 2, df))

    return MirFunction(df, segments)


def lower_program(decoded: DecodedProgram) -> MirProgram:
    """Lower every function of a decoded program."""
    return MirProgram({name: lower_function(df) for name, df in decoded.functions.items()})
