"""Superinstruction codegen: straight-line segments → specialized Python.

Each fused :class:`~repro.mir.lower.MirSegment` is compiled — once per
decoded program, which keeps it — into an ``exec``-specialized
callable that executes the whole segment without per-op dispatch.  Each
variant below is compiled only once the segment is hot
(:meth:`~repro.mir.lower.MirSegment.hot`); the entries before it run in the
op loop, as every unfused segment and mid-segment resume does.  The
generated code *inlines* the engine's semantics (operand resolution, the
masking arithmetic of :mod:`repro.vm.semantics`, the address resolution and
access checks of :mod:`repro.vm.memory`) so the op loop remains the single
source of truth only in the sense of an oracle: every inlined rule mirrors
one rule there bit-exactly, including error types, error messages, and
evaluation order.  The differential fuzz harness (``tests/test_mir_parity``)
and the benchmark bit-identity gate hold the two implementations together;
``tests/test_walk_fused`` holds the *lanes* variant to the op loop's batch
walk and to from-scratch faulty runs.

Two variants per segment (a traced run never enters one: traced runs
record through the op loop, the only trace emitter):

* **plain** — ``fn(frame, regs, memory, cell) -> next_pc``; used for
  sink-free runs and by the lockstep batch walk where no divergence can
  reach the segment.
* **lanes** — ``fn(frame, regs, memory, cell, fdiv, cells, walk, stop) ->
  pc``; the batch walk's
  (:meth:`~repro.vm.engine.Engine.resume_many`) variant for segments that
  divergence reaches.  Golden ops run exactly as in *plain*.  An op whose
  operands (the frame's ``fdiv`` map, values defined earlier in the
  segment) or loaded cell (``cells``) diverge also gets each affected
  fault's value through one shared helper, :func:`_lanes`: it calls the
  op's per-fault expression — a small function compiled once per distinct
  expression text and shared by every segment of the process (the op's
  own evaluator for intrinsics and rare ops) — with the fault's operands
  swapped in, and keeps a value only if it is not bit-equal to golden
  under the op loop's own rule
  (:func:`~repro.vm.engine._values_bit_equal`).  ``frame.div``, ``cells``
  and the per-fault divergence counts (``walk``, a
  :class:`~repro.vm.engine.LaneWalk`) are updated op by op with the op
  loop's rule (``engine._rebase``), each by one guarded call, and a fault
  whose last divergence dies resolves golden at that op.  Memory accesses
  resolve through the op loop's own ``Memory.resolve``: only *plain*, the
  golden path, inlines the common case.

Neither variant stores a progress counter per op.  Every generated source
line belongs to one op offset, and a per-segment line table (``D``) maps
the line an exception passed through (``exc.__traceback__.tb_lineno``) to
the offset of the op it interrupted: the number of ops fully executed.

Stop protocol (*lanes*): the body stops *before* the first op it cannot
carry — a fault arming there (offset ``stop``), a load/store address or a
branch direction diverging (the op loop carries a load address and evicts
the others), or any evaluation raising
(the op loop re-runs the op and classifies the error).  The handler reads
the stop op's offset from the line table, writes back the registers the
completed prefix defined (by their first-write offsets) and
``prev_block``, stores the prefix length in ``cell[0]`` and the cause in
``cell[1]`` and returns the stop op's pc; the op loop runs the rest of the
segment.  When the walk's last in-flight fault resolves and none is left to
arm (``walk.last``), the body ends after that op with cause ``LANE_END``.

Crash protocol (*plain*): on any exception the handler stores the
crashing op's offset (from the line table) into the caller's ``cell`` and
re-raises, so the engine can advance ``dyn`` by the completed prefix — the
op loop's exact accounting (a crashing op contributes no step).  Register
writeback is deferred to segment success; memory effects happen in place,
matching the op loop's ordering observable at any crash or pause boundary
(pauses never land mid-segment, and a crash pops the frames anyway).
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ir.instructions import Opcode
from repro.ir.types import IRType
from repro.obs.metrics import registry as _metrics_registry
from repro.vm.engine import (
    DecodedFunction,
    K_ALLOCA,
    K_BR,
    K_BR_COND,
    K_CALL_INTRINSIC,
    K_FN,
    K_GEP,
    K_LOAD,
    K_STORE,
    LANE_END,
    LANE_ERROR,
    LANE_EVICT,
    LANE_ARM,
    _UNDEF,
    _rebase,
    _values_bit_equal,
)
from repro.vm.errors import SegmentationFault, VMError
from repro.vm.memory import Memory
from repro.vm.semantics import float_divide, float_remainder

_INT_BIN = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_BITWISE = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_FLOAT_BIN = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_ICMP_OPS = {
    "eq": "==", "ne": "!=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
_ICMP_UNSIGNED = frozenset(("ult", "ule", "ugt", "uge"))
_FCMP_OPS = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

_INF = float("inf")

#: The ``lanes`` variant's "no divergence" map: read-only, so no code path
#: can ever store a fault into the shared instance.
_NO_LANES = MappingProxyType({})

#: Globals of the per-fault expression functions (see :func:`_lane_function`).
_LANE_GLOBALS = {"_fdiv": float_divide, "_frem": float_remainder, "_f32": np.float32}

#: Expression source -> compiled per-fault function, shared process-wide.
_LANE_FUNCTIONS: Dict[str, Callable] = {}


class _Halt(Exception):
    """Raised inside a ``lanes`` body to stop; ``cause`` says why."""

    cause = 0


class _Arm(_Halt):
    cause = LANE_ARM


class _Evict(_Halt):
    cause = LANE_EVICT


class _End(_Halt):
    cause = LANE_END


def _lane_function(lines: List[str], nargs: int) -> Callable:
    """``fn(values) -> r`` running ``lines`` over ``a0 .. a{nargs-1}``.

    Compiled once per distinct source and shared by every segment: the
    expression text holds only the op's shape (opcode, masks, known operand
    kinds), never its operands or pool entries.
    """
    params = ", ".join(f"a{i}" for i in range(nargs))
    source = "\n    ".join(
        ["def _lane(v):", f"{params}, = v", *lines, "return r"]
    ) + "\n"
    fn = _LANE_FUNCTIONS.get(source)
    if fn is None:
        namespace = dict(_LANE_GLOBALS)
        exec(compile(source, "<mir:lane>", "exec"), namespace)
        fn = _LANE_FUNCTIONS[source] = namespace["_lane"]
    return fn


def _lanes(fn, golden, values, lanes) -> Dict[int, object]:
    """Each affected fault's value of one op, kept where it is not bit-equal
    to ``golden`` (:func:`~repro.vm.engine._values_bit_equal`, the op loop's
    rule).

    ``values`` are the op's golden operand values (a fresh list, reused as
    scratch); ``lanes`` pairs operand positions with the divergence map
    (``{fault: value}``) of each diverging operand.  A fault computes
    ``fn(values)`` with its own value at every position it diverges in.
    A value unequal to golden that is not a NaN differs bit-wise too, so
    only the rest (equal values, NaNs) go through the rule itself.
    """
    new = {}
    if len(lanes) == 1:
        position, m = lanes[0]
        for f, q in m.items():
            values[position] = q
            r = fn(values)
            if (r != golden and r == r) or not _values_bit_equal(r, golden):
                new[f] = r
        return new
    base = tuple(values)
    faults = set()
    for _, m in lanes:
        faults.update(m)
    for f in faults:
        values[:] = base
        for position, m in lanes:
            if f in m:
                values[position] = m[f]
        r = fn(values)
        if (r != golden and r == r) or not _values_bit_equal(r, golden):
            new[f] = r
    return new


def _turns(lanes, cond) -> bool:
    """Does any fault's branch condition in ``lanes`` take the other way?"""
    gb = not cond
    for q in lanes.values():
        if (not q) is not gb:
            return True
    return False


def _resolve(drained, walk, at) -> None:
    """Resolve golden the faults whose last divergence died at dynamic id
    ``at``; raise :class:`_End` when none is left in flight and none is left
    to arm (``walk.last``): the walk ends after this op."""
    for f in drained:
        walk.resolve_golden(f, at)
    if walk.last and not walk.active:
        raise _End


def _reslot(fdiv, slot, new, walk, j) -> None:
    """Op ``j``'s replacement of its destination's divergence map."""
    old = fdiv.pop(slot, None)
    drained = []
    _rebase(old, new, walk.div_count, drained)
    if new:
        fdiv[slot] = new
    if drained:
        _resolve(drained, walk, walk.dyn + j)


def _recell(cells, name, index, new, walk, j) -> None:
    """Store ``j``'s update of ``cells[name][index]``.

    Empty per-object maps are dropped, so an empty ``cells`` keeps meaning
    "no live cell divergence".
    """
    cmap = cells.get(name)
    old = cmap.pop(index, None) if cmap else None
    drained = []
    _rebase(old, new, walk.div_count, drained)
    if new:
        cells.setdefault(name, {})[index] = new
    elif not cmap:
        cells.pop(name, None)
    if drained:
        _resolve(drained, walk, walk.dyn + j)


def _cell_lanes(cells, obj, index):
    """A load's per-fault values: a copy of the loaded cell's divergence map.

    A store keeps only the lanes that differ from the golden value it writes
    and every fault stores where golden does, so no entry equals the loaded
    golden value.  The copy keeps register and cell maps distinct objects.
    """
    cmap = cells.get(obj.name)
    lanes = cmap.get(index) if cmap else None
    return dict(lanes) if lanes else _NO_LANES


def _write_back(frame, regs, names, done, writes, branches) -> None:
    """Stop protocol: the completed prefix's registers and ``prev_block``.

    ``writes`` lists ``(slot, local name, first-write offset)`` and
    ``branches`` ``(offset, block)``, both by offset; ``names`` are the
    ``lanes`` body's locals.
    """
    for slot, name, offset in writes:
        if offset >= done:
            break
        regs[slot] = names[name]
    for offset, block in branches:
        if offset >= done:
            break
        frame.prev_block = block


class _Resolved:
    """Codegen-time record of an already-resolved address expression.

    Within one segment no allocation is released and fresh allocations only
    extend the address map in place, so ``address -> (object, index)`` is
    stable: repeated accesses through the same address expression reuse the
    first resolution and only (re-)validate the access *type*.
    """

    __slots__ = ("avar", "ovar", "eivar", "etvar", "checked", "fresh")

    def __init__(self, avar, ovar, eivar, etvar, checked, fresh):
        self.avar = avar
        self.ovar = ovar
        self.eivar = eivar
        # None when no element-type local is bound (statically known type,
        # or a ``lanes`` resolution)
        self.etvar = etvar
        self.checked: Set[IRType] = checked
        self.fresh = fresh  # object allocated inside this segment (no CoW)


class _Emitter:
    def __init__(self, df: DecodedFunction, seg, variant: str):
        self.df = df
        self.seg = seg
        self.lanes = variant == "lanes"
        self.lines: List[str] = []
        #: offset of the op each line of ``lines`` belongs to (line table)
        self.line_offsets: List[int] = []
        self.offset = 0
        self.pool: List[object] = []
        self._pool_ids: Dict[int, int] = {}
        self.slot_name: Dict[int, str] = {}
        self.defined: Set[int] = set()  # slots this segment writes
        self.int_names: Set[str] = set()
        self.float_names: Set[str] = set()
        self.memo: Dict[str, _Resolved] = {}
        self.uses_mem = False
        self.uses_alloca = False
        self.last_branch_block: Optional[int] = None
        self.exit_expr: Optional[str] = None
        # lanes only: slot -> expression of its divergence map (None when
        # the slot cannot diverge: an alloca, or a value computed from
        # constants only), and the (offset, block) of every branch for the
        # stop writeback
        self.map_name: Dict[int, Optional[str]] = {}
        self.evict_checked: Set[str] = set()
        self.branches: List[Tuple[int, int]] = []

    # -------------------------------------------------------------- #
    # small helpers
    # -------------------------------------------------------------- #
    def emit(self, line: str) -> None:
        self.lines.append(line)
        self.line_offsets.append(self.offset)

    def p(self, obj: object) -> str:
        """Pool a static object; return its access expression."""
        key = id(obj)
        index = self._pool_ids.get(key)
        if index is None:
            index = len(self.pool)
            self.pool.append(obj)
            self._pool_ids[key] = index
        return f"P[{index}]"

    def const_expr(self, value) -> Tuple[str, str]:
        if isinstance(value, int) and not isinstance(value, bool):
            return repr(value), "i"
        if isinstance(value, float):
            if value == value and value not in (_INF, -_INF):
                return repr(value), "f"
            return self.p(value), "f"
        return self.p(value), ""

    def operand(self, op, i: int) -> Tuple[str, str]:
        """Expression for raw operand ``i`` plus its known kind (i/f/'')."""
        s = op.src[i]
        if s < 0:
            return self.const_expr(op.consts[i])
        name = self.slot_name.get(s)
        if name is None:
            name = f"e{s}"
            self.emit(f"{name} = regs[{s}]")
            message = f"use of value {op.src_names[i]} before definition"
            self.emit(f"if {name} is _UNDEF: raise VMError({self.p(message)})")
            self.slot_name[s] = name
        if name in self.int_names:
            return name, "i"
        if name in self.float_names:
            return name, "f"
        return name, ""

    @staticmethod
    def as_int(ov: Tuple[str, str]) -> str:
        expr, kind = ov
        return expr if kind == "i" else f"int({expr})"

    @staticmethod
    def as_float(ov: Tuple[str, str]) -> str:
        expr, kind = ov
        return expr if kind == "f" else f"float({expr})"

    def bind_result(self, op, j: int, kind: str) -> str:
        name = f"v{j}"
        if op.dest >= 0:
            self.slot_name[op.dest] = name
            self.defined.add(op.dest)
        if kind == "i":
            self.int_names.add(name)
        elif kind == "f":
            self.float_names.add(name)
        return name

    # -------------------------------------------------------------- #
    # address resolution with the per-segment memo
    # -------------------------------------------------------------- #
    def resolve_address(self, j: int, addr: Tuple[str, str], vt: IRType) -> _Resolved:
        expr, kind = addr
        entry = self.memo.get(expr)
        if entry is not None:
            if vt not in entry.checked:
                if entry.etvar is None:
                    # no element type at hand: mirror the op loop's check
                    # (raises unless size/floatness-compatible).
                    self.emit(f"_chk({entry.ovar}, {self.p(vt)}, {entry.avar})")
                else:
                    self.emit(f"if {entry.etvar} is not {self.p(vt)}:")
                    self.emit(f"    _chk({entry.ovar}, {self.p(vt)}, {entry.avar})")
                entry.checked.add(vt)
            return entry

        self.uses_mem = True
        avar, ovar, eivar, etvar = f"a{j}", f"o{j}", f"ei{j}", f"et{j}"
        self.emit(f"{avar} = {expr}" if kind == "i" else f"{avar} = int({expr})")
        if self.lanes:
            # the op loop's own resolution: ``lanes`` keeps its code small
            # (the golden path's ``plain`` inlines the common case below)
            self.emit(f"{ovar}, {eivar} = resolve({avar})")
            self.emit(f"_chk({ovar}, {self.p(vt)}, {avar})")
            entry = _Resolved(avar, ovar, eivar, None, {vt}, False)
            self.memo[expr] = entry
            return entry
        self.emit(f"p{j} = _br(bases, {avar}) - 1")
        self.emit(f"if p{j} < 0:")
        self.emit(f"    raise _SegF({avar})")
        self.emit(f"{ovar} = bybase[p{j}]")
        self.emit(f"{etvar} = {ovar}.element_type")
        self.emit(f"if {etvar} is {self.p(vt)}:")
        size = vt.size_bytes
        shift = size.bit_length() - 1
        self.emit(f"    off{j} = {avar} - {ovar}.base")
        self.emit(f"    {eivar} = off{j} >> {shift}" if shift else f"    {eivar} = off{j}")
        self.emit(f"    if {eivar} >= {ovar}.count:")
        self.emit(f"        raise _SegF({avar})")
        if size > 1:
            self.emit(f"    if off{j} & {size - 1}:")
            self.emit(
                f"        raise _SegF({avar}, 'misaligned access into ' + {ovar}.name)"
            )
        self.emit("else:")
        self.emit(f"    {ovar}, {eivar} = resolve({avar})")
        self.emit(f"    _chk({ovar}, {self.p(vt)}, {avar})")
        entry = _Resolved(avar, ovar, eivar, etvar, {vt}, False)
        self.memo[expr] = entry
        return entry

    # -------------------------------------------------------------- #
    # per-op emission
    # -------------------------------------------------------------- #
    def emit_op(self, j: int, pc: int) -> None:
        op = self.df.ops[pc]
        kind = op.kind
        lanes = self.lanes
        self.offset = j

        if lanes and j:
            # a fault arms here: the op loop arms it (offset 0 never
            # reaches this variant)
            self.emit(f"if stop == {j}: raise _Arm")

        operands = [self.operand(op, i) for i in range(len(op.src))]
        if lanes:
            self.emit_evict_check(op, operands)

        if kind == K_FN:
            self.emit_fn(op, j, operands)
            if lanes and op.dest >= 0:
                self.emit_lane_dest(op, j, operands)
        elif kind == K_GEP:
            name = self.bind_result(op, j, "i")
            self.emit(self.gep_code(op, operands, name))
            if lanes and op.dest >= 0:
                self.emit_lane_dest(op, j, operands)
        elif kind == K_LOAD:
            vt = op.result_type
            entry = self.resolve_address(j, operands[0], vt)
            name = self.bind_result(op, j, "f" if vt.is_float else "i")
            cast = "float" if vt.is_float else "int"
            self.emit(f"{name} = {cast}({entry.ovar}.array[{entry.eivar}])")
            if lanes and op.dest >= 0:
                self.emit_lane_load(op, j, entry)
        elif kind == K_STORE:
            vt = op.op_types[0]
            value = operands[0]
            entry = self.resolve_address(j, operands[1], vt)
            if not entry.fresh:
                self.emit(
                    f"if {entry.ovar}._cow_shared: {entry.ovar}.array = "
                    f"{entry.ovar}.array.copy(); {entry.ovar}._cow_shared = False"
                )
            if vt.is_float:
                self.emit(
                    f"{entry.ovar}.array[{entry.eivar}] = {self.as_float(value)}"
                )
            else:
                mb = max(8, vt.bits)
                mask, sign, full = (1 << mb) - 1, 1 << (mb - 1), 1 << mb
                self.emit(f"t{j} = {self.as_int(value)} & {mask}")
                self.emit(
                    f"{entry.ovar}.array[{entry.eivar}] = "
                    f"t{j} - {full} if t{j} >= {sign} else t{j}"
                )
            if lanes:
                self.emit_lane_store(op, j, value, entry)
        elif kind == K_ALLOCA:
            self.uses_alloca = True
            name = self.bind_result(op, j, "i")
            self.emit(
                f"o{j} = alloc({op.alloca_hint!r}, {self.p(op.alloca_type)}, "
                f"{op.alloca_count})"
            )
            self.emit(f"sapp(o{j})")
            self.emit(f"{name} = o{j}.base")
            # Seed the memo: loads/stores through this result hit element 0
            # of a statically-typed, definitely-private, in-bounds object.
            self.memo[name] = _Resolved(
                name, f"o{j}", "0", None, {op.alloca_type}, True
            )
            if lanes and op.dest >= 0:
                self.emit_dest_update(op, j, None)
        elif kind == K_CALL_INTRINSIC:
            rkind = "i" if op.result_type.is_integer else "f"
            name = self.bind_result(op, j, rkind)
            self.emit(self.call_code(op, operands, name))
            if lanes and op.dest >= 0:
                self.emit_lane_dest(op, j, operands)
        elif kind == K_BR:
            self.last_branch_block = op.block_index
            self.branches.append((j, op.block_index))
            if j == self.seg.n_ops - 1:
                self.exit_expr = repr(op.pc_true)
        elif kind == K_BR_COND:
            self.last_branch_block = op.block_index
            self.branches.append((j, op.block_index))
            cond = operands[0][0]
            self.emit(f"if {cond}:")
            self.emit(f"    nxt = {op.pc_true}")
            self.emit("else:")
            self.emit(f"    nxt = {op.pc_false}")
            self.exit_expr = "nxt"
        else:  # pragma: no cover - lowering never fuses other kinds
            raise AssertionError(f"unfusable kind {kind} reached codegen")

    def gep_code(self, op, operands, name: str) -> str:
        lhs = self.as_int(operands[0])
        rhs = self.as_int(operands[1])
        term = rhs if op.gep_size == 1 else f"{rhs} * {op.gep_size}"
        return f"{name} = {lhs} + {term}"

    def call_code(self, op, operands, name: str) -> str:
        """``name = fn((args,))`` through the decode-time bound evaluator."""
        args = ", ".join(expr for expr, _ in operands)
        comma = "," if len(operands) == 1 else ""
        return f"{name} = {self.p(op.fn)}(({args}{comma}))"

    def emit_fn(self, op, j: int, operands) -> None:
        name = f"v{j}"
        lines, kind = self.fn_code(op, operands, name, str(j))
        if lines is None:
            lines = [self.call_code(op, operands, name)]
        self.bind_result(op, j, kind)
        for line in lines:
            self.emit(line)

    def fn_code(
        self, op, operands, name: str, tag: str
    ) -> Tuple[Optional[List[str]], str]:
        """Lines computing a ``K_FN`` op into ``name``, plus the result's
        known kind; temporaries are suffixed with ``tag``.  The lines are
        ``None`` for the ops that run through their decode-time evaluator."""
        opc = op.opcode
        t = f"t{tag}"

        if opc is Opcode.SELECT:
            a, b, c = operands
            return (
                [f"{name} = {b[0]} if {a[0]} else {c[0]}"],
                b[1] if b[1] == c[1] else "",
            )
        if opc is Opcode.ICMP:
            predicate = op.predicate_str
            lhs = self.as_int(operands[0])
            rhs = self.as_int(operands[1])
            if predicate in _ICMP_UNSIGNED:
                mask = (1 << op.op_types[0].bits) - 1
                lhs, rhs = f"({lhs} & {mask})", f"({rhs} & {mask})"
            return [f"{name} = 1 if {lhs} {_ICMP_OPS[predicate]} {rhs} else 0"], "i"
        if opc is Opcode.FCMP:
            predicate = op.predicate_str
            x, y = f"x{tag}", f"y{tag}"
            lines = [
                f"{x} = {self.as_float(operands[0])}",
                f"{y} = {self.as_float(operands[1])}",
            ]
            if predicate == "one":
                lines.append(
                    f"{name} = 1 if {x} == {x} and {y} == {y} "
                    f"and {x} != {y} else 0"
                )
            else:
                lines.append(
                    f"{name} = 1 if {x} {_FCMP_OPS[predicate]} {y} else 0"
                )
            return lines, "i"
        if opc is Opcode.FNEG:
            return [f"{name} = -{self.as_float(operands[0])}"], "f"
        if opc in _FLOAT_BIN:
            return [
                f"{name} = {self.as_float(operands[0])} "
                f"{_FLOAT_BIN[opc]} {self.as_float(operands[1])}"
            ], "f"
        if opc is Opcode.FDIV:
            return [
                f"{name} = _fdiv({self.as_float(operands[0])}, "
                f"{self.as_float(operands[1])})"
            ], "f"
        if opc is Opcode.FREM:
            return [
                f"{name} = _frem({self.as_float(operands[0])}, "
                f"{self.as_float(operands[1])})"
            ], "f"
        if opc in _INT_BIN:
            bits = op.result_type.bits
            lhs, rhs = self.as_int(operands[0]), self.as_int(operands[1])
            if bits == 1:
                return [f"{name} = ({lhs} {_INT_BIN[opc]} {rhs}) & 1"], "i"
            mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
            return [
                f"{t} = ({lhs} {_INT_BIN[opc]} {rhs}) & {mask}",
                f"{name} = {t} - {full} if {t} >= {sign} else {t}",
            ], "i"
        if opc in _BITWISE:
            bits = op.result_type.bits
            lhs, rhs = self.as_int(operands[0]), self.as_int(operands[1])
            if bits == 1:
                return [f"{name} = ({lhs} & 1) {_BITWISE[opc]} ({rhs} & 1)"], "i"
            mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
            return [
                f"{t} = ({lhs} & {mask}) {_BITWISE[opc]} ({rhs} & {mask})",
                f"{name} = {t} - {full} if {t} >= {sign} else {t}",
            ], "i"
        if opc is Opcode.TRUNC:
            bits = op.result_type.bits
            value = self.as_int(operands[0])
            if bits == 1:
                return [f"{name} = {value} & 1"], "i"
            mask, sign, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
            return [
                f"{t} = {value} & {mask}",
                f"{name} = {t} - {full} if {t} >= {sign} else {t}",
            ], "i"
        if opc is Opcode.ZEXT:
            mask = (1 << op.op_types[0].bits) - 1
            return [f"{name} = {self.as_int(operands[0])} & {mask}"], "i"
        if opc is Opcode.SEXT:
            return [f"{name} = {self.as_int(operands[0])}"], "i"
        if opc is Opcode.SITOFP:
            return [f"{name} = float({self.as_int(operands[0])})"], "f"
        if opc is Opcode.FPEXT:
            return [f"{name} = {self.as_float(operands[0])}"], "f"
        # rare/irregular ops (sdiv/srem/udiv/urem, shifts, fptosi,
        # fptrunc, bitcast): the decode-time bound evaluator.
        rkind = ""
        if op.has_result:
            rkind = "f" if op.result_type.is_float else "i"
        return None, rkind

    # -------------------------------------------------------------- #
    # lanes: per-fault divergent values next to the golden ones
    # -------------------------------------------------------------- #
    def lane_map(self, slot: int) -> Optional[str]:
        """Expression of ``slot``'s ``{fault: value}`` divergence map, or
        ``None`` if it cannot diverge (constants have no map either)."""
        return self.map_name[slot] if slot >= 0 else None

    def halt_if_diverged(self, slot: int) -> None:
        # each map is bound once and never changes inside the segment: an
        # address checked once needs no second check
        m = self.lane_map(slot)
        if m is not None and m not in self.evict_checked:
            self.evict_checked.add(m)
            self.emit(f"if {m}: raise _Evict")

    def emit_evict_check(self, op, operands) -> None:
        """Stop before an op whose address or branch direction diverges:
        the op loop evicts those faults into private replays."""
        kind = op.kind
        if kind == K_LOAD:
            self.halt_if_diverged(op.src[0])
        elif kind == K_STORE:
            self.halt_if_diverged(op.src[1])
        elif kind == K_BR_COND:
            # same-direction divergence carries no value effect: ride on
            m = self.lane_map(op.src[0])
            if m is not None:
                self.emit(f"if {m} and _turns({m}, {operands[0][0]}): raise _Evict")

    def lane_callable(self, op, operands) -> Callable:
        """The op's per-fault expression as ``fn(values) -> value``: a
        shared compiled function, or the op's decode-time evaluator."""
        if op.kind == K_CALL_INTRINSIC:
            return op.fn
        args = [(f"a{i}", kind) for i, (_, kind) in enumerate(operands)]
        if op.kind == K_GEP:
            lines = [self.gep_code(op, args, "r")]
        else:
            lines = self.fn_code(op, args, "r", "")[0]
            if lines is None:
                return op.fn
        return _lane_function(lines, len(args))

    def emit_lanes(self, target: str, fn: Callable, golden: str, values, lanes) -> None:
        """``target`` = each affected fault's value (:func:`_lanes`), or the
        empty map when no operand in ``lanes`` diverges."""
        maps = list(dict.fromkeys(m for _, m in lanes))
        spec = ", ".join(f"({i}, {m})" for i, m in lanes)
        self.emit(
            f"{target} = _lanes({self.p(fn)}, {golden}, [{', '.join(values)}], "
            f"({spec},)) if {' or '.join(maps)} else _E"
        )

    def emit_lane_dest(self, op, j: int, operands) -> None:
        """Per-fault values of a value op whose operands may diverge."""
        maps = [(i, self.lane_map(slot)) for i, slot in enumerate(op.src)]
        lanes = [(i, m) for i, m in maps if m is not None]
        if not lanes:
            self.emit_dest_update(op, j, None)
            return
        dj = f"d{j}"
        self.emit_lanes(
            dj, self.lane_callable(op, operands), f"v{j}",
            [expr for expr, _ in operands], lanes,
        )
        self.emit_dest_update(op, j, dj)

    def emit_lane_load(self, op, j: int, entry: _Resolved) -> None:
        """A load of a diverged cell diverges in its destination."""
        dj = f"d{j}"
        self.emit(
            f"{dj} = _cell_lanes(cells, {entry.ovar}, {entry.eivar}) "
            f"if cells else _E"
        )
        self.emit_dest_update(op, j, dj)

    def emit_dest_update(self, op, j: int, new: Optional[str]) -> None:
        """Replace the destination slot's divergence map with ``new``."""
        dest = op.dest
        self.map_name[dest] = new
        guard = f"{dest} in fdiv" if new is None else f"{new} or {dest} in fdiv"
        self.emit(f"if {guard}: _reslot(fdiv, {dest}, {new or '_E'}, walk, {j})")

    def emit_lane_store(self, op, j: int, value, entry: _Resolved) -> None:
        """Per-fault stored values, and the cell's divergence map update.

        Runs after the golden write: a lane that raises here stops before
        this op and the op loop repeats the (idempotent) golden store.
        """
        vt = op.op_types[0]
        ovar, eivar = entry.ovar, entry.eivar
        new = "_E"
        m = self.lane_map(op.src[0])
        if m is not None:
            new = f"d{j}"
            lane = ("a0", value[1])
            if vt.is_float and vt.size_bytes == 8:
                cast = [f"r = {self.as_float(lane)}"]
            elif vt.is_float:
                # ``DataObject.cast_value`` of the f32 object stored into
                cast = [f"r = float(_f32(float(a0)))"]
            else:
                mb = max(8, vt.bits)
                mask, sign, full = (1 << mb) - 1, 1 << (mb - 1), 1 << mb
                cast = [
                    f"t = {self.as_int(lane)} & {mask}",
                    f"r = t - {full} if t >= {sign} else t",
                ]
            readback = "float" if vt.is_float else "int"
            self.emit_lanes(
                new, _lane_function(cast, 1),
                f"{readback}({ovar}.array[{eivar}])", [value[0]], [(0, m)],
            )
        guard = f"cells and {eivar} in cells.get({ovar}.name, ())"
        if new != "_E":
            guard = f"{new} or {guard}"
        self.emit(f"if {guard}: _recell(cells, {ovar}.name, {eivar}, {new}, walk, {j})")

    # -------------------------------------------------------------- #
    # assembly
    # -------------------------------------------------------------- #
    def build(self) -> Tuple[str, Dict[str, object]]:
        seg = self.seg
        if self.lanes:
            # a live-in's map cannot change inside the segment: no op here
            # writes the slot, and a drain only resolves a fault left with
            # no divergence at all
            for slot in seg.live_in:
                self.map_name[slot] = f"dm{slot}"
                self.emit(f"dm{slot} = fdiv.get({slot}, _E)")
        for j, pc in enumerate(seg.pcs):
            self.emit_op(j, pc)
        if self.exit_expr is None:
            self.exit_expr = repr(seg.pcs[-1] + 1)

        prologue: List[str] = []
        if self.uses_mem:
            if not self.lanes:
                prologue.append("bases = memory._bases")
                prologue.append("bybase = memory._by_base")
            prologue.append("resolve = memory.resolve")
        if self.uses_alloca:
            prologue.append("alloc = memory.allocate_stack")
            prologue.append("sapp = frame.stack_objects.append")

        # success epilogue: deferred register writeback, then the next pc.
        epilogue = [
            f"regs[{slot}] = {self.slot_name[slot]}" for slot in sorted(self.defined)
        ]
        if self.last_branch_block is not None:
            epilogue.append(f"frame.prev_block = {self.last_branch_block}")
        epilogue.append(f"return {self.exit_expr}")
        body = prologue + self.lines + epilogue

        # line table: source line -> offset of the op it belongs to (the
        # header and ``try:`` are lines 1 and 2, the body starts at 3)
        line_table = (
            (0, 0, 0)
            + (0,) * len(prologue)
            + tuple(self.line_offsets)
            + (seg.n_ops,) * len(epilogue)
        )
        done = "done = D[exc.__traceback__.tb_lineno]"
        if self.lanes:
            header = "def _seg(frame, regs, memory, cell, fdiv, cells, walk, stop):"
            # stop protocol: write back the completed prefix's registers and
            # ``prev_block``, report how far it got and why, and hand the
            # op loop the pc of the first op not run
            catch = "Exception as exc"
            # (``_End`` is raised inside its op's bookkeeping: count the op).
            # ``exc`` is dropped before ``locals()``: the snapshot would
            # otherwise tie it, its traceback and the whole calling stack
            # into a cycle only the cyclic collector frees.
            handler = [
                done,
                f"cause = exc.cause if isinstance(exc, _Halt) else {LANE_ERROR}",
                "del exc",
                f"if cause == {LANE_END}:",
                "    done += 1",
                "cell[0] = done",
                "cell[1] = cause",
                "_write_back(frame, regs, locals(), done, WB, BR)",
                "return PCS[done]",
            ]
        else:
            header = "def _seg(frame, regs, memory, cell):"
            catch = "BaseException as exc"
            handler = [done.replace("done =", "cell[0] ="), "raise"]

        source_lines = [header, "    try:"]
        source_lines.extend("        " + line for line in body)
        source_lines.append(f"    except {catch}:")
        source_lines.extend("        " + line for line in handler)
        source = "\n".join(source_lines) + "\n"

        module_globals: Dict[str, object] = {
            "P": self.pool,
            "D": line_table,
            "_UNDEF": _UNDEF,
            "VMError": VMError,
            "_SegF": SegmentationFault,
            "_br": bisect_right,
            "_chk": Memory._check_access_type,
            "_fdiv": float_divide,
            "_frem": float_remainder,
        }
        if self.lanes:
            module_globals.update(
                _E=_NO_LANES,
                _Halt=_Halt,
                _Arm=_Arm,
                _Evict=_Evict,
                _lanes=_lanes,
                _turns=_turns,
                _cell_lanes=_cell_lanes,
                _reslot=_reslot,
                _recell=_recell,
                _write_back=_write_back,
                WB=tuple(
                    (slot, self.slot_name[slot], offset)
                    for slot, offset in sorted(
                        seg.first_write.items(), key=lambda item: item[1]
                    )
                ),
                BR=tuple(self.branches),
                # the END stop never resumes the op loop: no pc past the end
                PCS=list(seg.pcs) + [-1],
            )
        return source, module_globals


def compile_segment(df: DecodedFunction, seg, variant: str):
    """Compile one fused segment ``variant`` ("plain" or "lanes") into its
    superinstruction callable.

    Counts the compile and its seconds in the metrics registry
    (``mir.segment_compiles`` / ``mir.segment_compile_s``, by variant)."""
    started = perf_counter()
    emitter = _Emitter(df, seg, variant)
    source, module_globals = emitter.build()
    suffix = "" if variant == "plain" else "+" + variant
    code = compile(source, f"<mir:{df.name}#{seg.index}{suffix}>", "exec")
    exec(code, module_globals)
    reg = _metrics_registry()
    if reg.enabled:
        reg.inc("mir.segment_compiles", variant=variant)
        reg.inc("mir.segment_compile_s", perf_counter() - started, variant=variant)
    return module_globals["_seg"]
