"""Pre-decoded execution engine with checkpointed snapshots.

Walking the IR objects directly re-derives the same static facts on every
dynamic step: operand classes (constant vs SSA value vs argument) through
``isinstance`` chains, value environments through per-frame dicts keyed by
value uids, opcode dispatch through long chains of enum comparisons, and
trace metadata (block labels, operand types, operand kinds) from the
instruction objects.  For fault-injection campaigns — tens of thousands of
full executions of the same module — that per-step overhead dominates.

This module lowers each :class:`~repro.ir.function.Function` *once* into a
flat array of :class:`DecodedOp` records:

* every operand is resolved at decode time to either a dense register-slot
  index or a literal constant, so the hot loop does a list index instead of a
  dict lookup plus ``isinstance`` checks;
* opcode families with pure semantics (arithmetic, comparisons, conversions,
  intrinsics) get a pre-bound evaluator (``op.fn``) so dispatch is one small
  integer compare;
* branch targets become program-counter indices and all trace-static fields
  (function name, block label, operand types/kinds, predicate) are attached
  to the op -- bundled as its ``trace_record`` -- so untraced runs never
  touch them and traced runs record them once per static op.

On top of the decoded representation the engine supports **checkpointing**:
:class:`Snapshot` captures the complete dynamic state — the call stack with
its register files, a copy-on-write fork of memory, and the dynamic-instruction
counter — and :meth:`Engine.prepare_resume`, the one restore, adopts a fresh
fork of one as the live state.  The deterministic fault injector in :mod:`repro.core` uses this to
replay only the suffix of an execution after a fault site instead of
re-running the whole workload: :meth:`Engine.resume_many` walks a batch of
faults in lockstep from one restore, and :meth:`Engine.run_checked` runs
the faults it cannot carry privately, proving convergence onto the golden
run by state digest (see :mod:`repro.core.replay`).

Semantics are bit-identical to the tree-walking interpreter the parity
tests keep as their oracle: same dynamic-id numbering, same fault hooks,
same error types, and (when a trace is attached) a
:class:`~repro.tracing.columnar.ColumnarTrace` whose events equal the
interpreter's :class:`~repro.tracing.events.TraceEvent` stream.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.frontend.intrinsics import INTRINSICS
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Argument, Constant, UndefValue
from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.events import OperandKind
from repro.vm import semantics
from repro.vm.bits import flip_bit
from repro.vm.errors import StepLimitExceeded, UnknownIntrinsic, VMError
from repro.vm.faults import FaultSpec, FaultTarget
from repro.vm.memory import DataObject, Memory

Number = Union[int, float]


def prepare_arguments(
    func: Function, args: Union[Dict[str, object], Sequence[object]]
) -> List[Number]:
    """Marshal entry-point arguments into runtime values.

    ``args`` may be a mapping from parameter names or a positional sequence.
    Pointer parameters accept :class:`DataObject` instances (their base
    address is passed) or raw integer addresses; scalar parameters accept
    Python numbers.
    """
    if isinstance(args, dict):
        missing = [a.name for a in func.args if a.name not in args]
        if missing:
            raise VMError(f"missing arguments for {func.name}: {missing}")
        raw = [args[a.name] for a in func.args]
    else:
        raw = list(args)
        if len(raw) != len(func.args):
            raise VMError(
                f"{func.name} expects {len(func.args)} arguments, got {len(raw)}"
            )
    values: List[Number] = []
    for formal, actual in zip(func.args, raw):
        if isinstance(actual, DataObject):
            if not formal.type.is_pointer:
                raise VMError(
                    f"argument {formal.name} of {func.name} is scalar but got a "
                    f"data object"
                )
            values.append(actual.base)
        elif isinstance(actual, (int, float)):
            if formal.type.is_float:
                values.append(float(actual))
            elif formal.type.is_integer:
                values.append(int(actual))
            else:
                values.append(int(actual))  # raw address
        else:
            raise VMError(
                f"unsupported argument value {actual!r} for {formal.name}"
            )
    return values


@dataclass
class ExecutionResult:
    """Outcome of one (traced or faulty) execution."""

    return_value: Optional[Number]
    steps: int
    #: The sink the run recorded into (``None`` for sink-free runs).
    trace: object


class _Undef:
    """Sentinel stored in register slots that have not been written yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undef>"

    def __reduce__(self) -> str:
        # pickled as a reference to the module global: the state digest
        # encodes register files with ``pickle``, and the sentinel is a
        # singleton
        return "_UNDEF"


_UNDEF = _Undef()

#: Sentinel for "no pause scheduled" in the engine loop.
_NEVER = 1 << 62

#: Deepest call stack a run may build; one more call raises :class:`VMError`.
MAX_CALL_DEPTH = 200

# Decoded opcode kinds (small ints; if/elif chain ordered by frequency).
K_FN = 0            # pure evaluator bound at decode time (arith/cmp/conv/...)
K_LOAD = 1
K_STORE = 2
K_GEP = 3
K_BR_COND = 4
K_BR = 5
K_CALL_INTRINSIC = 6
K_RET = 7
K_CALL_USER = 8
K_ALLOCA = 9
K_PHI = 10

# Why a fused segment's ``lanes`` variant stopped before its end (``cell[1]``
# after the call; 0 = ran to the end).  The first three hand the stop op to
# the op loop; ``LANE_END`` means the walk's last fault resolved.
LANE_ARM = 1
LANE_EVICT = 2
LANE_ERROR = 3
LANE_END = 4
#: ``replay.walk_stops`` label of each handing-over stop cause.
LANE_STOP_CAUSES = {LANE_ARM: "arm", LANE_EVICT: "evict", LANE_ERROR: "lane_error"}


class LaneWalk:
    """The batch walk's bookkeeping a ``lanes`` segment updates.

    ``div_count`` (fault -> diverged registers and cells), ``active`` (the
    faults riding the walk) and ``resolve_golden(fault, at)`` are the
    walk's own; ``last`` (no fault is left to arm) and ``dyn`` (the
    segment's entry position) are set before each ``lanes`` call.
    """

    __slots__ = ("div_count", "active", "resolve_golden", "last", "dyn")

    def __init__(self, div_count, active, resolve_golden) -> None:
        self.div_count = div_count
        self.active = active
        self.resolve_golden = resolve_golden
        self.last = False
        self.dyn = 0


class DecodedOp:
    """One pre-decoded instruction of a :class:`DecodedFunction`.

    ``src[i]`` is the register slot of operand *i*, or ``-1`` when the
    operand is a literal whose value sits in ``consts[i]``.
    """

    __slots__ = (
        "kind",
        "opcode",
        "dest",
        "src",
        "src_names",
        "consts",
        "fn",
        "result_type",
        "op_types",
        "op_kinds",
        "gep_size",
        "pc_true",
        "pc_false",
        "block_true",
        "block_false",
        "label_true",
        "label_false",
        "callee",
        "phi_by_block",
        "block_index",
        "function",
        "block_label",
        "static_uid",
        "source_line",
        "predicate_str",
        "has_result",
        "alloca_hint",
        "alloca_type",
        "alloca_count",
        "trace_record",
    )

    def __init__(self) -> None:
        self.fn = None
        self.gep_size = 0
        self.pc_true = -1
        self.pc_false = -1
        self.block_true = -1
        self.block_false = -1
        self.label_true = None
        self.label_false = None
        self.callee = None
        self.phi_by_block = None
        self.alloca_hint = ""
        self.alloca_type = None
        self.alloca_count = 1


class DecodedFunction:
    """A function lowered to a flat op array plus a dense register file."""

    __slots__ = ("name", "function", "ops", "nslots", "nargs", "block_labels")

    def __init__(self, function: Function) -> None:
        self.name = function.name
        self.function = function
        self.ops: List[DecodedOp] = []
        self.nargs = len(function.args)
        self.nslots = 0
        self.block_labels: List[str] = [b.label for b in function.blocks]


class DecodedProgram:
    """All functions of a module, decoded and cross-linked.

    ``mir`` holds the program's lowered MIR (:mod:`repro.mir`), filled on
    first use by :func:`repro.mir.mir_program_for`: it lives and dies
    with this decode.
    """

    __slots__ = ("module", "functions", "mir")

    _CACHE_ATTR = "_decoded_program_cache"

    def __init__(self, module: Module) -> None:
        self.module = module
        # Callees stay names (resolved through ``functions`` at execution
        # time) so calls to unknown functions fault at runtime exactly like
        # the interpreter does.
        self.functions: Dict[str, DecodedFunction] = {
            func.name: _decode_function(func) for func in module
        }
        self.mir = None

    @classmethod
    def of(cls, module: Module) -> "DecodedProgram":
        """Decode ``module`` (cached on the module object)."""
        cached = getattr(module, cls._CACHE_ATTR, None)
        if cached is not None and cached.module is module:
            return cached
        program = cls(module)
        setattr(module, cls._CACHE_ATTR, program)
        return program

    @classmethod
    def invalidate(cls, module: Module) -> None:
        """Drop the decode cache and the MIR lowered from it (call after
        mutating the module's IR)."""
        if hasattr(module, cls._CACHE_ATTR):
            delattr(module, cls._CACHE_ATTR)


def _decode_function(func: Function) -> DecodedFunction:
    df = DecodedFunction(func)
    slots: Dict[int, int] = {}
    for arg in func.args:
        slots[arg.uid] = len(slots)
    for instr in func.instructions():
        if instr.has_result:
            slots[instr.uid] = len(slots)
    df.nslots = len(slots)

    block_index: Dict[int, int] = {id(b): i for i, b in enumerate(func.blocks)}
    block_pc: List[int] = []
    flat: List[Tuple[Instruction, int]] = []
    for bi, block in enumerate(func.blocks):
        block_pc.append(len(flat))
        if not block.is_terminated:
            raise VMError(
                f"block {block.label} in {func.name} fell through without "
                f"a terminator"
            )
        for instr in block.instructions:
            flat.append((instr, bi))

    for instr, bi in flat:
        df.ops.append(_decode_instruction(func, instr, bi, slots, block_index, block_pc))
    return df


def _operand_kind(operand) -> OperandKind:
    if isinstance(operand, (Constant, UndefValue)):
        return OperandKind.CONSTANT
    if isinstance(operand, Argument):
        return OperandKind.ARGUMENT
    return OperandKind.INSTRUCTION


def _decode_instruction(
    func: Function,
    instr: Instruction,
    bi: int,
    slots: Dict[int, int],
    block_index: Dict[int, int],
    block_pc: List[int],
) -> DecodedOp:
    op = DecodedOp()
    opcode = instr.opcode
    op.opcode = opcode
    op.block_index = bi
    op.function = func.name
    op.block_label = instr.parent.label if instr.parent else "?"
    op.static_uid = instr.uid
    op.source_line = instr.source_line
    op.result_type = instr.type
    op.has_result = instr.has_result
    op.dest = slots[instr.uid] if instr.has_result else -1
    op.predicate_str = instr.predicate.value if instr.predicate else None
    op.op_types = tuple(o.type for o in instr.operands)
    op.op_kinds = tuple(_operand_kind(o) for o in instr.operands)

    src: List[int] = []
    consts: List[Optional[Number]] = []
    for operand in instr.operands:
        if isinstance(operand, Constant):
            src.append(-1)
            consts.append(operand.value)
        elif isinstance(operand, UndefValue):
            src.append(-1)
            consts.append(0)
        else:
            src.append(slots[operand.uid])
            consts.append(None)
    op.src = tuple(src)
    op.src_names = tuple(operand.short() for operand in instr.operands)
    op.consts = tuple(consts)

    if opcode is Opcode.ALLOCA:
        op.kind = K_ALLOCA
        op.alloca_hint = instr.name or "tmp"
        op.alloca_type = instr.type.pointee  # type: ignore[union-attr]
        op.alloca_count = instr.alloca_count
    elif opcode is Opcode.LOAD:
        op.kind = K_LOAD
    elif opcode is Opcode.STORE:
        op.kind = K_STORE
    elif opcode is Opcode.GEP:
        op.kind = K_GEP
        op.gep_size = instr.operands[0].type.pointee.size_bytes  # type: ignore[union-attr]
    elif opcode is Opcode.BR:
        targets = instr.targets
        op.pc_true = block_pc[block_index[id(targets[0])]]
        op.block_true = block_index[id(targets[0])]
        op.label_true = targets[0].label
        if len(targets) == 1:
            op.kind = K_BR
        else:
            op.kind = K_BR_COND
            op.pc_false = block_pc[block_index[id(targets[1])]]
            op.block_false = block_index[id(targets[1])]
            op.label_false = targets[1].label
    elif opcode is Opcode.RET:
        op.kind = K_RET
    elif opcode is Opcode.CALL:
        callee = instr.callee or ""
        op.callee = callee
        if callee in INTRINSICS:
            op.kind = K_CALL_INTRINSIC
            info = INTRINSICS[callee]
            rtype = instr.type
            if rtype.is_integer:
                bits = rtype.bits
                evaluate = info.evaluate

                def _int_intrinsic(values, _eval=evaluate, _bits=bits):
                    try:
                        result = _eval(*values)
                    except (ValueError, OverflowError):
                        result = float("nan")
                    return semantics.to_signed(int(result), _bits)

                op.fn = _int_intrinsic
            else:
                evaluate = info.evaluate

                def _float_intrinsic(values, _eval=evaluate):
                    try:
                        return float(_eval(*values))
                    except (ValueError, OverflowError):
                        return float("nan")

                op.fn = _float_intrinsic
        else:
            op.kind = K_CALL_USER
    elif opcode is Opcode.PHI:
        op.kind = K_PHI
        op.phi_by_block = {
            block_index[id(block)]: position
            for position, block in enumerate(instr.incoming_blocks)
        }
    elif opcode is Opcode.SELECT:
        op.kind = K_FN
        op.fn = semantics.eval_select
    elif opcode is Opcode.ICMP:
        op.kind = K_FN
        predicate = instr.predicate
        operand_type = instr.operands[0].type

        def _icmp(values, _p=predicate, _t=operand_type):
            return semantics.eval_icmp(_p, _t, values)

        op.fn = _icmp
    elif opcode is Opcode.FCMP:
        op.kind = K_FN
        predicate = instr.predicate

        def _fcmp(values, _p=predicate):
            return semantics.eval_fcmp(_p, values)

        op.fn = _fcmp
    elif opcode is Opcode.FNEG:
        op.kind = K_FN
        op.fn = lambda values: -float(values[0])
    elif instr.is_binary:
        op.kind = K_FN
        rtype = instr.type

        def _binary(values, _op=opcode, _t=rtype):
            return semantics.eval_binary(_op, _t, values)

        op.fn = _binary
    else:
        op.kind = K_FN
        rtype = instr.type
        source_type = instr.operands[0].type

        def _conversion(values, _op=opcode, _s=source_type, _t=rtype):
            return semantics.eval_conversion(_op, _s, _t, values[0])

        op.fn = _conversion
    # the fields every traced execution of the op shares: its static-op
    # record in a ColumnarTrace
    op.trace_record = (
        opcode, op.function, op.block_label, op.static_uid, op.source_line,
        op.op_types, op.op_kinds, op.result_type if op.has_result else None,
        op.predicate_str, op.callee,
    )
    return op


class _Frame:
    """Per-call dynamic state of the decoded engine.

    ``div`` is only used by the lockstep batch walk
    (:meth:`Engine.resume_many`): a lazily created
    ``{slot: {fault_index: value}}`` map of register slots whose value
    differs from the golden execution for some in-flight faults.
    """

    __slots__ = ("df", "pc", "prev_block", "regs", "prods", "stack_objects",
                 "ret_slot", "ret_dyn", "div")

    def __init__(self, df: DecodedFunction) -> None:
        self.df = df
        self.pc = 0
        self.prev_block = -1
        self.regs: List[object] = [_UNDEF] * df.nslots
        # one slot more than the registers: ``prods[-1]`` stays -1, the
        # producer of a literal operand (``src`` -1)
        self.prods: List[int] = [-1] * (df.nslots + 1)
        self.stack_objects = []
        self.ret_slot = -1
        self.ret_dyn = -1
        self.div = None


class _FrameImage:
    """Immutable copy of a frame used inside :class:`Snapshot`."""

    __slots__ = ("func_name", "pc", "prev_block", "regs", "prods",
                 "stack_names", "ret_slot", "ret_dyn")

    def __init__(self, frame: _Frame) -> None:
        self.func_name = frame.df.name
        self.pc = frame.pc
        self.prev_block = frame.prev_block
        self.regs = list(frame.regs)
        self.prods = list(frame.prods)
        self.stack_names = [obj.name for obj in frame.stack_objects]
        self.ret_slot = frame.ret_slot
        self.ret_dyn = frame.ret_dyn


_pack_double = struct.Struct("<d").pack


def _values_bit_equal(a: object, b: object) -> bool:
    """Bit-exact register comparison (``-0.0 != 0.0``, NaN payload matters)."""
    if a is b:
        return True
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is float:
        # equal floats share their bits except for the two zeros, and
        # unequal ones differ except for two NaNs: only those pack
        if a == b:
            return a != 0.0 or _pack_double(a) == _pack_double(b)
        return a != a and b != b and _pack_double(a) == _pack_double(b)
    return a == b


def _rebase(old, new, div_count, drained) -> None:
    """Swap a register's or cell's divergence map ``old`` for ``new``.

    Either may be ``None`` or empty.  A fault leaving the map loses one
    divergence and, at zero, is appended to ``drained`` (it is bit-identical
    to golden from here on); a fault joining it gains one.  The batch walk's
    op loop and the fused segments' ``lanes`` variant share this rule.
    """
    if old:
        if new and old.keys() == new.keys():
            return
        for fid in old:
            if not new or fid not in new:
                c = div_count.get(fid)
                if c is not None:
                    div_count[fid] = c - 1
                    if c == 1:
                        drained.append(fid)
    if new:
        for fid in new:
            if not old or fid not in old:
                div_count[fid] = div_count.get(fid, 0) + 1


# --------------------------------------------------------------------- #
# state digests (golden convergence)
# --------------------------------------------------------------------- #
def _digest(frames, memory: Memory) -> bytes:
    """The one canonical state encoder behind :func:`snapshot_digest` and
    :meth:`Engine.state_digest`.

    ``frames`` holds one ``(function name, pc, previous block, return slot,
    return dyn, stack-object names, registers)`` tuple per call-stack frame,
    outermost first; ``memory`` contributes its allocator counters and every
    object (stack slots included) in base-address order.

    A register file is encoded in one call, ``pickle.dumps(regs, 5)``: two
    register files give the same bytes iff they are bit-identical under
    :func:`_values_bit_equal`.  Pickle tags each value with its type (``1``,
    ``1.0`` and ``True`` stay distinct), writes a float's IEEE-754 bytes
    (``-0.0`` and NaN payloads count) and an int's exact two's complement
    (any width); ints, floats and bools are never memoised, and
    :data:`_UNDEF` pickles as a reference to its module global.  Object
    contents are hashed straight from their arrays' buffers.
    """
    h = hashlib.blake2b(digest_size=16)
    update = h.update
    pack = struct.pack
    dumps = pickle.dumps
    update(pack("<q", len(frames)))
    for func_name, pc, prev_block, ret_slot, ret_dyn, stack_names, regs in frames:
        raw = func_name.encode()
        parts = [
            b"\x01%d:" % len(raw), raw,
            pack("<qqqqq", pc, prev_block, ret_slot, ret_dyn, len(stack_names)),
        ]
        for name in stack_names:
            raw = name.encode()
            parts += (b"%d:" % len(raw), raw)
        raw = dumps(regs, 5)
        parts += (pack("<q", len(raw)), raw)
        update(b"".join(parts))
    objects = memory._by_base
    update(pack("<qqq", memory._next_address, memory._stack_counter, len(objects)))
    for obj in objects:
        name = obj.name.encode()
        type_name = obj.element_type.name.encode()
        data = obj.array
        update(
            b"\x02%d:%b%d:%b" % (len(name), name, len(type_name), type_name)
            + pack("<qq?q", obj.count, obj.base, bool(obj.is_stack), data.nbytes)
        )
        update(data)
    return h.digest()


def snapshot_digest(snapshot: "Snapshot") -> bytes:
    """Content digest of a snapshot's complete dynamic state.

    Covers the call stack (register files, program counters, stack-object
    names) and the full address space; producer links are excluded, as
    trace metadata with no influence on future computation.  Shares its
    encoder with :meth:`Engine.state_digest`, so
    ``snapshot_digest(s) == engine.state_digest()`` iff the live state at
    ``s.dyn`` is bit-identical to the snapshot.
    """
    return _digest(
        [
            (image.func_name, image.pc, image.prev_block, image.ret_slot,
             image.ret_dyn, image.stack_names, image.regs)
            for image in snapshot.frames
        ],
        snapshot.memory,
    )


class BatchFaultResolution:
    """How :meth:`Engine.resume_many` resolved one fault of a batch.

    ``kind`` is one of:

    ``"golden"``
        Proven bit-identical to the golden execution (``converged_at`` is
        the dynamic id of the proof point).
    ``"completed"``
        Survived the lockstep walk to program end with value-only
        divergence; ``cell_deltas`` lists ``(object, index, value)``
        memory cells that differ from golden, ``return_value``/``steps``
        are the faulty run's.
    ``"private"``
        Evicted from the lockstep walk and ran standalone from a
        copy-on-write fork; ``memory`` holds its final address space.
    ``"error"``
        The faulty execution raised (``error``).  A fault whose divergent
        load address raises resolves in the walk, at that op, with no
        private run; any other raising fault is evicted first and raises
        in its private run.
    """

    __slots__ = ("spec", "kind", "return_value", "steps", "cell_deltas",
                 "memory", "error", "converged_at", "private")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.kind = ""
        self.return_value = None
        self.steps = 0
        self.cell_deltas: List[Tuple[str, int, object]] = []
        self.memory: Optional[Memory] = None
        self.error: Optional[BaseException] = None
        self.converged_at: Optional[int] = None
        self.private = False


class Snapshot:
    """Complete dynamic state of an :class:`Engine` at one dynamic id.

    Captures the call stack as :class:`_FrameImage` copies (register files,
    program counters, stack-object names) and the address space as a
    copy-on-write :meth:`~repro.vm.memory.Memory.fork` (O(objects), bytes
    shared until written).  One type serves the golden checkpoint schedule
    and the batched replay's eviction forks.  A snapshot is never run
    itself: :meth:`Engine.prepare_resume` adopts a fresh fork of it, so it
    stays pristine however many replays restore it, and restoring fully
    resets memory, including removing stack objects allocated after the
    capture point.  Snapshots seed sink-free runs only: the load-writer
    index a traced run keeps is not captured.
    """

    __slots__ = ("dyn", "frames", "memory")

    def __init__(self, dyn: int, frames: List[_FrameImage], memory: Memory) -> None:
        self.dyn = dyn
        self.frames = frames
        self.memory = memory


class Engine:
    """Execute pre-decoded IR over a :class:`Memory`.

    ``run`` executes an entry function to an :class:`ExecutionResult`,
    raising the VM error types on crashes and hangs and applying at most one
    armed :class:`~repro.vm.faults.FaultSpec`.  On top of that:

    * ``sink`` — a :class:`~repro.tracing.columnar.ColumnarTrace` that
      records one event per executed op, through the op loop on either
      backend: the loop hands each op's ``DecodedOp`` and dynamic fields to
      the trace's bound appends (:meth:`ColumnarTrace.recorder`) and builds
      no event object; without a sink the run records nothing and
      dispatches fused segments on the block backend;
    * ``snapshot_interval`` — capture a :class:`Snapshot` every N dynamic
      instructions (position 0 included) into :attr:`snapshots`;
    * ``snapshot_budget`` — cap the snapshot count without knowing the run
      length in advance: when the schedule fills up, every other snapshot
      is dropped and the interval doubles (all retained positions stay
      multiples of the final interval);
    * ``backend`` — ``"block"``, the one production configuration, which
      dispatches fused MIR superinstructions where legal and falls back to
      the op loop; or ``"op"``, the plain per-op loop that the parity tests
      pin as its bit-identity oracle (the test suite's ``--engine-backend
      op`` option makes it the default).

    Faulty runs resume from snapshots in two ways only: the lockstep batch
    walk :meth:`resume_many`, and private replays; both restore through
    :meth:`prepare_resume`, and private replays run with digest checks
    (:meth:`run_checked`).
    """

    def __init__(
        self,
        module: Module,
        memory: Memory,
        sink=None,
        fault: Optional[FaultSpec] = None,
        max_steps: int = 5_000_000,
        snapshot_interval: int = 0,
        snapshot_budget: Optional[int] = None,
        backend: str = "block",
    ) -> None:
        self.module = module
        self.memory = memory
        self.sink = sink
        self.fault = fault
        self.max_steps = max_steps
        self.program = DecodedProgram.of(module)
        if backend not in ("block", "op"):
            raise ValueError(
                f"unknown engine backend {backend!r} (expected 'block' or 'op')"
            )
        self.backend = backend
        if backend == "block":
            from repro.mir import mir_program_for  # deferred: mir builds on us

            self._mir = mir_program_for(self.program)
        else:
            self._mir = None
        self.snapshot_interval = snapshot_interval
        self.snapshot_budget = snapshot_budget
        self.snapshots: List[Snapshot] = []
        self.converged = False
        #: Dynamic id at which convergence onto golden was proven (or None).
        self.converged_at: Optional[int] = None
        self._dyn = 0
        self._frames: List[_Frame] = []
        self._last_writer: Dict[int, int] = {}
        self._next_capture = 0 if snapshot_interval else _NEVER
        #: Digest-check state (private replays): sorted positions and the
        #: golden digests keyed by position.
        self._digest_positions: Optional[List[int]] = None
        self._digest_cursor = 0
        self._golden_digests: Dict[int, bytes] = {}
        #: Ops the most recent :meth:`resume_many` walked, how many of them
        #: ran inside fused segments, how many of those carried divergence
        #: (``lanes``), and the lanes stops by cause label.
        self.walk_ops = 0
        self.walk_fused_ops = 0
        self.walk_lane_ops = 0
        self.walk_stops: Dict[str, int] = {}
        #: Set to a list to log ``(segment, dyn)`` at every fused segment
        #: entry a sink-free block-backend run reaches (the golden run's
        #: entry positions, :func:`repro.mir.lower.entries_from_log`).
        self.entry_log: Optional[List[Tuple[object, int]]] = None

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    @property
    def steps_executed(self) -> int:
        return self._dyn

    def run(
        self,
        function_name: str,
        args: Union[Dict[str, object], Sequence[object]],
    ) -> ExecutionResult:
        """Execute ``function_name`` with ``args`` (marshalled by
        :func:`prepare_arguments`)."""
        func = self.module.get_function(function_name)
        values = prepare_arguments(func, args)
        df = self.program.functions[function_name]
        frame = _Frame(df)
        frame.regs[: df.nargs] = values
        self._frames.append(frame)
        return self._loop()

    def prepare_resume(self, snapshot: Snapshot) -> None:
        """Make a fresh copy-on-write fork of ``snapshot`` the live state,
        without running.

        The only restore: the batch walk and every private replay start
        here.  Each restore re-forks the snapshot's memory, so the snapshot
        stays pristine and can seed any number of replays.  Together with
        :meth:`run_checked` (which stops where the state converges) and
        :meth:`capture_fork` this forms a reusable *resume cursor*: restore
        once, walk forward, and fork the live state cheaply.

        Raises :class:`ValueError` on an engine with a sink: a snapshot
        does not hold the load-writer index, so a traced run from it would
        record wrong writer ids.
        """
        if self.sink is not None:
            raise ValueError(
                "cannot restore a snapshot on a traced engine: the load-writer "
                "index is not restored, so recorded writer ids would be wrong"
            )
        self.memory = snapshot.memory.fork()
        self._frames = []
        for image in snapshot.frames:
            frame = _Frame(self.program.functions[image.func_name])
            frame.pc = image.pc
            frame.prev_block = image.prev_block
            frame.regs = list(image.regs)
            frame.prods = list(image.prods)
            frame.stack_objects = [self.memory.object(n) for n in image.stack_names]
            frame.ret_slot = image.ret_slot
            frame.ret_dyn = image.ret_dyn
            self._frames.append(frame)
        self._dyn = snapshot.dyn
        self.converged = False
        self.converged_at = None
        self._digest_positions = None
        self._digest_cursor = 0
        self._golden_digests = {}
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("engine.snapshot_restores")
        # re-align snapshot capture to the first interval multiple strictly
        # after the restore point (the restore point itself is the snapshot
        # the caller already holds)
        if self.snapshot_interval:
            interval = self.snapshot_interval
            self._next_capture = (snapshot.dyn // interval + 1) * interval
        else:
            self._next_capture = _NEVER

    def capture_fork(self) -> Snapshot:
        """A :class:`Snapshot` of the live state: frame copies plus a
        copy-on-write fork of memory.  Golden checkpoints and the batch
        walk's eviction points both capture through here."""
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("engine.forks")
        return Snapshot(
            self._dyn,
            [_FrameImage(frame) for frame in self._frames],
            self.memory.fork(),
        )

    def run_checked(
        self, positions: Sequence[int], golden_digests: Dict[int, bytes]
    ) -> ExecutionResult:
        """Run to completion with digest checks at ``positions``.

        At each position the live :meth:`state_digest` is compared against
        the golden digest there; a bit-identical match stops the run with
        :attr:`converged` set.
        """
        self._digest_positions = list(positions)
        self._digest_cursor = 0
        self._golden_digests = golden_digests
        return self._loop()

    def state_digest(self) -> bytes:
        """Content digest of the live dynamic state (see :func:`snapshot_digest`)."""
        return _digest(
            [
                (frame.df.name, frame.pc, frame.prev_block, frame.ret_slot,
                 frame.ret_dyn, [obj.name for obj in frame.stack_objects],
                 frame.regs)
                for frame in self._frames
            ],
            self.memory,
        )

    # ------------------------------------------------------------------ #
    # batched replay: lockstep walk with per-fault divergence state
    # ------------------------------------------------------------------ #
    def _private_replay(
        self,
        resolution: BatchFaultResolution,
        fork: Snapshot,
        fault: Optional[FaultSpec],
        reg_patches,
        cell_patches,
        sched_positions: List[int],
        golden_digests: Optional[Dict[int, bytes]],
    ) -> BatchFaultResolution:
        """Run one fault privately from a copy-on-write fork.

        Called only by :meth:`resume_many`'s eviction helper: either the
        fault is armed on the fork (``fault`` set) or its accumulated
        divergence is patched onto the fork's clone (``reg_patches``/
        ``cell_patches``).  The one place a fault resolves ``"error"``
        other than a divergent load address that raises in the walk.
        """
        engine = Engine(
            self.module,
            fork.memory,
            fault=fault,
            max_steps=self.max_steps,
            backend=self.backend,
        )
        engine.prepare_resume(fork)
        for frame_index, slot, value in reg_patches:
            engine._frames[frame_index].regs[slot] = value
        for name, index, value in cell_patches:
            engine.memory.object(name).set(index, value)
        if golden_digests is not None:
            start = bisect_right(sched_positions, fork.dyn)
            positions = sched_positions[start:]
        else:
            positions = ()
        resolution.private = True
        try:
            result = engine.run_checked(positions, golden_digests or {})
        except Exception as exc:
            resolution.kind = "error"
            # kept without its traceback, whose frames would hold the whole
            # calling stack (and the analysis above it) in a reference cycle
            resolution.error = exc.with_traceback(None)
        else:
            if engine.converged:
                resolution.kind = "golden"
                resolution.converged_at = engine.converged_at
            else:
                resolution.kind = "private"
                resolution.memory = engine.memory
                resolution.return_value = result.return_value
                resolution.steps = result.steps
        return resolution

    def resume_many(  # noqa: C901 - one deliberately flat dispatch loop
        self,
        schedule: Sequence[Snapshot],
        specs: Sequence[FaultSpec],
        golden_digests: Optional[Dict[int, bytes]] = None,
        segment_entries=None,
    ) -> List[BatchFaultResolution]:
        """Resolve a batch of faults through one shared golden suffix walk.

        ``specs`` must be sorted by ``dynamic_id``.  The engine restores the
        snapshot nearest the earliest fault **once**, then re-executes the
        golden suffix a single time; faults arm as the walk reaches their
        site and ride along as sparse *divergence state* (register slots and
        memory cells whose value differs from golden, per fault):

        * value divergence is evaluated per fault on the side: inside fused
          segments by each segment's ``lanes`` variant, elsewhere by the op
          loop reusing the walk's decoded ops and operand resolution;
        * a fault whose divergence set drains to empty is provably
          bit-identical to golden and resolves immediately;
        * a divergent load address rides on: the fault loads its own cell
          (its divergence there, else the live cell), and an address that
          raises resolves the fault ``"error"`` at that op with the
          exception its own run raises;
        * a fault that diverges in control flow, in a store address or in
          a user call's arguments, whose own value raises, or that arms at
          an exotic site is *evicted* through one helper
          into a private replay seeded from a copy-on-write fork of the
          pre-op state patched with the fault's divergence — private runs
          stop early where their state digest matches ``golden_digests``
          (convergence);
        * a ``ret`` hands divergent returned values to the caller;
        * faults still diverged when the program returns resolve to the
          golden outcome patched with their cell deltas.

        ``segment_entries`` maps fused segments to the sorted positions at
        which the golden run enters them; with it a segment's ``lanes``
        variant compiles only where the golden entries still ahead of the
        walk let it pay (:meth:`~repro.mir.lower.MirSegment.hot`).

        Outcomes are bit-identical to one from-scratch faulty run per fault
        (asserted across all registered workloads by
        ``tests/test_replay_batch.py``).
        """
        specs = list(specs)
        if not specs:
            return []
        for earlier, later in zip(specs, specs[1:]):
            if later.dynamic_id < earlier.dynamic_id:
                raise ValueError("resume_many specs must be sorted by dynamic_id")
        sched_positions = [snap.dyn for snap in schedule]
        start_index = bisect_right(sched_positions, specs[0].dynamic_id) - 1
        if start_index < 0:
            raise ValueError(
                f"no snapshot at or before dynamic id {specs[0].dynamic_id}"
            )
        self.fault = None  # the walk itself is fault-free
        self.prepare_resume(schedule[start_index])

        resolutions = [BatchFaultResolution(spec) for spec in specs]
        nspecs = len(specs)
        next_spec = 0
        next_arm = specs[0].dynamic_id
        #: fault index -> armed spec, for faults riding the lockstep walk
        active: Dict[int, FaultSpec] = {}
        #: fault index -> diverged registers + cells (resolves golden at 0)
        div_count: Dict[int, int] = {}
        #: object name -> element index -> fault index -> diverged value
        cells: Dict[str, Dict[int, Dict[int, object]]] = {}

        frames = self._frames
        memory = self.memory
        resolve = memory.resolve
        check_access = Memory._check_access_type
        max_steps = self.max_steps
        functions = self.program.functions

        frame = frames[-1]
        ops = frame.df.ops
        regs = frame.regs
        pc = frame.pc
        dyn = self._dyn

        # Fused segments (block backend).  At a segment's entry pc, unless
        # a fault arms at that very op:
        # * ``seg.plain`` when no cell divergence is live, the current frame
        #   holds no divergent register and no fault arms inside the window:
        #   every in-flight fault computes golden values there;
        # * ``seg.lanes`` otherwise: golden plus each affected fault's value
        #   per op, with this loop's bookkeeping, stopping before the first
        #   op it cannot carry (a fault arming, an address or branch
        #   direction diverging, a lane raising) so the op loop runs that
        #   op and the rest of the segment.
        # Either variant compiles once the segment is hot (``seg.hot``;
        # ``lanes`` also where ``segment_entries`` says it pays); while it
        # is cold the op loop runs the segment.
        # Counts are flushed once, in ``finally``.
        mir_fns = self._mir.functions if self._mir is not None else None
        dispatch = mir_fns[frame.df.name].dispatch if mir_fns is not None else None
        cell = [0, 0]
        entry_dyn = dyn
        fused_ops = 0
        lane_ops = 0
        stops = [0] * (LANE_END + 1)

        # ---- helpers over the divergence bookkeeping ------------------- #
        op = None
        values: List[Number] = []

        def fault_operands(fid, armed):
            """The fault's view of the current op's operand values."""
            vals = list(values)
            fdiv_local = frame.div
            if fdiv_local:
                for position, slot in enumerate(op.src):
                    if slot >= 0:
                        m = fdiv_local.get(slot)
                        if m is not None and fid in m:
                            vals[position] = m[fid]
            if armed is not None:
                index = armed.operand_index
                vals[index] = flip_bit(vals[index], armed.bit, op.op_types[index])
            return vals

        def collect_patches(fid):
            reg_patches = []
            for frame_index, fr in enumerate(frames):
                fdiv_local = fr.div
                if fdiv_local:
                    for slot, m in fdiv_local.items():
                        if fid in m:
                            reg_patches.append((frame_index, slot, m[fid]))
            cell_patches = []
            for name, cmap in cells.items():
                for index, m in cmap.items():
                    if fid in m:
                        cell_patches.append((name, index, m[fid]))
            return reg_patches, cell_patches

        def drop_fault(fid):
            for fr in frames:
                fdiv_local = fr.div
                if fdiv_local:
                    for slot in [s for s, m in fdiv_local.items() if fid in m]:
                        m = fdiv_local[slot]
                        del m[fid]
                        if not m:
                            del fdiv_local[slot]
            for name in list(cells):
                cmap = cells[name]
                for index in [i for i, m in cmap.items() if fid in m]:
                    m = cmap[index]
                    del m[fid]
                    if not m:
                        del cmap[index]
                if not cmap:
                    del cells[name]
            div_count.pop(fid, None)
            active.pop(fid, None)

        def resolve_golden(fid, at):
            resolution = resolutions[fid]
            resolution.kind = "golden"
            resolution.converged_at = at
            active.pop(fid, None)
            div_count.pop(fid, None)

        def evict(fork, fids, armed, pc, dyn):
            """Private replays of ``fids`` from the pre-op ``fork`` (captured
            on first use, returned); ``armed`` maps faults arming here to
            their specs.  ``pc``/``dyn`` are passed to keep them locals."""
            if fork is None:
                frame.pc = pc
                self._dyn = dyn
                fork = self.capture_fork()
            for fid in sorted(fids):
                reg_patches, cell_patches = collect_patches(fid)
                drop_fault(fid)
                self._private_replay(
                    resolutions[fid], fork, armed.get(fid) if armed else None,
                    reg_patches, cell_patches, sched_positions, golden_digests,
                )
            return fork

        def access(fid, address, value_type):
            """Fault ``fid``'s own ``(object, index)`` at its divergent
            load ``address``, resolved and checked in the op loop's order; when
            that raises, the fault resolves ``error`` here with the
            exception its own run raises (no fork), and this returns
            ``None``."""
            try:
                address = int(address)
                obj, index = resolve(address)
                check_access(obj, value_type, address)
            except Exception as exc:
                resolution = resolutions[fid]
                resolution.kind = "error"
                # kept without its traceback (see ``_private_replay``)
                resolution.error = exc.with_traceback(None)
                drop_fault(fid)
                return None
            return obj, index

        #: Faults whose last diverged register/cell died this op (the op's
        #: tail resolves them golden and clears the list).
        drained: List[int] = []
        lane_walk = LaneWalk(div_count, active, resolve_golden)

        # ---- the walk -------------------------------------------------- #
        try:
            while True:
                if dyn >= max_steps:
                    raise StepLimitExceeded(max_steps)
                if dispatch is not None:
                    seg = dispatch[pc]
                    if (
                        seg is not None
                        and next_arm != dyn
                        and dyn + seg.n_ops <= max_steps
                    ):
                        n_ops = seg.n_ops
                        fdiv = frame.div
                        arm_inside = dyn < next_arm < dyn + n_ops
                        if not arm_inside and not cells and not fdiv:
                            plain = seg.plain or seg.hot("plain")
                            if plain is not None:
                                try:
                                    pc = plain(frame, regs, memory, cell)
                                except BaseException:
                                    # the op loop's crash accounting: the
                                    # completed prefix counts, the crashing
                                    # op does not
                                    dyn += cell[0]
                                    cell[0] = 0
                                    raise
                                dyn += n_ops
                                fused_ops += n_ops
                                continue
                        else:
                            lanes = seg.lanes or seg.hot(
                                "lanes", dyn, segment_entries
                            )
                            if lanes is not None:
                                if fdiv is None:
                                    fdiv = frame.div = {}
                                lane_walk.last = next_spec >= nspecs
                                lane_walk.dyn = dyn
                                pc = lanes(
                                    frame, regs, memory, cell, fdiv, cells,
                                    lane_walk,
                                    next_arm - dyn if arm_inside else -1,
                                )
                                cause = cell[1]
                                if cause:
                                    n_ops = cell[0]
                                    cell[1] = 0
                                    stops[cause] += 1
                                dyn += n_ops
                                fused_ops += n_ops
                                lane_ops += n_ops
                                if cause == LANE_END:
                                    break
                                continue
                op = ops[pc]
                kind = op.kind
                op_dyn = dyn

                # ------- operand resolution (golden values) ------- #
                values = []
                for s, c in zip(op.src, op.consts):
                    if s >= 0:
                        v = regs[s]
                        if v is _UNDEF:
                            raise VMError(
                                f"use of value {op.src_names[len(values)]} "
                                f"before definition"
                            )
                        values.append(v)
                    else:
                        values.append(c)

                fdiv = frame.div
                workers = None          # fid -> armed spec (or None)
                birth_store_old = None  # STORE_DEST_OLD faults firing here
                born = None             # fids armed into lockstep this op
                fork = None

                # ------- faults arming at this op ------- #
                if dyn == next_arm:
                    while (
                        next_spec < nspecs
                        and specs[next_spec].dynamic_id == dyn
                    ):
                        fid = next_spec
                        spec = specs[fid]
                        next_spec += 1
                        target = spec.target
                        if target is FaultTarget.STORE_DEST_OLD and kind == K_STORE:
                            if birth_store_old is None:
                                birth_store_old = []
                            birth_store_old.append(fid)
                        elif (
                            target is FaultTarget.OPERAND
                            and 0 <= spec.operand_index < len(values)
                            and (
                                kind == K_FN
                                or kind == K_CALL_INTRINSIC
                                or kind == K_GEP
                                or kind == K_PHI
                                or (kind == K_STORE and spec.operand_index == 0)
                            )
                        ):
                            # a pure value-level flip: ride the lockstep walk
                            active[fid] = spec
                            if workers is None:
                                workers = {}
                            workers[fid] = spec
                            if born is None:
                                born = []
                            born.append(fid)
                        else:
                            # exotic site (result target, address operand,
                            # branch condition, call or return, out-of-range
                            # operand index): reproduce exactly via a private
                            # replay with the fault armed on the pre-op fork
                            fork = evict(fork, (fid,), {fid: spec}, pc, dyn)
                    next_arm = (
                        specs[next_spec].dynamic_id
                        if next_spec < nspecs
                        else -1
                    )

                # ------- divergence reaching this op's operands ------- #
                aff = None
                if fdiv:
                    for s in op.src:
                        if s >= 0:
                            m = fdiv.get(s)
                            if m:
                                if aff is None:
                                    aff = set(m)
                                else:
                                    aff.update(m)

                # ------- control-flow / addressing / frame divergence: evict #
                # (a divergent load address rides on: its faults are the
                # load's ``aff`` and load their own cells below)
                if aff and kind != K_LOAD:
                    evictees = None
                    if kind == K_STORE:
                        s = op.src[1]
                        m = fdiv.get(s) if s >= 0 else None
                        if m:
                            evictees = set(m)
                            aff = aff - evictees or None
                    elif kind == K_BR_COND:
                        cond_map = fdiv.get(op.src[0]) if op.src[0] >= 0 else None
                        if cond_map:
                            evictees = {
                                fid
                                for fid, v in cond_map.items()
                                if bool(v) != bool(values[0])
                            } or None
                        aff = None  # same-direction divergence has no value effect
                    elif kind == K_CALL_USER:
                        # no divergence enters a callee through its
                        # arguments: a divergent argument leaves the walk
                        evictees = aff
                        aff = None
                    if evictees:
                        fork = evict(fork, evictees, None, pc, dyn)
                if aff:
                    if workers is None:
                        workers = dict.fromkeys(aff)
                    else:
                        for fid in aff:
                            workers.setdefault(fid)

                # ------- golden execution + divergence updates ------- #
                result: Optional[Number] = None
                next_pc = pc + 1
                load_fmap = None
                phi_position = -1

                if kind == K_FN or kind == K_CALL_INTRINSIC:
                    result = op.fn(values)
                elif kind == K_LOAD:
                    address = int(values[0])
                    obj, element_index = resolve(address)
                    check_access(obj, op.result_type, address)
                    result = obj.get(element_index)
                    cmap = cells.get(obj.name)
                    if cmap is not None:
                        load_fmap = cmap.get(element_index)
                    if aff:
                        # faults whose address diverges load their own
                        # cell: their divergence there, else the live cell
                        load_fmap = dict(load_fmap) if load_fmap else {}
                        amap = fdiv[op.src[0]]
                        for fid, address in [(f, amap[f]) for f in aff]:
                            hit = access(fid, address, op.result_type)
                            if hit is None:
                                del workers[fid]
                                load_fmap.pop(fid, None)
                                continue
                            f_obj, f_index = hit
                            f_cells = cells.get(f_obj.name)
                            f_map = f_cells.get(f_index) if f_cells else None
                            load_fmap[fid] = (
                                f_map[fid] if f_map is not None and fid in f_map
                                else f_obj.get(f_index)
                            )
                    if load_fmap:
                        # readers of diverged cells diverge in the dest
                        if workers is None:
                            workers = {}
                        for fid in load_fmap:
                            workers.setdefault(fid)
                elif kind == K_STORE:
                    address = int(values[1])
                    obj, element_index = resolve(address)
                    check_access(obj, op.op_types[0], address)
                    new = None
                    if workers:
                        # per-fault casts before the golden store, so a fault
                        # whose cast raises evicts from the pre-op state;
                        # ``cast_value`` of the golden value is what the set
                        # stores
                        golden_stored = obj.cast_value(values[0])
                        new = {}
                        raised = []
                        for fid, armed in workers.items():
                            try:
                                cast = obj.cast_value(fault_operands(fid, armed)[0])
                            except Exception:
                                raised.append(fid)
                                continue
                            if not _values_bit_equal(cast, golden_stored):
                                new[fid] = cast
                        if raised:
                            fork = evict(fork, raised, workers, pc, dyn)
                    obj.set(element_index, values[0])
                    cmap = cells.get(obj.name)
                    had_old = cmap is not None and element_index in cmap
                    if workers or had_old or birth_store_old:
                        old = cmap.pop(element_index, None) if cmap else None
                        _rebase(old, new, div_count, drained)
                        if new:
                            cells.setdefault(obj.name, {})[element_index] = new
                        elif cmap is not None and not cmap:
                            # keep ``cells`` free of empty maps: an empty
                            # ``cells`` is the fused path's "no live cell
                            # divergence" test
                            cells.pop(obj.name, None)
                        if birth_store_old:
                            # the flipped old value is overwritten by this
                            # very store: provably golden from here on
                            for fid in birth_store_old:
                                resolve_golden(fid, op_dyn)
                elif kind == K_GEP:
                    result = int(values[0]) + int(values[1]) * op.gep_size
                elif kind == K_BR_COND:
                    if values[0]:
                        next_pc = op.pc_true
                    else:
                        next_pc = op.pc_false
                    frame.prev_block = op.block_index
                elif kind == K_BR:
                    next_pc = op.pc_true
                    frame.prev_block = op.block_index
                elif kind == K_RET:
                    result = values[0] if values else None
                    # the faults whose returned value diverges (no fault
                    # arms at a return, so none can raise here)
                    ret_divs = None
                    if workers:
                        ret_divs = {
                            fid: fault_operands(fid, None)[0] for fid in workers
                        }
                    popped = frames.pop()
                    pdiv = popped.div
                    if pdiv:
                        for m in pdiv.values():
                            _rebase(m, None, div_count, drained)
                        popped.div = None
                    for stack_obj in popped.stack_objects:
                        memory.release(stack_obj)
                        cmap = cells.pop(stack_obj.name, None)
                        if cmap:
                            for m in cmap.values():
                                _rebase(m, None, div_count, drained)
                    dyn += 1
                    if not frames:
                        # entry return: survivors resolve to golden patched
                        # with their cell deltas
                        for fid in list(active):
                            resolution = resolutions[fid]
                            resolution.kind = "completed"
                            rv = result
                            if ret_divs and fid in ret_divs:
                                rv = ret_divs[fid]
                            resolution.return_value = rv
                            resolution.steps = dyn
                            deltas = []
                            for name, cmap in cells.items():
                                for index, m in cmap.items():
                                    if fid in m:
                                        deltas.append((name, index, m[fid]))
                            resolution.cell_deltas = deltas
                        active.clear()
                        break
                    ret_slot = popped.ret_slot
                    frame = frames[-1]
                    if ret_slot >= 0:
                        if result is None:
                            raise VMError(
                                f"call to {op.function} returned no value"
                            )
                        frame.regs[ret_slot] = result
                        # the divergent returned values land in the
                        # caller's register (a duplicated workload's
                        # wrapper compares its replicas' results there)
                        cdiv = frame.div
                        old = cdiv.pop(ret_slot, None) if cdiv else None
                        _rebase(old, ret_divs, div_count, drained)
                        if ret_divs:
                            if cdiv is None:
                                cdiv = frame.div = {}
                            cdiv[ret_slot] = ret_divs
                    ops = frame.df.ops
                    regs = frame.regs
                    pc = frame.pc
                    if dispatch is not None:
                        dispatch = mir_fns[frame.df.name].dispatch
                    if drained:
                        for fid in drained:
                            if fid in active and div_count.get(fid, 0) == 0:
                                resolve_golden(fid, op_dyn)
                        drained.clear()
                    if not active and next_spec >= nspecs:
                        break
                    continue
                elif kind == K_CALL_USER:
                    callee_df = functions.get(op.callee)
                    if callee_df is None:
                        raise UnknownIntrinsic(
                            f"call to unknown function {op.callee!r}"
                        )
                    # no call-depth check: the walk follows golden control
                    # flow, whose depth stays within the limit; a fault
                    # deepening the recursion diverges a branch and is
                    # evicted before the call
                    frame.pc = next_pc
                    callee_frame = _Frame(callee_df)
                    nargs = min(callee_df.nargs, len(values))
                    callee_frame.regs[:nargs] = values[:nargs]
                    callee_frame.ret_slot = op.dest
                    callee_frame.ret_dyn = dyn
                    frames.append(callee_frame)
                    dyn += 1
                    frame = callee_frame
                    ops = callee_df.ops
                    regs = frame.regs
                    pc = 0
                    if dispatch is not None:
                        dispatch = mir_fns[callee_df.name].dispatch
                    if not active and next_spec >= nspecs:
                        break
                    continue
                elif kind == K_ALLOCA:
                    obj = memory.allocate_stack(
                        op.alloca_hint, op.alloca_type, op.alloca_count
                    )
                    frame.stack_objects.append(obj)
                    result = obj.base
                else:  # K_PHI
                    prev = frame.prev_block
                    if prev < 0:
                        raise VMError("phi executed in the entry block")
                    phi_position = op.phi_by_block.get(prev, -1)
                    if phi_position < 0:
                        raise VMError(
                            f"phi has no incoming value for predecessor "
                            f"{frame.df.block_labels[prev]}"
                        )
                    result = values[phi_position]

                # ------- generic dest write + divergence rebuild ------- #
                dest = op.dest
                if dest >= 0:
                    new = None
                    if workers:
                        new = {}
                        raised = []
                        for fid, armed in workers.items():
                            try:
                                if kind == K_LOAD:
                                    r_f = (
                                        load_fmap[fid]
                                        if load_fmap and fid in load_fmap
                                        else result
                                    )
                                elif kind == K_GEP:
                                    vals = fault_operands(fid, armed)
                                    r_f = (
                                        int(vals[0])
                                        + int(vals[1]) * op.gep_size
                                    )
                                elif kind == K_PHI:
                                    vals = fault_operands(fid, armed)
                                    r_f = vals[phi_position]
                                else:  # K_FN / K_CALL_INTRINSIC
                                    vals = fault_operands(fid, armed)
                                    r_f = op.fn(vals)
                            except Exception:
                                raised.append(fid)
                                continue
                            if not _values_bit_equal(r_f, result):
                                new[fid] = r_f
                        if raised:
                            # evicted outside the handler, so the replay's
                            # error does not chain to this one; it raises
                            # the same error
                            fork = evict(fork, raised, workers, pc, dyn)
                    regs[dest] = result
                    if fdiv is not None or new:
                        old = fdiv.pop(dest, None) if fdiv else None
                        _rebase(old, new, div_count, drained)
                        if new:
                            if fdiv is None:
                                fdiv = frame.div = {}
                            fdiv[dest] = new

                dyn += 1
                if drained:
                    for fid in drained:
                        if fid in active and div_count.get(fid, 0) == 0:
                            resolve_golden(fid, op_dyn)
                    drained.clear()
                if born:
                    for fid in born:
                        if fid in active and div_count.get(fid, 0) == 0:
                            resolve_golden(fid, op_dyn)
                if not active and next_spec >= nspecs:
                    break
                pc = next_pc
        except BaseException:
            while frames:
                dead = frames.pop()
                for stack_obj in dead.stack_objects:
                    memory.release(stack_obj)
            raise
        finally:
            self._dyn = dyn
            self.walk_ops = dyn - entry_dyn
            self.walk_fused_ops = fused_ops
            self.walk_lane_ops = lane_ops
            self.walk_stops = {
                label: stops[cause]
                for cause, label in LANE_STOP_CAUSES.items()
                if stops[cause]
            }

        return resolutions

    # ------------------------------------------------------------------ #
    # pause handling (snapshot capture / convergence checks)
    # ------------------------------------------------------------------ #
    def _next_pause(self) -> int:
        nxt = self._next_capture
        if (
            self._digest_positions is not None
            and self._digest_cursor < len(self._digest_positions)
        ):
            check = self._digest_positions[self._digest_cursor]
            if check < nxt:
                nxt = check
        return nxt

    def _on_pause(self) -> bool:
        """Handle a scheduled pause at the current dynamic id.

        Returns ``True`` when the run should stop because it converged onto
        the golden execution.
        """
        if self._dyn == self._next_capture:
            self.snapshots.append(self.capture_fork())
            reg = _metrics_registry()
            if reg.enabled:
                reg.inc("engine.snapshots")
            if (
                self.snapshot_budget is not None
                and len(self.snapshots) >= self.snapshot_budget
            ):
                # thin-by-doubling: drop every other snapshot and double the
                # interval; every retained position (even multiples of the
                # old interval) is a multiple of the new one
                del self.snapshots[1::2]
                self.snapshot_interval *= 2
                self._next_capture = self.snapshots[-1].dyn + self.snapshot_interval
            else:
                self._next_capture += self.snapshot_interval
        if (
            self._digest_positions is not None
            and self._digest_cursor < len(self._digest_positions)
            and self._dyn == self._digest_positions[self._digest_cursor]
        ):
            self._digest_cursor += 1
            golden = self._golden_digests.get(self._dyn)
            if golden is not None and self.state_digest() == golden:
                self.converged = True
                self.converged_at = self._dyn
                return True
        return False

    # ------------------------------------------------------------------ #
    # the hot loop
    # ------------------------------------------------------------------ #
    def _loop(self) -> ExecutionResult:  # noqa: C901 - deliberately flat
        frames = self._frames
        memory = self.memory
        sink = self.sink
        tracing = sink is not None
        if tracing:
            (t_statics, t_static, t_values, t_producers, t_offset, t_nvalues,
             t_result, t_address, t_object, t_element, t_writer,
             t_taken) = sink.recorder(self._dyn)
        resolve = memory.resolve
        check_access = Memory._check_access_type
        last_writer = self._last_writer
        fault = self.fault
        fault_dyn = fault.dynamic_id if fault is not None else -1
        fault_operand = fault is not None and fault.target is FaultTarget.OPERAND
        fault_result = fault is not None and fault.target is FaultTarget.RESULT
        fault_store_old = fault is not None and fault.target is FaultTarget.STORE_DEST_OLD
        max_steps = self.max_steps
        max_depth = MAX_CALL_DEPTH
        functions = self.program.functions
        module = self.module

        frame = frames[-1]
        ops = frame.df.ops
        regs = frame.regs
        prods = frame.prods
        pc = frame.pc
        dyn = self._dyn
        next_pause = self._next_pause()
        return_value: Optional[Number] = None

        # MIR fast path: dispatch whole fused segments on sink-free runs of
        # the block backend (traced runs record through the op loop).  A
        # segment's ``plain`` variant compiles once the segment is hot
        # (``seg.hot``); while it is cold the op loop runs the segment.
        mir = self._mir
        fast_mode = mir is not None and not tracing
        mir_fns = mir.functions if fast_mode else None
        dispatch = mir_fns[frame.df.name].dispatch if fast_mode else None
        log_entry = self.entry_log.append if self.entry_log is not None else None
        cell = [0]
        # telemetry accumulators: plain local ints in the hot loop, flushed
        # to the metrics registry exactly once per _loop call (see finally)
        entry_dyn = dyn
        segs = 0
        seg_ops = 0

        try:
            while True:
                if dyn >= max_steps:
                    raise StepLimitExceeded(max_steps)
                if dyn == next_pause:
                    frame.pc = pc
                    self._dyn = dyn
                    if self._on_pause():
                        return ExecutionResult(
                            return_value=None, steps=dyn, trace=sink
                        )
                    next_pause = self._next_pause()

                if fast_mode:
                    seg = dispatch[pc]
                    if seg is not None:
                        if log_entry is not None:
                            log_entry((seg, dyn))
                        end = dyn + seg.n_ops
                        # dispatch only when the whole segment fits before
                        # the next pause / step limit, no fault is armed
                        # inside its dynamic window and the variant is hot
                        if (
                            end <= next_pause
                            and end <= max_steps
                            and (fault_dyn < dyn or fault_dyn >= end)
                        ):
                            fn = seg.plain or seg.hot("plain")
                        else:
                            fn = None
                        if fn is not None:
                            try:
                                pc = fn(frame, regs, memory, cell)
                            except BaseException:
                                dyn += cell[0]
                                cell[0] = 0
                                raise
                            dyn = end
                            segs += 1
                            seg_ops += seg.n_ops
                            continue

                op = ops[pc]
                kind = op.kind

                # ---------------------------------------------------- #
                # operand resolution
                # ---------------------------------------------------- #
                values: List[Number] = []
                for s, c in zip(op.src, op.consts):
                    if s >= 0:
                        v = regs[s]
                        if v is _UNDEF:
                            raise VMError(
                                f"use of value {op.src_names[len(values)]} "
                                f"before definition"
                            )
                        values.append(v)
                    else:
                        values.append(c)

                if dyn == fault_dyn and fault_operand:
                    index = fault.operand_index
                    if index >= len(values):
                        raise VMError(
                            f"fault operand index {index} out of range for "
                            f"{op.opcode.value} with {len(values)} operands"
                        )
                    values[index] = flip_bit(
                        values[index], fault.bit, op.op_types[index]
                    )

                # ---------------------------------------------------- #
                # execution
                # ---------------------------------------------------- #
                result: Optional[Number] = None
                address = -1
                object_name: Optional[str] = None
                element_index = -1
                writer_id = -1
                taken_label: Optional[str] = None
                next_pc = pc + 1

                if kind == K_FN:
                    result = op.fn(values)
                elif kind == K_LOAD:
                    address = int(values[0])
                    obj, element_index = resolve(address)
                    object_name = obj.name
                    check_access(obj, op.result_type, address)
                    result = obj.get(element_index)
                    if tracing:
                        writer_id = last_writer.get(address, -1)
                elif kind == K_STORE:
                    address = int(values[1])
                    obj, element_index = resolve(address)
                    object_name = obj.name
                    if dyn == fault_dyn and fault_store_old:
                        memory.flip_bit_at(address, fault.bit)
                    check_access(obj, op.op_types[0], address)
                    obj.set(element_index, values[0])
                    if tracing:
                        last_writer[address] = dyn
                elif kind == K_GEP:
                    result = int(values[0]) + int(values[1]) * op.gep_size
                elif kind == K_BR_COND:
                    if values[0]:
                        next_pc = op.pc_true
                        taken_label = op.label_true
                    else:
                        next_pc = op.pc_false
                        taken_label = op.label_false
                    frame.prev_block = op.block_index
                elif kind == K_BR:
                    next_pc = op.pc_true
                    taken_label = op.label_true
                    frame.prev_block = op.block_index
                elif kind == K_CALL_INTRINSIC:
                    result = op.fn(values)
                elif kind == K_RET:
                    result = values[0] if values else None
                elif kind == K_CALL_USER:
                    callee_df = functions.get(op.callee)
                    if callee_df is None:
                        raise UnknownIntrinsic(
                            f"call to unknown function {op.callee!r}"
                        )
                    if len(frames) >= max_depth:
                        raise VMError(
                            f"call depth limit ({max_depth}) exceeded"
                        )
                    if tracing:
                        # the call's event precedes the callee's; its
                        # result arrives with the callee's return
                        t_static(t_statics[op])
                        t_values(values)
                        t_producers(map(prods.__getitem__, op.src))
                        t_offset(t_nvalues())
                        t_result(None)
                        t_address(-1)
                        t_object(None)
                        t_element(-1)
                        t_writer(-1)
                        t_taken(None)
                    frame.pc = next_pc
                    callee_frame = _Frame(callee_df)
                    # mirror the interpreter's zip semantics on arity
                    # mismatch: surplus arguments are ignored, missing ones
                    # leave their slots undefined (raising on first use)
                    nargs = min(callee_df.nargs, len(values))
                    callee_frame.regs[:nargs] = values[:nargs]
                    if tracing:
                        callee_frame.prods[:nargs] = map(
                            prods.__getitem__, op.src[:nargs]
                        )
                    callee_frame.ret_slot = op.dest
                    callee_frame.ret_dyn = dyn
                    frames.append(callee_frame)
                    dyn += 1
                    frame = callee_frame
                    ops = callee_df.ops
                    regs = frame.regs
                    prods = frame.prods
                    if fast_mode:
                        dispatch = mir_fns[callee_df.name].dispatch
                    pc = 0
                    continue
                elif kind == K_ALLOCA:
                    obj = memory.allocate_stack(
                        op.alloca_hint, op.alloca_type, op.alloca_count
                    )
                    frame.stack_objects.append(obj)
                    result = obj.base
                else:  # K_PHI
                    prev = frame.prev_block
                    if prev < 0:
                        raise VMError("phi executed in the entry block")
                    position = op.phi_by_block.get(prev)
                    if position is None:
                        raise VMError(
                            f"phi has no incoming value for predecessor "
                            f"{frame.df.block_labels[prev]}"
                        )
                    result = values[position]

                dest = op.dest
                if dest >= 0:
                    if dyn == fault_dyn and fault_result and kind != K_CALL_INTRINSIC:
                        result = flip_bit(result, fault.bit, op.result_type)
                    regs[dest] = result
                    if tracing:
                        prods[dest] = dyn

                if tracing:
                    t_static(t_statics[op])
                    t_values(values)
                    t_producers(map(prods.__getitem__, op.src))
                    t_offset(t_nvalues())
                    t_result(result if op.has_result else None)
                    t_address(address)
                    t_object(object_name)
                    t_element(element_index)
                    t_writer(writer_id)
                    t_taken(taken_label)
                dyn += 1

                if kind == K_RET:
                    frames.pop()
                    for obj in frame.stack_objects:
                        memory.release(obj)
                    if not frames:
                        return_value = result
                        break
                    ret_slot = frame.ret_slot
                    ret_dyn = frame.ret_dyn
                    frame = frames[-1]
                    if ret_slot >= 0:
                        if result is None:
                            raise VMError(
                                f"call to {op.function} returned no value"
                            )
                        frame.regs[ret_slot] = result
                        if tracing:
                            frame.prods[ret_slot] = ret_dyn
                    ops = frame.df.ops
                    regs = frame.regs
                    prods = frame.prods
                    if fast_mode:
                        dispatch = mir_fns[frame.df.name].dispatch
                    pc = frame.pc
                    continue

                pc = next_pc
        except BaseException:
            # release any stack allocations still owned by live frames so a
            # crashing run leaves memory as the recursive interpreter would
            while frames:
                dead = frames.pop()
                for obj in dead.stack_objects:
                    memory.release(obj)
            raise
        finally:
            self._dyn = dyn
            reg = _metrics_registry()
            if reg.enabled:
                executed = dyn - entry_dyn
                if executed:
                    reg.inc("engine.ops", executed)
                if segs:
                    reg.inc("engine.segment_dispatches", segs)
                    reg.inc("engine.segment_ops", seg_ops)

        return ExecutionResult(return_value=return_value, steps=dyn, trace=sink)
