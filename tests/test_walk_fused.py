"""Fused-segment dispatch inside the lockstep batch walk.

At a fused MIR segment's entry pc,
:meth:`~repro.vm.engine.Engine.resume_many` runs ``seg.plain`` when no
divergence can reach the segment and no fault arms inside its dynamic
window, and otherwise the segment's ``lanes`` variant, which computes each
affected fault's value next to golden and stops before the first op it
cannot carry (a fault arming, an address or branch direction diverging, a
lane raising); the op loop runs that op and the rest of the segment.  A
fault arming at the segment's first op sends the whole segment to the op
loop.  These cases pin the edges of that rule on small programs whose
every op is visible, checking each batch against one from-scratch faulty
run per fault, and the ``block`` walk against the ``op`` walk
on resolution kind, ``converged_at`` and the op each eviction forks at:

* faults arming at, inside and just past a fused window, with and
  without live divergence (the first, an interior and the last op);
* a callee running ``plain`` while its caller frame holds a divergent
  register, and the caller's post-call segment carrying that register in
  ``lanes`` (divergence entering through a live-in);
* survivors that keep cell divergence to the end of the program;
* divergence entering through a diverged-cell load mid-segment, a
  divergent store whose cast equals golden, a lane yielding ``-0.0``
  against golden ``0.0`` and a NaN with another payload;
* a divergent address mid-segment evicting at exactly that op, a
  same-direction branch divergence riding on and an opposite one evicting,
  and a lane raising where golden does not;
* a select on a divergent condition between two values computed from
  constants only (neither can diverge, and the lane must still pick the
  other one);
* in the cold all-workload sweep, no cell's divergence map ever holds a
  value bit-equal to golden when a ``lanes`` segment loads the cell (so
  the load takes the map as is, like the op loop);
* a crash, a fault arming or an eviction at every offset of a hand-built
  segment reports that offset as the completed prefix (the line table),
  in ``plain`` and ``lanes``;
* frame boundaries: a divergent user-call argument evicts at the call, a
  divergent non-entry return value rides on in the caller's register,
  and an operand fault arming at a call or a return evicts there;
* a fault whose own value raises where golden's does not, at a store and
  at an op with a destination, evicts from the pre-op state and resolves
  ``error`` in its private replay;
* carried addresses: a divergent load address rides on and loads its own
  cell, and a load address that raises (out of bounds, misaligned, an
  element of the wrong type) resolves ``error`` at that op with no private
  replay; a divergent store address evicts, and one that raises resolves
  ``error`` in its private replay.

Segments compile ``plain`` and ``lanes`` only once hot; the cases that
assert the fused path itself ran compile every variant up front
(``mir_helpers.compile_all``), and the all-workload sweep runs both cold
and warmed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.replay import ReplayContext
from repro.ir import Constant, Function, IRBuilder, Module
from repro.ir.instructions import ICmpPredicate
from repro.ir.types import F32, F64, I64, VOID, pointer_to
from repro.mir import fuse, mir_program_for
from repro.vm.engine import (
    LANE_ARM,
    LANE_ERROR,
    LANE_EVICT,
    DecodedProgram,
    Engine,
    LaneWalk,
    _Frame,
    _UNDEF,
    _values_bit_equal,
)
from repro.vm.errors import ArithmeticFault, SegmentationFault
from repro.vm.faults import FaultSpec
from repro.vm.memory import Memory
from repro.workloads.base import Workload

from mir_helpers import cold, compile_all, engine_backend


def scale(v: "double*", n: "i64") -> "double":
    acc = 0.0
    for i in range(n):
        v[i] = v[i] * 2.0 + 1.0
        acc = acc + v[i]
    return acc


def kernel(a: "double*", v: "double*", out: "double*", n: "i64") -> "void":
    for i in range(n):
        out[i] = a[i] * 3.0 + scale(v, n)


class CallWorkload(Workload):
    """``out[i] = a[i] * 3 + scale(v, n)``: a caller temporary lives across
    a call whose loop body is one fused segment."""

    name = "walk-call"
    target_objects = ("a", "v")
    output_objects = ("out", "v")
    entry = "kernel"

    def kernels(self):
        return [scale, kernel]

    def setup(self, memory: Memory):
        n = 4
        a = memory.allocate("a", F64, n, initial=np.arange(1.0, n + 1))
        v = memory.allocate("v", F64, n, initial=np.ones(n))
        out = memory.allocate("out", F64, n)
        return {"a": a.base, "v": v.base, "out": out.base, "n": n}


@pytest.fixture(scope="module")
def workload():
    return CallWorkload()


@pytest.fixture(scope="module")
def events(workload):
    return list(workload.traced_run().trace)


def _segment_at(mir, pc):
    """The segment of ``mir`` that holds op ``pc``, and the op's offset."""
    return next((seg, seg.pcs.index(pc)) for seg in mir.segments if pc in seg.pcs)


def _window_of(workload, event):
    """``(entry dyn, n_ops)`` of the fused segment executing ``event``."""
    program = DecodedProgram.of(workload.module())
    mir = mir_program_for(program).functions[event.function]
    ops = program.functions[event.function].ops
    pc = next(pc for pc, op in enumerate(ops) if op.static_uid == event.static_uid)
    seg, offset = _segment_at(mir, pc)
    assert seg.fused and offset > 0, "event must sit inside a fused segment"
    return event.dynamic_id - offset, seg.n_ops


def _first(events, function, opcode):
    return next(
        e for e in events if e.function == function and e.opcode.value == opcode
    )


def _batch_matches_sequential(workload, specs):
    """Replay ``specs`` as one batch and run them one by one from scratch;
    assert bit identity.

    Returns the batched results and the context's scheduler stats."""
    batched = ReplayContext(workload)
    results = batched.replay_many(specs)
    for spec, result in zip(specs, results):
        try:
            expected = workload.fresh_instance().run(fault=spec)
        except Exception as exc:  # noqa: BLE001 - crash parity
            assert type(result.error) is type(exc), spec
            assert str(result.error) == str(exc), spec
            continue
        assert result.error is None, (spec, result.error)
        assert result.outcome.steps == expected.steps, spec
        assert result.outcome.return_value == expected.return_value, spec
        for name, array in expected.outputs.items():
            assert np.array_equal(
                result.outcome.outputs[name].view(np.uint8), array.view(np.uint8)
            ), (spec, name, result.via)
        if result.converged_at is not None:
            assert spec.dynamic_id <= result.converged_at <= expected.steps, spec
    return results, batched.stats


def test_faults_arming_at_inside_and_after_a_fused_window(workload, events):
    entry, n_ops = _window_of(workload, _first(events, "scale", "fmul"))
    window = [events[dyn] for dyn in range(entry, entry + n_ops + 1)]
    # operand-0 flips of every value-carrying op from the window entry to
    # the first op past it: entry, interior offsets, last op, and after
    specs = [
        FaultSpec(dynamic_id=e.dynamic_id, bit=52)
        for e in window
        if e.opcode.value in ("fmul", "fadd", "store", "getelementptr", "icmp")
    ]
    assert any(entry < spec.dynamic_id < entry + n_ops for spec in specs)
    results, _ = _batch_matches_sequential(workload, specs)
    # every fault armed: a walk that jumped over an arming op would leave
    # the fault unresolved (neither outcome nor error)
    assert all(r.outcome is not None or r.error is not None for r in results)


def test_callee_runs_fused_while_caller_holds_divergent_register(
    workload, events, monkeypatch
):
    # flip the loaded a[0] feeding ``a[i] * 3.0``: the product is a caller
    # register that stays divergent across the call to scale()
    fmul = _first(events, "kernel", "fmul")
    spec = FaultSpec(dynamic_id=fmul.dynamic_id, bit=62, operand_index=0)

    walking = []  # the engine inside resume_many, if any
    original = Engine.resume_many

    def recording_resume_many(self, *args, **kwargs):
        walking.append(self)
        try:
            return original(self, *args, **kwargs)
        finally:
            walking.pop()

    monkeypatch.setattr(Engine, "resume_many", recording_resume_many)
    compile_all(workload.module())
    program = DecodedProgram.of(workload.module())
    seen = []
    for seg in mir_program_for(program).functions["scale"].segments:
        if seg.fused:
            def spy(frame, regs, memory, cell, _plain=seg.plain):
                if walking:
                    caller = walking[-1]._frames[-2]
                    seen.append(bool(caller.div))
                return _plain(frame, regs, memory, cell)

            monkeypatch.setattr(seg, "plain", spy)

    # the premise is a fused callee; the op backend has no fused segments
    with engine_backend("block"):
        results, stats = _batch_matches_sequential(workload, [spec])
    assert results[0].via == "completed"  # the product reached ``out``
    assert any(seen), "callee never ran fused under a divergent caller"
    assert stats.walk_fused_ops > 0


def test_survivors_keep_cell_divergence_to_the_end(workload, events):
    # every a[i] feeds exactly one out[i] that is never overwritten, so
    # each fault ends the walk as a live cell delta
    fmuls = [e for e in events if e.function == "kernel" and e.opcode.value == "fmul"]
    specs = [
        FaultSpec(dynamic_id=e.dynamic_id, bit=60, operand_index=0) for e in fmuls
    ]
    results, stats = _batch_matches_sequential(workload, specs)
    assert [r.via for r in results] == ["completed"] * len(specs)
    # cell divergence is live from the first store onward: the callee
    # calls after it run op by op
    assert stats.walk_fused_ops < stats.walk_ops


def test_walk_counters_reach_the_metrics_registry(workload, events):
    from repro.obs.metrics import registry

    reg = registry()
    if not reg.enabled:
        pytest.skip("metrics disabled (REPRO_METRICS=0)")
    cursor = "test-walk-counters"
    reg.snapshot_delta(cursor)
    fmul = _first(events, "kernel", "fmul")
    context = ReplayContext(workload)
    context.replay_many([FaultSpec(dynamic_id=fmul.dynamic_id, bit=3)])
    totals = {}
    for entry in reg.snapshot_delta(cursor)["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
    assert totals["replay.walk_ops"] == context.stats.walk_ops > 0
    assert totals.get("replay.walk_fused_ops", 0) == context.stats.walk_fused_ops


# --------------------------------------------------------------------- #
# lanes: divergence carried through fused segments
# --------------------------------------------------------------------- #
def _walk_record(workload, specs, backend):
    """``(via, converged_at)`` per fault and the dyn each eviction forked at,
    for one batch on ``backend``."""
    forks = {}
    original = Engine._private_replay

    def spy(self, resolution, fork, *args, **kwargs):
        forks[resolution.spec] = fork.dyn
        return original(self, resolution, fork, *args, **kwargs)

    with engine_backend(backend), pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_private_replay", spy)
        context = ReplayContext(workload)
        results = context.replay_many(specs)
    return [(r.via, r.converged_at) for r in results], forks, context.stats


def _check_batch(workload, specs):
    """From-scratch parity, then block-vs-op parity; the block walk's stats."""
    results, _ = _batch_matches_sequential(workload, specs)
    kinds, forks, stats = _walk_record(workload, specs, "block")
    op_kinds, op_forks, op_stats = _walk_record(workload, specs, "op")
    assert kinds == op_kinds
    assert kinds == [(r.via, r.converged_at) for r in results]
    assert forks == op_forks
    assert op_stats.walk_fused_ops == op_stats.walk_lane_ops == 0
    assert stats.walk_ops == op_stats.walk_ops
    return kinds, forks, stats


def _counted_loop(func, b, i_slot, label, emit_body):
    """``for i in range(n): emit_body(i)`` with ``i`` kept in ``i_slot``."""
    b.store(0, i_slot)
    head = func.add_block(f"{label}.head")
    body = func.add_block(f"{label}.body")
    done = func.add_block(f"{label}.exit")
    b.br(head)
    b.set_block(head)
    more = b.icmp(ICmpPredicate.SLT, b.load(i_slot), func.arg_by_name("n"), I64)
    b.cond_br(more, body, done)
    b.set_block(body)
    emit_body(b.load(i_slot))
    b.store(b.add(b.load(i_slot), 1), i_slot)
    b.br(head)
    b.set_block(done)


def _lanes_module() -> Module:
    """Two counted loops over ``n`` elements, built by hand.

    ``copy`` re-stores ``a``, ``x``, ``y``, ``dv``, ``idx`` and ``m``
    element by element (the fault sites).  ``use`` then consumes them in
    one fused body segment that ends in a branch on the raw ``i64``
    ``m[i]`` (no compare), so the branch can diverge in value without
    diverging in direction::

        out[i] = a[i] * 2.0;  z[i] = a[i] * 0.0;  r[i] = 1.0 / z[i]
        x[i] = y[i] +f32 1e8; y[i] = 0.0      (f32 add: the store rounds)
        q[i] = 100 / dv[i];   w[idx[i]] = 1.0
        if m[i]: out2[i] = 1.0 else: out2[i] = 2.0
    """
    names = ("a", "x", "y", "z", "r", "dv", "q", "idx", "w", "m", "out", "out2", "n")
    types = (F64, F32, F32, F64, F64, I64, I64, I64, F64, I64, F64, F64)
    func = Function(
        "main", [pointer_to(t) for t in types] + [I64], list(names), VOID
    )
    arg = func.arg_by_name
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))
    i_slot = b.alloca(I64, name="i")

    def copy(i):
        for name in ("a", "x", "y", "dv", "idx", "m"):
            ptr = b.gep(arg(name), i)
            b.store(b.load(ptr), ptr)

    def use(i):
        a_i = b.load(b.gep(arg("a"), i))
        b.store(b.fmul(a_i, 2.0), b.gep(arg("out"), i))
        z_ptr = b.gep(arg("z"), i)
        b.store(b.fmul(a_i, 0.0), z_ptr)
        b.store(b.fdiv(1.0, b.load(z_ptr)), b.gep(arg("r"), i))
        y_ptr = b.gep(arg("y"), i)
        b.store(b.fadd(b.load(y_ptr), 1.0e8, F32), b.gep(arg("x"), i))
        b.store(0.0, y_ptr)
        b.store(b.sdiv(100, b.load(b.gep(arg("dv"), i))), b.gep(arg("q"), i))
        b.store(1.0, b.gep(arg("w"), b.load(b.gep(arg("idx"), i))))
        taken = func.add_block("use.then")
        other = func.add_block("use.else")
        merge = func.add_block("use.merge")
        b.cond_br(b.load(b.gep(arg("m"), i)), taken, other)
        for block, value in ((taken, 1.0), (other, 2.0)):
            b.set_block(block)
            b.store(value, b.gep(arg("out2"), i))
            b.br(merge)
        b.set_block(merge)

    _counted_loop(func, b, i_slot, "copy", copy)
    _counted_loop(func, b, i_slot, "use", use)
    b.ret()
    module = Module("walk-lanes")
    module.add_function(func)
    return module


#: A quiet NaN with payload bits, so a mantissa flip keeps it a NaN.
_NAN = np.frombuffer(np.uint64(0x7FF8000000000010).tobytes(), np.float64)[0]


class LanesWorkload(Workload):
    name = "walk-lanes"
    target_objects = ("a", "y", "dv", "idx", "m")
    output_objects = ("out", "z", "r", "x", "q", "w", "m", "out2")
    entry = "main"

    def kernels(self):  # the module is built by hand
        return []

    def module(self):
        if self._module is None:
            self._module = _lanes_module()
        return self._module

    def setup(self, memory: Memory):
        n = 4
        arrays = {
            "a": (F64, [1.5, _NAN, 2.5, 3.5]),
            "x": (F32, [0.0] * n),
            "y": (F32, [1.0] * n),
            "z": (F64, [0.0] * n),
            "r": (F64, [0.0] * n),
            "dv": (I64, [1] * n),
            "q": (I64, [0] * n),
            "idx": (I64, list(range(n))),
            "w": (F64, [0.0] * n),
            "m": (I64, [2, 1, 2, 1]),
            "out": (F64, [0.0] * n),
            "out2": (F64, [0.0] * n),
        }
        args = {
            name: memory.allocate(name, vt, n, initial=np.array(values)).base
            for name, (vt, values) in arrays.items()
        }
        args["n"] = n
        return args


@pytest.fixture(scope="module")
def lanes_workload():
    return LanesWorkload()


@pytest.fixture(scope="module")
def lanes_events(lanes_workload):
    return list(lanes_workload.traced_run().trace)


def _op(events, block, opcode, nth=0, **fields):
    """The ``nth`` event of ``opcode`` in ``block`` matching ``fields``."""
    found = [
        e for e in events
        if e.block == block and e.opcode.value == opcode
        and all(getattr(e, key) == value for key, value in fields.items())
    ]
    return found[nth]


def _copy_flip(events, name, index, bit):
    """Flip ``bit`` of the value the ``copy`` loop re-stores into name[index]."""
    store = _op(events, "copy.body", "store", object_name=name, element_index=index)
    return FaultSpec(dynamic_id=store.dynamic_id, bit=bit, operand_index=0)


def _output(result, name):
    return result.outcome.outputs[name].view(np.uint64)


def test_live_in_register_divergence_enters_lanes(workload, events):
    # the product ``a[i] * 3.0`` is a caller register that stays divergent
    # across the call; the caller's post-call segment reads it as a live-in
    fmul = _first(events, "kernel", "fmul")
    spec = FaultSpec(dynamic_id=fmul.dynamic_id, bit=62, operand_index=0)
    program = DecodedProgram.of(workload.module())
    seen = []
    originals = {}
    for seg in mir_program_for(program).functions["kernel"].segments:
        if seg.fused:
            lanes = seg.lanes or seg.compile("lanes")
            originals[seg] = lanes

            def spy(frame, regs, memory, cell, fdiv, *rest, _seg=seg):
                seen.append(any(slot in fdiv for slot in _seg.live_in))
                return originals[_seg](frame, regs, memory, cell, fdiv, *rest)

            seg.lanes = spy
    try:
        kinds, _, stats = _check_batch(workload, [spec])
    finally:
        for seg, lanes in originals.items():
            seg.lanes = lanes
    assert kinds[0][0] == "completed"
    assert any(seen), "no segment carried a divergent live-in register"
    assert stats.walk_lane_ops > 0


def test_diverged_cell_load_mid_segment_and_cast_equal_store(
    lanes_workload, lanes_events
):
    # y[0] gains its f32 LSB; the ``use`` body loads it mid-segment, adds
    # 1e8 (the lane differs in the register) and stores x[0], whose f32
    # rounding equals golden: x stays clean, and the fault drains once the
    # register and y[0] (overwritten with 0.0) are golden again
    compile_all(lanes_workload.module())
    spec = _copy_flip(lanes_events, "y", 0, bit=0)
    # a later fault keeps the walk going past the drain
    later = FaultSpec(
        dynamic_id=_op(lanes_events, "use.body", "fadd", nth=3).dynamic_id,
        bit=1, operand_index=1,
    )
    kinds, forks, stats = _check_batch(lanes_workload, [spec, later])
    assert kinds[0][0] == "lockstep" and kinds[0][1] is not None
    assert not forks
    fadd = _op(lanes_events, "use.body", "fadd", nth=1)
    assert kinds[0][1] == fadd.dynamic_id  # next iteration's add is golden
    assert stats.walk_lane_ops > 0
    # with y[0]'s map dropped, nothing is diverged until ``later`` arms:
    # iteration 2 runs ``plain``
    assert stats.walk_fused_ops > stats.walk_lane_ops


def test_walk_ends_at_the_op_resolving_the_last_fault(
    lanes_workload, lanes_events
):
    # the only fault in flight drains inside ``lanes``: at a value op (y[0]'s
    # register lane, golden again at the next iteration's add) and at a
    # store (x[0] overwritten); the walk must end right there, as the op
    # loop's does (``_check_batch`` compares walk lengths)
    compile_all(lanes_workload.module())
    for spec, resolving in (
        (_copy_flip(lanes_events, "y", 0, bit=0),
         _op(lanes_events, "use.body", "fadd", nth=1)),
        (_copy_flip(lanes_events, "x", 0, bit=5),
         _op(lanes_events, "use.body", "store", object_name="x", element_index=0)),
    ):
        kinds, _, stats = _check_batch(lanes_workload, [spec])
        assert kinds == [("lockstep", resolving.dynamic_id)]
        assert stats.walk_lane_ops > 0


def test_negative_zero_and_nan_payload_lanes(lanes_workload, lanes_events):
    # a[0] -> -1.5 gives z[0] = -0.0 against golden 0.0 (reloaded mid-segment:
    # r[0] = -inf against inf); a[1] is a NaN whose payload gains a bit,
    # which out[1] and z[1] inherit
    compile_all(lanes_workload.module())
    specs = [
        _copy_flip(lanes_events, "a", 0, bit=63),
        _copy_flip(lanes_events, "a", 1, bit=3),
    ]
    kinds, _, stats = _check_batch(lanes_workload, specs)
    assert [via for via, _ in kinds] == ["completed", "completed"]
    context = ReplayContext(lanes_workload)
    golden = context.golden_outputs
    sign, payload = context.replay_many(specs)
    assert _output(sign, "z")[0] == np.float64(-0.0).view(np.uint64)
    assert golden["z"].view(np.uint64)[0] == np.float64(0.0).view(np.uint64)
    assert sign.outcome.outputs["r"][0] == -np.inf and golden["r"][0] == np.inf
    assert _output(payload, "out")[1] != golden["out"].view(np.uint64)[1]
    assert np.isnan(payload.outcome.outputs["out"][1])
    assert stats.walk_lane_ops > 0


def test_divergent_address_evicts_at_that_op(lanes_workload, lanes_events):
    # idx[2] -> 3: the ``w[idx[i]]`` store diverges in its address mid-segment
    compile_all(lanes_workload.module())
    spec = _copy_flip(lanes_events, "idx", 2, bit=0)
    kinds, forks, stats = _check_batch(lanes_workload, [spec])
    assert kinds[0][0] == "private"
    store = _op(lanes_events, "use.body", "store", object_name="w", element_index=2)
    assert forks[spec] == store.dynamic_id
    assert stats.walk_stops_evict >= 1


def test_branch_divergence_same_direction_rides_opposite_evicts(
    lanes_workload, lanes_events
):
    compile_all(lanes_workload.module())
    # m[0] = 2: 2 -> 6 keeps the branch direction, 2 -> 0 flips it
    same = _copy_flip(lanes_events, "m", 0, bit=2)
    flipped = _copy_flip(lanes_events, "m", 0, bit=1)
    kinds, forks, stats = _check_batch(lanes_workload, [same])
    assert kinds[0][0] == "completed"  # m[0] stays diverged to the end
    assert not forks and stats.walk_stops_evict == 0
    kinds, forks, stats = _check_batch(lanes_workload, [same, flipped])
    assert kinds[0][0] == "completed" and same not in forks
    assert kinds[1][0] == "private"
    branch = _op(lanes_events, "use.body", "br")
    assert forks[flipped] == branch.dynamic_id
    assert stats.walk_stops_evict == 1


def test_lane_raising_where_golden_does_not(lanes_workload, lanes_events):
    compile_all(lanes_workload.module())
    # dv[0] = 1 -> 0: only the fault divides by zero
    spec = _copy_flip(lanes_events, "dv", 0, bit=0)
    kinds, _, stats = _check_batch(lanes_workload, [spec])
    assert kinds[0][0] == "error"
    result = ReplayContext(lanes_workload).replay_many([spec])[0]
    assert isinstance(result.error, ArithmeticFault)
    assert stats.walk_stops_lane_error >= 1


def test_faults_arming_at_first_interior_and_last_op_under_lanes(
    lanes_workload, lanes_events
):
    # a[0]'s sign flip keeps cell divergence live through the ``use`` loop,
    # so its body runs in ``lanes``; more faults arm at the body's first op
    # (the a[i] load) in iteration 1, an interior op (the f32 add) in
    # iteration 2 and its last op (the branch) in iteration 3
    compile_all(lanes_workload.module())
    background = _copy_flip(lanes_events, "a", 0, bit=63)
    body = [e for e in lanes_events if e.block == "use.body"]
    per_iteration = len(body) // 4
    first = body[per_iteration]
    interior = _op(lanes_events, "use.body", "fadd", nth=2)
    last = body[4 * per_iteration - 1]
    assert first.opcode.value == "load" and last.opcode.value == "br"
    specs = [
        background,
        FaultSpec(dynamic_id=first.dynamic_id, bit=3, operand_index=0),
        FaultSpec(dynamic_id=interior.dynamic_id, bit=40, operand_index=0),
        FaultSpec(dynamic_id=last.dynamic_id, bit=0, operand_index=0),
    ]
    kinds, _, stats = _check_batch(lanes_workload, specs)
    assert stats.walk_stops_arm >= 2  # interior and last op; the first goes per-op
    assert stats.walk_lane_ops > 0


def test_lane_counters_reach_the_metrics_registry(lanes_workload, lanes_events):
    from repro.obs.metrics import registry

    reg = registry()
    if not reg.enabled:
        pytest.skip("metrics disabled (REPRO_METRICS=0)")
    cursor = "test-lane-counters"
    reg.snapshot_delta(cursor)
    compile_all(lanes_workload.module())
    specs = [
        _copy_flip(lanes_events, "a", 0, bit=63),
        _copy_flip(lanes_events, "idx", 2, bit=0),
        FaultSpec(
            dynamic_id=_op(lanes_events, "use.body", "fadd", nth=3).dynamic_id,
            bit=40, operand_index=0,
        ),
    ]
    with engine_backend("block"):
        context = ReplayContext(lanes_workload)
        context.replay_many(specs)
    stats = context.stats
    assert stats.walk_lane_ops > 0
    assert stats.walk_stops_arm >= 1 and stats.walk_stops_evict >= 1
    totals, stops = {}, {}
    for entry in reg.snapshot_delta(cursor)["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
        if entry["name"] == "replay.walk_stops":
            cause = entry["labels"]["cause"]
            stops[cause] = stops.get(cause, 0) + entry["value"]
    assert totals["replay.walk_lane_ops"] == stats.walk_lane_ops
    assert stops == {
        cause: count
        for cause, count in (
            ("arm", stats.walk_stops_arm),
            ("evict", stats.walk_stops_evict),
            ("lane_error", stats.walk_stops_lane_error),
        )
        if count
    }
    assert not any(name.startswith("replay.walk_stops_") for name in totals)


# --------------------------------------------------------------------- #
# frame boundaries and per-fault errors evict
# --------------------------------------------------------------------- #
def bump(x: "double") -> "double":
    return x * 2.0 + 1.0


def frame_kernel(a: "double*", out: "double*", n: "i64") -> "void":
    for i in range(n):
        out[i] = bump(a[i] + 0.5) + a[i]


class FrameWorkload(Workload):
    """``out[i] = bump(a[i] + 0.5) + a[i]``: a value crosses into a user
    call as its argument and back out through a non-entry ``ret``.

    A divergent argument evicts at the call; a divergent returned value
    rides on in the caller's register.  A fault arming at a call or a
    return, and one whose own evaluation raises, evicts from the pre-op
    state."""

    name = "walk-frames"
    target_objects = ("a",)
    output_objects = ("out",)
    entry = "frame_kernel"

    def kernels(self):
        return [bump, frame_kernel]

    def setup(self, memory: Memory):
        n = 3
        a = memory.allocate("a", F64, n, initial=np.arange(1.0, n + 1))
        out = memory.allocate("out", F64, n)
        return {"a": a.base, "out": out.base, "n": n}


@pytest.fixture(scope="module")
def frame_workload():
    return FrameWorkload()


@pytest.fixture(scope="module")
def frame_events(frame_workload):
    return list(frame_workload.traced_run().trace)


def _evicts_at(workload, spec, event, via):
    """``spec`` resolves ``via`` from a fork at ``event``, equal to its
    from-scratch run and on both backends (``_check_batch``)."""
    kinds, forks, stats = _check_batch(workload, [spec])
    assert kinds[0][0] == via
    assert forks == {spec: event.dynamic_id}
    assert stats.evicted == 1 and stats.lockstep == 0


def test_divergent_call_argument_evicts_at_the_call(frame_workload, frame_events):
    # a[0] + 0.5 diverges, and bump() takes it as its argument
    fadd = _first(frame_events, "frame_kernel", "fadd")
    call = _first(frame_events, "frame_kernel", "call")
    assert fadd.dynamic_id < call.dynamic_id
    spec = FaultSpec(dynamic_id=fadd.dynamic_id, bit=3, operand_index=0)
    _evicts_at(frame_workload, spec, call, "private")


def test_divergent_non_entry_return_rides_into_the_caller(
    frame_workload, frame_events
):
    # x * 2.0 diverges inside bump(), and its ``ret`` hands the sum back to
    # the caller's register, from where it reaches out[0]
    fmul = _first(frame_events, "bump", "fmul")
    spec = FaultSpec(dynamic_id=fmul.dynamic_id, bit=3, operand_index=0)
    kinds, forks, stats = _check_batch(frame_workload, [spec])
    assert kinds == [("completed", None)]
    assert not forks and stats.evicted == 0


@pytest.mark.parametrize(
    "function, opcode", [("frame_kernel", "call"), ("bump", "ret")]
)
def test_operand_fault_arming_at_a_call_or_return_evicts_there(
    frame_workload, frame_events, function, opcode
):
    # the call's argument, or the non-entry return's value
    site = _first(frame_events, function, opcode)
    spec = FaultSpec(dynamic_id=site.dynamic_id, bit=3, operand_index=0)
    _evicts_at(frame_workload, spec, site, "private")


@pytest.mark.parametrize("opcode", ["store", "fadd"])
def test_per_fault_error_evicts_from_the_pre_op_state(
    frame_workload, frame_events, opcode
):
    # bit 70 is outside a double: only the faulty run raises, at a store
    # (its stored value) or at an op with a destination (an operand)
    site = _first(frame_events, "frame_kernel", opcode)
    spec = FaultSpec(dynamic_id=site.dynamic_id, bit=70, operand_index=0)
    _evicts_at(frame_workload, spec, site, "error")
    result = ReplayContext(frame_workload).replay_many([spec])[0]
    assert isinstance(result.error, ValueError)


# --------------------------------------------------------------------- #
# carried addresses: divergent load addresses ride on, raising ones resolve
# --------------------------------------------------------------------- #
def gather(x: "double*", idx: "i64*", out: "double*", w: "double*",
           n: "i64") -> "void":
    for i in range(n):
        out[i] = x[idx[i]]
        w[idx[i]] = out[i] + 1.0


class GatherWorkload(Workload):
    """``out[i] = x[idx[i]]; w[idx[i]] = out[i] + 1``: a gather and a
    scatter whose addresses a flipped index diverges.

    ``k`` (``i64``) sits one guard gap past ``x`` (``double``): index
    ``idx ^ 64`` lands in it, a load of the wrong element type."""

    name = "walk-gather"
    target_objects = ("idx",)
    output_objects = ("out", "w")
    entry = "gather"

    def kernels(self):
        return [gather]

    def setup(self, memory: Memory):
        n = 4
        x = memory.allocate("x", F64, n, initial=np.arange(1.0, n + 1))
        memory.allocate("k", I64, 32)
        idx = memory.allocate("idx", I64, n, initial=np.array([2, 0, 3, 1]))
        out = memory.allocate("out", F64, n)
        w = memory.allocate("w", F64, n)
        return {"x": x.base, "idx": idx.base, "out": out.base, "w": w.base,
                "n": n}


@pytest.fixture(scope="module")
def gather_workload():
    workload = GatherWorkload()
    compile_all(workload.module())
    return workload


@pytest.fixture(scope="module")
def gather_events(gather_workload):
    return list(gather_workload.traced_run().trace)


def _address_flip(events, name, operand_index, bit):
    """Flip ``bit`` of operand ``operand_index`` (0: the base pointer, 1:
    the index) of the first ``getelementptr`` addressing ``name``'s load
    (``x``) or store (``w``); returns the spec and the access event."""
    access = next(e for e in events if e.object_name == name)
    gep = events[access.dynamic_id - 1]
    assert gep.opcode.value == "getelementptr"
    spec = FaultSpec(dynamic_id=gep.dynamic_id, bit=bit,
                     operand_index=operand_index)
    return spec, access


def _carried(workload, specs):
    """``_check_batch`` for faults that must not leave the walk."""
    kinds, forks, stats = _check_batch(workload, specs)
    assert not forks and stats.evicted == 0
    assert stats.lockstep == len(specs)
    return kinds, ReplayContext(workload).replay_many(specs)


def test_divergent_in_bounds_load_rides_on(gather_workload, gather_events):
    # idx 2 -> 3: the fault gathers x[3] instead of x[2]
    spec, _ = _address_flip(gather_events, "x", 1, bit=0)
    kinds, (result,) = _carried(gather_workload, [spec])
    assert kinds == [("completed", None)]
    assert result.outcome.outputs["out"][0] == 4.0


@pytest.mark.parametrize("operand_index, bit, message", [
    (1, 40, "segmentation fault"),  # far out of bounds
    (0, 0, "misaligned access into x"),  # base pointer + 1
    (1, 6, "access of type double into k (element type i64)"),
])
def test_divergent_load_address_that_raises_resolves_in_the_walk(
    gather_workload, gather_events, operand_index, bit, message
):
    spec, _ = _address_flip(gather_events, "x", operand_index, bit)
    kinds, (result,) = _carried(gather_workload, [spec])
    assert kinds == [("error", None)]
    assert isinstance(result.error, SegmentationFault)
    assert message in str(result.error).lower()
    assert result.error.__traceback__ is None


def test_divergent_store_address_that_raises_evicts(
    gather_workload, gather_events
):
    spec, store = _address_flip(gather_events, "w", 1, bit=40)
    _evicts_at(gather_workload, spec, store, "error")
    result = ReplayContext(gather_workload).replay_many([spec])[0]
    assert isinstance(result.error, SegmentationFault)


def test_divergent_store_address_that_resolves_still_evicts(
    gather_workload, gather_events
):
    # idx 2 -> 3: the scatter writes w[3]
    spec, store = _address_flip(gather_events, "w", 1, bit=0)
    _evicts_at(gather_workload, spec, store, "private")


def test_carried_addresses_share_one_walk(gather_workload, gather_events):
    # every shape in one batch: each resolves as it does alone
    flips = [("x", 1, 0), ("x", 1, 40), ("x", 0, 0), ("x", 1, 6),
             ("w", 1, 40), ("w", 1, 0)]
    specs = [_address_flip(gather_events, *flip)[0] for flip in flips]
    kinds, forks, stats = _check_batch(gather_workload, specs)
    assert [via for via, _ in kinds] == ["completed"] + ["error"] * 4 + [
        "private"
    ]
    assert set(forks) == set(specs[-2:]) and stats.evicted == 2


def test_every_registered_workload_block_vs_op():
    # the all-workload parity sweep of test_replay_batch, plus the block
    # walk (``lanes`` included) against the op walk; cold, the segments
    # compile while the runs of ``_check_batch`` go on, so every ``lanes``
    # body binds the load check below
    with _checking_cell_loads() as checked:
        _all_workloads_block_vs_op(warm=False)
    assert checked


@contextmanager
def _checking_cell_loads():
    """Assert, at every diverged-cell load of the ``lanes`` bodies compiled
    inside the ``with`` body, that no lane holds golden's value.

    Stores keep only lanes that differ from the golden value they write,
    and every fault stores where golden does (a diverging address evicts),
    so a load takes the cell's map as is, like the op loop.  Yields the
    list of faults checked.  The bodies stay compiled on the programs of
    the modules built inside the ``with`` body, and on no other.
    """
    checked = []
    load_lanes = fuse._cell_lanes

    def checking(cells, obj, index):
        cmap = cells.get(obj.name)
        golden = obj.get(index)
        for fid, value in (cmap.get(index) or {}).items() if cmap else ():
            assert not _values_bit_equal(value, golden), (obj.name, index, fid)
            checked.append(fid)
        return load_lanes(cells, obj, index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fuse, "_cell_lanes", checking)
        yield checked


def test_every_registered_workload_block_vs_op_warmed():
    _all_workloads_block_vs_op(warm=True)


def _all_workloads_block_vs_op(warm):
    from test_replay_batch import ALL_WORKLOADS, _sample_specs, _small

    fused_ops = lane_ops = 0
    for name in ALL_WORKLOADS:
        workload = _small(name)
        if warm:
            compile_all(workload.module())
        else:
            cold(workload.module())
        specs = _sample_specs(workload, workload.traced_run().trace)
        _, _, stats = _check_batch(workload, specs)
        fused_ops += stats.walk_fused_ops
        lane_ops += stats.walk_lane_ops
    assert fused_ops > 0
    assert lane_ops > 0


def _select_module() -> Module:
    """``out[i] = sitofp(1) if c[i] != 0 else sitofp(2)``, after a loop that
    re-stores ``c`` (the fault sites): two values computed from constants
    only meet in one select on a divergent condition, in one fused
    segment."""
    func = Function(
        "main", [pointer_to(I64), pointer_to(F64), I64], ["c", "out", "n"], VOID
    )
    arg = func.arg_by_name
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))
    i_slot = b.alloca(I64, name="i")

    def copy(i):
        ptr = b.gep(arg("c"), i)
        b.store(b.load(ptr), ptr)

    def use(i):
        cond = b.icmp(ICmpPredicate.NE, b.load(b.gep(arg("c"), i)), 0, I64)
        one = b.sitofp(Constant(I64, 1))
        two = b.sitofp(Constant(I64, 2))
        b.store(b.select(cond, one, two), b.gep(arg("out"), i))

    _counted_loop(func, b, i_slot, "copy", copy)
    _counted_loop(func, b, i_slot, "use", use)
    b.ret()
    module = Module("walk-select")
    module.add_function(func)
    return module


class SelectWorkload(Workload):
    name = "walk-select"
    target_objects = ("c",)
    output_objects = ("out",)
    entry = "main"

    def kernels(self):  # the module is built by hand
        return []

    def module(self):
        if self._module is None:
            self._module = _select_module()
        return self._module

    def setup(self, memory: Memory):
        n = 2
        c = memory.allocate("c", I64, n, initial=np.ones(n, dtype=np.int64))
        out = memory.allocate("out", F64, n)
        return {"c": c.base, "out": out.base, "n": n}


def test_select_between_constant_only_values_on_a_divergent_condition():
    # c[0] = 1 -> 0 flips the select to the other constant-only arm: the
    # lane must read that arm's value, not golden's
    workload = SelectWorkload()
    compile_all(workload.module())
    events = list(workload.traced_run().trace)
    select = _op(events, "use.body", "select")
    program = DecodedProgram.of(workload.module())
    mir = mir_program_for(program).functions["main"]
    pc = next(
        pc for pc, op in enumerate(program.functions["main"].ops)
        if op.static_uid == select.static_uid
    )
    assert _segment_at(mir, pc)[0].fused
    spec = _copy_flip(events, "c", 0, bit=0)
    kinds, _, stats = _check_batch(workload, [spec])
    assert kinds[0][0] == "completed"
    result = ReplayContext(workload).replay_many([spec])[0]
    assert list(result.outcome.outputs["out"]) == [2.0, 1.0]
    assert stats.walk_lane_ops > 0


# --------------------------------------------------------------------- #
# stop and crash accounting: the line table
# --------------------------------------------------------------------- #
#: Loads in the hand-built segment below; one per offset.
_N_LOADS = 4


def _loads_segment():
    """One fused segment of ``_N_LOADS`` loads, each through its own pointer
    argument: the segment, its function's decode and the loads' dest slots."""
    func = Function(
        "main", [pointer_to(F64)] * _N_LOADS,
        [f"p{k}" for k in range(_N_LOADS)], VOID,
    )
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))
    for k in range(_N_LOADS):
        b.load(func.arg_by_name(f"p{k}"))
    b.ret()
    module = Module("walk-loads")
    module.add_function(func)
    program = DecodedProgram.of(module)
    df = program.functions["main"]
    seg = mir_program_for(program).functions["main"].segments[0]
    assert seg.fused and seg.n_ops == _N_LOADS
    return seg, df, [df.ops[pc].dest for pc in seg.pcs]


def _loads_frame(df, memory, bad=-1):
    """A frame whose pointers all address ``x[0]``, but pointer ``bad``
    addresses nothing."""
    x = memory.allocate("x", F64, 1)
    frame = _Frame(df)
    frame.regs[:_N_LOADS] = [0 if k == bad else x.base for k in range(_N_LOADS)]
    return frame


@pytest.mark.parametrize("offset", range(_N_LOADS))
def test_plain_crash_at_every_offset_counts_the_completed_prefix(offset):
    seg, df, _ = _loads_segment()
    plain = seg.compile("plain")
    memory = Memory()
    frame = _loads_frame(df, memory, bad=offset)
    cell = [-1]
    with pytest.raises(SegmentationFault):
        plain(frame, frame.regs, memory, cell)
    assert cell[0] == offset


@pytest.mark.parametrize(
    "offset, cause",
    [
        (offset, cause)
        for offset in range(_N_LOADS)
        for cause in ("crash", "arm", "evict")
        # a fault arming at the first op sends the segment to the op loop
        if offset or cause != "arm"
    ],
)
def test_lanes_stop_at_every_offset_counts_the_completed_prefix(offset, cause):
    seg, df, dests = _loads_segment()
    lanes = seg.compile("lanes")
    memory = Memory()
    frame = _loads_frame(df, memory, bad=offset if cause == "crash" else -1)
    fdiv = {}
    if cause == "evict":
        fdiv[offset] = {0: frame.regs[offset] + 8}  # fault 0's address differs
    stop = offset if cause == "arm" else -1
    walk = LaneWalk({0: 1}, {0: None}, lambda fid, at: None)
    cell = [-1, 0]
    pc = lanes(frame, frame.regs, memory, cell, fdiv, {}, walk, stop)
    expected = {"crash": LANE_ERROR, "arm": LANE_ARM, "evict": LANE_EVICT}[cause]
    assert cell == [offset, expected]
    assert pc == seg.pcs[offset]
    # the completed prefix's registers are written back, the rest are not
    assert [frame.regs[d] is not _UNDEF for d in dests] == [
        k < offset for k in range(_N_LOADS)
    ]
