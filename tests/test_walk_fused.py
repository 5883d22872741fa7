"""Fused-segment dispatch inside the lockstep batch walk.

:meth:`~repro.vm.engine.Engine.resume_many` runs a fused MIR segment as
one superinstruction only when no cell divergence is live, the current
frame holds no divergent register, and no fault arms inside the segment's
dynamic window.  These cases pin the edges of that rule on a small
two-function program whose every op is visible, checking each batch
against per-fault sequential replay:

* faults arming at, inside and just past a fused window;
* a callee running fused while its caller frame holds a divergent
  register;
* survivors that keep cell divergence to the end of the program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.replay import BatchedReplayContext, ReplayContext
from repro.ir.types import F64
from repro.mir import mir_program_for
from repro.vm.engine import DecodedProgram, Engine
from repro.vm.faults import FaultSpec
from repro.vm.memory import Memory
from repro.workloads.base import Workload


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


def _window_of(workload, event):
    """``(entry dyn, n_ops)`` of the fused segment executing ``event``."""
    program = DecodedProgram.of(workload.module())
    mir = mir_program_for(program).functions[event.function]
    ops = program.functions[event.function].ops
    pc = next(pc for pc, op in enumerate(ops) if op.static_uid == event.static_uid)
    seg_index, offset = mir.location_of(pc)
    seg = mir.segments[seg_index]
    assert seg.fused and offset > 0, "event must sit inside a fused segment"
    return event.dynamic_id - offset, seg.n_ops


def _first(events, function, opcode):
    return next(
        e for e in events if e.function == function and e.opcode.value == opcode
    )


def _batch_matches_sequential(workload, specs):
    """Replay ``specs`` as one batch and one by one; assert bit identity.

    Returns the batched results and the context's scheduler stats."""
    sequential = ReplayContext(workload)
    batched = BatchedReplayContext(workload)
    results = batched.replay_many(specs)
    for spec, result in zip(specs, results):
        try:
            expected = sequential.replay(spec)
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
    context = BatchedReplayContext(workload)
    context.replay_many([FaultSpec(dynamic_id=fmul.dynamic_id, bit=3)])
    totals = {}
    for entry in reg.snapshot_delta(cursor)["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
    assert totals["replay.walk_ops"] == context.stats.walk_ops > 0
    assert totals.get("replay.walk_fused_ops", 0) == context.stats.walk_fused_ops
