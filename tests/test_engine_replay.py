"""Checkpointed replay must be indistinguishable from full re-execution.

The property under test (the acceptance criterion of the engine refactor):
for any workload and any fault spec, injecting via snapshot-restore replay
(a batch of :meth:`~repro.core.replay.ReplayContext.replay_many`) produces
the *same* :class:`OutcomeClass` — and, for non-crashing runs, the same
output bits — as re-running the whole workload from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.injector import DeterministicFaultInjector
from repro.core.replay import ReplayContext
from repro.core.sites import enumerate_fault_sites
from repro.ir.types import F64
from repro.vm import Engine, FaultSpec, FaultTarget
from repro.vm.engine import DecodedProgram, snapshot_digest
from repro.workloads.registry import get_workload

from oracles.rerun import RerunInjector


def _sampled_specs(workload, max_specs=36, bit_stride=11):
    """A deterministic, diverse sample of the workload's fault space."""
    trace = workload.traced_run().trace
    specs = []
    for target in workload.target_objects:
        sites = enumerate_fault_sites(trace, target, bit_stride=bit_stride)
        step = max(1, len(sites) // (max_specs // max(1, len(workload.target_objects))))
        specs.extend(site.to_spec() for site in sites[::step])
    # add a handful of result-target faults (sites only cover operand /
    # store-destination targets)
    for dynamic_id in range(0, len(trace), max(1, len(trace) // 6)):
        event = trace[dynamic_id]
        if event.result_value is not None:
            specs.append(
                FaultSpec(
                    dynamic_id=event.dynamic_id,
                    bit=17 % max(1, event.result_type.bits),
                    target=FaultTarget.RESULT,
                )
            )
    return specs[:max_specs]


# --------------------------------------------------------------------- #
# the core property: replay == rerun
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["matmul", "cg", "lulesh"])
def test_replay_outcomes_match_full_rerun(name):
    workload = get_workload(name)
    specs = _sampled_specs(workload)
    assert specs, "sample must not be empty"
    rerun = RerunInjector(workload)
    replayed = DeterministicFaultInjector(workload).inject_many(specs)
    for spec, actual in zip(specs, replayed):
        expected = rerun.inject(spec)
        assert actual.outcome is expected.outcome, (
            f"{name} {spec}: replay={actual.outcome} rerun={expected.outcome}"
        )


def test_replay_outputs_bit_identical_to_rerun():
    workload = get_workload("matmul")
    trace = workload.traced_run().trace
    sites = enumerate_fault_sites(trace, workload.target_objects[0], bit_stride=13)
    specs = [site.to_spec() for site in sites[:: max(1, len(sites) // 12)]]
    results = ReplayContext(workload).replay_many(specs)
    for spec, result in zip(specs, results):
        if result.error is not None:  # crash parity
            with pytest.raises(type(result.error)):
                workload.fresh_instance().run(fault=spec)
            continue
        replayed = result.outcome
        fresh = workload.fresh_instance().run(fault=spec)
        assert replayed.return_value == fresh.return_value
        assert replayed.steps == fresh.steps
        for obj in fresh.outputs:
            assert np.array_equal(
                replayed.outputs[obj].view(np.uint8),
                fresh.outputs[obj].view(np.uint8),
            ), obj


def test_replay_handles_hang_and_crash_classification(cg_workload):
    """Crash/hang outcomes classify identically through both paths."""
    specs = _sampled_specs(cg_workload, max_specs=24, bit_stride=3)
    rerun = RerunInjector(cg_workload)
    replayed = DeterministicFaultInjector(cg_workload).inject_many(specs)
    outcomes = set()
    for spec, actual in zip(specs, replayed):
        expected = rerun.inject(spec)
        assert actual.outcome is expected.outcome
        outcomes.add(actual.outcome)
    assert len(outcomes) >= 2, "sample should exercise several outcome classes"


# --------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------- #
def test_snapshot_resume_reproduces_golden_run():
    workload = get_workload("cg")
    instance = workload.fresh_instance()
    engine = Engine(instance.module, instance.memory, snapshot_interval=700)
    result = engine.run(workload.entry, instance.args)
    golden = {
        name: instance.memory.object(name).values()
        for name in workload.output_objects
    }
    assert engine.snapshots and engine.snapshots[0].dyn == 0
    for snapshot in engine.snapshots:
        cursor = Engine(instance.module, instance.memory)
        cursor.prepare_resume(snapshot)
        resumed = cursor.run_checked((), {})
        assert resumed.steps == result.steps
        assert resumed.return_value == result.return_value
        # the resumed run works on its own fork, not the instance's memory
        assert cursor.memory is not instance.memory
        for name in golden:
            assert np.array_equal(
                golden[name], cursor.memory.object(name).values()
            ), (snapshot.dyn, name)


def test_snapshot_restore_resets_memory_completely():
    workload = get_workload("lulesh")
    instance = workload.fresh_instance()
    engine = Engine(instance.module, instance.memory, snapshot_interval=500)
    engine.run(workload.entry, instance.args)
    snapshot = engine.snapshots[2]
    captured = snapshot_digest(snapshot)
    memory = snapshot.memory
    counters = (memory._next_address, memory._stack_counter)
    # clobber the live memory through the copy-on-write barrier and allocate
    # past the capture point, then restore: the state must match the
    # capture bit-for-bit, and the snapshot itself must be untouched
    for obj in instance.memory.data_objects():
        obj.fill_from(np.zeros(obj.count))
    extra = instance.memory.allocate_stack("late", F64, 3)
    cursor = Engine(instance.module, instance.memory)
    cursor.prepare_resume(snapshot)
    assert extra.name not in cursor.memory
    assert (cursor.memory._next_address, cursor.memory._stack_counter) == counters
    assert cursor.state_digest() == captured
    assert snapshot_digest(snapshot) == captured


def test_traced_engine_refuses_to_resume():
    """Snapshots, golden checkpoints and live-state forks alike, do not
    carry the load-writer index, so a traced run from one would record wrong
    writer ids: restoring one on an engine with a sink raises instead."""
    from repro.tracing import ColumnarTrace

    workload = get_workload("matmul")
    instance = workload.fresh_instance()
    engine = Engine(instance.module, instance.memory, snapshot_interval=500)
    engine.run(workload.entry, instance.args)
    snapshot = engine.snapshots[1]
    traced = Engine(instance.module, instance.memory, sink=ColumnarTrace())
    with pytest.raises(ValueError, match="writer ids"):
        traced.prepare_resume(snapshot)
    cursor = Engine(instance.module, instance.memory)
    cursor.prepare_resume(snapshot)
    with pytest.raises(ValueError, match="writer ids"):
        traced.prepare_resume(cursor.capture_fork())


def test_replay_context_snapshot_selection():
    workload = get_workload("matmul")
    context = ReplayContext(workload, checkpoint_interval=1000)
    positions = [snap.dyn for snap in context.snapshots]
    assert positions[0] == 0 and positions == sorted(positions)

    def served_from(dynamic_id):
        spec = FaultSpec(dynamic_id=dynamic_id, bit=0)
        (batch,) = context.plan_batches([spec])
        return batch.snapshot_dyn

    assert served_from(0) == 0
    assert served_from(999) == 0
    assert served_from(1000) == 1000
    assert served_from(10**9) == positions[-1]


def test_replay_convergence_detection_short_circuits():
    """Masked faults converge back onto the golden state and stop early."""
    workload = get_workload("matmul")
    context = ReplayContext(workload, checkpoint_interval=200)
    trace = workload.traced_run().trace
    sites = enumerate_fault_sites(trace, workload.target_objects[0], bit_stride=9)
    injector = DeterministicFaultInjector(workload, context=context)
    results = injector.inject_many([site.to_spec() for site in sites[:40]])
    assert context.stats.faults == len(results)
    masked = [r for r in results if r.outcome.is_masked]
    if masked:
        assert context.stats.converged > 0


# --------------------------------------------------------------------- #
# decode layer
# --------------------------------------------------------------------- #
def test_decoded_program_cached_per_module():
    workload = get_workload("matmul")
    module = workload.module()
    first = DecodedProgram.of(module)
    assert DecodedProgram.of(module) is first
    DecodedProgram.invalidate(module)
    assert DecodedProgram.of(module) is not first


def test_engine_equivalence_on_tiny_kernels(accumulate_trace):
    """The engine agrees with a seed-recorded interpreter run: a traced run
    event for event on either backend (always through the per-op loop, even
    with every segment compiled), and a sink-free run of the compiled
    superinstructions in steps, return value and outputs."""
    from repro.tracing import ColumnarTrace
    from repro.tracing.events import TraceEvent
    from repro.vm import Memory

    from mir_helpers import compile_all, segment_dispatches

    module = accumulate_trace["module"]
    reference = accumulate_trace["trace"]
    expected_dst = accumulate_trace["memory"].object("dst").values()
    assert compile_all(module) > 0
    for backend, sink in (
        ("op", ColumnarTrace()), ("block", ColumnarTrace()), ("block", None)
    ):
        memory = Memory()
        src = memory.allocate("src", F64, 5, initial=[1.0, -2.0, 3.0, 0.5, 4.0])
        dst = memory.allocate("dst", F64, 5)
        with segment_dispatches() as dispatched:
            result = Engine(module, memory, sink=sink, backend=backend).run(
                "accumulate", {"src": src, "dst": dst, "n": 5}
            )
        where = (backend, sink is not None)
        assert (dispatched[0] > 0) == (sink is None), where
        assert result.return_value == accumulate_trace["return_value"], where
        assert result.steps == len(reference), where
        assert np.array_equal(
            memory.object("dst").values().view(np.uint8),
            expected_dst.view(np.uint8),
        ), where
        if sink is None:
            continue
        assert len(sink) == len(reference)
        for a, b in zip(reference, sink):
            for field in TraceEvent.__slots__:
                assert getattr(a, field) == getattr(b, field), (backend, field)
