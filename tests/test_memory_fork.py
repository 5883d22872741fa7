"""Copy-on-write semantics of :meth:`Memory.fork` and engine snapshots.

Every captured engine state is a :class:`~repro.vm.engine.Snapshot` whose
memory is a fork: the golden checkpoint schedule, and the batch walk's
eviction points, which hand each divergent fault its own clone.  These
tests pin down the isolation contract that makes that safe: arrays are
shared until written, the first typed write on either side copies
privately, allocator state (bases, counters, stack objects) is carried over
exactly, and a snapshot stays bit-identical to its capture point however
the capturing run and its restores go on.

The suite runs in both legs of the CI backend matrix (``block`` and
``op``); the fork path itself is backend-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.types import F64, I32
from repro.vm.engine import Engine, Snapshot, snapshot_digest
from repro.vm.memory import Memory
from repro.workloads.registry import get_workload, workload_names


def _memory_digest(memory):
    return snapshot_digest(Snapshot(0, [], memory))


@pytest.fixture
def memory():
    mem = Memory()
    mem.allocate("a", F64, 4, initial=[1.0, 2.0, 3.0, 4.0])
    mem.allocate("idx", I32, 3, initial=[7, 8, 9])
    return mem


class TestMemoryFork:
    def test_fork_shares_arrays_until_written(self, memory):
        clone = memory.fork()
        assert clone.object("a").array is memory.object("a").array
        assert clone.object("idx").array is memory.object("idx").array

    def test_write_to_clone_is_invisible_to_source(self, memory):
        clone = memory.fork()
        clone.object("a").set(1, -5.5)
        assert clone.object("a").get(1) == -5.5
        assert memory.object("a").get(1) == 2.0
        # only the written object detached; the other stays shared
        assert clone.object("a").array is not memory.object("a").array
        assert clone.object("idx").array is memory.object("idx").array

    def test_write_to_source_is_invisible_to_clone(self, memory):
        clone = memory.fork()
        memory.object("idx").set(0, 42)
        assert memory.object("idx").get(0) == 42
        assert clone.object("idx").get(0) == 7

    def test_fill_from_triggers_copy(self, memory):
        clone = memory.fork()
        clone.object("idx").fill_from([1, 2, 3])
        assert memory.object("idx").get(2) == 9
        assert clone.object("idx").get(2) == 3

    def test_flip_bit_at_respects_cow(self, memory):
        clone = memory.fork()
        address = clone.object("idx").address_of(1)
        clone.flip_bit_at(address, 0)
        assert clone.object("idx").get(1) == 9  # 8 ^ 1
        assert memory.object("idx").get(1) == 8

    def test_addresses_and_resolution_survive_the_fork(self, memory):
        clone = memory.fork()
        for name in ("a", "idx"):
            assert clone.object(name).base == memory.object(name).base
        obj, index = clone.resolve(memory.object("a").address_of(2))
        assert obj is clone.object("a") and index == 2

    def test_allocator_state_is_cloned(self, memory):
        clone = memory.fork()
        source_obj = memory.allocate_stack("t", F64, 2)
        clone_obj = clone.allocate_stack("t", F64, 2)
        # same counter at fork time -> same deterministic name and base
        assert source_obj.name == clone_obj.name
        assert source_obj.base == clone_obj.base
        assert source_obj.name not in clone._objects or (
            clone.object(clone_obj.name) is clone_obj
        )
        # and the allocations are invisible across the fork boundary
        assert clone_obj.name in clone
        assert source_obj.name in memory

    def test_release_on_clone_keeps_source_object(self, memory):
        clone = memory.fork()
        clone.release(clone.object("a"))
        assert "a" not in clone
        assert "a" in memory
        assert memory.object("a").get(0) == 1.0

    def test_fork_of_fork(self, memory):
        first = memory.fork()
        second = first.fork()
        second.object("a").set(0, 99.0)
        assert memory.object("a").get(0) == 1.0
        assert first.object("a").get(0) == 1.0
        assert second.object("a").get(0) == 99.0

    def test_values_returns_private_copies(self, memory):
        clone = memory.fork()
        values = clone.object("a").values()
        values[0] = -1.0
        assert clone.object("a").get(0) == 1.0
        assert memory.object("a").get(0) == 1.0

    def test_digest_of_shared_clone_matches_source(self, memory):
        clone = memory.fork()
        assert _memory_digest(clone) == _memory_digest(memory)
        clone.object("a").set(3, 0.0)
        assert _memory_digest(clone) != _memory_digest(memory)

    def test_cast_value_predicts_stored_bits(self, memory):
        a = memory.object("a")
        idx = memory.object("idx")
        for value in (1.5, -0.0, 2.0**-1030, float("inf")):
            a.set(0, value)
            assert a.cast_value(value) == a.get(0)
        for value in (5, -5, 2**40, 2**31 - 1, 2**31):
            idx.set(0, value)
            assert idx.cast_value(value) == idx.get(0)


class TestEngineFork:
    def test_engine_fork_isolation_and_resume(self):
        """A forked engine state replays to the same result as the original
        run, and its mutations never leak into the walk's memory."""
        workload = get_workload("matmul", n=4)
        instance = workload.fresh_instance()
        engine = Engine(instance.module, instance.memory, snapshot_interval=300)
        result = engine.run(workload.entry, instance.args)
        golden = {
            name: instance.memory.object(name).values()
            for name in workload.output_objects
        }

        # walk a cursor to mid-run (it stops where its state converges onto
        # the golden snapshot), fork, finish both sides independently
        mid = engine.snapshots[2]
        cursor = Engine(instance.module, instance.memory)
        cursor.prepare_resume(engine.snapshots[0])
        cursor.run_checked([mid.dyn], {mid.dyn: snapshot_digest(mid)})
        assert cursor.converged and cursor.steps_executed == mid.dyn
        fork = cursor.capture_fork()

        replica = Engine(instance.module, fork.memory)
        replica.prepare_resume(fork)
        replica_result = replica._loop()
        assert replica_result.steps == result.steps
        assert replica_result.return_value == result.return_value
        for name in golden:
            assert np.array_equal(
                golden[name], replica.memory.object(name).values()
            ), name

        # the cursor finishes on its own memory, unaffected by the replica
        cursor_result = cursor.run_checked([], {})
        assert cursor_result.steps == result.steps
        for name in golden:
            assert np.array_equal(
                golden[name], cursor.memory.object(name).values()
            ), name

    def test_state_digest_matches_snapshot_digest(self):
        workload = get_workload("matmul", n=4)
        instance = workload.fresh_instance()
        engine = Engine(instance.module, instance.memory, snapshot_interval=250)
        engine.run(workload.entry, instance.args)
        snapshots = engine.snapshots
        assert len(snapshots) >= 3

        # execute from the first snapshot, digesting the live state at the
        # next two positions: the first has no golden digest to match, so
        # its digest is recorded as visited; the second converges and stops
        cursor = Engine(instance.module, instance.memory)
        cursor.prepare_resume(snapshots[0])
        first, second = snapshots[1], snapshots[2]
        cursor.run_checked(
            [first.dyn, second.dyn], {second.dyn: snapshot_digest(second)}
        )
        assert cursor.visited == [(first.dyn, snapshot_digest(first))]
        assert cursor.converged and cursor.converged_at == second.dyn
        assert cursor.state_digest() == snapshot_digest(second)
        # a mutated clone digests differently
        fork = cursor.capture_fork()
        clone = Engine(instance.module, fork.memory)
        clone.prepare_resume(fork)
        assert clone.state_digest() == cursor.state_digest()
        clone.memory.object("C").set(0, 123.456)
        assert clone.state_digest() != cursor.state_digest()

    def test_snapshot_survives_repeated_restores(self):
        """Restoring a snapshot twice, with writes in between, leaves it
        unchanged: every restore adopts a fresh fork."""
        workload = get_workload("matmul", n=4)
        instance = workload.fresh_instance()
        engine = Engine(instance.module, instance.memory, snapshot_interval=250)
        result = engine.run(workload.entry, instance.args)
        snapshot = engine.snapshots[1]
        captured = snapshot_digest(snapshot)
        cursor = Engine(instance.module, instance.memory)
        for _ in range(2):
            cursor.prepare_resume(snapshot)
            assert cursor.state_digest() == captured
            cursor.memory.object("C").set(0, -1.0)
            assert cursor.run_checked([], {}).steps == result.steps
            assert snapshot_digest(snapshot) == captured


@pytest.mark.parametrize("name", workload_names())
def test_snapshot_digest_is_fixed_at_capture(name):
    """Each golden snapshot digests, after the capturing run has ended, to
    the live state digest taken when it was captured: the run's later
    writes never reach a snapshot's shared arrays.  The schedule is derived
    as ``ReplayContext`` derives it, thinning included."""
    workload = get_workload(name)
    instance = workload.fresh_instance()
    engine = Engine(
        instance.module, instance.memory, snapshot_interval=64,
        snapshot_budget=16, max_steps=workload.max_steps,
    )
    at_capture = {}
    capture_fork = engine.capture_fork

    def capture():
        at_capture[engine.steps_executed] = engine.state_digest()
        return capture_fork()

    engine.capture_fork = capture
    engine.run(workload.entry, instance.args)
    assert len(engine.snapshots) >= 2
    for snapshot in engine.snapshots:
        assert snapshot_digest(snapshot) == at_capture[snapshot.dyn], snapshot.dyn
