"""Parity oracle: the batched replay scheduler vs from-scratch faulty runs.

The acceptance bar of the batched scheduler is *bit identity*: for every
registered workload and a diverse fault sample (operand flips, store-
destination flips, result flips; masked, SDC, crashing and addressing
faults), submitting the specs through
:meth:`~repro.core.replay.ReplayContext.replay_many` must reproduce one
sequential from-scratch run per fault (``fresh_instance().run(fault=)``)
exactly — same outcome (corrupted output bits, return value, step count),
same exception type and message for crashes/hangs.  A proven golden
convergence lies between the fault site and the end of the run, and at
or before the first checkpoint whose state digest matches golden after
the fault (the lockstep walk detects state re-convergence at the
divergence-death op; a per-fault replay only probes at checkpoint
positions).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest

from repro.core.injector import DeterministicFaultInjector
from repro.core.replay import ReplayContext
from repro.core.sites import enumerate_fault_sites
from repro.vm.engine import Engine, snapshot_digest
from repro.vm.faults import FaultSpec, FaultTarget
from repro.workloads.registry import get_workload, workload_names

from oracles.rerun import RerunInjector

#: Reduced problem sizes so the all-workload parity sweep stays fast.
SMALL_KWARGS = {
    "amg": {"n": 6, "m": 2},
    "cg": {"n": 10, "cgitmax": 2},
    "lu": {"n": 8, "niter": 1},
    "lulesh": {"num_elem": 12},
    "matmul": {"n": 5},
    "matmul_abft": {"n": 5},
    "mg": {"nf": 9, "ncycles": 1},
    "pf": {"nparticles": 8, "nframes": 1},
    "pf_abft": {"nparticles": 8, "nframes": 1},
}

ALL_WORKLOADS = workload_names()


def _small(name):
    return get_workload(name, **SMALL_KWARGS.get(name, {}))


def _sample_specs(workload, trace, per_object=24, bit_stride=7):
    """A deterministic, diverse sample of the workload's fault space."""
    specs = []
    for target in workload.target_objects:
        sites = enumerate_fault_sites(trace, target, bit_stride=bit_stride)
        step = max(1, len(sites) // per_object)
        specs.extend(site.to_spec() for site in sites[::step][:per_object])
    # result-target faults exercise the evict-at-birth private path
    for dynamic_id in range(0, len(trace), max(1, len(trace) // 6)):
        event = trace[dynamic_id]
        if event.result_value is not None:
            specs.append(FaultSpec(
                dynamic_id=event.dynamic_id,
                bit=17 % max(1, event.result_type.bits),
                target=FaultTarget.RESULT,
            ))
    return specs


def _sequential_outcomes(workload, specs):
    """One from-scratch faulty run per spec."""
    out = []
    for spec in specs:
        try:
            outcome = workload.fresh_instance().run(fault=spec)
        except Exception as exc:  # noqa: BLE001 - crash parity checked below
            out.append(("error", exc))
            continue
        out.append(("ok", outcome))
    return out


def _snapshot_index(context, dynamic_id):
    """Index of the latest snapshot at or before ``dynamic_id``."""
    positions = [snap.dyn for snap in context.snapshots]
    return bisect_right(positions, dynamic_id) - 1


# --------------------------------------------------------------------- #
# the core property: batched == sequential, bit for bit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_batched_replay_bit_identical_to_sequential(name):
    workload = _small(name)
    trace = workload.traced_run().trace
    specs = _sample_specs(workload, trace)
    assert specs, "sample must not be empty"

    expected = _sequential_outcomes(workload, specs)

    batched = ReplayContext(workload)
    results = batched.replay_many(specs)
    assert len(results) == len(specs)
    assert batched.stats.faults == len(specs)

    for index, (tag, payload) in enumerate(expected):
        result = results[index]
        assert result.spec == specs[index]
        if tag == "error":
            assert result.outcome is None
            assert type(result.error) is type(payload), (index, specs[index])
            assert str(result.error) == str(payload), (index, specs[index])
            continue
        assert result.error is None, (index, specs[index], result.error)
        outcome = result.outcome
        assert outcome.return_value == payload.return_value, (index, specs[index])
        assert outcome.steps == payload.steps, (index, specs[index])
        for obj in payload.outputs:
            assert np.array_equal(
                outcome.outputs[obj].view(np.uint8),
                payload.outputs[obj].view(np.uint8),
            ), (index, specs[index], obj, result.via)
        if result.converged_at is not None:
            # proven at or after the fault fired, before the run ended
            assert (
                specs[index].dynamic_id <= result.converged_at <= payload.steps
            ), (index, specs[index], result.converged_at)

    stats = batched.stats
    assert stats.faults == len(specs)
    assert stats.lockstep + stats.evicted == len(specs)
    assert stats.batches >= 1


@pytest.mark.parametrize("name", ["matmul", "cg"])
def test_batched_convergence_op_not_later_than_sequential(name):
    """When both paths prove golden convergence, the batched proof point is
    at or before the checkpoint a per-fault replay proves it at (never
    later).  The per-fault replay restores the fault's snapshot and runs
    it alone with digest checks at every checkpoint after the site."""
    workload = _small(name)
    trace = workload.traced_run().trace
    specs = _sample_specs(workload, trace, per_object=16)

    sequential = ReplayContext(workload)
    golden_digests = {
        snap.dyn: snapshot_digest(snap) for snap in sequential.snapshots
    }
    batched = ReplayContext(workload)
    results = batched.replay_many(specs)

    compared = 0
    for spec, result in zip(specs, results):
        engine = Engine(
            sequential.instance.module,
            sequential.instance.memory,
            fault=spec,
            max_steps=workload.max_steps,
        )
        engine.prepare_resume(
            sequential.snapshots[_snapshot_index(sequential, spec.dynamic_id)]
        )
        after = sorted(dyn for dyn in golden_digests if dyn > spec.dynamic_id)
        try:
            engine.run_checked(after, golden_digests)
        except Exception:  # noqa: BLE001 - crashes prove no convergence
            continue
        seq_converged_at = engine.converged_at if engine.converged else None
        if seq_converged_at is not None and result.converged_at is not None:
            assert result.converged_at <= seq_converged_at, spec
            compared += 1
    assert compared > 0, "sample should contain converging faults"


def test_batched_outcomes_match_injector_classification():
    """End to end through the injector: inject_many == per-spec inject."""
    workload = _small("cg")
    trace = workload.traced_run().trace
    specs = _sample_specs(workload, trace, per_object=12, bit_stride=5)

    sequential = RerunInjector(workload)
    batched = DeterministicFaultInjector(workload)
    batch_results = batched.inject_many(specs)
    assert len(batch_results) == len(specs)
    outcomes = set()
    for spec, got in zip(specs, batch_results):
        want = sequential.inject(spec)
        assert got.outcome is want.outcome, spec
        assert got.detail == want.detail, spec
        outcomes.add(got.outcome)
    assert len(outcomes) >= 2, "sample should exercise several outcome classes"


# --------------------------------------------------------------------- #
# scheduler mechanics
# --------------------------------------------------------------------- #
def test_plan_batches_groups_by_snapshot_interval():
    workload = _small("matmul")
    context = ReplayContext(workload, checkpoint_interval=500)
    trace = workload.traced_run().trace
    specs = [
        site.to_spec()
        for site in enumerate_fault_sites(trace, "C", bit_stride=16)
    ]
    batches = context.plan_batches(specs)
    assert sum(len(batch.specs) for batch in batches) == len(specs)
    positions = [batch.snapshot_dyn for batch in batches]
    assert positions == sorted(positions)
    for batch in batches:
        for spec in batch.specs:
            index = _snapshot_index(context, spec.dynamic_id)
            assert index == batch.snapshot_index
            assert context.snapshots[index].dyn == batch.snapshot_dyn


def test_derived_schedule_does_not_depend_on_process_history():
    """The derived snapshot schedule comes from the golden run alone: it
    starts at 64 and thins by doubling, so two contexts built back to back
    snapshot at the same positions and report the same ``(via,
    converged_at)`` per fault, in any process."""
    workload = get_workload("cg")
    trace = workload.traced_run().trace
    specs = [
        site.to_spec()
        for site in enumerate_fault_sites(trace, "r", bit_stride=13)[::97]
    ][:24]
    first, second = ReplayContext(workload), ReplayContext(workload)
    assert first.checkpoint_interval == second.checkpoint_interval
    assert first.checkpoint_interval in {64 << shift for shift in range(32)}
    assert [snap.dyn for snap in first.snapshots] == [
        snap.dyn for snap in second.snapshots
    ]
    kinds = [(r.via, r.converged_at) for r in first.replay_many(specs)]
    assert any(converged is not None for _, converged in kinds)
    assert kinds == [(r.via, r.converged_at) for r in second.replay_many(specs)]


def test_duplicate_specs_in_one_batch():
    """Sampling with replacement submits identical specs; each resolves
    independently and identically."""
    workload = _small("matmul")
    trace = workload.traced_run().trace
    site = enumerate_fault_sites(trace, "C", bit_stride=11)[3]
    spec = site.to_spec()
    context = ReplayContext(workload)
    results = context.replay_many([spec, spec, spec])
    reference = workload.fresh_instance().run(fault=spec)
    for result in results:
        assert result.error is None
        assert result.outcome.return_value == reference.return_value
        for obj in reference.outputs:
            assert np.array_equal(result.outcome.outputs[obj], reference.outputs[obj])


def test_empty_submission():
    workload = _small("matmul")
    context = ReplayContext(workload)
    assert context.replay_many([]) == []
    assert context.stats.batches == 0
