"""Pipelined shard execution: parity across worker counts, timing, failures.

The orchestrator runs units — consecutive shards of one data object,
injected in one replay batch — through a
:class:`~repro.parallel.campaign.ShardPipeline`: a window of units in
flight, results committed in shard order, one store transaction per
unit.  The store it leaves must not depend on the worker count, on how
shards group into units, on the order workers finish in, or on where a
run was interrupted.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.parallel.campaign as parallel_campaign
from repro.campaigns.orchestrator import CampaignOrchestrator
from repro.campaigns.plans import AdaptivePlan, FixedRandomPlan, parse_plan
from repro.campaigns.store import CampaignStore
from repro.core.injector import DeterministicFaultInjector
from repro.obs.spans import clear_span_context, disable_recording
from repro.parallel.campaign import CampaignChunkError

#: Small problem sizes: a few shards per object, seconds per campaign.
KWARGS = {
    "cg": {"n": 10, "cgitmax": 2},
    "sp": {},
    "matmul": {"n": 4},
}

#: Injecting a chosen shard's specs raises in a worker only when the
#: worker inherits the patched injector through ``fork``.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patching the injector reaches pool workers only through fork",
)


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    disable_recording()
    clear_span_context()


def _orchestrator(store, workload, plan, workers, shard_size=8):
    return CampaignOrchestrator(
        store, workload, workload_kwargs=KWARGS[workload], plan=plan,
        workers=workers, shard_size=shard_size,
    )


def _rows(store, campaign_id):
    """Every stored outcome, fault for fault, in shard order."""
    return [
        (o.shard_index, o.seq, o.object_name, o.spec, o.outcome, o.detail)
        for o in store.outcomes(campaign_id)
    ]


def _run(workload, plan, workers, **kw):
    store = CampaignStore(":memory:")
    orchestrator = _orchestrator(store, workload, plan, workers, **kw)
    result = orchestrator.run()
    assert result.status == "complete"
    return store, orchestrator, result


# --------------------------------------------------------------------- #
# parity across worker counts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", ["cg", "sp", "matmul"])
def test_two_workers_equal_one_worker_fault_for_fault(workload):
    plan = FixedRandomPlan(tests=40, seed=7)
    serial, serial_orch, serial_result = _run(workload, plan, workers=1)
    paired, paired_orch, paired_result = _run(workload, plan, workers=2)
    assert _rows(paired, paired_orch.campaign_id) == _rows(
        serial, serial_orch.campaign_id
    )
    assert paired_result.histograms == serial_result.histograms
    assert paired_result.executed_shards == serial_result.executed_shards > 2


def test_more_workers_than_cores_keep_shard_order():
    # many small shards finishing out of order on an oversubscribed pool
    plan = FixedRandomPlan(tests=24, seed=2)
    workers = (multiprocessing.cpu_count() or 1) + 2
    serial, serial_orch, _ = _run("matmul", plan, workers=1, shard_size=2)
    crowded, crowded_orch, result = _run("matmul", plan, workers=workers,
                                         shard_size=2)
    assert result.executed_shards == 12
    assert _rows(crowded, crowded_orch.campaign_id) == _rows(
        serial, serial_orch.campaign_id
    )


def test_adaptive_plan_two_workers_equal_one_worker():
    # cg has two target objects, so the two workers overlap batches of
    # different objects while each object keeps one batch in flight
    plan = AdaptivePlan(target_half_width=0.15, batch_size=8, max_batches=8, seed=5)
    serial, serial_orch, serial_result = _run("cg", plan, workers=1)
    paired, paired_orch, paired_result = _run("cg", plan, workers=2)
    assert _rows(paired, paired_orch.campaign_id) == _rows(
        serial, serial_orch.campaign_id
    )
    assert paired_result.tallies == serial_result.tallies
    assert paired_result.executed_shards == serial_result.executed_shards


@pytest.mark.parametrize("max_shards", [1, 3])
def test_adaptive_max_shards_commits_the_one_worker_prefix(max_shards):
    plan = AdaptivePlan(target_half_width=0.15, batch_size=8, max_batches=8, seed=5)
    committed = {}
    for workers in (1, 2):
        store = CampaignStore(":memory:")
        orchestrator = _orchestrator(store, "cg", plan, workers)
        result = orchestrator.run(max_shards=max_shards)
        assert result.status == "interrupted"
        assert result.executed_shards == max_shards
        committed[workers] = _rows(store, orchestrator.campaign_id)
        # resuming completes exactly the uninterrupted campaign
        assert orchestrator.run().status == "complete"
        committed[workers, "resumed"] = _rows(store, orchestrator.campaign_id)
    assert committed[2] == committed[1]
    fresh, fresh_orch, _ = _run("cg", plan, workers=1)
    assert committed[2, "resumed"] == _rows(fresh, fresh_orch.campaign_id)


# --------------------------------------------------------------------- #
# units: shard timing comes from the worker, not from the window
# --------------------------------------------------------------------- #
def _units(store, campaign_id):
    """``{first shard: (worker.inject span, [shard indices])}`` per unit."""
    injects = sorted(
        (span for span in store.run_spans(campaign_id)
         if span.name == "worker.inject"),
        key=lambda span: span.shard_index,
    )
    shards = sorted(store.completed_shards(campaign_id))
    units = {}
    for span in injects:
        members = shards[shards.index(span.shard_index):][:int(span.labels["shards"])]
        units[span.shard_index] = (span, members)
    assert sum(len(members) for _, members in units.values()) == len(shards)
    return units


def test_shard_durations_are_the_worker_inject_spans(tmp_path):
    # a unit's shards share its worker.inject span, each by its share of
    # the unit's specs, so the unit's shard durations sum to the span
    with CampaignStore(str(tmp_path / "store.sqlite")) as store:
        orchestrator = _orchestrator(
            store, "cg", FixedRandomPlan(tests=40, seed=7), workers=2
        )
        assert orchestrator.run().status == "complete"
        campaign_id = orchestrator.campaign_id
        shards = store.completed_shards(campaign_id)
        units = _units(store, campaign_id)
    # 5 shards per object over 2 workers: units of at most 3 shards
    assert [members for _, members in units.values()] == [
        [0, 1, 2], [3, 4], [5, 6, 7], [8, 9]
    ]
    for first, (span, members) in units.items():
        assert sum(shards[i].duration_s for i in members) == pytest.approx(
            span.duration_s
        )
        for i in members:
            assert shards[i].duration_s == pytest.approx(
                span.duration_s * shards[i].spec_count / int(span.labels["specs"])
            )
        # one replay batch per unit, stamped on its first shard
        assert [shards[i].batches for i in members] == [1] + [0] * (
            len(members) - 1
        )
    # a unit of one-spec shards is one batch too, not a sequential replay
    with CampaignStore(str(tmp_path / "single.sqlite")) as store:
        orchestrator = _orchestrator(
            store, "cg", FixedRandomPlan(tests=3, seed=3), workers=1,
            shard_size=1,
        )
        assert orchestrator.run().status == "complete"
        singles = store.completed_shards(orchestrator.campaign_id)
        units = _units(store, orchestrator.campaign_id)
    assert len(singles) == 6
    assert [members for _, members in units.values()] == [[0, 1, 2], [3, 4, 5]]
    assert sum(shard.batches for shard in singles.values()) == 2


def test_adaptive_units_hold_one_shard(tmp_path):
    # each batch of an adaptive object depends on the previous results
    plan = AdaptivePlan(target_half_width=0.15, batch_size=8, max_batches=8,
                        seed=5)
    with CampaignStore(str(tmp_path / "store.sqlite")) as store:
        orchestrator = _orchestrator(store, "cg", plan, workers=2)
        assert orchestrator.run().status == "complete"
        shards = store.completed_shards(orchestrator.campaign_id)
        units = _units(store, orchestrator.campaign_id)
    assert len(shards) > 2
    assert all(len(members) == 1 for _, members in units.values())
    assert all(shard.batches == 1 for shard in shards.values())


def test_reference_campaign_equal_at_one_and_two_workers():
    # the benchmark's reference campaign: cg fixed:512@5 on seed 5
    plan = parse_plan("fixed:512@5")
    rows = {}
    batches = {}
    for workers in (1, 2):
        store = CampaignStore(":memory:")
        orchestrator = CampaignOrchestrator(
            store, "cg", workload_kwargs={"seed": 5}, plan=plan,
            workers=workers,
        )
        result = orchestrator.run()
        assert result.status == "complete" and result.executed_shards == 32
        rows[workers] = _rows(store, orchestrator.campaign_id)
        batches[workers] = sum(
            shard.batches
            for shard in store.completed_shards(orchestrator.campaign_id).values()
        )
    assert rows[2] == rows[1]
    assert len(rows[1]) == 1024
    # 256-spec units: 4 lockstep walks instead of one per shard
    assert batches == {1: 4, 2: 4}


# --------------------------------------------------------------------- #
# failure semantics under the window
# --------------------------------------------------------------------- #
def _fail_shard(monkeypatch, orchestrator, failing):
    """Make injecting shard ``failing``'s specs raise (in any process), and
    with them the unit that holds the shard."""
    tasks = orchestrator.static_shards(
        orchestrator._workload().traced_run().trace
    )
    marker = tasks[failing].specs[0]
    original = DeterministicFaultInjector.inject_many

    def inject_many(self, specs):
        specs = list(specs)
        if marker in specs:
            raise RuntimeError("injector blew up")
        return original(self, specs)

    monkeypatch.setattr(DeterministicFaultInjector, "inject_many", inject_many)
    return len(tasks)


@needs_fork
def test_failed_shard_commits_exactly_the_earlier_shards(monkeypatch):
    _check_failed_unit(monkeypatch, failing=3)


@needs_fork
def test_unit_failing_mid_unit_is_named_by_its_first_shard(monkeypatch):
    # shards 3 and 4 form one unit: shard 4 failing fails the unit, which
    # is named by its first shard and commits nothing
    _check_failed_unit(monkeypatch, failing=4)


def _check_failed_unit(monkeypatch, failing):
    plan = FixedRandomPlan(tests=40, seed=7)
    store = CampaignStore(":memory:")
    orchestrator = _orchestrator(store, "cg", plan, workers=2)
    total = _fail_shard(monkeypatch, orchestrator, failing=failing)
    assert total > 5  # later shards were in the window when shard 3 failed

    with pytest.raises(CampaignChunkError) as excinfo:
        orchestrator.run()
    assert excinfo.value.chunk_index == 3
    assert "shard 3" in str(excinfo.value)
    assert "injector blew up" in str(excinfo.value)
    assert sorted(store.completed_shards(orchestrator.campaign_id)) == [0, 1, 2]
    assert store.campaign(orchestrator.campaign_id).status == "failed"
    assert store.run_accounting(orchestrator.campaign_id) == [(1, 3, 0)]

    # resuming at two workers yields the uninterrupted one-worker store
    monkeypatch.undo()
    resumed = orchestrator.run()
    assert resumed.status == "complete"
    assert resumed.skipped_shards == 3
    fresh, fresh_orch, _ = _run("cg", plan, workers=1)
    assert _rows(store, orchestrator.campaign_id) == _rows(
        fresh, fresh_orch.campaign_id
    )


def test_no_shard_beyond_max_shards_is_committed():
    _check_interrupt_and_resume(max_shards=3)


def test_max_shards_truncates_a_unit():
    # the unit of shards 3 and 4 runs shard 3 alone
    _check_interrupt_and_resume(max_shards=4)


def _check_interrupt_and_resume(max_shards):
    """Interrupted at ``max_shards``, the campaign commits exactly that
    prefix, and resuming completes the uninterrupted campaign."""
    plan = FixedRandomPlan(tests=40, seed=7)
    store = CampaignStore(":memory:")
    orchestrator = _orchestrator(store, "cg", plan, workers=2)
    result = orchestrator.run(max_shards=max_shards)
    assert result.status == "interrupted"
    assert result.executed_shards == max_shards
    assert sorted(store.completed_shards(orchestrator.campaign_id)) == list(
        range(max_shards)
    )
    resumed = orchestrator.run()
    assert resumed.status == "complete"
    assert resumed.skipped_shards == max_shards
    fresh, fresh_orch, _ = _run("cg", plan, workers=2)
    assert _rows(store, orchestrator.campaign_id) == _rows(
        fresh, fresh_orch.campaign_id
    )


def test_max_shards_zero_spawns_no_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(parallel_campaign, "ProcessPoolExecutor", no_pool)
    store = CampaignStore(":memory:")
    orchestrator = _orchestrator(
        store, "cg", FixedRandomPlan(tests=40, seed=7), workers=2
    )
    result = orchestrator.run(max_shards=0)
    assert result.status == "interrupted"
    assert result.executed_shards == 0
    assert store.completed_shards(orchestrator.campaign_id) == {}
