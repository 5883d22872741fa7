"""Orchestrator: kill-and-resume round-trips, adaptive convergence, dedupe."""

import multiprocessing

import pytest

from repro.campaigns.orchestrator import CampaignOrchestrator
from repro.campaigns.plans import AdaptivePlan, FixedRandomPlan, StratifiedPlan
from repro.campaigns.stats import wilson_half_width
from repro.campaigns.store import CampaignStore
from repro.core.injector import DeterministicFaultInjector

WORKLOAD = "matmul"
KWARGS = {"n": 4}


def _outcome_rows(store, campaign_id):
    """Canonical (position-independent-of-run) view of every stored outcome."""
    return [
        (o.shard_index, o.seq, o.object_name, o.spec, o.outcome, o.detail)
        for o in store.outcomes(campaign_id)
    ]


def _orchestrator(store, plan, **kw):
    return CampaignOrchestrator(
        store, WORKLOAD, workload_kwargs=KWARGS, plan=plan, workers=1, **kw
    )


class TestKillAndResume:
    def test_interrupted_resume_is_bit_identical_to_fresh_run(self):
        plan = FixedRandomPlan(tests=24, seed=3)

        # reference: one uninterrupted campaign
        fresh_store = CampaignStore(":memory:")
        fresh = _orchestrator(fresh_store, plan, shard_size=8)
        fresh_result = fresh.run()
        assert fresh_result.status == "complete"
        assert fresh_result.executed_shards == 3

        # "killed" campaign: interrupt after one persisted shard, then resume
        store = CampaignStore(":memory:")
        orch = _orchestrator(store, plan, shard_size=8)
        partial = orch.run(max_shards=1)
        assert partial.status == "interrupted"
        assert partial.executed_shards == 1
        assert store.campaign(orch.campaign_id).status == "interrupted"

        resumed = orch.resume()
        assert resumed.status == "complete"
        assert resumed.executed_shards == 2
        assert resumed.skipped_shards == 1

        # final results are bit-identical to the uninterrupted run
        assert _outcome_rows(store, orch.campaign_id) == _outcome_rows(
            fresh_store, fresh.campaign_id
        )
        assert resumed.histograms == fresh_result.histograms

        # shard-execution counts prove only unfinished shards were re-executed
        shards = store.completed_shards(orch.campaign_id)
        assert sorted(shards) == [0, 1, 2]
        assert shards[0].run_id == 1
        assert shards[1].run_id == 2 and shards[2].run_id == 2
        assert store.run_accounting(orch.campaign_id) == [(1, 1, 0), (2, 2, 1)]

    def test_resume_from_store_reconstructs_orchestrator(self):
        plan = StratifiedPlan(per_stratum=4, intervals=3, seed=1)
        store = CampaignStore(":memory:")
        orch = _orchestrator(store, plan, shard_size=6)
        orch.run(max_shards=1)

        # a different orchestrator instance (fresh process in real life)
        rebuilt = CampaignOrchestrator.from_store(store, orch.campaign_id, workers=1)
        assert rebuilt.plan == plan
        assert rebuilt.workload_kwargs == KWARGS
        result = rebuilt.run()
        assert result.status == "complete"
        assert result.skipped_shards >= 1

        # identical to a fresh uninterrupted campaign
        fresh_store = CampaignStore(":memory:")
        fresh = _orchestrator(fresh_store, plan, shard_size=6)
        fresh.run()
        assert _outcome_rows(store, orch.campaign_id) == _outcome_rows(
            fresh_store, fresh.campaign_id
        )

    def test_completed_campaign_rerun_executes_nothing(self):
        store = CampaignStore(":memory:")
        orch = _orchestrator(store, FixedRandomPlan(tests=8, seed=0), shard_size=4)
        first = orch.run()
        again = orch.run()
        assert first.status == again.status == "complete"
        assert again.executed_shards == 0
        assert again.skipped_shards == first.executed_shards == 2
        assert len(store.outcomes(orch.campaign_id)) == 8


class TestAdaptiveCampaigns:
    PLAN = AdaptivePlan(
        target_half_width=0.12, batch_size=16, max_batches=16, seed=5
    )

    def test_adaptive_stops_within_target_half_width(self):
        store = CampaignStore(":memory:")
        orch = _orchestrator(store, self.PLAN)
        result = orch.run()
        assert result.status == "complete"
        successes, trials = result.tallies["C"]
        assert trials == result.executed_injections
        assert wilson_half_width(successes, trials, self.PLAN.z) <= 0.12
        # converged without draining the batch budget
        assert result.executed_shards < self.PLAN.max_batches

    def test_adaptive_kill_and_resume_matches_fresh(self):
        fresh_store = CampaignStore(":memory:")
        fresh = _orchestrator(fresh_store, self.PLAN)
        fresh_result = fresh.run()

        store = CampaignStore(":memory:")
        orch = _orchestrator(store, self.PLAN)
        assert orch.run(max_shards=1).status == "interrupted"
        resumed = orch.run()
        assert resumed.status == "complete"
        assert resumed.skipped_shards == 1
        assert _outcome_rows(store, orch.campaign_id) == _outcome_rows(
            fresh_store, fresh.campaign_id
        )
        assert resumed.tallies == fresh_result.tallies


class TestFailureHandling:
    def test_crash_marks_campaign_failed_but_keeps_accounting(self, monkeypatch):
        store = CampaignStore(":memory:")
        orch = _orchestrator(store, FixedRandomPlan(tests=16, seed=0), shard_size=8)
        original = DeterministicFaultInjector.inject_many
        calls = []

        def second_shard_dies(self, specs):
            if calls:
                raise RuntimeError("worker died")
            calls.append(1)
            return original(self, specs)

        monkeypatch.setattr(
            DeterministicFaultInjector, "inject_many", second_shard_dies
        )
        with pytest.raises(RuntimeError, match="worker died"):
            orch.run()
        # no permanently-"running" zombie row, and the shard that completed
        # before the crash is accounted for
        assert store.campaign(orch.campaign_id).status == "failed"
        assert store.run_accounting(orch.campaign_id) == [(1, 1, 0)]
        assert len(store.outcomes(orch.campaign_id)) == 8

        # the persisted shard survives and the campaign resumes cleanly
        monkeypatch.undo()
        result = orch.run()
        assert result.status == "complete"
        assert result.skipped_shards == 1 and result.executed_shards == 1


class TestParallelWorkers:
    def test_parallel_campaign_matches_serial(self):
        plan = FixedRandomPlan(tests=12, seed=1)
        serial_store = CampaignStore(":memory:")
        _orchestrator(serial_store, plan, shard_size=6).run()
        parallel_store = CampaignStore(":memory:")
        parallel = CampaignOrchestrator(
            parallel_store, WORKLOAD, workload_kwargs=KWARGS,
            plan=plan, workers=2, shard_size=6,
        )
        result = parallel.run()
        assert result.status == "complete"
        assert not multiprocessing.active_children()  # pool released
        assert _outcome_rows(parallel_store, parallel.campaign_id) == _outcome_rows(
            serial_store, parallel.campaign_id
        )


class TestConfigurationErrors:
    def test_unknown_workload_fails_fast(self):
        store = CampaignStore(":memory:")
        with pytest.raises(KeyError, match="unknown workload"):
            CampaignOrchestrator(store, "matmool")
        assert store.campaigns() == []

    def test_bad_shard_size(self):
        with pytest.raises(ValueError):
            CampaignOrchestrator(CampaignStore(":memory:"), WORKLOAD, shard_size=0)


class TestReports:
    def test_compute_reports_persists_and_reuses(self):
        from repro.core.advf import AnalysisConfig
        from repro.core.patterns import SingleBitModel

        store = CampaignStore(":memory:")
        orch = _orchestrator(store, FixedRandomPlan(tests=8, seed=0))
        orch.run()
        config = AnalysisConfig(
            max_injections=10,
            equivalence_samples=1,
            injection_samples_per_class=1,
            error_model=SingleBitModel(bit_stride=16),
        )
        reports = orch.compute_reports(config)
        assert set(reports) == {"C"}
        assert 0.0 <= reports["C"].advf <= 1.0
        # second call renders from the store (same object, no recompute)
        assert orch.compute_reports(config) == reports
        assert store.reports(orch.campaign_id) == reports
