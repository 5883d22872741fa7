"""Campaign flight recorder: span persistence, timeline rendering, CLI."""

from __future__ import annotations

import pytest

from repro.campaigns.cli import main
from repro.campaigns.orchestrator import CampaignOrchestrator
from repro.campaigns.plans import FixedRandomPlan
from repro.campaigns.store import CampaignStore
from repro.obs.spans import (
    clear_span_context,
    disable_recording,
    drain_span_records,
    get_span_context,
    recording_enabled,
)
from repro.reporting import format_timeline

WORKLOAD = "matmul"
KWARGS = {"n": 4}


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    disable_recording()
    clear_span_context()


def _orchestrator(store, tests=24, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("shard_size", 8)
    return CampaignOrchestrator(
        store, WORKLOAD, workload_kwargs=KWARGS,
        plan=FixedRandomPlan(tests=tests, seed=3), **kw
    )


class TestSpanPersistence:
    def test_run_persists_correlated_phase_spans(self, tmp_path):
        db = str(tmp_path / "store.sqlite")
        with CampaignStore(db) as store:
            orch = _orchestrator(store)
            result = orch.run()
            assert result.status == "complete"
            cid = orch.campaign_id
            run_ids = [row[0] for row in store.status(cid).runs]
        (run_id,) = run_ids

        # read back through a *fresh* store handle: the timeline must work
        # after the orchestrator (and its process, in real life) is gone
        with CampaignStore(db) as store:
            spans = store.run_spans(cid)
            assert spans, "campaign left no flight recording"
            names = {s.name for s in spans}
            assert {"campaign.trace", "campaign.analysis",
                    "campaign.shard", "campaign.run"} <= names
            for record in spans:
                assert record.run_id == run_id
                assert record.labels["campaign"] == cid
                assert record.labels["run"] == str(run_id)
                assert record.pid > 0
                assert record.duration_s >= 0
            # shard spans carry their shard; run-scoped phases are orphans
            shard_spans = [s for s in spans if s.name == "campaign.shard"]
            assert sorted(s.shard_index for s in shard_spans) == [0, 1, 2]
            for phase in ("campaign.trace", "campaign.analysis",
                          "campaign.run"):
                (record,) = [s for s in spans if s.name == phase]
                assert record.shard_index == -1
            # the run umbrella span covers every shard span
            (run_span,) = [s for s in spans if s.name == "campaign.run"]
            for shard in shard_spans:
                assert run_span.start_ts <= shard.start_ts
                assert shard.end_ts <= run_span.end_ts + 1e-6
            # each unit's store transaction, commit included, is one
            # campaign.commit span covering its shards' writes
            commits = [s for s in spans if s.name == "campaign.commit"]
            assert sum(int(c.labels["shards"]) for c in commits) == 3
            for shard in shard_spans:
                (unit,) = [c for c in commits
                           if c.start_ts <= shard.start_ts + 1e-6
                           and shard.end_ts <= c.end_ts + 1e-6]
                assert unit.shard_index <= shard.shard_index

            # and the waterfall renders purely from those rows
            rendered = format_timeline([
                {
                    "run_id": s.run_id, "name": s.name, "depth": s.depth,
                    "pid": s.pid, "shard_index": s.shard_index,
                    "start_ts": s.start_ts, "duration_s": s.duration_s,
                    "labels": s.labels,
                }
                for s in spans
            ])
            assert f"run {run_id}: {len(spans)} spans" in rendered
            assert "campaign.shard" in rendered and "#" in rendered

    def test_resume_records_its_own_run(self, tmp_path):
        db = str(tmp_path / "store.sqlite")
        with CampaignStore(db) as store:
            orch = _orchestrator(store)
            assert orch.run(max_shards=1).status == "interrupted"
            assert orch.resume().status == "complete"
            spans = store.run_spans(orch.campaign_id)
            by_run = {s.run_id for s in spans}
            assert by_run == {1, 2}
            # each run recorded its own umbrella span
            assert sum(s.name == "campaign.run" for s in spans) == 2

    def test_worker_processes_ship_their_spans(self, tmp_path):
        db = str(tmp_path / "store.sqlite")
        with CampaignStore(db) as store:
            orch = _orchestrator(store, tests=48, workers=2, shard_size=12)
            assert orch.run().status == "complete"
            spans = store.run_spans(orch.campaign_id)
            injects = [s for s in spans if s.name == "worker.inject"]
            assert injects, "workers shipped no spans"
            # worker spans are stamped with the first shard of the unit
            # that ran them (4 shards over 2 workers: units of 2), count
            # the unit's shards, and keep the worker's own pid + the
            # campaign correlation labels
            assert {s.shard_index for s in injects} == {0, 2}
            assert sum(int(s.labels["shards"]) for s in injects) == 4
            for record in injects:
                assert record.labels["campaign"] == orch.campaign_id
                assert record.labels["workload"] == WORKLOAD

    def test_recorder_state_restored_after_run(self):
        assert not recording_enabled()
        store = CampaignStore(":memory:")
        _orchestrator(store, tests=8).run()
        assert not recording_enabled()
        assert get_span_context() == {}
        assert drain_span_records() == []


class TestTimelineRendering:
    @staticmethod
    def _record(name, start, duration, depth=0, shard=-1, pid=100, run=1,
                **labels):
        return {
            "run_id": run, "name": name, "depth": depth, "pid": pid,
            "shard_index": shard, "start_ts": start, "duration_s": duration,
            "labels": {k: str(v) for k, v in labels.items()},
        }

    def test_golden_waterfall(self):
        records = [
            self._record("campaign.run", 0.0, 10.0),
            self._record("campaign.trace", 0.0, 2.0, depth=1),
            self._record("campaign.shard", 2.0, 4.0, depth=1, shard=0,
                         object="C"),
            self._record("campaign.shard", 6.0, 4.0, depth=1, shard=1,
                         object="C"),
        ]
        rendered = format_timeline(records, width=10)
        assert rendered.splitlines()[0] == "run 1: 4 spans"
        # each phase's bar is positioned and scaled against the run's wall
        assert "|##########|" in rendered  # campaign.run spans the window
        assert "|##        |" in rendered  # trace: first fifth
        assert "|  ####    |" in rendered  # shard 0: middle
        assert "|      ####|" in rendered  # shard 1: end
        assert "wall 10.000s" in rendered
        # one pid executed everything: no concurrency despite the overlap
        assert "peak concurrency 1" in rendered

    def test_concurrency_summary_counts_distinct_pids(self):
        records = [
            self._record("worker.inject", 0.0, 4.0, pid=101, shard=0),
            self._record("worker.inject", 1.0, 4.0, pid=102, shard=1),
        ]
        rendered = format_timeline(records)
        assert "2 pids" in rendered
        assert "peak concurrency 2" in rendered

    def test_limit_truncates_rows(self):
        records = [
            self._record(f"s{i}", float(i), 1.0) for i in range(5)
        ]
        rendered = format_timeline(records, limit=2)
        assert "showing first 2" in rendered
        assert "s0" in rendered and "s4" not in rendered

    def test_empty_recording(self):
        assert "no spans recorded" in format_timeline([])


class TestTimelineCli:
    def test_timeline_command_renders_from_store(self, tmp_path, capsys):
        store_path = str(tmp_path / "store.sqlite")
        assert main(
            ["campaign", "run", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", "--store", store_path, "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["timeline", "matmul", "--plan", "fixed:16", "--shard-size", "8",
             "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded spans" in out
        assert "campaign.shard" in out
        assert "peak concurrency" in out
