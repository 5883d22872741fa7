"""CampaignStore: schema/versioning, content addressing, round-trips, export."""

import json
import sqlite3

import pytest

from repro.campaigns.store import (
    SCHEMA_VERSION,
    CampaignStore,
    StoreVersionError,
    compute_campaign_id,
)
from repro.core.acceptance import OutcomeClass
from repro.core.advf import AdvfResult, ObjectReport
from repro.core.injector import FaultInjectionResult
from repro.core.masking import MaskingCategory, MaskingLevel
from repro.vm.faults import FaultSpec, FaultTarget

PLAN = {"kind": "fixed", "tests": 8, "seed": 0}


def _results(n=4):
    outcomes = [
        OutcomeClass.IDENTICAL,
        OutcomeClass.ACCEPTABLE,
        OutcomeClass.UNACCEPTABLE,
        OutcomeClass.CRASH,
    ]
    return [
        FaultInjectionResult(
            spec=FaultSpec(
                dynamic_id=10 + i,
                bit=i,
                target=FaultTarget.OPERAND if i % 2 == 0 else FaultTarget.STORE_DEST_OLD,
                operand_index=i % 2,
                note=f"test site {i}",
            ),
            outcome=outcomes[i % len(outcomes)],
            detail=f"detail {i}" if i % 2 else "",
        )
        for i in range(n)
    ]


@pytest.fixture()
def store():
    with CampaignStore(":memory:") as s:
        yield s


class TestIdentity:
    def test_content_addressed_ids(self):
        a = compute_campaign_id("matmul", {}, PLAN, 32)
        assert a == compute_campaign_id("matmul", {}, PLAN, 32)
        assert a != compute_campaign_id("matmul", {"n": 8}, PLAN, 32)
        assert a != compute_campaign_id("matmul", {}, {**PLAN, "tests": 9}, 32)
        assert a != compute_campaign_id("matmul", {}, PLAN, 16)
        assert a != compute_campaign_id("lu", {}, PLAN, 32)

    def test_kwarg_order_does_not_matter(self):
        assert compute_campaign_id("lu", {"a": 1, "b": 2}, PLAN, 8) == (
            compute_campaign_id("lu", {"b": 2, "a": 1}, PLAN, 8)
        )

    def test_ensure_campaign_dedupes(self, store):
        first = store.ensure_campaign("matmul", {}, PLAN, 32)
        second = store.ensure_campaign("matmul", {}, PLAN, 32)
        assert first == second
        assert len(store.campaigns()) == 1


class TestSchema:
    def test_schema_version_stamped(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.sqlite"
        CampaignStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreVersionError, match="schema version 999"):
            CampaignStore(path)

    def test_v1_store_migrates_in_place(self, tmp_path):
        """v2 only adds defaulted columns, so v1 stores upgrade losslessly."""
        path = tmp_path / "v1.sqlite"
        with CampaignStore(path) as s:
            cid = s.ensure_campaign("matmul", {}, PLAN, 32)
            run = s.begin_run(cid)
            s.record_shard(cid, 0, "C", 0, run, 0.1, _results())
        # rewind the file to schema v1 by dropping the v2 columns
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE campaigns DROP COLUMN trace_digest")
        conn.execute("ALTER TABLE shards DROP COLUMN analysis_s")
        conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with CampaignStore(path) as s:
            assert s.schema_version == SCHEMA_VERSION
            record = s.campaign(cid)
            assert record.trace_digest == ""
            assert len(s.outcomes(cid)) == 4
            shard = s.completed_shards(cid)[0]
            assert shard.analysis_s == 0.0
            s.set_trace_digest(cid, "tdeadbeef")
            assert s.campaign(cid).trace_digest == "tdeadbeef"

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with CampaignStore(path) as s:
            cid = s.ensure_campaign("matmul", {}, PLAN, 32)
            run = s.begin_run(cid)
            s.record_shard(cid, 0, "C", 0, run, 0.1, _results())
        with CampaignStore(path) as s:
            assert s.has_campaign(cid)
            assert len(s.outcomes(cid)) == 4
            assert s.completed_shards(cid)[0].spec_count == 4


class TestShardsAndOutcomes:
    def test_round_trip_is_lossless(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        results = _results(6)
        store.record_shard(cid, 3, "C", 1, run, 0.25, results)
        stored = store.outcomes(cid)
        assert [o.to_result() for o in stored] == results
        assert all(o.object_name == "C" and o.shard_index == 3 for o in stored)
        shard = store.completed_shards(cid)[3]
        assert (shard.object_name, shard.batch, shard.run_id) == ("C", 1, run)

    def test_histograms_and_tallies(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.record_shard(cid, 0, "C", 0, run, 0.1, _results(8))
        hist = store.outcome_histograms(cid)["C"]
        assert hist == {"identical": 2, "acceptable": 2, "unacceptable": 2, "crash": 2}
        successes, trials = store.object_tallies(cid)["C"]
        assert (successes, trials) == (4, 8)

    def test_run_accounting(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        r1 = store.begin_run(cid)
        r2 = store.begin_run(cid)
        assert (r1, r2) == (1, 2)
        store.finish_run(cid, r1, executed=3, skipped=0)
        store.finish_run(cid, r2, executed=1, skipped=3)
        assert store.run_accounting(cid) == [(1, 3, 0), (2, 1, 3)]

    def test_duplicate_shard_rejected(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.record_shard(cid, 0, "C", 0, run, 0.1, _results())
        with pytest.raises(sqlite3.IntegrityError):
            store.record_shard(cid, 0, "C", 0, run, 0.1, _results())

    def test_transaction_commits_a_unit_together(self, tmp_path):
        # a pipeline unit's shards and spans commit in one transaction: a
        # reader sees none of them until it ends, and a failure inside it
        # (here a duplicate shard) rolls every write of the block back
        path = str(tmp_path / "store.sqlite")
        span = {"name": "campaign.shard", "start_ts": 1.0, "duration_s": 0.1,
                "labels": {"shard": 1}}
        with CampaignStore(path) as store, CampaignStore(path) as reader:
            cid = store.ensure_campaign("matmul", {}, PLAN, 32)
            run = store.begin_run(cid)
            with store.transaction():
                store.record_shard(cid, 0, "C", 0, run, 0.1, _results())
                store.record_shard(cid, 1, "C", 1, run, 0.1, _results())
                store.save_run_spans(cid, run, [span])
                assert reader.completed_shards(cid) == {}
            assert sorted(reader.completed_shards(cid)) == [0, 1]
            assert len(reader.run_spans(cid)) == 1
            with pytest.raises(sqlite3.IntegrityError):
                with store.transaction():
                    store.record_shard(cid, 2, "C", 2, run, 0.1, _results())
                    store.save_run_spans(cid, run, [span])
                    store.record_shard(cid, 0, "C", 0, run, 0.1, _results())
            assert sorted(store.completed_shards(cid)) == [0, 1]
            assert len(store.run_spans(cid)) == 1
            assert len(store.outcomes(cid)) == 8

    def test_missing_campaign_raises(self, store):
        with pytest.raises(KeyError):
            store.campaign("nope")


class TestReports:
    def _report(self):
        return ObjectReport(
            result=AdvfResult(
                object_name="C",
                value=0.75,
                participations=40,
                masked_events=30.0,
                by_level={MaskingLevel.OPERATION: 20.0, MaskingLevel.ALGORITHM: 10.0},
                by_category={MaskingCategory.OVERSHADOW: 20.0},
            ),
            injections=12,
            injection_outcomes={OutcomeClass.IDENTICAL: 7, OutcomeClass.CRASH: 5},
            propagation_checks=9,
            unresolved=1,
            analyses_performed=30,
            analyses_reused=10,
        )

    def test_report_round_trip(self, store):
        report = self._report()
        assert ObjectReport.from_dict(report.to_dict()) == report
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        store.save_report(cid, "C", report)
        assert store.reports(cid) == {"C": report}

    def test_report_dict_is_json_safe(self):
        payload = self._report().to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestExport:
    def test_export_jsonl(self, store, tmp_path):
        cid = store.ensure_campaign("matmul", {"n": 4}, PLAN, 32)
        run = store.begin_run(cid)
        store.record_shard(cid, 0, "C", 0, run, 0.1, _results(3))
        store.save_report(cid, "C", TestReports()._report())
        path = tmp_path / "dump.jsonl"
        with open(path, "w") as fh:
            lines = store.export_jsonl(cid, fh)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == lines == 1 + 1 + 3 + 1
        assert rows[0]["type"] == "campaign"
        assert rows[0]["campaign_id"] == cid
        assert rows[0]["schema_version"] == SCHEMA_VERSION
        types = [row["type"] for row in rows]
        assert types.count("outcome") == 3 and types.count("report") == 1
        outcome = next(row for row in rows if row["type"] == "outcome")
        assert FaultInjectionResult.from_row(outcome).spec.dynamic_id == 10


class TestRunMetrics:
    def _snapshot(self, ops=100, hits=3):
        return {
            "counters": [
                {"name": "engine.ops", "labels": {"backend": "block"}, "value": ops},
                {"name": "replay.memo_hits", "labels": {}, "value": hits},
            ],
            "gauges": [],
            "histograms": [],
        }

    def test_round_trip_and_replace(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.save_run_metrics(cid, run, self._snapshot(ops=100))
        assert store.run_metrics(cid) == {run: self._snapshot(ops=100)}
        # latest write wins — a re-recorded run never double-counts
        store.save_run_metrics(cid, run, self._snapshot(ops=250))
        assert store.run_metrics(cid) == {run: self._snapshot(ops=250)}

    def test_campaign_metrics_merges_runs(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        r1, r2 = store.begin_run(cid), store.begin_run(cid)
        store.save_run_metrics(cid, r1, self._snapshot(ops=100, hits=1))
        store.save_run_metrics(cid, r2, self._snapshot(ops=50, hits=2))
        merged = store.campaign_metrics(cid)
        by_name = {e["name"]: e["value"] for e in merged["counters"]}
        assert by_name == {"engine.ops": 150, "replay.memo_hits": 3}

    def test_campaign_metrics_empty_without_runs(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        assert store.campaign_metrics(cid) == {
            "counters": [], "gauges": [], "histograms": [],
        }

    def test_campaign_stamps_repro_version(self, store):
        from repro.version import __version__

        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        assert store.campaign(cid).repro_version == __version__

    def test_export_includes_run_metrics_lines(self, store, tmp_path):
        from repro.version import __version__

        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.record_shard(cid, 0, "C", 0, run, 0.1, _results(3))
        store.save_run_metrics(cid, run, self._snapshot())
        path = tmp_path / "dump.jsonl"
        with open(path, "w") as fh:
            store.export_jsonl(cid, fh)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["repro_version"] == __version__
        metrics_rows = [row for row in rows if row["type"] == "run_metrics"]
        assert len(metrics_rows) == 1
        assert metrics_rows[0]["run_id"] == run
        assert metrics_rows[0]["metrics"] == self._snapshot()

    def test_v6_store_migrates_in_place(self, tmp_path):
        """v7 adds the ``run_spans`` table: v6 files upgrade losslessly."""
        path = tmp_path / "v6.sqlite"
        with CampaignStore(path) as s:
            cid = s.ensure_campaign("matmul", {}, PLAN, 32)
            run = s.begin_run(cid)
            s.record_shard(cid, 0, "C", 0, run, 0.1, _results())
        # rewind the file to schema v6 by dropping everything v7 added
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE run_spans")
        conn.execute("UPDATE meta SET value = '6' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with CampaignStore(path) as s:
            assert s.schema_version == SCHEMA_VERSION
            assert len(s.outcomes(cid)) == 4  # populated rows survive
            assert s.run_spans(cid) == []  # pre-v7 campaigns: no flight data
            s.save_run_spans(cid, run, [_span("campaign.run")])
            assert [r.name for r in s.run_spans(cid)] == ["campaign.run"]

    def test_v4_store_migrates_in_place(self, tmp_path):
        """v5 adds a defaulted column + a new table: v4 upgrades losslessly."""
        path = tmp_path / "v4.sqlite"
        with CampaignStore(path) as s:
            cid = s.ensure_campaign("matmul", {}, PLAN, 32)
            run = s.begin_run(cid)
            s.record_shard(cid, 0, "C", 0, run, 0.1, _results())
        # rewind the file to schema v4 by dropping everything v5 added
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE campaigns DROP COLUMN repro_version")
        conn.execute("DROP TABLE run_metrics")
        conn.execute("UPDATE meta SET value = '4' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with CampaignStore(path) as s:
            assert s.schema_version == SCHEMA_VERSION
            record = s.campaign(cid)
            assert record.repro_version == ""  # pre-v5 campaigns: no stamp
            assert len(s.outcomes(cid)) == 4  # populated rows survive
            assert s.run_metrics(cid) == {}
            s.save_run_metrics(cid, run, {"counters": [], "gauges": [],
                                          "histograms": []})
            assert list(s.run_metrics(cid)) == [run]


def _span(name, shard=None, start=100.0, duration=0.5, depth=0,
          parent=None, **labels):
    """A finished-span record in the exact shape the flight recorder drains."""
    labels = {key: str(value) for key, value in labels.items()}
    if shard is not None:
        labels["shard"] = str(shard)
    return {
        "name": name,
        "parent": parent,
        "depth": depth,
        "pid": 4242,
        "start_ts": start,
        "duration_s": duration,
        "labels": labels,
    }


class TestRunSpans:
    def test_round_trip_preserves_every_field(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        saved = store.save_run_spans(cid, run, [
            _span("campaign.trace", start=1.0, duration=0.25,
                  campaign=cid, run=run),
            _span("campaign.shard", shard=0, start=2.0, duration=1.5,
                  depth=1, parent="campaign.run", object="C"),
        ])
        assert saved == 2
        trace, shard = store.run_spans(cid)
        assert (trace.name, shard.name) == ("campaign.trace", "campaign.shard")
        assert trace.run_id == run and shard.run_id == run
        assert trace.shard_index == -1  # no shard label: an orphan span
        assert shard.shard_index == 0
        assert shard.parent == "campaign.run" and shard.depth == 1
        assert shard.pid == 4242
        assert shard.labels["object"] == "C"
        assert shard.start_ts == 2.0 and shard.duration_s == 1.5
        assert shard.end_ts == 3.5

    def test_seq_continues_across_flushes(self, store):
        """Per-shard flushes append without a client-side counter."""
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.save_run_spans(cid, run, [_span("a")])
        store.save_run_spans(cid, run, [_span("b"), _span("c")])
        records = store.run_spans(cid, run_id=run)
        assert [r.name for r in records] == ["a", "b", "c"]
        assert [r.seq for r in records] == [0, 1, 2]
        assert store.save_run_spans(cid, run, []) == 0

    def test_runs_filter_and_isolation(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        r1, r2 = store.begin_run(cid), store.begin_run(cid)
        store.save_run_spans(cid, r1, [_span("first")])
        store.save_run_spans(cid, r2, [_span("second")])
        assert [r.name for r in store.run_spans(cid)] == ["first", "second"]
        assert [r.name for r in store.run_spans(cid, run_id=r2)] == ["second"]

    def test_malformed_shard_label_degrades_to_orphan(self, store):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.save_run_spans(cid, run, [_span("odd", shard="oops")])
        (record,) = store.run_spans(cid)
        assert record.shard_index == -1
        assert record.labels["shard"] == "oops"  # the label itself survives

    def test_unknown_campaign_reads_empty(self, store):
        # same idiom as run_metrics(): per-run accessors don't guard ids
        assert store.run_spans("nope") == []

    def test_export_includes_run_span_lines(self, store, tmp_path):
        cid = store.ensure_campaign("matmul", {}, PLAN, 32)
        run = store.begin_run(cid)
        store.record_shard(cid, 0, "C", 0, run, 0.1, _results(3))
        store.save_run_spans(cid, run, [_span("campaign.shard", shard=0)])
        path = tmp_path / "dump.jsonl"
        with open(path, "w") as fh:
            store.export_jsonl(cid, fh)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        span_rows = [row for row in rows if row["type"] == "run_span"]
        assert len(span_rows) == 1
        assert span_rows[0]["span"] == "campaign.shard"
        assert span_rows[0]["shard_index"] == 0
        assert span_rows[0]["run_id"] == run
