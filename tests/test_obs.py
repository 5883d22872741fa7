"""Telemetry subsystem: registry merge algebra, spans, logging, promfiles."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.obs import log as obs_log
from repro.obs.log import LEVELS, emit_event, get_logger, provenance
from repro.obs.metrics import (
    TIME_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    configure,
    diff_snapshots,
    merge_snapshots,
    metrics_enabled,
    registry,
)
from repro.obs.prom import render_promfile
from repro.obs import spans as obs_spans
from repro.obs.spans import (
    clear_span_context,
    current_span,
    disable_recording,
    drain_span_records,
    enable_recording,
    get_span_context,
    recording_enabled,
    set_span_context,
    span,
    span_context,
)
from repro.reporting import format_metrics_table

from mir_helpers import compile_all


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test starts with an enabled, empty process registry."""
    configure(True)
    yield
    configure(None)
    obs_log.reset()
    disable_recording()
    clear_span_context()


def _worker_snapshot(seed: int):
    """A plausible worker delta: counters, a gauge, a histogram."""
    reg = MetricsRegistry()
    reg.inc("engine.ops", 100 * seed, backend="block")
    reg.inc("replay.memo_hits", seed, workload="matmul")
    reg.gauge("campaign.peak_rss", 10.0 * seed)
    for i in range(seed):
        reg.observe("span_seconds", 0.001 * (i + 1), span="replay.batch")
    return reg.to_dict()


class TestRegistry:
    def test_counters_add_and_label_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("engine.ops", 5, backend="block")
        reg.inc("engine.ops", 7, backend="block")
        reg.inc("engine.ops", 11, backend="op")
        assert reg.counter_value("engine.ops", backend="block") == 12
        assert reg.counter_value("engine.ops", backend="op") == 11
        assert reg.counter_total("engine.ops") == 23

    def test_histogram_buckets_fixed_and_deterministic(self):
        reg = MetricsRegistry()
        reg.observe("span_seconds", 0.0003, span="x")
        reg.observe("span_seconds", 1e9, span="x")  # lands in +Inf
        hist = reg.histogram("span_seconds", span="x")
        assert hist.bounds == TIME_BUCKETS
        assert len(hist.bucket_counts) == len(TIME_BUCKETS) + 1
        assert hist.bucket_counts[-1] == 1
        assert hist.count == 2

    def test_to_dict_is_deterministic_across_recording_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 1, k="1")
        a.inc("y", 2)
        b.inc("y", 2)
        b.inc("x", 1, k="1")
        assert a.to_dict() == b.to_dict()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_merge_fold_is_order_independent(self):
        """Counters add, gauges max, buckets add — any fold order agrees.

        Histogram sums are carried as exact compensated partials, so the
        agreement is *bit-identical* — including the float ``sum`` — not
        merely to rounding.
        """
        snaps = [_worker_snapshot(seed) for seed in (1, 2, 3)]
        merged = []
        for order in itertools.permutations(range(3)):
            acc = MetricsRegistry()
            for i in order:
                acc.merge(snaps[i])
            merged.append(json.loads(json.dumps(acc.to_dict())))
        first = merged[0]
        for other in merged[1:]:
            assert other == first
        assert json.loads(json.dumps(merge_snapshots(*snaps))) == first
        # and the semantics themselves:
        acc = MetricsRegistry()
        for snap in snaps:
            acc.merge(snap)
        assert acc.counter_value("engine.ops", backend="block") == 600
        assert acc.gauge_value("campaign.peak_rss") == 30.0
        assert acc.histogram("span_seconds", span="replay.batch").count == 6

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = MetricsRegistry()
        a.observe("t", 0.5)
        b = MetricsRegistry()
        b.observe("t", 0.5, buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b.to_dict())

    def test_snapshot_delta_streams_reconstruct_cumulative_state(self):
        reg = MetricsRegistry()
        reg.inc("a", 1)
        first = reg.snapshot_delta("w")
        reg.inc("a", 2)
        reg.inc("b", 5)
        reg.observe("t", 0.1)
        second = reg.snapshot_delta("w")
        # first call: full state; second: only the new activity
        assert first["counters"] == [{"name": "a", "labels": {}, "value": 1}]
        assert {e["name"]: e["value"] for e in second["counters"]} == {
            "a": 2, "b": 5,
        }
        rebuilt = merge_snapshots(first, second)
        assert rebuilt == reg.to_dict()
        # an idle cursor produces an empty delta
        empty = reg.snapshot_delta("w")
        assert empty["counters"] == [] and empty["histograms"] == []

    def test_diff_snapshots_drops_unchanged_series(self):
        reg = MetricsRegistry()
        reg.inc("stable", 3)
        reg.inc("moving", 1)
        before = reg.to_dict()
        reg.inc("moving", 4)
        delta = diff_snapshots(before, reg.to_dict())
        assert delta["counters"] == [
            {"name": "moving", "labels": {}, "value": 4}
        ]


class TestNoOpMode:
    def test_configure_false_installs_null_registry(self):
        reg = configure(False)
        assert isinstance(reg, NullRegistry)
        assert not metrics_enabled()
        reg.inc("engine.ops", 100)
        reg.observe("t", 0.1)
        reg.merge(_worker_snapshot(2))
        snap = reg.to_dict()
        assert snap["counters"] == [] and snap["histograms"] == []

    def test_env_disables_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert isinstance(configure(None), NullRegistry)
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert not isinstance(configure(None), NullRegistry)

    def test_span_still_nests_when_disabled(self):
        configure(False)
        with span("outer"):
            with span("inner") as inner:
                assert inner.parent == "outer"
        assert registry().to_dict()["histograms"] == []


class TestSpans:
    def test_nesting_parent_depth_and_duration(self):
        with span("campaign.run", campaign="c01") as outer:
            assert current_span() is outer
            assert outer.depth == 0 and outer.parent is None
            with span("campaign.shard", shard=3) as inner:
                assert inner.parent == "campaign.run"
                assert inner.depth == 1
        assert current_span() is None
        assert outer.duration_s is not None and outer.duration_s >= 0
        payload = inner.to_dict()
        assert payload["type"] == "span"
        assert payload["span"] == "campaign.shard"
        assert payload["shard"] == "3"  # labels are stringified

    def test_span_observes_labelled_histogram(self):
        with span("replay.batch", shard=1):
            pass
        hist = registry().histogram("span_seconds", span="replay.batch", shard=1)
        assert hist is not None and hist.count == 1

    def test_span_exports_even_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with span("doomed") as entry:
                raise RuntimeError("boom")
        assert entry.duration_s is not None
        assert registry().histogram("span_seconds", span="doomed").count == 1


class TestFlightRecorderBuffer:
    def test_recording_buffers_context_stamped_records(self):
        assert not recording_enabled()
        enable_recording()
        set_span_context(campaign="c01", run=1)
        with span("campaign.shard", shard=3, object="matmul"):
            with span("worker.inject", specs=8):
                pass
        records = drain_span_records()
        assert [r["name"] for r in records] == [
            "worker.inject", "campaign.shard",  # exit order: inner first
        ]
        inner, outer = records
        assert inner["parent"] == "campaign.shard" and inner["depth"] == 1
        assert outer["parent"] is None and outer["depth"] == 0
        for record in records:
            assert record["labels"]["campaign"] == "c01"
            assert record["labels"]["run"] == "1"  # stringified
            assert record["pid"] > 0
            assert record["duration_s"] >= 0
            assert record["start_ts"] > 0
        assert inner["labels"]["specs"] == "8"
        # the drain cleared the buffer; recording itself stays on
        assert drain_span_records() == []
        assert recording_enabled()

    def test_disabled_recording_buffers_nothing(self):
        with span("ignored"):
            pass
        assert drain_span_records() == []

    def test_buffer_drops_oldest_past_cap(self, monkeypatch):
        monkeypatch.setattr(obs_spans, "_RECORD_CAP", 3)
        enable_recording()
        for i in range(5):
            with span("s", i=i):
                pass
        records = drain_span_records()
        assert len(records) == 3
        assert [r["labels"]["i"] for r in records] == ["2", "3", "4"]

    def test_span_context_scoping_restores_prior(self):
        set_span_context(campaign="c01")
        with span_context(campaign="c02", shard=5):
            assert get_span_context() == {"campaign": "c02", "shard": "5"}
        assert get_span_context() == {"campaign": "c01"}
        set_span_context(campaign=None)
        assert get_span_context() == {}


class TestStructuredLog:
    def test_level_gates_stderr(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "warning")
        obs_log.reset()
        logger = get_logger("campaign")
        logger.info("progress", "quiet line")
        logger.warning("trouble", "loud line")
        err = capsys.readouterr().err
        assert "quiet line" not in err
        assert "loud line" in err

    def test_quiet_silences_everything(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "quiet")
        obs_log.reset()
        get_logger("campaign").error("fatal", "even errors")
        assert capsys.readouterr().err == ""

    def test_bad_level_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "chatty")
        obs_log.reset()
        with pytest.raises(ValueError, match="REPRO_LOG_LEVEL"):
            get_logger("campaign").info("x", "y")

    def test_jsonl_export_has_provenance_header(self, monkeypatch, tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(path))
        obs_log.reset()
        get_logger("campaign").info(
            "shard.done", "shard 3 done", shard=3, campaign_id="c01"
        )
        with span("campaign.trace", campaign="c01"):
            pass
        emit_event({"type": "custom", "k": "v"})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["repro_version"] == provenance()["repro_version"]
        assert lines[0]["store_schema_version"] == (
            provenance()["store_schema_version"]
        )
        by_type = {line["type"] for line in lines}
        assert {"meta", "log", "span", "custom"} <= by_type
        log_line = next(l for l in lines if l["type"] == "log")
        assert log_line["component"] == "campaign"
        assert log_line["event"] == "shard.done"
        assert log_line["shard"] == 3
        span_line = next(l for l in lines if l["type"] == "span")
        assert span_line["span"] == "campaign.trace"
        assert span_line["duration_s"] >= 0
        assert all("ts" in line for line in lines)

    def test_levels_cover_aliases(self):
        assert LEVELS["warn"] == LEVELS["warning"]
        assert LEVELS["quiet"] == LEVELS["off"]

    def test_jsonl_rotation_caps_growth(self, monkeypatch, tmp_path):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(path))
        monkeypatch.setenv("REPRO_LOG_MAX_BYTES", "600")
        obs_log.reset()
        for i in range(40):
            emit_event({"type": "custom", "i": i, "pad": "x" * 40})
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        # one-deep rotation bounds total disk to ~2x the cap
        assert path.stat().st_size <= 600
        assert rotated.stat().st_size <= 600
        # both files restart with a fresh meta (provenance) header
        for f in (path, rotated):
            first = json.loads(f.read_text().splitlines()[0])
            assert first["type"] == "meta"
            assert first["repro_version"] == provenance()["repro_version"]
        # old events age out (bounded growth) but the surviving window is
        # contiguous and ends at the newest event
        seen = [
            json.loads(l)["i"]
            for f in (rotated, path)
            for l in f.read_text().splitlines()
            if json.loads(l)["type"] == "custom"
        ]
        assert seen == list(range(seen[0], 40))

    def test_rotation_never_touches_stderr_destination(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "stderr")
        monkeypatch.setenv("REPRO_LOG_MAX_BYTES", "10")
        obs_log.reset()
        for i in range(5):
            emit_event({"type": "custom", "i": i})
        err = capsys.readouterr().err
        assert err.count('"type": "custom"') == 5

    def test_event_sinks_fan_out_and_survive_broken_subscribers(self):
        received = []

        def broken(event):
            raise RuntimeError("subscriber bug")

        obs_log.add_event_sink(broken)
        obs_log.add_event_sink(received.append)
        try:
            emit_event({"type": "custom", "k": "v"})
        finally:
            obs_log.remove_event_sink(broken)
            obs_log.remove_event_sink(received.append)
        assert len(received) == 1
        assert received[0]["k"] == "v" and "ts" in received[0]
        emit_event({"type": "custom", "k": "after"})
        assert len(received) == 1  # removed sinks stop receiving


class TestPromfile:
    def test_render_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("engine.ops", 42, backend="block")
        reg.gauge("campaign.workers", 4)
        reg.observe("span_seconds", 0.0002, buckets=(0.001, 1.0), span="s")
        reg.observe("span_seconds", 5.0, buckets=(0.001, 1.0), span="s")
        text = render_promfile(reg.to_dict())
        assert "# TYPE repro_engine_ops counter" in text
        assert 'repro_engine_ops{backend="block"} 42' in text
        assert "# TYPE repro_campaign_workers gauge" in text
        # cumulative le buckets + the +Inf/count/sum triplet
        assert 'repro_span_seconds_bucket{span="s",le="0.001"} 1' in text
        assert 'repro_span_seconds_bucket{span="s",le="1"} 1' in text
        assert 'repro_span_seconds_bucket{span="s",le="+Inf"} 2' in text
        assert 'repro_span_seconds_count{span="s"} 2' in text
        assert 'repro_span_seconds_sum{span="s"} 5.0002' in text

    def test_rendering_is_deterministic(self):
        snap = _worker_snapshot(3)
        assert render_promfile(snap) == render_promfile(snap)

    def test_empty_snapshot_renders_empty(self):
        assert render_promfile(MetricsRegistry().to_dict()) == ""


class TestMetricsTable:
    def test_renders_all_three_kinds(self):
        reg = MetricsRegistry()
        reg.inc("engine.ops", 10, backend="block")
        reg.gauge("campaign.workers", 2)
        reg.observe("span_seconds", 0.5, span="x")
        text = format_metrics_table(reg.to_dict())
        assert "engine.ops" in text and "backend=block" in text
        assert "counter" in text and "gauge" in text and "histogram" in text
        assert "0.5000" in text  # histogram mean column


class TestEngineCounters:
    def test_golden_run_counts_ops_and_segments(self, saxpy_setup):
        from repro.vm import Engine

        module, memory, a, b = saxpy_setup
        compile_all(module)
        engine = Engine(module, memory, backend="block")
        result = engine.run("saxpy", {"a": a, "b": b, "n": 6, "alpha": 2.0})
        reg = registry()
        assert reg.counter_value("engine.ops") == result.steps
        assert reg.counter_value("engine.segment_dispatches") > 0
        assert reg.counter_value("engine.segment_ops") <= result.steps

    def test_disabled_registry_records_nothing(self, saxpy_setup):
        from repro.vm import Engine

        configure(False)
        module, memory, a, b = saxpy_setup
        Engine(module, memory, backend="block").run(
            "saxpy", {"a": a, "b": b, "n": 6, "alpha": 2.0}
        )
        assert registry().to_dict()["counters"] == []
