"""Bench-regression watchdog: comparison algebra, history, check driver."""

from __future__ import annotations

import json

import pytest

from repro.obs import bench as obs_bench
from repro.obs.bench import (
    BENCHES,
    BenchSpec,
    MetricSpec,
    append_history,
    check_benches,
    compare_runs,
    format_reports,
    history_entry,
    resolve_metrics,
)

SPEEDUPS = (
    MetricSpec("workloads.*.speedup", "higher"),
    MetricSpec("geomean_speedup", "higher"),
)


def _payload(a=10.0, b=4.0, geo=6.3):
    return {
        "workloads": {
            "matmul": {"speedup": a, "steps": 1000},
            "cg": {"speedup": b},
        },
        "geomean_speedup": geo,
        "note": "not a number",
    }


class TestResolveMetrics:
    def test_wildcards_fan_out_sorted_and_numeric_only(self):
        resolved = resolve_metrics(_payload(), SPEEDUPS)
        # wildcard fan-out is sorted within each spec, specs keep their order
        assert list(resolved) == [
            "workloads.cg.speedup", "workloads.matmul.speedup",
            "geomean_speedup",
        ]
        assert resolved["workloads.matmul.speedup"] == (10.0, "higher")

    def test_missing_paths_resolve_to_nothing(self):
        resolved = resolve_metrics({"other": 1}, SPEEDUPS)
        assert resolved == {}

    def test_booleans_are_not_metrics(self):
        resolved = resolve_metrics(
            {"flag": True}, (MetricSpec("flag", "higher"),)
        )
        assert resolved == {}


class TestCompareRuns:
    def test_identical_runs_pass(self):
        report = compare_runs("x", _payload(), _payload(), SPEEDUPS)
        assert not report.regressed
        assert report.geomean_ratio == pytest.approx(1.0)
        assert all(f.ratio == pytest.approx(1.0) for f in report.findings)

    def test_higher_is_better_regression_trips(self):
        fresh = _payload(a=7.0)  # 30% slower than baseline 10.0
        report = compare_runs("x", _payload(), fresh, SPEEDUPS, tolerance=0.2)
        bad = {f.metric for f in report.findings if f.regressed}
        assert bad == {"workloads.matmul.speedup"}
        assert report.regressed

    def test_tolerance_absorbs_small_slips(self):
        fresh = _payload(a=9.0)  # 10% down, inside 20% tolerance
        report = compare_runs("x", _payload(), fresh, SPEEDUPS, tolerance=0.2)
        assert not report.regressed

    def test_lower_is_better_normalizes_inverted(self):
        metrics = (MetricSpec("geomean_overhead", "lower"),)
        base, fresh = {"geomean_overhead": 1.0}, {"geomean_overhead": 1.5}
        report = compare_runs("obs", base, fresh, metrics, tolerance=0.2)
        (finding,) = report.findings
        assert finding.ratio == pytest.approx(1.0 / 1.5)
        assert finding.regressed and report.regressed
        # an improvement (lower overhead) scores > 1
        better = compare_runs(
            "obs", base, {"geomean_overhead": 0.8}, metrics
        )
        assert better.findings[0].ratio == pytest.approx(1.25)
        assert not better.regressed

    def test_geomean_catches_coordinated_slips(self):
        # every metric slips 15% — individually inside a 17% tolerance,
        # but so is the geomean, which sits at the same 0.85
        fresh = _payload(a=8.5, b=3.4, geo=5.355)
        report = compare_runs("x", _payload(), fresh, SPEEDUPS, tolerance=0.1)
        assert report.geomean_ratio == pytest.approx(0.85, rel=1e-3)
        assert report.geomean_regressed

    def test_metric_tolerance_overrides_the_check_tolerance(self):
        metrics = (
            MetricSpec("workloads.*.speedup", "higher", tolerance=0.05),
            MetricSpec("geomean_speedup", "higher"),
        )
        # cg slips 10%: inside the check's 20%, outside its own 5%
        fresh = _payload(b=3.6)
        report = compare_runs("x", _payload(), fresh, metrics, tolerance=0.2)
        by_metric = {f.metric: f for f in report.findings}
        assert by_metric["workloads.cg.speedup"].regressed
        assert by_metric["workloads.cg.speedup"].tolerance == 0.05
        assert by_metric["geomean_speedup"].tolerance == 0.2
        # a metric's own tolerance can be looser than the check's, too
        loose = (MetricSpec("geomean_speedup", "higher", tolerance=0.5),)
        slipped = compare_runs("x", _payload(), _payload(geo=4.0), loose, 0.3)
        assert not slipped.findings[0].regressed

    def test_campaign_scaling_gate_is_tight_under_a_loose_check(self):
        # CI checks at 0.5; the scaling gate must still reject split shards
        # (~0.85x against the committed ~1.65x) and accept a 1.3x run
        metrics = BENCHES["campaign"].metrics
        base = {"scaling": {"speedup": 1.65}}
        split = compare_runs(
            "campaign", base, {"scaling": {"speedup": 0.85}}, metrics, 0.5
        )
        assert split.findings[0].regressed and split.regressed
        fine = compare_runs(
            "campaign", base, {"scaling": {"speedup": 1.3}}, metrics, 0.5
        )
        assert not fine.regressed

    def test_comparison_uses_intersection(self):
        fresh = _payload()
        del fresh["workloads"]["cg"]
        report = compare_runs("x", _payload(), fresh, SPEEDUPS)
        assert {f.metric for f in report.findings} == {
            "geomean_speedup", "workloads.matmul.speedup",
        }

    def test_nonpositive_values_skipped(self):
        report = compare_runs(
            "x", {"v": 0.0}, {"v": 5.0}, (MetricSpec("v", "higher"),)
        )
        assert report.findings == []
        assert not report.regressed


class TestHistory:
    def test_append_preserves_payload_and_grows_history(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"geomean_speedup": 6.3}))
        report = compare_runs("x", _payload(), _payload(), SPEEDUPS)
        append_history(path, history_entry(report, _payload()))
        saved = json.loads(path.read_text())
        assert saved["geomean_speedup"] == 6.3  # measurements untouched
        (entry,) = saved["history"]
        assert entry["regressed"] is False
        assert entry["metrics"]["workloads.matmul.speedup"] == 10.0
        assert entry["recorded_at"] > 0
        assert "repro_version" in entry
        # a second check keeps appending
        append_history(path, history_entry(report, _payload()))
        assert len(json.loads(path.read_text())["history"]) == 2

    def test_update_replaces_measurements_but_keeps_history(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"geomean_speedup": 6.3, "history": [
            {"recorded_at": 1.0},
        ]}))
        fresh = _payload(geo=7.0)
        report = compare_runs("x", _payload(), fresh, SPEEDUPS)
        append_history(path, history_entry(report, fresh), fresh=fresh)
        saved = json.loads(path.read_text())
        assert saved["geomean_speedup"] == 7.0
        assert len(saved["history"]) == 2
        assert saved["history"][0] == {"recorded_at": 1.0}
        assert "provenance" in saved


class TestCheckBenches:
    @pytest.fixture()
    def fake_bench(self, tmp_path, monkeypatch):
        """One stub benchmark with a committed baseline and a fake runner."""
        baseline = _payload()
        (tmp_path / "BENCH_fake.json").write_text(json.dumps(baseline))
        spec = BenchSpec(
            name="fake", baseline="BENCH_fake.json",
            script="bench_fake.py", metrics=SPEEDUPS,
        )
        monkeypatch.setitem(BENCHES, "fake", spec)
        fresh = {"value": _payload()}
        monkeypatch.setattr(
            obs_bench, "run_bench", lambda spec, bench_dir: fresh["value"]
        )
        return tmp_path, fresh

    def test_check_passes_and_records_history(self, fake_bench):
        tmp_path, _ = fake_bench
        (report,) = check_benches(
            ["fake"], baseline_dir=tmp_path, bench_dir=tmp_path
        )
        assert not report.regressed
        saved = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert len(saved["history"]) == 1

    def test_check_flags_regression(self, fake_bench):
        tmp_path, fresh = fake_bench
        fresh["value"] = _payload(a=2.0, geo=2.8)
        (report,) = check_benches(
            ["fake"], baseline_dir=tmp_path, bench_dir=tmp_path,
            tolerance=0.2,
        )
        assert report.regressed
        table = format_reports([report])
        assert "REGRESSED" in table and "(geomean)" in table

    def test_record_false_leaves_baseline_untouched(self, fake_bench):
        tmp_path, _ = fake_bench
        before = (tmp_path / "BENCH_fake.json").read_text()
        check_benches(
            ["fake"], baseline_dir=tmp_path, bench_dir=tmp_path, record=False
        )
        assert (tmp_path / "BENCH_fake.json").read_text() == before

    def test_unknown_bench_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            check_benches(["nope"])

    def test_watched_benches_cover_committed_baselines(self):
        names = {spec.baseline for spec in BENCHES.values()}
        assert names == {
            "BENCH_mir.json", "BENCH_obs.json", "BENCH_campaign.json",
            "BENCH_advf_inject.json", "BENCH_replay_batch.json",
        }


class TestBenchCheckCli:
    def _stub_reports(self, monkeypatch, regressed):
        report = compare_runs(
            "fake", _payload(), _payload(a=2.0 if regressed else 10.0),
            SPEEDUPS, tolerance=0.2,
        )
        captured = {}

        def fake_check(names, tolerance, update, record):
            captured.update(
                names=names, tolerance=tolerance, update=update, record=record
            )
            return [report]

        monkeypatch.setattr(obs_bench, "check_benches", fake_check)
        return captured

    def test_cli_exit_zero_and_table_on_pass(self, monkeypatch, capsys):
        from repro.campaigns.cli import main

        captured = self._stub_reports(monkeypatch, regressed=False)
        assert main(["bench", "check", "--no-record", "--bench", "fake"]) == 0
        cap = capsys.readouterr()
        assert "(geomean)" in cap.out
        assert "bench check ok" in cap.err
        assert captured["names"] == ["fake"]
        assert captured["record"] is False

    def test_cli_exit_nonzero_on_regression(self, monkeypatch, capsys):
        from repro.campaigns.cli import main

        self._stub_reports(monkeypatch, regressed=True)
        assert main(["bench", "check", "--tolerance", "0.2"]) == 1
        assert "bench regression past tolerance 20%" in capsys.readouterr().err
