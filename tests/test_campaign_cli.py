"""CLI smoke tests: `python -m repro campaign run|resume|status|export|report`."""

import json
import os
import subprocess
import sys

import pytest

from repro.campaigns.cli import main
from repro.campaigns.store import CampaignStore
from repro.tracing import ColumnarTrace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _run_module(*argv, check=True):
    """Run `python -m repro ...` in a subprocess (the real CLI entry point)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\nstdout:\n{proc.stdout}\n"
            f"stderr:\n{proc.stderr}"
        )
    return proc


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


class TestSubprocessSmoke:
    def test_campaign_run_matmul_fixed64(self, store_path):
        proc = _run_module(
            "campaign", "run", "matmul", "--plan", "fixed:64",
            "--store", store_path, "--workers", "1",
        )
        assert "complete" in proc.stdout
        assert "wilson CI" in proc.stdout
        assert os.path.exists(store_path)

        # rerunning the identical command dedupes into a no-op resume
        again = _run_module(
            "campaign", "run", "matmul", "--plan", "fixed:64",
            "--store", store_path, "--workers", "1",
        )
        assert "executed 0 shards" in again.stdout


class TestInProcessCommands:
    def _base(self, store_path):
        return ["--store", store_path, "--workers", "1"]

    def test_run_interrupt_resume_status_export_report(self, store_path, tmp_path, capsys):
        assert main(
            ["campaign", "run", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", "--max-shards", "1", *self._base(store_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out

        assert main(
            ["campaign", "resume", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", *self._base(store_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "skipped 1" in out

        assert main(["campaign", "status", "--store", store_path]) == 0
        listing = capsys.readouterr().out
        assert "matmul" in listing and "complete" in listing

        assert main(
            ["campaign", "status", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", "--store", store_path]
        ) == 0
        detail = capsys.readouterr().out
        assert "run 1: executed 1 shards, skipped 0" in detail
        assert "run 2: executed 1 shards, skipped 1" in detail

        out_path = str(tmp_path / "dump.jsonl")
        assert main(
            ["campaign", "export", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", "--store", store_path, "--out", out_path]
        ) == 0
        with open(out_path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0]["type"] == "campaign"
        assert sum(row["type"] == "outcome" for row in rows) == 16

        assert main(
            ["campaign", "report", "matmul", "--plan", "fixed:16",
             "--shard-size", "8", "--max-injections", "10",
             "--bit-stride", "16", *self._base(store_path)]
        ) == 0
        report = capsys.readouterr().out
        assert "aDVF" in report

    def test_warm_report_loads_the_golden_trace_once(
        self, store_path, capsys, monkeypatch
    ):
        """With a warm trace cache, ``campaign report --refresh`` loads the
        artifact once, in the analysis job; the orchestrator does not
        touch it."""
        args = ["cg", "--plan", "fixed:16@5", *self._base(store_path)]
        assert main(["campaign", "run", *args]) == 0  # builds the artifact
        capsys.readouterr()
        assert main(["campaign", "report", *args]) == 0
        first = capsys.readouterr().out
        loads = []
        load = ColumnarTrace.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(ColumnarTrace, "load", classmethod(counting_load))
        assert main(["campaign", "report", *args, "--refresh"]) == 0
        assert len(loads) == 1
        # the recomputed aDVF rows equal the first ones
        assert "aDVF" in first
        assert capsys.readouterr().out == first

    def test_status_by_campaign_id(self, store_path, capsys):
        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        listing_id = capsys.readouterr().out.split()[1].rstrip(":")
        assert listing_id.startswith("c")
        assert main(["campaign", "status", listing_id, "--store", store_path]) == 0
        assert listing_id in capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "lulesh" in out

    def test_error_paths(self, store_path, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "resume", "matmul", "--store", store_path])
        with pytest.raises(SystemExit):
            main(["campaign", "status", "not-a-workload", "--plan", "fixed:8",
                  "--store", store_path])
        with pytest.raises(SystemExit):
            main(["campaign", "run", "matmul", "--plan", "bogus:1",
                  "--store", store_path])


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["campaign", "run", "cg", "--plan", "fixed:0", "--set", "n=6"],
         "tests must be positive"),
        (["campaign", "run", "cg", "--plan", "exhaustive:0", "--set", "n=6"],
         "bit_stride must be at least 1"),
        (["campaign", "run", "cg", "--plan", "stratified:0x4", "--set", "n=6"],
         "per_stratum and intervals must be positive"),
        (["protect", "validate", "cg", "--tests", "0"],
         "tests must be positive"),
    ],
)
def test_out_of_range_sampling_fails_before_the_store(argv, reason, store_path):
    """Out-of-range plan values exit with one line, no traceback, and
    leave no campaign row behind."""
    proc = _run_module(*argv, "--store", store_path, check=False)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().count("\n") == 0
    assert reason in proc.stderr
    if os.path.exists(store_path):
        with CampaignStore(store_path) as store:
            assert store.campaigns() == []


class TestStatsCommand:
    def _base(self, store_path):
        return ["--store", store_path, "--workers", "1"]

    def test_stats_renders_persisted_metrics(self, store_path, tmp_path, capsys):
        assert main(
            ["campaign", "run", "matmul", "--plan", "fixed:16",
             *self._base(store_path)]
        ) == 0
        capsys.readouterr()

        assert main(
            ["stats", "matmul", "--plan", "fixed:16", "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign :" in out and "matmul" in out
        assert "store schema v7" in out
        assert "runs     : 1 of 1 with metrics" in out
        # engine activity made it through the run cursor into the store
        assert "engine.ops" in out
        assert "trace cache" in out and "mir compile:" in out
        # the run traces once, so exactly one trace-cache miss is recorded
        assert "trace cache: 0 hits / 1 misses" in out

    def test_stats_metrics_survive_worker_processes(self, store_path, capsys):
        """Worker-side deltas fold into the parent and persist (2 workers)."""
        assert main(
            ["campaign", "run", "matmul", "--plan", "fixed:16",
             "--store", store_path, "--workers", "2", "--shard-size", "8"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["stats", "matmul", "--plan", "fixed:16", "--shard-size", "8",
             "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        # injections replay in workers; their engine ops must be folded in
        assert "replay.faults" in out
        assert "trace cache: 0 hits / 1 misses" in out

    def test_stats_reports_walk_counters(self, store_path, capsys):
        """The lockstep walks' op counts reach ``stats`` from two workers."""
        import re

        assert main(
            ["campaign", "run", "matmul", "--plan", "fixed:16",
             "--store", store_path, "--workers", "2", "--shard-size", "8"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["stats", "matmul", "--plan", "fixed:16", "--shard-size", "8",
             "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(r"walk\s+: (\d+) ops / (\d+) in fused segments", out)
        assert match, out
        walked, fused = int(match.group(1)), int(match.group(2))
        assert walked > 0 and 0 <= fused <= walked
        lanes = re.search(
            r"(\d+) carrying divergence; "
            r"stops arm (\d+) / evict (\d+) / lane_error (\d+)\)", out
        )
        assert lanes, out
        assert 0 <= int(lanes.group(1)) <= fused

    def test_stats_reports_propagation_counters(self, store_path, capsys):
        """The aDVF propagation chase's visits and window steps render from
        a run's persisted metrics."""
        from repro.campaigns.store import CampaignStore
        from repro.obs.metrics import MetricsRegistry

        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        capsys.readouterr()
        analysis = MetricsRegistry()
        analysis.inc("advf.propagation_visits", 40, workload="matmul")
        analysis.inc("advf.propagation_steps", 360, workload="matmul")
        with CampaignStore(store_path) as store:
            (record,) = store.campaigns()
            store.save_run_metrics(record.campaign_id, 2, analysis.to_dict())
        assert main(
            ["stats", "matmul", "--plan", "fixed:8", "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        assert ("propagation: 40 events visited / 360 window steps "
                "(visit share 0.11)") in out

    def test_stats_reports_mir_compiles(self, store_path, capsys):
        """Superinstruction compiles (count by variant and seconds) render
        from a run's persisted metrics, added to what the run recorded."""
        import re

        from repro.campaigns.store import CampaignStore
        from repro.obs.metrics import MetricsRegistry

        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        capsys.readouterr()
        extra = MetricsRegistry()
        extra.inc("mir.segment_compiles", 3, variant="plain")
        extra.inc("mir.segment_compiles", 2, variant="lanes")
        extra.inc("mir.segment_compile_s", 0.5, variant="plain")
        with CampaignStore(store_path) as store:
            (record,) = store.campaigns()
            store.save_run_metrics(record.campaign_id, 2, extra.to_dict())
        assert main(
            ["stats", "matmul", "--plan", "fixed:8", "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"mir compile: (\d+) segment variants in ([\d.]+) s "
            r"\(plain (\d+) / lanes (\d+)\)", out
        )
        assert match, out
        total, plain, lanes = (int(match.group(i)) for i in (1, 3, 4))
        assert total == plain + lanes
        assert plain >= 3 and lanes >= 2
        assert float(match.group(2)) >= 0.5

    def test_stats_reports_traced_compiles_of_older_runs(self, store_path, capsys):
        """Run metrics from a build that still compiled a ``traced`` variant
        print after the current variants, and count toward the total."""
        import re

        from repro.campaigns.store import CampaignStore
        from repro.obs.metrics import MetricsRegistry

        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        capsys.readouterr()
        older = MetricsRegistry()
        older.inc("mir.segment_compiles", 4, variant="plain")
        older.inc("mir.segment_compiles", 7, variant="traced")
        older.inc("mir.segment_compiles", 2, variant="lanes")
        older.inc("mir.segment_compile_s", 0.5, variant="traced")
        with CampaignStore(store_path) as store:
            (record,) = store.campaigns()
            store.save_run_metrics(record.campaign_id, 2, older.to_dict())
        assert main(
            ["stats", "matmul", "--plan", "fixed:8", "--store", store_path]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"mir compile: (\d+) segment variants in ([\d.]+) s "
            r"\(plain (\d+) / lanes (\d+) / traced (\d+)\)", out
        )
        assert match, out
        total, plain, lanes, traced = (int(match.group(i)) for i in (1, 3, 4, 5))
        assert traced == 7
        assert total == plain + lanes + traced
        assert plain >= 4 and lanes >= 2
        assert float(match.group(2)) >= 0.5

    def test_stats_promfile_export(self, store_path, tmp_path, capsys):
        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        capsys.readouterr()
        prom_path = str(tmp_path / "repro.prom")
        assert main(
            ["stats", "matmul", "--plan", "fixed:8", "--store", store_path,
             "--promfile", prom_path]
        ) == 0
        text = open(prom_path).read()
        assert "# TYPE repro_engine_ops counter" in text
        assert "\nrepro_engine_ops " in text

    def test_status_metrics_flag(self, store_path, capsys):
        main(["campaign", "run", "matmul", "--plan", "fixed:8",
              *self._base(store_path)])
        capsys.readouterr()
        assert main(
            ["campaign", "status", "matmul", "--plan", "fixed:8",
             "--store", store_path, "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine.ops" in out

    def test_stats_without_metrics_explains(self, store_path, capsys, monkeypatch):
        from repro.obs.metrics import configure

        monkeypatch.setenv("REPRO_METRICS", "0")
        configure(None)
        try:
            main(["campaign", "run", "matmul", "--plan", "fixed:8",
                  *self._base(store_path)])
            capsys.readouterr()
            assert main(
                ["stats", "matmul", "--plan", "fixed:8", "--store", store_path]
            ) == 0
            out = capsys.readouterr().out
            assert "no run metrics recorded" in out
        finally:
            monkeypatch.delenv("REPRO_METRICS")
            configure(None)
