"""One golden execution per campaign.

The orchestrator's golden run records the trace (on a trace-cache miss)
and captures the replay context in the same execution, or, on a hit,
builds the context untraced once, at the first submitted unit.  Workers
are forked after that and inherit it: no worker builds a job's state,
compiles the workload or runs its golden execution.  ``campaign report``
builds its aDVF engine once the same way.  The collector freezes only in
worker processes (and in ``python -m repro``), never in a caller of the
pipeline.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.campaigns.cli import main
from repro.campaigns.orchestrator import CampaignOrchestrator
from repro.campaigns.plans import FixedRandomPlan
from repro.campaigns.store import CampaignStore
from repro.core.patterns import SingleBitModel
from repro.core.reports import AnalysisConfig
from repro.obs.metrics import configure
from repro.obs.spans import clear_span_context, disable_recording

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="more than one worker needs the fork start method",
)

KWARGS = {"n": 10, "cgitmax": 2}
CG = ["cg", "--plan", "fixed:40@5", "--set", "n=10", "--set", "cgitmax=2",
      "--shard-size", "8"]
QUICK = AnalysisConfig(
    max_injections=20,
    error_model=SingleBitModel(bit_stride=16),
    equivalence_samples=1,
    injection_samples_per_class=1,
)


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    disable_recording()
    clear_span_context()
    configure(None)


def _run(store, *extra):
    assert main(["campaign", "run", *CG, "--store", str(store), *extra]) == 0


def _golden_runs(store):
    """Per run: ``(replay.contexts, replay.golden_steps observations)``."""
    with CampaignStore(str(store)) as opened:
        (record,) = opened.campaigns()
        metrics = opened.run_metrics(record.campaign_id)
    runs = {}
    for run, snapshot in sorted(metrics.items()):
        contexts = sum(entry["value"] for entry in snapshot["counters"]
                       if entry["name"] == "replay.contexts")
        steps = sum(entry["count"] for entry in snapshot["histograms"]
                    if entry["name"] == "replay.golden_steps")
        runs[run] = (contexts, steps)
    return runs


def _outcomes(store, tmp_path, capsys):
    out = tmp_path / "outcomes.jsonl"
    assert main(["campaign", "export", *CG, "--store", str(store),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return [line for line in out.read_text().splitlines()
            if '"type":"outcome"' in line]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_one_golden_run_per_campaign_run(tmp_path, monkeypatch, capsys,
                                         workers):
    """A run that builds the trace and a resume that hits the trace cache
    each execute the workload's golden run once, and the resumed store
    equals an uninterrupted run's."""
    monkeypatch.setenv("REPRO_METRICS", "1")
    store = tmp_path / "resumed.sqlite"
    _run(store, "--workers", str(workers), "--max-shards", "2")
    _run(store, "--workers", str(workers))
    assert "cache hit" in capsys.readouterr().err
    assert _golden_runs(store) == {1: (1, 1), 2: (1, 1)}

    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    fresh = tmp_path / "fresh.sqlite"
    _run(fresh, "--workers", str(workers))
    assert _golden_runs(fresh) == {1: (1, 1)}
    expected = _outcomes(fresh, tmp_path, capsys)
    assert expected and _outcomes(store, tmp_path, capsys) == expected


def test_set_up_only_run_on_a_trace_cache_hit_builds_no_context(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_METRICS", "1")
    store = tmp_path / "setup.sqlite"
    _run(store, "--workers", "2", "--max-shards", "0")
    _run(store, "--workers", "2", "--max-shards", "0")
    assert "cache hit" in capsys.readouterr().err
    assert _golden_runs(store) == {1: (1, 1), 2: (0, 0)}


@needs_fork
def test_no_worker_builds_state_or_runs_the_golden_execution(
    tmp_path, monkeypatch
):
    """Every job setup, replay context and traced run of a two-worker
    campaign and a two-worker ``campaign report`` happens in this
    process, and this process's collector is never frozen."""
    import repro.parallel.campaign as parallel_campaign
    from repro.core.replay import ReplayContext
    from repro.workloads.base import Workload

    log = tmp_path / "pids.log"

    def logged(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{name} {os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    logged(parallel_campaign.InjectJob, "setup")
    logged(parallel_campaign.AnalyzeJob, "setup")
    logged(ReplayContext, "__init__")
    logged(Workload, "traced_run")
    logged(Workload, "module")

    store = CampaignStore(":memory:")
    orchestrator = CampaignOrchestrator(
        store, "cg", workload_kwargs=KWARGS,
        plan=FixedRandomPlan(tests=40, seed=5), workers=2, shard_size=8,
    )
    assert orchestrator.run().status == "complete"
    orchestrator.compute_reports(QUICK)
    calls = [line.split() for line in log.read_text().splitlines()]
    names = {name for name, _ in calls}
    assert {"setup", "__init__", "module"} <= names
    assert {pid for _, pid in calls} == {str(os.getpid())}
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("cache", ["on", "off"])
def test_report_rows_equal_across_worker_counts(tmp_path, monkeypatch, cache):
    if cache == "off":
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    rows = {}
    forks = "fork" in multiprocessing.get_all_start_methods()
    for workers in (1, 2) if forks else (1,):
        orchestrator = CampaignOrchestrator(
            CampaignStore(":memory:"), "cg", workload_kwargs=KWARGS,
            plan=FixedRandomPlan(tests=40, seed=5), workers=workers,
        )
        reports = orchestrator.compute_reports(QUICK)
        assert list(reports) == ["r", "colidx"]
        rows[workers] = {name: report.to_dict()
                         for name, report in reports.items()}
    assert gc.get_freeze_count() == 0
    assert all(payload == rows[1] for payload in rows.values())
