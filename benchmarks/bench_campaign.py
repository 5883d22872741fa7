"""B-CAMP — campaign orchestration microbenchmark.

Four measurements of the durable-campaign subsystem:

* **shard throughput**: a fixed-count campaign executed through the
  orchestrator (sharding + worker execution + SQLite checkpointing),
  reported as injections/second and seconds/shard;
* **resume overhead**: re-running the completed campaign — every shard is
  found in the store and skipped, so this isolates the pure cost of the
  durable bookkeeping (plan regeneration, golden trace, shard lookups);
* **adaptive vs fixed sizing**: an :class:`AdaptivePlan` targeting a CI
  half-width, versus the fixed-count plan that must be sized for the
  worst case p = 0.5 to guarantee the same precision.  The acceptance bar
  is that the adaptive campaign reaches the target half-width with fewer
  injections;
* **worker scaling**: the injection phase of the reference campaign (cg,
  ``fixed:512``) at one and at two workers, each campaign in fresh caches,
  best of two runs.  The 1-worker / 2-worker
  time ratio is hardware-relative (both halves measured on the same host
  in the same run), so ``repro bench check`` gates it: a campaign that
  stops running whole shards per worker falls back to ~1x or below.  The
  two stores must agree fault for fault.

Stats land in the pytest-benchmark ``extra_info`` JSON so the perf
trajectory records campaign throughput and resume overhead over time.
Runnable standalone too::

    python benchmarks/bench_campaign.py
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
import time

try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.campaigns import (
    AdaptivePlan,
    CampaignOrchestrator,
    CampaignStore,
    FixedRandomPlan,
    fixed_sample_size_for_half_width,
    wilson_half_width,
)
from repro.obs.log import provenance

WORKLOAD = os.environ.get("REPRO_BENCH_WORKLOAD", "matmul")
#: Injections in the fixed-count shard-throughput campaign.
TESTS = max(8, int(os.environ.get("REPRO_BENCH_CAMPAIGN_TESTS", "128")))
SHARD_SIZE = max(4, int(os.environ.get("REPRO_BENCH_SHARD_SIZE", "32")))
#: Target CI half-width of the adaptive-vs-fixed comparison.
HALF_WIDTH = float(os.environ.get("REPRO_BENCH_HALF_WIDTH", "0.12"))
OUTPUT = os.environ.get("REPRO_BENCH_CAMPAIGN_JSON", "BENCH_campaign.json")
#: The worker-scaling campaign: cg ``fixed:512`` (1024 injections).
SCALING_WORKLOAD = "cg"
SCALING_TESTS = 512
#: Runs per worker count; the fastest counts (host noise only slows runs).
SCALING_REPEATS = 2
#: Least 1 -> 2 worker speedup of the injection phase on a multi-core host.
SCALING_BAR = 1.2


def _store(tmpdir: str, name: str) -> CampaignStore:
    return CampaignStore(os.path.join(tmpdir, name))


def measure_shard_throughput_and_resume(workload_name: str = WORKLOAD):
    """Fixed campaign end-to-end, then a full-skip resume of the same."""
    with tempfile.TemporaryDirectory() as tmpdir:
        store = _store(tmpdir, "bench.sqlite")
        orchestrator = CampaignOrchestrator(
            store,
            workload_name,
            plan=FixedRandomPlan(tests=TESTS, seed=11),
            workers=1,
            shard_size=SHARD_SIZE,
        )
        start = time.perf_counter()
        result = orchestrator.run()
        run_s = time.perf_counter() - start
        assert result.status == "complete"

        start = time.perf_counter()
        resumed = orchestrator.run()
        resume_s = time.perf_counter() - start
        assert resumed.executed_shards == 0
        assert resumed.skipped_shards == result.executed_shards

        store.close()
        return {
            "workload": workload_name,
            "injections": result.executed_injections,
            "shards": result.executed_shards,
            "shard_size": SHARD_SIZE,
            "campaign_s": run_s,
            "injections_per_s": result.executed_injections / run_s if run_s else 0.0,
            "s_per_shard": run_s / result.executed_shards if result.executed_shards else 0.0,
            "resume_overhead_s": resume_s,
            "resume_skip_per_s": (
                resumed.skipped_shards / resume_s if resume_s else float("inf")
            ),
        }


@contextlib.contextmanager
def _fresh_caches(tmpdir: str):
    """Point the trace and memo caches at ``tmpdir`` for one campaign, so
    no run warm-starts from another's artifacts."""
    keys = ("REPRO_TRACE_CACHE", "REPRO_MEMO_CACHE")
    saved = {key: os.environ.get(key) for key in keys}
    os.environ["REPRO_TRACE_CACHE"] = os.path.join(tmpdir, "traces")
    os.environ["REPRO_MEMO_CACHE"] = os.path.join(tmpdir, "memo")
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _inject_phase_s(store: CampaignStore, campaign_id: str) -> float:
    """The run's wall time after its set-up, from the flight recorder:
    the ``campaign.run`` span minus trace acquisition and site analysis."""
    spans = store.run_spans(campaign_id)
    total = sum(s.duration_s for s in spans if s.name == "campaign.run")
    setup = sum(
        s.duration_s for s in spans
        if s.name in ("campaign.trace", "campaign.analysis")
    )
    return total - setup


def measure_worker_scaling():
    """Injection phase of cg ``fixed:512`` at one and at two workers."""
    plan = FixedRandomPlan(tests=SCALING_TESTS, seed=3)
    best = {}
    rows = {}
    injections = 0
    for workers in (1, 2):
        for _ in range(SCALING_REPEATS):
            with tempfile.TemporaryDirectory() as tmpdir, _fresh_caches(tmpdir):
                store = _store(tmpdir, "scaling.sqlite")
                orchestrator = CampaignOrchestrator(
                    store, SCALING_WORKLOAD, plan=plan, workers=workers
                )
                result = orchestrator.run()
                assert result.status == "complete"
                seconds = _inject_phase_s(store, orchestrator.campaign_id)
                rows[workers] = [
                    (o.shard_index, o.seq, o.spec, o.outcome)
                    for o in store.outcomes(orchestrator.campaign_id)
                ]
                injections = result.executed_injections
                store.close()
            best[workers] = min(best.get(workers, seconds), seconds)
    assert rows[1] == rows[2], "2-worker campaign differs from the 1-worker one"
    return {
        "workload": SCALING_WORKLOAD,
        "injections": injections,
        "repeats": SCALING_REPEATS,
        "inject_s_1w": best[1],
        "inject_s_2w": best[2],
        "inject_per_s_1w": injections / best[1],
        "inject_per_s_2w": injections / best[2],
        "speedup": best[1] / best[2],
        "cpu_count": os.cpu_count(),
    }


def measure_all():
    """Every measurement (the ``repro bench check`` entry point)."""
    return {
        "throughput": measure_shard_throughput_and_resume(),
        "adaptive": measure_adaptive_vs_fixed(),
        "scaling": measure_worker_scaling(),
    }


def measure_adaptive_vs_fixed(workload_name: str = WORKLOAD):
    """Adaptive CI-driven sizing against the worst-case fixed-count plan."""
    plan = AdaptivePlan(
        target_half_width=HALF_WIDTH, batch_size=16, max_batches=64, seed=5
    )
    with tempfile.TemporaryDirectory() as tmpdir:
        store = _store(tmpdir, "adaptive.sqlite")
        orchestrator = CampaignOrchestrator(store, workload_name, plan=plan, workers=1)
        start = time.perf_counter()
        result = orchestrator.run()
        adaptive_s = time.perf_counter() - start
        assert result.status == "complete"
        per_object = {
            name: {
                "injections": trials,
                "masking_rate": successes / trials if trials else 0.0,
                "half_width": wilson_half_width(successes, trials, plan.z),
            }
            for name, (successes, trials) in result.tallies.items()
        }
        store.close()
    # the fixed plan commits to the worst-case count *per object*
    fixed_equivalent = fixed_sample_size_for_half_width(HALF_WIDTH, plan.z) * len(
        per_object
    )
    adaptive_injections = result.executed_injections
    return {
        "workload": workload_name,
        "target_half_width": HALF_WIDTH,
        "objects": len(per_object),
        "adaptive_injections": adaptive_injections,
        "fixed_equivalent_injections": fixed_equivalent,
        "injections_saved": fixed_equivalent - adaptive_injections,
        "adaptive_s": adaptive_s,
        "per_object": per_object,
    }


# --------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------- #
def test_bench_campaign_shard_throughput(once, benchmark):
    from conftest import print_header

    stats = once(measure_shard_throughput_and_resume)
    benchmark.extra_info.update(stats)
    print_header(
        f"Campaign: shard throughput + resume overhead ({stats['injections']} "
        f"injections, shards of {stats['shard_size']})"
    )
    print(json.dumps(stats, indent=2))
    # resuming a finished campaign must cost far less than running it
    assert stats["resume_overhead_s"] < stats["campaign_s"]


def test_bench_campaign_adaptive_vs_fixed(once, benchmark):
    from conftest import print_header

    stats = once(measure_adaptive_vs_fixed)
    benchmark.extra_info.update(
        {k: v for k, v in stats.items() if k != "per_object"}
    )
    print_header(
        f"Campaign: adaptive CI sizing vs fixed-count "
        f"(half-width <= {stats['target_half_width']})"
    )
    print(json.dumps(stats, indent=2))
    # acceptance bar: adaptive reaches the target with fewer injections
    for info in stats["per_object"].values():
        assert info["half_width"] <= stats["target_half_width"]
    assert stats["adaptive_injections"] < stats["fixed_equivalent_injections"]


def test_bench_campaign_worker_scaling(once, benchmark):
    from conftest import print_header

    stats = once(measure_worker_scaling)
    benchmark.extra_info.update(stats)
    print_header(
        f"Campaign: injection-phase scaling, {stats['workload']} "
        f"({stats['injections']} injections), 1 -> 2 workers"
    )
    print(json.dumps(stats, indent=2))
    if (os.cpu_count() or 1) >= 2:
        assert stats["speedup"] >= SCALING_BAR


def main() -> None:
    results = measure_all()
    throughput = results["throughput"]
    adaptive = results["adaptive"]
    scaling = results["scaling"]
    results["provenance"] = provenance()
    print(json.dumps(results, indent=2))
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}", file=sys.stderr)
    assert throughput["resume_overhead_s"] < throughput["campaign_s"], (
        "resume overhead exceeded the full campaign cost"
    )
    for info in adaptive["per_object"].values():
        assert info["half_width"] <= adaptive["target_half_width"], (
            "adaptive campaign stopped above the target CI half-width"
        )
    assert adaptive["adaptive_injections"] < adaptive["fixed_equivalent_injections"], (
        "adaptive plan did not beat the equivalent fixed-count plan"
    )
    if (os.cpu_count() or 1) >= 2:
        assert scaling["speedup"] >= SCALING_BAR, (
            f"2 workers ran the injection phase only {scaling['speedup']:.2f}x "
            f"faster than 1 (bar {SCALING_BAR}x)"
        )


if __name__ == "__main__":
    main()
