"""Repository benchmark: campaign throughput and aDVF report time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``harness.WORKLOADS``; why each exists is in ``layers.json``):

* ``inject-cg-2w`` -- ``python -m repro campaign run cg --plan
  fixed:512@N --set seed=N --workers 2``, checked fault for fault
  against the same campaign at one worker;
* ``advf-fig4`` -- ``AdvfEngine(get_workload(w, seed=N),
  AnalysisConfig()).analyze()`` for the eight Table I workloads.

One run is a closed loop of batch jobs from this single client: each job
is a fresh process with its own empty store and caches (``harness``), and
the next job starts when the previous one has ended.  A run makes one
untimed warm-up job and times ``SETUP_RUNS`` set-up-only jobs, then makes
as many jobs as fit in ``--seconds`` at the workload's nominal job time
(:func:`jobs_per_run`), starting none after ``OVERRUN`` times
``--seconds``.  Every job's outputs are checked against the seed's
reference (``checks``).

``--trace 0`` reports the end-to-end metrics: job times are taken to the
best host speed seen in the run (:func:`floor_corrected`) and the median
over the jobs is reported.  ``--trace 1`` alternates plain jobs with jobs
whose layer calls are wrapped (``tracer``) and reports the per-layer
metrics, each the median over the traced jobs.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from checks import (
    advf_failures,
    advf_fingerprint,
    campaign_failures,
    campaign_fingerprint,
    campaign_reference,
    load_reference,
)
from harness import (
    ROOT,
    WORKLOADS,
    AdvfWorkload,
    CampaignWorkload,
    Job,
    RunDir,
    counter_totals,
    hermetic_dir,
    program_present,
    run_job,
)

#: Set-up-only jobs timed per run (after one untimed warm-up job).
SETUP_RUNS = 5
#: Measured jobs a run makes however short ``--seconds`` is.
MIN_JOBS = 3
#: On a host slowed for the whole run, no job starts after this many
#: times ``--seconds``, so that every run ends in the time allowed.
OVERRUN = 1.25

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "inject_per_s": "inj/s",
    "job_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the per-layer metrics (``--trace 1``).
PER_LAYER = {
    "vm.walk_s": "s",
    "vm.private_replay_s": "s",
    "vm.private_replays": "count",
    "vm.digest_s": "s",
    "vm.digests": "count",
    "vm.restore_s": "s",
    "vm.run_s": "s",
    "vm.run_ops_per_s": "ops/s",
    "core.inject_s": "s",
    "core.injections": "count",
    "core.replay_batches": "count",
    "core.memo_hit_ratio": "fraction",
    "core.evicted_ratio": "fraction",
    "core.converged_ratio": "fraction",
    "core.advf_object_s": "s",
    "core.propagation_s": "s",
    "core.propagation_calls": "count",
    "core.advf_reuse_ratio": "fraction",
    "core.advf_spec_discards": "count",
    "campaigns.store_commit_s": "s",
    "campaigns.store_commits": "count",
    "campaigns.plan_s": "s",
    "tracing.memo_merge_s": "s",
    "tracing.artifact_s": "s",
    "tracing.golden_trace_s": "s",
    "workloads.compile_s": "s",
    "mir.compile_s": "s",
    "parallel.call_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.idle_ratio": "fraction",
    "repro.import_s": "s",
    "traced_wall_s": "s",
    "other_s": "s",
    "other_share": "fraction",
    "trace_overhead": "ratio",
}


@dataclass
class Rep:
    """One checked job."""

    attempted: int
    failed: int
    job_s: float
    injections: int
    peak_rss_mb: float
    layers: Dict[str, float] = field(default_factory=dict)
    #: Seconds of each fixed piece of the job's work (campaign shard,
    #: analysed workload), keyed so that every job of a run has the same keys.
    segments: Dict[str, float] = field(default_factory=dict)


class BenchFailure(RuntimeError):
    """A job the benchmark needs (set-up, reference) did not succeed."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(layers: Dict[str, dict], counters: Dict[str, float],
                  wall_s: float, **known: float) -> Dict[str, float]:
    """Per-layer metrics from a traced job's span totals and counters.

    ``known`` supplies the metrics that come from outputs rather than
    spans (injection counts, worker busy time, aDVF report fields).
    """
    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    run_total = get("vm.run", "total_s")
    faults = counters.get("replay.faults", 0)
    hits = counters.get("replay.memo_hits", 0)
    misses = counters.get("replay.memo_misses", 0)
    metrics = {
        "vm.walk_s": get("vm.walk", "self_s"),
        "vm.private_replay_s": get("vm.private_replay", "self_s"),
        "vm.private_replays": get("vm.private_replay", "calls"),
        "vm.digest_s": get("vm.digest", "self_s"),
        "vm.digests": get("vm.digest", "calls"),
        "vm.restore_s": get("vm.restore", "self_s"),
        "vm.run_s": get("vm.run", "self_s"),
        "vm.run_ops_per_s": _ratio(get("vm.run", "units"), run_total),
        "core.inject_s": get("core.inject", "self_s"),
        "core.replay_batches": counters.get("replay.batches", 0),
        "core.memo_hit_ratio": _ratio(hits, hits + misses),
        "core.evicted_ratio": _ratio(counters.get("replay.evicted", 0), faults),
        "core.converged_ratio": _ratio(counters.get("replay.converged", 0), faults),
        "core.advf_object_s": get("core.advf_object", "self_s"),
        "core.propagation_s": get("core.propagation", "self_s"),
        "core.propagation_calls": get("core.propagation", "calls"),
        "campaigns.store_commit_s": get("campaigns.store_commit", "self_s"),
        "campaigns.store_commits": get("campaigns.store_commit", "calls"),
        "campaigns.plan_s": get("campaigns.plan", "self_s"),
        "tracing.memo_merge_s": get("tracing.memo_merge", "self_s"),
        "tracing.artifact_s": get("tracing.artifact", "self_s"),
        "tracing.golden_trace_s": get("tracing.golden_trace", "self_s"),
        "workloads.compile_s": get("workloads.compile", "self_s"),
        "mir.compile_s": get("mir.compile", "self_s"),
        "parallel.call_s": get("parallel.call", "self_s"),
        "repro.import_s": get("repro.import", "self_s"),
        "core.injections": 0,
        "core.advf_reuse_ratio": 0.0,
        "core.advf_spec_discards": 0,
        "parallel.worker_busy_s": 0.0,
        "parallel.idle_ratio": 0.0,
    }
    metrics.update(known)
    attributed = sum(entry["self_s"] for entry in layers.values())
    metrics["traced_wall_s"] = wall_s
    metrics["other_s"] = wall_s - attributed
    metrics["other_share"] = _ratio(wall_s - attributed, wall_s)
    return metrics


# --------------------------------------------------------------------- #
# campaign workloads
# --------------------------------------------------------------------- #
class CampaignBench:
    def __init__(self, workload: CampaignWorkload, seed: int) -> None:
        from repro.campaigns.store import CampaignStore
        from repro.workloads.registry import get_workload

        self.workload = workload
        self.seed = seed
        objects = get_workload(workload.program, seed=seed).target_objects
        self.expected = workload.tests * len(objects)
        self._store = CampaignStore
        self.reference: Optional[dict] = None
        #: Without a shipped reference a multi-worker run is checked
        #: against a single-worker run; otherwise the first job is the
        #: reference for the rest.
        self.needs_reference_job = workload.workers > 1

    def setup_s(self) -> float:
        with hermetic_dir() as run_dir:
            job = run_job(self.workload.argv(self.seed, run_dir.store, setup_only=True),
                          run_dir, self.workload.workers)
        if not job.ok:
            raise BenchFailure(job.describe_failure())
        return job.wall_s

    def record_reference(self) -> dict:
        """A single-worker run's fingerprint."""
        single = dataclasses.replace(self.workload, workers=1)
        with hermetic_dir() as run_dir:
            job = run_job(single.argv(self.seed, run_dir.store), run_dir, 1)
            if not job.ok:
                raise BenchFailure(job.describe_failure())
            with self._store(run_dir.store) as store:
                return campaign_reference(campaign_fingerprint(store))

    def _check(self, job: Job, run_dir: RunDir) -> Rep:
        if not job.ok or not run_dir.store.exists():
            return Rep(self.expected, self.expected, job.wall_s, 0, job.peak_rss_mb)
        with self._store(run_dir.store) as store:
            fingerprint = campaign_fingerprint(store)
            (record,) = store.campaigns()
            segments = {
                str(index): shard.duration_s
                for index, shard in store.completed_shards(record.campaign_id).items()
            }
        injections = sum(fingerprint["injections"].values())
        if self.reference is None and injections == self.expected:
            self.reference = campaign_reference(fingerprint)
        failed = (
            campaign_failures(fingerprint, self.reference, self.expected)
            if self.reference is not None else self.expected
        )
        return Rep(self.expected, failed, job.wall_s, injections, job.peak_rss_mb,
                   segments=segments)

    def rep(self) -> Rep:
        with hermetic_dir() as run_dir:
            job = run_job(self.workload.argv(self.seed, run_dir.store),
                          run_dir, self.workload.workers)
            return self._check(job, run_dir)

    def traced_rep(self) -> Rep:
        with hermetic_dir() as run_dir:
            out = run_dir.path / "trace.json"
            job = run_job(self.workload.traced_argv(self.seed, run_dir.store, out),
                          run_dir, self.workload.workers)
            rep = self._check(job, run_dir)
            if rep.injections == 0:
                return rep
            traced = json.loads(out.read_text())
            with self._store(run_dir.store) as store:
                (record,) = store.campaigns()
                counters = counter_totals(store.campaign_metrics(record.campaign_id))
                busy = sum(span.duration_s
                           for span in store.run_spans(record.campaign_id)
                           if span.name == "worker.inject")
        call_total = traced["layers"].get("parallel.call", {}).get("total_s", 0.0)
        rep.layers = layer_metrics(
            traced["layers"], counters, traced["wall_s"],
            **{
                "core.injections": rep.injections,
                "parallel.worker_busy_s": busy,
                "parallel.idle_ratio": (
                    1.0 - _ratio(busy, self.workload.workers * call_total)
                    if call_total else 0.0
                ),
            },
        )
        return rep


# --------------------------------------------------------------------- #
# aDVF workload
# --------------------------------------------------------------------- #
class AdvfBench:
    def __init__(self, workload: AdvfWorkload, seed: int) -> None:
        from repro.workloads.registry import TABLE1_ROWS, get_workload

        self.workload = workload
        self.seed = seed
        self.expected = sum(
            len(get_workload(name, seed=seed).target_objects) for name in TABLE1_ROWS
        )
        self.reference: Optional[dict] = None
        self.needs_reference_job = False

    def _job(self, run_dir: RunDir, **flags) -> Tuple[Job, Optional[dict]]:
        out = run_dir.path / "advf.json"
        job = run_job(self.workload.argv(self.seed, out, **flags), run_dir)
        payload = json.loads(out.read_text()) if job.ok and out.exists() else None
        return job, payload

    def setup_s(self) -> float:
        with hermetic_dir() as run_dir:
            job, _ = self._job(run_dir, setup_only=True)
        if not job.ok:
            raise BenchFailure(job.describe_failure())
        return job.wall_s

    def record_reference(self) -> dict:
        with hermetic_dir() as run_dir:
            job, payload = self._job(run_dir)
        if payload is None or len(payload["reports"]) != self.expected:
            raise BenchFailure(job.describe_failure())
        return advf_fingerprint(payload["reports"])

    def _rep(self, traced: bool) -> Rep:
        with hermetic_dir() as run_dir:
            job, payload = self._job(run_dir, traced=traced)
        if payload is None:
            return Rep(self.expected, self.expected, job.wall_s, 0, job.peak_rss_mb)
        reports = payload["reports"]
        fingerprint = advf_fingerprint(reports)
        if self.reference is None and len(fingerprint) == self.expected:
            self.reference = fingerprint
        failed = (
            advf_failures(fingerprint, self.reference)
            if self.reference is not None else self.expected
        )
        injections = sum(report["injections"] for report in reports.values())
        rep = Rep(self.expected, failed, payload["advf_s"], injections,
                  job.peak_rss_mb, segments=payload["segments"])
        if traced:
            performed = sum(r["analyses_performed"] for r in reports.values())
            reused = sum(r["analyses_reused"] for r in reports.values())
            rep.layers = layer_metrics(
                payload["layers"], payload["counters"], payload["wall_s"],
                **{
                    "core.injections": injections,
                    "core.advf_reuse_ratio": _ratio(reused, performed + reused),
                    "core.advf_spec_discards":
                        payload["speculation"].get("spec_discards", 0),
                },
            )
        return rep

    def rep(self) -> Rep:
        return self._rep(traced=False)

    def traced_rep(self) -> Rep:
        return self._rep(traced=True)


# --------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------- #
def fast_half(values: List[float]) -> float:
    """Mean of the smaller half of ``values`` (rounded up).

    Contention from other tenants of the host only ever slows a job down,
    so the slower jobs of a run carry the noise; a slower program slows
    every job and still moves this estimate.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def floor_corrected(reps: List[Rep]) -> List[float]:
    """Each job's time at the best speed the host gave any job of the run.

    The host's speed changes from second to second (other tenants share
    its cores), so identical jobs differ by a third or more.  Every job of a
    run does the same pieces of work (``Rep.segments``); a piece's floor
    is the least time any job took for it, and a job's time is scaled by
    the sum of the floors over the sum of its own pieces.  A slower
    program slows every job's pieces and their floors alike, so it still
    moves the result; only the differences between jobs are taken out.
    """
    keys = set.intersection(*(set(rep.segments) for rep in reps)) if reps else set()
    floor_s = sum(min(rep.segments[key] for rep in reps) for key in keys)
    corrected = []
    for rep in reps:
        spent = sum(rep.segments[key] for key in keys)
        corrected.append(rep.job_s * floor_s / spent if spent > 0 else rep.job_s)
    return corrected


def jobs_per_run(workload, seconds: float) -> int:
    """Measured jobs of a run: as many as fit in ``seconds`` at the
    workload's nominal job time.  The count depends only on ``seconds``,
    never on the host's speed, so every run's floors rest on as many jobs."""
    return max(MIN_JOBS, round(seconds / workload.nominal_s))


def measure(bench, seconds: float, trace: bool) -> dict:
    bench.setup_s()  # warm-up: byte-compiles the sources, fills the page cache
    setup = [bench.setup_s() for _ in range(SETUP_RUNS)]
    bench.reference = load_reference(bench.workload.reference_group, bench.seed)
    if bench.reference is None and bench.needs_reference_job:
        bench.reference = bench.record_reference()

    plain: List[Rep] = []
    traced: List[Rep] = []
    start = time.perf_counter()
    for _ in range(jobs_per_run(bench.workload, seconds)):
        if len(plain) >= MIN_JOBS and time.perf_counter() - start > OVERRUN * seconds:
            break
        plain.append(bench.rep())
        if trace:
            traced.append(bench.traced_rep())

    reps = plain + traced
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    good = [rep for rep in plain if rep.injections]
    good_traced = [rep for rep in traced if rep.layers]
    if not good or (trace and not good_traced):
        raise BenchFailure(f"no job completed ({failed}/{attempted} failed)")

    corrected = floor_corrected(good)
    job_s = statistics.median(corrected)
    if trace:
        values = {
            name: statistics.median(rep.layers[name] for rep in good_traced)
            for name in PER_LAYER if name != "trace_overhead"
        }
        values["trace_overhead"] = (
            statistics.median(floor_corrected(good_traced)) / job_s
        )
        units = PER_LAYER
    else:
        values = {
            "setup_s": fast_half(setup),
            "inject_per_s": statistics.median(
                rep.injections / rep_s for rep, rep_s in zip(good, corrected)
            ),
            "job_s": job_s,
            "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in good),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "jobs": len(reps),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running job is killed and
    # its run directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not program_present():
        print(f"perfbench: no program under test (src/repro) in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if isinstance(workload, CampaignWorkload):
        bench = CampaignBench(workload, args.seed)
    else:
        bench = AdvfBench(workload, args.seed)
    try:
        result = measure(bench, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    jobs = result.pop("jobs")
    print(f"{args.workload} seed={args.seed}: {jobs} checked jobs, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(error_ratio {_ratio(result['failed'], result['attempted']):.4f})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
