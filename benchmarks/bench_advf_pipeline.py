"""A-PIPE — aDVF pipeline microbenchmark: participation pass vs per-event scan.

Measures, per workload (default ``matmul`` and ``cg``):

* **analysis**: one full aDVF analysis of the workload's target objects
  over a pre-built golden trace — the legacy per-event pipeline (the
  ``PerEventEngine`` oracle of ``tests/oracles``: participations from the
  per-event scan) vs the production engine (participations from the
  vectorized pass over the trace columns).  Injection is disabled so the
  measurement isolates the trace-analysis stack (participation discovery,
  operation-level masking, propagation, aggregation); masking verdicts,
  propagation, planning and aggregation are the same code on both sides,
  so the speedup is the participation pass's.
* **trace acquisition**: recording a fresh golden trace vs loading the
  cached ``.npz`` artifact (what campaign workers and resumed campaigns
  pay);
* **trace recording**: per workload, the traced golden-run time (best of
  3) and the bytes the recorded trace holds at rest (``tracemalloc``:
  Python allocations still live once the run has returned, before any
  column view is built).

Results must be *bit-identical* across pipelines (asserted here, and
exhaustively in ``tests/test_passes_parity.py``).  The acceptance bar of
the columnar refactor is a >= 3x analysis speedup on ``matmul``; observed
numbers land in the pytest-benchmark JSON ``extra_info``.  Runable
standalone too:

    python benchmarks/bench_advf_pipeline.py
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(0, os.path.join(_ROOT, "src"))
# the per-event pipeline lives with the test oracles
sys.path.insert(0, os.path.join(_ROOT, "tests"))

from oracles.advf_sequential import PerEventEngine
from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.tracing import ColumnarTrace
from repro.workloads.registry import get_workload

WORKLOADS = os.environ.get("REPRO_BENCH_PIPELINE_WORKLOADS", "matmul,cg").split(",")
#: The analysis speedup bar on matmul.
SPEEDUP_BAR = 3.0


def _time(fn, repeats: int = 3) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_analysis_speedup(workload_name: str):
    """Legacy vs columnar aDVF analysis over pre-built golden traces."""
    workload = get_workload(workload_name)
    results = {}

    def build(pipeline):
        engine_cls = PerEventEngine if pipeline == "legacy" else AdvfEngine
        engine = engine_cls(workload, AnalysisConfig(use_injection=False))
        engine.trace  # record and seal outside the timed region
        return engine

    def analyze(pipeline):
        engine = build(pipeline)
        elapsed = _timed(lambda: results.setdefault(pipeline, engine.analyze()))
        # re-run on fresh engines for a min-of-3 wall clock
        for _ in range(2):
            elapsed = min(elapsed, _timed(build(pipeline).analyze))
        return elapsed

    legacy_s = analyze("legacy")
    columnar_s = analyze("columnar")

    for object_name, report in results["legacy"].objects.items():
        fast = results["columnar"].objects[object_name]
        assert report.to_dict() == fast.to_dict(), (
            f"pipelines diverged on {workload_name}.{object_name}"
        )

    return {
        "workload": workload_name,
        "trace_events": results["legacy"].trace_events,
        "objects": len(results["legacy"].objects),
        "legacy_analysis_s": legacy_s,
        "columnar_analysis_s": columnar_s,
        "analysis_speedup": legacy_s / columnar_s if columnar_s else float("inf"),
    }


def measure_trace_acquisition(workload_name: str):
    """Fresh traced run vs loading the cached columnar artifact."""
    workload = get_workload(workload_name)
    trace = workload.traced_run().trace
    record_s = _time(lambda: workload.traced_run())
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        path = trace.save(Path(tmp) / "golden.npz")
        artifact_bytes = path.stat().st_size
        load_s = _time(lambda: ColumnarTrace.load(path))
    return {
        "workload": workload_name,
        "record_s": record_s,
        "artifact_load_s": load_s,
        "artifact_bytes": artifact_bytes,
        "load_speedup": record_s / load_s if load_s else float("inf"),
    }


def measure_trace_recording(workload_name: str):
    """Traced golden-run time and the recorded trace's at-rest bytes."""
    workload = get_workload(workload_name)
    workload.traced_run()  # decode and compile outside the measurements
    traced_run_s = _time(lambda: workload.traced_run())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = workload.traced_run().trace
        gc.collect()
        trace_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {
        "workload": workload_name,
        "trace_events": len(trace),
        "traced_run_s": traced_run_s,
        "trace_bytes": trace_bytes,
        "bytes_per_event": trace_bytes / len(trace),
    }


# --------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------- #
def test_bench_advf_pipeline_analysis(once, benchmark):
    from conftest import print_header

    stats = {name: once(measure_analysis_speedup, name) for name in [WORKLOADS[0]]}
    for name in WORKLOADS[1:]:
        stats[name] = measure_analysis_speedup(name)
    benchmark.extra_info.update(stats)
    print_header("aDVF pipeline: participation pass vs per-event scan")
    print(json.dumps(stats, indent=2))
    if "matmul" in stats:
        assert stats["matmul"]["analysis_speedup"] >= SPEEDUP_BAR


def test_bench_advf_pipeline_trace_cache(once, benchmark):
    from conftest import print_header

    stats = once(measure_trace_acquisition, WORKLOADS[0])
    recording = {name: measure_trace_recording(name) for name in WORKLOADS}
    benchmark.extra_info.update(stats)
    benchmark.extra_info["recording"] = recording
    print_header("aDVF pipeline: golden-trace artifact load vs re-trace")
    print(json.dumps({**stats, "recording": recording}, indent=2))
    assert stats["load_speedup"] > 1.0


def main() -> None:
    report = {
        "analysis": {name: measure_analysis_speedup(name) for name in WORKLOADS},
        "trace_acquisition": measure_trace_acquisition(WORKLOADS[0]),
        "trace_recording": {
            name: measure_trace_recording(name) for name in WORKLOADS
        },
    }
    print(json.dumps(report, indent=2))
    if "matmul" in report["analysis"]:
        speedup = report["analysis"]["matmul"]["analysis_speedup"]
        assert speedup >= SPEEDUP_BAR, (
            f"columnar analysis speedup {speedup:.2f}x below the "
            f"{SPEEDUP_BAR:.0f}x bar"
        )
    load_speedup = report["trace_acquisition"]["load_speedup"]
    assert load_speedup > 1.0, (
        f"loading the golden-trace artifact is slower than re-tracing "
        f"({load_speedup:.2f}x)"
    )


if __name__ == "__main__":
    main()
