"""A-INJECT — batched injection resolution vs a per-fault injection loop.

Compares two runs of the full aDVF analysis (injection enabled) per
workload, on the same engine and config:

* **batched**: the production path — ``AdvfEngine.analyze_object`` plans
  every count-based budget decision of an object first and submits the
  object's whole injection set as one
  ``DeterministicFaultInjector.inject_many`` call (the batched replay
  scheduler: one snapshot restore + one lockstep suffix walk per
  interval);
* **sequential**: the same engine with ``inject_many`` replaced, inside
  this benchmark, by a loop of one-fault ``inject_many`` calls — one
  snapshot restore + suffix walk per fault.

The timed quantity is the **injection-resolution phase only**
(``AdvfEngine.pass_timings["injection"]``) — trace recording,
participation discovery, the bulk operation passes and the planning pass
are identical in both configurations and excluded.

Acceptance bar: reports **bit-identical** on every registry workload
(compared via ``ObjectReport.to_dict()`` before any timing is trusted),
then a **>= 2x geometric-mean speedup** on the injection-resolution
phase across ``matmul`` and ``cg``.  The timed legs raise
``injection_samples_per_class`` (default 8) so the injection phase has a
campaign-scale number of replays to amortize; the identity sweep runs
the paper-default config.  Results land in pytest-benchmark
``extra_info`` (or ``BENCH_advf_inject.json`` when run standalone)::

    python benchmarks/bench_advf_inject.py
"""

from __future__ import annotations

import json
import math
import os
import sys

try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.obs.log import provenance
from repro.workloads.registry import get_workload, workload_names

#: Scale factor (1 = quick laptop/CI run); scales timing repeats.
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
#: Timing repeats per configuration on the timed workloads (min is kept).
REPEATS = max(1, int(os.environ.get("REPRO_BENCH_INJECT_REPEATS", "2"))) * SCALE
#: ``injection_samples_per_class`` for the timed legs — deeper than the
#: paper default (2) so the injection phase replays at campaign scale.
SAMPLES = max(1, int(os.environ.get("REPRO_BENCH_INJECT_SAMPLES", "8")))
#: Geometric-mean injection-phase speedup bar over the timed workloads.
SPEEDUP_BAR = 2.0
OUTPUT = os.environ.get("REPRO_BENCH_INJECT_JSON", "BENCH_advf_inject.json")

#: Workloads whose injection phase is timed (and held to the bar).
TIMED_WORKLOADS = os.environ.get("REPRO_BENCH_INJECT_WORKLOADS", "matmul,cg").split(",")


def _analyze(workload_name, batched, samples=2):
    """One full aDVF analysis; returns (report, injection_s, batch_stats).

    ``batched=False`` swaps the engine's ``inject_many`` for a loop of
    one-fault ``inject_many`` calls, so each fault pays its own restore and
    suffix.
    """
    workload = get_workload(workload_name)
    engine = AdvfEngine(
        workload,
        AnalysisConfig(use_injection=True, injection_samples_per_class=samples),
    )
    engine._prepare()
    if not batched:
        injector = engine._injector
        one_batch = injector.inject_many
        injector.inject_many = lambda specs: [
            one_batch([spec])[0] for spec in specs
        ]
    report = engine.analyze()
    return report, engine.pass_timings.get("injection", 0.0), dict(engine.speculation_stats)


def _assert_bit_identical(name, sequential, batched):
    for object_name, report in sequential.objects.items():
        fast = batched.objects[object_name]
        assert report.to_dict() == fast.to_dict(), (
            f"batched injection diverged on {name}.{object_name}"
        )


def check_bit_identity():
    """Per-fault vs batched reports on every registry workload."""
    checked = []
    for name in workload_names():
        sequential, _, _ = _analyze(name, batched=False)
        batched, _, stats = _analyze(name, batched=True)
        _assert_bit_identical(name, sequential, batched)
        checked.append({
            "workload": name,
            "objects": len(sequential.objects),
            "speculated": stats.get("speculated", 0),
            "spec_windows": stats.get("spec_windows", 0),
        })
    return checked


def measure_workload(name):
    """Min-of-repeats injection-phase wall clock, per-fault vs batched."""
    sequential_s = min(
        _analyze(name, batched=False, samples=SAMPLES)[1] for _ in range(REPEATS)
    )
    batched_s = float("inf")
    stats = {}
    for _ in range(REPEATS):
        _, elapsed, run_stats = _analyze(name, batched=True, samples=SAMPLES)
        if elapsed < batched_s:
            batched_s, stats = elapsed, run_stats
    return {
        "workload": name,
        "injection_samples_per_class": SAMPLES,
        "sequential_injection_s": sequential_s,
        "batched_injection_s": batched_s,
        "speedup": sequential_s / batched_s if batched_s else float("inf"),
        "speculation_stats": stats,
    }


def measure_all():
    results = {
        "identity_checked": check_bit_identity(),
        "timings": {name: measure_workload(name) for name in TIMED_WORKLOADS},
        "speedup_bar": SPEEDUP_BAR,
    }
    speedups = [entry["speedup"] for entry in results["timings"].values()]
    results["geomean_speedup"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups)
    )
    return results


def _check(results):
    geomean = results["geomean_speedup"]
    assert geomean >= SPEEDUP_BAR, (
        f"batched injection-resolution geomean speedup {geomean:.2f}x over "
        f"{', '.join(TIMED_WORKLOADS)} is below the {SPEEDUP_BAR}x acceptance bar"
    )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------- #
def test_bench_advf_inject(once, benchmark):
    from conftest import print_header

    results = once(measure_all)
    benchmark.extra_info.update(
        {name: entry for name, entry in results["timings"].items()}
    )
    benchmark.extra_info["geomean_speedup"] = results["geomean_speedup"]
    print_header(
        f"Batched injection resolution vs per-fault injection "
        f"(bar >= {SPEEDUP_BAR}x geomean on {', '.join(TIMED_WORKLOADS)})"
    )
    print(json.dumps(results, indent=2))
    _check(results)


def main() -> None:
    results = measure_all()
    results["provenance"] = provenance()
    print(json.dumps(results, indent=2))
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}", file=sys.stderr)
    _check(results)


if __name__ == "__main__":
    main()
