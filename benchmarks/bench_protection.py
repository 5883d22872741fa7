"""PROT — protection-scheme overhead benchmark: cost model vs measured ops.

For matmul and cg, every applicable protection scheme is applied and its
golden-run overhead measured (dynamic ops: the sink-free runs' step
counts) and timed (wall clock), then
checked against the scheme's trace-derived cost-model prediction:

* replication schemes (duplication / reexec / detect) must predict the
  measured extra ops within ``TOLERANCE`` (the dominant term — one extra
  entry execution per replica — is read straight off the golden trace);
* the bespoke ABFT cost model is exact by construction (it traces the
  protected variant), asserted to machine precision.

Results land in pytest-benchmark ``extra_info`` (or ``BENCH_protection.json``
when run standalone), starting the perf trajectory for the protection
subsystem:

    python benchmarks/bench_protection.py
"""

from __future__ import annotations

import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.obs.log import provenance
from repro.protection.advisor import ProtectionPlan, Selection
from repro.protection.apply import apply_plan, measure_overhead
from repro.protection.schemes import WorkloadCostInputs, applicable_schemes
from repro.workloads.registry import get_workload

#: (workload, kwargs, object) cases; sizes keep a laptop run in seconds.
CASES = [
    ("matmul", {"n": 5}, "C"),
    ("cg", {"n": 10, "cgitmax": 2}, "r"),
]
#: Max relative error of predicted vs measured extra ops (replication
#: schemes; ABFT is exact).
TOLERANCE = 0.10
OUTPUT = os.environ.get("REPRO_BENCH_PROTECTION_JSON", "BENCH_protection.json")


def _timed_golden(workload) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        workload.golden_run()
        best = min(best, time.perf_counter() - start)
    return best


def measure_schemes(workload_name: str, kwargs, object_name: str):
    """Predicted vs measured overhead of every applicable scheme."""
    workload = get_workload(workload_name, **kwargs)
    trace = workload.traced_run().trace
    inputs = WorkloadCostInputs.from_workload(workload, trace)
    base_wall = _timed_golden(workload)

    rows = []
    for scheme in applicable_schemes(workload_name, object_name):
        cost = scheme.cost(workload, inputs, object_name)
        plan = ProtectionPlan(
            workload=workload_name,
            workload_kwargs=dict(kwargs),
            budget=4.0,
            base_ops=inputs.base_ops,
            selections=[
                Selection(
                    object_name=object_name,
                    scheme=scheme.name,
                    predicted_extra_ops=cost.extra_ops,
                    predicted_extra_bytes=cost.extra_bytes,
                    predicted_reduction=0.0,
                    vulnerability=0.0,
                    advf=0.0,
                )
            ],
            predicted_extra_ops=cost.extra_ops,
            predicted_extra_bytes=cost.extra_bytes,
            method="exact",
        )
        protected = apply_plan(plan)
        measured = measure_overhead(workload, protected)
        assert measured["outputs_identical"], (
            f"{scheme.name} perturbed the golden outputs of {workload_name}"
        )
        relative_error = (
            abs(measured["extra_ops"] - cost.extra_ops) / measured["extra_ops"]
            if measured["extra_ops"]
            else 0.0
        )
        rows.append(
            {
                "workload": workload_name,
                "object": object_name,
                "scheme": scheme.name,
                "base_ops": measured["base_ops"],
                "predicted_extra_ops": cost.extra_ops,
                "measured_extra_ops": measured["extra_ops"],
                "relative_error": relative_error,
                "overhead_ratio": measured["overhead_ratio"],
                "extra_bytes": cost.extra_bytes,
                "base_wall_s": base_wall,
                "protected_wall_s": _timed_golden(protected),
            }
        )
    return rows


def check(rows) -> None:
    for row in rows:
        bar = 1e-9 if row["scheme"] == "abft_checksum" else TOLERANCE
        assert row["relative_error"] <= bar, (
            f"{row['workload']}/{row['scheme']}: cost model off by "
            f"{row['relative_error']:.1%} (predicted {row['predicted_extra_ops']}, "
            f"measured {row['measured_extra_ops']})"
        )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------- #
def test_bench_protection_overhead(once, benchmark):
    from conftest import print_header

    first, rest = CASES[0], CASES[1:]
    rows = once(measure_schemes, *first)
    for case in rest:
        rows.extend(measure_schemes(*case))
    check(rows)
    benchmark.extra_info["schemes"] = rows
    print_header("Protection schemes: predicted vs measured overhead")
    print(json.dumps(rows, indent=2))


def main() -> None:
    rows = []
    for case in CASES:
        rows.extend(measure_schemes(*case))
    check(rows)
    print(json.dumps(rows, indent=2))
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(
            {"protection_overhead": rows, "provenance": provenance()},
            fh,
            indent=2,
        )
    print(f"\nwrote {OUTPUT}")


if __name__ == "__main__":
    main()
