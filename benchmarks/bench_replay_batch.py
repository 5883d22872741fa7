"""B-RBATCH — batched replay scheduler vs one from-scratch run per fault.

End-to-end injection-campaign comparison on the same spec lists:

* **rerun**: one full faulty execution of a fresh workload instance per
  fault (``WorkloadInstance.run(fault=spec)`` in a loop) — no snapshot,
  digest or memo;
* **batched**: the same specs submitted through
  ``ReplayContext.replay_many`` — one restore + one shared lockstep suffix
  walk per batch, copy-on-write forks for divergent windows, convergence
  memoization across repeats.

Acceptance bar: **≥ 3× end-to-end speedup on matmul** (cg is reported
alongside; its index objects evict more divergent replays, so it gains
less), with batched outcomes **bit-identical** to the reruns (outputs,
return values, step counts, and crash/hang types+messages are compared
fault by fault before any timing is trusted).

Results land in pytest-benchmark ``extra_info`` (or
``BENCH_replay_batch.json`` when run standalone)::

    python benchmarks/bench_replay_batch.py
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

import numpy as np

from repro.core.replay import ReplayContext
from repro.obs.log import provenance
from repro.core.sites import enumerate_fault_sites
from repro.workloads.registry import get_workload

#: Scale factor for fault budgets (1 = quick laptop/CI run).
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
#: Faults per workload in the comparison.
FAULTS = max(40, int(os.environ.get("REPRO_BENCH_RBATCH_FAULTS", "300"))) * SCALE
#: The speedup the scheduler must deliver on matmul.
SPEEDUP_BAR = 3.0
OUTPUT = os.environ.get("REPRO_BENCH_RBATCH_JSON", "BENCH_replay_batch.json")

WORKLOADS = [
    ("matmul", {}),
    ("cg", {}),
]


def _specs_for(workload, budget):
    trace = workload.traced_run().trace
    specs = []
    for target in workload.target_objects:
        sites = enumerate_fault_sites(trace, target, bit_stride=8)
        specs.extend(site.to_spec() for site in sites)
    if len(specs) > budget:
        stride = len(specs) / budget
        specs = [specs[int(i * stride)] for i in range(budget)]
    return specs


def _run_reruns(workload, specs):
    out = []
    for spec in specs:
        try:
            out.append(("ok", workload.fresh_instance().run(fault=spec)))
        except Exception as exc:  # noqa: BLE001 - crash parity checked below
            out.append(("error", exc))
    return out


def _assert_bit_identical(name, specs, reruns, batched):
    for index, (tag, payload) in enumerate(reruns):
        result = batched[index]
        where = f"{name} spec {index} ({specs[index]})"
        if tag == "error":
            assert result.error is not None, where
            assert type(result.error) is type(payload), where
            assert str(result.error) == str(payload), where
            continue
        assert result.error is None, f"{where}: {result.error!r}"
        outcome = result.outcome
        assert outcome.return_value == payload.return_value, where
        assert outcome.steps == payload.steps, where
        for obj in payload.outputs:
            assert np.array_equal(
                outcome.outputs[obj].view(np.uint8),
                payload.outputs[obj].view(np.uint8),
            ), f"{where}: output {obj}"


def measure_workload(name, kwargs, faults=FAULTS):
    """Rerun vs batched wall-clock over an identical spec list."""
    workload = get_workload(name, **kwargs)
    specs = _specs_for(workload, faults)

    start = time.perf_counter()
    reruns = _run_reruns(workload, specs)
    rerun_s = time.perf_counter() - start

    batched_context = ReplayContext(workload)
    start = time.perf_counter()
    batched = batched_context.replay_many(specs)
    batched_s = time.perf_counter() - start

    _assert_bit_identical(name, specs, reruns, batched)

    stats = batched_context.stats.to_dict()
    return {
        "workload": name,
        "faults": len(specs),
        "rerun_s": rerun_s,
        "batched_s": batched_s,
        "speedup": rerun_s / batched_s if batched_s else float("inf"),
        "rerun_faults_per_s": len(specs) / rerun_s if rerun_s else 0.0,
        "batched_faults_per_s": len(specs) / batched_s if batched_s else 0.0,
        "batch_stats": stats,
        "faults_per_restore": (
            stats["faults"] / stats["batches"] if stats["batches"] else 0.0
        ),
    }


def measure_all():
    results = {name: measure_workload(name, kwargs) for name, kwargs in WORKLOADS}
    results["speedup_bar"] = SPEEDUP_BAR
    return results


def _check(results):
    matmul = results["matmul"]
    assert matmul["speedup"] >= SPEEDUP_BAR, (
        f"batched replay speedup {matmul['speedup']:.2f}x on matmul is below "
        f"the {SPEEDUP_BAR}x acceptance bar"
    )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------- #
def test_bench_replay_batch(once, benchmark):
    from conftest import print_header

    results = once(measure_all)
    for name, _ in WORKLOADS:
        stats = results[name]
        benchmark.extra_info[name] = {
            k: v for k, v in stats.items() if k != "workload"
        }
    print_header(
        f"Batched replay scheduler vs one rerun per fault ({FAULTS} faults/workload, "
        f"bar >= {SPEEDUP_BAR}x on matmul)"
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
