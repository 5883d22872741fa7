"""B-MIR — fused superinstruction backend vs the per-op dispatch loop.

Golden-run comparison on every registered workload:

* **op**: the classic engine loop — one dispatch, one bounds-checked
  execution per dynamic instruction;
* **block**: the MIR backend — loop-free straight-line segments compiled
  into exec-specialized superinstructions, dispatched whole whenever no
  fault, pause boundary or step limit falls inside the window.

Bit-identity is verified **before** any timing is trusted: outputs (as raw
bytes), return values and step counts must match the op loop on all
workloads, with a sink-free run and a full columnar trace (a traced run
records through the op loop on either backend, one event per step).

Acceptance bar: **≥ 3× geometric-mean speedup** on sink-free golden runs
(target from the issue: ≥ 5×).  Results land in pytest-benchmark
``extra_info`` (or ``BENCH_mir.json`` when run standalone)::

    python benchmarks/bench_mir.py
"""

from __future__ import annotations

import json
import math
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

from repro.obs.log import provenance
from repro.tracing.columnar import ColumnarTrace
from repro.vm.engine import Engine
from repro.workloads.registry import get_workload, workload_names

#: Scale factor for timing repeats (1 = quick laptop/CI run).
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
#: Timing repeats per backend (best-of).
REPEATS = max(3, int(os.environ.get("REPRO_BENCH_MIR_REPEATS", "3"))) * SCALE
#: The geomean speedup the backend must deliver on golden runs.
SPEEDUP_BAR = 3.0
OUTPUT = os.environ.get("REPRO_BENCH_MIR_JSON", "BENCH_mir.json")


def _golden(workload, backend, sink=None):
    instance = workload.fresh_instance()
    engine = Engine(
        instance.module,
        instance.memory,
        sink=sink,
        max_steps=workload.max_steps,
        backend=backend,
    )
    result = engine.run(workload.entry, instance.args)
    outputs = {
        name: instance.memory.object(name).values()
        for name in workload.output_objects
    }
    return outputs, result.return_value, result.steps


def _assert_identical(name, mode, op, block):
    where = f"{name} ({mode})"
    assert op[2] == block[2], f"{where}: steps {op[2]} vs {block[2]}"
    assert op[1] == block[1] or (
        isinstance(op[1], float)
        and isinstance(block[1], float)
        and math.isnan(op[1])
        and math.isnan(block[1])
    ), f"{where}: return {op[1]!r} vs {block[1]!r}"
    for obj in op[0]:
        assert np.array_equal(
            op[0][obj].view(np.uint8), block[0][obj].view(np.uint8)
        ), f"{where}: output {obj!r} differs"


def verify_workload(name):
    """Bit-identity op vs block on the sink-free fast path and with a full
    trace, which both backends record through the op loop."""
    workload = get_workload(name)
    _assert_identical(name, "sink-free", _golden(workload, "op"), _golden(workload, "block"))

    op_trace, block_trace = ColumnarTrace(), ColumnarTrace()
    op = _golden(workload, "op", sink=op_trace)
    block = _golden(workload, "block", sink=block_trace)
    _assert_identical(name, "traced", op, block)
    assert len(op_trace) == len(block_trace) == op[2], name
    for column in ("opcodes", "values", "producers", "addresses"):
        a = getattr(op_trace, column, None)
        b = getattr(block_trace, column, None)
        if callable(a):
            a, b = a(), b()
        if a is not None:
            assert np.array_equal(np.asarray(a), np.asarray(b)), f"{name}: {column}"
    return workload


def _best_time(workload, backend):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _golden(workload, backend)
        best = min(best, time.perf_counter() - start)
    return best


def measure_workload(name):
    workload = verify_workload(name)  # also warms module + MIR caches
    op_s = _best_time(workload, "op")
    block_s = _best_time(workload, "block")
    steps = _golden(workload, "block")[2]
    return {
        "workload": name,
        "steps": steps,
        "op_s": op_s,
        "block_s": block_s,
        "op_mops": steps / op_s / 1e6 if op_s else 0.0,
        "block_mops": steps / block_s / 1e6 if block_s else 0.0,
        "speedup": op_s / block_s if block_s else float("inf"),
    }


def measure_all():
    rows = [measure_workload(name) for name in workload_names()]
    speedups = [row["speedup"] for row in rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "workloads": {row["workload"]: row for row in rows},
        "geomean_speedup": geomean,
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "speedup_bar": SPEEDUP_BAR,
    }


def _check(results):
    assert results["geomean_speedup"] >= SPEEDUP_BAR, (
        f"MIR backend geomean speedup {results['geomean_speedup']:.2f}x is "
        f"below the {SPEEDUP_BAR}x acceptance bar"
    )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------- #
def test_bench_mir(once, benchmark):
    from conftest import print_header

    results = once(measure_all)
    benchmark.extra_info["geomean_speedup"] = results["geomean_speedup"]
    for name, row in results["workloads"].items():
        benchmark.extra_info[name] = {k: v for k, v in row.items() if k != "workload"}
    print_header(
        f"MIR superinstruction backend vs op loop "
        f"(bar >= {SPEEDUP_BAR}x geomean over {len(results['workloads'])} workloads)"
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
