"""E-ENG — engine microbenchmark: pre-decode + checkpointed replay speedup.

Two measurements against the seed tree-walking interpreter (kept as a test
oracle in ``tests/oracles``):

* **decode**: one full traced-free execution of a workload through the
  interpreter vs the pre-decoded engine (pure dispatch speedup);
* **replay**: an injection campaign of ``REPRO_BENCH_FAULTS`` (default 200)
  faults executed the seed way (fresh instance, full interpreted re-run per
  fault) vs one :meth:`~repro.core.replay.ReplayContext.replay_many`
  batch (restore a snapshot once, walk the suffix in lockstep, stop each
  fault early on convergence).

The replay acceptance bar for the engine refactor is a ≥ 3× campaign
throughput improvement; the observed speedups are recorded in the
``extra_info`` of the pytest-benchmark JSON so the perf trajectory captures
engine throughput over time.  Runable standalone too:

    python benchmarks/bench_engine.py
"""

from __future__ import annotations

import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(0, os.path.join(_ROOT, "src"))
# the interpreter and from-scratch injection live with the test oracles
sys.path.insert(0, os.path.join(_ROOT, "tests"))

from oracles.interpreter import Interpreter
from oracles.rerun import run_interpreted
from repro.core.replay import ReplayContext
from repro.core.sites import enumerate_fault_sites
from repro.vm import Engine
from repro.vm.errors import VMError
from repro.workloads.registry import get_workload

#: Number of faults in the campaign benchmark (acceptance bar: >= 200).
FAULTS = max(1, int(os.environ.get("REPRO_BENCH_FAULTS", "200")))
WORKLOAD = os.environ.get("REPRO_BENCH_WORKLOAD", "matmul")


def _campaign_specs(workload, faults):
    """A deterministic spread of fault specs across the whole fault space."""
    trace = workload.traced_run().trace
    specs = []
    for target in workload.target_objects:
        sites = enumerate_fault_sites(trace, target, bit_stride=3)
        per_target = max(1, faults // len(workload.target_objects))
        step = max(1, len(sites) // per_target)
        specs.extend(site.to_spec() for site in sites[::step])
    return specs[:faults]


def _run_seed_style(workload, spec):
    """The seed path: fresh instance, full interpreted re-execution."""
    try:
        run_interpreted(workload, fault=spec)
    except VMError:
        pass


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_decode_speedup(workload_name: str = WORKLOAD):
    """One untraced execution: interpreter vs pre-decoded engine."""
    workload = get_workload(workload_name)
    workload.module()  # compile outside the timed region

    def interp():
        instance = workload.fresh_instance()
        Interpreter(instance.module, instance.memory).run(workload.entry, instance.args)

    def engine():
        instance = workload.fresh_instance()
        Engine(instance.module, instance.memory).run(workload.entry, instance.args)

    engine()  # warm the decode cache; decoding is once-per-module
    t_interp = min(_time(interp) for _ in range(3))
    t_engine = min(_time(engine) for _ in range(3))
    steps = workload.golden_run().steps
    return {
        "workload": workload_name,
        "steps": steps,
        "interpreter_s": t_interp,
        "engine_s": t_engine,
        "decode_speedup": t_interp / t_engine if t_engine else float("inf"),
        "engine_events_per_s": steps / t_engine if t_engine else float("inf"),
    }


def measure_replay_speedup(workload_name: str = WORKLOAD, faults: int = FAULTS):
    """Injection campaign: seed full re-runs vs checkpointed replay."""
    workload = get_workload(workload_name)
    specs = _campaign_specs(workload, faults)

    def seed_campaign():
        for spec in specs:
            _run_seed_style(workload, spec)

    context = ReplayContext(workload)

    def replay_campaign():
        context.replay_many(specs)

    t_seed = _time(seed_campaign)
    t_replay = _time(replay_campaign)
    return {
        "workload": workload_name,
        "faults": len(specs),
        "checkpoints": len(context.snapshots),
        "checkpoint_interval": context.checkpoint_interval,
        "seed_rerun_s": t_seed,
        "replay_s": t_replay,
        "replay_speedup": t_seed / t_replay if t_replay else float("inf"),
        "converged_replays": context.stats.converged,
        "faults_per_s": len(specs) / t_replay if t_replay else float("inf"),
    }


# --------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------- #
def test_bench_engine_decode(once, benchmark):
    from conftest import print_header

    stats = once(measure_decode_speedup)
    benchmark.extra_info.update(stats)
    print_header("Engine: pre-decode dispatch speedup over the interpreter")
    print(json.dumps(stats, indent=2))
    assert stats["decode_speedup"] > 1.0


def test_bench_engine_replay_campaign(once, benchmark):
    from conftest import print_header

    stats = once(measure_replay_speedup)
    benchmark.extra_info.update(stats)
    print_header(
        f"Engine: checkpointed replay vs seed re-execution "
        f"({stats['faults']} faults)"
    )
    print(json.dumps(stats, indent=2))
    # acceptance bar of the engine refactor: >= 3x campaign throughput
    assert stats["replay_speedup"] >= 3.0


def main() -> None:
    decode = measure_decode_speedup()
    replay = measure_replay_speedup()
    print(json.dumps({"decode": decode, "replay": replay}, indent=2))
    if replay["faults"] >= 200:
        assert replay["replay_speedup"] >= 3.0, (
            f"replay speedup {replay['replay_speedup']:.2f}x below the 3x bar"
        )


if __name__ == "__main__":
    main()
