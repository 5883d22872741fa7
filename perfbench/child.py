"""Child-process entry points the benchmark times.

    python perfbench/child.py campaign --out FILE -- ARGS...
        ``repro.campaigns.cli.main(["campaign", "run", ...])`` in this
        process, with every call in ``tracer.LAYER_CALLS`` wrapped
    python perfbench/child.py advf --seed S --out FILE [--setup-only] [--trace]
        aDVF reports for the Table I workloads' target objects, each
        workload built with ``seed=S`` and analysed with the default
        ``AnalysisConfig``

Each writes one JSON document to FILE.  Run from the checkout root with
``PYTHONPATH=src``.
"""

import time

_T0 = time.perf_counter()  # before every other import: in-process wall start

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from typing import Dict, Optional  # noqa: E402

from harness import counter_totals  # noqa: E402
from tracer import IMPORT_SPAN, Tracer, install  # noqa: E402


def _layer_payload(tracer: Optional[Tracer]) -> Optional[Dict[str, dict]]:
    if tracer is None:
        return None
    return {
        name: vars(totals) for name, totals in sorted(tracer.totals().items())
    }


def _write(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def run_campaign(args) -> int:
    tracer = Tracer()
    span = tracer.begin(IMPORT_SPAN)
    from repro.campaigns.cli import main

    install(tracer)
    tracer.end(span)
    returncode = main(args.cli)
    _write(args.out, {
        "wall_s": time.perf_counter() - _T0,
        "layers": _layer_payload(tracer),
    })
    return returncode


def run_advf(args) -> int:
    tracer = Tracer() if args.trace else None
    span = tracer.begin(IMPORT_SPAN) if tracer else None
    from repro.core.advf import AdvfEngine, AnalysisConfig
    from repro.obs.metrics import registry
    from repro.workloads.registry import TABLE1_ROWS, get_workload

    if tracer:
        install(tracer)
        tracer.end(span)
    workloads = [get_workload(name, seed=args.seed) for name in TABLE1_ROWS]
    for workload in workloads:
        workload.module()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        _write(args.out, {"setup_s": setup_s})
        return 0

    reports: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    speculation: Dict[str, int] = {}
    segments: Dict[str, float] = {}
    start = time.perf_counter()
    for workload in workloads:
        engine = AdvfEngine(workload, AnalysisConfig())
        began = time.perf_counter()
        try:
            analysed = engine.analyze()
        except Exception as exc:  # a failed workload is counted, not fatal
            errors[workload.name] = f"{type(exc).__name__}: {exc}"
            continue
        segments[workload.name] = time.perf_counter() - began
        for name, report in analysed.objects.items():
            reports[f"{workload.name}/{name}"] = report.to_dict()
        for key, value in engine.speculation_stats.items():
            speculation[key] = speculation.get(key, 0) + value
    advf_s = time.perf_counter() - start
    _write(args.out, {
        "setup_s": setup_s,
        "advf_s": advf_s,
        "segments": segments,
        "wall_s": time.perf_counter() - _T0,
        "reports": reports,
        "errors": errors,
        "speculation": speculation,
        "counters": counter_totals(registry().to_dict()),
        "layers": _layer_payload(tracer),
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    sub = parser.add_subparsers(dest="mode", required=True)
    campaign = sub.add_parser("campaign")
    campaign.add_argument("--out", required=True)
    campaign.add_argument("cli", nargs=argparse.REMAINDER)
    advf = sub.add_parser("advf")
    advf.add_argument("--seed", type=int, required=True)
    advf.add_argument("--out", required=True)
    advf.add_argument("--setup-only", action="store_true")
    advf.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "campaign":
        if args.cli[:1] == ["--"]:
            args.cli = args.cli[1:]
        return run_campaign(args)
    return run_advf(args)


if __name__ == "__main__":
    sys.exit(main())
