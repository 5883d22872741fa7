"""``python -m repro`` — the campaign command line.

Subcommands::

    repro campaign run WORKLOAD --plan SPEC [options]   start / continue
    repro campaign resume TARGET [options]              continue an interrupted one
    repro campaign status [TARGET]                      progress + outcome tables
    repro campaign export TARGET [--out FILE]           JSONL dump of the store rows
    repro campaign report TARGET [options]              aDVF tables (from the store)
    repro stats TARGET [--promfile FILE]                telemetry tables (from the store)
    repro timeline TARGET [--run N]                     flight-recorder waterfall (from the store)
    repro obs serve [--port N]                          live HTTP observability endpoint
    repro bench check [--tolerance F]                   bench-regression watchdog
    repro protect plan|apply|validate|report ...        selective protection
    repro workloads                                     list registered workloads

``campaign run``/``resume`` accept ``--serve [PORT]`` (or the
``REPRO_OBS_PORT`` environment variable) to start the observability
endpoint in-process, so a running campaign is scrapeable at
``/metrics`` and watchable at ``/events`` while it executes.

``TARGET`` is either a campaign id (``c0123abcd…`` as printed by ``run``)
or a workload name combined with ``--plan`` — the content-addressed id is
recomputed from them, so ``run`` followed by ``resume`` with the same
arguments lands on the same campaign without copying ids around.

The store location comes from ``--store`` or the ``REPRO_STORE``
environment variable (default ``campaigns.sqlite``); worker counts from
``--workers`` or ``REPRO_WORKERS``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.campaigns.orchestrator import (
    DEFAULT_SHARD_SIZE,
    CampaignOrchestrator,
)
from repro.campaigns.plans import parse_plan, plan_from_dict
from repro.campaigns.store import CampaignStore, compute_campaign_id
from repro.obs.log import get_logger
from repro.protection import cli as protect_cli
from repro.reporting.tables import (
    format_advf_report_table,
    format_campaign_list,
    format_metrics_table,
    format_outcome_table,
    format_shard_table,
    format_table,
    format_timeline,
)
from repro.vm.engine import LANE_STOP_CAUSES
from repro.workloads.registry import validate_workload, workload_summaries

DEFAULT_STORE = "campaigns.sqlite"


def _parse_set(values: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``--set key=value`` overrides (values decoded as JSON
    when possible, kept as strings otherwise)."""
    out: Dict[str, object] = {}
    for item in values:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOARD reproduction: durable fault-injection campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list registered workloads")

    campaign = sub.add_parser("campaign", help="run and inspect campaigns")
    csub = campaign.add_subparsers(dest="action", required=True)

    def common(p: argparse.ArgumentParser, with_exec: bool = False) -> None:
        p.add_argument(
            "--store",
            default=None,
            help=f"SQLite store path (default: $REPRO_STORE or {DEFAULT_STORE})",
        )
        if with_exec:
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: $REPRO_WORKERS or cores-1)")
            p.add_argument("--max-shards", type=int, default=None,
                           help="execute at most N shards this run (smoke/interrupt)")
            p.add_argument("--serve", nargs="?", const=0, type=int, default=None,
                           metavar="PORT",
                           help="serve the live observability endpoint while the "
                                "campaign runs (bare --serve: $REPRO_OBS_PORT or "
                                "the default port)")

    def target_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("target", help="campaign id, or workload name (with --plan)")
        p.add_argument("--plan", default=None, help="plan spec when TARGET is a workload")
        p.add_argument("--objects", default=None,
                       help="comma-separated data objects (default: workload targets)")
        p.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                       help=f"specs per shard (default {DEFAULT_SHARD_SIZE})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="workload constructor override (repeatable)")

    run = csub.add_parser("run", help="start (or continue) a campaign")
    run.add_argument("workload", help="registered workload name")
    run.add_argument("--plan", required=True,
                     help="sampling plan: exhaustive[:STRIDE] | fixed:N[@SEED] | "
                          "stratified:NxI[@SEED] | adaptive:H[xBATCH][@SEED]")
    run.add_argument("--objects", default=None,
                     help="comma-separated data objects (default: workload targets)")
    run.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                     help=f"specs per shard (default {DEFAULT_SHARD_SIZE})")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="workload constructor override (repeatable)")
    common(run, with_exec=True)

    resume = csub.add_parser("resume", help="resume an interrupted campaign")
    target_args(resume)
    common(resume, with_exec=True)

    status = csub.add_parser("status", help="campaign progress and outcomes")
    status.add_argument("target", nargs="?", default=None,
                        help="campaign id or workload name (with --plan); "
                             "omit to list all campaigns")
    status.add_argument("--plan", default=None)
    status.add_argument("--objects", default=None)
    status.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE)
    status.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    status.add_argument("--metrics", action="store_true",
                        help="append the campaign's merged metrics table")
    common(status)

    export = csub.add_parser("export", help="dump a campaign as JSON lines")
    target_args(export)
    export.add_argument("--out", default="-", help="output file (default: stdout)")
    common(export)

    report = csub.add_parser("report", help="aDVF report tables (store-backed)")
    target_args(report)
    report.add_argument("--max-injections", type=int, default=100,
                        help="injection budget per object when computing reports")
    report.add_argument("--bit-stride", type=int, default=8,
                        help="bit stride of the analysis error model")
    report.add_argument("--refresh", action="store_true",
                        help="recompute reports even if already stored")
    common(report, with_exec=True)

    stats = sub.add_parser(
        "stats",
        help="campaign telemetry: shard timings, hit rates, merged metrics",
    )
    target_args(stats)
    stats.add_argument("--promfile", default=None, metavar="FILE",
                       help="also write the merged metrics as a Prometheus "
                            "textfile (node-exporter collector format)")
    common(stats)

    timeline = sub.add_parser(
        "timeline",
        help="flight-recorder waterfall: per-shard span timings from the store",
    )
    target_args(timeline)
    timeline.add_argument("--run", type=int, default=None,
                          help="show one orchestrator run only (default: all)")
    timeline.add_argument("--width", type=int, default=40,
                          help="timeline bar width in characters (default 40)")
    timeline.add_argument("--limit", type=int, default=None,
                          help="show at most N spans per run")
    common(timeline)

    obs = sub.add_parser("obs", help="live observability endpoint")
    osub = obs.add_subparsers(dest="action", required=True)
    serve = osub.add_parser(
        "serve",
        help="serve /metrics, /healthz, /campaigns and SSE /events over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="port (default: $REPRO_OBS_PORT or 9208; 0 = ephemeral)")
    common(serve)

    bench = sub.add_parser("bench", help="bench-regression watchdog")
    bsub = bench.add_subparsers(dest="action", required=True)
    check = bsub.add_parser(
        "check",
        help="re-run watched benchmarks against the committed BENCH_*.json "
             "baselines; exit nonzero on regression past tolerance",
    )
    check.add_argument("--tolerance", type=float, default=None,
                       help="relative regression tolerance (default 0.2 = 20%%); "
                            "metrics with their own tolerance (campaign "
                            "scaling: 0.3) keep it")
    check.add_argument("--bench", action="append", default=None,
                       metavar="NAME",
                       help="benchmark to check (repeatable; default: all watched)")
    check.add_argument("--update", action="store_true",
                       help="rewrite the baseline measurements from the fresh run "
                            "(history is kept either way)")
    check.add_argument("--no-record", action="store_true",
                       help="compare only; do not append a history entry")

    protect_cli.register(sub, common)

    return parser


# --------------------------------------------------------------------- #
# target resolution
# --------------------------------------------------------------------- #
def _objects_tuple(args) -> Optional[Sequence[str]]:
    if getattr(args, "objects", None):
        return tuple(part.strip() for part in args.objects.split(",") if part.strip())
    return None


def _parse_plan_arg(args):
    try:
        return parse_plan(args.plan, objects=_objects_tuple(args))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _resolve_campaign_id(store: CampaignStore, args) -> str:
    """TARGET → campaign id: a stored id verbatim, or workload + --plan."""
    target = args.target
    if target and store.has_campaign(target):
        return target
    if target is None:
        raise SystemExit("a campaign id or workload name is required")
    try:
        workload = validate_workload(target)
    except KeyError as exc:
        raise SystemExit(
            f"{target!r} is neither a campaign id in {store.path!r} nor a "
            f"known workload: {exc}"
        ) from None
    if not args.plan:
        raise SystemExit(
            f"TARGET {target!r} is a workload name; pass --plan to identify "
            "the campaign (ids are derived from workload + plan)"
        )
    plan = _parse_plan_arg(args)
    kwargs = _parse_set(args.set)
    campaign_id = compute_campaign_id(
        workload, kwargs, plan.to_dict(), args.shard_size
    )
    if not store.has_campaign(campaign_id):
        raise SystemExit(
            f"no campaign for workload {workload!r} with plan {args.plan!r} "
            f"in {store.path!r} (expected id {campaign_id})"
        )
    return campaign_id


def _open_store(args) -> CampaignStore:
    path = args.store or os.environ.get("REPRO_STORE") or DEFAULT_STORE
    return CampaignStore(path)


def _print_result(store: CampaignStore, result) -> None:
    print(
        f"campaign {result.campaign_id}: {result.status} "
        f"(run {result.run_id}: executed {result.executed_shards} shards / "
        f"{result.executed_injections} injections, skipped "
        f"{result.skipped_shards} already-persisted shards)"
    )
    if result.histograms:
        print()
        print(format_outcome_table(result.histograms))


# --------------------------------------------------------------------- #
# in-process observability endpoint (campaign run/resume --serve)
# --------------------------------------------------------------------- #
def _maybe_serve(args, store_path: str):
    """Start the observability endpoint next to a campaign, if requested.

    ``--serve PORT`` binds that port; bare ``--serve`` (or just setting
    ``REPRO_OBS_PORT``) uses the environment's port or the default.
    Returns the running server, or ``None`` when serving is off.
    """
    env_port = os.environ.get("REPRO_OBS_PORT")
    if getattr(args, "serve", None) is None and not env_port:
        return None
    from repro.obs.serve import DEFAULT_PORT, ObsServer

    port = args.serve if args.serve else int(env_port or DEFAULT_PORT)
    server = ObsServer(port=port, store_path=store_path).start()
    print(f"observability endpoint: {server.url}", file=sys.stderr)
    return server


def _stop_server(server) -> None:
    """Stop the in-process endpoint, honouring the ``REPRO_OBS_GRACE``
    linger (seconds) so scrapers can still read the finished campaign."""
    if server is None:
        return
    grace = float(os.environ.get("REPRO_OBS_GRACE", "0") or 0)
    if grace > 0:
        time.sleep(grace)
    server.stop()


def _cmd_run(args) -> int:
    plan = _parse_plan_arg(args)
    with _open_store(args) as store:
        orchestrator = CampaignOrchestrator(
            store,
            args.workload,
            workload_kwargs=_parse_set(args.set),
            plan=plan,
            workers=args.workers,
            shard_size=args.shard_size,
        )
        server = _maybe_serve(args, store.path)
        try:
            result = orchestrator.run(max_shards=args.max_shards)
            _print_result(store, result)
        finally:
            _stop_server(server)
    return 0


def _cmd_resume(args) -> int:
    with _open_store(args) as store:
        campaign_id = _resolve_campaign_id(store, args)
        orchestrator = CampaignOrchestrator.from_store(
            store,
            campaign_id,
            workers=args.workers,
        )
        server = _maybe_serve(args, store.path)
        try:
            result = orchestrator.run(max_shards=args.max_shards)
            _print_result(store, result)
        finally:
            _stop_server(server)
    return 0


def _cmd_status(args) -> int:
    with _open_store(args) as store:
        if args.target is None:
            rows = []
            for record in store.campaigns():
                status = store.status(record.campaign_id)
                plan = plan_from_dict(record.plan)
                rows.append(
                    {
                        "campaign_id": record.campaign_id,
                        "workload": record.workload,
                        "plan": plan.describe(),
                        "status": record.status,
                        "shards": status.shards_done,
                        "injections": status.injections_done,
                    }
                )
            if not rows:
                print(f"no campaigns in {store.path!r}")
            else:
                print(format_campaign_list(rows))
            return 0
        campaign_id = _resolve_campaign_id(store, args)
        status = store.status(campaign_id)
        record = status.record
        plan = plan_from_dict(record.plan)
        print(f"campaign   : {campaign_id}")
        print(f"workload   : {record.workload} {record.workload_kwargs or ''}".rstrip())
        print(f"plan       : {plan.describe()}")
        print(f"status     : {record.status}")
        print(f"trace      : {record.trace_digest or '-'} (cached columnar "
              f"golden trace; see REPRO_TRACE_CACHE)")
        print(f"shards done: {status.shards_done} ({status.injections_done} injections)")
        for run_id, executed, skipped in status.runs:
            print(f"  run {run_id}: executed {executed} shards, skipped {skipped}")
        if status.shards:
            print()
            print(format_shard_table(_shard_rows(status.shards), limit=20))
        if status.histograms:
            print()
            print(format_outcome_table(status.histograms))
        if getattr(args, "metrics", False):
            merged = store.campaign_metrics(campaign_id)
            print()
            if any(merged.values()):
                print(format_metrics_table(merged))
            else:
                print("no run metrics recorded (REPRO_METRICS=0, or a "
                      "pre-v5 campaign)")
    return 0


def _shard_rows(shards) -> List[Dict[str, object]]:
    """Store shard records → the flat row dicts ``format_shard_table`` takes."""
    return [
        {
            "shard": shard.shard_index,
            "object": shard.object_name,
            "batch": shard.batch,
            "run": shard.run_id,
            "specs": shard.spec_count,
            "inject_s": shard.duration_s,
            "analysis_s": shard.analysis_s,
            "rbatches": shard.batches,
            "memo_hits": shard.memo_hits,
            "memo_misses": shard.memo_misses,
        }
        for shard in shards
    ]


def _counter_total(snapshot: Dict[str, object], name: str) -> int:
    """Sum of one counter over every label combination in a snapshot."""
    return int(sum(
        entry["value"]
        for entry in snapshot.get("counters", ())  # type: ignore[union-attr]
        if entry["name"] == name
    ))


def _cmd_stats(args) -> int:
    with _open_store(args) as store:
        campaign_id = _resolve_campaign_id(store, args)
        status = store.status(campaign_id)
        record = status.record
        merged = store.campaign_metrics(campaign_id)
        print(f"campaign : {campaign_id} ({record.workload}, {record.status})")
        print(f"repro    : {record.repro_version or '-'} "
              f"(store schema v{store.schema_version})")
        print(f"runs     : {len(store.run_metrics(campaign_id))} of "
              f"{len(status.runs)} with metrics")
        if status.shards:
            print()
            print(format_shard_table(_shard_rows(status.shards), limit=20))
        print()
        for label, hit_name, miss_name in (
            ("trace cache", "trace_cache.hits", "trace_cache.misses"),
            ("replay memo", "replay.memo_hits", "replay.memo_misses"),
        ):
            hits = _counter_total(merged, hit_name)
            misses = _counter_total(merged, miss_name)
            probes = hits + misses
            rate = f"{hits / probes:.2f}" if probes else "-"
            print(f"{label:<11}: {hits} hits / {misses} misses "
                  f"(hit rate {rate})")
        persist_hits = _counter_total(merged, "replay.memo_persist_hits")
        persist_loads = _counter_total(merged, "replay.memo_persist_loads")
        persist_merges = _counter_total(merged, "replay.memo_persist_merges")
        print(f"{'memo store':<11}: {persist_hits} warm-start hits / "
              f"{persist_loads} loads / {persist_merges} merges "
              f"(persisted fault-result memo; see REPRO_MEMO_CACHE)")
        walk_ops = _counter_total(merged, "replay.walk_ops")
        fused_ops = _counter_total(merged, "replay.walk_fused_ops")
        lane_ops = _counter_total(merged, "replay.walk_lane_ops")
        fused_share = f"{fused_ops / walk_ops:.2f}" if walk_ops else "-"
        stops = dict.fromkeys(LANE_STOP_CAUSES.values(), 0)
        for entry in merged.get("counters", ()):  # type: ignore[union-attr]
            if entry["name"] == "replay.walk_stops":
                cause = entry["labels"].get("cause", "")
                stops[cause] = stops.get(cause, 0) + int(entry["value"])
        stop_text = " / ".join(f"{cause} {count}" for cause, count in stops.items())
        print(f"{'walk':<11}: {walk_ops} ops / {fused_ops} in fused segments "
              f"(fused share {fused_share}; {lane_ops} carrying divergence; "
              f"stops {stop_text})")
        # the variants this build compiles; another one found in an older
        # store's run metrics (``traced``) prints after them
        compiles = {variant: 0 for variant in ("plain", "lanes")}
        compile_s = 0.0
        for entry in merged.get("counters", ()):  # type: ignore[union-attr]
            if entry["name"] == "mir.segment_compiles":
                variant = entry["labels"].get("variant", "")
                compiles[variant] = compiles.get(variant, 0) + int(entry["value"])
            elif entry["name"] == "mir.segment_compile_s":
                compile_s += entry["value"]
        compile_text = " / ".join(f"{v} {n}" for v, n in compiles.items())
        print(f"{'mir compile':<11}: {sum(compiles.values())} segment variants "
              f"in {compile_s:.3f} s ({compile_text})")
        planned = _counter_total(merged, "advf.speculated")
        batches = _counter_total(merged, "advf.speculation_windows")
        print(f"{'speculation':<11}: {planned} injections planned in "
              f"{batches} batches")
        visits = _counter_total(merged, "advf.propagation_visits")
        steps = _counter_total(merged, "advf.propagation_steps")
        visit_share = f"{visits / steps:.2f}" if steps else "-"
        print(f"{'propagation':<11}: {visits} events visited / {steps} "
              f"window steps (visit share {visit_share})")
        print()
        if any(merged.values()):
            print(format_metrics_table(merged))
        else:
            print("no run metrics recorded (REPRO_METRICS=0, or a pre-v5 "
                  "campaign)")
        if args.promfile:
            from repro.obs.prom import render_promfile

            with open(args.promfile, "w", encoding="utf-8") as fh:
                fh.write(render_promfile(merged))
            print(f"wrote promfile to {args.promfile}", file=sys.stderr)
    return 0


def _cmd_timeline(args) -> int:
    with _open_store(args) as store:
        campaign_id = _resolve_campaign_id(store, args)
        spans = store.run_spans(campaign_id, run_id=args.run)
        print(f"campaign {campaign_id}: {len(spans)} recorded spans")
        records = [
            {
                "run_id": span.run_id,
                "name": span.name,
                "depth": span.depth,
                "pid": span.pid,
                "shard_index": span.shard_index,
                "start_ts": span.start_ts,
                "duration_s": span.duration_s,
                "labels": span.labels,
            }
            for span in spans
        ]
        print(format_timeline(records, width=args.width, limit=args.limit))
    return 0


def _cmd_obs_serve(args) -> int:
    from repro.obs.serve import DEFAULT_PORT, ObsServer

    port = args.port
    if port is None:
        port = int(os.environ.get("REPRO_OBS_PORT") or DEFAULT_PORT)
    store_path = args.store or os.environ.get("REPRO_STORE") or DEFAULT_STORE
    server = ObsServer(host=args.host, port=port, store_path=store_path)
    server.start()
    print(
        f"serving observability endpoint on {server.url} "
        f"(store {store_path!r}); Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_bench_check(args) -> int:
    from repro.obs.bench import (
        DEFAULT_TOLERANCE,
        check_benches,
        format_reports,
    )

    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    reports = check_benches(
        args.bench,
        tolerance=tolerance,
        update=args.update,
        record=not args.no_record,
    )
    print(format_reports(reports))
    regressed = [report.name for report in reports if report.regressed]
    if regressed:
        print(
            f"bench regression past tolerance {tolerance:.0%}: "
            f"{', '.join(regressed)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench check ok ({len(reports)} benchmarks within "
        f"{tolerance:.0%} of baseline)",
        file=sys.stderr,
    )
    return 0


def _cmd_export(args) -> int:
    with _open_store(args) as store:
        campaign_id = _resolve_campaign_id(store, args)
        if args.out == "-":
            lines = store.export_jsonl(campaign_id, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                lines = store.export_jsonl(campaign_id, fh)
            print(f"wrote {lines} lines to {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from repro.core.patterns import SingleBitModel
    from repro.core.reports import AnalysisConfig

    with _open_store(args) as store:
        campaign_id = _resolve_campaign_id(store, args)
        orchestrator = CampaignOrchestrator.from_store(
            store,
            campaign_id,
            workers=args.workers,
        )
        config = AnalysisConfig(
            max_injections=args.max_injections,
            error_model=SingleBitModel(bit_stride=args.bit_stride),
            equivalence_samples=1,
            injection_samples_per_class=1,
        )
        reports = orchestrator.compute_reports(config, refresh=args.refresh)
        payloads = {name: report.to_dict() for name, report in reports.items()}
        print(format_advf_report_table(payloads))
        histograms = store.outcome_histograms(campaign_id)
        if histograms:
            print()
            print(format_outcome_table(histograms))
    return 0


def _cmd_workloads() -> int:
    rows = workload_summaries()
    print(
        format_table(
            ["name", "description", "target objects"],
            [
                [row["name"], row["description"], ", ".join(row["target_objects"])]
                for row in rows
            ],
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "workloads":
            return _cmd_workloads()
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "timeline":
            return _cmd_timeline(args)
        if args.command == "obs":
            return _cmd_obs_serve(args)
        if args.command == "bench":
            return _cmd_bench_check(args)
        if args.command == "protect":
            return protect_cli.dispatch(
                args,
                open_store=_open_store,
                parse_set=_parse_set,
                say=lambda line: get_logger("protect").info("progress", line),
            )
        action = {
            "run": _cmd_run,
            "resume": _cmd_resume,
            "status": _cmd_status,
            "export": _cmd_export,
            "report": _cmd_report,
        }[args.action]
        return action(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
