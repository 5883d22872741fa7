"""Plain-text tables (Table I, generic result tables, campaign views).

The campaign-facing formatters at the bottom render from the *persisted*
representation of results — plain outcome histograms and
``ObjectReport``-shaped dicts as returned by the campaign store — rather
than from live in-memory analysis objects, so ``python -m repro campaign
status|report`` can reconstruct every table from the SQLite file alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table with a header rule.

    Cells are stringified; columns are sized to their widest entry.
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt(list(headers)), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def table1_rows() -> List[Dict[str, object]]:
    """Metadata rows of Table I (benchmarks, code segments, target objects)."""
    from repro.workloads.registry import TABLE1_ROWS, get_workload

    return [get_workload(name).describe() for name in TABLE1_ROWS]


def format_table1() -> str:
    """Table I rendered as text."""
    rows = table1_rows()
    return format_table(
        ["Name", "Benchmark description", "Code segment", "Target data objects"],
        [
            [
                str(row["name"]).upper(),
                row["description"],
                row["code_segment"],
                ", ".join(row["target_objects"]),
            ]
            for row in rows
        ],
    )


# --------------------------------------------------------------------- #
# campaign-store views
# --------------------------------------------------------------------- #
#: Column order for outcome-class histograms (matches OutcomeClass values).
OUTCOME_COLUMNS: Tuple[str, ...] = (
    "identical",
    "acceptable",
    "unacceptable",
    "crash",
    "hang",
)

#: Outcome classes counted as masked/successful by campaigns.
_SUCCESS_OUTCOMES = frozenset({"identical", "acceptable"})


def format_outcome_table(
    histograms: Dict[str, Dict[str, int]], z: float = 1.96
) -> str:
    """Per-object outcome histogram with a Wilson CI on the masking rate.

    ``histograms`` maps object name to ``{outcome_class_value: count}`` —
    exactly what :meth:`repro.campaigns.store.CampaignStore.outcome_histograms`
    returns.
    """
    from repro.campaigns.stats import wilson_interval

    rows = []
    for object_name in sorted(histograms):
        hist = histograms[object_name]
        trials = sum(hist.values())
        successes = sum(
            count for outcome, count in hist.items() if outcome in _SUCCESS_OUTCOMES
        )
        low, high = wilson_interval(successes, trials, z)
        rate = successes / trials if trials else 0.0
        rows.append(
            [object_name, trials]
            + [hist.get(column, 0) for column in OUTCOME_COLUMNS]
            + [f"{rate:.3f}", f"[{low:.3f}, {high:.3f}]"]
        )
    return format_table(
        ["object", "tests", *OUTCOME_COLUMNS, "masked", "wilson CI"], rows
    )


def format_advf_report_table(reports: Dict[str, Dict[str, object]]) -> str:
    """aDVF summary table from persisted ``ObjectReport.to_dict()`` payloads.

    Objects are ordered from most to least resilient (highest aDVF first),
    reproducing the ranking view of the paper's evaluation.
    """
    def advf_of(payload: Dict[str, object]) -> float:
        return float(payload["result"]["value"])  # type: ignore[index]

    rows = []
    for object_name in sorted(reports, key=lambda n: advf_of(reports[n]), reverse=True):
        payload = reports[object_name]
        result = payload["result"]
        rows.append(
            [
                object_name,
                f"{float(result['value']):.4f}",  # type: ignore[index]
                result["participations"],  # type: ignore[index]
                payload.get("injections", 0),
                payload.get("propagation_checks", 0),
                payload.get("unresolved", 0),
            ]
        )
    return format_table(
        ["object", "aDVF", "participations", "injections", "propagation", "unresolved"],
        rows,
    )


def format_shard_table(
    rows: Sequence[Dict[str, object]], limit: Optional[int] = None
) -> str:
    """Per-shard execution view for ``python -m repro campaign status``.

    Each row is a flat dict with ``shard``, ``object``, ``batch``, ``run``,
    ``specs``, ``inject_s`` and ``analysis_s`` keys (assembled by the CLI
    from the store's shard records).  ``analysis_s`` is the time the
    analysis passes — participation discovery and fault-site enumeration
    over the cached columnar trace — spent on the shard's data object;
    ``inject_s`` is the shard's injection wall-clock.

    Optional replay-batch keys (``rbatches``, ``memo_hits``,
    ``memo_misses`` — schema v4) add the batched-replay scheduler view:
    lockstep walks (= snapshot restores) per shard, the resulting
    faults-per-restore amortization, and the convergence-memo hit rate
    among divergent replays.  Shards recorded before batching render
    ``-`` in those columns.
    """
    rendered = []
    for row in (rows if limit is None else rows[-limit:]):
        specs = int(row["specs"])  # type: ignore[arg-type]
        inject_s = float(row["inject_s"])  # type: ignore[arg-type]
        batches = int(row.get("rbatches", 0))  # type: ignore[arg-type]
        memo_hits = int(row.get("memo_hits", 0))  # type: ignore[arg-type]
        memo_probes = memo_hits + int(row.get("memo_misses", 0))  # type: ignore[arg-type]
        rendered.append(
            [
                row["shard"],
                row["object"],
                row["batch"],
                row["run"],
                specs,
                f"{inject_s:.2f}",
                f"{float(row['analysis_s']):.3f}",  # type: ignore[arg-type]
                f"{specs / inject_s:.0f}" if inject_s > 0 else "-",
                batches if batches else "-",
                f"{specs / batches:.1f}" if batches else "-",
                f"{memo_hits / memo_probes:.2f}" if memo_probes else "-",
            ]
        )
    return format_table(
        ["shard", "object", "batch", "run", "specs", "inject s", "analysis s",
         "specs/s", "rbatch", "faults/restore", "memo hit"],
        rendered,
    )


def format_metrics_table(snapshot: Dict[str, object]) -> str:
    """Render a metrics snapshot (registry ``to_dict`` shape) as one table.

    ``snapshot`` is a :meth:`repro.obs.metrics.MetricsRegistry.to_dict`
    payload — live, or read back from the store's ``run_metrics`` rows —
    so ``python -m repro stats`` renders entirely from persisted data.
    Counters and gauges show their value; histograms show their
    observation count and mean (seconds for ``*_seconds`` series).
    """

    def labels_str(labels: Dict[str, object]) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"

    def num(value: object) -> str:
        number = float(value)  # type: ignore[arg-type]
        if number == int(number) and abs(number) < 1e15:
            return str(int(number))
        return f"{number:.4g}"

    rows = []
    for entry in snapshot.get("counters", ()):  # type: ignore[union-attr]
        rows.append(
            [entry["name"], labels_str(entry["labels"]), "counter",
             num(entry["value"]), "-"]
        )
    for entry in snapshot.get("gauges", ()):  # type: ignore[union-attr]
        rows.append(
            [entry["name"], labels_str(entry["labels"]), "gauge",
             num(entry["value"]), "-"]
        )
    for entry in snapshot.get("histograms", ()):  # type: ignore[union-attr]
        count = int(entry["count"])
        mean = float(entry["sum"]) / count if count else 0.0
        rows.append(
            [entry["name"], labels_str(entry["labels"]), "histogram",
             num(count), f"{mean:.4f}"]
        )
    return format_table(["metric", "labels", "kind", "value", "mean"], rows)


def format_protection_plan_table(plan: Dict[str, object]) -> str:
    """Render a persisted protection plan (``ProtectionPlan.to_dict`` shape).

    One row per selected object plus its predicted overhead share; the
    trailing summary line states total predicted overhead against the
    budget and any objects left unprotected.
    """
    base_ops = int(plan["base_ops"]) or 1  # type: ignore[arg-type]
    rows = []
    for selection in plan["selections"]:  # type: ignore[union-attr]
        extra = int(selection["predicted_extra_ops"])  # type: ignore[index]
        rows.append(
            [
                selection["object_name"],  # type: ignore[index]
                selection["scheme"],  # type: ignore[index]
                f"{float(selection['advf']):.4f}",  # type: ignore[index]
                f"{float(selection['vulnerability']):.1f}",  # type: ignore[index]
                f"{float(selection['predicted_reduction']):.1f}",  # type: ignore[index]
                extra,
                f"{extra / base_ops:.2f}x",
            ]
        )
    table = format_table(
        ["object", "scheme", "aDVF", "unmasked mass", "predicted reduction",
         "extra ops", "overhead"],
        rows,
    )
    summary = (
        f"predicted total: {int(plan['predicted_extra_ops'])} extra ops "  # type: ignore[arg-type]
        f"({int(plan['predicted_extra_ops']) / base_ops:.2f}x of "  # type: ignore[arg-type]
        f"{base_ops} base) under budget {float(plan['budget']):g}x"  # type: ignore[arg-type]
    )
    unprotected = list(plan.get("unprotected", []))  # type: ignore[arg-type]
    if unprotected:
        summary += f"; unprotected: {', '.join(str(n) for n in unprotected)}"
    return table + "\n" + summary


def format_validation_table(rows: Sequence[Dict[str, object]]) -> str:
    """Residual-vulnerability table from persisted ``validation_runs`` rows.

    Each input row is a flat dict with ``object``, ``scheme``, ``variant``,
    ``tests``, ``successes`` keys (store record shape).  Baseline and
    protected measurements of one object are folded into a single output
    row with the masked-fraction delta the closed loop is judged by.
    """
    by_object: Dict[str, Dict[str, Dict[str, object]]] = {}
    for row in rows:
        by_object.setdefault(str(row["object"]), {})[str(row["variant"])] = row

    def fraction(row: Optional[Dict[str, object]]) -> Optional[float]:
        if row is None or not int(row["tests"]):  # type: ignore[arg-type]
            return None
        return int(row["successes"]) / int(row["tests"])  # type: ignore[arg-type]

    rendered = []
    for object_name in sorted(by_object):
        pair = by_object[object_name]
        baseline, protected = pair.get("baseline"), pair.get("protected")
        base_f, prot_f = fraction(baseline), fraction(protected)
        source = protected or baseline or {}
        rendered.append(
            [
                object_name,
                source.get("scheme", ""),
                baseline["tests"] if baseline else "-",
                f"{base_f:.3f}" if base_f is not None else "-",
                protected["tests"] if protected else "-",
                f"{prot_f:.3f}" if prot_f is not None else "-",
                (
                    f"{prot_f - base_f:+.3f}"
                    if base_f is not None and prot_f is not None
                    else "-"
                ),
            ]
        )
    return format_table(
        ["object", "scheme", "base tests", "base masked", "prot tests",
         "prot masked", "delta"],
        rendered,
    )


def format_timeline(
    records: Sequence[Dict[str, object]],
    width: int = 40,
    limit: Optional[int] = None,
) -> str:
    """Per-shard phase waterfall for ``python -m repro timeline``.

    Each record is a flat dict in the store's ``run_spans`` shape —
    ``run_id``, ``name``, ``pid``, ``shard_index``, ``start_ts``,
    ``duration_s`` and a ``labels`` dict — exactly what
    :meth:`repro.campaigns.store.CampaignStore.run_spans` rows decode to,
    so the waterfall renders entirely from persisted data.

    One section per orchestrator run.  Rows are ordered by wall-clock
    start; the trailing bar column draws each span's ``[start, end)``
    against the run's wall-clock extent, which makes concurrency overlap
    (worker pids injecting in parallel) directly visible.  Spans that
    belong to no shard (``shard_index`` -1: trace acquisition, analysis
    passes, the run span itself) render ``-`` in the shard column.  The
    per-run summary line reports wall-clock, distinct recording pids, the
    peak number of simultaneously-active pids and the aggregate
    busy-time/wall-clock parallelism factor.
    """
    if not records:
        return "no spans recorded"
    by_run: Dict[int, List[Dict[str, object]]] = {}
    for record in records:
        by_run.setdefault(int(record.get("run_id", 0)), []).append(record)

    sections = []
    for run_id in sorted(by_run):
        spans = sorted(
            by_run[run_id],
            key=lambda r: (float(r["start_ts"]), int(r.get("depth", 0))),
        )
        t0 = min(float(r["start_ts"]) for r in spans)
        wall = max(
            float(r["start_ts"]) + float(r["duration_s"]) for r in spans
        ) - t0
        rows = []
        for record in spans if limit is None else spans[:limit]:
            start = float(record["start_ts"]) - t0
            duration = float(record["duration_s"])
            shard = int(record.get("shard_index", -1))
            labels = record.get("labels") or {}
            rows.append(
                [
                    str(record["name"]),
                    shard if shard >= 0 else "-",
                    labels.get("object", "-") if isinstance(labels, dict) else "-",
                    record.get("pid", "-"),
                    f"{start:.3f}",
                    f"{duration:.3f}",
                    _waterfall_bar(start, duration, wall, width),
                ]
            )
        table = format_table(
            ["phase", "shard", "object", "pid", "start s", "dur s", "timeline"],
            rows,
        )
        shown = len(rows)
        summary = _timeline_summary(spans, t0, wall)
        header = f"run {run_id}: {len(spans)} spans"
        if shown < len(spans):
            header += f" (showing first {shown})"
        sections.append(f"{header}\n{table}\n{summary}")
    return "\n\n".join(sections)


def _waterfall_bar(start: float, duration: float, wall: float, width: int) -> str:
    if wall <= 0 or width <= 0:
        return "|" + "#" * max(1, width) + "|"
    begin = min(width - 1, int(start / wall * width))
    length = max(1, int(round(duration / wall * width)))
    length = min(length, width - begin)
    return "|" + " " * begin + "#" * length + " " * (width - begin - length) + "|"


def _timeline_summary(
    spans: Sequence[Dict[str, object]], t0: float, wall: float
) -> str:
    # merge each pid's span intervals, then sweep all pids' merged
    # intervals: peak = max simultaneously-busy pids (process concurrency),
    # parallelism = total busy time / wall-clock
    by_pid: Dict[object, List[Tuple[float, float]]] = {}
    for record in spans:
        start = float(record["start_ts"]) - t0
        by_pid.setdefault(record.get("pid", 0), []).append(
            (start, start + float(record["duration_s"]))
        )
    busy_total = 0.0
    events: List[Tuple[float, int]] = []
    for intervals in by_pid.values():
        intervals.sort()
        merged: List[Tuple[float, float]] = []
        for begin, end in intervals:
            if merged and begin <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((begin, end))
        for begin, end in merged:
            busy_total += end - begin
            events.append((begin, 1))
            events.append((end, -1))
    events.sort()
    peak = active = 0
    for _, delta in events:
        active += delta
        peak = max(peak, active)
    parallelism = busy_total / wall if wall > 0 else 0.0
    return (
        f"wall {wall:.3f}s, {len(by_pid)} pids, peak concurrency {peak}, "
        f"parallelism {parallelism:.2f}x"
    )


def format_campaign_list(
    rows: Sequence[Dict[str, object]], limit: Optional[int] = None
) -> str:
    """Campaign overview table for ``python -m repro campaign status``.

    Each row is a flat dict with ``campaign_id``, ``workload``, ``plan``,
    ``status``, ``shards``, ``injections`` keys (assembled by the CLI from
    store records).
    """
    rendered = [
        [
            row["campaign_id"],
            row["workload"],
            row["plan"],
            row["status"],
            row["shards"],
            row["injections"],
        ]
        for row in (rows if limit is None else rows[:limit])
    ]
    return format_table(
        ["campaign", "workload", "plan", "status", "shards", "injections"], rendered
    )
