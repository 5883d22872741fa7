"""Bench-regression watchdog: ``python -m repro bench check``.

The repository commits one ``BENCH_*.json`` baseline per performance
claim (MIR speedup, replay batching, speculative injection, telemetry
overhead, campaign worker scaling).  This module turns those snapshots
into *gates with history*:

* ``check`` re-runs a benchmark's ``measure_all()`` (the same entry point
  the standalone scripts and pytest-benchmark use), compares the fresh
  numbers against the committed baseline, and fails past a configurable
  tolerance;
* every check appends a provenance-stamped entry to the baseline file's
  ``history`` list, so the JSON files become trajectories rather than
  snapshots — a slow drift across ten commits is visible even when every
  individual step stayed inside tolerance.

Only **hardware-independent ratio metrics** participate (speedups and
overheads — both halves of each ratio were measured on the same machine
in the same run); absolute seconds and throughputs are recorded in the
history but never gated, so a slower CI runner cannot fail the check.
Regression is judged per metric *and* on the geometric mean of the
normalized fresh/baseline ratios (normalized so > 1 is an improvement
for both higher-is-better speedups and lower-is-better overheads).
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.log import provenance

#: Default relative tolerance before a ratio metric counts as regressed.
DEFAULT_TOLERANCE = 0.2


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: a dotted path into the bench payload.

    ``*`` path segments fan out over the dict keys at that level (sorted,
    so reports are deterministic).  ``direction`` is ``"higher"`` (speedup
    — more is better) or ``"lower"`` (overhead — less is better).
    ``tolerance``, when set, replaces the check's tolerance for this
    metric (the geomean keeps the check's).
    """

    path: str
    direction: str  # "higher" | "lower"
    tolerance: Optional[float] = None


@dataclass(frozen=True)
class BenchSpec:
    """One watched benchmark: its baseline file, script and gated metrics."""

    name: str
    baseline: str
    script: str
    metrics: Tuple[MetricSpec, ...]


#: The watched benchmarks.  Of ``bench_campaign`` only the 1 -> 2 worker
#: scaling of the injection phase is gated; its throughputs are absolute
#: (hardware-dependent) and stay ungated history.  The scaling gate keeps
#: a 30% tolerance whatever the check's: a looser bound would no longer
#: tell the committed ~1.65x from split shards (~0.85x).
BENCHES: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            name="mir",
            baseline="BENCH_mir.json",
            script="bench_mir.py",
            metrics=(
                MetricSpec("workloads.*.speedup", "higher"),
                MetricSpec("geomean_speedup", "higher"),
            ),
        ),
        BenchSpec(
            name="obs",
            baseline="BENCH_obs.json",
            script="bench_obs.py",
            metrics=(
                MetricSpec("workloads.*.overhead", "lower"),
                MetricSpec("geomean_overhead", "lower"),
            ),
        ),
        BenchSpec(
            name="advf_inject",
            baseline="BENCH_advf_inject.json",
            script="bench_advf_inject.py",
            metrics=(
                MetricSpec("timings.*.speedup", "higher"),
                MetricSpec("geomean_speedup", "higher"),
            ),
        ),
        BenchSpec(
            name="campaign",
            baseline="BENCH_campaign.json",
            script="bench_campaign.py",
            metrics=(MetricSpec("scaling.speedup", "higher", tolerance=0.3),),
        ),
        BenchSpec(
            name="replay_batch",
            baseline="BENCH_replay_batch.json",
            script="bench_replay_batch.py",
            metrics=(
                MetricSpec("matmul.speedup", "higher"),
                MetricSpec("cg.speedup", "higher"),
            ),
        ),
    )
}


@dataclass
class MetricFinding:
    """One compared metric of one benchmark."""

    metric: str
    direction: str
    baseline: float
    fresh: float
    #: Normalized fresh/baseline ratio — > 1 means the fresh run improved.
    ratio: float
    regressed: bool
    #: The tolerance this metric was judged against.
    tolerance: float = DEFAULT_TOLERANCE


@dataclass
class BenchReport:
    """Everything one benchmark's check produced."""

    name: str
    tolerance: float
    findings: List[MetricFinding] = field(default_factory=list)
    geomean_ratio: float = 1.0
    geomean_regressed: bool = False

    @property
    def regressed(self) -> bool:
        return self.geomean_regressed or any(f.regressed for f in self.findings)


# --------------------------------------------------------------------- #
# metric extraction + comparison (pure — unit-testable without timing)
# --------------------------------------------------------------------- #
def resolve_metrics(
    payload: Dict[str, object], metrics: Sequence[MetricSpec]
) -> Dict[str, Tuple[float, str]]:
    """Expand metric paths against a payload: ``path -> (value, direction)``.

    Wildcard segments fan out over sorted dict keys; paths that resolve to
    nothing (a workload absent from one side) simply yield no entry —
    comparison happens on the intersection.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for spec in metrics:
        for resolved, value in _walk(payload, spec.path.split("."), ""):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[resolved] = (float(value), spec.direction)
    return out


def _walk(node: object, segments: List[str], prefix: str):
    if not segments:
        yield prefix, node
        return
    if not isinstance(node, dict):
        return
    head, rest = segments[0], segments[1:]
    keys = sorted(node) if head == "*" else ([head] if head in node else [])
    for key in keys:
        path = f"{prefix}.{key}" if prefix else key
        yield from _walk(node[key], rest, path)


def compare_runs(
    name: str,
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    metrics: Sequence[MetricSpec],
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchReport:
    """Gate a fresh bench payload against its committed baseline.

    A higher-is-better metric regresses when ``fresh < baseline * (1 -
    tolerance)``; a lower-is-better one when ``fresh > baseline * (1 +
    tolerance)`` — both reduce to ``normalized ratio < 1 - tolerance`` up
    to rounding, and the geometric mean of the normalized ratios is held
    to the same bound so many small coordinated slips still trip the gate.
    A metric with its own ``MetricSpec.tolerance`` is judged against that
    instead.
    """
    report = BenchReport(name=name, tolerance=tolerance)
    base_values = resolve_metrics(baseline, metrics)
    fresh_values = resolve_metrics(fresh, metrics)
    limits: Dict[str, float] = {}
    for spec in metrics:
        limit = tolerance if spec.tolerance is None else spec.tolerance
        for path in resolve_metrics(baseline, (spec,)):
            limits[path] = limit
    ratios: List[float] = []
    for path in sorted(set(base_values) & set(fresh_values)):
        base, direction = base_values[path]
        new = fresh_values[path][0]
        if base <= 0 or new <= 0:
            continue
        ratio = new / base if direction == "higher" else base / new
        ratios.append(ratio)
        report.findings.append(
            MetricFinding(
                metric=path,
                direction=direction,
                baseline=base,
                fresh=new,
                ratio=ratio,
                regressed=ratio < 1.0 - limits[path],
                tolerance=limits[path],
            )
        )
    if ratios:
        report.geomean_ratio = math.exp(
            sum(math.log(r) for r in ratios) / len(ratios)
        )
        report.geomean_regressed = report.geomean_ratio < 1.0 - tolerance
    return report


# --------------------------------------------------------------------- #
# fresh runs + baseline history
# --------------------------------------------------------------------- #
def run_bench(spec: BenchSpec, bench_dir: Path) -> Dict[str, object]:
    """Execute one benchmark script's ``measure_all()`` and return its payload.

    The script is loaded by file path (``benchmarks/`` is not a package),
    exactly as ``python benchmarks/bench_X.py`` would run it.
    """
    path = bench_dir / spec.script
    module_spec = importlib.util.spec_from_file_location(
        f"repro_bench_{spec.name}", path
    )
    if module_spec is None or module_spec.loader is None:
        raise FileNotFoundError(f"cannot load benchmark script {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.measure_all()


def history_entry(report: BenchReport, fresh: Dict[str, object]) -> Dict[str, object]:
    """The provenance-stamped trajectory point one check appends."""
    entry: Dict[str, object] = {
        "recorded_at": time.time(),
        "tolerance": report.tolerance,
        "geomean_ratio": report.geomean_ratio,
        "regressed": report.regressed,
        "metrics": {f.metric: f.fresh for f in report.findings},
    }
    entry.update(provenance())
    return entry


def append_history(
    baseline_path: Path,
    entry: Dict[str, object],
    fresh: Optional[Dict[str, object]] = None,
) -> None:
    """Append a history entry to a baseline file (rewriting it in place).

    When ``fresh`` is given (``--update``), the baseline measurements are
    replaced by the fresh run — the history (including this entry) is the
    only part that always survives, so an updated baseline still carries
    its past.
    """
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    history = payload.get("history")
    if not isinstance(history, list):
        history = []
    history.append(entry)
    if fresh is not None:
        replacement = dict(fresh)
        replacement["provenance"] = provenance()
        payload = replacement
    payload["history"] = history
    baseline_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def check_benches(
    names: Optional[Sequence[str]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_dir: Optional[Path] = None,
    bench_dir: Optional[Path] = None,
    update: bool = False,
    record: bool = True,
) -> List[BenchReport]:
    """Run the watchdog over the named benchmarks (default: all watched).

    Returns one :class:`BenchReport` per benchmark; callers exit nonzero
    when any ``report.regressed``.  ``record=False`` skips the history
    append (used by tests that must not touch committed files).
    """
    baseline_dir = baseline_dir or _repo_root()
    bench_dir = bench_dir or (_repo_root() / "benchmarks")
    reports: List[BenchReport] = []
    for name in names or sorted(BENCHES):
        spec = BENCHES.get(name)
        if spec is None:
            raise KeyError(
                f"unknown benchmark {name!r}; watched: {sorted(BENCHES)}"
            )
        baseline_path = baseline_dir / spec.baseline
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        fresh = run_bench(spec, bench_dir)
        report = compare_runs(name, baseline, fresh, spec.metrics, tolerance)
        if record:
            append_history(
                baseline_path,
                history_entry(report, fresh),
                fresh if update else None,
            )
        reports.append(report)
    return reports


def _repo_root() -> Path:
    """The source checkout root (where ``BENCH_*.json`` live)."""
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "benchmarks").is_dir() and any(
            candidate.glob("BENCH_*.json")
        ):
            return candidate
    return Path.cwd()


def format_reports(reports: Sequence[BenchReport]) -> str:
    """The human table ``repro bench check`` prints."""
    from repro.reporting.tables import format_table

    rows = []
    for report in reports:
        for finding in report.findings:
            rows.append(
                [
                    report.name,
                    finding.metric,
                    f"{finding.baseline:.4g}",
                    f"{finding.fresh:.4g}",
                    f"{finding.ratio:.3f}",
                    "REGRESSED" if finding.regressed else "ok",
                ]
            )
        rows.append(
            [
                report.name,
                "(geomean)",
                "",
                "",
                f"{report.geomean_ratio:.3f}",
                "REGRESSED" if report.geomean_regressed else "ok",
            ]
        )
    return format_table(
        ["bench", "metric", "baseline", "fresh", "ratio", "verdict"], rows
    )


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Standalone entry point (the CLI wires ``repro bench check`` here)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--bench", action="append", default=None)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)
    reports = check_benches(
        args.bench, tolerance=args.tolerance, update=args.update
    )
    print(format_reports(reports))
    return 1 if any(r.regressed for r in reports) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
