"""Append-only SQLite persistence for fault-injection campaigns.

The :class:`CampaignStore` is the durable half of the campaign subsystem:
per-spec injection outcomes, per-shard completion records, orchestrator
run bookkeeping and per-object aDVF reports all land here, in one SQLite
file that survives interrupts, crashes and machine restarts.

Design points:

* **Content-addressed campaigns.**  A campaign's identity is the SHA-256
  of its canonical JSON description (workload name + constructor kwargs +
  plan + shard size), so re-running the same command resumes the existing
  campaign instead of duplicating work.
* **Append-only writes.**  A shard's outcomes and its completion row are
  committed in a single transaction, and existing rows are never updated
  (campaign ``status`` is the one mutable column).  A crash mid-shard
  leaves no partial shard behind — resume re-executes it from scratch.
  :meth:`CampaignStore.transaction` groups several shards (a pipeline
  unit) and their spans into one commit.
* **Run accounting.**  Every orchestrator invocation registers a run;
  shards record which run executed them, so tests (and operators) can
  verify a resume re-executed only the unfinished shards.
* **Schema versioning.**  The schema version is stamped into the file on
  creation and checked on open; older stores are migrated in place (v2
  only adds defaulted columns, v3 only adds the protection tables, v4
  adds defaulted replay-batch columns, v5 adds the ``run_metrics`` table
  and a defaulted version column, v6 adds defaulted speculation columns,
  v7 adds the ``run_spans`` table), any other mismatch raises
  :class:`StoreVersionError` instead of silently misreading rows.
* **Protection rows (v3).**  The selective-protection subsystem
  (:mod:`repro.protection`) persists its advisor plans
  (``protection_plans``) and the closed-loop validation campaigns run
  against the protected variants (``validation_runs``), so
  ``python -m repro protect report`` renders entirely from the store.
* **Replay-batch telemetry (v4).**  Shards carry the batched replay
  scheduler's and the injector memo's counters (``batches``,
  ``memo_hits``, ``memo_misses``) so ``campaign status`` can show
  per-shard amortization and memo hit rates;
  ``validation_runs`` carry the ``campaign_id`` of the orchestrated
  campaign that measured them, linking closed-loop validations to their
  shard timings.
* **Run metrics (v5).**  Every orchestrator run persists its merged
  :mod:`repro.obs` metrics snapshot (``run_metrics``, one JSON blob per
  run) and campaigns stamp the ``repro_version`` that created them, so
  ``python -m repro stats`` renders engine/replay/cache telemetry from
  the store alone and exports carry their provenance.
* **Speculation columns (v6).**  Defaulted ``speculated``,
  ``spec_discards`` and ``spec_windows`` shard columns.  Nothing writes
  them (aDVF analyses commit no shard rows; their batch telemetry is
  ``AdvfEngine.speculation_stats`` and the ``advf.*`` counters), so they
  read 0; they stay so that every store keeps one schema.
* **Run spans (v7).**  The campaign flight recorder: every finished span
  an orchestrator run (or its worker processes) records lands in
  ``run_spans`` — name, parent, nesting depth, recording pid, the shard
  the span belongs to (``-1`` for run-scoped "orphan" spans such as trace
  acquisition), wall-clock start and duration, and the full correlation
  label set as JSON.  ``python -m repro timeline`` renders the per-shard
  phase waterfall entirely from these rows, so the time structure of a
  campaign survives process exit exactly like its counters do.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, IO, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.acceptance import OutcomeClass
from repro.core.injector import FaultInjectionResult
from repro.obs.metrics import merge_snapshots
from repro.version import __version__ as _REPRO_VERSION
from repro.vm.faults import FaultSpec, FaultTarget

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.core.reports import ObjectReport

SCHEMA_VERSION = 7

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id     TEXT PRIMARY KEY,
    workload        TEXT NOT NULL,
    workload_kwargs TEXT NOT NULL,
    plan            TEXT NOT NULL,
    shard_size      INTEGER NOT NULL,
    created_at      REAL NOT NULL,
    status          TEXT NOT NULL DEFAULT 'running',
    trace_digest    TEXT NOT NULL DEFAULT '',
    repro_version   TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS runs (
    campaign_id TEXT NOT NULL,
    run_id      INTEGER NOT NULL,
    started_at  REAL NOT NULL,
    executed    INTEGER NOT NULL DEFAULT 0,
    skipped     INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, run_id)
);
CREATE TABLE IF NOT EXISTS shards (
    campaign_id TEXT NOT NULL,
    shard_index INTEGER NOT NULL,
    object_name TEXT NOT NULL,
    batch       INTEGER NOT NULL,
    run_id      INTEGER NOT NULL,
    spec_count  INTEGER NOT NULL,
    duration_s  REAL NOT NULL,
    analysis_s  REAL NOT NULL DEFAULT 0,
    batches     INTEGER NOT NULL DEFAULT 0,
    memo_hits   INTEGER NOT NULL DEFAULT 0,
    memo_misses INTEGER NOT NULL DEFAULT 0,
    speculated    INTEGER NOT NULL DEFAULT 0,
    spec_discards INTEGER NOT NULL DEFAULT 0,
    spec_windows  INTEGER NOT NULL DEFAULT 0,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (campaign_id, shard_index)
);
CREATE TABLE IF NOT EXISTS outcomes (
    campaign_id   TEXT NOT NULL,
    shard_index   INTEGER NOT NULL,
    seq           INTEGER NOT NULL,
    object_name   TEXT NOT NULL,
    dynamic_id    INTEGER NOT NULL,
    bit           INTEGER NOT NULL,
    target        TEXT NOT NULL,
    operand_index INTEGER NOT NULL,
    note          TEXT NOT NULL DEFAULT '',
    outcome       TEXT NOT NULL,
    detail        TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign_id, shard_index, seq)
);
CREATE INDEX IF NOT EXISTS idx_outcomes_object
    ON outcomes (campaign_id, object_name);
CREATE TABLE IF NOT EXISTS reports (
    campaign_id TEXT NOT NULL,
    object_name TEXT NOT NULL,
    report      TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (campaign_id, object_name)
);
CREATE TABLE IF NOT EXISTS protection_plans (
    plan_id         TEXT PRIMARY KEY,
    workload        TEXT NOT NULL,
    workload_kwargs TEXT NOT NULL,
    budget          REAL NOT NULL,
    plan            TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'planned',
    created_at      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS run_metrics (
    campaign_id   TEXT NOT NULL,
    run_id        INTEGER NOT NULL,
    metrics       TEXT NOT NULL,
    repro_version TEXT NOT NULL DEFAULT '',
    recorded_at   REAL NOT NULL,
    PRIMARY KEY (campaign_id, run_id)
);
CREATE TABLE IF NOT EXISTS run_spans (
    campaign_id TEXT NOT NULL,
    run_id      INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    name        TEXT NOT NULL,
    parent      TEXT NOT NULL DEFAULT '',
    depth       INTEGER NOT NULL DEFAULT 0,
    pid         INTEGER NOT NULL DEFAULT 0,
    shard_index INTEGER NOT NULL DEFAULT -1,
    start_ts    REAL NOT NULL,
    duration_s  REAL NOT NULL,
    labels      TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (campaign_id, run_id, seq)
);
CREATE TABLE IF NOT EXISTS validation_runs (
    plan_id     TEXT NOT NULL,
    object_name TEXT NOT NULL,
    variant     TEXT NOT NULL,
    scheme      TEXT NOT NULL DEFAULT '',
    tests       INTEGER NOT NULL,
    successes   INTEGER NOT NULL,
    histogram   TEXT NOT NULL DEFAULT '{}',
    campaign_id TEXT NOT NULL DEFAULT '',
    recorded_at REAL NOT NULL,
    PRIMARY KEY (plan_id, object_name, variant)
);
"""


class StoreVersionError(RuntimeError):
    """The store file was written by an incompatible schema version."""


def _canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def compute_campaign_id(
    workload: str,
    workload_kwargs: Dict[str, object],
    plan: Dict[str, object],
    shard_size: int,
) -> str:
    """Content-addressed campaign identifier.

    Two campaigns with the same workload, constructor kwargs, plan and
    shard partitioning are the same campaign — re-running dedupes into a
    resume.  (Timestamps and store location deliberately do not
    participate.)
    """
    payload = _canonical_json(
        {
            "workload": workload,
            "workload_kwargs": workload_kwargs,
            "plan": plan,
            "shard_size": shard_size,
        }
    )
    return "c" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignRecord:
    """One row of the ``campaigns`` table, with JSON columns decoded."""

    campaign_id: str
    workload: str
    workload_kwargs: Dict[str, object]
    plan: Dict[str, object]
    shard_size: int
    created_at: float
    status: str
    #: Content address of the cached golden trace the campaign plans over
    #: (see :mod:`repro.tracing.cache`); empty until the first run records it.
    trace_digest: str = ""
    #: ``repro.__version__`` that created the campaign (v5) — empty for
    #: campaigns written by older builds.
    repro_version: str = ""


@dataclass(frozen=True)
class ShardRecord:
    """One completed shard."""

    shard_index: int
    object_name: str
    batch: int
    run_id: int
    spec_count: int
    duration_s: float
    #: Seconds spent in the analysis passes (participation discovery + site
    #: enumeration) attributable to the shard's data object.
    analysis_s: float = 0.0
    #: Replay-batch scheduler telemetry (v4): lockstep walks (= snapshot
    #: restores) executed for the shard; memo hits (specs the injector
    #: answered from its table of fault results) and misses (specs that
    #: ran a private replay, which the table then records; a fault the
    #: walk resolves counts as neither).
    #: ``spec_count / batches`` is the faults-per-restore amortization.
    batches: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def faults_per_restore(self) -> float:
        return self.spec_count / self.batches if self.batches else 0.0


@dataclass(frozen=True)
class StoredOutcome:
    """One persisted injection outcome (spec + classification)."""

    shard_index: int
    seq: int
    object_name: str
    spec: FaultSpec
    outcome: OutcomeClass
    detail: str

    def to_result(self) -> FaultInjectionResult:
        return FaultInjectionResult(
            spec=self.spec, outcome=self.outcome, detail=self.detail
        )


@dataclass(frozen=True)
class SpanRecord:
    """One persisted flight-recorder span (a ``run_spans`` row, v7)."""

    run_id: int
    seq: int
    name: str
    parent: str
    depth: int
    #: Pid of the process that recorded the span (orchestrator or worker).
    pid: int
    #: Shard the span executed for; ``-1`` for run-scoped spans (trace
    #: acquisition, analysis, memo merge) that belong to no single shard.
    shard_index: int
    #: Wall-clock start — the cross-process timeline coordinate.
    start_ts: float
    duration_s: float
    #: Correlation labels (campaign/run/shard/caller labels) as recorded.
    labels: Dict[str, str]

    @property
    def end_ts(self) -> float:
        return self.start_ts + self.duration_s


@dataclass(frozen=True)
class ProtectionPlanRecord:
    """One row of the ``protection_plans`` table (v3)."""

    plan_id: str
    workload: str
    workload_kwargs: Dict[str, object]
    budget: float
    #: Full :meth:`repro.protection.advisor.ProtectionPlan.to_dict` payload.
    plan: Dict[str, object]
    status: str
    created_at: float


@dataclass(frozen=True)
class ValidationRunRecord:
    """One closed-loop validation campaign row (v3).

    ``variant`` is ``"baseline"`` (the unprotected workload) or
    ``"protected"`` (the plan's applied variant); ``successes`` counts
    corrected/benign outcomes, so ``successes / tests`` is the masked
    fraction the closed loop compares across variants.
    """

    plan_id: str
    object_name: str
    variant: str
    scheme: str
    tests: int
    successes: int
    histogram: Dict[str, int]
    #: Id of the orchestrated campaign that measured this row (v4) — empty
    #: for rows written before validation ran through the orchestrator.
    campaign_id: str = ""

    @property
    def masked_fraction(self) -> float:
        return self.successes / self.tests if self.tests else 0.0


@dataclass
class CampaignStatus:
    """Aggregate progress view of one campaign."""

    record: CampaignRecord
    shards_done: int
    injections_done: int
    runs: List[Tuple[int, int, int]] = field(default_factory=list)
    histograms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Completed shards in index order (for per-shard timing tables).
    shards: List[ShardRecord] = field(default_factory=list)


class CampaignStore:
    """Append-only SQLite store for campaign results.

    ``path`` may be a filesystem path or ``":memory:"`` (tests).  The
    store is safe to reopen concurrently with readers; writers serialise
    through SQLite's own locking.
    """

    def __init__(self, path: Union[str, Path] = "campaigns.sqlite") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        #: Set inside :meth:`transaction`: writes defer their commit to it.
        self._batched = False
        self._init_schema()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _init_schema(self) -> None:
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                return
            version = int(row[0])
            if version == 1:
                version = self._migrate_v1_to_v2()
            if version == 2:
                version = self._migrate_v2_to_v3()
            if version == 3:
                version = self._migrate_v3_to_v4()
            if version == 4:
                version = self._migrate_v4_to_v5()
            if version == 5:
                version = self._migrate_v5_to_v6()
            if version == 6:
                version = self._migrate_v6_to_v7()
            if version != SCHEMA_VERSION:
                raise StoreVersionError(
                    f"store {self.path!r} has schema version {row[0]}, "
                    f"this build expects {SCHEMA_VERSION}"
                )

    def _migrate_v1_to_v2(self) -> int:
        """v1 → v2: both additions are defaulted columns, so existing rows
        migrate in place and stay fully usable."""
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(campaigns)")
        }
        if "trace_digest" not in columns:
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN "
                "trace_digest TEXT NOT NULL DEFAULT ''"
            )
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(shards)")
        }
        if "analysis_s" not in columns:
            self._conn.execute(
                "ALTER TABLE shards ADD COLUMN analysis_s REAL NOT NULL DEFAULT 0"
            )
        self._conn.execute(
            "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
        )
        return 2

    def _migrate_v2_to_v3(self) -> int:
        """v2 → v3: only adds the (empty) protection tables, which the
        ``CREATE TABLE IF NOT EXISTS`` schema script has already created;
        existing campaign rows are untouched."""
        self._conn.execute(
            "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
        )
        return 3

    def _migrate_v3_to_v4(self) -> int:
        """v3 → v4: defaulted replay-batch columns only — pre-batching
        shards read back with zeroed scheduler counters and stay fully
        usable."""
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(shards)")
        }
        for column in ("batches", "memo_hits", "memo_misses"):
            if column not in columns:
                self._conn.execute(
                    f"ALTER TABLE shards ADD COLUMN {column} "
                    f"INTEGER NOT NULL DEFAULT 0"
                )
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(validation_runs)")
        }
        if "campaign_id" not in columns:
            self._conn.execute(
                "ALTER TABLE validation_runs ADD COLUMN "
                "campaign_id TEXT NOT NULL DEFAULT ''"
            )
        self._conn.execute(
            "UPDATE meta SET value = '4' WHERE key = 'schema_version'"
        )
        return 4

    def _migrate_v4_to_v5(self) -> int:
        """v4 → v5: the (empty) ``run_metrics`` table comes from the schema
        script; the only row change is the defaulted ``repro_version``
        column on campaigns — pre-v5 campaigns read back with an empty
        version stamp and stay fully usable."""
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(campaigns)")
        }
        if "repro_version" not in columns:
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN "
                "repro_version TEXT NOT NULL DEFAULT ''"
            )
        self._conn.execute(
            "UPDATE meta SET value = '5' WHERE key = 'schema_version'"
        )
        return 5

    def _migrate_v5_to_v6(self) -> int:
        """v5 → v6: defaulted speculation columns only — pre-speculation
        shards read back with zeroed counters and stay fully usable."""
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(shards)")
        }
        for column in ("speculated", "spec_discards", "spec_windows"):
            if column not in columns:
                self._conn.execute(
                    f"ALTER TABLE shards ADD COLUMN {column} "
                    f"INTEGER NOT NULL DEFAULT 0"
                )
        self._conn.execute(
            "UPDATE meta SET value = '6' WHERE key = 'schema_version'"
        )
        return 6

    def _migrate_v6_to_v7(self) -> int:
        """v6 → v7: only adds the (empty) ``run_spans`` table, which the
        ``CREATE TABLE IF NOT EXISTS`` schema script has already created;
        pre-v7 campaigns simply have no flight-recorder rows yet."""
        self._conn.execute(
            "UPDATE meta SET value = '7' WHERE key = 'schema_version'"
        )
        return 7

    @property
    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row[0])

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run the block's writes as one transaction.

        Inside the block every write (:meth:`record_shard`,
        :meth:`save_run_spans`, …) defers its commit to the block's end,
        and an exception rolls the whole block back.  The orchestrator
        commits each pipeline unit's shards this way: one commit per unit
        instead of two per shard.
        """
        self._batched = True
        try:
            with self._conn:
                yield
        finally:
            self._batched = False

    def _write(self):
        """The context of one write: its own transaction, or none inside
        :meth:`transaction`."""
        return nullcontext() if self._batched else self._conn

    # ------------------------------------------------------------------ #
    # campaigns
    # ------------------------------------------------------------------ #
    def ensure_campaign(
        self,
        workload: str,
        workload_kwargs: Dict[str, object],
        plan: Dict[str, object],
        shard_size: int,
    ) -> str:
        """Create the campaign row if absent; return its (stable) id."""
        campaign_id = compute_campaign_id(workload, workload_kwargs, plan, shard_size)
        with self._write():
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns "
                "(campaign_id, workload, workload_kwargs, plan, shard_size, "
                " created_at, status, repro_version) "
                "VALUES (?, ?, ?, ?, ?, ?, 'running', ?)",
                (
                    campaign_id,
                    workload,
                    _canonical_json(workload_kwargs),
                    _canonical_json(plan),
                    shard_size,
                    time.time(),
                    _REPRO_VERSION,
                ),
            )
        return campaign_id

    def campaign(self, campaign_id: str) -> CampaignRecord:
        row = self._conn.execute(
            "SELECT campaign_id, workload, workload_kwargs, plan, shard_size, "
            "created_at, status, trace_digest, repro_version FROM campaigns "
            "WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"no campaign {campaign_id!r} in {self.path!r}")
        return CampaignRecord(
            campaign_id=row[0],
            workload=row[1],
            workload_kwargs=json.loads(row[2]),
            plan=json.loads(row[3]),
            shard_size=row[4],
            created_at=row[5],
            status=row[6],
            trace_digest=row[7],
            repro_version=row[8],
        )

    def has_campaign(self, campaign_id: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return row is not None

    def campaigns(self) -> List[CampaignRecord]:
        ids = [
            row[0]
            for row in self._conn.execute(
                "SELECT campaign_id FROM campaigns ORDER BY created_at"
            )
        ]
        return [self.campaign(campaign_id) for campaign_id in ids]

    def set_status(self, campaign_id: str, status: str) -> None:
        with self._write():
            self._conn.execute(
                "UPDATE campaigns SET status = ? WHERE campaign_id = ?",
                (status, campaign_id),
            )

    def set_trace_digest(self, campaign_id: str, trace_digest: str) -> None:
        """Record the digest of the golden-trace artifact the campaign uses.

        Resumed campaigns verify/reuse the cached artifact through this
        digest, so the plan re-derivation provably reads the same trace.
        """
        with self._write():
            self._conn.execute(
                "UPDATE campaigns SET trace_digest = ? WHERE campaign_id = ?",
                (trace_digest, campaign_id),
            )

    # ------------------------------------------------------------------ #
    # runs
    # ------------------------------------------------------------------ #
    def begin_run(self, campaign_id: str) -> int:
        """Register a new orchestrator run; returns its 1-based id."""
        with self._write():
            row = self._conn.execute(
                "SELECT COALESCE(MAX(run_id), 0) FROM runs WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
            run_id = int(row[0]) + 1
            self._conn.execute(
                "INSERT INTO runs (campaign_id, run_id, started_at) VALUES (?, ?, ?)",
                (campaign_id, run_id, time.time()),
            )
        return run_id

    def finish_run(
        self, campaign_id: str, run_id: int, executed: int, skipped: int
    ) -> None:
        with self._write():
            self._conn.execute(
                "UPDATE runs SET executed = ?, skipped = ? "
                "WHERE campaign_id = ? AND run_id = ?",
                (executed, skipped, campaign_id, run_id),
            )

    def run_accounting(self, campaign_id: str) -> List[Tuple[int, int, int]]:
        """``(run_id, executed, skipped)`` per orchestrator run, in order."""
        return [
            (int(r), int(e), int(s))
            for r, e, s in self._conn.execute(
                "SELECT run_id, executed, skipped FROM runs "
                "WHERE campaign_id = ? ORDER BY run_id",
                (campaign_id,),
            )
        ]

    # ------------------------------------------------------------------ #
    # run metrics (schema v5)
    # ------------------------------------------------------------------ #
    def save_run_metrics(
        self, campaign_id: str, run_id: int, metrics: Dict[str, object]
    ) -> None:
        """Persist one run's merged :mod:`repro.obs` metrics snapshot.

        ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
        payload — the orchestrator's registry delta for the run, with every
        worker-process delta already folded in.  Latest write wins, so a
        re-recorded run replaces (never double-counts) its snapshot.
        """
        with self._write():
            self._conn.execute(
                "INSERT OR REPLACE INTO run_metrics "
                "(campaign_id, run_id, metrics, repro_version, recorded_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    run_id,
                    _canonical_json(metrics),
                    _REPRO_VERSION,
                    time.time(),
                ),
            )

    def run_metrics(self, campaign_id: str) -> Dict[int, Dict[str, object]]:
        """Per-run metrics snapshots, keyed by run id (ascending)."""
        return {
            int(row[0]): json.loads(row[1])
            for row in self._conn.execute(
                "SELECT run_id, metrics FROM run_metrics "
                "WHERE campaign_id = ? ORDER BY run_id",
                (campaign_id,),
            )
        }

    def campaign_metrics(self, campaign_id: str) -> Dict[str, object]:
        """Every run's metrics folded into one campaign-level snapshot.

        Uses the registry's merge semantics (counters add, gauges max,
        histogram buckets add), so the result equals what one process
        observing the whole campaign would have recorded.
        """
        return merge_snapshots(*self.run_metrics(campaign_id).values())

    # ------------------------------------------------------------------ #
    # run spans — the flight recorder (schema v7)
    # ------------------------------------------------------------------ #
    def save_run_spans(
        self,
        campaign_id: str,
        run_id: int,
        records: Sequence[Dict[str, object]],
    ) -> int:
        """Append finished-span records (from
        :func:`repro.obs.spans.drain_span_records`) to a run's flight
        recording; returns the number of rows written.

        The shard a span belongs to is read from its ``shard`` correlation
        label; records with no such label persist with ``shard_index=-1``
        (orphan spans — run-scoped phases like trace acquisition).
        Sequence numbers continue from the run's current maximum, so the
        orchestrator can flush per shard without coordinating a counter.
        """
        if not records:
            return 0
        with self._write():
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), -1) FROM run_spans "
                "WHERE campaign_id = ? AND run_id = ?",
                (campaign_id, run_id),
            ).fetchone()
            seq = int(row[0]) + 1
            rows = []
            for record in records:
                labels = dict(record.get("labels") or {})
                try:
                    shard_index = int(labels.get("shard", -1))
                except (TypeError, ValueError):
                    shard_index = -1
                rows.append(
                    (
                        campaign_id,
                        run_id,
                        seq,
                        str(record["name"]),
                        str(record.get("parent") or ""),
                        int(record.get("depth") or 0),
                        int(record.get("pid") or 0),
                        shard_index,
                        float(record["start_ts"]),
                        float(record["duration_s"]),
                        _canonical_json(labels),
                    )
                )
                seq += 1
            self._conn.executemany(
                "INSERT INTO run_spans (campaign_id, run_id, seq, name, "
                "parent, depth, pid, shard_index, start_ts, duration_s, "
                "labels) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def run_spans(
        self, campaign_id: str, run_id: Optional[int] = None
    ) -> List[SpanRecord]:
        """A campaign's flight recording (optionally one run's), ordered
        ``(run_id, seq)`` — i.e. in persistence order within each run."""
        query = (
            "SELECT run_id, seq, name, parent, depth, pid, shard_index, "
            "start_ts, duration_s, labels FROM run_spans WHERE campaign_id = ?"
        )
        params: List[object] = [campaign_id]
        if run_id is not None:
            query += " AND run_id = ?"
            params.append(run_id)
        query += " ORDER BY run_id, seq"
        return [
            SpanRecord(
                run_id=int(row[0]),
                seq=int(row[1]),
                name=row[2],
                parent=row[3],
                depth=int(row[4]),
                pid=int(row[5]),
                shard_index=int(row[6]),
                start_ts=row[7],
                duration_s=row[8],
                labels=json.loads(row[9]),
            )
            for row in self._conn.execute(query, params)
        ]

    # ------------------------------------------------------------------ #
    # shards + outcomes (the append-only core)
    # ------------------------------------------------------------------ #
    def record_shard(
        self,
        campaign_id: str,
        shard_index: int,
        object_name: str,
        batch: int,
        run_id: int,
        duration_s: float,
        results: Sequence[FaultInjectionResult],
        analysis_s: float = 0.0,
        batch_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        """Persist one completed shard and all its outcomes atomically.

        ``batch_stats`` (if given) carries the replay-batch scheduler's
        and the injector memo's counters for this shard — ``batches``,
        ``memo_hits`` and ``memo_misses`` are stamped onto the shard row.
        """
        stats = batch_stats or {}
        with self._write():
            self._conn.executemany(
                "INSERT INTO outcomes (campaign_id, shard_index, seq, object_name, "
                "dynamic_id, bit, target, operand_index, note, outcome, detail) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        campaign_id,
                        shard_index,
                        seq,
                        object_name,
                        result.spec.dynamic_id,
                        result.spec.bit,
                        result.spec.target.value,
                        result.spec.operand_index,
                        result.spec.note,
                        result.outcome.value,
                        result.detail,
                    )
                    for seq, result in enumerate(results)
                ],
            )
            self._conn.execute(
                "INSERT INTO shards (campaign_id, shard_index, object_name, batch, "
                "run_id, spec_count, duration_s, analysis_s, batches, memo_hits, "
                "memo_misses, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    shard_index,
                    object_name,
                    batch,
                    run_id,
                    len(results),
                    duration_s,
                    analysis_s,
                    int(stats.get("batches", 0)),
                    int(stats.get("memo_hits", 0)),
                    int(stats.get("memo_misses", 0)),
                    time.time(),
                ),
            )

    def completed_shards(self, campaign_id: str) -> Dict[int, ShardRecord]:
        """All persisted (fully completed) shards, keyed by shard index."""
        out: Dict[int, ShardRecord] = {}
        for row in self._conn.execute(
            "SELECT shard_index, object_name, batch, run_id, spec_count, "
            "duration_s, analysis_s, batches, memo_hits, memo_misses "
            "FROM shards WHERE campaign_id = ? ORDER BY shard_index",
            (campaign_id,),
        ):
            record = ShardRecord(
                shard_index=int(row[0]),
                object_name=row[1],
                batch=int(row[2]),
                run_id=int(row[3]),
                spec_count=int(row[4]),
                duration_s=row[5],
                analysis_s=row[6],
                batches=int(row[7]),
                memo_hits=int(row[8]),
                memo_misses=int(row[9]),
            )
            out[record.shard_index] = record
        return out

    def outcomes(
        self,
        campaign_id: str,
        object_name: Optional[str] = None,
        shard_index: Optional[int] = None,
    ) -> List[StoredOutcome]:
        """Persisted outcomes in deterministic (shard, seq) order."""
        query = (
            "SELECT shard_index, seq, object_name, dynamic_id, bit, target, "
            "operand_index, note, outcome, detail FROM outcomes WHERE campaign_id = ?"
        )
        params: List[object] = [campaign_id]
        if object_name is not None:
            query += " AND object_name = ?"
            params.append(object_name)
        if shard_index is not None:
            query += " AND shard_index = ?"
            params.append(shard_index)
        query += " ORDER BY shard_index, seq"
        out: List[StoredOutcome] = []
        for row in self._conn.execute(query, params):
            spec = FaultSpec(
                dynamic_id=int(row[3]),
                bit=int(row[4]),
                target=FaultTarget(row[5]),
                operand_index=int(row[6]),
                note=row[7],
            )
            out.append(
                StoredOutcome(
                    shard_index=int(row[0]),
                    seq=int(row[1]),
                    object_name=row[2],
                    spec=spec,
                    outcome=OutcomeClass(row[8]),
                    detail=row[9],
                )
            )
        return out

    def outcome_histograms(self, campaign_id: str) -> Dict[str, Dict[str, int]]:
        """Per-object outcome-class counts (rendered by the reporting layer)."""
        out: Dict[str, Dict[str, int]] = {}
        for obj, outcome, count in self._conn.execute(
            "SELECT object_name, outcome, COUNT(*) FROM outcomes "
            "WHERE campaign_id = ? GROUP BY object_name, outcome",
            (campaign_id,),
        ):
            out.setdefault(obj, {})[outcome] = int(count)
        return out

    def object_tallies(self, campaign_id: str) -> Dict[str, Tuple[int, int]]:
        """Per-object ``(successes, trials)`` for CI computation."""
        tallies: Dict[str, Tuple[int, int]] = {}
        for obj, hist in self.outcome_histograms(campaign_id).items():
            trials = sum(hist.values())
            successes = sum(
                count
                for outcome, count in hist.items()
                if OutcomeClass(outcome).is_success
            )
            tallies[obj] = (successes, trials)
        return tallies

    # ------------------------------------------------------------------ #
    # aDVF reports
    # ------------------------------------------------------------------ #
    def save_report(
        self, campaign_id: str, object_name: str, report: ObjectReport
    ) -> None:
        with self._write():
            self._conn.execute(
                "INSERT OR REPLACE INTO reports "
                "(campaign_id, object_name, report, recorded_at) VALUES (?, ?, ?, ?)",
                (
                    campaign_id,
                    object_name,
                    _canonical_json(report.to_dict()),
                    time.time(),
                ),
            )

    def reports(self, campaign_id: str) -> Dict[str, ObjectReport]:
        from repro.core.reports import ObjectReport

        return {
            row[0]: ObjectReport.from_dict(json.loads(row[1]))
            for row in self._conn.execute(
                "SELECT object_name, report FROM reports "
                "WHERE campaign_id = ? ORDER BY object_name",
                (campaign_id,),
            )
        }

    # ------------------------------------------------------------------ #
    # protection plans + closed-loop validation (schema v3)
    # ------------------------------------------------------------------ #
    def save_protection_plan(
        self,
        plan_id: str,
        workload: str,
        workload_kwargs: Dict[str, object],
        budget: float,
        plan: Dict[str, object],
    ) -> None:
        """Persist an advisor plan (idempotent: plans are content-addressed)."""
        with self._write():
            self._conn.execute(
                "INSERT OR IGNORE INTO protection_plans "
                "(plan_id, workload, workload_kwargs, budget, plan, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    plan_id,
                    workload,
                    _canonical_json(workload_kwargs),
                    budget,
                    _canonical_json(plan),
                    time.time(),
                ),
            )

    def protection_plan(self, plan_id: str) -> ProtectionPlanRecord:
        row = self._conn.execute(
            "SELECT plan_id, workload, workload_kwargs, budget, plan, status, "
            "created_at FROM protection_plans WHERE plan_id = ?",
            (plan_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"no protection plan {plan_id!r} in {self.path!r}")
        return ProtectionPlanRecord(
            plan_id=row[0],
            workload=row[1],
            workload_kwargs=json.loads(row[2]),
            budget=row[3],
            plan=json.loads(row[4]),
            status=row[5],
            created_at=row[6],
        )

    def has_protection_plan(self, plan_id: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM protection_plans WHERE plan_id = ?", (plan_id,)
        ).fetchone()
        return row is not None

    def protection_plans(
        self, workload: Optional[str] = None
    ) -> List[ProtectionPlanRecord]:
        """All plans (optionally of one workload), oldest first."""
        query = "SELECT plan_id FROM protection_plans"
        params: List[object] = []
        if workload is not None:
            query += " WHERE workload = ?"
            params.append(workload)
        query += " ORDER BY created_at, plan_id"
        return [
            self.protection_plan(row[0])
            for row in self._conn.execute(query, params)
        ]

    def set_plan_status(self, plan_id: str, status: str) -> None:
        with self._write():
            self._conn.execute(
                "UPDATE protection_plans SET status = ? WHERE plan_id = ?",
                (status, plan_id),
            )

    def save_validation_run(
        self,
        plan_id: str,
        object_name: str,
        variant: str,
        scheme: str,
        tests: int,
        successes: int,
        histogram: Dict[str, int],
        campaign_id: str = "",
    ) -> None:
        """Persist one residual-vulnerability measurement (latest wins).

        ``campaign_id`` links the row to the orchestrated campaign whose
        shards measured it, so shard timings and replay-batch telemetry
        stay reachable from the validation view.
        """
        with self._write():
            self._conn.execute(
                "INSERT OR REPLACE INTO validation_runs "
                "(plan_id, object_name, variant, scheme, tests, successes, "
                "histogram, campaign_id, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    plan_id,
                    object_name,
                    variant,
                    scheme,
                    tests,
                    successes,
                    _canonical_json(histogram),
                    campaign_id,
                    time.time(),
                ),
            )

    def validation_runs(self, plan_id: str) -> List[ValidationRunRecord]:
        """Validation rows of a plan, ordered (object, variant)."""
        return [
            ValidationRunRecord(
                plan_id=row[0],
                object_name=row[1],
                variant=row[2],
                scheme=row[3],
                tests=int(row[4]),
                successes=int(row[5]),
                histogram=json.loads(row[6]),
                campaign_id=row[7],
            )
            for row in self._conn.execute(
                "SELECT plan_id, object_name, variant, scheme, tests, "
                "successes, histogram, campaign_id FROM validation_runs "
                "WHERE plan_id = ? ORDER BY object_name, variant",
                (plan_id,),
            )
        ]

    # ------------------------------------------------------------------ #
    # aggregate views + export
    # ------------------------------------------------------------------ #
    def status(self, campaign_id: str) -> CampaignStatus:
        record = self.campaign(campaign_id)
        shards = self.completed_shards(campaign_id)
        return CampaignStatus(
            record=record,
            shards_done=len(shards),
            injections_done=sum(s.spec_count for s in shards.values()),
            runs=self.run_accounting(campaign_id),
            histograms=self.outcome_histograms(campaign_id),
            shards=[shards[index] for index in sorted(shards)],
        )

    def export_jsonl(self, campaign_id: str, fh: IO[str]) -> int:
        """Write the campaign as JSON lines; returns the line count.

        Line types: one ``campaign`` header, one ``shard`` per completed
        shard, one ``outcome`` per injection, one ``report`` per stored
        aDVF report — a self-contained, diff-able dump of the campaign.
        """
        record = self.campaign(campaign_id)
        lines = 0

        def emit(payload: Dict[str, object]) -> None:
            nonlocal lines
            fh.write(_canonical_json(payload) + "\n")
            lines += 1

        emit(
            {
                "type": "campaign",
                "campaign_id": record.campaign_id,
                "workload": record.workload,
                "workload_kwargs": record.workload_kwargs,
                "plan": record.plan,
                "shard_size": record.shard_size,
                "status": record.status,
                "trace_digest": record.trace_digest,
                "schema_version": self.schema_version,
                "repro_version": record.repro_version or _REPRO_VERSION,
            }
        )
        for shard in self.completed_shards(campaign_id).values():
            emit(
                {
                    "type": "shard",
                    "shard_index": shard.shard_index,
                    "object": shard.object_name,
                    "batch": shard.batch,
                    "run_id": shard.run_id,
                    "spec_count": shard.spec_count,
                    "duration_s": shard.duration_s,
                    "analysis_s": shard.analysis_s,
                    "batches": shard.batches,
                    "memo_hits": shard.memo_hits,
                    "memo_misses": shard.memo_misses,
                }
            )
        for outcome in self.outcomes(campaign_id):
            payload = {"type": "outcome", "object": outcome.object_name}
            payload.update(outcome.to_result().to_row())
            payload["shard_index"] = outcome.shard_index
            payload["seq"] = outcome.seq
            emit(payload)
        for object_name, report in self.reports(campaign_id).items():
            emit({"type": "report", "object": object_name, "report": report.to_dict()})
        for run_id, metrics in self.run_metrics(campaign_id).items():
            emit({"type": "run_metrics", "run_id": run_id, "metrics": metrics})
        for span in self.run_spans(campaign_id):
            emit(
                {
                    "type": "run_span",
                    "run_id": span.run_id,
                    "seq": span.seq,
                    "span": span.name,
                    "parent": span.parent,
                    "depth": span.depth,
                    "pid": span.pid,
                    "shard_index": span.shard_index,
                    "start_ts": span.start_ts,
                    "duration_s": span.duration_s,
                    "labels": span.labels,
                }
            )
        return lines
