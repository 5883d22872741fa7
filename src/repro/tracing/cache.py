"""Durable cache of golden-trace artifacts, keyed by workload digest.

Golden traces are pure functions of ``(workload name, constructor kwargs)``
— workloads are deterministic by contract — so the columnar artifact of a
traced run can be computed once and shared by everything downstream:
repeated campaign runs, resumed campaigns and ``campaign report`` all
load the same ``.npz`` file instead of re-executing the workload.

The cache directory comes from the ``REPRO_TRACE_CACHE`` environment
variable (default ``~/.cache/repro/traces``); setting it to ``off`` (or
``0`` / ``none``) disables persistent caching, in which case every
consumer traces the workload itself.  Artifacts are content-addressed by
:func:`trace_digest` and written atomically, so concurrent writers of the
same digest are harmless (last rename wins, both files are identical).
:func:`golden_trace` is the one way to acquire a golden trace: a missing
or unreadable artifact is rebuilt and overwritten there, and a cache
directory that cannot be written leaves the rebuilt trace in memory only.
A trace is rebuilt by a :class:`~repro.core.replay.ReplayContext` whose
golden run records it, so the caller also gets the snapshot schedule.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from pickle import UnpicklingError
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union
from zipfile import BadZipFile

from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replay import ReplayContext
    from repro.workloads.base import Workload

#: Default cache directory when ``REPRO_TRACE_CACHE`` is unset.
DEFAULT_CACHE_DIR = "~/.cache/repro/traces"

#: ``REPRO_TRACE_CACHE`` values that disable persistent caching.
_DISABLED = frozenset({"0", "off", "none", "disabled"})

#: Format version of the persisted memo artifact, ``{"format": N, "rows":
#: [...]}`` with one :meth:`~repro.core.injector.FaultInjectionResult.to_row`
#: per fault.  Artifacts of other versions read cold (never migrated).
MEMO_FORMAT_VERSION = 4


def trace_digest(
    workload_name: str, workload_kwargs: Optional[Dict[str, object]] = None
) -> str:
    """Content address of a workload's golden trace.

    Two invocations with the same workload name and constructor kwargs
    denote the same deterministic execution, hence the same trace.  The
    columnar format version and the package version participate so a
    layout change — or a release that may have touched workload kernels —
    invalidates old artifacts instead of silently reusing a stale trace.
    (Editing workload code *between* releases still requires clearing the
    cache directory by hand; digests cannot see source edits.)
    """
    from repro.version import __version__

    payload = json.dumps(
        {
            "workload": workload_name,
            "workload_kwargs": dict(workload_kwargs or {}),
            "trace_format": ColumnarTrace.FORMAT_VERSION,
            "repro_version": __version__,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return "t" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TraceCache:
    """Filesystem cache of :class:`ColumnarTrace` artifacts.

    ``hits``/``misses`` count :meth:`get_or_build` resolutions, so smoke
    tests (and the campaign CLI's progress lines) can verify the cache is
    actually being exercised.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> Optional["TraceCache"]:
        """The cache configured by ``REPRO_TRACE_CACHE`` (``None`` = off)."""
        raw = os.environ.get("REPRO_TRACE_CACHE")
        if raw is not None and raw.strip().lower() in _DISABLED:
            return None
        return cls(raw.strip() if raw else DEFAULT_CACHE_DIR)

    # ------------------------------------------------------------------ #
    def path_for(self, digest: str) -> Path:
        """Where the artifact for ``digest`` lives."""
        return self.root / f"{digest}.npz"

    def load(self, digest: str) -> Optional[ColumnarTrace]:
        """The cached trace for ``digest``, or ``None``.

        A missing artifact and one that cannot be read (truncated,
        corrupt, or of another layout) both read as a miss.
        """
        try:
            return ColumnarTrace.load(self.path_for(digest))
        except (BadZipFile, UnpicklingError, OSError, ValueError, KeyError,
                EOFError):
            return None

    def store(self, digest: str, trace: ColumnarTrace) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        return trace.save(self.path_for(digest))

    def get_or_build(
        self, digest: str, build: Callable[[], ColumnarTrace]
    ) -> Tuple[ColumnarTrace, bool]:
        """The cached trace for ``digest``, building and storing on miss
        (an unreadable artifact is a miss, and is overwritten).

        Returns ``(trace, hit)`` where ``hit`` says whether the artifact
        was served from disk.
        """
        cached = self.load(digest)
        self._count(cached is not None)
        if cached is not None:
            return cached, True
        trace = build()
        self.store(digest, trace)
        return trace, False

    def _count(self, hit: bool) -> None:
        reg = _metrics_registry()
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if reg.enabled:
            reg.inc("trace_cache.hits" if hit else "trace_cache.misses")


def golden_trace(
    workload: "Workload", name: str, kwargs: Dict[str, object]
) -> Tuple[ColumnarTrace, str, Optional["ReplayContext"]]:
    """The golden trace of ``workload`` (registered as ``name``, built with
    constructor ``kwargs``), where it came from: ``"cache hit"``,
    ``"cache miss, built"``, ``"cache miss, built, not stored (<error>)"``
    (the artifact could not be written) or ``"cache disabled, built"``,
    and the :class:`~repro.core.replay.ReplayContext` whose golden run
    recorded it (``None`` on a cache hit).

    A trace is built by one golden execution that also captures the
    snapshot schedule, so an injector built on the returned context runs
    no second one.
    """
    from repro.core.replay import ReplayContext

    built: List[ReplayContext] = []

    def build() -> ColumnarTrace:
        built.append(ReplayContext(workload, sink=ColumnarTrace()))
        return built[0].golden_trace

    cache = TraceCache.from_env()
    if cache is None:
        return build(), "cache disabled, built", built[0]
    try:
        trace, hit = cache.get_or_build(trace_digest(name, kwargs), build)
    except OSError as exc:
        # a cache directory that cannot be written costs the artifact,
        # not the trace already built in memory
        if not built:
            raise
        return (built[0].golden_trace,
                f"cache miss, built, not stored ({exc})", built[0])
    if hit:
        return trace, "cache hit", None
    return trace, "cache miss, built", built[0]


def merge_memo_payloads(
    base: Optional[Dict[str, object]], delta: Optional[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """Union of two memo payloads keyed by fault spec; ``base`` rows win.

    A ``None`` (or empty) side yields the other, and ``base`` itself comes
    back when ``delta`` adds no spec, so a fold over disjoint worker deltas
    holds the same rows in any order.
    """
    if not base or not base.get("rows"):
        return delta
    if not delta or not delta.get("rows"):
        return base
    seen = {FaultSpec.from_dict(row) for row in base["rows"]}
    added = []
    for row in delta["rows"]:
        spec = FaultSpec.from_dict(row)
        if spec not in seen:
            seen.add(spec)
            added.append(row)
    if not added:
        return base
    merged = dict(base)
    merged["rows"] = list(base["rows"]) + added
    return merged


class MemoCache:
    """Filesystem cache of persisted fault-result memo artifacts.

    The table of classified results a
    :class:`~repro.core.injector.DeterministicFaultInjector` keeps is a pure
    function of the trace it replays against (a fault's outcome depends on
    its spec and the golden execution alone, on either engine backend), so
    its rows can live next to the golden-trace artifact and warm-start
    every later consumer of the same trace: campaign worker processes,
    resumed campaigns, and ``protect validate`` reruns.  Artifacts are
    keyed by trace digest + memo format version
    (``{digest}.memo.v{N}.json``); any mismatch simply misses — memos are
    an accelerator, never a correctness input.  The payload is
    ``{"format": N, "rows": [...]}``, one
    :meth:`~repro.core.injector.FaultInjectionResult.to_row` per fault
    that left the lockstep walk.

    The cache directory comes from ``REPRO_MEMO_CACHE`` and *defaults to
    following* ``REPRO_TRACE_CACHE`` (same directory, same ``off``
    values), so existing configurations pick up memo persistence without a
    second knob.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    @classmethod
    def from_env(cls) -> Optional["MemoCache"]:
        """The cache configured by ``REPRO_MEMO_CACHE`` (``None`` = off).

        Unset falls back to ``REPRO_TRACE_CACHE`` (then to the default
        trace-cache directory), so the memo artifact sits next to the
        golden trace it belongs to unless explicitly redirected.
        """
        raw = os.environ.get("REPRO_MEMO_CACHE")
        if raw is None:
            raw = os.environ.get("REPRO_TRACE_CACHE")
        if raw is not None and raw.strip().lower() in _DISABLED:
            return None
        return cls(raw.strip() if raw else DEFAULT_CACHE_DIR)

    # ------------------------------------------------------------------ #
    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.memo.v{MEMO_FORMAT_VERSION}.json"

    def load(self, digest: str) -> Optional[Dict[str, object]]:
        """The persisted payload for ``digest``, or ``None``.

        Unreadable, corrupt, or format-mismatched artifacts, and payloads
        without a ``rows`` list, all read as a cold memo — the file name
        pins the version, but a payload rewritten by a different process is
        still re-checked here.
        """
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != MEMO_FORMAT_VERSION
            or not isinstance(payload.get("rows"), list)
        ):
            return None
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("replay.memo_persist_loads")
        return payload

    def store(self, digest: str, payload: Dict[str, object]) -> Path:
        """Atomically persist ``payload`` (last rename wins)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        stamped = dict(payload)
        stamped["trace"] = digest
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(stamped, handle, separators=(",", ":"))
        os.replace(tmp, path)
        return path

    def merge_store(self, digest: str,
                    delta: Optional[Dict[str, object]]) -> Optional[Path]:
        """Fold a learned delta into the persisted artifact and rewrite it.

        Reads the current artifact, merges with :func:`merge_memo_payloads`
        (existing rows win, so concurrent merges of disjoint worker deltas
        commute), and writes back atomically.  A ``None``/empty delta, or
        one whose every spec the artifact already holds, is a no-op.
        """
        if not delta or not delta.get("rows"):
            return None
        base = self.load(digest)
        merged = merge_memo_payloads(base, delta)
        if merged is base:
            return None
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("replay.memo_persist_merges")
        return self.store(digest, merged)
