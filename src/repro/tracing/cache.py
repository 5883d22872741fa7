"""Durable cache of golden-trace artifacts, keyed by workload digest.

Golden traces are pure functions of ``(workload name, constructor kwargs)``
— workloads are deterministic by contract — so the columnar artifact of a
traced run can be computed once and shared by everything downstream:
repeated campaign runs, resumed campaigns, and the worker processes of a
parallel analysis all load the same ``.npz`` file instead of re-executing
the workload.

The cache directory comes from the ``REPRO_TRACE_CACHE`` environment
variable (default ``~/.cache/repro/traces``); setting it to ``off`` (or
``0`` / ``none``) disables persistent caching, in which case every
consumer traces the workload itself.  Artifacts are content-addressed by
:func:`trace_digest` and written atomically, so concurrent writers of the
same digest are harmless (last rename wins, both files are identical).
:func:`golden_trace` is the one way to acquire a golden trace: a missing
or unreadable artifact is rebuilt and overwritten there.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from pickle import UnpicklingError
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union
from zipfile import BadZipFile

from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.columnar import ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

#: Default cache directory when ``REPRO_TRACE_CACHE`` is unset.
DEFAULT_CACHE_DIR = "~/.cache/repro/traces"

#: ``REPRO_TRACE_CACHE`` values that disable persistent caching.
_DISABLED = frozenset({"0", "off", "none", "disabled"})


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
) -> Tuple[ColumnarTrace, str]:
    """The golden trace of ``workload`` (registered as ``name``, built with
    constructor ``kwargs``) and where it came from: ``"cache hit"``,
    ``"cache miss, built"`` or ``"cache disabled, built"``.
    """
    cache = TraceCache.from_env()
    if cache is None:
        return workload.traced_run().trace, "cache disabled, built"
    trace, hit = cache.get_or_build(
        trace_digest(name, kwargs), lambda: workload.traced_run().trace
    )
    return trace, "cache hit" if hit else "cache miss, built"


class MemoCache:
    """Filesystem cache of persisted convergence-memo artifacts.

    The :class:`~repro.core.replay.ReplayMemo` a batched replay context
    grows is a pure function of the trace it replays against — outcomes,
    state digests and convergence points are bit-identical across engine
    backends — so its serialised form can live next to the golden-trace
    artifact and warm-start every later consumer of the same trace, on
    either backend: campaign worker processes, resumed campaigns, and
    ``protect validate`` reruns.  Artifacts are keyed by trace digest +
    memo format version (``{digest}.memo.v{N}.json``); any mismatch simply
    misses — memos are an accelerator, never a correctness input.

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
        from repro.core.replay import MEMO_FORMAT_VERSION

        return self.root / f"{digest}.memo.v{MEMO_FORMAT_VERSION}.json"

    def load(self, digest: str) -> Optional[Dict[str, object]]:
        """The persisted payload for ``digest``, or ``None``.

        Unreadable, corrupt, or format-mismatched artifacts all read as a
        cold memo — the file name pins the version, but a payload
        rewritten by a different process is still re-checked here.
        """
        from repro.core.replay import MEMO_FORMAT_VERSION

        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != MEMO_FORMAT_VERSION
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

        Reads the current artifact, merges (existing entries win, so
        concurrent merges of disjoint worker deltas commute), and writes
        back atomically.  A ``None``/empty delta is a no-op.
        """
        from repro.core.replay import ReplayMemo

        if not delta or not delta.get("keys"):
            return None
        base = self.load(digest)
        merged = ReplayMemo.merge_payloads(base, delta)
        if merged is None or merged is base:
            return None
        reg = _metrics_registry()
        if reg.enabled:
            reg.inc("replay.memo_persist_merges")
        return self.store(digest, merged)
