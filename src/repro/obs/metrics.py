"""Process-wide metrics registry: counters, gauges, histograms.

One uniform, serializable, *mergeable* accounting surface for the whole
stack — engine dispatch counts, replay-batch scheduling, cache hit rates,
campaign progress — replacing the scattered ad-hoc counters that grew per
subsystem.  Three design points drive the shape:

* **Deterministic merge.**  Worker processes record into their own
  process-local registry and ship :meth:`MetricsRegistry.snapshot_delta`
  payloads back to the parent, which folds them in with
  :meth:`MetricsRegistry.merge`.  Counters add, gauges take the maximum,
  histogram buckets add element-wise — all associative and commutative, so
  the fold result is independent of worker completion order (asserted by
  the test suite).  Histogram *sums* are kept as exact compensated-sum
  expansions (Shewchuk partials, the full generalisation of
  Neumaier/Kahan summation) and serialized in a canonical form, so even
  the float sums are bit-identical across fold orders.
* **Fixed bucket bounds.**  Histograms carry an explicit, immutable bound
  tuple chosen at first observation (default: :data:`TIME_BUCKETS`).
  Merging rejects mismatched bounds instead of resampling, so merged
  distributions are exact, not approximations.
* **No-op mode.**  ``REPRO_METRICS=0`` swaps the registry for a
  :class:`NullRegistry` whose mutators do nothing, keeping the engine's
  hot paths at their uninstrumented speed (``benchmarks/bench_obs.py``
  holds the instrumented overhead itself to a few percent).

Metric names are dotted lowercase (``engine.segment_ops``); labels are
keyword arguments (``workload="matmul"``, ``variant="lanes"``).  The
serialized form (:meth:`MetricsRegistry.to_dict`) is plain JSON: sorted
lists of ``{"name", "labels", "value"}`` entries, stable across processes
and runs with identical activity.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram bounds (seconds): ~100µs .. ~100s, log-spaced.  Fixed
#: and deterministic so histograms recorded by different processes merge
#: bucket-for-bucket.
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: ``REPRO_METRICS`` values that disable the registry.
_DISABLED = frozenset({"0", "off", "false", "none", "disabled"})

#: Label key/value pairs, sorted — the canonical identity of a series.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# --------------------------------------------------------------------- #
# exact float accumulation (compensated summation, taken to its limit)
# --------------------------------------------------------------------- #
def _exact_add(partials: List[float], value: float) -> None:
    """Accumulate ``value`` into a non-overlapping partials expansion.

    Shewchuk's grow-expansion (the algorithm behind ``math.fsum``): the
    list always represents the *exact* real-number sum of everything
    accumulated so far, so addition is genuinely associative and
    commutative — the property plain floats (and two-term Neumaier/Kahan
    compensation) only approximate.
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _canonical_partials(partials: List[float]) -> List[float]:
    """The unique round-and-subtract expansion of an exact sum.

    Two partials lists representing the same exact value can differ
    term-by-term depending on accumulation history; peeling off the
    correctly-rounded total (``math.fsum``) and exactly subtracting it
    until nothing remains yields a canonical form, so serialized
    snapshots of equal sums are bit-identical.
    """
    out: List[float] = []
    rest = list(partials)
    for _ in range(64):  # terminates in 2-3 rounds; bound is paranoia
        total = math.fsum(rest)
        if total == 0.0:
            break
        out.append(total)
        _exact_add(rest, -total)
    return out


class Histogram:
    """Fixed-bound histogram: per-bucket counts plus running count/sum.

    The running sum is an exact compensated expansion (see
    :func:`_exact_add`), so merged histograms report bit-identical sums
    regardless of observation or merge order.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "_sum_partials")

    def __init__(self, bounds: Tuple[float, ...] = TIME_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        #: One count per bound, plus the trailing +Inf bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self._sum_partials: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        _exact_add(self._sum_partials, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def sum(self) -> float:
        """Correctly-rounded total of every observation."""
        return math.fsum(self._sum_partials)

    def sum_partials(self) -> List[float]:
        """The canonical exact-sum expansion (JSON-safe)."""
        return _canonical_partials(self._sum_partials)

    def merge_sum(self, partials: Iterable[float]) -> None:
        """Exactly fold another histogram's sum expansion into this one."""
        for part in partials:
            _exact_add(self._sum_partials, part)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Thread-safe, label-aware metric store with merge and delta support."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: Named snapshot cursors for :meth:`snapshot_delta`.
        self._cursors: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` to the counter series ``name`` + ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge series to ``value`` (merge semantics: max)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = TIME_BUCKETS,
        **labels: object,
    ) -> None:
        """Record ``value`` into the histogram series ``name`` + ``labels``."""
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(buckets)
            hist.observe(value)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: object) -> float:
        return self._counters.get((name, _label_key(labels)), 0)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        return self._gauges.get((name, _label_key(labels)))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get((name, _label_key(labels)))

    def counter_total(self, name: str) -> float:
        """Sum of the named counter over every label combination."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot, deterministically ordered."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(labels),
                    "bounds": list(hist.bounds),
                    "bucket_counts": list(hist.bucket_counts),
                    "count": hist.count,
                    "sum": hist.sum,
                    "sum_partials": hist.sum_partials(),
                }
                for (name, labels), hist in sorted(self._histograms.items())
            ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`to_dict`-shaped snapshot into this registry.

        Counters add, gauges keep the maximum, histogram buckets add
        element-wise — all associative/commutative, so folding worker
        snapshots in any completion order yields identical state
        (including the histogram float sums, which merge through exact
        compensated expansions; snapshots written before the expansions
        existed fold their rounded ``sum`` instead).
        """
        for entry in snapshot.get("counters", ()):  # type: ignore[union-attr]
            key = (entry["name"], _label_key(entry["labels"]))
            with self._lock:
                self._counters[key] = self._counters.get(key, 0) + entry["value"]
        for entry in snapshot.get("gauges", ()):  # type: ignore[union-attr]
            key = (entry["name"], _label_key(entry["labels"]))
            with self._lock:
                existing = self._gauges.get(key)
                value = entry["value"]
                self._gauges[key] = (
                    value if existing is None else max(existing, value)
                )
        for entry in snapshot.get("histograms", ()):  # type: ignore[union-attr]
            key = (entry["name"], _label_key(entry["labels"]))
            bounds = tuple(entry["bounds"])
            with self._lock:
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = Histogram(bounds)
                if hist.bounds != bounds:
                    raise ValueError(
                        f"histogram {entry['name']!r} bucket bounds differ: "
                        f"{hist.bounds} != {bounds}"
                    )
                for i, count in enumerate(entry["bucket_counts"]):
                    hist.bucket_counts[i] += count
                hist.count += entry["count"]
                partials = entry.get("sum_partials")
                if partials is None:  # pre-expansion snapshot: rounded sum
                    partials = [entry["sum"]] if entry["sum"] else []
                hist.merge_sum(partials)

    def snapshot_delta(self, cursor: str) -> Dict[str, object]:
        """Everything recorded since the previous call with this ``cursor``.

        The first call returns the full current state.  Deltas are
        :meth:`merge`-compatible: merging every delta of a cursor stream
        reconstructs the registry's cumulative state, which is how worker
        processes ship per-chunk metrics to the parent and how the
        orchestrator scopes per-run metrics for the store.  (Gauges are
        carried at their current value — max-merge makes that idempotent.)
        """
        current = self.to_dict()
        previous = self._cursors.get(cursor)
        self._cursors[cursor] = current
        if previous is None:
            return current
        return diff_snapshots(previous, current)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._cursors.clear()


class NullRegistry(MetricsRegistry):
    """The ``REPRO_METRICS=0`` registry: every mutator is a no-op."""

    enabled = False

    def inc(self, name, amount=1, **labels):  # noqa: D102
        pass

    def gauge(self, name, value, **labels):  # noqa: D102
        pass

    def observe(self, name, value, buckets=TIME_BUCKETS, **labels):  # noqa: D102
        pass

    def merge(self, snapshot):  # noqa: D102 - folds are dropped too
        pass


# --------------------------------------------------------------------- #
# snapshot algebra (plain dicts, usable store-side without a registry)
# --------------------------------------------------------------------- #
def merge_snapshots(*snapshots: Dict[str, object]) -> Dict[str, object]:
    """Merge :meth:`MetricsRegistry.to_dict` payloads into one.

    Pure-dict fold with the registry's merge semantics — the store and CLI
    use it to combine persisted per-run snapshots without touching the
    live process registry.
    """
    acc = MetricsRegistry()
    for snapshot in snapshots:
        acc.merge(snapshot)
    return acc.to_dict()


def diff_snapshots(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """The activity between two snapshots (``after - before``).

    Counters and histogram buckets subtract; gauges pass through at their
    ``after`` value.  Series absent from ``before`` appear whole; series
    whose value did not change are dropped.
    """

    def index(entries: Iterable[Dict[str, object]]):
        return {
            (e["name"], _label_key(e["labels"])): e for e in entries
        }

    counters: List[Dict[str, object]] = []
    before_counters = index(before.get("counters", ()))
    for entry in after.get("counters", ()):  # type: ignore[union-attr]
        key = (entry["name"], _label_key(entry["labels"]))
        prior = before_counters.get(key)
        delta = entry["value"] - (prior["value"] if prior else 0)
        if delta:
            counters.append(
                {"name": entry["name"], "labels": dict(entry["labels"]),
                 "value": delta}
            )
    gauges = [
        {"name": e["name"], "labels": dict(e["labels"]), "value": e["value"]}
        for e in after.get("gauges", ())  # type: ignore[union-attr]
    ]
    histograms: List[Dict[str, object]] = []
    before_hists = index(before.get("histograms", ()))
    for entry in after.get("histograms", ()):  # type: ignore[union-attr]
        key = (entry["name"], _label_key(entry["labels"]))
        prior = before_hists.get(key)
        if prior is None:
            histograms.append(entry)
            continue
        count = entry["count"] - prior["count"]
        if not count:
            continue
        delta_hist = {
            "name": entry["name"],
            "labels": dict(entry["labels"]),
            "bounds": list(entry["bounds"]),
            "bucket_counts": [
                a - b
                for a, b in zip(entry["bucket_counts"], prior["bucket_counts"])
            ],
            "count": count,
        }
        after_parts = entry.get("sum_partials")
        before_parts = prior.get("sum_partials")
        if after_parts is not None and before_parts is not None:
            # exact subtraction, so merging a cursor's delta stream
            # reconstructs the cumulative sums bit-identically
            rest = list(after_parts)
            for part in before_parts:
                _exact_add(rest, -part)
            delta_parts = _canonical_partials(rest)
            delta_hist["sum"] = math.fsum(delta_parts)
            delta_hist["sum_partials"] = delta_parts
        else:
            delta_hist["sum"] = entry["sum"] - prior["sum"]
        histograms.append(delta_hist)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


# --------------------------------------------------------------------- #
# the process-wide registry
# --------------------------------------------------------------------- #
def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_METRICS")
    if raw is None:
        return True
    return raw.strip().lower() not in _DISABLED


_REGISTRY: MetricsRegistry = (
    MetricsRegistry() if _env_enabled() else NullRegistry()
)


def registry() -> MetricsRegistry:
    """The process-wide registry (a :class:`NullRegistry` when disabled)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """Whether the process-wide registry records anything."""
    return _REGISTRY.enabled


def configure(enabled: Optional[bool] = None) -> MetricsRegistry:
    """(Re)initialise the process-wide registry.

    ``enabled=None`` re-reads ``REPRO_METRICS``; booleans override the
    environment.  Always installs a *fresh* registry — the test suite's
    isolation hook, also usable to scope a measurement.
    """
    global _REGISTRY
    if enabled is None:
        enabled = _env_enabled()
    _REGISTRY = MetricsRegistry() if enabled else NullRegistry()
    return _REGISTRY
