"""The columnar trace store: event fidelity, persistence, cache, fallback.

Contracts under test:

* ``ColumnarTrace`` reconstructs an event stream identical to the full
  ``Trace`` of the same (deterministic) execution;
* ``.npz`` and ``.jsonl`` artifacts round-trip every event field;
* the trace cache is content-addressed, hit/miss accounted, and honours
  ``REPRO_TRACE_CACHE`` (including the ``off`` switch);
* the pure-python fallback (NumPy masked out) keeps the store fully
  functional with ``columns()`` degrading to ``None``.
"""

from __future__ import annotations

import pytest

import repro.tracing.columnar as columnar_module
from repro.tracing import (
    ColumnarTrace,
    ColumnarTraceSink,
    Trace,
    TraceCache,
    trace_digest,
)
from repro.tracing.events import TraceEvent
from repro.workloads.registry import get_workload

_EVENT_FIELDS = TraceEvent.__slots__


def _assert_streams_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for field in _EVENT_FIELDS:
            assert getattr(x, field) == getattr(y, field), (x.dynamic_id, field)


@pytest.fixture()
def matmul_traces():
    workload = get_workload("matmul")
    full = workload.traced_run().trace
    columnar = workload.traced_run(columnar=True).trace
    return full, columnar


# --------------------------------------------------------------------- #
# event fidelity and columns
# --------------------------------------------------------------------- #
class TestColumnarTrace:
    def test_promoted_sink_is_the_columnar_trace(self):
        assert ColumnarTraceSink is ColumnarTrace

    def test_event_stream_matches_full_trace(self, matmul_traces):
        full, columnar = matmul_traces
        _assert_streams_equal(full, columnar)

    def test_events_are_memoised(self, matmul_traces):
        _, columnar = matmul_traces
        assert columnar[7] is columnar[7]

    @pytest.mark.skipif(
        not columnar_module.have_numpy(), reason="columns need NumPy"
    )
    def test_columns_are_consistent_with_events(self, matmul_traces):
        full, columnar = matmul_traces
        cols = columnar.columns()
        assert cols is not None
        assert len(cols.opcode) == len(full)
        assert cols.offsets[0] == 0 and cols.offsets[-1] == len(cols.producers)
        # spot-check a store event's columns against the event view
        store = next(e for e in full if e.is_store)
        i = store.dynamic_id
        assert cols.opcode[i] == columnar_module.STORE_CODE
        assert cols.element[i] == store.element_index
        assert cols.address[i] == store.address
        names = {oid: name for name, oid in cols.object_index.items()}
        assert names[int(cols.object_id[i])] == store.object_name

    def test_per_field_accessors(self, matmul_traces):
        full, columnar = matmul_traces
        event = full[42]
        assert columnar.opcode_of(42) is event.opcode
        assert columnar.static_uid_of(42) == event.static_uid
        assert columnar.operand_count(42) == event.operand_count()
        for i in range(event.operand_count()):
            assert columnar.operand_value(42, i) == event.operand_values[i]
            assert columnar.operand_type(42, i) == event.operand_types[i]
        assert columnar.operand_producers_of(42) == list(event.operand_producers)

    def test_out_of_order_append_rejected(self, matmul_traces):
        full, _ = matmul_traces
        trace = ColumnarTrace()
        with pytest.raises(ValueError, match="in order"):
            trace.append(full[5])


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #
class TestPersistence:
    @pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
    def test_roundtrip(self, matmul_traces, tmp_path, suffix):
        if suffix == ".npz" and not columnar_module.have_numpy():
            pytest.skip(".npz artifacts need NumPy")
        _, columnar = matmul_traces
        path = columnar.save(tmp_path / f"trace{suffix}")
        reloaded = ColumnarTrace.load(path)
        _assert_streams_equal(columnar, reloaded)

    def test_jsonl_version_check(self, matmul_traces, tmp_path):
        _, columnar = matmul_traces
        path = columnar.save(tmp_path / "trace.jsonl")
        text = path.read_text().splitlines()
        text[0] = text[0].replace('"version": 1', '"version": 999')
        path.write_text("\n".join(text))
        with pytest.raises(ValueError, match="version"):
            ColumnarTrace.load(path)


# --------------------------------------------------------------------- #
# trace cache
# --------------------------------------------------------------------- #
class TestTraceCache:
    def test_digest_is_stable_and_kwarg_sensitive(self):
        assert trace_digest("matmul", {}) == trace_digest("matmul", {})
        assert trace_digest("matmul", {}) != trace_digest("matmul", {"n": 4})
        assert trace_digest("matmul", {}) != trace_digest("cg", {})

    def test_get_or_build_hits_after_miss(self, matmul_traces, tmp_path):
        _, columnar = matmul_traces
        cache = TraceCache(tmp_path / "cache")
        digest = trace_digest("matmul", {})
        built, hit = cache.get_or_build(digest, lambda: columnar)
        assert not hit and built is columnar
        served, hit = cache.get_or_build(
            digest, lambda: pytest.fail("must not rebuild on a hit")
        )
        assert hit
        _assert_streams_equal(columnar, served)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "c"))
        cache = TraceCache.from_env()
        assert cache is not None and cache.root == tmp_path / "c"
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert TraceCache.from_env() is None


# --------------------------------------------------------------------- #
# pure-python fallback
# --------------------------------------------------------------------- #
class TestPurePythonFallback:
    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)

    def test_columns_degrade_to_none(self, matmul_traces, no_numpy):
        full, _ = matmul_traces
        trace = ColumnarTrace.from_events(full)
        assert trace.columns() is None
        _assert_streams_equal(full, trace)

    def test_jsonl_fallback_roundtrip(self, matmul_traces, tmp_path, no_numpy):
        full, _ = matmul_traces
        trace = ColumnarTrace.from_events(full)
        assert columnar_module.artifact_suffix() == ".jsonl"
        reloaded = ColumnarTrace.load(trace.save(tmp_path / "t.jsonl"))
        _assert_streams_equal(trace, reloaded)

    def test_npz_requires_numpy(self, matmul_traces, tmp_path, no_numpy):
        full, _ = matmul_traces
        trace = ColumnarTrace.from_events(full)
        with pytest.raises(RuntimeError, match="NumPy"):
            trace.save(tmp_path / "t.npz")

    @pytest.mark.skipif(
        not columnar_module.have_numpy(), reason="needs NumPy to write the .npz"
    )
    def test_cache_skips_foreign_npz_artifacts(
        self, matmul_traces, tmp_path, monkeypatch
    ):
        _, columnar = matmul_traces
        cache = TraceCache(tmp_path / "cache")
        digest = trace_digest("matmul", {})
        cache.store(digest, columnar)
        assert cache.find(digest).suffix == ".npz"
        monkeypatch.setattr(columnar_module, "_np", None)
        assert cache.find(digest) is None  # unreadable without numpy
