"""The columnar trace store: event fidelity, persistence, cache.

Contracts under test:

* ``ColumnarTrace`` reconstructs, event for event, the stream the
  interpreter oracle emits for the run the engine's op loop recorded
  (also checked in ``test_trace_sinks.py`` and ``test_mir_parity.py``);
* ``.npz`` artifacts round-trip every event field and reject a foreign
  format version;
* the trace cache is content-addressed, hit/miss accounted, and honours
  ``REPRO_TRACE_CACHE`` (including the ``off`` switch).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.tracing.columnar as columnar_module
from repro.tracing import ColumnarTrace, TraceCache, trace_digest
from repro.tracing.events import TraceEvent
from repro.vm.engine import Engine
from repro.workloads.registry import get_workload

from test_trace_sinks import _EventList, _run

_EVENT_FIELDS = TraceEvent.__slots__


def _assert_streams_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for field in _EVENT_FIELDS:
            assert getattr(x, field) == getattr(y, field), (x.dynamic_id, field)


@pytest.fixture()
def matmul_traces():
    """(the interpreter's events, the columnar trace of the op loop) of
    matmul."""
    workload = get_workload("matmul")
    full = _run(workload, "interpreter", _EventList())[0].trace
    instance = workload.fresh_instance()
    columnar = ColumnarTrace()
    Engine(
        instance.module, instance.memory, sink=columnar, backend="op"
    ).run(workload.entry, instance.args)
    return full, columnar


# --------------------------------------------------------------------- #
# event fidelity and columns
# --------------------------------------------------------------------- #
class TestColumnarTrace:
    def test_event_stream_matches_full_trace(self, matmul_traces):
        full, columnar = matmul_traces
        _assert_streams_equal(full, columnar)

    def test_events_are_memoised(self, matmul_traces):
        _, columnar = matmul_traces
        assert columnar[7] is columnar[7]

    def test_columns_are_consistent_with_events(self, matmul_traces):
        full, columnar = matmul_traces
        cols = columnar.columns()
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
    @pytest.mark.parametrize("suffix", [".npz"])
    def test_roundtrip(self, matmul_traces, accumulate_trace, tmp_path, suffix):
        _, columnar = matmul_traces
        # an engine trace and an interpreter-recorded one (branches,
        # returns, taken labels, writer links)
        for name, trace in (("matmul", columnar),
                            ("accumulate", accumulate_trace["trace"])):
            path = trace.save(tmp_path / f"{name}{suffix}")
            reloaded = ColumnarTrace.load(path)
            _assert_streams_equal(trace, reloaded)
            assert reloaded.opcode_histogram() == trace.opcode_histogram()

    def test_npz_version_check(self, matmul_traces, tmp_path):
        _, columnar = matmul_traces
        path = columnar.save(tmp_path / "trace.npz")
        with np.load(path, allow_pickle=True) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["version"] = np.array([999], dtype=np.int64)
        np.savez_compressed(path, **arrays)
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

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_unreadable_artifact_is_a_miss_and_is_rebuilt(
        self, matmul_traces, tmp_path, damage
    ):
        _, columnar = matmul_traces
        cache = TraceCache(tmp_path / "cache")
        digest = trace_digest("matmul", {})
        path = cache.store(digest, columnar)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            path.write_bytes(b"not a trace artifact\n" * 8)
        assert cache.load(digest) is None
        rebuilt, hit = cache.get_or_build(digest, lambda: columnar)
        assert not hit and rebuilt is columnar
        assert (cache.hits, cache.misses) == (0, 1)
        _assert_streams_equal(columnar, cache.load(digest))

    def test_artifact_is_one_npz_per_digest(self, matmul_traces, tmp_path):
        _, columnar = matmul_traces
        cache = TraceCache(tmp_path / "cache")
        digest = trace_digest("matmul", {})
        assert cache.find(digest) is None and cache.load(digest) is None
        path = cache.store(digest, columnar)
        assert path == cache.path_for(digest) == cache.find(digest)
        assert path.suffix == ".npz"
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "c"))
        cache = TraceCache.from_env()
        assert cache is not None and cache.root == tmp_path / "c"
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert TraceCache.from_env() is None
