"""Trace artifacts: same arrays as before, stored uncompressed, old ones load.

``ColumnarTrace.save`` writes the ``.npz`` uncompressed, and
``_to_arrays`` interns its enum and string columns in C-level passes.
Neither may change what an artifact holds: every array must equal the
per-value encoder of :mod:`oracles.artifact_arrays` key for key, dtype for
dtype and byte for byte (so ``FORMAT_VERSION`` and the trace-cache digests
stay valid), and an artifact written compressed, as the cache used to,
must still load into the same trace.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from oracles.artifact_arrays import save_compressed, to_arrays
from repro.tracing import ColumnarTrace
from repro.workloads.registry import get_workload, workload_names

ALL_WORKLOADS = workload_names()


@pytest.fixture(scope="module")
def traces():
    """Golden trace of every registry workload at its default size."""
    return {name: get_workload(name).traced_run().trace for name in ALL_WORKLOADS}


def _assert_arrays_identical(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        a, b = actual[key], expected[key]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), key
        if b.dtype == object:
            assert repr(a.tolist()) == repr(b.tolist()), key
        else:
            assert a.tobytes() == b.tobytes(), key


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_arrays_match_the_per_value_encoder(traces, name):
    _assert_arrays_identical(traces[name]._to_arrays(), to_arrays(traces[name]))


def test_empty_trace_arrays_match():
    empty = ColumnarTrace()
    _assert_arrays_identical(empty._to_arrays(), to_arrays(empty))


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_saved_artifact_is_stored_uncompressed(traces, name, tmp_path):
    path = traces[name].save(tmp_path / "golden.npz")
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
    assert members
    assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}
    with np.load(path, allow_pickle=True) as data:
        _assert_arrays_identical(dict(data), to_arrays(traces[name]))


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_compressed_artifact_loads_like_a_fresh_one(traces, name, tmp_path):
    trace = traces[name]
    old = ColumnarTrace.load(save_compressed(trace, tmp_path / "old.npz"))
    new = ColumnarTrace.load(trace.save(tmp_path / "new.npz"))
    old_cols, new_cols = old.columns(), new.columns()
    for field in new_cols.__slots__:
        a, b = getattr(old_cols, field), getattr(new_cols, field)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field
        else:
            assert a == b, field
    _assert_arrays_identical(old._to_arrays(), new._to_arrays())
