"""Golden-run digests pinned by a committed fixture.

For every registry workload at the reduced sizes of the parity suite
(``SMALL_KWARGS`` of ``test_passes_parity.py``), the fixture ``tests/fixtures/golden_digests.json`` records:

* the golden run: SHA-256 of the output arrays' bytes, the step count and
  the return value;
* a run cut at half the golden step budget: the crash type and message and
  the number of trace events recorded before it;
* the SHA-256 of every decoded column of the golden trace's ``.npz``
  artifact (static instruction ids renumbered by first appearance: the
  compiler draws them from a process-wide counter);
* ``to_dict()`` of each target object's default-config aDVF report.

The test recomputes all of it and compares exactly.  The fixture is never
regenerated to make a change pass: a differing entry is a regression.
Regenerate only when a deliberate semantic change is made, with
``PYTHONPATH=src python tests/test_golden_digests.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.tracing import ColumnarTrace
from repro.vm.errors import VMError
from repro.workloads.registry import get_workload, workload_names

from test_passes_parity import SMALL_KWARGS

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(array: np.ndarray) -> str:
    if array.dtype == object:
        return _sha(repr(array.tolist()).encode("utf-8"))
    header = f"{array.dtype.str}{array.shape}".encode("utf-8")
    return _sha(header + np.ascontiguousarray(array).tobytes())


def _first_appearance(ids: np.ndarray) -> np.ndarray:
    """``ids`` renumbered 0, 1, 2, ... in order of first appearance."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse]


def _artifact_digest(trace: ColumnarTrace) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(Path(tmp) / "golden.npz")
        with np.load(path, allow_pickle=True) as data:
            columns = {key: data[key] for key in data.files}
    columns["static_uid"] = _first_appearance(columns["static_uid"])
    return {key: _array_digest(columns[key]) for key in sorted(columns)}


def compute(name: str) -> dict:
    """Every digest of one workload, as JSON-shaped data."""
    kwargs = SMALL_KWARGS.get(name, {})
    workload = get_workload(name, **kwargs)
    golden = workload.golden_run(sink=ColumnarTrace())
    cut = ColumnarTrace()
    crash = None
    try:
        workload.fresh_instance().run(trace=cut, max_steps=golden.steps // 2)
    except VMError as exc:
        crash = {"type": type(exc).__name__, "message": str(exc)}
    report = AdvfEngine(workload, AnalysisConfig()).analyze()
    entry = {
        "kwargs": kwargs,
        "run": {
            "outputs": {
                obj: _sha(np.ascontiguousarray(values).tobytes())
                for obj, values in sorted(golden.outputs.items())
            },
            "steps": golden.steps,
            "return_value": golden.return_value,
            "crash": crash,
            "crash_trace_events": len(cut),
        },
        "artifact": _artifact_digest(golden.trace),
        "advf": {obj: report.objects[obj].to_dict() for obj in sorted(report.objects)},
    }
    # the fixture stores what JSON keeps (floats round-trip exactly)
    return json.loads(json.dumps(entry))


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_workload(fixture):
    assert sorted(fixture) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_golden_digests_unchanged(fixture, name):
    expected = fixture[name]
    actual = compute(name)
    assert actual["kwargs"] == expected["kwargs"]
    assert actual["run"] == expected["run"]
    assert actual["artifact"] == expected["artifact"]
    assert actual["advf"] == expected["advf"]


if __name__ == "__main__":  # pragma: no cover - fixture (re)generation
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_digests.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    digests = {name: compute(name) for name in workload_names()}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
