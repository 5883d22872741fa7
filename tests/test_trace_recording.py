"""How golden traces are recorded and stored.

Contracts under test:

* a traced run records through the engine's bound appends and builds no
  :class:`~repro.tracing.events.TraceEvent`;
* the three ways into a ``ColumnarTrace`` -- the engine's recorder,
  ``append``/``from_events`` and ``save``/``load`` -- give the same
  artifact arrays on every registry workload;
* events that share a ``static_uid`` but differ in another static field
  keep their own static records through ``append``, ``save`` and ``load``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.instructions import Opcode
from repro.ir.types import F64, I64
from repro.tracing import ColumnarTrace
from repro.tracing.events import OperandKind, TraceEvent
from repro.workloads.registry import get_workload, workload_names

ALL_WORKLOADS = workload_names()


def _assert_arrays_identical(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        a, b = actual[key], expected[key]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), key
        if b.dtype == object:
            assert repr(a.tolist()) == repr(b.tolist()), key
        else:
            assert a.tobytes() == b.tobytes(), key


def _assert_events_identical(actual, expected):
    assert len(actual) == len(expected)
    for x, y in zip(actual, expected):
        for field in TraceEvent.__slots__:
            assert getattr(x, field) == getattr(y, field), (x.dynamic_id, field)


@pytest.mark.parametrize("name", ["matmul", "cg", "lulesh"])
def test_traced_run_builds_no_trace_event(name, monkeypatch):
    workload = get_workload(name)
    built = []
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    trace = workload.traced_run().trace
    assert len(trace) > 0 and built == []
    trace[0]  # reading an event builds one: the counter is live
    assert built == [1]


def test_static_records_are_one_per_static_op():
    trace = get_workload("cg").traced_run().trace
    records = trace._statics.records
    assert len({record[3] for record in records}) == len(records)
    assert len(records) < len(trace) // 10


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_recorded_appended_and_loaded_traces_have_equal_arrays(name, tmp_path):
    recorded = get_workload(name).traced_run().trace
    expected = recorded._to_arrays()
    appended = ColumnarTrace.from_events(iter(recorded))
    _assert_arrays_identical(appended._to_arrays(), expected)
    loaded = ColumnarTrace.load(recorded.save(tmp_path / "golden.npz"))
    _assert_arrays_identical(loaded._to_arrays(), expected)


def _event(dynamic_id, block="entry", line=3, types=(F64, F64),
           kinds=(OperandKind.INSTRUCTION, OperandKind.CONSTANT),
           predicate=None, opcode=Opcode.FADD):
    return TraceEvent(
        dynamic_id=dynamic_id,
        opcode=opcode,
        function="k",
        block=block,
        static_uid=7,
        source_line=line,
        operand_values=tuple(float(dynamic_id + i) for i in range(len(types))),
        operand_types=types,
        operand_producers=tuple(
            dynamic_id - 1 if kind is OperandKind.INSTRUCTION else -1
            for kind in kinds
        ),
        operand_kinds=kinds,
        result_value=float(dynamic_id),
        result_type=F64,
        predicate=predicate,
    )


def test_events_sharing_a_static_uid_keep_their_static_fields(tmp_path):
    events = [
        _event(0),
        _event(1, block="body"),
        _event(2, line=None),
        _event(3, types=(I64, F64)),
        _event(4, kinds=(OperandKind.ARGUMENT, OperandKind.CONSTANT)),
        _event(5, types=(F64,), kinds=(OperandKind.CONSTANT,)),
        _event(6, predicate="olt", opcode=Opcode.FCMP),
        _event(7),
        _event(8, block="body"),
    ]
    trace = ColumnarTrace()
    for event in events:
        trace.append(event)
    _assert_events_identical(trace, events)
    # equal records share one entry; every differing one has its own
    assert len(trace._statics.records) == 7
    loaded = ColumnarTrace.load(trace.save(tmp_path / "shared-uid.npz"))
    _assert_events_identical(loaded, events)
    _assert_arrays_identical(loaded._to_arrays(), trace._to_arrays())
    assert len(loaded._statics.records) == 7
    assert np.array_equal(loaded.columns().opcode, trace.columns().opcode)


def test_append_rejects_ragged_operand_fields():
    event = _event(0)
    event.operand_kinds = (OperandKind.CONSTANT,)
    with pytest.raises(ValueError, match="differ in length"):
        ColumnarTrace().append(event)


def test_recording_must_continue_the_trace():
    trace = ColumnarTrace.from_events([_event(0)])
    with pytest.raises(ValueError, match="continue at event 1"):
        trace.recorder(0)
    assert len(trace.recorder(1)) == 12
