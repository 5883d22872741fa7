"""Trace sinks and the pre-decoded engine's event stream.

The contract under test: the engine produces *bit-identical* executions and
event streams to the tree-walking interpreter, into any sink implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tracing import ColumnarTraceSink, CountingSink, Trace, TraceCursor
from repro.tracing.events import TraceEvent
from repro.vm import Engine
from repro.workloads.registry import get_workload

from oracles.interpreter import Interpreter

_EVENT_FIELDS = TraceEvent.__slots__

WORKLOADS = ["matmul", "cg", "lulesh"]


def _events_equal(a: TraceEvent, b: TraceEvent) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in _EVENT_FIELDS)


def _run(workload, executor: str, sink):
    instance = workload.fresh_instance()
    if executor == "interpreter":
        result = Interpreter(instance.module, instance.memory, trace=sink).run(
            workload.entry, instance.args
        )
    else:
        result = Engine(instance.module, instance.memory, sink=sink).run(
            workload.entry, instance.args
        )
    outputs = {
        name: instance.memory.object(name).values()
        for name in workload.output_objects
    }
    return result, outputs


# --------------------------------------------------------------------- #
# engine vs interpreter equivalence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", WORKLOADS)
def test_engine_trace_matches_interpreter(name):
    workload = get_workload(name)
    ri, outs_i = _run(workload, "interpreter", Trace())
    re, outs_e = _run(workload, "engine", Trace())
    assert ri.steps == re.steps
    assert ri.return_value == re.return_value
    assert len(ri.trace) == len(re.trace)
    for a, b in zip(ri.trace, re.trace):
        assert _events_equal(a, b), f"event {a.dynamic_id} differs"
    for obj in outs_i:
        assert np.array_equal(
            outs_i[obj].view(np.uint8), outs_e[obj].view(np.uint8)
        ), obj


def test_engine_untraced_run_matches_traced_results():
    workload = get_workload("matmul")
    traced, outs_traced = _run(workload, "engine", Trace())
    bare, outs_bare = _run(workload, "engine", None)
    assert bare.steps == traced.steps
    assert bare.return_value == traced.return_value
    for obj in outs_traced:
        assert np.array_equal(outs_traced[obj], outs_bare[obj])


# --------------------------------------------------------------------- #
# columnar sink
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", WORKLOADS)
def test_columnar_sink_reconstructs_full_events(name):
    workload = get_workload(name)
    full, _ = _run(workload, "engine", Trace())
    compact, _ = _run(workload, "engine", ColumnarTraceSink())
    assert len(full.trace) == len(compact.trace)
    for a, b in zip(full.trace, compact.trace):
        assert _events_equal(a, b), f"event {a.dynamic_id} differs"


def test_columnar_sink_random_access_and_histogram():
    workload = get_workload("matmul")
    result, _ = _run(workload, "engine", ColumnarTraceSink())
    sink = result.trace
    trace, _ = _run(workload, "engine", Trace())
    assert sink.opcode_histogram() == trace.trace.opcode_histogram()
    middle = len(sink) // 2
    assert _events_equal(sink[middle], trace.trace[middle])
    assert sink[-1].dynamic_id == len(sink) - 1
    addresses = sink.addresses()
    assert addresses and all(
        sink[i].address == address for i, address in addresses[:25]
    )


def test_columnar_sink_to_trace_round_trip():
    workload = get_workload("lulesh")
    compact, _ = _run(workload, "engine", ColumnarTraceSink())
    materialised = compact.trace.to_trace()
    direct, _ = _run(workload, "engine", Trace())
    assert len(materialised) == len(direct.trace)
    for a, b in zip(materialised, direct.trace):
        assert _events_equal(a, b)
    # the materialised trace has working query indices
    loads = materialised.loads_for(workload.output_objects[0])
    assert loads == direct.trace.loads_for(workload.output_objects[0])


def test_columnar_sink_rejects_out_of_order_appends():
    sink = ColumnarTraceSink()
    workload = get_workload("matmul")
    traced, _ = _run(workload, "engine", Trace())
    with pytest.raises(ValueError):
        sink.append(traced.trace[5])


# --------------------------------------------------------------------- #
# counting sink
# --------------------------------------------------------------------- #
def test_counting_sink_counts_without_storing():
    workload = get_workload("cg")
    counted, _ = _run(workload, "engine", CountingSink())
    traced, _ = _run(workload, "engine", Trace())
    sink = counted.trace
    assert sink.total == counted.steps == traced.steps
    assert len(sink) == sink.total
    assert sink.by_opcode == traced.trace.opcode_histogram()


def test_counting_sink_accepts_full_events_too():
    workload = get_workload("matmul")
    traced, _ = _run(workload, "engine", Trace())
    sink = CountingSink()
    for event in traced.trace:
        sink.append(event)
    assert sink.total == len(traced.trace)


# --------------------------------------------------------------------- #
# cursor API
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("sink_cls", [Trace, ColumnarTraceSink])
def test_reevaluate_at_over_any_trace_like_source(sink_cls):
    """The cursor-based re-evaluation works against full and columnar traces."""
    from repro.core.reexec import ReexecStatus, reevaluate_at

    workload = get_workload("matmul")
    result, _ = _run(workload, "engine", sink_cls())
    source = result.trace
    # recomputing an event with its own recorded operands reproduces its result
    checked = 0
    for event in source:
        if event.result_value is None or event.is_load or event.is_call:
            continue
        outcome = reevaluate_at(source, event.dynamic_id, event.operand_values)
        if outcome.status is ReexecStatus.VALUE:
            assert outcome.value == event.result_value, event.dynamic_id
            checked += 1
        if checked >= 50:
            break
    assert checked >= 10
    with pytest.raises(IndexError):
        reevaluate_at(source, len(source), ())
    with pytest.raises(ValueError):
        reevaluate_at(source, -1, ())


@pytest.mark.parametrize("sink_cls", [Trace, ColumnarTraceSink])
def test_cursor_over_any_trace_like_source(sink_cls):
    workload = get_workload("matmul")
    result, _ = _run(workload, "engine", sink_cls())
    source = result.trace
    cursor = TraceCursor(source)
    assert cursor.peek().dynamic_id == 0
    assert cursor.advance().dynamic_id == 0
    assert cursor.position == 1
    window = list(cursor.seek(10).take(5))
    assert [e.dynamic_id for e in window] == [10, 11, 12, 13, 14]
    assert cursor.position == 15
    cursor.seek(len(source))
    assert cursor.exhausted and cursor.peek() is None and cursor.remaining() == 0
    # a window over the end is truncated, not an error
    tail = list(cursor.seek(len(source) - 2).take(10))
    assert len(tail) == 2
