"""Trace sinks and the pre-decoded engine's event stream.

The contract under test: the engine produces *bit-identical* executions and
event streams to the tree-walking interpreter, on both backends -- a traced
run records into a ``ColumnarTrace`` through the per-op loop on either, and
never dispatches a compiled superinstruction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tracing import ColumnarTrace
from repro.tracing.events import TraceEvent
from repro.vm import Engine
from repro.workloads.registry import get_workload

from mir_helpers import segment_dispatches
from oracles.interpreter import Interpreter

_EVENT_FIELDS = TraceEvent.__slots__

WORKLOADS = ["matmul", "cg", "lulesh"]


def _events_equal(a: TraceEvent, b: TraceEvent) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in _EVENT_FIELDS)


class _EventList(list):
    """The events exactly as the interpreter emitted them (the engine
    records into a ``ColumnarTrace`` only)."""


def _run(workload, executor: str, sink):
    """One run on the interpreter, or on the engine: ``"engine"`` for its
    default backend, ``"op"`` or ``"block"`` to pin one."""
    instance = workload.fresh_instance()
    if executor == "interpreter":
        result = Interpreter(instance.module, instance.memory, trace=sink).run(
            workload.entry, instance.args
        )
    else:
        pinned = {} if executor == "engine" else {"backend": executor}
        result = Engine(
            instance.module, instance.memory, sink=sink, **pinned
        ).run(workload.entry, instance.args)
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
    ri, outs_i = _run(workload, "interpreter", ColumnarTrace())
    # both backends record a traced run through the op loop alone
    for backend in ("op", "block"):
        with segment_dispatches() as dispatched:
            re, outs_e = _run(workload, backend, ColumnarTrace())
        assert dispatched == [0, 0], backend
        assert ri.steps == re.steps
        assert ri.return_value == re.return_value
        assert len(ri.trace) == len(re.trace)
        for a, b in zip(ri.trace, re.trace):
            assert _events_equal(a, b), f"{backend}: event {a.dynamic_id} differs"
        for obj in outs_i:
            assert np.array_equal(
                outs_i[obj].view(np.uint8), outs_e[obj].view(np.uint8)
            ), (backend, obj)


def test_engine_untraced_run_matches_traced_results():
    workload = get_workload("matmul")
    traced, outs_traced = _run(workload, "engine", ColumnarTrace())
    bare, outs_bare = _run(workload, "engine", None)
    assert bare.steps == traced.steps == len(traced.trace)
    assert bare.return_value == traced.return_value
    for obj in outs_traced:
        assert np.array_equal(outs_traced[obj], outs_bare[obj])


# --------------------------------------------------------------------- #
# columnar sink
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", WORKLOADS)
def test_columnar_sink_reconstructs_full_events(name):
    workload = get_workload(name)
    emitted, _ = _run(workload, "interpreter", _EventList())
    compact, _ = _run(workload, "op", ColumnarTrace())
    assert len(emitted.trace) == len(compact.trace)
    for a, b in zip(emitted.trace, compact.trace):
        assert _events_equal(a, b), f"event {a.dynamic_id} differs"


def test_columnar_sink_random_access_and_histogram():
    workload = get_workload("matmul")
    result, _ = _run(workload, "engine", ColumnarTrace())
    sink = result.trace
    emitted, _ = _run(workload, "interpreter", _EventList())
    histogram = {}
    for event in emitted.trace:
        histogram[event.opcode.value] = histogram.get(event.opcode.value, 0) + 1
    assert sink.opcode_histogram() == histogram
    middle = len(sink) // 2
    assert _events_equal(sink[middle], emitted.trace[middle])
    assert sink[-1].dynamic_id == len(sink) - 1
    addresses = sink.addresses()
    assert addresses and all(
        sink[i].address == address for i, address in addresses[:25]
    )


def test_columnar_sink_from_events_round_trip():
    workload = get_workload("lulesh")
    compact, _ = _run(workload, "engine", ColumnarTrace())
    rebuilt = ColumnarTrace.from_events(compact.trace)
    assert len(rebuilt) == len(compact.trace)
    for a, b in zip(rebuilt, compact.trace):
        assert _events_equal(a, b)
    assert rebuilt.opcode_histogram() == compact.trace.opcode_histogram()
    # the rebuilt trace answers the same column queries
    output = workload.output_objects[0]
    loads = [e for e in rebuilt if e.is_load and e.object_name == output]
    assert loads == [
        e for e in compact.trace if e.is_load and e.object_name == output
    ]
    assert rebuilt.columns().object_index == compact.trace.columns().object_index


def test_columnar_sink_rejects_out_of_order_appends():
    sink = ColumnarTrace()
    workload = get_workload("matmul")
    traced, _ = _run(workload, "engine", ColumnarTrace())
    with pytest.raises(ValueError):
        sink.append(traced.trace[5])


# --------------------------------------------------------------------- #
# re-evaluating recorded events
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("source_cls", [list, ColumnarTrace])
def test_reevaluate_at_over_any_trace_like_source(source_cls):
    """Re-evaluating the event at a dynamic id with its own recorded
    operands reproduces its result, whether the event is read from the
    columnar trace or from a plain list of its events."""
    from repro.core.reexec import ReexecStatus, reevaluate

    workload = get_workload("matmul")
    result, _ = _run(workload, "engine", ColumnarTrace())
    source = result.trace if source_cls is ColumnarTrace else list(result.trace)
    checked = 0
    for dynamic_id in range(len(source)):
        event = source[dynamic_id]
        if event.result_value is None or event.is_load or event.is_call:
            continue
        outcome = reevaluate(event, event.operand_values)
        if outcome.status is ReexecStatus.VALUE:
            assert outcome.value == event.result_value, dynamic_id
            checked += 1
        if checked >= 50:
            break
    assert checked >= 10
