"""Parity of the def-use chase in ``PropagationAnalyzer`` with the window scan.

The chase visits only the events that read corrupted values or touch
corrupted cells and derives ``steps_analyzed`` from the death steps of the
corruption; the oracle (:mod:`oracles.propagation_scan`) steps through every
event of the k-window.  Every field of every result must match, first on
each ``analyze()`` call a default aDVF analysis makes on every registered
workload, then on hand-built traces that pin the boundary rules.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.masking import MaskingCategory
from repro.core.participation import Participation, ParticipationRole
from repro.core.patterns import ErrorPattern
from repro.core.propagation import PropagationAnalyzer
from repro.ir.instructions import Opcode
from repro.ir.types import F64, I1, I64
from repro.tracing import ColumnarTrace
from repro.tracing.events import OperandKind, TraceEvent
from repro.workloads.registry import get_workload, workload_names

from oracles.propagation_scan import ScanPropagationAnalyzer

SEED = 3


def assert_same_result(chase, scan, context=""):
    for f in dataclasses.fields(chase):
        got, want = getattr(chase, f.name), getattr(scan, f.name)
        if f.name == "category":
            assert got is want, f"{context}: category {got} is not {want}"
        else:
            assert type(got) is type(want) and got == want, (
                f"{context}: {f.name} {got!r} != {want!r}"
            )


def _recorded_analysis(monkeypatch, workload, config):
    """Run a full aDVF analysis; return the analyzer and every
    ``(args, result)`` of its ``analyze()`` calls."""
    calls = []
    chase = PropagationAnalyzer.analyze

    def recording(self, *args):
        result = chase(self, *args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(PropagationAnalyzer, "analyze", recording)
    engine = AdvfEngine(workload, config)
    engine.analyze()
    return engine._propagation, calls


def _assert_matches_scan(analyzer, calls, name):
    oracle = ScanPropagationAnalyzer(
        analyzer.trace, k=analyzer.k, output_objects=analyzer.output_objects
    )
    for args, result in calls:
        assert_same_result(
            result, oracle.analyze(*args), f"{name} @ event {args[0].event_id}"
        )


@pytest.mark.parametrize("name", workload_names())
def test_chase_matches_scan_on_every_analysis_call(monkeypatch, name):
    workload = get_workload(name, seed=SEED)
    analyzer, calls = _recorded_analysis(monkeypatch, workload, AnalysisConfig())
    if not calls:
        pytest.skip(f"{name}: no site reaches the propagation analysis")
    _assert_matches_scan(analyzer, calls, name)
    # the counters the engine flushes once per object: reset after each
    assert analyzer.visits == 0 and analyzer.steps == 0


def test_counters_track_visits_and_steps(monkeypatch):
    monkeypatch.setattr(AdvfEngine, "_flush_propagation_counters", lambda self: None)
    analyzer, calls = _recorded_analysis(
        monkeypatch, get_workload("cg", seed=SEED), AnalysisConfig()
    )
    assert calls
    assert analyzer.steps == sum(r.steps_analyzed for _, r in calls)
    assert 0 < analyzer.visits < analyzer.steps


# --------------------------------------------------------------------- #
# hand-built traces
# --------------------------------------------------------------------- #
TMP = 200  # address of a cell of the scratch object "tmp"
OUT = 400  # address of a cell of the output object "out"


def _op(opcode, operands, result=None, rtype=F64, **memory):
    """One event: ``operands`` are ``(value, producer)`` pairs, producer
    ``-1`` for a constant."""
    return opcode, operands, result, rtype, memory


def _trace(*ops):
    events = []
    for dynamic_id, (opcode, operands, result, rtype, memory) in enumerate(ops):
        events.append(TraceEvent(
            dynamic_id=dynamic_id,
            opcode=opcode,
            function="k",
            block="entry",
            static_uid=dynamic_id,
            source_line=None,
            operand_values=tuple(v for v, _ in operands),
            operand_types=tuple(I64 if isinstance(v, int) else F64 for v, _ in operands),
            operand_producers=tuple(p for _, p in operands),
            operand_kinds=tuple(
                OperandKind.INSTRUCTION if p >= 0 else OperandKind.CONSTANT
                for _, p in operands
            ),
            result_value=result,
            result_type=rtype if result is not None else None,
            predicate=memory.pop("predicate", None),
            **memory,
        ))
    return ColumnarTrace.from_events(events)


def _load(address, value, obj="tmp"):
    return _op(Opcode.LOAD, [(address, -1)], value, address=address,
               object_name=obj, element_index=0)


def _store(value, producer, address, obj="tmp", address_producer=-1):
    return _op(Opcode.STORE, [(value, producer), (address, address_producer)],
               address=address, object_name=obj, element_index=0)


NOP = _op(Opcode.FADD, [(1.0, -1), (2.0, -1)], 3.0)


def _consumed(event_id, value_type=F64):
    return Participation(event_id, ParticipationRole.CONSUMED, 0, 0, 0,
                         value_type, event_id)


def _chase(trace, event_id, corrupted, k=50, value_type=F64):
    """Chase on ``trace``; the result must equal the scan's, and is
    returned."""
    output = {"out"}
    participation = _consumed(event_id, value_type)
    pattern = ErrorPattern((1,))
    want = ScanPropagationAnalyzer(trace, k, output).analyze(
        participation, pattern, corrupted
    )
    got = PropagationAnalyzer(trace, k, output).analyze(
        participation, pattern, corrupted
    )
    assert_same_result(got, want, "chase")
    return got


def test_corruption_dies_exactly_at_its_last_use():
    trace = _trace(
        _load(TMP, 1.0),                                     # 0
        _op(Opcode.FADD, [(1.0, 0), (1.0, -1)], 2.0),        # 1: y (seed)
        NOP,                                                 # 2
        _op(Opcode.FCMP, [(2.0, 1), (0.0, -1)], 1, I1,       # 3: last use of y
            predicate="ogt"),
        NOP, NOP, NOP,
    )
    result = _chase(trace, 1, 5.0)
    assert result.masked is True
    assert result.category is MaskingCategory.LOGIC_COMPARE
    assert result.steps_analyzed == 3  # the scan drops y on reaching event 4
    # a window ending right after the last use drops y at its end
    cut = _chase(trace, 1, 5.0, k=2)
    assert cut.masked is True and cut.steps_analyzed == 2


@pytest.mark.parametrize("live", [True, False])
def test_store_over_corrupted_cell_votes_only_while_live(live):
    ops = [
        NOP,                                                 # 0
        _store(1.0, -1, TMP),                                # 1: seed
        _load(TMP, 1.0),                                     # 2: v
        _store(7.0, -1, TMP),                                # 3: clean store
        _op(Opcode.FADD, [(1.0, 2), (1.0, -1)], 2.0),        # 4: w
        _op(Opcode.FCMP, [(2.0, 4), (0.0, -1)], 1, I1,       # 5: absorbs w
            predicate="ogt"),
        NOP,
    ]
    if live:
        ops.append(_load(TMP, 7.0))                          # 7: later load
    result = _chase(_trace(*ops), 1, 9.0)
    assert result.masked is True
    # a store over a live cell votes OVERWRITE (first in the tie); over a
    # dead cell it is no vote and the compare's vote decides
    assert result.category is (
        MaskingCategory.OVERWRITE if live else MaskingCategory.LOGIC_COMPARE
    )
    assert result.steps_analyzed == 5


def test_corrupted_load_address_diverges_with_remaining_counts():
    trace = _trace(
        NOP,                                                 # 0
        _op(Opcode.ADD, [(TMP, -1), (0, -1)], TMP, I64),     # 1: address (seed)
        _op(Opcode.ADD, [(TMP, 1), (0, -1)], TMP, I64),      # 2: u, live to 5
        _op(Opcode.LOAD, [(TMP, 1)], 1.0, address=TMP,       # 3
            object_name="tmp", element_index=0),
        NOP,
        _op(Opcode.ADD, [(TMP, 2), (1, -1)], TMP + 1, I64),  # 5
    )
    result = _chase(trace, 1, TMP + 8, value_type=I64)
    assert result.masked is None and result.diverged
    assert result.reason == "corrupted load address"
    assert result.steps_analyzed == 2
    assert result.corrupted_values_remaining == 2
    assert result.corrupted_memory_remaining == 0


def test_corrupted_store_address_diverges_with_remaining_counts():
    trace = _trace(
        NOP,                                                 # 0
        _store(5, -1, TMP),                                  # 1: seed
        _load(TMP, 5),                                       # 2: v
        _op(Opcode.ADD, [(OUT, -1), (5, 2)], OUT + 5, I64),  # 3: address from v
        _store(0, -1, OUT + 5, "out", address_producer=3),   # 4
        NOP,
        _load(TMP, 5),                                       # 6: keeps tmp live
    )
    result = _chase(trace, 1, 6, value_type=I64)
    assert result.masked is None and result.diverged
    assert result.reason == "corrupted store address"
    assert result.steps_analyzed == 3
    # v died after event 3; the address value and the tmp cell are live
    assert result.corrupted_values_remaining == 1
    assert result.corrupted_memory_remaining == 1
    assert result.contaminated_objects == {"tmp"}


def test_trapping_secondary_error():
    trace = _trace(
        NOP,                                                 # 0
        _op(Opcode.SUB, [(5, -1), (3, -1)], 2, I64),         # 1: divisor (seed)
        _op(Opcode.SDIV, [(10, -1), (2, 1)], 5, I64),        # 2
        NOP,
    )
    result = _chase(trace, 1, 0, value_type=I64)
    assert result.masked is False and not result.diverged
    assert result.reason.startswith("secondary error traps")
    assert result.steps_analyzed == 1


def test_window_cut_short_by_end_of_trace():
    trace = _trace(
        NOP, NOP,
        _op(Opcode.FADD, [(1.0, -1), (1.0, -1)], 2.0),       # 2: seed
        NOP,
        _op(Opcode.FADD, [(2.0, 2), (1.0, -1)], 3.0),        # 4: last event
    )
    result = _chase(trace, 2, 4.0)
    assert result.masked is True
    assert result.steps_analyzed == 2  # events 3 and 4, not k
    assert result.corrupted_values_remaining == 0


@pytest.mark.parametrize("obj", ["out", "tmp"])
def test_corrupted_output_cell_is_never_dropped(obj):
    address = OUT if obj == "out" else TMP
    trace = _trace(
        NOP,
        _store(1.0, -1, address, obj),                       # 1: seed
        NOP, NOP, NOP,
    )
    result = _chase(trace, 1, 3.0)
    if obj == "out":
        assert result.masked is False
        assert result.corrupted_memory_remaining == 1
        assert result.steps_analyzed == 3  # the whole rest of the trace
    else:
        # a never-loaded scratch cell is dead on reaching the next event
        assert result.masked is True
        assert result.steps_analyzed == 1
