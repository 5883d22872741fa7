"""Superinstructions compile only once their segment is hot.

A fused segment compiles a variant (``plain`` or ``lanes``) at the N-th
entry that wants it (N per variant in :data:`~repro.mir.HOT_ENTRIES`); the
entries before run in the op loop.  In the batch walk ``lanes`` also needs
the golden run's consent: it compiles only once the segment's ``lanes``
entries so far plus its golden entries still ahead of the walk reach
:data:`~repro.mir.LANES_BREAK_EVEN`.  Traced runs want no variant: they
record through the op loop however often they enter a segment.  These
cases pin the rule on a small loop:

* a segment compiles exactly at its N-th entry (entries counted
  independently, from an op-loop trace) and never if it is never entered;
  a traced run compiles and dispatches nothing;
* a run whose loop crosses the threshold mid-run is bit-identical to the
  op loop and to a program compiled up front -- sink-free, traced (which
  stays in the op loop), and in the batch walk with divergence live
  (``lanes``, on a loop long enough to pay for it);
* a walk over a loop entered fewer than ``LANES_BREAK_EVEN`` times never
  compiles ``lanes`` and equals a walk over code compiled up front; the
  same walk compiles it once the process has seen the segment often
  enough;
* the golden entry positions a replay context derives are the same from
  a traced and from an untraced golden run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.replay import ReplayContext
from repro.frontend import compile_kernel
from repro.ir.types import F64
from repro.mir import HOT_ENTRIES, LANES_BREAK_EVEN, mir_program_for
from repro.tracing.columnar import ColumnarTrace
from repro.vm.engine import DecodedProgram, Engine
from repro.vm.faults import FaultSpec
from repro.vm.memory import Memory
from repro.workloads.base import Workload

from mir_helpers import cold, compile_all, engine_backend, segment_dispatches
from test_mir_parity import assert_event_streams_identical


def lazy_kernel(a: "double*", b: "double*", n: "i64") -> "double":
    acc = 0.0
    for i in range(n):
        b[i] = b[i] + 2.0 * a[i]
        if a[i] > 1.0e9:
            b[i] = 0.0
        acc = acc + b[i]
    return acc


#: Loop trips of the crossing runs: every loop segment gets hot mid-run.
TRIPS = 3 * max(HOT_ENTRIES.values())

#: sink kind -> (sink factory, the variant its block runs compile)
SINKS = {"plain": (lambda: None, "plain"), "traced": (ColumnarTrace, None)}


def _module():
    """A fresh module of ``lazy_kernel`` with nothing compiled."""
    module = compile_kernel(lazy_kernel).metadata["module"]
    cold(module)
    return module


def _segments(module):
    program = mir_program_for(DecodedProgram.of(module))
    return [seg for seg in program.functions["lazy_kernel"].segments if seg.fused]


def _run(module, n, backend, sink=None):
    """One run over ``n`` elements: ``(return, steps, b bytes, sink)``."""
    memory = Memory()
    a = memory.allocate("a", F64, n, initial=np.linspace(0.5, 2.0, n))
    b = memory.allocate("b", F64, n, initial=np.linspace(-1.0, 1.0, n))
    engine = Engine(module, memory, sink=sink, backend=backend)
    result = engine.run("lazy_kernel", {"a": a, "b": b, "n": n})
    return result.return_value, result.steps, memory.object("b").values().tobytes(), sink


def _entries(module, n):
    """Entries of each fused segment in one run over ``n`` elements, counted
    from the op loop's trace (an entry executes the segment's first op)."""
    events = _run(module, n, "op", sink=ColumnarTrace())[3]
    ops = DecodedProgram.of(module).functions["lazy_kernel"].ops
    executed = {}
    for event in events:
        executed[event.static_uid] = executed.get(event.static_uid, 0) + 1
    return [executed.get(ops[seg.start_pc].static_uid, 0) for seg in _segments(module)]


@pytest.mark.parametrize("sink_kind", sorted(SINKS))
def test_segment_compiles_exactly_at_its_nth_entry(sink_kind):
    make_sink, variant = SINKS[sink_kind]
    hot = HOT_ENTRIES["plain"]
    module = _module()
    first = _entries(module, hot - 1)
    second = _entries(module, 1)
    # the loop head is entered once more than the body, and the branch
    # arm guarded by ``a[i] > 1e9`` never
    assert hot in first and hot - 1 in first and 0 in first
    seen = [0] * len(first)
    for n, entries in ((hot - 1, first), (1, second)):
        expected = 0
        if variant:
            expected = sum(
                max(0, before + now - max(before, hot - 1))
                for before, now in zip(seen, entries)
            )
        with segment_dispatches() as dispatched:
            _run(module, n, "block", make_sink())
        seen = [before + now for before, now in zip(seen, entries)]
        # every entry from the N-th on ran the compiled segment ...
        assert dispatched[0] == expected, (n, seen)
        # ... and exactly the segments entered N times are compiled
        for seg, entered in zip(_segments(module), seen):
            compiled = {
                name for name in ("plain", "lanes")
                if getattr(seg, name) is not None
            }
            hot_enough = variant and entered >= hot
            assert compiled == ({variant} if hot_enough else set()), seg
    assert 0 in seen  # never entered, never compiled


@pytest.mark.parametrize("sink_kind", ["none", "traced"])
def test_crossing_the_threshold_mid_run_is_bit_identical(sink_kind):
    def sink():
        return ColumnarTrace() if sink_kind == "traced" else None

    module = _module()
    op = _run(module, TRIPS, "op", sink())
    with segment_dispatches() as cold_dispatched:
        crossing = _run(module, TRIPS, "block", sink())
    compile_all(module)
    with segment_dispatches() as warm_dispatched:
        warmed = _run(module, TRIPS, "block", sink())
    if sink_kind == "traced":
        # traced runs stay in the op loop, compiled code at hand or not
        assert cold_dispatched == warm_dispatched == [0, 0]
    else:
        # the cold run ran its first entries op by op, then the compiled
        # code
        assert 0 < cold_dispatched[0] < warm_dispatched[0]
    for got in (crossing, warmed):
        assert got[:3] == op[:3]
        if sink_kind == "traced":
            assert_event_streams_identical(op[3], got[3], sink_kind)


class LazyWorkload(Workload):
    name = "lazy-compile"
    target_objects = ("a", "b")
    output_objects = ("b",)
    entry = "lazy_kernel"

    def __init__(self, trips: int) -> None:
        super().__init__()
        self.trips = trips

    def kernels(self):
        return [lazy_kernel]

    def setup(self, memory: Memory):
        n = self.trips
        a = memory.allocate("a", F64, n, initial=np.linspace(0.5, 2.0, n))
        b = memory.allocate("b", F64, n, initial=np.linspace(-1.0, 1.0, n))
        return {"a": a.base, "b": b.base, "n": n}


def _walk(workload, specs, backend):
    """One batch walk: per-fault summaries and the walk's stats."""
    with engine_backend(backend):
        context = ReplayContext(workload)
        results = context.replay_many(specs)
    summaries = []
    for result in results:
        outcome = result.outcome
        summaries.append((
            result.via,
            result.converged_at,
            None if result.error is None else (type(result.error), str(result.error)),
            None if outcome is None else (
                outcome.steps,
                outcome.return_value,
                outcome.outputs["b"].tobytes(),
            ),
        ))
    return summaries, context.stats


def _corrupting_specs(workload):
    """Faults in the first iterations' products: they corrupt b[i] for good,
    so cell divergence is live at every later segment entry and the walk
    wants ``lanes`` there."""
    events = list(workload.traced_run().trace)
    fmuls = [e for e in events if e.opcode.value == "fmul"]
    return [
        FaultSpec(dynamic_id=e.dynamic_id, bit=bit, operand_index=0)
        for e, bit in zip(fmuls[:3], (40, 51, 62))
    ]


def _lanes_compiled(module):
    return [seg for seg in _segments(module) if seg.lanes is not None]


def test_crossing_the_threshold_in_the_batch_walk_with_divergence_live():
    # long enough that the loop's segments pay for ``lanes`` from their
    # N-th entry on: the walk crosses its threshold mid-walk
    workload = LazyWorkload(2 * LANES_BREAK_EVEN)
    module = workload.module()
    specs = _corrupting_specs(workload)
    # (the op walk first: a process's first context for a workload sizes
    # its snapshot schedule differently from the later ones)
    op, _ = _walk(workload, specs, "op")
    cold(module)
    crossing, cold_stats = _walk(workload, specs, "block")
    assert _lanes_compiled(module)
    compile_all(module)
    warmed, warm_stats = _walk(workload, specs, "block")
    assert crossing == op == warmed
    assert [via for via, *_ in op] == ["completed"] * len(specs)
    assert cold_stats.walk_ops == warm_stats.walk_ops
    assert 0 < cold_stats.walk_lane_ops < warm_stats.walk_lane_ops


def test_lanes_never_compile_where_the_golden_run_says_they_cannot_pay():
    # the loop body is entered fewer than LANES_BREAK_EVEN times in all:
    # past its N-th ``lanes`` entry, the entries so far plus those left
    # never reach the break-even
    trips = LANES_BREAK_EVEN - 2
    assert trips > HOT_ENTRIES["lanes"]
    workload = LazyWorkload(trips)
    module = workload.module()
    specs = _corrupting_specs(workload)
    op, _ = _walk(workload, specs, "op")
    cold(module)
    vetoed, cold_stats = _walk(workload, specs, "block")
    assert not _lanes_compiled(module)
    assert cold_stats.walk_lane_ops == 0
    compile_all(module)
    warmed, warm_stats = _walk(workload, specs, "block")
    assert vetoed == warmed == op
    assert warm_stats.walk_lane_ops > 0


def test_lanes_compile_once_the_process_has_seen_a_segment_often_enough():
    # each walk alone is too short to pay, but the entry counts persist
    # across walks (a campaign worker's later shards): the walks that
    # follow push the loop over the break-even
    trips = LANES_BREAK_EVEN - 2
    workload = LazyWorkload(trips)
    module = workload.module()
    specs = _corrupting_specs(workload)
    op, _ = _walk(workload, specs, "op")
    cold(module)
    walks = 0
    while not _lanes_compiled(module):
        assert walks < 3, "lanes never compiled"
        got, stats = _walk(workload, specs, "block")
        assert got == op
        walks += 1
    assert walks >= 2
    got, stats = _walk(workload, specs, "block")
    assert got == op and stats.walk_lane_ops > 0


def test_golden_entries_agree_between_traced_and_untraced_golden_runs():
    workload = LazyWorkload(HOT_ENTRIES["lanes"] + 1)
    with engine_backend("block"):
        traced = ReplayContext(workload, sink=ColumnarTrace())
        untraced = ReplayContext(workload)
    assert traced.segment_entries == untraced.segment_entries
    entries = traced.segment_entries
    assert entries and all(
        positions == sorted(positions) for positions in entries.values()
    )
    # the loop head is entered once per trip and once more to leave
    assert max(len(positions) for positions in entries.values()) == workload.trips + 1

