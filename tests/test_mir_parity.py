"""Differential parity suite for the MIR superinstruction backend.

The block backend must be *observationally invisible*: for any program the
engine dispatching fused superinstructions has to produce bit-identical
results to the plain op loop and to the tree-walking interpreter — outputs,
return values, step counts (for crashing programs, the completed prefix),
and (for crashing programs) the exception type and message.  Traced runs never dispatch a fused
segment: they record through the op loop on either backend, so the full
trace event stream is held to the interpreter on the op loop.

Three layers of evidence:

* a seeded **differential fuzzer** generating random kernels in the
  restricted dialect (loops, gathers, integer/float arithmetic, branches,
  mid-run crashes) and running each through interpreter / op engine /
  block engine;
* **structural invariants** of the lowering on all registry workloads —
  every op lands in exactly one segment and the op-index ↔ (segment,
  offset) maps round-trip, so fault-site addressing stays exact;
* targeted parity checks for the sink-free fast path, for traced runs (no
  segment dispatched or compiled, the same trace as the op backend) and
  for fault injection on both backends.

Segments compile their superinstructions only once hot, so the fuzzer and
the sink-free fast-path checks run twice: a *cold* leg starting from an empty
compile cache (the op loop runs each segment until it is hot, then the
compiled code takes over mid-run) and a *warmed* leg (``*_warmed``) with
every variant compiled up front.  Both assert that the block backend
dispatched at least one fused segment.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.frontend import compile_kernel_source
from repro.ir.types import F64, I64
from repro.mir import HOT_ENTRIES, lower_program, mir_program_for
from repro.tracing.columnar import ColumnarTrace
from repro.tracing.events import TraceEvent
from repro.vm.engine import DecodedProgram, Engine
from repro.vm.faults import FaultSpec, FaultTarget
from repro.vm.memory import Memory
from repro.workloads.registry import get_workload, workload_names

from mir_helpers import cold, compile_all, segment_dispatches
from oracles.interpreter import Interpreter


# --------------------------------------------------------------------- #
# event-stream comparison (field-by-field; TraceEvent has no __eq__)
# --------------------------------------------------------------------- #
def _values_equal(v1, v2):
    if type(v1) is not type(v2):
        return False
    if isinstance(v1, float):
        return v1 == v2 or (math.isnan(v1) and math.isnan(v2))
    if isinstance(v1, tuple):
        return len(v1) == len(v2) and all(
            _values_equal(a, b) for a, b in zip(v1, v2)
        )
    return v1 == v2


def assert_event_streams_identical(ref_events, got_events, where=""):
    ref_events, got_events = list(ref_events), list(got_events)
    assert len(ref_events) == len(got_events), (
        f"{where}: {len(ref_events)} vs {len(got_events)} events"
    )
    for index, (ref, got) in enumerate(zip(ref_events, got_events)):
        for field in TraceEvent.__slots__:
            rv, gv = getattr(ref, field), getattr(got, field)
            assert _values_equal(rv, gv), (
                f"{where}: event {index} ({ref.opcode}) field {field!r}: "
                f"{rv!r} != {gv!r}"
            )


def assert_outputs_identical(ref, got, where=""):
    assert set(ref) == set(got), where
    for name in ref:
        assert np.array_equal(
            ref[name].view(np.uint8), got[name].view(np.uint8)
        ), f"{where}: output {name!r} differs"


# --------------------------------------------------------------------- #
# seeded kernel fuzzer (restricted dialect)
# --------------------------------------------------------------------- #
_FCONSTS = ["0.5", "1.25", "2.0", "3.75", "-1.5", "0.125"]
_ICONSTS = ["2", "3", "5", "7", "11"]


def _statement(rng: random.Random, loop_var: str) -> str:
    i = loop_var
    choice = rng.randrange(9)
    if choice == 0:
        return f"s = s + a[{i}] * {rng.choice(_FCONSTS)}"
    if choice == 1:
        return f"a[{i}] = s / (a[{i}] * a[{i}] + {rng.choice(_ICONSTS)}.0)"
    if choice == 2:
        return f"t = (t * {rng.choice(_ICONSTS)} + {i}) % 97"
    if choice == 3:
        return f"b[{i}] = (b[{i}] + t) % n"
    if choice == 4:
        # double-mod keeps the gather index in [0, n) for either sign
        # convention of %, so this never faults
        return f"s = s + a[((b[{i}] % n) + n) % n]"
    if choice == 5:
        return f"t = t ^ (t >> {rng.randint(1, 4)})"
    if choice == 6:
        return f"t = (t & 1023) | {rng.choice(_ICONSTS)}"
    if choice == 7:
        return f"s = s - a[{i}] / {rng.choice(_ICONSTS)}.0"
    return f"t = t + {i} * {rng.choice(_ICONSTS)}"


def _conditional(rng: random.Random, loop_var: str) -> list:
    if rng.random() < 0.5:
        test = f"a[{loop_var}] > s"
    else:
        test = f"t > {rng.choice(_ICONSTS)}"
    return [f"if {test}:", "    " + _statement(rng, loop_var)]


def generate_kernel(seed: int, crash: str = ""):
    """A random kernel source plus its deterministic memory setup.

    ``crash`` selects an optional mid-run failure: ``"oob"`` gathers past
    the end of ``a`` halfway through the first loop, ``"div0"`` divides by
    an integer that cancels to zero.  Returns ``(source, name, n, a0, b0)``.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    name = f"fuzz_{seed}_{crash or 'ok'}"
    lines = [
        f'def {name}(a: "double*", b: "i64*", n: "i64") -> "double":',
        "    s = 0.0",
        "    t = 1",
    ]
    for loop_index in range(rng.randint(1, 2)):
        var = f"i{loop_index}"
        step = rng.choice([1, 1, 1, 2])
        if step == 1:
            lines.append(f"    for {var} in range(n):")
        else:
            lines.append(f"    for {var} in range(0, n, {step}):")
        body = []
        for _ in range(rng.randint(2, 5)):
            if rng.random() < 0.25:
                body.extend(_conditional(rng, var))
            else:
                body.append(_statement(rng, var))
        if crash == "oob" and loop_index == 0:
            body.extend([f"if {var} >= {n // 2}:", "    s = s + a[n + n]"])
        if crash == "div0" and loop_index == 0:
            body.extend([f"if {var} >= {n // 2}:", "    t = t // (t - t)"])
        lines.extend("        " + stmt for stmt in body)
    lines.append("    return s + t")
    a0 = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(n)]
    b0 = [rng.randrange(n) for _ in range(n)]
    return "\n".join(lines), name, n, a0, b0


def _run_one(module, name, n, a0, b0, executor, sink):
    """One fresh execution into ``sink`` (``None``: sink-free); returns
    (outputs, return, steps, sink, error)."""
    memory = Memory()
    args = {
        "a": memory.allocate("a", F64, n, initial=a0),
        "b": memory.allocate("b", I64, n, initial=b0),
        "n": n,
    }
    if executor == "interpreter":
        runner = Interpreter(module, memory, trace=sink)
    else:
        runner = Engine(module, memory, sink=sink, backend=executor)
    error = None
    return_value = None
    try:
        return_value = runner.run(name, args).return_value
    except Exception as exc:  # noqa: BLE001 - crash parity asserted by caller
        error = exc
    # on a crash, the ops completed before the crashing one
    steps = runner.steps_executed
    outputs = {
        "a": memory.object("a").values(),
        "b": memory.object("b").values(),
    }
    return outputs, return_value, steps, sink, error


def _prepare(module, warm: bool) -> None:
    """Start ``module``'s block runs cold, or with every variant compiled."""
    if warm:
        compile_all(module)
    else:
        cold(module)


@pytest.mark.parametrize("crash", ["", "oob", "div0"])
@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_kernels_three_way_parity(seed, crash):
    _three_way_parity(seed, crash, warm=False)


@pytest.mark.parametrize("crash", ["", "oob", "div0"])
@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_kernels_three_way_parity_warmed(seed, crash):
    _three_way_parity(seed, crash, warm=True)


def _three_way_parity(seed, crash, warm):
    source, name, n, a0, b0 = generate_kernel(seed, crash)
    function = compile_kernel_source(source)
    module = function.metadata["module"]
    where = f"seed={seed} crash={crash or 'none'} warm={warm}"
    _prepare(module, warm)

    ref = _run_one(module, name, n, a0, b0, "interpreter", ColumnarTrace())
    op = _run_one(module, name, n, a0, b0, "op", ColumnarTrace())
    _assert_same_run(ref, op, f"{where} op")
    assert_event_streams_identical(ref[3], op[3], f"{where} op")
    assert ref[2] == len(ref[3]), where
    # block runs dispatch segments only sink-free: compare a sink-free run
    # with the interpreter.  Cold: repeat it until a segment is hot -- one
    # run may stop before any gets there -- comparing every run, before,
    # across and after the compiles
    for run in range(4 * HOT_ENTRIES["plain"]):
        label = f"{where} block run {run}"
        with segment_dispatches() as dispatched:
            bare = _run_one(module, name, n, a0, b0, "block", None)
        _assert_same_run(ref, bare, f"{label} sink-free")
        if dispatched[0]:
            break
    assert dispatched[0] > 0, f"{where}: no fused segment dispatched"
    if crash:
        assert isinstance(ref[4], Exception), f"{where}: crash kernel did not crash"


def _assert_same_run(ref, got, label):
    if ref[4] is not None:
        assert got[4] is not None, f"{label}: expected {type(ref[4]).__name__}"
        assert type(got[4]) is type(ref[4]), label
        assert str(got[4]) == str(ref[4]), label
    else:
        assert got[4] is None, f"{label}: unexpected {got[4]!r}"
        assert _values_equal(ref[1], got[1]), f"{label}: return value"
    assert ref[2] == got[2], f"{label}: steps {ref[2]} vs {got[2]}"
    assert_outputs_identical(ref[0], got[0], label)


def test_fuzzed_kernels_do_fuse():
    """The fuzzer must generate programs the fuser actually fuses."""
    fused_ops = total_ops = 0
    for seed in range(12):
        source, _, _, _, _ = generate_kernel(seed)
        function = compile_kernel_source(source)
        decoded = DecodedProgram.of(function.metadata["module"])
        program = lower_program(decoded)
        for mf in program.functions.values():
            for seg in mf.segments:
                total_ops += seg.n_ops
                if seg.fused:
                    fused_ops += seg.n_ops
    assert fused_ops > total_ops // 2, (fused_ops, total_ops)


# --------------------------------------------------------------------- #
# lowering invariants on every registry workload
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", workload_names())
def test_op_index_block_map_roundtrip(name):
    """Every op lands in exactly one segment at exactly one offset.

    This is the invariant fault-site addressing rests on: a dynamic id
    resolved to an op index by the op loop must denote the same instruction
    the superinstruction executed at that position.
    """
    workload = get_workload(name)
    decoded = DecodedProgram.of(workload.module())
    program = mir_program_for(decoded)
    for fname, mf in program.functions.items():
        df = decoded.functions[fname]
        seen = set()
        for index, seg in enumerate(mf.segments):
            assert seg.index == index and seg.n_ops == len(seg.pcs)
            for pc in seg.pcs:
                assert pc not in seen, f"{name}/{fname}: pc {pc} in two segments"
                seen.add(pc)
        assert seen == set(range(len(df.ops))), (
            f"{name}/{fname}: segments do not partition the op array"
        )
        for pc, seg in enumerate(mf.dispatch):
            if seg is not None:
                assert seg.fused and seg.pcs[0] == pc


# --------------------------------------------------------------------- #
# sink-free fast path, traced runs and fault injection on a real workload
# --------------------------------------------------------------------- #
def _fresh_run(workload, backend, sink=None, fault=None):
    instance = workload.fresh_instance()
    engine = Engine(
        instance.module,
        instance.memory,
        sink=sink,
        fault=fault,
        max_steps=workload.max_steps,
        backend=backend,
    )
    error = None
    return_value = steps = None
    try:
        result = engine.run(workload.entry, instance.args)
        return_value, steps = result.return_value, result.steps
    except Exception as exc:  # noqa: BLE001
        error = exc
    outputs = {
        name: instance.memory.object(name).values()
        for name in workload.output_objects
    }
    return outputs, return_value, steps, error


@pytest.mark.parametrize("name", ["matmul", "cg", "pf"])
def test_workload_sink_free_parity(name):
    _workload_sink_free_parity(name, warm=False)


@pytest.mark.parametrize("name", ["matmul", "cg", "pf"])
def test_workload_sink_free_parity_warmed(name):
    _workload_sink_free_parity(name, warm=True)


def _workload_sink_free_parity(name, warm):
    """A sink-free block run dispatches fused segments and matches the op
    loop in steps, return value and outputs."""
    workload = get_workload(name)
    _prepare(workload.module(), warm)
    op = _fresh_run(workload, "op")
    with segment_dispatches() as dispatched:
        block = _fresh_run(workload, "block")
    assert dispatched[0] > 0
    assert op[3] is None and block[3] is None
    assert _values_equal(op[1], block[1])
    assert op[2] == block[2]
    assert_outputs_identical(op[0], block[0], name)


@pytest.mark.parametrize("name", workload_names())
def test_workload_traced_parity(name):
    """A traced block-backend run records through the op loop: it
    dispatches no fused segment, compiles none, and records the op
    backend's trace."""
    _workload_traced_parity(name, warm=False)


@pytest.mark.parametrize("name", ["matmul", "cg", "pf"])
def test_workload_traced_parity_warmed(name):
    """Compiled superinstructions at hand do not change that."""
    _workload_traced_parity(name, warm=True)


def _workload_traced_parity(name, warm):
    workload = get_workload(name)
    _prepare(workload.module(), warm)
    op_sink, block_sink = ColumnarTrace(), ColumnarTrace()
    op = _fresh_run(workload, "op", sink=op_sink)
    with segment_dispatches() as counted:
        block = _fresh_run(workload, "block", sink=block_sink)
    assert counted == [0, 0], "traced block run dispatched or compiled segments"
    assert op[3] is None and block[3] is None
    assert op[1] == block[1] and op[2] == block[2]
    assert_outputs_identical(op[0], block[0], name)
    assert_event_streams_identical(op_sink, block_sink, name)


def test_workload_fault_injection_parity():
    """Injected runs agree bit-for-bit across backends, crashes included."""
    workload = get_workload("matmul")
    golden_steps = _fresh_run(workload, "op")[2]
    specs = []
    for dynamic_id in (0, 7, golden_steps // 3, golden_steps // 2, golden_steps - 2):
        specs.append(FaultSpec(dynamic_id=dynamic_id, bit=62))
        specs.append(
            FaultSpec(dynamic_id=dynamic_id, bit=3, target=FaultTarget.RESULT)
        )
    crashes = 0
    for spec in specs:
        op = _fresh_run(workload, "op", fault=spec)
        block = _fresh_run(workload, "block", fault=spec)
        where = repr(spec)
        if op[3] is not None:
            crashes += 1
            assert block[3] is not None, where
            assert type(block[3]) is type(op[3]), where
            assert str(block[3]) == str(op[3]), where
        else:
            assert block[3] is None, f"{where}: {block[3]!r}"
            assert _values_equal(op[1], block[1]), where
            assert op[2] == block[2], where
        assert_outputs_identical(op[0], block[0], where)


def test_checkpoint_schedule_parity():
    """Snapshot schedules (positions *and* state digests) agree.

    Snapshot boundaries land mid-segment from the superinstruction's point
    of view; the dispatch guard must stop short of them so the captured
    state is exactly what the op loop captures.
    """
    from repro.vm.engine import snapshot_digest

    workload = get_workload("matmul")
    schedules = {}
    for backend in ("op", "block"):
        instance = workload.fresh_instance()
        engine = Engine(
            instance.module,
            instance.memory,
            snapshot_interval=500,
            max_steps=workload.max_steps,
            backend=backend,
        )
        result = engine.run(workload.entry, instance.args)
        schedules[backend] = (
            result.steps,
            [(snap.dyn, snapshot_digest(snap)) for snap in engine.snapshots],
            {
                name: instance.memory.object(name).values()
                for name in workload.output_objects
            },
        )
    op, block = schedules["op"], schedules["block"]
    assert op[0] == block[0]
    assert op[1] == block[1]
    assert_outputs_identical(op[2], block[2])


def test_backend_selection_and_validation():
    workload = get_workload("matmul")
    instance = workload.fresh_instance()
    engine = Engine(instance.module, instance.memory, backend="block")
    assert engine.backend == "block"
    assert engine._mir is not None
    op_engine = Engine(instance.module, instance.memory, backend="op")
    assert op_engine._mir is None
    with pytest.raises(ValueError, match="unknown engine backend"):
        Engine(instance.module, instance.memory, backend="jit")


def test_environment_does_not_select_backend(monkeypatch, request):
    """The backend is a constructor argument only: the retired
    ``REPRO_ENGINE_BACKEND`` variable, set to the other backend, leaves the
    default (``block``, or the suite's ``--engine-backend``) in place."""
    default = request.config.getoption("--engine-backend")
    other = "op" if default == "block" else "block"
    workload = get_workload("matmul")
    instance = workload.fresh_instance()
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", other)
    engine = Engine(instance.module, instance.memory)
    assert engine.backend == default
    assert (engine._mir is not None) == (default == "block")
