"""The engine's call-depth limit, reached by a fault.

``rec(d)`` recurses ``d`` times; ``main`` reads ``d`` from the ``depth``
data object.  The golden run stays far below
:data:`~repro.vm.engine.MAX_CALL_DEPTH`; one bit flip in the loaded depth
recurses past it.  On both backends a fresh faulty run must raise the
limit's :class:`VMError`, and the batched injector must classify the same
fault as a crash with that message as its detail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acceptance import OutcomeClass
from repro.core.injector import DeterministicFaultInjector
from repro.ir import Constant, Function, IRBuilder, Module
from repro.ir.instructions import ICmpPredicate
from repro.ir.types import I64, VOID, pointer_to
from repro.vm.engine import MAX_CALL_DEPTH, Engine
from repro.vm.errors import VMError
from repro.vm.faults import FaultSpec, FaultTarget
from repro.vm.memory import Memory
from repro.workloads.base import Workload

from mir_helpers import engine_backend

GOLDEN_DEPTH = 3
#: Flipping this bit of the loaded depth lands past the limit.
DEPTH_BIT = 8


def _recursive_module() -> Module:
    """``rec(d) = d > 0 ? rec(d - 1) + 1 : 0``; ``out[0] = rec(depth[0])``."""
    rec = Function("rec", [I64], ["d"], I64)
    b = IRBuilder(rec)
    entry, recurse, done = (rec.add_block(n) for n in ("entry", "recurse", "done"))
    b.set_block(entry)
    b.cond_br(b.icmp(ICmpPredicate.SGT, rec.arg_by_name("d"), 0, I64), recurse, done)
    b.set_block(recurse)
    inner = b.call("rec", [b.sub(rec.arg_by_name("d"), 1)], I64)
    b.ret(b.add(inner, 1))
    b.set_block(done)
    b.ret(Constant(I64, 0))

    main = Function(
        "main", [pointer_to(I64), pointer_to(I64)], ["depth", "out"], VOID
    )
    b = IRBuilder(main)
    b.set_block(main.add_block("entry"))
    depth = b.load(b.gep(main.arg_by_name("depth"), 0))
    b.store(b.call("rec", [depth], I64), b.gep(main.arg_by_name("out"), 0))
    b.ret()

    module = Module("call-depth")
    module.add_function(rec)
    module.add_function(main)
    return module


class RecursionWorkload(Workload):
    name = "call-depth"
    target_objects = ("depth",)
    output_objects = ("out",)
    entry = "main"

    def kernels(self):  # the module is built by hand
        return []

    def module(self):
        if self._module is None:
            self._module = _recursive_module()
        return self._module

    def setup(self, memory: Memory):
        depth = memory.allocate("depth", I64, 1, initial=np.array([GOLDEN_DEPTH]))
        out = memory.allocate("out", I64, 1)
        return {"depth": depth.base, "out": out.base}


@pytest.fixture(scope="module")
def workload():
    return RecursionWorkload()


@pytest.fixture(scope="module")
def depth_fault(workload):
    """The bit flip in the loaded depth that recurses past the limit."""
    load = next(
        e for e in workload.traced_run().trace
        if e.function == "main" and e.opcode.value == "load"
    )
    assert GOLDEN_DEPTH ^ (1 << DEPTH_BIT) > MAX_CALL_DEPTH
    return FaultSpec(
        dynamic_id=load.dynamic_id, bit=DEPTH_BIT, target=FaultTarget.RESULT
    )


@pytest.mark.parametrize("backend", ["op", "block"])
def test_golden_run_stays_below_the_limit(workload, backend):
    instance = workload.fresh_instance()
    Engine(instance.module, instance.memory, backend=backend).run(
        workload.entry, instance.args
    )
    assert list(instance.memory.object("out").values()) == [GOLDEN_DEPTH]


@pytest.mark.parametrize("backend", ["op", "block"])
def test_fault_on_the_depth_crosses_the_limit(workload, depth_fault, backend):
    instance = workload.fresh_instance()
    engine = Engine(
        instance.module, instance.memory, fault=depth_fault, backend=backend
    )
    with pytest.raises(VMError, match="call depth limit") as raised:
        engine.run(workload.entry, instance.args)
    assert str(raised.value) == f"call depth limit ({MAX_CALL_DEPTH}) exceeded"

    with engine_backend(backend):
        (result,) = DeterministicFaultInjector(workload).inject_many([depth_fault])
    assert result.outcome is OutcomeClass.CRASH
    assert result.detail == str(raised.value)
