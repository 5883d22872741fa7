"""An analysed ``AdvfEngine`` is freed as soon as its last reference goes.

Crashing faults in the lockstep walk and stops inside fused ``lanes``
segments both keep exceptions; a kept traceback (or a ``locals()`` snapshot
holding the exception) pins the whole calling stack, engine included, in a
reference cycle.  Such an engine lives until the cyclic collector happens to
run, so a process's peak memory would depend on when that is.
"""

import gc
import weakref

import pytest

from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.workloads.registry import TABLE1_ROWS, get_workload


@pytest.mark.parametrize("name", TABLE1_ROWS)
def test_engine_freed_by_reference_counting(name):
    workload = get_workload(name, seed=1)
    gc.collect()
    gc.disable()
    try:
        engine = AdvfEngine(workload, AnalysisConfig())
        engine.analyze()
        released = weakref.ref(engine)
        del engine
        assert released() is None
    finally:
        gc.enable()
