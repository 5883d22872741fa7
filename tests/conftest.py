"""Shared fixtures: compiled kernels, traced workloads, small analysis configs.

Heavy artefacts (golden traces) are session-scoped so the suite stays fast;
they are never mutated by tests.
"""

from __future__ import annotations

import pytest

from repro.core.advf import AnalysisConfig
from repro.core.patterns import SingleBitModel
from repro.frontend import compile_kernel
from repro.ir.types import F64, I64
from repro.tracing import ColumnarTrace
from repro.vm import Memory

from oracles.interpreter import Interpreter


def pytest_addoption(parser):
    parser.addoption(
        "--engine-backend",
        choices=("block", "op"),
        default="block",
        help="default backend of every Engine the tests build without naming "
        "one: 'block' (production) or 'op' (the per-op oracle loop)",
    )


def pytest_configure(config):
    """Apply ``--engine-backend`` before any fixture exists, so session
    fixtures run on the chosen backend too."""
    backend = config.getoption("--engine-backend")
    if backend != "block":
        from mir_helpers import default_engine_backend
        from repro.vm.engine import Engine

        Engine.__init__ = default_engine_backend(backend)


@pytest.fixture(autouse=True)
def _isolated_trace_cache(tmp_path, monkeypatch):
    """Point the golden-trace cache at a per-test directory.

    Keeps the suite from writing into (or reading stale artifacts from)
    the user-level ``~/.cache/repro/traces`` default.
    """
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace-cache"))


# --------------------------------------------------------------------- #
# tiny kernels used across VM / tracing / core tests
# --------------------------------------------------------------------- #
def saxpy(a: "double*", b: "double*", n: "i64", alpha: "double") -> "void":
    for i in range(n):
        b[i] = b[i] + alpha * a[i]


def accumulate(src: "double*", dst: "double*", n: "i64") -> "double":
    total = 0.0
    for i in range(n):
        dst[i] = 0.0
        dst[i] = dst[i] + src[i] * src[i]
        total = total + dst[i]
    return total


def gather(idx: "i64*", src: "double*", dst: "double*", n: "i64") -> "void":
    for i in range(n):
        dst[i] = src[idx[i]]


@pytest.fixture(scope="session")
def saxpy_function():
    return compile_kernel(saxpy)


@pytest.fixture()
def saxpy_setup(saxpy_function):
    """(module, memory, a, b) with fresh memory per test."""
    module = saxpy_function.metadata["module"]
    memory = Memory()
    a = memory.allocate("a", F64, 6, initial=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = memory.allocate("b", F64, 6, initial=[10.0] * 6)
    return module, memory, a, b


@pytest.fixture(scope="session")
def accumulate_trace():
    """Traced run of the ``accumulate`` kernel plus its setup objects."""
    function = compile_kernel(accumulate)
    module = function.metadata["module"]
    memory = Memory()
    src = memory.allocate("src", F64, 5, initial=[1.0, -2.0, 3.0, 0.5, 4.0])
    dst = memory.allocate("dst", F64, 5)
    trace = ColumnarTrace()
    result = Interpreter(module, memory, trace=trace).run(
        "accumulate", {"src": src, "dst": dst, "n": 5}
    )
    return {
        "module": module,
        "memory": memory,
        "trace": trace,
        "return_value": result.return_value,
    }


@pytest.fixture(scope="session")
def gather_trace():
    """Traced run of the index-driven ``gather`` kernel (integer data object)."""
    function = compile_kernel(gather)
    module = function.metadata["module"]
    memory = Memory()
    idx = memory.allocate("idx", I64, 4, initial=[3, 0, 2, 1])
    src = memory.allocate("src", F64, 4, initial=[10.0, 20.0, 30.0, 40.0])
    dst = memory.allocate("dst", F64, 4)
    trace = ColumnarTrace()
    Interpreter(module, memory, trace=trace).run(
        "gather", {"idx": idx, "src": src, "dst": dst, "n": 4}
    )
    return {"module": module, "memory": memory, "trace": trace}


# --------------------------------------------------------------------- #
# workload-level fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def lu_workload():
    from repro.workloads.lu import LUWorkload

    return LUWorkload(n=8, niter=1)


@pytest.fixture(scope="session")
def lu_trace(lu_workload):
    return lu_workload.traced_run().trace


@pytest.fixture(scope="session")
def lulesh_workload():
    from repro.workloads.lulesh import LuleshWorkload

    return LuleshWorkload(num_elem=10)


@pytest.fixture(scope="session")
def cg_workload():
    from repro.workloads.cg import CGWorkload

    return CGWorkload(n=10, cgitmax=2)


@pytest.fixture(scope="session")
def fast_config():
    """Analysis configuration tuned for test speed (bounded injections)."""
    return AnalysisConfig(
        max_injections=20,
        equivalence_samples=1,
        injection_samples_per_class=1,
        error_model=SingleBitModel(bit_stride=4),
    )
