"""Workload abstraction: kernels + data objects + acceptance criterion.

A :class:`Workload` knows how to build a *fresh, deterministic* instance of
itself — same kernels, same initial data-object contents — every time it is
asked.  Fault-injection campaigns rely on this: the golden run and every
faulty run must start from identical state, so each run gets its own
:class:`WorkloadInstance` (its own :class:`~repro.vm.memory.Memory`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.acceptance import AcceptanceCriterion, RelativeTolerance
from repro.frontend.compiler import compile_kernels
from repro.ir.function import Module
from repro.tracing.columnar import ColumnarTrace
from repro.vm.engine import Engine
from repro.vm.faults import FaultSpec
from repro.vm.memory import Memory

Number = Union[int, float]


@dataclass
class RunOutcome:
    """Successful (non-crashing) execution of a workload instance."""

    outputs: Dict[str, np.ndarray]
    return_value: Optional[Number]
    steps: int
    #: The trace the run was recorded into (``None`` for sink-free
    #: executions).
    trace: Optional[ColumnarTrace] = None


class WorkloadInstance:
    """One concrete, runnable instantiation of a workload."""

    def __init__(
        self,
        workload: "Workload",
        module: Module,
        memory: Memory,
        args: Dict[str, object],
    ) -> None:
        self.workload = workload
        self.module = module
        self.memory = memory
        self.args = args

    def run(
        self,
        trace: Optional[ColumnarTrace] = None,
        fault: Optional[FaultSpec] = None,
        max_steps: Optional[int] = None,
    ) -> RunOutcome:
        """Execute the workload's entry kernel on the pre-decoded
        :class:`~repro.vm.engine.Engine`.

        ``trace`` takes a :class:`~repro.tracing.columnar.ColumnarTrace` to
        record the run into, or ``None`` for a sink-free run.  The engine
        runs its production ``block`` backend; a test that pins the ``op``
        oracle builds its :class:`~repro.vm.engine.Engine` directly.

        Raises the VM error types on crashes/hangs; callers performing fault
        injection catch them and classify the outcome.
        """
        engine = Engine(
            self.module,
            self.memory,
            sink=trace,
            fault=fault,
            max_steps=max_steps or self.workload.max_steps,
        )
        result = engine.run(self.workload.entry, self.args)
        outputs = {
            name: self.memory.object(name).values()
            for name in self.workload.output_objects
        }
        return RunOutcome(
            outputs=outputs,
            return_value=result.return_value,
            steps=result.steps,
            trace=trace,
        )


class Workload(ABC):
    """Base class for every benchmark / application in the study.

    Subclasses define class-level metadata (:attr:`name`,
    :attr:`description`, :attr:`code_segment`, :attr:`target_objects`,
    :attr:`output_objects`, :attr:`entry`) and implement :meth:`kernels` and
    :meth:`setup`.
    """

    #: Short identifier used by the registry and the reports ("cg", "lu" …).
    name: str = "abstract"
    #: One-line description (Table I column 2).
    description: str = ""
    #: Code segment under study (Table I column 3).
    code_segment: str = ""
    #: Target data objects (Table I column 4).
    target_objects: Sequence[str] = ()
    #: Data objects whose final contents constitute the application outcome.
    output_objects: Sequence[str] = ()
    #: Name of the entry kernel.
    entry: str = "main"
    #: Dynamic-instruction budget for one execution (hang detection).
    max_steps: int = 2_000_000
    #: Whether the entry kernel's scalar return value is part of the outcome
    #: (set False when the return value is bookkeeping, e.g. a correction count).
    check_return_value: bool = True

    def __init__(self, seed: int = 1234) -> None:
        self.seed = seed
        self._module: Optional[Module] = None

    # ------------------------------------------------------------------ #
    # pieces supplied by subclasses
    # ------------------------------------------------------------------ #
    @abstractmethod
    def kernels(self) -> Sequence[Callable]:
        """Kernel functions (callees first, entry kernel included)."""

    @abstractmethod
    def setup(self, memory: Memory) -> Dict[str, object]:
        """Allocate and initialise data objects; return the entry arguments."""

    @property
    def acceptance(self) -> AcceptanceCriterion:
        """Acceptance criterion (override for solver-style fidelity)."""
        return RelativeTolerance(rtol=1e-6, atol=1e-9)

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    def module(self) -> Module:
        """Compile (and cache) the workload's kernels."""
        if self._module is None:
            self._module = compile_kernels(list(self.kernels()), module_name=self.name)
        return self._module

    def rng(self) -> np.random.Generator:
        """Deterministic RNG for data-object initialisation."""
        return np.random.default_rng(self.seed)

    def fresh_instance(self) -> WorkloadInstance:
        """A new instance with freshly initialised memory."""
        memory = Memory()
        args = self.setup(memory)
        return WorkloadInstance(self, self.module(), memory, args)

    # convenience wrappers -------------------------------------------------
    def golden_run(self, sink: Optional[ColumnarTrace] = None) -> RunOutcome:
        """Fault-free execution (optionally traced into ``sink``)."""
        return self.fresh_instance().run(trace=sink)

    def traced_run(self) -> RunOutcome:
        """Fault-free execution recorded into a
        :class:`~repro.tracing.columnar.ColumnarTrace`."""
        return self.golden_run(sink=ColumnarTrace())

    def describe(self) -> Dict[str, object]:
        """Metadata row used to regenerate Table I."""
        return {
            "name": self.name,
            "description": self.description,
            "code_segment": self.code_segment,
            "target_objects": list(self.target_objects),
            "output_objects": list(self.output_objects),
            "acceptance": self.acceptance.describe(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
