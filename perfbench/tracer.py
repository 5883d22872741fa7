"""Span recording around public calls, with self time across nesting.

The traced run wraps one public call per layer (``LAYER_CALLS``) with a
:class:`Tracer` span.  Spans stay in memory: name, start, end and the
index of the span that was open when it began.  A span's *self time* is
its duration minus the durations of its direct children, so the self
times of all spans add up to the time covered by the outermost spans and
nothing is counted twice.  Nothing is added to the program itself.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> (module, attribute path) of the public call it times.
LAYER_CALLS: Dict[str, Tuple[str, str]] = {
    "vm.walk": ("repro.vm.engine", "Engine.resume_many"),
    "vm.private_replay": ("repro.vm.engine", "Engine.run_checked"),
    "vm.digest": ("repro.vm.engine", "Engine.state_digest"),
    "vm.restore": ("repro.vm.engine", "Engine.prepare_resume"),
    "vm.run": ("repro.vm.engine", "Engine.run"),
    "core.inject": ("repro.core.injector", "DeterministicFaultInjector.inject_many"),
    "core.advf_object": ("repro.core.advf", "AdvfEngine.analyze_object"),
    "core.propagation": ("repro.core.propagation", "PropagationAnalyzer.analyze"),
    "campaigns.store_commit": ("repro.campaigns.store", "CampaignStore.record_shard"),
    "campaigns.plan": ("repro.campaigns.plans", "FixedRandomPlan.specs_for"),
    "tracing.memo_merge": ("repro.tracing.cache", "MemoCache.merge_store"),
    "tracing.artifact": ("repro.tracing.cache", "TraceCache.get_or_build"),
    "tracing.golden_trace": ("repro.workloads.base", "Workload.traced_run"),
    "workloads.compile": ("repro.workloads.base", "Workload.module"),
    # the engine imports this name from the package at call time
    "mir.compile": ("repro.mir", "mir_program_for"),
    "parallel.call": ("repro.parallel.campaign", "CampaignRunner.run_injections"),
}

#: Span name of the imports that precede the first layer call.
IMPORT_SPAN = "repro.import"


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Work counted from the calls' results (e.g. engine steps).
    units: int = 0


@dataclass
class Tracer:
    """In-memory span recorder.

    Only the process that created the tracer records: a forked worker
    inherits the wrappers but runs them as plain pass-throughs.
    """

    clock: Callable[[], float] = time.perf_counter
    #: ``[name, start, end, parent_index, units]`` per span, in start order.
    spans: List[list] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _pid: int = field(default_factory=os.getpid)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, units: int = 0) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        record = self.spans[index]
        record[2] = self.clock()
        record[4] = units

    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable[[object], int]] = None) -> Callable:
        """``fn`` recorded as a ``name`` span on every call; ``units``
        maps the call's result to a work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = self.begin(name)
            done = 0
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    done = units(result)
                return result
            finally:
                self.end(index, done)

        return traced

    def totals(self) -> Dict[str, LayerTotals]:
        """Per-name call count, total time, self time and units."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, LayerTotals] = {}
        for index, (name, start, end, _, units) in enumerate(self.spans):
            layer = out.setdefault(name, LayerTotals())
            layer.calls += 1
            layer.total_s += end - start
            layer.self_s += (end - start) - child_time[index]
            layer.units += units
        return out


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _steps(result) -> int:
    """Engine steps of an ``Engine.run`` result."""
    return result.steps


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call in :data:`LAYER_CALLS`; returns an uninstaller."""
    restore = []
    for name, (module_name, path) in LAYER_CALLS.items():
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        units = _steps if name == "vm.run" else None
        setattr(owner, attr, tracer.wrap(name, original, units))
        restore.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
