"""The aDVF engine (§III-B, §IV): putting the three analyses together.

For every participation of a target data object in the dynamic trace, and
for every error pattern of the configured error model, the engine decides
whether the error would be masked:

1. **operation level** — semantic rules over the recorded operand values
   (:mod:`repro.core.masking`);
2. **error propagation level** — bounded forward re-execution over the trace
   (:mod:`repro.core.propagation`);
3. **algorithm level** — deterministic fault injection plus the workload's
   acceptance criterion (:mod:`repro.core.injector`).

aDVF of a data object is the number of error-masking events divided by the
number of element participations (Eq. 1); the per-level and per-category
breakdowns reproduce Figures 4 and 5 of the paper.  Error-equivalence
caching (:mod:`repro.core.equivalence`) bounds the number of full analyses
and injections, mirroring the Relyzer-style acceleration the paper relies
on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.acceptance import OutcomeClass
from repro.core.equivalence import EquivalenceCache
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.core.masking import MaskingVerdict, OperationMaskingAnalyzer
from repro.core.participation import (
    Participation,
    ParticipationRole,
    find_participations,
)
from repro.core.patterns import ErrorPattern, classify_bit
from repro.core.passes import OperationPasses
from repro.core.propagation import PropagationAnalyzer
from repro.core.replay import ReplayContext
from repro.core.reports import (
    AdvfResult,
    AnalysisConfig,
    MaskingCategory,
    MaskingLevel,
    ObjectReport,
    WorkloadReport,
)
from repro.core.sites import FaultSite
from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import Workload


class AdvfEngine:
    """Compute aDVF for the data objects of one workload.

    ``trace`` may inject a pre-built golden
    :class:`~repro.tracing.columnar.ColumnarTrace` (e.g. one loaded from
    the trace cache by a campaign worker); otherwise the engine records one
    itself.  Participations and operation-level verdicts come from the
    vectorized passes over its columns
    (:class:`~repro.core.passes.OperationPasses`).
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[AnalysisConfig] = None,
        trace: Optional[ColumnarTrace] = None,
    ) -> None:
        self.workload = workload
        self.config = config or AnalysisConfig()
        self._trace: Optional[ColumnarTrace] = trace
        self._masking: Optional[OperationMaskingAnalyzer] = None
        self._propagation: Optional[PropagationAnalyzer] = None
        self._injector: Optional[DeterministicFaultInjector] = None
        self._passes: Optional[OperationPasses] = None
        #: Wall-clock seconds per analysis pass (participation discovery,
        #: bulk operation passes, injection resolution), accumulated across
        #: analysed objects.
        self.pass_timings: Dict[str, float] = {}
        #: Injection-batch telemetry, accumulated across analysed objects:
        #: ``speculated`` counts the planned injections submitted and
        #: ``spec_windows`` the ``inject_many`` batches (one per object that
        #: injects).  The names match the campaign store's shard columns.
        self.speculation_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> ColumnarTrace:
        """The golden traced execution (computed on first use).

        With injection enabled, the golden trace is recorded *during* the
        injector's snapshot run, so the workload executes once instead of
        twice.
        """
        if self._trace is None:
            if self.config.use_injection:
                sink = ColumnarTrace()
                context = ReplayContext(self.workload, sink=sink)
                self._injector = DeterministicFaultInjector(
                    self.workload, context=context
                )
                self._trace = sink
            else:
                self._trace = self.workload.traced_run().trace
            self._trace.columns()  # seal the column views eagerly
        return self._trace

    def _prepare(self) -> None:
        trace = self.trace
        if self._masking is None:
            self._masking = OperationMaskingAnalyzer(
                trace, overshadow_threshold=self.config.overshadow_threshold
            )
        if self._passes is None:
            self._passes = OperationPasses(trace, self._masking)
        if self._propagation is None:
            self._propagation = PropagationAnalyzer(
                trace,
                k=self.config.k_propagation,
                output_objects=set(self.workload.output_objects),
            )
        if self._injector is None and self.config.use_injection:
            self._injector = DeterministicFaultInjector(self.workload)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def analyze(self, object_names: Optional[Sequence[str]] = None) -> WorkloadReport:
        """Analyse the given data objects (default: the workload's targets)."""
        names = list(object_names) if object_names else list(self.workload.target_objects)
        reports = {name: self.analyze_object(name) for name in names}
        return WorkloadReport(
            workload=self.workload.name,
            objects=reports,
            trace_events=len(self.trace),
            config=self.config,
        )

    def analyze_object(self, object_name: str) -> ObjectReport:
        """Compute aDVF (and its breakdowns) for one data object.

        Every budget decision of the equivalence sampling is count-based,
        so the object resolves in three steps:

        1. **plan** — a pure pass over the participations, in order, fixes
           which sites are analysed and which reuse their class estimate,
           which classes are tail-saturated and which unresolved sites are
           injected; it runs the masking verdict (and propagation where
           needed) once per analysed site and collects the object's whole
           injection set;
        2. **execute** — one :meth:`DeterministicFaultInjector.inject_many`
           call runs that set;
        3. **accumulate** — the plan is replayed against the real
           equivalence caches in participation order, so every float is
           added in the same order a site-by-site walk would add it.

        Once every error pattern of a class has its full sample budget, the
        class's per-pattern contributions are frozen into a *tail* —
        subsequent occurrences replay the frozen terms (the same floats the
        cache's ``estimate`` would return, in the same accumulation order)
        without re-deriving keys, patterns or cache entries.
        """
        self._prepare()
        config = self.config
        start = time.perf_counter()
        participations = find_participations(
            self.trace, object_name, max_participations=config.max_participations
        )
        self.pass_timings["participation"] = (
            self.pass_timings.get("participation", 0.0)
            + (time.perf_counter() - start)
        )
        self._passes.prepare(participations)
        self.pass_timings["operation_passes"] = self._passes.timings.get(
            "operation_passes", 0.0
        )

        state = _ObjectState(
            injection_cache=EquivalenceCache(
                samples_per_class=config.injection_samples_per_class
            )
        )
        steps, specs = self._plan(participations, state)
        results = self._execute(specs)
        return self._accumulate(object_name, participations, steps, results, state)

    # ------------------------------------------------------------------ #
    # plan → execute → accumulate
    # ------------------------------------------------------------------ #
    def _plan(
        self, participations: Sequence[Participation], state: "_ObjectState"
    ) -> Tuple[List[Tuple], List[FaultSpec]]:
        """Fix every count-based decision of one object, in order.

        Returns one step per participation with error patterns,
        ``(class_key, participation, patterns, sites)``, and the object's
        injection set.  ``sites`` is ``None`` for a tail-saturated class,
        else one ``(site_key, decision)`` per pattern, where ``decision``
        is ``None`` for a reused site and otherwise one of
        ``("resolved", (masked, level, category))``,
        ``("inject", spec_index, injection_key, verdict)`` or
        ``("fallback", injection_key, verdict)``.  The caches stay
        untouched; only ``state.propagation_checks`` is counted here.
        """
        config = self.config
        verdict_of = self._passes.verdict
        can_inject = self._injector is not None  # built iff use_injection
        site_samples = config.equivalence_samples
        injection_samples = config.injection_samples_per_class
        site_counts: Dict[Tuple, int] = {}
        injection_counts: Dict[Tuple, int] = {}
        saturated: set = set()
        steps: List[Tuple] = []
        specs: List[FaultSpec] = []
        for participation in participations:
            patterns = config.error_model.patterns_for(participation.value_type)
            if not patterns:
                continue
            uid = participation.static_uid
            role = participation.role.value
            operand = participation.operand_index
            class_key = (uid, role, operand, participation.value_type.name)
            if class_key in saturated:
                steps.append((class_key, participation, patterns, None))
                continue
            keys = [(uid, role, operand, pattern.primary_bit) for pattern in patterns]
            if all(site_counts.get(key, 0) >= site_samples for key in keys):
                saturated.add(class_key)
                steps.append((class_key, participation, patterns, None))
                continue
            sites = []
            for pattern, key in zip(patterns, keys):
                count = site_counts.get(key, 0)
                if count >= site_samples:
                    sites.append((key, None))
                    continue
                site_counts[key] = count + 1
                verdict = verdict_of(participation, pattern)
                resolved = self._resolve_analytically(
                    participation, pattern, verdict, state
                )
                if resolved is not None:
                    sites.append((key, ("resolved", resolved)))
                    continue
                injection_key = (
                    uid, role, operand,
                    classify_bit(pattern.primary_bit, participation.value_type),
                )
                taken = injection_counts.get(injection_key, 0)
                if (
                    can_inject
                    and pattern.is_single_bit
                    and len(specs) < config.max_injections
                    and taken < injection_samples
                ):
                    injection_counts[injection_key] = taken + 1
                    sites.append((key, ("inject", len(specs), injection_key, verdict)))
                    specs.append(FaultSite(participation, pattern.primary_bit).to_spec())
                else:
                    sites.append((key, ("fallback", injection_key, verdict)))
            steps.append((class_key, participation, patterns, sites))
        return steps, specs

    def _execute(self, specs: List[FaultSpec]) -> List[FaultInjectionResult]:
        """Run an object's injection set as one batch (no call when empty)."""
        if not specs:
            return []
        start = time.perf_counter()
        results = self._injector.inject_many(specs)
        self.pass_timings["injection"] = (
            self.pass_timings.get("injection", 0.0)
            + (time.perf_counter() - start)
        )
        counts = {"speculated": len(specs), "spec_windows": 1}
        for key, value in counts.items():
            self.speculation_stats[key] = self.speculation_stats.get(key, 0) + value
        self._injector.record_speculation(counts)
        reg = _metrics_registry()
        if reg.enabled:
            workload = self.workload.name
            reg.inc("advf.speculated", len(specs), workload=workload)
            reg.inc("advf.speculation_windows", 1, workload=workload)
        return results

    def _accumulate(
        self,
        object_name: str,
        participations: Sequence[Participation],
        steps: List[Tuple],
        results: List[FaultInjectionResult],
        state: "_ObjectState",
    ) -> ObjectReport:
        """Replay the plan against the real caches, in participation order."""
        site_cache = EquivalenceCache(samples_per_class=self.config.equivalence_samples)
        tails: Dict[Tuple, _ClassTail] = {}
        numerator = 0.0
        by_level: Dict[MaskingLevel, float] = {}
        by_category: Dict[MaskingCategory, float] = {}
        for class_key, participation, patterns, sites in steps:
            if sites is None:
                tail = tails.get(class_key)
                if tail is None:
                    tail = _build_class_tail(site_cache, participation, patterns)
                    if tail is None:
                        raise RuntimeError(
                            f"class {class_key!r} was planned as saturated "
                            f"but still owes analyses"
                        )
                    tails[class_key] = tail
                # Additions to different dict slots commute, so the
                # per-pattern weights are replayed grouped by level /
                # category (in pattern order within each group) — the
                # running sum of every slot sees the identical addition
                # sequence the per-pattern loop would produce.
                for level, weights in tail.level_weights:
                    acc = by_level.get(level, 0.0)
                    for weight in weights:
                        acc += weight
                    by_level[level] = acc
                for category, weights in tail.category_weights:
                    acc = by_category.get(category, 0.0)
                    for weight in weights:
                        acc += weight
                    by_category[category] = acc
                numerator += tail.masked_quotient
                tail.uses += 1
                continue
            n = len(patterns)
            masked_total = 0.0
            for key, decision in sites:
                if decision is None:
                    masked, level, category = site_cache.estimate(key)
                else:
                    masked, level, category = self._settle(decision, results, state)
                    site_cache.record(key, masked, level, category)
                masked_total += masked
                weight = masked / n
                if weight > 0.0 and level is not None:
                    by_level[level] = by_level.get(level, 0.0) + weight
                if weight > 0.0 and category is not None:
                    by_category[category] = by_category.get(category, 0.0) + weight
            numerator += masked_total / n

        return self._object_report(
            object_name, participations, numerator, by_level, by_category,
            state, site_cache, tails,
        )

    def _object_report(
        self,
        object_name: str,
        participations: Sequence[Participation],
        numerator: float,
        by_level: Dict[MaskingLevel, float],
        by_category: Dict[MaskingCategory, float],
        state: "_ObjectState",
        site_cache: EquivalenceCache,
        tails: Dict[Tuple, "_ClassTail"],
    ) -> ObjectReport:
        """Settle deferred accounting and assemble the per-object report."""
        self._flush_propagation_counters()
        # The tail fast path defers the equivalence cache's reuse
        # accounting; settle it so coverage statistics stay exact.
        for tail in tails.values():
            if tail.uses:
                for entry, per_use in tail.entry_counts:
                    entry.reused += per_use * tail.uses

        denominator = len(participations)
        result = AdvfResult(
            object_name=object_name,
            value=(numerator / denominator) if denominator else 0.0,
            participations=denominator,
            masked_events=numerator,
            by_level=by_level,
            by_category=by_category,
        )
        return ObjectReport(
            result=result,
            injections=state.injections,
            injection_outcomes=state.injection_outcomes,
            propagation_checks=state.propagation_checks,
            unresolved=state.unresolved,
            analyses_performed=site_cache.analyses_performed,
            analyses_reused=site_cache.analyses_reused,
        )

    def _flush_propagation_counters(self) -> None:
        """Publish the propagation chase's work for one object (candidate
        events visited and window steps covered), then reset it."""
        propagation = self._propagation
        reg = _metrics_registry()
        if reg.enabled:
            workload = self.workload.name
            if propagation.visits:
                reg.inc("advf.propagation_visits", propagation.visits,
                        workload=workload)
            if propagation.steps:
                reg.inc("advf.propagation_steps", propagation.steps,
                        workload=workload)
        propagation.visits = propagation.steps = 0

    # ------------------------------------------------------------------ #
    # per-site decision procedure (Fig. 3)
    # ------------------------------------------------------------------ #
    def _resolve_analytically(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        verdict: MaskingVerdict,
        state: "_ObjectState",
    ) -> Optional[Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]]:
        """Operation- then propagation-level resolution of an analysed site:
        ``(masked, level, category)``, or ``None`` when only injection (or
        its fallback) can settle it."""
        if verdict.masked is True:
            return 1.0, verdict.level, verdict.category
        if verdict.masked is False and not (
            verdict.needs_propagation or verdict.needs_injection
        ):
            return 0.0, None, None

        if verdict.needs_propagation:
            state.propagation_checks += 1
            propagation = self._propagation.analyze(
                participation, pattern, verdict.corrupted_result
            )
            if propagation.masked is True:
                level = (
                    MaskingLevel.OPERATION
                    if propagation.steps_analyzed == 0
                    else MaskingLevel.PROPAGATION
                )
                category = propagation.category or MaskingCategory.OVERWRITE
                return 1.0, level, category
        # unresolved / survived: injection decides
        return None

    def _settle(
        self,
        decision: Tuple,
        results: List[FaultInjectionResult],
        state: "_ObjectState",
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        """The masked fraction, level and category of an analysed site."""
        tag = decision[0]
        if tag == "resolved":
            return decision[1]
        injection_cache = state.injection_cache
        if tag == "inject":
            _, index, injection_key, verdict = decision
            outcome = results[index].outcome
            state.injections += 1
            state.injection_outcomes[outcome] = (
                state.injection_outcomes.get(outcome, 0) + 1
            )
            masked, level, category = self._classify_injection(outcome, verdict)
            injection_cache.record(injection_key, masked, level, category)
            return masked, level, category

        _, injection_key, verdict = decision
        entry = injection_cache.entries.get(injection_key)
        if entry is not None and entry.sample_count > 0:
            return injection_cache.estimate(injection_key)
        # Out of budget (or injection disabled): analytic fallback.
        if verdict.overshadow_candidate and self.config.analytic_overshadow_fallback:
            return 1.0, MaskingLevel.OPERATION, MaskingCategory.OVERSHADOW
        state.unresolved += 1
        return 0.0, None, None

    @staticmethod
    def _classify_injection(
        outcome: OutcomeClass, verdict: MaskingVerdict
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        """Paper attribution rules for injection-resolved masking (§III-C/E)."""
        if not outcome.is_success:
            return 0.0, None, None
        if verdict.overshadow_candidate:
            # Overshadowing initiated the masking; attribute it there even if
            # the outcome only becomes acceptable further downstream.
            return 1.0, MaskingLevel.OPERATION, MaskingCategory.OVERSHADOW
        if outcome is OutcomeClass.IDENTICAL:
            # Numerically identical outcome: error propagation masked it.
            return 1.0, MaskingLevel.PROPAGATION, MaskingCategory.OVERWRITE
        return 1.0, MaskingLevel.ALGORITHM, MaskingCategory.ALGORITHMIC


@dataclass
class _ObjectState:
    """Mutable per-object bookkeeping shared across site analyses."""

    injection_cache: EquivalenceCache
    injections: int = 0
    propagation_checks: int = 0
    unresolved: int = 0
    injection_outcomes: Dict[OutcomeClass, int] = field(default_factory=dict)


@dataclass
class _ClassTail:
    """Frozen per-pattern contributions of a saturated equivalence class.

    Once every error pattern of a class has collected its full sample
    budget, no further ``record`` can change the cache entries, so the
    floats ``estimate`` would return are fixed: ``masked_quotient`` is the
    pattern-order fold of the per-pattern masked means divided by the
    pattern count (the exact ``numerator`` increment), and
    ``level_weights`` / ``category_weights`` hold the positive per-pattern
    weights grouped by target slot, in pattern order within each group.
    ``entry_counts`` maps each underlying cache entry to how many of the
    class's patterns it serves, so reuse accounting settles in bulk.
    """

    masked_quotient: float
    level_weights: List[Tuple[MaskingLevel, List[float]]]
    category_weights: List[Tuple[MaskingCategory, List[float]]]
    entry_counts: List[Tuple[object, int]]
    uses: int = 0


def _build_class_tail(
    site_cache: EquivalenceCache,
    participation: Participation,
    patterns: Sequence[ErrorPattern],
) -> Optional["_ClassTail"]:
    """The frozen tail of the participation's class, or ``None`` if any of
    its error patterns still owes full analyses."""
    samples = site_cache.samples_per_class
    entries = site_cache.entries
    n = len(patterns)
    masked_total = 0.0
    level_weights: Dict[MaskingLevel, List[float]] = {}
    category_weights: Dict[MaskingCategory, List[float]] = {}
    counts: Dict[int, List] = {}
    for pattern in patterns:
        key = (
            participation.static_uid,
            participation.role.value,
            participation.operand_index,
            pattern.primary_bit,
        )
        entry = entries.get(key)
        if entry is None or entry.sample_count < samples:
            return None
        masked = entry.masked_mean
        masked_total += masked
        weight = masked / n
        if weight > 0.0:
            if entry.level is not None:
                level_weights.setdefault(entry.level, []).append(weight)
            if entry.category is not None:
                category_weights.setdefault(entry.category, []).append(weight)
        slot = counts.get(id(entry))
        if slot is None:
            counts[id(entry)] = [entry, 1]
        else:
            slot[1] += 1
    return _ClassTail(
        masked_quotient=masked_total / n,
        level_weights=list(level_weights.items()),
        category_weights=list(category_weights.items()),
        entry_counts=[(entry, count) for entry, count in counts.values()],
    )


def analyze_workload(
    workload: Union[str, Workload],
    targets: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    **workload_kwargs,
) -> WorkloadReport:
    """Convenience wrapper: aDVF analysis of a workload by name or instance.

    >>> report = analyze_workload("lu", targets=["sum"])      # doctest: +SKIP
    >>> round(report.advf["sum"].value, 2)                     # doctest: +SKIP
    """
    if isinstance(workload, str):
        from repro.workloads.registry import get_workload

        workload = get_workload(workload, **workload_kwargs)
    engine = AdvfEngine(workload, config)
    return engine.analyze(targets)
