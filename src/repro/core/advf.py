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

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.acceptance import OutcomeClass
from repro.core.equivalence import EquivalenceCache
from repro.core.injector import DeterministicFaultInjector
from repro.core.masking import (
    MaskingCategory,
    MaskingLevel,
    MaskingVerdict,
    OperationMaskingAnalyzer,
)
from repro.core.participation import (
    Participation,
    ParticipationRole,
    find_participations,
)
from repro.core.patterns import ErrorModel, ErrorPattern, SingleBitModel, classify_bit
from repro.core.passes import OperationPasses
from repro.core.propagation import PropagationAnalyzer
from repro.core.replay import BatchedReplayContext
from repro.core.sites import FaultSite
from repro.obs.metrics import registry as _metrics_registry
from repro.tracing.columnar import ColumnarTrace
from repro.tracing.cursor import TraceLike

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import Workload



@dataclass
class AnalysisConfig:
    """Knobs of the aDVF analysis.

    The defaults match the paper's evaluation (single-bit errors, propagation
    bound *k* = 50, deterministic injection for unresolved cases) with
    laptop-scale budgets for the injection campaign.
    """

    #: Maximum number of operations tracked after the target operation (§III-D).
    k_propagation: int = 50
    #: Error model: which error patterns are enumerated per data element.
    error_model: ErrorModel = field(default_factory=SingleBitModel)
    #: Resolve unresolved cases with deterministic fault injection.
    use_injection: bool = True
    #: Upper bound on injections per data object.
    max_injections: int = 400
    #: Full analyses per (static instruction, role, operand, bit) class before
    #: results are reused (error equivalence).
    equivalence_samples: int = 2
    #: Injections per (static instruction, role, operand, bit-class) before
    #: outcomes are reused.
    injection_samples_per_class: int = 2
    #: Relative deviation of an additive result below which the error is a
    #: value-overshadowing candidate.
    overshadow_threshold: float = 1e-10
    #: Evenly subsample the participation list (None = analyse all).
    max_participations: Optional[int] = None
    #: When injection is disabled or out of budget, credit analytic
    #: overshadowing candidates as masked (otherwise they count as unmasked).
    analytic_overshadow_fallback: bool = True
    #: Execution strategy for deterministic injection: ``"replay"`` resolves
    #: each fault by checkpointed replay from the nearest snapshot (fast,
    #: bit-identical); ``"rerun"`` re-executes from scratch (the seed path).
    injection_mode: str = "replay"
    #: Analysis pipeline: ``"columnar"`` records the golden run into a
    #: :class:`~repro.tracing.columnar.ColumnarTrace` and runs the
    #: vectorized participation/masking passes (bit-identical results);
    #: ``"legacy"`` keeps the original per-event scans over a full
    #: :class:`~repro.tracing.trace.Trace` (the parity oracle).
    pipeline: str = "columnar"
    #: Speculation window for injection resolution: how many predicted
    #: injection sites are collected before they are submitted as one
    #: replay batch (0 disables speculation; ``None`` defers to the
    #: ``REPRO_ADVF_SPECULATION`` environment variable, default
    #: :data:`DEFAULT_SPECULATION_WINDOW`).  Results are bit-identical at
    #: every setting — the window only changes batching.
    speculation_window: Optional[int] = None


#: Speculation window when neither :attr:`AnalysisConfig.speculation_window`
#: nor ``REPRO_ADVF_SPECULATION`` says otherwise.
DEFAULT_SPECULATION_WINDOW = 32

#: ``REPRO_ADVF_SPECULATION`` values that disable speculation.
_SPECULATION_OFF = frozenset({"0", "off", "none", "disabled"})


def resolved_speculation_window(config: AnalysisConfig) -> int:
    """The effective speculation window: config knob, then environment."""
    if config.speculation_window is not None:
        return max(0, int(config.speculation_window))
    raw = os.environ.get("REPRO_ADVF_SPECULATION")
    if raw is None:
        return DEFAULT_SPECULATION_WINDOW
    raw = raw.strip().lower()
    if raw in _SPECULATION_OFF:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SPECULATION_WINDOW


@dataclass
class AdvfResult:
    """aDVF of one data object plus its breakdowns (Figures 4 and 5)."""

    object_name: str
    value: float
    participations: int
    masked_events: float
    by_level: Dict[MaskingLevel, float] = field(default_factory=dict)
    by_category: Dict[MaskingCategory, float] = field(default_factory=dict)

    def level_fraction(self, level: MaskingLevel) -> float:
        """Contribution of ``level`` to the aDVF value (Fig. 4 stacking)."""
        if self.participations == 0:
            return 0.0
        return self.by_level.get(level, 0.0) / self.participations

    def category_fraction(self, category: MaskingCategory) -> float:
        """Contribution of ``category`` to the aDVF value (Fig. 5 stacking)."""
        if self.participations == 0:
            return 0.0
        return self.by_category.get(category, 0.0) / self.participations

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (enum keys become their string values)."""
        return {
            "object_name": self.object_name,
            "value": self.value,
            "participations": self.participations,
            "masked_events": self.masked_events,
            "by_level": {level.value: v for level, v in self.by_level.items()},
            "by_category": {cat.value: v for cat, v in self.by_category.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AdvfResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            object_name=str(payload["object_name"]),
            value=float(payload["value"]),
            participations=int(payload["participations"]),
            masked_events=float(payload["masked_events"]),
            by_level={
                MaskingLevel(k): float(v)
                for k, v in dict(payload.get("by_level", {})).items()
            },
            by_category={
                MaskingCategory(k): float(v)
                for k, v in dict(payload.get("by_category", {})).items()
            },
        )


@dataclass
class ObjectReport:
    """Full analysis record for one data object."""

    result: AdvfResult
    injections: int
    injection_outcomes: Dict[OutcomeClass, int]
    propagation_checks: int
    unresolved: int
    analyses_performed: int
    analyses_reused: int

    @property
    def advf(self) -> float:
        return self.result.value

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form stored in campaign-store report rows."""
        return {
            "result": self.result.to_dict(),
            "injections": self.injections,
            "injection_outcomes": {
                outcome.value: n for outcome, n in self.injection_outcomes.items()
            },
            "propagation_checks": self.propagation_checks,
            "unresolved": self.unresolved,
            "analyses_performed": self.analyses_performed,
            "analyses_reused": self.analyses_reused,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ObjectReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            result=AdvfResult.from_dict(dict(payload["result"])),
            injections=int(payload["injections"]),
            injection_outcomes={
                OutcomeClass(k): int(v)
                for k, v in dict(payload.get("injection_outcomes", {})).items()
            },
            propagation_checks=int(payload["propagation_checks"]),
            unresolved=int(payload["unresolved"]),
            analyses_performed=int(payload["analyses_performed"]),
            analyses_reused=int(payload["analyses_reused"]),
        )


@dataclass
class WorkloadReport:
    """aDVF analysis of (some of) a workload's data objects."""

    workload: str
    objects: Dict[str, ObjectReport]
    trace_events: int
    config: AnalysisConfig

    @property
    def advf(self) -> Dict[str, AdvfResult]:
        return {name: report.result for name, report in self.objects.items()}

    def ranking(self) -> List[str]:
        """Object names from most to least resilient (highest aDVF first)."""
        return sorted(
            self.objects, key=lambda name: self.objects[name].advf, reverse=True
        )


class AdvfEngine:
    """Compute aDVF for the data objects of one workload.

    ``trace`` may inject a pre-built golden trace (e.g. a
    :class:`~repro.tracing.columnar.ColumnarTrace` loaded from the trace
    cache by a campaign worker); otherwise the engine records one itself,
    per :attr:`AnalysisConfig.pipeline`.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[AnalysisConfig] = None,
        trace: Optional[TraceLike] = None,
    ) -> None:
        self.workload = workload
        self.config = config or AnalysisConfig()
        if self.config.pipeline not in ("columnar", "legacy"):
            raise ValueError(
                f"unknown analysis pipeline {self.config.pipeline!r}; "
                f"expected 'columnar' or 'legacy'"
            )
        self._trace: Optional[TraceLike] = trace
        self._masking: Optional[OperationMaskingAnalyzer] = None
        self._propagation: Optional[PropagationAnalyzer] = None
        self._injector: Optional[DeterministicFaultInjector] = None
        self._passes: Optional[OperationPasses] = None
        #: Wall-clock seconds per analysis pass (participation discovery,
        #: bulk operation passes, injection resolution), accumulated across
        #: analysed objects.
        self.pass_timings: Dict[str, float] = {}
        #: Speculative-batching telemetry (``speculated`` /
        #: ``spec_discards`` / ``spec_windows`` / ``spec_mispredictions``),
        #: accumulated across analysed objects.
        self.speculation_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> TraceLike:
        """The golden traced execution (computed on first use).

        In the columnar pipeline with replay injection enabled, the golden
        trace is recorded *during* the injector's snapshot run, so the
        workload executes once instead of twice.
        """
        if self._trace is None:
            if self.config.pipeline == "columnar":
                if self.config.use_injection and (
                    self.config.injection_mode == "replay"
                ):
                    sink = ColumnarTrace()
                    context = BatchedReplayContext(self.workload, sink=sink)
                    self._injector = DeterministicFaultInjector(
                        self.workload, mode="replay", context=context
                    )
                    self._trace = sink
                else:
                    self._trace = self.workload.traced_run(columnar=True).trace
                self._trace.columns()  # seal the column views eagerly
            else:
                self._trace = self.workload.traced_run().trace
        return self._trace

    def _prepare(self) -> None:
        trace = self.trace
        if self._masking is None:
            self._masking = OperationMaskingAnalyzer(
                trace, overshadow_threshold=self.config.overshadow_threshold
            )
        if (
            self._passes is None
            and self.config.pipeline == "columnar"
            and isinstance(trace, ColumnarTrace)
        ):
            self._passes = OperationPasses(trace, self._masking)
        if self._propagation is None:
            self._propagation = PropagationAnalyzer(
                trace,
                k=self.config.k_propagation,
                output_objects=set(self.workload.output_objects),
            )
        if self._injector is None and self.config.use_injection:
            self._injector = DeterministicFaultInjector(
                self.workload, mode=self.config.injection_mode
            )

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

        The columnar pipeline runs the same decision procedure with two
        accelerations that leave every number bit-identical:

        * participation discovery and the cheap operation-level categories
          come from the vectorized passes (:mod:`repro.core.passes`);
        * once every error pattern of an equivalence class has collected
          its full sample budget, the class's per-pattern contributions are
          frozen into a *tail* — subsequent occurrences replay the frozen
          terms (the same floats the cache's ``estimate`` would return, in
          the same accumulation order) without re-deriving keys, patterns
          or cache entries.
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
        if self._passes is not None:
            self._passes.prepare(participations)
            self.pass_timings["operation_passes"] = self._passes.timings.get(
                "operation_passes", 0.0
            )

        site_cache = EquivalenceCache(samples_per_class=config.equivalence_samples)
        injection_cache = EquivalenceCache(
            samples_per_class=config.injection_samples_per_class
        )
        state = _ObjectState(injection_cache=injection_cache)

        numerator = 0.0
        by_level: Dict[MaskingLevel, float] = {}
        by_category: Dict[MaskingCategory, float] = {}
        fast = self._passes is not None
        tails: Dict[Tuple, _ClassTail] = {}

        window = resolved_speculation_window(config)
        if (
            window > 0
            and config.use_injection
            and config.injection_mode == "replay"
            and self._injector is not None
            and self._injector.mode == "replay"
        ):
            resolver = _SpeculativeResolver(
                self, site_cache, state, tails, window,
                by_level=by_level, by_category=by_category,
            )
            for participation in participations:
                resolver.scan(participation)
            resolver.finish()
            numerator = resolver.numerator
            return self._object_report(
                object_name, participations, numerator, by_level,
                by_category, state, site_cache, tails,
            )

        for participation in participations:
            patterns = config.error_model.patterns_for(participation.value_type)
            if not patterns:
                continue
            if fast:
                class_key = (
                    participation.static_uid,
                    participation.role.value,
                    participation.operand_index,
                    participation.value_type.name,
                )
                tail = tails.get(class_key)
                if tail is None:
                    tail = _build_class_tail(site_cache, participation, patterns)
                    if tail is not None:
                        tails[class_key] = tail
                if tail is not None:
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
            masked_total = 0.0
            for pattern in patterns:
                key = (
                    participation.static_uid,
                    participation.role.value,
                    participation.operand_index,
                    pattern.primary_bit,
                )
                if site_cache.should_analyze(key):
                    masked, level, category = self._analyze_site(
                        participation, pattern, state
                    )
                    site_cache.record(key, masked, level, category)
                else:
                    masked, level, category = site_cache.estimate(key)
                masked_total += masked
                weight = masked / len(patterns)
                if weight > 0.0 and level is not None:
                    by_level[level] = by_level.get(level, 0.0) + weight
                if weight > 0.0 and category is not None:
                    by_category[category] = by_category.get(category, 0.0) + weight
            numerator += masked_total / len(patterns)

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
        """Settle deferred accounting and assemble the per-object report
        (shared by the sequential and speculative resolution paths)."""
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
    def _analyze_site(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        state: "_ObjectState",
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        if self._passes is not None:
            verdict = self._passes.verdict(participation, pattern)
        else:
            verdict = self._masking.analyze(participation, pattern)
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
            # unresolved / survived: fall through to injection

        return self._resolve_by_injection(participation, pattern, verdict, state)

    def _resolve_by_injection(
        self,
        participation: Participation,
        pattern: ErrorPattern,
        verdict: MaskingVerdict,
        state: "_ObjectState",
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        config = self.config
        can_inject = (
            config.use_injection
            and self._injector is not None
            and pattern.is_single_bit
        )
        injection_key = (
            participation.static_uid,
            participation.role.value,
            participation.operand_index,
            classify_bit(pattern.primary_bit, participation.value_type),
        )

        if can_inject and state.injections < config.max_injections and (
            state.injection_cache.should_analyze(injection_key)
        ):
            site = FaultSite(participation, pattern.primary_bit)
            start = time.perf_counter()
            result = self._injector.inject(site.to_spec())
            self.pass_timings["injection"] = (
                self.pass_timings.get("injection", 0.0)
                + (time.perf_counter() - start)
            )
            state.injections += 1
            state.injection_outcomes[result.outcome] = (
                state.injection_outcomes.get(result.outcome, 0) + 1
            )
            masked, level, category = self._classify_injection(result.outcome, verdict)
            state.injection_cache.record(injection_key, masked, level, category)
            return masked, level, category

        if injection_key in state.injection_cache.entries and (
            state.injection_cache.entries[injection_key].sample_count > 0
        ):
            return state.injection_cache.estimate(injection_key)

        # Out of budget (or injection disabled): analytic fallback.
        if verdict.overshadow_candidate and config.analytic_overshadow_fallback:
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


#: Per-pattern plan for a site predicted to be answered by the site cache.
_CACHED = ("cached",)


class _SpeculativeResolver:
    """Plan-ahead scheduler for injection-resolved sites.

    The equivalence caches' budget decisions — ``should_analyze`` and the
    per-object ``max_injections`` cap — are *count*-based: they depend on
    which sites were analysed before this one, never on what the analyses
    concluded.  So the scan phase can walk participations in order,
    replaying those decisions against shadow counters, and collect every
    predicted injection into a pending window.  When the window fills, the
    whole batch goes through :meth:`DeterministicFaultInjector.inject_many`
    (one snapshot restore + one lockstep suffix walk per interval) and the
    buffered per-site plans are *applied* in exact scan order against the
    real caches: every budget decision is re-made with the actual state,
    and a speculated result is consumed only when the actual decision
    agrees with the prediction.  Disagreement (impossible organically —
    only external cache mutation or a monkeypatched predictor causes it)
    discards that speculated result and resolves the site sequentially, so
    the accumulated numbers are bit-identical to the sequential oracle no
    matter what the predictor said.

    Pure computations (masking verdicts, propagation analysis) run once,
    during the scan, and ride along in the plan; the apply phase only
    touches caches and accumulators, in the sequential path's exact float
    accumulation order.
    """

    #: Hard bound on buffered participation plans per window, so a long
    #: injection drought cannot hold an unbounded op log in memory.
    MAX_OPS = 8192

    def __init__(
        self,
        engine: AdvfEngine,
        site_cache: EquivalenceCache,
        state: _ObjectState,
        tails: Dict[Tuple, "_ClassTail"],
        window: int,
        by_level: Dict[MaskingLevel, float],
        by_category: Dict[MaskingCategory, float],
    ) -> None:
        self.engine = engine
        self.site_cache = site_cache
        self.state = state
        self.tails = tails
        self.window = window
        self.by_level = by_level
        self.by_category = by_category
        self.numerator = 0.0
        # shadow counters the scan predicts budget decisions against
        self._pred_site: Dict[Tuple, int] = {}
        self._pred_inj: Dict[Tuple, int] = {}
        self._pred_injections = 0
        self._pred_saturated: set = set()
        # buffered work: per-participation plans + the pending spec window
        self._ops: List[Tuple] = []
        self._pending: List = []
        # telemetry
        self._speculated = 0
        self._discards = 0
        self._windows = 0
        self._mispredictions = 0

    # ------------------------------------------------------------------ #
    # scan phase: predict decisions, buffer plans, collect specs
    # ------------------------------------------------------------------ #
    def scan(self, participation: Participation) -> None:
        engine = self.engine
        patterns = engine.config.error_model.patterns_for(participation.value_type)
        if not patterns:
            return
        class_key = None
        if engine._passes is not None:
            class_key = (
                participation.static_uid,
                participation.role.value,
                participation.operand_index,
                participation.value_type.name,
            )
            if self._predict_tail(class_key, participation, patterns):
                self._ops.append((participation, patterns, class_key, None))
                self._maybe_flush()
                return
        plans: List[Tuple] = []
        samples = self.site_cache.samples_per_class
        pred_site = self._pred_site
        for pattern in patterns:
            key = (
                participation.static_uid,
                participation.role.value,
                participation.operand_index,
                pattern.primary_bit,
            )
            count = pred_site.get(key, 0)
            if count >= samples:
                plans.append(_CACHED)
                continue
            pred_site[key] = count + 1
            plans.append(self._plan_site(participation, pattern))
        self._ops.append((participation, patterns, class_key, plans))
        self._maybe_flush()

    def _predict_tail(self, class_key, participation, patterns) -> bool:
        """Whether the participation's class is predicted tail-saturated."""
        if class_key in self._pred_saturated:
            return True
        samples = self.site_cache.samples_per_class
        pred_site = self._pred_site
        for pattern in patterns:
            key = (
                participation.static_uid,
                participation.role.value,
                participation.operand_index,
                pattern.primary_bit,
            )
            if pred_site.get(key, 0) < samples:
                return False
        self._pred_saturated.add(class_key)
        return True

    def _plan_site(self, participation: Participation, pattern: ErrorPattern) -> Tuple:
        """Scan-time mirror of :meth:`AdvfEngine._analyze_site`: run the
        pure analyses now, predict the injection decision, defer all cache
        and accumulator effects to the apply phase."""
        engine = self.engine
        if engine._passes is not None:
            verdict = engine._passes.verdict(participation, pattern)
        else:
            verdict = engine._masking.analyze(participation, pattern)
        if verdict.masked is True:
            return ("resolved", 1.0, verdict.level, verdict.category, 0)
        if verdict.masked is False and not (
            verdict.needs_propagation or verdict.needs_injection
        ):
            return ("resolved", 0.0, None, None, 0)
        prop = 0
        if verdict.needs_propagation:
            prop = 1
            propagation = engine._propagation.analyze(
                participation, pattern, verdict.corrupted_result
            )
            if propagation.masked is True:
                level = (
                    MaskingLevel.OPERATION
                    if propagation.steps_analyzed == 0
                    else MaskingLevel.PROPAGATION
                )
                category = propagation.category or MaskingCategory.OVERWRITE
                return ("resolved", 1.0, level, category, prop)
        config = engine.config
        can_inject = (
            config.use_injection
            and engine._injector is not None
            and pattern.is_single_bit
        )
        injection_key = (
            participation.static_uid,
            participation.role.value,
            participation.operand_index,
            classify_bit(pattern.primary_bit, participation.value_type),
        )
        if can_inject and self._predict_inject(injection_key):
            self._pred_injections += 1
            self._pred_inj[injection_key] = (
                self._pred_inj.get(injection_key, 0) + 1
            )
            index = len(self._pending)
            self._pending.append(
                FaultSite(participation, pattern.primary_bit).to_spec()
            )
            return ("inject", index, injection_key, verdict, prop)
        return ("fallback", injection_key, verdict, prop)

    def _predict_inject(self, injection_key) -> bool:
        """Predicted budget decision for one candidate injection.

        A separate method so tests can force mispredictions by patching it;
        organically its answers always match the apply-time re-check."""
        if self._pred_injections >= self.engine.config.max_injections:
            return False
        return (
            self._pred_inj.get(injection_key, 0)
            < self.state.injection_cache.samples_per_class
        )

    # ------------------------------------------------------------------ #
    # apply phase: validate predictions against the real caches, in order
    # ------------------------------------------------------------------ #
    def _maybe_flush(self) -> None:
        if not self._pending:
            # nothing speculated yet: apply immediately so injection-free
            # stretches carry no buffering overhead or memory growth
            self._flush()
        elif len(self._pending) >= self.window or len(self._ops) >= self.MAX_OPS:
            self._flush()

    def finish(self) -> Dict[str, int]:
        """Flush the final window and publish telemetry."""
        self._flush()
        engine = self.engine
        counts = {
            "speculated": self._speculated,
            "spec_discards": self._discards,
            "spec_windows": self._windows,
            "spec_mispredictions": self._mispredictions,
        }
        for key, value in counts.items():
            if value:
                engine.speculation_stats[key] = (
                    engine.speculation_stats.get(key, 0) + value
                )
        reg = _metrics_registry()
        if reg.enabled:
            workload = engine.workload.name
            if self._speculated:
                reg.inc("advf.speculated", self._speculated, workload=workload)
            if self._discards:
                reg.inc(
                    "advf.speculation_discards", self._discards,
                    workload=workload,
                )
            if self._windows:
                reg.inc(
                    "advf.speculation_windows", self._windows,
                    workload=workload,
                )
        if engine._injector is not None:
            engine._injector.record_speculation({
                "speculated": self._speculated,
                "spec_discards": self._discards,
                "spec_windows": self._windows,
            })
        return counts

    def _flush(self) -> None:
        ops, self._ops = self._ops, []
        pending, self._pending = self._pending, []
        results: List = []
        if pending:
            engine = self.engine
            self._windows += 1
            self._speculated += len(pending)
            start = time.perf_counter()
            results = engine._injector.inject_many(pending)
            engine.pass_timings["injection"] = (
                engine.pass_timings.get("injection", 0.0)
                + (time.perf_counter() - start)
            )
        for op in ops:
            self._apply(op, results)
        if pending:
            self._resync()

    def _resync(self) -> None:
        """Re-anchor the shadow counters on the actual caches.

        After a clean window this is a no-op by construction; after a
        forced misprediction it stops the divergence from compounding."""
        self._pred_injections = self.state.injections
        self._pred_inj = {
            key: entry.sample_count
            for key, entry in self.state.injection_cache.entries.items()
        }
        self._pred_site = {
            key: entry.sample_count
            for key, entry in self.site_cache.entries.items()
        }
        self._pred_saturated.clear()

    def _apply(self, op: Tuple, results: List) -> None:
        participation, patterns, class_key, plans = op
        site_cache = self.site_cache
        if class_key is not None:
            # real tail check, exactly where the sequential loop does it
            tails = self.tails
            tail = tails.get(class_key)
            if tail is None:
                tail = _build_class_tail(site_cache, participation, patterns)
                if tail is not None:
                    tails[class_key] = tail
            if tail is not None:
                by_level = self.by_level
                for level, weights in tail.level_weights:
                    acc = by_level.get(level, 0.0)
                    for weight in weights:
                        acc += weight
                    by_level[level] = acc
                by_category = self.by_category
                for category, weights in tail.category_weights:
                    acc = by_category.get(category, 0.0)
                    for weight in weights:
                        acc += weight
                    by_category[category] = acc
                self.numerator += tail.masked_quotient
                tail.uses += 1
                if plans:
                    # the class saturated earlier than predicted: any specs
                    # this participation speculated are never consumed
                    for plan in plans:
                        if plan[0] == "inject":
                            self._mispredictions += 1
                            self._discards += 1
                return
        if plans is None:
            # predicted tail-saturated but the real cache still owes
            # analyses: resolve the whole participation sequentially
            self._mispredictions += 1
            self._sequential_participation(participation, patterns)
            return
        engine = self.engine
        state = self.state
        n = len(patterns)
        masked_total = 0.0
        by_level = self.by_level
        by_category = self.by_category
        for pattern, plan in zip(patterns, plans):
            key = (
                participation.static_uid,
                participation.role.value,
                participation.operand_index,
                pattern.primary_bit,
            )
            if site_cache.should_analyze(key):
                tag = plan[0]
                if tag == "resolved":
                    _, masked, level, category, prop = plan
                    state.propagation_checks += prop
                elif tag == "inject":
                    masked, level, category = self._apply_inject(
                        participation, pattern, plan, results
                    )
                elif tag == "fallback":
                    _, injection_key, verdict, prop = plan
                    state.propagation_checks += prop
                    before = state.injections
                    masked, level, category = engine._resolve_by_injection(
                        participation, pattern, verdict, state
                    )
                    if state.injections != before:
                        # predicted out-of-budget, actually injectable:
                        # resolved by a sequential injection just now
                        self._mispredictions += 1
                else:  # predicted cached, but the cache still owes analyses
                    self._mispredictions += 1
                    masked, level, category = engine._analyze_site(
                        participation, pattern, state
                    )
                site_cache.record(key, masked, level, category)
            else:
                if plan is not _CACHED:
                    self._mispredictions += 1
                    if plan[0] == "inject":
                        self._discards += 1
                masked, level, category = site_cache.estimate(key)
            masked_total += masked
            weight = masked / n
            if weight > 0.0 and level is not None:
                by_level[level] = by_level.get(level, 0.0) + weight
            if weight > 0.0 and category is not None:
                by_category[category] = by_category.get(category, 0.0) + weight
        self.numerator += masked_total / n

    def _apply_inject(
        self, participation: Participation, pattern: ErrorPattern,
        plan: Tuple, results: List,
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        """Consume one speculated injection if the actual budget decision
        still agrees; otherwise discard it and resolve sequentially."""
        _, index, injection_key, verdict, prop = plan
        engine = self.engine
        state = self.state
        config = engine.config
        state.propagation_checks += prop
        can_inject = (
            config.use_injection
            and engine._injector is not None
            and pattern.is_single_bit
        )
        if can_inject and state.injections < config.max_injections and (
            state.injection_cache.should_analyze(injection_key)
        ):
            result = results[index]
            state.injections += 1
            state.injection_outcomes[result.outcome] = (
                state.injection_outcomes.get(result.outcome, 0) + 1
            )
            masked, level, category = engine._classify_injection(
                result.outcome, verdict
            )
            state.injection_cache.record(injection_key, masked, level, category)
            return masked, level, category
        self._mispredictions += 1
        self._discards += 1
        return engine._resolve_by_injection(participation, pattern, verdict, state)

    def _sequential_participation(
        self, participation: Participation, patterns: Sequence[ErrorPattern]
    ) -> None:
        """The sequential per-pattern loop, for mispredicted participations."""
        engine = self.engine
        site_cache = self.site_cache
        state = self.state
        n = len(patterns)
        masked_total = 0.0
        by_level = self.by_level
        by_category = self.by_category
        for pattern in patterns:
            key = (
                participation.static_uid,
                participation.role.value,
                participation.operand_index,
                pattern.primary_bit,
            )
            if site_cache.should_analyze(key):
                masked, level, category = engine._analyze_site(
                    participation, pattern, state
                )
                site_cache.record(key, masked, level, category)
            else:
                masked, level, category = site_cache.estimate(key)
            masked_total += masked
            weight = masked / n
            if weight > 0.0 and level is not None:
                by_level[level] = by_level.get(level, 0.0) + weight
            if weight > 0.0 and category is not None:
                by_category[category] = by_category.get(category, 0.0) + weight
        self.numerator += masked_total / n


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
