"""The aDVF model's result records and analysis settings, as plain data.

:class:`AnalysisConfig` and the reports it produces
(:class:`AdvfResult`, :class:`ObjectReport`, :class:`WorkloadReport`),
with the :class:`MaskingLevel` / :class:`MaskingCategory` enums they are
keyed by.  The campaign store, the orchestrator and the worker pool pass
these around without running an analysis, so they live apart from the
engine (:mod:`repro.core.advf`) and import none of it.  ``advf`` and
``masking`` import them from here, so their old import paths keep working.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.acceptance import OutcomeClass
from repro.core.patterns import ErrorModel, SingleBitModel


class MaskingLevel(enum.Enum):
    """The paper's three analysis levels."""

    OPERATION = "operation"
    PROPAGATION = "propagation"
    ALGORITHM = "algorithm"


class MaskingCategory(enum.Enum):
    """The paper's operation-level masking categories (Fig. 5)."""

    OVERWRITE = "overwrite"
    LOGIC_COMPARE = "logic_compare"
    OVERSHADOW = "overshadow"
    #: Used for masking that can only be attributed to the algorithm level.
    ALGORITHMIC = "algorithmic"


@dataclass
class AnalysisConfig:
    """Knobs of the aDVF analysis.

    The defaults match the paper's evaluation (single-bit errors, propagation
    bound *k* = 50, deterministic injection for unresolved cases) with
    laptop-scale budgets for the injection campaign.

    The three budgets (``equivalence_samples``,
    ``injection_samples_per_class`` and ``max_injections``) are
    count-based: they depend on how many sites were analysed or injected
    before, never on what those analyses concluded.  So
    :meth:`AdvfEngine.analyze_object` fixes every budget decision of an
    object in a planning pass and runs all of its injections as one batch;
    no setting here changes how injections are batched.
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
