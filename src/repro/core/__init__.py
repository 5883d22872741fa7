"""MOARD core: the aDVF model and its supporting analyses.

This package is the reproduction of the paper's primary contribution
(§III–§IV): the classification of error-masking events, the aDVF metric, the
operation-level / error-propagation / algorithm-level analyses, and the
deterministic, exhaustive and random fault injectors used for resolution,
validation and comparison.

Public API
----------
* :class:`~repro.core.advf.AdvfEngine` / :func:`~repro.core.advf.analyze_workload`
  — compute aDVF for the data objects of a workload.
* :class:`~repro.core.advf.AnalysisConfig` — analysis knobs (propagation
  bound *k*, error model, injection budgets …).
* :mod:`repro.core.masking` — operation-level masking rules.
* :mod:`repro.core.propagation` — bounded error-propagation analysis.
* :mod:`repro.core.injector` / :mod:`repro.core.exhaustive` /
  :mod:`repro.core.rfi` — the three fault-injection modes.
* :mod:`repro.core.replay` — checkpointed replay shared by the injectors
  (golden run + snapshot schedule, suffix-only faulty executions).
* :mod:`repro.core.acceptance` — outcome acceptance criteria.
"""

from repro.core.acceptance import (
    AcceptanceCriterion,
    CompositeCriterion,
    ExactMatch,
    NormRelativeTolerance,
    OutcomeClass,
    RelativeTolerance,
    classify_outcome,
)
from repro.core.patterns import BitClass, ErrorModel, ErrorPattern, SingleBitModel
from repro.core.masking import (
    MaskingCategory,
    MaskingLevel,
    MaskingVerdict,
    OperationMaskingAnalyzer,
)
from repro.core.propagation import PropagationAnalyzer, PropagationResult
from repro.core.replay import (
    BatchReplayResult,
    ReplayBatch,
    ReplayBatchStats,
    ReplayContext,
    ReplayMemo,
)
from repro.core.injector import DeterministicFaultInjector, FaultInjectionResult
from repro.core.exhaustive import ExhaustiveCampaign, ExhaustiveResult
from repro.core.rfi import RandomFaultInjection, RFIResult, required_sample_size
from repro.core.equivalence import EquivalenceCache, bit_class_of
from repro.core.advf import (
    AdvfEngine,
    AdvfResult,
    AnalysisConfig,
    ObjectReport,
    WorkloadReport,
    analyze_workload,
)

__all__ = [
    "AcceptanceCriterion",
    "CompositeCriterion",
    "ExactMatch",
    "NormRelativeTolerance",
    "OutcomeClass",
    "RelativeTolerance",
    "classify_outcome",
    "BitClass",
    "ErrorModel",
    "ErrorPattern",
    "SingleBitModel",
    "MaskingCategory",
    "MaskingLevel",
    "MaskingVerdict",
    "OperationMaskingAnalyzer",
    "PropagationAnalyzer",
    "PropagationResult",
    "ReplayContext",
    "BatchReplayResult",
    "ReplayBatch",
    "ReplayBatchStats",
    "ReplayMemo",
    "DeterministicFaultInjector",
    "FaultInjectionResult",
    "ExhaustiveCampaign",
    "ExhaustiveResult",
    "RandomFaultInjection",
    "RFIResult",
    "required_sample_size",
    "EquivalenceCache",
    "bit_class_of",
    "AdvfEngine",
    "AdvfResult",
    "AnalysisConfig",
    "ObjectReport",
    "WorkloadReport",
    "analyze_workload",
]
