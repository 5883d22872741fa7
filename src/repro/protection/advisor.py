"""The protection advisor: budgeted aDVF-guided scheme selection.

This is the decision-making layer the paper motivates aDVF with: given the
per-object vulnerability measurements (live :class:`~repro.core.advf
.AdvfEngine` reports or persisted campaign-store rows) and a runtime
overhead budget, choose which data objects to protect with which scheme.

The objective is the *unmasked event mass* removed per object —
``participations - masked_events`` (the aDVF numerator's complement) scaled
by the share of unmasked outcomes the scheme can actually convert
(SDC-class errors; in-process schemes do not survive crashes, and the SDC
share is estimated from the report's own injection-outcome histogram).  The
constraint is the scheme cost models' predicted extra dynamic operations,
bounded by ``budget × base ops``.  Program-wide schemes (the replication
family) pay their cost once no matter how many objects they cover, so the
problem is a small multiple-choice knapsack with shared fixed costs:

* ``method="exact"`` enumerates every assignment (branch-and-bound-free
  exhaustion, feasible for the paper's object counts of <= ~8);
* ``method="greedy"`` takes candidates by reduction/marginal-cost ratio;
* ``method="auto"`` (default) runs exact when the assignment space is
  small and greedy otherwise, and both tie-break deterministically.

The resulting :class:`ProtectionPlan` is a value object: dict-serialisable,
content-addressed (``plan_id``), and sufficient to re-instantiate the
protected variant (:func:`repro.protection.apply.apply_plan`) without the
analysis artifacts that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.reports import AdvfResult, ObjectReport
from repro.protection.schemes import (
    ProtectionScheme,
    SchemeCost,
    WorkloadCostInputs,
    applicable_schemes,
)

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.tracing.columnar import ColumnarTrace
    from repro.workloads.base import Workload

#: Default share of a correcting scheme's value credited to detection-only
#: schemes (detection enables out-of-band recovery but does not repair).
DETECTION_CREDIT = 0.4

#: Assumed SDC share of unmasked outcomes when a report carries no
#: injection histogram (crashes excluded — no in-process scheme covers them).
DEFAULT_SDC_SHARE = 0.7

#: Exact search is used up to this many assignments (schemes+1 per object).
_EXACT_ASSIGNMENT_LIMIT = 200_000


def _canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Candidate:
    """One (object, scheme) option offered to the optimizer."""

    object_name: str
    scheme: str
    cost: SchemeCost
    #: Unmasked event mass the selection is predicted to remove.
    reduction: float
    #: Unprotected unmasked event mass of the object.
    vulnerability: float
    #: Fraction of that mass the scheme converts (coverage x SDC share).
    effectiveness: float


@dataclass(frozen=True)
class Selection:
    """One chosen protection assignment inside a plan."""

    object_name: str
    scheme: str
    predicted_extra_ops: int
    predicted_extra_bytes: int
    predicted_reduction: float
    vulnerability: float
    advf: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "object_name": self.object_name,
            "scheme": self.scheme,
            "predicted_extra_ops": self.predicted_extra_ops,
            "predicted_extra_bytes": self.predicted_extra_bytes,
            "predicted_reduction": self.predicted_reduction,
            "vulnerability": self.vulnerability,
            "advf": self.advf,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Selection":
        return cls(
            object_name=str(payload["object_name"]),
            scheme=str(payload["scheme"]),
            predicted_extra_ops=int(payload["predicted_extra_ops"]),
            predicted_extra_bytes=int(payload["predicted_extra_bytes"]),
            predicted_reduction=float(payload["predicted_reduction"]),
            vulnerability=float(payload["vulnerability"]),
            advf=float(payload["advf"]),
        )


@dataclass
class ProtectionPlan:
    """The advisor's output: who gets protected, how, and at what cost."""

    workload: str
    workload_kwargs: Dict[str, object]
    #: Maximum extra dynamic operations as a fraction of the base run
    #: ("a 2x overhead budget" = up to 2x the baseline ops *extra*).
    budget: float
    base_ops: int
    selections: List[Selection]
    #: Total predicted extra ops (program-wide costs counted once).
    predicted_extra_ops: int
    predicted_extra_bytes: int
    method: str
    #: Objects considered but left unprotected (budget or no applicable scheme).
    unprotected: List[str] = field(default_factory=list)

    @property
    def plan_id(self) -> str:
        """Content address of the plan (stable across re-derivations)."""
        return "p" + hashlib.sha256(
            _canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()[:16]

    @property
    def predicted_overhead(self) -> float:
        return self.predicted_extra_ops / self.base_ops if self.base_ops else 0.0

    def protected_objects(self) -> List[str]:
        return [selection.object_name for selection in self.selections]

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
            "budget": self.budget,
            "base_ops": self.base_ops,
            "selections": [selection.to_dict() for selection in self.selections],
            "predicted_extra_ops": self.predicted_extra_ops,
            "predicted_extra_bytes": self.predicted_extra_bytes,
            "method": self.method,
            "unprotected": list(self.unprotected),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProtectionPlan":
        return cls(
            workload=str(payload["workload"]),
            workload_kwargs=dict(payload["workload_kwargs"]),
            budget=float(payload["budget"]),
            base_ops=int(payload["base_ops"]),
            selections=[
                Selection.from_dict(dict(item)) for item in payload["selections"]
            ],
            predicted_extra_ops=int(payload["predicted_extra_ops"]),
            predicted_extra_bytes=int(payload["predicted_extra_bytes"]),
            method=str(payload["method"]),
            unprotected=[str(name) for name in payload.get("unprotected", [])],
        )


class ProtectionAdvisor:
    """Solve the budgeted selective-protection problem for one workload."""

    def __init__(
        self,
        workload: "Workload",
        trace: "ColumnarTrace",
        workload_kwargs: Optional[Dict[str, object]] = None,
        schemes: Optional[Sequence[str]] = None,
        detection_credit: float = DETECTION_CREDIT,
    ) -> None:
        self.workload = workload
        self.workload_kwargs = dict(workload_kwargs or {})
        self.inputs = WorkloadCostInputs.from_workload(workload, trace)
        self.scheme_names = list(schemes) if schemes else None
        self.detection_credit = detection_credit

    # ------------------------------------------------------------------ #
    # candidate construction
    # ------------------------------------------------------------------ #
    def candidates_for(
        self, object_name: str, report: Union[ObjectReport, AdvfResult]
    ) -> List[Candidate]:
        result = report.result if isinstance(report, ObjectReport) else report
        vulnerability = max(0.0, result.participations - result.masked_events)
        sdc_share = self._sdc_share(report)
        out: List[Candidate] = []
        for scheme in applicable_schemes(
            self.workload.name, object_name, self.scheme_names
        ):
            cost = scheme.cost(self.workload, self.inputs, object_name)
            effectiveness = self._effectiveness(scheme, sdc_share)
            out.append(
                Candidate(
                    object_name=object_name,
                    scheme=scheme.name,
                    cost=cost,
                    reduction=vulnerability * effectiveness,
                    vulnerability=vulnerability,
                    effectiveness=effectiveness,
                )
            )
        return out

    def _effectiveness(self, scheme: ProtectionScheme, sdc_share: float) -> float:
        if scheme.coverage.corrects_sdc:
            return sdc_share
        if scheme.coverage.detects_sdc:
            return sdc_share * self.detection_credit
        return 0.0

    @staticmethod
    def _sdc_share(report: Union[ObjectReport, AdvfResult]) -> float:
        """SDC fraction of unmasked outcomes, from the report's own history."""
        if not isinstance(report, ObjectReport):
            return DEFAULT_SDC_SHARE
        failures = {
            outcome.value: count
            for outcome, count in report.injection_outcomes.items()
            if not outcome.is_success
        }
        total = sum(failures.values())
        if total == 0:
            return DEFAULT_SDC_SHARE
        return failures.get("unacceptable", 0) / total

    # ------------------------------------------------------------------ #
    # optimisation
    # ------------------------------------------------------------------ #
    def advise(
        self,
        reports: Dict[str, Union[ObjectReport, AdvfResult]],
        budget: float = 2.0,
        method: str = "auto",
    ) -> ProtectionPlan:
        """Choose protections under ``budget`` x base-ops extra operations."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        if method not in ("auto", "exact", "greedy"):
            raise ValueError(f"unknown advisor method {method!r}")
        budget_ops = int(budget * self.inputs.base_ops)
        object_names = sorted(reports)
        per_object = {
            name: self.candidates_for(name, reports[name]) for name in object_names
        }

        assignments = 1
        for candidates in per_object.values():
            assignments *= len(candidates) + 1
        if method == "auto":
            method = "exact" if assignments <= _EXACT_ASSIGNMENT_LIMIT else "greedy"
        if method == "exact":
            chosen = _solve_exact(object_names, per_object, budget_ops)
        else:
            chosen = _solve_greedy(object_names, per_object, budget_ops)

        extra_ops, extra_bytes = _total_cost(chosen)
        selections = [
            Selection(
                object_name=c.object_name,
                scheme=c.scheme,
                predicted_extra_ops=c.cost.extra_ops,
                predicted_extra_bytes=c.cost.extra_bytes,
                predicted_reduction=c.reduction,
                vulnerability=c.vulnerability,
                advf=_advf_of(reports[c.object_name]),
            )
            for c in chosen
        ]
        protected = {c.object_name for c in chosen}
        return ProtectionPlan(
            workload=self.workload.name,
            workload_kwargs=self.workload_kwargs,
            budget=budget,
            base_ops=self.inputs.base_ops,
            selections=selections,
            predicted_extra_ops=extra_ops,
            predicted_extra_bytes=extra_bytes,
            method=method,
            unprotected=[n for n in object_names if n not in protected],
        )


def _advf_of(report: Union[ObjectReport, AdvfResult]) -> float:
    return report.result.value if isinstance(report, ObjectReport) else report.value


def _total_cost(chosen: Sequence[Candidate]) -> Tuple[int, int]:
    """Total (ops, bytes) with program-wide scheme costs counted once."""
    extra_ops = extra_bytes = 0
    seen_program_wide = set()
    for candidate in chosen:
        if candidate.cost.program_wide:
            if candidate.scheme in seen_program_wide:
                continue
            seen_program_wide.add(candidate.scheme)
        extra_ops += candidate.cost.extra_ops
        extra_bytes += candidate.cost.extra_bytes
    return extra_ops, extra_bytes


def _solve_exact(
    object_names: List[str],
    per_object: Dict[str, List[Candidate]],
    budget_ops: int,
) -> List[Candidate]:
    """Exhaustive multiple-choice knapsack with shared program-wide costs.

    Deterministic tie-breaking: higher reduction first, then lower cost,
    then fewer selections, then lexicographic assignment order.
    """
    best: Tuple[float, int, int, List[Candidate]] = (0.0, 0, 0, [])

    def recurse(index: int, chosen: List[Candidate]) -> None:
        nonlocal best
        if index == len(object_names):
            ops, _ = _total_cost(chosen)
            if ops > budget_ops:
                return
            reduction = sum(c.reduction for c in chosen)
            key = (reduction, -ops, -len(chosen))
            best_key = (best[0], -best[1], -best[2])
            if key > best_key:
                best = (reduction, ops, len(chosen), list(chosen))
            return
        name = object_names[index]
        recurse(index + 1, chosen)  # leave the object unprotected
        for candidate in per_object[name]:
            chosen.append(candidate)
            recurse(index + 1, chosen)
            chosen.pop()

    recurse(0, [])
    return best[3]


def _solve_greedy(
    object_names: List[str],
    per_object: Dict[str, List[Candidate]],
    budget_ops: int,
) -> List[Candidate]:
    """Greedy ratio heuristic over marginal costs.

    Repeatedly takes the candidate with the best reduction per *marginal*
    op (a program-wide scheme already selected costs nothing for further
    objects) that still fits; assigned objects leave the pool.
    """
    chosen: List[Candidate] = []
    remaining = {name: list(per_object[name]) for name in object_names}
    while True:
        ops_now, _ = _total_cost(chosen)
        paid = {c.scheme for c in chosen if c.cost.program_wide}
        best_candidate: Optional[Candidate] = None
        best_key: Tuple[float, float] = (0.0, 0.0)
        for name in object_names:
            for candidate in remaining.get(name, ()):  # deterministic order
                marginal = (
                    0
                    if candidate.cost.program_wide and candidate.scheme in paid
                    else candidate.cost.extra_ops
                )
                if ops_now + marginal > budget_ops or candidate.reduction <= 0:
                    continue
                ratio = (
                    candidate.reduction / marginal
                    if marginal > 0
                    else float("inf")
                )
                key = (ratio, candidate.reduction)
                if best_candidate is None or key > best_key:
                    best_candidate, best_key = candidate, key
        if best_candidate is None:
            return chosen
        chosen.append(best_candidate)
        remaining.pop(best_candidate.object_name, None)
