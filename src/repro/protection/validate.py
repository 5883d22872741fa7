"""Closed-loop validation: did the protection actually help?

The advisor's plan is a *prediction*; this module closes the loop by
measurement.  For every protected object it runs the same deterministic
injection campaign twice — once against the unprotected baseline and once
against the applied variant — drawing fault sites from each program's own
golden trace (the protected program's site space for an object name is the
primary replica plus any checksum/verify phases that touch it, i.e. the
honest residual fault space).

Both campaigns run through the parallel
:class:`~repro.campaigns.orchestrator.CampaignOrchestrator`: the protected
variant is addressable as the reserved ``"protected"`` registry workload
(``plan=`` kwarg carries the persisted plan payload), the site selection is
a first-class :class:`~repro.campaigns.plans.ValidationPlan`, and shards
checkpoint into the campaign store exactly like ordinary campaigns — so a
killed validation resumes bit-identically, ``REPRO_WORKERS`` sizes the
worker pool, and every shard carries injection timings plus replay-batch
telemetry.  Outcomes land in the store's ``validation_runs`` table, keyed
by plan id and stamped with the measuring campaign's id, so ``python -m
repro protect report`` renders residual-vulnerability tables from durable
rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaigns.orchestrator import DEFAULT_SHARD_SIZE, CampaignOrchestrator
from repro.campaigns.plans import ValidationPlan
from repro.campaigns.store import CampaignStore
from repro.core.acceptance import OutcomeClass
from repro.protection.advisor import ProtectionPlan
from repro.workloads.registry import PROTECTED_WORKLOAD

#: The two measured program variants of every closed-loop validation.
VARIANTS = ("baseline", "protected")


@dataclass(frozen=True)
class ValidationOutcome:
    """Baseline-vs-protected masking measurement for one object."""

    object_name: str
    scheme: str
    variant: str
    tests: int
    successes: int
    histogram: Dict[str, int]
    #: Content-addressed id of the orchestrated campaign that measured it.
    campaign_id: str = ""

    @property
    def masked_fraction(self) -> float:
        return self.successes / self.tests if self.tests else 0.0


@dataclass
class ValidationReport:
    """All measurements of one plan's closed-loop validation.

    ``complete`` is False when ``max_shards`` interrupted either variant
    campaign — the outcomes then cover only the persisted shards and no
    ``validation_runs`` rows were written (re-run to resume and finish).
    """

    plan_id: str
    outcomes: List[ValidationOutcome]
    complete: bool = True

    def pairs(self) -> Dict[str, Dict[str, ValidationOutcome]]:
        """object name -> {variant: outcome}."""
        out: Dict[str, Dict[str, ValidationOutcome]] = {}
        for outcome in self.outcomes:
            out.setdefault(outcome.object_name, {})[outcome.variant] = outcome
        return out

    def improvement(self, object_name: str) -> float:
        """Protected minus baseline masked fraction (positive = helped)."""
        pair = self.pairs()[object_name]
        return pair["protected"].masked_fraction - pair["baseline"].masked_fraction


def variant_descriptor(
    plan: ProtectionPlan, variant: str
) -> Tuple[str, Dict[str, object]]:
    """The ``(workload_name, workload_kwargs)`` identity of a plan variant.

    ``baseline`` is the plan's own workload; ``protected`` is the reserved
    registry name whose ``plan=`` kwarg lets a campaign rebuild the
    applied variant from the persisted plan payload.
    """
    if variant == "baseline":
        return plan.workload, dict(plan.workload_kwargs)
    if variant == "protected":
        return PROTECTED_WORKLOAD, {"plan": plan.to_dict()}
    raise ValueError(f"unknown validation variant {variant!r}")


def validation_campaign(
    plan: ProtectionPlan,
    store: CampaignStore,
    variant: str,
    bit_stride: int = 8,
    max_tests: Optional[int] = 40,
    workers: Optional[int] = None,
    progress=None,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> CampaignOrchestrator:
    """The durable campaign measuring one variant of a plan.

    A plain :class:`CampaignOrchestrator` over a
    :class:`~repro.campaigns.plans.ValidationPlan` — content-addressed from
    (variant workload, plan payload, sampling parameters), so re-running
    resumes, interrupting checkpoints, and ``run(max_shards=…)`` kills it
    deterministically for resume tests.
    """
    workload_name, workload_kwargs = variant_descriptor(plan, variant)
    sampling = ValidationPlan(
        objects=tuple(plan.protected_objects()),
        bit_stride=bit_stride,
        tests=max_tests,
    )
    return CampaignOrchestrator(
        store,
        workload_name,
        workload_kwargs,
        plan=sampling,
        workers=workers,
        shard_size=shard_size,
        progress=progress,
    )


def validate_plan(
    plan: ProtectionPlan,
    store: Optional[CampaignStore] = None,
    bit_stride: int = 8,
    max_tests: Optional[int] = 40,
    workers: Optional[int] = None,
    progress=None,
    max_shards: Optional[int] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> ValidationReport:
    """Measure residual vulnerability of every protected object.

    When ``store`` is given, the two variant campaigns checkpoint into it
    and each measurement is persisted as a ``validation_runs`` row (the
    plan's status advances to ``"validated"``); without one, an ephemeral
    in-memory store backs the campaigns.  ``workers`` defaults to
    ``REPRO_WORKERS``/core count like every orchestrated campaign.
    ``max_shards`` bounds the shards executed per variant this run — an
    interrupted validation persists nothing to ``validation_runs`` but
    keeps its completed shards, so re-running resumes and finishes it
    (check :attr:`ValidationReport.complete`).  The protected variant is
    always rebuilt from the plan payload (the ``"protected"`` registry
    workload), so worker processes measure exactly the plan's variant.
    """
    campaign_store = store if store is not None else CampaignStore(":memory:")
    scheme_by_object = {s.object_name: s.scheme for s in plan.selections}

    outcomes: List[ValidationOutcome] = []
    complete = True
    try:
        for variant in VARIANTS:
            orchestrator = validation_campaign(
                plan,
                campaign_store,
                variant,
                bit_stride=bit_stride,
                max_tests=max_tests,
                workers=workers,
                progress=progress,
                shard_size=shard_size,
            )
            result = orchestrator.run(max_shards=max_shards)
            complete = complete and result.complete
            for object_name in plan.protected_objects():
                histogram = dict(result.histograms.get(object_name, {}))
                tests = sum(histogram.values())
                successes = sum(
                    count
                    for outcome, count in histogram.items()
                    if OutcomeClass(outcome).is_success
                )
                outcomes.append(
                    ValidationOutcome(
                        object_name=object_name,
                        scheme=scheme_by_object[object_name],
                        variant=variant,
                        tests=tests,
                        successes=successes,
                        histogram=histogram,
                        campaign_id=result.campaign_id,
                    )
                )
    finally:
        if store is None:
            campaign_store.close()

    report = ValidationReport(
        plan_id=plan.plan_id, outcomes=outcomes, complete=complete
    )
    if store is not None and complete:
        for outcome in outcomes:
            store.save_validation_run(
                plan.plan_id,
                outcome.object_name,
                outcome.variant,
                outcome.scheme,
                outcome.tests,
                outcome.successes,
                outcome.histogram,
                campaign_id=outcome.campaign_id,
            )
        store.set_plan_status(plan.plan_id, "validated")
    return report
