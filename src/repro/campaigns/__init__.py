"""Durable campaign orchestration: store, plans, orchestrator, statistics.

This package scales the paper's fault-injection methodology from one-shot
in-memory runs to durable, resumable campaigns:

* :mod:`repro.campaigns.store` — append-only SQLite persistence with
  content-addressed campaign identities;
* :mod:`repro.campaigns.plans` — first-class sampling plans (exhaustive,
  fixed random, stratified, adaptive CI-driven);
* :mod:`repro.campaigns.orchestrator` — deterministic sharding over the
  :mod:`repro.parallel` workers with checkpoint/resume;
* :mod:`repro.campaigns.stats` — Wilson intervals for masking-rate CIs;
* :mod:`repro.campaigns.cli` — the ``python -m repro`` command line.

Public API
----------
:class:`~repro.campaigns.store.CampaignStore`,
:class:`~repro.campaigns.orchestrator.CampaignOrchestrator`,
:class:`~repro.campaigns.plans.ExhaustivePlan`,
:class:`~repro.campaigns.plans.FixedRandomPlan`,
:class:`~repro.campaigns.plans.StratifiedPlan`,
:class:`~repro.campaigns.plans.AdaptivePlan`,
:func:`~repro.campaigns.plans.parse_plan`,
:func:`~repro.campaigns.stats.wilson_interval`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "orchestrator": (
            "DEFAULT_SHARD_SIZE",
            "CampaignOrchestrator",
            "CampaignResult",
            "ShardTask",
        ),
        "plans": (
            "AdaptivePlan",
            "ExhaustivePlan",
            "FixedRandomPlan",
            "SamplingPlan",
            "StratifiedPlan",
            "ValidationPlan",
            "parse_plan",
            "plan_from_dict",
        ),
        "stats": (
            "fixed_sample_size_for_half_width",
            "wilson_half_width",
            "wilson_interval",
            "z_for_confidence",
        ),
        "store": (
            "CampaignRecord",
            "CampaignStore",
            "StoreVersionError",
            "compute_campaign_id",
        ),
    },
)
