"""Selective protection: aDVF-guided, budgeted, closed-loop validated.

This package is the decision-making layer the paper motivates the aDVF
model with — it turns vulnerability *measurements* into protection
*actions* and verifies them:

1. :mod:`~repro.protection.schemes` — a registry of protection schemes
   (ABFT checksums, duplication+vote, re-execution, detect-only) with
   trace-derived cost models and coverage models;
2. :mod:`~repro.protection.advisor` — the budgeted optimizer that consumes
   aDVF reports and emits a deterministic :class:`ProtectionPlan`;
3. :mod:`~repro.protection.apply` — plan application: bespoke ABFT
   workload variants plus a generic duplicate-and-compare transform
   synthesised at the IR level;
4. :mod:`~repro.protection.validate` — closed-loop validation by injection
   campaign against the protected program, persisted in the campaign
   store's v3 ``protection_plans`` / ``validation_runs`` tables.

CLI: ``python -m repro protect plan|apply|validate|report``.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "advisor": (
            "Candidate",
            "ProtectionAdvisor",
            "ProtectionPlan",
            "Selection",
        ),
        "apply": ("DuplicatedWorkload", "apply_plan", "measure_overhead"),
        "schemes": (
            "BESPOKE_ABFT_VARIANTS",
            "CoverageModel",
            "ProtectionScheme",
            "SCHEMES",
            "SchemeCost",
            "WorkloadCostInputs",
            "applicable_schemes",
            "get_scheme",
        ),
        "validate": ("ValidationOutcome", "ValidationReport", "validate_plan"),
    },
)
