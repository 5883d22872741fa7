"""Site-by-site reference for :meth:`repro.core.advf.AdvfEngine.analyze_object`.

The production engine plans every count-based budget decision of an object
first, runs the object's injections as one batch, then accumulates the plan.
This oracle is the direct reading of the decision procedure (Fig. 3) it
replaced: walk the participations and their error patterns in order, make
each sampling decision against the live equivalence caches, and resolve an
in-budget site with a one-fault
:meth:`DeterministicFaultInjector.inject_many` call the moment it is
reached, and estimate a saturated class pattern by pattern from the live
cache instead of replaying a frozen tail.

:class:`PerEventEngine` runs the production plan on the participations of
the per-event scan of :mod:`oracles.participation_scan`, so the vectorized
participation pass can be checked (and timed) end to end against it.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.core.advf import AdvfEngine, ObjectReport, _ObjectState
from repro.core.equivalence import EquivalenceCache
from repro.core.masking import MaskingCategory, MaskingLevel, MaskingVerdict
from repro.core.participation import Participation, find_participations
from repro.core.patterns import ErrorPattern, classify_bit
from repro.core.sites import FaultSite

from oracles.participation_scan import scan_participations

Resolution = Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]


class PerEventEngine(AdvfEngine):
    """:class:`AdvfEngine` with participations from the per-event scan.
    Verdicts, planning, injection and accumulation are the production
    ones."""

    def analyze_object(self, object_name: str) -> ObjectReport:
        self._prepare()
        config = self.config
        participations = scan_participations(
            self.trace, object_name, max_participations=config.max_participations
        )
        state = _ObjectState(
            injection_cache=EquivalenceCache(
                samples_per_class=config.injection_samples_per_class
            )
        )
        steps, specs = self._plan(participations, state)
        results = self._execute(specs)
        return self._accumulate(object_name, participations, steps, results, state)


def sequential_object_report(engine: AdvfEngine, object_name: str) -> ObjectReport:
    """aDVF report of one object, resolved site by site."""
    engine._prepare()
    config = engine.config
    participations = find_participations(
        engine.trace, object_name, max_participations=config.max_participations
    )

    site_cache = EquivalenceCache(samples_per_class=config.equivalence_samples)
    state = _ObjectState(
        injection_cache=EquivalenceCache(
            samples_per_class=config.injection_samples_per_class
        )
    )
    numerator = 0.0
    by_level: Dict[MaskingLevel, float] = {}
    by_category: Dict[MaskingCategory, float] = {}

    for participation in participations:
        patterns = config.error_model.patterns_for(participation.value_type)
        if not patterns:
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
                masked, level, category = _analyze_site(
                    engine, participation, pattern, state
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

    return engine._object_report(
        object_name, participations, numerator, by_level, by_category,
        state, site_cache, {},
    )


def _analyze_site(
    engine: AdvfEngine,
    participation: Participation,
    pattern: ErrorPattern,
    state: _ObjectState,
) -> Resolution:
    verdict = engine._masking.analyze(participation, pattern)
    if verdict.masked is True:
        return 1.0, verdict.level, verdict.category
    if verdict.masked is False and not (
        verdict.needs_propagation or verdict.needs_injection
    ):
        return 0.0, None, None

    if verdict.needs_propagation:
        state.propagation_checks += 1
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
            return 1.0, level, category
        # unresolved / survived: fall through to injection

    return _resolve_by_injection(engine, participation, pattern, verdict, state)


def _resolve_by_injection(
    engine: AdvfEngine,
    participation: Participation,
    pattern: ErrorPattern,
    verdict: MaskingVerdict,
    state: _ObjectState,
) -> Resolution:
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

    if can_inject and state.injections < config.max_injections and (
        state.injection_cache.should_analyze(injection_key)
    ):
        site = FaultSite(participation, pattern.primary_bit)
        start = time.perf_counter()
        result = engine._injector.inject_many([site.to_spec()])[0]
        engine.pass_timings["injection"] = (
            engine.pass_timings.get("injection", 0.0)
            + (time.perf_counter() - start)
        )
        state.injections += 1
        state.injection_outcomes[result.outcome] = (
            state.injection_outcomes.get(result.outcome, 0) + 1
        )
        masked, level, category = engine._classify_injection(result.outcome, verdict)
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
