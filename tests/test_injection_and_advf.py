"""Tests for fault sites, the injectors (deterministic / exhaustive / RFI)
and the aDVF engine."""

import pytest

from repro.core.acceptance import OutcomeClass
from repro.core.advf import AdvfEngine, AnalysisConfig, analyze_workload
from repro.core.exhaustive import ExhaustiveCampaign, rank_by_success_rate
from repro.core.injector import DeterministicFaultInjector
from repro.core.masking import MaskingLevel
from repro.core.patterns import SingleBitModel
from repro.core.participation import ParticipationRole, find_participations
from repro.core.rfi import RandomFaultInjection, required_sample_size
from repro.core.sites import enumerate_fault_sites, iter_site_specs
from repro.vm.faults import FaultSpec, FaultTarget

from oracles.rerun import RerunInjector


# --------------------------------------------------------------------- #
# fault sites
# --------------------------------------------------------------------- #
class TestFaultSites:
    def test_enumeration_counts(self, lu_trace):
        sites = enumerate_fault_sites(lu_trace, "sum")
        parts = find_participations(lu_trace, "sum")
        assert len(sites) == 64 * len(parts)

    def test_bit_stride_scales_down(self, lu_trace):
        full = enumerate_fault_sites(lu_trace, "sum")
        strided = enumerate_fault_sites(lu_trace, "sum", bit_stride=16)
        assert len(strided) == len(full) // 16

    def test_invalid_stride(self, lu_trace):
        with pytest.raises(ValueError):
            enumerate_fault_sites(lu_trace, "sum", bit_stride=0)

    def test_site_to_spec_roles(self, lu_trace):
        sites = enumerate_fault_sites(lu_trace, "sum", bit_stride=32)
        specs = list(iter_site_specs(sites))
        assert len(specs) == len(sites)
        targets = {s.target for s in specs}
        assert FaultTarget.OPERAND in targets
        assert FaultTarget.STORE_DEST_OLD in targets

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(dynamic_id=-1, bit=0)
        with pytest.raises(ValueError):
            FaultSpec(dynamic_id=0, bit=-2)
        spec = FaultSpec(dynamic_id=3, bit=7, operand_index=1)
        assert "bit 7" in spec.describe()


# --------------------------------------------------------------------- #
# deterministic injector
# --------------------------------------------------------------------- #
class TestDeterministicInjector:
    def test_golden_is_cached(self, lu_workload):
        injector = DeterministicFaultInjector(lu_workload)
        assert injector.golden is injector.golden

    def test_inject_classifies(self, lu_workload, lu_trace):
        injector = DeterministicFaultInjector(lu_workload)
        sites = enumerate_fault_sites(lu_trace, "u", bit_stride=8)
        results = injector.inject_many([sites[0].to_spec(), sites[-1].to_spec()])
        assert len(results) == 2
        assert all(isinstance(r.outcome, OutcomeClass) for r in results)
        histogram = injector.outcome_histogram(results)
        assert sum(histogram.values()) == 2

    def test_high_exponent_flip_not_masked(self, lu_workload, lu_trace):
        """Flipping a high exponent bit of a consumed u element must not be
        silently reported as identical."""
        parts = [
            p
            for p in find_participations(lu_trace, "u")
            if p.role is ParticipationRole.CONSUMED
        ]
        injector = DeterministicFaultInjector(lu_workload)
        spec = FaultSpec(
            dynamic_id=parts[0].event_id,
            bit=62,
            operand_index=parts[0].operand_index,
        )
        result = injector.inject_many([spec])[0]
        assert result.outcome is RerunInjector(lu_workload).inject(spec).outcome
        assert result.outcome in (
            OutcomeClass.UNACCEPTABLE,
            OutcomeClass.CRASH,
            OutcomeClass.HANG,
            OutcomeClass.ACCEPTABLE,
        )
        assert result.outcome is not OutcomeClass.IDENTICAL

    def test_determinism(self, lu_workload, lu_trace):
        parts = find_participations(lu_trace, "u")
        spec = FaultSpec(
            dynamic_id=parts[0].event_id, bit=40, operand_index=max(parts[0].operand_index, 0)
        )
        injector = DeterministicFaultInjector(lu_workload)
        first = injector.inject_many([spec])[0].outcome
        assert injector.inject_many([spec])[0].outcome is first
        assert first is RerunInjector(lu_workload).inject(spec).outcome


# --------------------------------------------------------------------- #
# exhaustive and random fault injection
# --------------------------------------------------------------------- #
class TestCampaigns:
    def test_exhaustive_small(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        campaign = ExhaustiveCampaign(
            lulesh_workload, bit_stride=16, max_injections=40
        )
        result = campaign.run(trace, "m_elemBC")
        assert 0.0 <= result.success_rate <= 1.0
        assert result.sites_injected <= 40
        assert result.sites_injected <= result.sites_total
        assert "success rate" in result.describe()

    def test_exhaustive_ranking(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        campaign = ExhaustiveCampaign(
            lulesh_workload, bit_stride=16, max_injections=30
        )
        results = campaign.run_many(trace, ["m_delv_zeta", "m_elemBC"])
        ranking = rank_by_success_rate(results)
        assert set(ranking) == {"m_delv_zeta", "m_elemBC"}

    def test_rfi_reproducible_with_seed(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        rfi = RandomFaultInjection(lulesh_workload, seed=7)
        first = rfi.run(trace, "m_delv_zeta", tests=12)
        second = RandomFaultInjection(lulesh_workload, seed=7).run(
            trace, "m_delv_zeta", tests=12
        )
        assert first.success_rate == second.success_rate
        assert 0.0 <= first.margin_of_error <= 1.0
        low, high = first.interval()
        assert 0.0 <= low <= high <= 1.0

    def test_rfi_requires_positive_tests(self, lulesh_workload):
        trace = lulesh_workload.traced_run().trace
        rfi = RandomFaultInjection(lulesh_workload)
        with pytest.raises(ValueError):
            rfi.run(trace, "m_delv_zeta", tests=0)

    def test_required_sample_size(self):
        assert required_sample_size(10**12, confidence=0.95, error_margin=0.05) == pytest.approx(
            385, abs=2
        )
        assert required_sample_size(100, confidence=0.95, error_margin=0.05) <= 100
        assert required_sample_size(0) == 0
        with pytest.raises(ValueError):
            required_sample_size(1000, confidence=0.42)


# --------------------------------------------------------------------- #
# aDVF engine
# --------------------------------------------------------------------- #
class TestAdvfEngine:
    def test_lu_sum_matches_paper_shape(self, fast_config):
        from repro.workloads.lu import LUWorkload

        report = AdvfEngine(LUWorkload(n=8, niter=1), fast_config).analyze_object("sum")
        result = report.result
        # Eq. 2 structure: the aDVF of sum sits strictly between 0 and 1 and
        # is dominated by operation-level masking (assignments in loops 1/3).
        assert 0.2 < result.value < 0.9
        assert result.participations > 0
        assert result.by_level.get(MaskingLevel.OPERATION, 0.0) > 0.0
        assert result.masked_events == pytest.approx(
            sum(result.by_level.values()), rel=1e-6
        )

    def test_advf_in_unit_interval_and_deterministic(self, lulesh_workload, fast_config):
        engine = AdvfEngine(lulesh_workload, fast_config)
        first = engine.analyze_object("m_elemBC").result.value
        second = AdvfEngine(lulesh_workload, fast_config).analyze_object(
            "m_elemBC"
        ).result.value
        assert 0.0 <= first <= 1.0
        assert first == pytest.approx(second)

    def test_breakdowns_sum_to_advf(self, lulesh_workload, fast_config):
        report = AdvfEngine(lulesh_workload, fast_config).analyze_object("m_delv_zeta")
        result = report.result
        level_sum = sum(
            result.level_fraction(level) for level in MaskingLevel
        )
        assert level_sum == pytest.approx(result.value, rel=1e-6, abs=1e-9)

    def test_cg_ranking_r_above_colidx(self, cg_workload, fast_config):
        report = AdvfEngine(cg_workload, fast_config).analyze(["r", "colidx"])
        assert report.advf["r"].value > report.advf["colidx"].value
        assert report.ranking()[0] == "r"

    def test_analyze_workload_by_name(self, fast_config):
        report = analyze_workload(
            "lulesh", targets=["m_elemBC"], config=fast_config, num_elem=8
        )
        assert report.workload == "lulesh"
        assert set(report.objects) == {"m_elemBC"}

    def test_injection_disabled_still_bounded(self, lulesh_workload):
        config = AnalysisConfig(
            use_injection=False,
            error_model=SingleBitModel(bit_stride=8),
            equivalence_samples=1,
        )
        report = AdvfEngine(lulesh_workload, config).analyze_object("m_delv_zeta")
        assert report.injections == 0
        assert 0.0 <= report.result.value <= 1.0

    def test_injection_budget_respected(self, cg_workload):
        config = AnalysisConfig(
            max_injections=5,
            error_model=SingleBitModel(bit_stride=8),
            equivalence_samples=1,
            injection_samples_per_class=1,
        )
        report = AdvfEngine(cg_workload, config).analyze_object("colidx")
        assert report.injections <= 5
