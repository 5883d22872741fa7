"""Sampling plans: determinism, serialization round-trips, CLI parsing."""

import pytest

from repro.campaigns.plans import (
    AdaptivePlan,
    ExhaustivePlan,
    FixedRandomPlan,
    StratifiedPlan,
    ValidationPlan,
    parse_plan,
    plan_from_dict,
)
from repro.core.sites import enumerate_fault_sites
from repro.workloads.matmul import MatmulWorkload


@pytest.fixture(scope="module")
def matmul_trace():
    return MatmulWorkload(n=4).traced_run().trace


class TestSerialization:
    @pytest.mark.parametrize(
        "plan",
        [
            ExhaustivePlan(bit_stride=8),
            FixedRandomPlan(tests=64, seed=7, objects=("C",)),
            StratifiedPlan(per_stratum=5, intervals=3, seed=2),
            AdaptivePlan(target_half_width=0.08, batch_size=16, max_batches=10),
        ],
    )
    def test_round_trip(self, plan):
        rebuilt = plan_from_dict(plan.to_dict())
        assert rebuilt == plan
        assert rebuilt.to_dict() == plan.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown plan kind"):
            plan_from_dict({"kind": "bogus"})

    def test_kind_tag_present(self):
        assert ExhaustivePlan().to_dict()["kind"] == "exhaustive"
        assert AdaptivePlan().to_dict()["kind"] == "adaptive"


class TestParsing:
    def test_parse_each_kind(self):
        assert parse_plan("exhaustive") == ExhaustivePlan()
        assert parse_plan("exhaustive:8") == ExhaustivePlan(bit_stride=8)
        assert parse_plan("fixed:64") == FixedRandomPlan(tests=64)
        assert parse_plan("fixed:500@7") == FixedRandomPlan(tests=500, seed=7)
        assert parse_plan("stratified:8x4") == StratifiedPlan(per_stratum=8, intervals=4)
        assert parse_plan("adaptive:0.05") == AdaptivePlan(target_half_width=0.05)
        assert parse_plan("adaptive:0.1x16@3") == AdaptivePlan(
            target_half_width=0.1, batch_size=16, seed=3
        )

    def test_parse_objects_threaded_through(self):
        plan = parse_plan("fixed:10", objects=["C", "A"])
        assert plan.objects == ("C", "A")

    @pytest.mark.parametrize(
        "bad", ["bogus:1", "fixed", "fixed:x", "adaptive:oops", "exhaustive:8@3"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("fixed:0", "tests must be positive"),
            ("fixed:-4@2", "tests must be positive"),
            ("exhaustive:0", "bit_stride must be at least 1"),
            ("stratified:0x4", "per_stratum and intervals must be positive"),
            ("stratified:8x0", "per_stratum and intervals must be positive"),
        ],
    )
    def test_parse_rejects_out_of_range_values(self, bad, reason):
        with pytest.raises(ValueError, match=f"cannot parse plan spec.*{reason}"):
            parse_plan(bad)

    def test_validation_plan_ranges(self):
        with pytest.raises(ValueError, match="tests must be positive"):
            ValidationPlan(tests=0)
        with pytest.raises(ValueError, match="bit_stride"):
            ValidationPlan(bit_stride=0)
        assert ValidationPlan(tests=None).tests is None


class TestStaticPlans:
    def test_exhaustive_covers_all_sites(self, matmul_trace):
        plan = ExhaustivePlan(bit_stride=16)
        specs = plan.specs_for(matmul_trace, "C")
        sites = enumerate_fault_sites(matmul_trace, "C", bit_stride=16)
        assert specs == [s.to_spec() for s in sites]

    def test_fixed_is_deterministic_and_seed_sensitive(self, matmul_trace):
        a = FixedRandomPlan(tests=20, seed=1).specs_for(matmul_trace, "C")
        b = FixedRandomPlan(tests=20, seed=1).specs_for(matmul_trace, "C")
        c = FixedRandomPlan(tests=20, seed=2).specs_for(matmul_trace, "C")
        assert a == b
        assert a != c
        assert len(a) == 20

    def test_fixed_differs_per_object(self, matmul_trace):
        plan = FixedRandomPlan(tests=20, seed=1)
        assert plan.specs_for(matmul_trace, "A") != plan.specs_for(matmul_trace, "B")

    def test_stratified_covers_dynamic_intervals(self, matmul_trace):
        intervals = 4
        plan = StratifiedPlan(per_stratum=3, intervals=intervals, seed=0)
        specs = plan.specs_for(matmul_trace, "C")
        assert specs == plan.specs_for(matmul_trace, "C")  # deterministic
        sites = enumerate_fault_sites(matmul_trace, "C")
        first = min(s.participation.event_id for s in sites)
        last = max(s.participation.event_id for s in sites)
        span = last - first + 1
        hit = {
            min((spec.dynamic_id - first) * intervals // span, intervals - 1)
            for spec in specs
        }
        # every populated stratum contributed samples
        assert hit == set(range(intervals))
        assert len(specs) <= 3 * intervals

    def test_empty_object_rejected(self, matmul_trace):
        with pytest.raises(ValueError):
            FixedRandomPlan(tests=5).specs_for(matmul_trace, "nonexistent")


class TestAdaptivePlan:
    def test_batches_deterministic_and_distinct(self, matmul_trace):
        plan = AdaptivePlan(batch_size=8, seed=4)
        sites = plan.site_pool(matmul_trace, "C")
        b0 = plan.batch_specs(sites, "C", 0)
        assert b0 == plan.batch_specs(sites, "C", 0)
        assert b0 != plan.batch_specs(sites, "C", 1)
        assert len(b0) == 8

    def test_satisfied_uses_wilson_half_width(self):
        plan = AdaptivePlan(target_half_width=0.12, confidence=0.95)
        assert not plan.satisfied(0, 0)
        assert not plan.satisfied(5, 10)       # half-width ~0.26
        assert plan.satisfied(90, 100)         # half-width ~0.060
        # a high-precision target needs many more samples
        tight = AdaptivePlan(target_half_width=0.01)
        assert not tight.satisfied(90, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePlan(target_half_width=0.0)
        with pytest.raises(ValueError):
            AdaptivePlan(batch_size=0)
        with pytest.raises(ValueError):
            AdaptivePlan(confidence=0.5)

    def test_objects_for_defaults_to_workload_targets(self):
        workload = MatmulWorkload(n=4)
        assert AdaptivePlan().objects_for(workload) == ["C"]
        assert AdaptivePlan(objects=("A",)).objects_for(workload) == ["A"]
