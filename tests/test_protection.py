"""The protection subsystem: schemes, advisor, apply, closed-loop validation.

The headline property (ISSUE 4 acceptance): for matmul and cg, the
advisor's plan under a 2x overhead budget, once applied and validated by
injection campaign, yields a measurably higher corrected/benign fraction
on the protected objects than the unprotected baseline — and the whole
loop round-trips through the campaign store's v3 tables.
"""

import numpy as np
import pytest

from repro.campaigns.store import CampaignStore
from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.patterns import SingleBitModel
from repro.protection import (
    DuplicatedWorkload,
    ProtectionAdvisor,
    ProtectionPlan,
    apply_plan,
    applicable_schemes,
    get_scheme,
    measure_overhead,
    validate_plan,
)
from repro.protection.advisor import Candidate, Selection, _solve_exact, _solve_greedy
from repro.protection.schemes import SCHEMES, SchemeCost, WorkloadCostInputs
from repro.workloads.registry import get_workload

MATMUL_KWARGS = {"n": 4}
CG_KWARGS = {"n": 8, "cgitmax": 2}


@pytest.fixture(scope="module")
def matmul():
    return get_workload("matmul", **MATMUL_KWARGS)


@pytest.fixture(scope="module")
def matmul_trace(matmul):
    return matmul.traced_run().trace


def _analyze(workload, objects=None):
    engine = AdvfEngine(
        workload,
        AnalysisConfig(
            max_injections=30,
            error_model=SingleBitModel(bit_stride=8),
            equivalence_samples=1,
            injection_samples_per_class=1,
        ),
    )
    names = list(objects or workload.target_objects)
    reports = {name: engine.analyze_object(name) for name in names}
    return reports, engine.trace


# --------------------------------------------------------------------- #
# schemes: applicability and cost models
# --------------------------------------------------------------------- #
class TestSchemes:
    def test_registry_and_applicability(self):
        assert set(SCHEMES) == {
            "abft_checksum", "duplication", "reexec", "detect_checksum"
        }
        # bespoke ABFT only where a hand-written variant exists
        assert "abft_checksum" in [
            s.name for s in applicable_schemes("matmul", "C")
        ]
        assert "abft_checksum" not in [
            s.name for s in applicable_schemes("cg", "r")
        ]
        # the replication family applies everywhere
        assert {"duplication", "reexec", "detect_checksum"} <= {
            s.name for s in applicable_schemes("cg", "colidx")
        }

    def test_coverage_models(self):
        assert get_scheme("duplication").coverage.corrects_sdc
        assert get_scheme("detect_checksum").coverage.detects_sdc
        assert not get_scheme("detect_checksum").coverage.corrects_sdc
        assert not any(s.coverage.covers_crash for s in SCHEMES.values())

    @pytest.mark.parametrize("scheme_name", ["duplication", "reexec", "abft_checksum"])
    def test_cost_model_predicts_measured_ops(self, matmul, matmul_trace, scheme_name):
        """The trace-derived cost models match applied-variant op counts."""
        inputs = WorkloadCostInputs.from_workload(matmul, matmul_trace)
        cost = get_scheme(scheme_name).cost(matmul, inputs, "C")
        plan = ProtectionPlan(
            workload="matmul", workload_kwargs=MATMUL_KWARGS, budget=3.0,
            base_ops=inputs.base_ops,
            selections=[Selection("C", scheme_name, cost.extra_ops,
                                  cost.extra_bytes, 1.0, 1.0, 0.5)],
            predicted_extra_ops=cost.extra_ops,
            predicted_extra_bytes=cost.extra_bytes, method="exact",
        )
        measured = measure_overhead(matmul, apply_plan(plan))
        assert measured["outputs_identical"]
        assert measured["extra_ops"] > 0
        relative_error = abs(measured["extra_ops"] - cost.extra_ops) / measured["extra_ops"]
        assert relative_error < 0.10, (
            f"{scheme_name}: predicted {cost.extra_ops}, "
            f"measured {measured['extra_ops']}"
        )

    def test_replication_cost_is_program_wide(self, matmul, matmul_trace):
        inputs = WorkloadCostInputs.from_workload(matmul, matmul_trace)
        assert get_scheme("reexec").cost(matmul, inputs, "C").program_wide
        assert not get_scheme("abft_checksum").cost(matmul, inputs, "C").program_wide

    def test_shadow_bytes_accounted(self, matmul, matmul_trace):
        inputs = WorkloadCostInputs.from_workload(matmul, matmul_trace)
        dup = get_scheme("duplication").cost(matmul, inputs, "C")
        reexec = get_scheme("reexec").cost(matmul, inputs, "C")
        assert dup.extra_bytes == 2 * inputs.object_bytes
        assert reexec.extra_bytes == inputs.object_bytes


# --------------------------------------------------------------------- #
# generated duplicate-and-compare transform
# --------------------------------------------------------------------- #
class TestDuplicatedWorkload:
    @pytest.mark.parametrize("mode", ["vote", "adopt", "detect"])
    def test_golden_outputs_bit_identical(self, mode):
        base = get_workload("cg", **CG_KWARGS)
        protected = DuplicatedWorkload(base, mode=mode)
        base_outcome = base.golden_run()
        protected_outcome = protected.golden_run()
        for name in base.output_objects:
            assert np.array_equal(
                base_outcome.outputs[name], protected_outcome.outputs[name]
            )
        assert protected_outcome.return_value == base_outcome.return_value

    def test_void_entry_supported(self):
        base = get_workload("matmul", **MATMUL_KWARGS)  # matmul returns void
        protected = DuplicatedWorkload(base, mode="vote")
        outcome = protected.golden_run()
        assert np.array_equal(
            outcome.outputs["C"], base.golden_run().outputs["C"]
        )

    def test_shadow_objects_do_not_join_the_fault_space(self):
        """Sites of the original object names live in the primary replica
        only — shadow copies carry distinct names."""
        from repro.core.participation import find_participations

        base = get_workload("matmul", **MATMUL_KWARGS)
        protected = DuplicatedWorkload(base, mode="adopt")
        base_trace = base.traced_run().trace
        protected_trace = protected.traced_run().trace
        base_sites = find_participations(base_trace, "C")
        protected_sites = find_participations(protected_trace, "C")
        # the compare loop adds consumed C sites but no second replica worth
        assert len(base_sites) < len(protected_sites) < 2 * len(base_sites)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown duplication mode"):
            DuplicatedWorkload(get_workload("matmul"), mode="tmr9")


# --------------------------------------------------------------------- #
# advisor: optimisation and serialisation
# --------------------------------------------------------------------- #
def _candidate(obj, scheme, cost, reduction, program_wide=False):
    return Candidate(
        object_name=obj,
        scheme=scheme,
        cost=SchemeCost(extra_ops=cost, extra_bytes=0, program_wide=program_wide),
        reduction=reduction,
        vulnerability=reduction,
        effectiveness=1.0,
    )


class TestAdvisorOptimizer:
    def test_exact_beats_or_matches_greedy_on_object_scope_knapsack(self):
        # classic ratio-trap: greedy grabs the high-ratio small item, exact
        # finds the higher-total pair that exactly fills the budget.
        per_object = {
            "a": [_candidate("a", "s1", cost=60, reduction=100.0)],
            "b": [_candidate("b", "s1", cost=50, reduction=70.0)],
            "c": [_candidate("c", "s1", cost=50, reduction=70.0)],
        }
        names = ["a", "b", "c"]
        exact = _solve_exact(names, per_object, budget_ops=100)
        greedy = _solve_greedy(names, per_object, budget_ops=100)
        assert sorted(c.object_name for c in exact) == ["b", "c"]
        assert sum(c.reduction for c in exact) >= sum(c.reduction for c in greedy)

    def test_program_wide_cost_counted_once(self):
        per_object = {
            "a": [_candidate("a", "dup", cost=100, reduction=10.0, program_wide=True)],
            "b": [_candidate("b", "dup", cost=100, reduction=10.0, program_wide=True)],
        }
        chosen = _solve_exact(["a", "b"], per_object, budget_ops=100)
        # both objects fit under one shared payment
        assert sorted(c.object_name for c in chosen) == ["a", "b"]

    def test_budget_zero_selects_nothing(self):
        per_object = {"a": [_candidate("a", "s1", cost=10, reduction=5.0)]}
        assert _solve_exact(["a"], per_object, budget_ops=0) == []
        assert _solve_greedy(["a"], per_object, budget_ops=0) == []

    def test_zero_reduction_objects_left_unprotected(self, matmul, matmul_trace):
        from repro.core.advf import AdvfResult

        advisor = ProtectionAdvisor(matmul, matmul_trace, workload_kwargs=MATMUL_KWARGS)
        fully_masked = AdvfResult(
            object_name="C", value=1.0, participations=10, masked_events=10.0
        )
        plan = advisor.advise({"C": fully_masked}, budget=3.0)
        assert plan.selections == []
        assert plan.unprotected == ["C"]


class TestPlanSerialisation:
    def test_round_trip_and_stable_id(self, matmul, matmul_trace):
        reports, _ = _analyze(matmul)
        advisor = ProtectionAdvisor(matmul, matmul_trace, workload_kwargs=MATMUL_KWARGS)
        plan = advisor.advise(reports, budget=2.0)
        clone = ProtectionPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.plan_id == plan.plan_id
        # re-advising from the same inputs is deterministic
        again = advisor.advise(reports, budget=2.0)
        assert again.plan_id == plan.plan_id

    def test_store_round_trip(self, matmul, matmul_trace, tmp_path):
        reports, _ = _analyze(matmul)
        advisor = ProtectionAdvisor(matmul, matmul_trace, workload_kwargs=MATMUL_KWARGS)
        plan = advisor.advise(reports, budget=2.0)
        with CampaignStore(tmp_path / "s.sqlite") as store:
            store.save_protection_plan(
                plan.plan_id, plan.workload, plan.workload_kwargs,
                plan.budget, plan.to_dict(),
            )
            record = store.protection_plan(plan.plan_id)
            assert record.status == "planned"
            assert ProtectionPlan.from_dict(record.plan).plan_id == plan.plan_id
            assert store.protection_plans(workload="matmul")[0].plan_id == plan.plan_id


# --------------------------------------------------------------------- #
# the closed loop (ISSUE 4 acceptance criterion)
# --------------------------------------------------------------------- #
class TestClosedLoop:
    @pytest.mark.parametrize(
        "workload_name,kwargs",
        [("matmul", MATMUL_KWARGS), ("cg", CG_KWARGS)],
        ids=["matmul", "cg"],
    )
    def test_protection_measurably_reduces_vulnerability(
        self, workload_name, kwargs, tmp_path
    ):
        workload = get_workload(workload_name, **kwargs)
        reports, trace = _analyze(workload)
        advisor = ProtectionAdvisor(workload, trace, workload_kwargs=kwargs)
        plan = advisor.advise(reports, budget=2.0)
        assert plan.selections, "advisor found nothing to protect"
        assert plan.predicted_extra_ops <= 2.0 * plan.base_ops

        protected = apply_plan(plan)
        measured = measure_overhead(workload, protected)
        assert measured["outputs_identical"]
        # the budget holds in measured ops too (small slack for the model)
        assert measured["extra_ops"] <= 2.1 * measured["base_ops"]

        with CampaignStore(tmp_path / "store.sqlite") as store:
            store.save_protection_plan(
                plan.plan_id, plan.workload, plan.workload_kwargs,
                plan.budget, plan.to_dict(),
            )
            report = validate_plan(
                plan, store=store, bit_stride=8, max_tests=30
            )
            improvements = {
                name: report.improvement(name) for name in plan.protected_objects()
            }
            # every protected object improves; at least one markedly
            assert all(delta >= 0.0 for delta in improvements.values()), improvements
            assert max(improvements.values()) >= 0.15, improvements

            # durable rows back the report verbatim
            runs = store.validation_runs(plan.plan_id)
            assert len(runs) == 2 * len(plan.protected_objects())
            assert store.protection_plan(plan.plan_id).status == "validated"
            by_key = {(r.object_name, r.variant): r for r in runs}
            for outcome in report.outcomes:
                row = by_key[(outcome.object_name, outcome.variant)]
                assert row.successes == outcome.successes
                assert row.tests == outcome.tests
                assert row.histogram == outcome.histogram
                # v4: every row names the orchestrated campaign behind it,
                # whose shards carry timings + replay-batch telemetry
                assert row.campaign_id
                shards = store.completed_shards(row.campaign_id)
                assert shards, row.campaign_id
                assert sum(s.spec_count for s in shards.values()) >= row.tests


# --------------------------------------------------------------------- #
# validation through the orchestrator (ISSUE 5 acceptance criterion)
# --------------------------------------------------------------------- #
class TestOrchestratedValidation:
    def _plan(self, tmp_path):
        workload = get_workload("matmul", **MATMUL_KWARGS)
        reports, trace = _analyze(workload)
        advisor = ProtectionAdvisor(workload, trace, workload_kwargs=MATMUL_KWARGS)
        plan = advisor.advise(reports, budget=2.0)
        assert plan.selections
        return plan

    @staticmethod
    def _rows(store, plan_id):
        return [
            (r.object_name, r.variant, r.tests, r.successes,
             tuple(sorted(r.histogram.items())))
            for r in store.validation_runs(plan_id)
        ]

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        plan = self._plan(tmp_path)
        with CampaignStore(tmp_path / "straight.sqlite") as straight:
            validate_plan(
                plan, store=straight, max_tests=24, workers=1, shard_size=8
            )
            want = self._rows(straight, plan.plan_id)
            assert want

        with CampaignStore(tmp_path / "killed.sqlite") as killed:
            # kill mid-campaign: one shard per variant, nothing persisted
            validate_plan(
                plan, store=killed, max_tests=24, workers=1, shard_size=8,
                max_shards=1,
            )
            assert self._rows(killed, plan.plan_id) == []
            # resume == re-run: persisted shards are skipped, the rest
            # executed, and the final rows equal the uninterrupted run's
            validate_plan(
                plan, store=killed, max_tests=24, workers=1, shard_size=8
            )
            assert self._rows(killed, plan.plan_id) == want
            # the resume actually skipped work (run accounting proves it)
            from repro.protection.validate import validation_campaign

            for variant in ("baseline", "protected"):
                orchestrator = validation_campaign(
                    plan, killed, variant, max_tests=24, workers=1,
                    shard_size=8,
                )
                accounting = killed.run_accounting(orchestrator.campaign_id)
                assert len(accounting) == 2
                first_run, second_run = accounting
                assert first_run[1] == 1  # executed exactly max_shards
                assert second_run[2] >= 1  # resume skipped persisted shards
                shards = killed.completed_shards(orchestrator.campaign_id)
                assert {s.run_id for s in shards.values()} == {1, 2}

    def test_validate_honors_repro_workers(self, tmp_path, monkeypatch):
        from repro.protection.validate import validation_campaign

        plan = self._plan(tmp_path)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with CampaignStore(tmp_path / "workers.sqlite") as store:
            orchestrator = validation_campaign(plan, store, "baseline")
            assert orchestrator.workers == 3

    def test_protected_variant_is_registry_addressable(self, tmp_path):
        plan = self._plan(tmp_path)
        variant = get_workload("protected", plan=plan.to_dict())
        baseline = get_workload(plan.workload, **plan.workload_kwargs)
        golden_variant = variant.fresh_instance().run()
        golden_baseline = baseline.fresh_instance().run()
        for name in baseline.output_objects:
            assert np.array_equal(
                golden_variant.outputs[name], golden_baseline.outputs[name]
            ), name
        with pytest.raises(TypeError):
            get_workload("protected")
        with pytest.raises(TypeError):
            get_workload("protected", plan=plan.to_dict(), n=4)
