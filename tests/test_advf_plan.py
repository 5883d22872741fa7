"""Plan-then-execute aDVF resolution: parity oracle + telemetry.

:meth:`AdvfEngine.analyze_object` fixes every count-based budget decision
of an object in a planning pass, runs the object's injections as one
``inject_many`` batch and then accumulates the plan in participation
order.  Its acceptance bar is *bit identity* with the site-by-site oracle
(:mod:`oracles.advf_sequential`), which injects one fault at a time as it
reaches each site: same aDVF value, masking breakdowns, injection counts
and outcome histograms, cache statistics.
"""

from __future__ import annotations

import pytest

from oracles.advf_sequential import PerEventEngine, sequential_object_report
from oracles.rerun import RerunInjector
from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.injector import DeterministicFaultInjector
from repro.obs.metrics import configure, registry
from repro.workloads.registry import get_workload, workload_names


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test starts with an enabled, empty process registry."""
    configure(True)
    yield
    configure(None)


#: Reduced problem sizes so analyses with injection stay fast.
SMALL_KWARGS = {
    "amg": {"n": 6, "m": 2},
    "cg": {"n": 10, "cgitmax": 2},
    "lu": {"n": 8, "niter": 1},
    "lulesh": {"num_elem": 12},
    "matmul": {"n": 5},
    "matmul_abft": {"n": 5},
    "mg": {"nf": 9, "ncycles": 1},
    "pf": {"nparticles": 8, "nframes": 1},
    "pf_abft": {"nparticles": 8, "nframes": 1},
}


def _legacy_engine(workload, config):
    """The per-event path (participation scan, every verdict from the
    masking analyzer) on a golden trace recorded up front."""
    return PerEventEngine(workload, config, trace=workload.traced_run().trace)


def _rerun_engine(workload, config):
    """Columnar analysis with every injection re-run from scratch."""
    engine = AdvfEngine(
        workload, config, trace=workload.traced_run().trace
    )
    engine._injector = RerunInjector(workload)
    return engine


#: Non-default set-ups checked on matmul and cg: an engine builder and the
#: configuration overrides it analyses with.
CONFIGS = {
    "budget_exhausted": (AdvfEngine, {"max_injections": 5}),
    "one_sample": (
        AdvfEngine,
        {"equivalence_samples": 1, "injection_samples_per_class": 1},
    ),
    "legacy_pipeline": (_legacy_engine, {}),
    "rerun_injection": (_rerun_engine, {}),
}


def _engine(name, build=AdvfEngine, **config_kwargs):
    workload = get_workload(name, **SMALL_KWARGS.get(name, {}))
    return build(workload, AnalysisConfig(**config_kwargs))


def _assert_matches_oracle(name, build=AdvfEngine, **config_kwargs):
    planned = _engine(name, build, **config_kwargs).analyze()
    oracle = _engine(name, build, **config_kwargs)
    assert list(planned.objects) == list(oracle.workload.target_objects)
    for object_name, report in planned.objects.items():
        expected = sequential_object_report(oracle, object_name)
        assert report.to_dict() == expected.to_dict(), (
            f"plan diverged from the sequential oracle on {name}.{object_name}"
        )


def _counter_total(name):
    return sum(
        entry["value"]
        for entry in registry().to_dict()["counters"]
        if entry["name"] == name
    )


class TestBitIdentity:
    @pytest.mark.parametrize("name", workload_names())
    def test_default_config_matches_oracle(self, name):
        _assert_matches_oracle(name)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", ["matmul", "cg"])
    def test_config_matches_oracle(self, name, config):
        build, overrides = CONFIGS[config]
        _assert_matches_oracle(name, build, **overrides)

    def test_exhausted_budget_falls_back(self):
        """The ``max_injections`` leg really exercises the fallback."""
        report = _engine("cg", max_injections=5).analyze()
        assert all(r.injections <= 5 for r in report.objects.values())
        assert any(r.injections == 5 for r in report.objects.values())


class TestBatching:
    @pytest.mark.parametrize("mode", ["replay", "rerun"])
    def test_one_inject_many_call_per_injecting_object(self, monkeypatch, mode):
        injector, build = {
            "replay": (DeterministicFaultInjector, AdvfEngine),
            "rerun": (RerunInjector, _rerun_engine),
        }[mode]
        batches = []
        original = injector.inject_many

        def counting(self, specs):
            batches.append(len(specs))
            return original(self, specs)

        monkeypatch.setattr(injector, "inject_many", counting)
        engine = _engine("cg", build)
        report = engine.analyze()
        injected = [r.injections for r in report.objects.values() if r.injections]
        assert injected, "cg resolves some sites by injection"
        assert batches == injected
        assert engine.speculation_stats == {
            "speculated": sum(injected),
            "spec_windows": len(injected),
        }

    def test_no_injection_no_batch(self):
        engine = _engine("matmul", use_injection=False)
        report = engine.analyze()
        assert all(r.injections == 0 for r in report.objects.values())
        assert engine.speculation_stats == {}
        assert "injection" not in engine.pass_timings


class TestTelemetry:
    def test_registry_counters_match_engine_stats(self):
        engine = _engine("cg")
        engine.analyze()
        stats = engine.speculation_stats
        assert stats["speculated"] > 0
        assert _counter_total("advf.speculated") == stats["speculated"]
        assert _counter_total("advf.speculation_windows") == stats["spec_windows"]
        assert "spec_discards" not in stats

    def test_injector_folds_batches_into_batch_stats(self):
        """The injector's delta carries the replay scheduler's counters
        only: every planned injection replayed as one fault, at least one
        replay batch per ``inject_many`` window, and no aDVF speculation
        telemetry."""
        engine = _engine("cg")
        engine.analyze()
        delta = engine._injector.consume_batch_stats()
        assert delta["faults"] == engine.speculation_stats["speculated"]
        assert delta["batches"] >= engine.speculation_stats["spec_windows"]
        assert not {"speculated", "spec_windows", "spec_discards"} & set(delta)
        # consumed: the next delta starts from zero again
        follow_up = engine._injector.consume_batch_stats()
        assert follow_up.get("faults", 0) == 0
