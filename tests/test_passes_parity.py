"""Parity oracle: the vectorized columnar pipeline vs the legacy scans.

The acceptance bar of the columnar refactor is *bit identity*: the
vectorized participation pass, the bulk operation-level passes and the
tail-accelerated aDVF aggregation must reproduce the legacy per-event
pipeline exactly — same participation lists, same ``MaskingVerdict`` per
(participation, pattern), and byte-identical aDVF numbers (value,
per-level and per-category breakdowns, the Figs. 4–5 tables) on every
registered workload.
"""

from __future__ import annotations

import pytest

import repro.tracing.columnar as columnar_module
from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.masking import OperationMaskingAnalyzer
from repro.core.participation import find_participations
from repro.core.passes import OperationPasses
from repro.core.patterns import SingleBitModel
from repro.core.replay import ReplayContext
from repro.core.sites import enumerate_fault_sites
from repro.tracing import ColumnarTrace
from repro.workloads.registry import get_workload, workload_names

#: Reduced problem sizes so the all-workload parity sweep stays fast.
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

ALL_WORKLOADS = workload_names()


def _small(name):
    return get_workload(name, **SMALL_KWARGS.get(name, {}))


@pytest.fixture(scope="module")
def traced():
    """(workload, legacy Trace, ColumnarTrace) per registered workload."""
    out = {}
    for name in ALL_WORKLOADS:
        workload = _small(name)
        out[name] = (
            workload,
            workload.traced_run().trace,
            workload.traced_run(columnar=True).trace,
        )
    return out


# --------------------------------------------------------------------- #
# participation / site parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_participations_match_verbatim(traced, name):
    workload, legacy, columnar = traced[name]
    for object_name in workload.target_objects:
        scan = find_participations(legacy, object_name)
        vectorized = find_participations(columnar, object_name)
        assert scan == vectorized
        # subsampling applies the same stride to both implementations
        assert find_participations(legacy, object_name, max_participations=23) == (
            find_participations(columnar, object_name, max_participations=23)
        )


@pytest.mark.parametrize("name", ["matmul", "cg"])
def test_fault_sites_match(traced, name):
    workload, legacy, columnar = traced[name]
    for object_name in workload.target_objects:
        assert enumerate_fault_sites(legacy, object_name, bit_stride=7) == (
            enumerate_fault_sites(columnar, object_name, bit_stride=7)
        )


# --------------------------------------------------------------------- #
# operation-level verdict parity (bulk passes vs the legacy analyzer)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_masking_verdicts_match_verdict_for_verdict(traced, name):
    workload, legacy, columnar = traced[name]
    oracle = OperationMaskingAnalyzer(legacy)
    passes = OperationPasses(columnar, OperationMaskingAnalyzer(columnar))
    model = SingleBitModel(bit_stride=5)
    for object_name in workload.target_objects:
        participations = find_participations(
            legacy, object_name, max_participations=60
        )
        passes.prepare(participations)
        for participation in participations:
            for pattern in model.patterns_for(participation.value_type):
                expected = oracle.analyze(participation, pattern)
                assert passes.verdict(participation, pattern) == expected, (
                    name, object_name, participation, pattern
                )


# --------------------------------------------------------------------- #
# end-to-end aDVF bit identity
# --------------------------------------------------------------------- #
def _advf(workload, pipeline, **overrides):
    """aDVF reports on the vectorized passes (``"columnar"``, the engine's
    own golden trace) or the per-event path (``"legacy"``, a full
    ``Trace``, which skips the passes)."""
    trace = workload.traced_run().trace if pipeline == "legacy" else None
    return AdvfEngine(workload, AnalysisConfig(**overrides), trace=trace).analyze()


def _assert_reports_identical(a, b):
    assert a.objects.keys() == b.objects.keys()
    for object_name in a.objects:
        assert a.objects[object_name].to_dict() == b.objects[object_name].to_dict()


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_advf_bit_identical_across_pipelines(name):
    """Figs. 4–5 numbers (values + breakdowns) match to the last bit."""
    legacy = _advf(_small(name), "legacy", use_injection=False)
    columnar = _advf(_small(name), "columnar", use_injection=False)
    _assert_reports_identical(legacy, columnar)


@pytest.mark.parametrize("name", ["matmul", "cg"])
def test_advf_bit_identical_with_injection(name):
    legacy = _advf(
        _small(name), "legacy", max_injections=40,
        error_model=SingleBitModel(bit_stride=8),
    )
    columnar = _advf(
        _small(name), "columnar", max_injections=40,
        error_model=SingleBitModel(bit_stride=8),
    )
    _assert_reports_identical(legacy, columnar)


def test_advf_bit_identical_in_pure_python_fallback(monkeypatch):
    monkeypatch.setattr(columnar_module, "_np", None)
    legacy = _advf(_small("matmul"), "legacy", use_injection=False)
    fallback = _advf(_small("matmul"), "columnar", use_injection=False)
    _assert_reports_identical(legacy, fallback)


# --------------------------------------------------------------------- #
# shared golden run: replay-context sink == dedicated traced run
# --------------------------------------------------------------------- #
def test_replay_context_sink_records_the_golden_trace():
    workload = _small("matmul")
    sink = ColumnarTrace()
    context = ReplayContext(workload, sink=sink)
    assert context.golden_trace is sink
    reference = workload.traced_run().trace
    assert len(sink) == len(reference)
    fields = ("opcode", "operand_values", "result_value", "address",
              "object_name", "element_index", "static_uid")
    for a, b in zip(reference, sink):
        for field in fields:
            assert getattr(a, field) == getattr(b, field), (a.dynamic_id, field)
