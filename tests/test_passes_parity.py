"""Parity oracle: the vectorized columnar pipeline vs the per-event one.

The acceptance bar of the columnar pipeline is *bit identity*: the
vectorized participation pass, the column-backed read-modify-write walk of
``OperationMaskingAnalyzer`` and the tail-accelerated aDVF aggregation must
reproduce the per-event reading exactly — same participation lists as the
scan of :mod:`oracles.participation_scan`, same read-modify-write flag per
store as the event-object walk of :mod:`oracles.rmw_walk`, and
byte-identical aDVF numbers (value, per-level and per-category breakdowns,
the Figs. 4–5 tables) on every registered workload.
"""

from __future__ import annotations

import pytest

from oracles.advf_sequential import PerEventEngine
from oracles.participation_scan import scan_participations
from oracles.rmw_walk import is_read_modify_write
from repro.core.advf import AdvfEngine, AnalysisConfig
from repro.core.masking import MaskingCategory, OperationMaskingAnalyzer
from repro.core.participation import ParticipationRole, find_participations
from repro.core.patterns import ErrorPattern, SingleBitModel
from repro.core.replay import ReplayContext
from repro.core.sites import FaultSite, enumerate_fault_sites
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
    """(workload, golden ColumnarTrace) per registered workload."""
    out = {}
    for name in ALL_WORKLOADS:
        workload = _small(name)
        out[name] = (workload, workload.traced_run().trace)
    return out


# --------------------------------------------------------------------- #
# participation / site parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_participations_match_verbatim(traced, name):
    workload, trace = traced[name]
    for object_name in workload.target_objects:
        assert find_participations(trace, object_name) == (
            scan_participations(trace, object_name)
        )
        # subsampling applies the same stride to both implementations
        assert find_participations(trace, object_name, max_participations=23) == (
            scan_participations(trace, object_name, max_participations=23)
        )


@pytest.mark.parametrize("name", ["matmul", "cg"])
def test_fault_sites_match(traced, name):
    workload, trace = traced[name]
    for object_name in workload.target_objects:
        expected = [
            FaultSite(participation, bit)
            for participation in scan_participations(trace, object_name)
            for bit in range(0, participation.value_type.bits, 7)
        ]
        assert enumerate_fault_sites(trace, object_name, bit_stride=7) == expected


# --------------------------------------------------------------------- #
# store-destination verdict parity (column walk vs event-object walk)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_masking_verdicts_match_verdict_for_verdict(traced, name):
    """Every store destination of every data object: the analyzer's
    column walk gives the event walk's read-modify-write flag, and its
    verdict is the one that flag implies."""
    _, trace = traced[name]
    analyzer = OperationMaskingAnalyzer(trace)
    pattern = ErrorPattern((0,))
    stores = 0
    for object_name in trace.columns().object_index:
        for participation in find_participations(trace, object_name):
            if participation.role is not ParticipationRole.STORE_DEST:
                continue
            stores += 1
            rmw = is_read_modify_write(trace, trace[participation.event_id])
            assert analyzer._rmw_walk(participation.event_id) is rmw, (
                name, object_name, participation
            )
            verdict = analyzer.analyze(participation, pattern)
            assert verdict.masked is (not rmw)
            assert verdict.resolved
            assert verdict.category is (
                None if rmw else MaskingCategory.OVERWRITE
            )
    assert stores


# --------------------------------------------------------------------- #
# end-to-end aDVF bit identity
# --------------------------------------------------------------------- #
def _advf(workload, pipeline, **overrides):
    """aDVF reports on the vectorized participation pass (``"columnar"``)
    or on the per-event participation scan (``"per-event"``)."""
    build = PerEventEngine if pipeline == "per-event" else AdvfEngine
    return build(workload, AnalysisConfig(**overrides)).analyze()


def _assert_reports_identical(a, b):
    assert a.objects.keys() == b.objects.keys()
    for object_name in a.objects:
        assert a.objects[object_name].to_dict() == b.objects[object_name].to_dict()


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_advf_bit_identical_across_pipelines(name):
    """Figs. 4–5 numbers (values + breakdowns) match to the last bit."""
    per_event = _advf(_small(name), "per-event", use_injection=False)
    columnar = _advf(_small(name), "columnar", use_injection=False)
    _assert_reports_identical(per_event, columnar)


@pytest.mark.parametrize("name", ["matmul", "cg"])
def test_advf_bit_identical_with_injection(name):
    per_event = _advf(
        _small(name), "per-event", max_injections=40,
        error_model=SingleBitModel(bit_stride=8),
    )
    columnar = _advf(
        _small(name), "columnar", max_injections=40,
        error_model=SingleBitModel(bit_stride=8),
    )
    _assert_reports_identical(per_event, columnar)


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
