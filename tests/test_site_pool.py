"""The lazy fault-site pool draws the same specs as the eager site list.

:func:`repro.core.sites.enumerate_fault_sites` returns a
:class:`~repro.core.sites.FaultSitePool` that builds a site only when it is
indexed or iterated.  Every plan, the adaptive batches and the random
fault injector must select exactly what they selected from the full
``List[FaultSite]`` of :mod:`oracles.site_list`: same length, same sites in
the same order, same specs — on every registry workload, target object,
bit stride and participation cap.
"""

from __future__ import annotations

import pytest

import repro.core.rfi as rfi_module
from oracles.site_list import enumerate_fault_sites as eager_sites
from repro.campaigns.plans import (
    AdaptivePlan,
    ExhaustivePlan,
    FixedRandomPlan,
    SamplingPlan,
    StratifiedPlan,
    ValidationPlan,
)
from repro.core.acceptance import OutcomeClass
from repro.core.injector import FaultInjectionResult
from repro.core.rfi import RandomFaultInjection
from repro.core.sites import FaultSitePool, enumerate_fault_sites
from repro.workloads.registry import workload_names

from test_passes_parity import _small

ALL_WORKLOADS = workload_names()

#: (bit_stride, max_participations) pairs swept per object.
POOL_SHAPES = [(1, None), (3, None), (1, 5), (3, 5)]


@pytest.fixture(scope="module")
def traced():
    """(workload, golden trace) per registry workload at reduced size."""
    out = {}
    for name in ALL_WORKLOADS:
        workload = _small(name)
        out[name] = (workload, workload.traced_run().trace)
    return out


def _cases(traced, name):
    workload, trace = traced[name]
    for object_name in workload.target_objects:
        for bit_stride, cap in POOL_SHAPES:
            yield workload, trace, object_name, bit_stride, cap


def _plans(bit_stride, cap):
    common = dict(bit_stride=bit_stride, max_participations=cap)
    return [
        ExhaustivePlan(**common),
        FixedRandomPlan(tests=40, seed=3, **common),
        StratifiedPlan(per_stratum=6, intervals=3, seed=3, **common),
        ValidationPlan(tests=17, **common),
        ValidationPlan(tests=None, **common),
    ]


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_pool_matches_the_eager_list(traced, name):
    for _, trace, object_name, bit_stride, cap in _cases(traced, name):
        pool = enumerate_fault_sites(trace, object_name, bit_stride, cap)
        expected = eager_sites(trace, object_name, bit_stride, cap)
        assert isinstance(pool, FaultSitePool)
        assert len(pool) == len(expected) > 0
        assert list(pool) == expected
        assert [pool[i] for i in range(len(pool))] == expected
        assert [pool[-i] for i in range(1, len(pool) + 1)] == expected[::-1]
        assert pool[1::7] == expected[1::7]
        assert pool == expected
        for out_of_range in (len(pool), -len(pool) - 1):
            with pytest.raises(IndexError):
                pool[out_of_range]


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_plans_select_the_same_specs(traced, name, monkeypatch):
    cases = list(_cases(traced, name))
    lazy = [
        plan.specs_for(trace, object_name)
        for _, trace, object_name, bit_stride, cap in cases
        for plan in _plans(bit_stride, cap)
    ]
    monkeypatch.setattr(
        SamplingPlan,
        "site_pool",
        lambda self, trace, object_name: eager_sites(
            trace, object_name, self.bit_stride, self.max_participations
        ),
    )
    eager = [
        plan.specs_for(trace, object_name)
        for _, trace, object_name, bit_stride, cap in cases
        for plan in _plans(bit_stride, cap)
    ]
    assert lazy == eager


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_adaptive_batches_match(traced, name):
    for _, trace, object_name, bit_stride, cap in _cases(traced, name):
        plan = AdaptivePlan(
            batch_size=16, seed=4, bit_stride=bit_stride, max_participations=cap
        )
        pool = plan.site_pool(trace, object_name)
        expected = eager_sites(trace, object_name, bit_stride, cap)
        for batch in range(3):
            assert plan.batch_specs(pool, object_name, batch) == plan.batch_specs(
                expected, object_name, batch
            )


class _RecordingInjector:
    """Stands in for the injector: records the sampled specs, injects none."""

    def __init__(self) -> None:
        self.specs = []

    def inject_many(self, specs):
        self.specs.extend(specs)
        return [FaultInjectionResult(spec, OutcomeClass.IDENTICAL) for spec in specs]


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_random_fault_injection_samples_match(traced, name, monkeypatch):
    workload, trace = traced[name]

    def sample(cap):
        recorder = _RecordingInjector()
        rfi = RandomFaultInjection(
            workload, seed=11, max_participations=cap, injector=recorder
        )
        for object_name in workload.target_objects:
            rfi.run(trace, object_name, tests=25)
        return recorder.specs

    lazy = [sample(cap) for cap in (None, 5)]
    monkeypatch.setattr(rfi_module, "enumerate_fault_sites", eager_sites)
    assert lazy == [sample(cap) for cap in (None, 5)]
