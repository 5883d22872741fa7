"""E-K — §III-D ablation: bounding the error-propagation path length.

The paper justifies k = 50 with the observation that errors not masked
within the first k operations after the fault almost never get masked later
(87 % decided at k = 10, 100 % at k = 50).  This ablation measures, for a
sample of fault sites that are *not* masked at the operation level, how the
propagation verdict at several values of k compares with the ground-truth
outcome of deterministic injection.
"""

from conftest import print_header

from repro.core.injector import DeterministicFaultInjector
from repro.core.masking import OperationMaskingAnalyzer
from repro.core.participation import ParticipationRole, find_participations
from repro.core.patterns import ErrorPattern
from repro.core.propagation import PropagationAnalyzer
from repro.core.sites import FaultSite
from repro.reporting.tables import format_table
from repro.workloads.registry import get_workload

K_VALUES = [5, 10, 20, 50]
SAMPLE_BITS = [2, 30, 52, 62]
MAX_SITES = 40


def _collect(workload_name, object_name):
    workload = get_workload(workload_name)
    trace = workload.traced_run().trace
    masking = OperationMaskingAnalyzer(trace)
    injector = DeterministicFaultInjector(workload)
    participations = [
        p
        for p in find_participations(trace, object_name)
        if p.role is ParticipationRole.CONSUMED
    ]
    analyzers = {
        k: PropagationAnalyzer(
            trace, k=k, output_objects=set(workload.output_objects)
        )
        for k in K_VALUES
    }
    specs, verdicts = [], []
    for participation in participations:
        for bit in SAMPLE_BITS:
            if len(specs) >= MAX_SITES:
                break
            pattern = ErrorPattern((bit,))
            verdict = masking.analyze(participation, pattern)
            if verdict.masked is not None and not verdict.needs_propagation:
                continue
            specs.append(FaultSite(participation, bit).to_spec())
            verdicts.append({
                k: analyzer.analyze(participation, pattern, verdict.corrupted_result)
                for k, analyzer in analyzers.items()
            })
    outcomes = injector.inject_many(specs)
    return [
        (outcome.outcome.is_success, per_k)
        for outcome, per_k in zip(outcomes, verdicts)
    ]


def _run():
    rows = []
    rows.extend(_collect("lu", "rsd"))
    rows.extend(_collect("lulesh", "m_delv_zeta"))
    return rows


def test_kbound_ablation(once):
    samples = once(_run)
    print_header("§III-D ablation: propagation bound k vs deterministic injection")
    table = []
    for k in K_VALUES:
        undecided = [s for s in samples if s[1][k].masked is not True]
        if undecided:
            incorrect = sum(1 for success, _ in undecided if not success)
            rate = incorrect / len(undecided)
        else:
            rate = float("nan")
        decided_masked = [s for s in samples if s[1][k].masked is True]
        correct_decided = sum(1 for success, _ in decided_masked if success)
        table.append(
            [
                k,
                len(samples),
                len(undecided),
                f"{100 * rate:.0f}%" if undecided else "n/a",
                f"{correct_decided}/{len(decided_masked)}",
            ]
        )
    print(
        format_table(
            [
                "k",
                "sampled sites",
                "not masked within k",
                "of those: incorrect outcome",
                "masked-within-k confirmed correct",
            ],
            table,
        )
    )
    print(
        "\npaper observation: 87% at k=10 and 100% at k=50 of the injections not\n"
        "masked within k lead to numerically incorrect outcomes."
    )
