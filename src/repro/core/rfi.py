"""Traditional random fault injection (§V-C baseline).

RFI randomly picks valid fault sites of a data object, injects a single-bit
flip per test, and reports the success rate with a binomial margin of error.
The paper uses it to show that (a) the result is sensitive to the number of
tests and (b) the ranking of data objects flips between sample sizes — while
aDVF is deterministic.  ``required_sample_size`` implements the
statistical-fault-injection sizing of Leveugle et al. [26] used to choose
the number of tests at a given confidence level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.acceptance import OutcomeClass
from repro.core.injector import DeterministicFaultInjector
from repro.core.sites import FaultSite, enumerate_fault_sites
from repro.tracing.columnar import ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.workloads.base import Workload


def _z(confidence: float) -> float:
    """Two-sided z-score for a confidence level.

    Delegates to :func:`repro.campaigns.stats.z_for_confidence` — the one
    canonical z-table — via a deferred import so ``repro.core`` does not
    pull the campaigns package in at import time.
    """
    from repro.campaigns.stats import z_for_confidence

    return z_for_confidence(confidence)


def required_sample_size(
    population: int, confidence: float = 0.95, error_margin: float = 0.05, p: float = 0.5
) -> int:
    """Number of fault-injection tests for the given statistical guarantees.

    Implements the finite-population sample-size formula of statistical
    fault injection (Leveugle et al., DATE 2009):

    ``n = N / (1 + e^2 (N-1) / (z^2 p (1-p)))``
    """
    if population <= 0:
        return 0
    z = _z(confidence)
    numerator = population
    denominator = 1.0 + (error_margin**2) * (population - 1) / (z**2 * p * (1.0 - p))
    return max(1, int(math.ceil(numerator / denominator)))


@dataclass
class RFIResult:
    """Aggregate of one random fault-injection campaign."""

    object_name: str
    tests: int
    successes: int
    outcomes: Dict[OutcomeClass, int] = field(default_factory=dict)
    confidence: float = 0.95
    seed: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.tests if self.tests else 0.0

    @property
    def margin_of_error(self) -> float:
        """Binomial margin of error at :attr:`confidence`."""
        if self.tests == 0:
            return 0.0
        z = _z(self.confidence)
        p = self.success_rate
        return z * math.sqrt(max(p * (1.0 - p), 1e-12) / self.tests)

    def interval(self) -> tuple:
        return (
            max(0.0, self.success_rate - self.margin_of_error),
            min(1.0, self.success_rate + self.margin_of_error),
        )


class RandomFaultInjection:
    """Random single-bit fault injection over a data object's fault space."""

    def __init__(
        self,
        workload: Workload,
        seed: int = 0,
        max_participations: Optional[int] = None,
        injector: Optional[DeterministicFaultInjector] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.max_participations = max_participations
        #: All sampled tests replay from the shared checkpoint schedule; the
        #: golden run is executed once per campaign object, not per test.
        self.injector = injector or DeterministicFaultInjector(workload)

    def run(
        self,
        trace: ColumnarTrace,
        object_name: str,
        tests: int,
        confidence: float = 0.95,
        seed: Optional[int] = None,
    ) -> RFIResult:
        """Inject ``tests`` randomly chosen single-bit faults."""
        if tests <= 0:
            raise ValueError("the number of fault injection tests must be positive")
        sites = enumerate_fault_sites(
            trace, object_name, max_participations=self.max_participations
        )
        if not sites:
            raise ValueError(f"{object_name} has no valid fault sites in this trace")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        chosen_indices = rng.integers(0, len(sites), size=tests)
        chosen: List[FaultSite] = [sites[int(index)] for index in chosen_indices]
        outcomes: Dict[OutcomeClass, int] = {}
        successes = 0
        # all sampled tests go through the batch scheduler in one submission
        for result in self.injector.inject_many([s.to_spec() for s in chosen]):
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            if result.outcome.is_success:
                successes += 1
        return RFIResult(
            object_name=object_name,
            tests=tests,
            successes=successes,
            outcomes=outcomes,
            confidence=confidence,
            seed=self.seed if seed is None else seed,
        )

    def sweep(
        self,
        trace: ColumnarTrace,
        object_name: str,
        test_counts: Sequence[int],
        confidence: float = 0.95,
    ) -> List[RFIResult]:
        """One campaign per entry of ``test_counts`` (the paper's 500…3500 sweep).

        Each campaign uses a different derived seed, as independent RFI
        experiments would.
        """
        return [
            self.run(trace, object_name, tests, confidence, seed=self.seed + i)
            for i, tests in enumerate(test_counts)
        ]
