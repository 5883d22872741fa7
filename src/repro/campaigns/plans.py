"""First-class sampling plans for fault-injection campaigns.

A *plan* describes which fault sites of a workload's data objects a
campaign injects, independently of how the work is executed or stored.
Plans are value objects: they serialise to plain dictionaries (so a
campaign's identity can be content-addressed from workload + plan) and
every selection they make is a pure function of the plan's parameters and
the deterministic golden trace — two runs of the same plan, on the same
workload, issue the same injections in the same order.  That determinism
is what lets :class:`~repro.campaigns.orchestrator.CampaignOrchestrator`
resume an interrupted campaign by replaying the plan and skipping shards
already persisted in the store.

Four plan families are provided:

* :class:`ExhaustivePlan` — every valid fault site (§V-B's validator);
* :class:`FixedRandomPlan` — a fixed number of uniform random sites per
  object (classical statistical fault injection);
* :class:`StratifiedPlan` — uniform sampling within dynamic-time strata,
  so early/mid/late participations of each object are all covered;
* :class:`AdaptivePlan` — keeps drawing random batches until the Wilson
  confidence interval on the observed masking rate is narrower than a
  target half-width (convergence-driven sizing instead of fixed counts).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sites import FaultSite, FaultSitePool, enumerate_fault_sites
from repro.campaigns.stats import wilson_half_width, z_for_confidence
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec


def _stable_hash(text: str) -> int:
    """Process-independent 32-bit hash (``hash()`` is salted per process)."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class SamplingPlan(ABC):
    """Base class of all campaign sampling plans.

    ``objects=None`` means "the workload's declared target objects";
    ``bit_stride``/``max_participations`` subsample the fault-site space
    exactly as :func:`~repro.core.sites.enumerate_fault_sites` does, so all
    plans draw from the same fault-space definition as the paper.
    """

    objects: Optional[Tuple[str, ...]] = None
    bit_stride: int = 1
    max_participations: Optional[int] = None

    #: Registry key; overridden per subclass.
    kind = "abstract"
    #: True when the number of injections is decided while running.
    adaptive = False

    def objects_for(self, workload) -> List[str]:
        """The data objects this plan targets on ``workload``."""
        if self.objects is not None:
            return list(self.objects)
        return list(workload.target_objects)

    def site_pool(self, trace: ColumnarTrace, object_name: str) -> FaultSitePool:
        """The valid fault sites the plan selects from, in canonical order.

        Plans that draw by index build only the sites they draw.
        """
        return enumerate_fault_sites(
            trace,
            object_name,
            bit_stride=self.bit_stride,
            max_participations=self.max_participations,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used for campaign identity)."""
        payload = asdict(self)
        if payload.get("objects") is not None:
            payload["objects"] = list(payload["objects"])
        payload["kind"] = self.kind
        return payload

    @abstractmethod
    def describe(self) -> str:
        """Human-readable one-liner for status output."""


class StaticPlan(SamplingPlan):
    """A plan whose complete spec list is known before the campaign starts."""

    @abstractmethod
    def specs_for(self, trace: ColumnarTrace, object_name: str) -> List[FaultSpec]:
        """All fault specs of ``object_name``, in deterministic order."""


@dataclass(frozen=True)
class ExhaustivePlan(StaticPlan):
    """Every valid fault site of every target object."""

    kind = "exhaustive"

    def specs_for(self, trace: ColumnarTrace, object_name: str) -> List[FaultSpec]:
        return [site.to_spec() for site in self.site_pool(trace, object_name)]

    def describe(self) -> str:
        return f"exhaustive (bit_stride={self.bit_stride})"


@dataclass(frozen=True)
class FixedRandomPlan(StaticPlan):
    """``tests`` uniform random fault sites per object (with replacement)."""

    tests: int = 100
    seed: int = 0

    kind = "fixed"

    def specs_for(self, trace: ColumnarTrace, object_name: str) -> List[FaultSpec]:
        if self.tests <= 0:
            raise ValueError("tests must be positive")
        sites = self.site_pool(trace, object_name)
        if not sites:
            raise ValueError(f"{object_name} has no valid fault sites")
        rng = np.random.default_rng([self.seed, _stable_hash(object_name)])
        indices = rng.integers(0, len(sites), size=self.tests)
        return [sites[int(i)].to_spec() for i in indices]

    def describe(self) -> str:
        return f"fixed random, {self.tests} tests/object (seed={self.seed})"


@dataclass(frozen=True)
class StratifiedPlan(StaticPlan):
    """Sampling stratified over dynamic-time intervals of the trace.

    Each object's participations are bucketed into ``intervals`` equal
    spans of dynamic instruction IDs and up to ``per_stratum`` sites are
    drawn (without replacement) from every bucket, so the sample covers
    early, middle and late uses of the object even when its participation
    density is heavily skewed.
    """

    per_stratum: int = 25
    intervals: int = 4
    seed: int = 0

    kind = "stratified"

    def specs_for(self, trace: ColumnarTrace, object_name: str) -> List[FaultSpec]:
        if self.per_stratum <= 0 or self.intervals <= 0:
            raise ValueError("per_stratum and intervals must be positive")
        sites = self.site_pool(trace, object_name)
        if not sites:
            raise ValueError(f"{object_name} has no valid fault sites")
        first = min(site.participation.event_id for site in sites)
        last = max(site.participation.event_id for site in sites)
        span = max(1, (last - first + 1))
        buckets: List[List[FaultSite]] = [[] for _ in range(self.intervals)]
        for site in sites:
            slot = (site.participation.event_id - first) * self.intervals // span
            buckets[min(slot, self.intervals - 1)].append(site)
        specs: List[FaultSpec] = []
        for interval, bucket in enumerate(buckets):
            if not bucket:
                continue
            if len(bucket) <= self.per_stratum:
                chosen = list(range(len(bucket)))
            else:
                rng = np.random.default_rng(
                    [self.seed, _stable_hash(object_name), interval]
                )
                chosen = sorted(
                    int(i)
                    for i in rng.choice(
                        len(bucket), size=self.per_stratum, replace=False
                    )
                )
            specs.extend(bucket[i].to_spec() for i in chosen)
        return specs

    def describe(self) -> str:
        return (
            f"stratified, {self.per_stratum}/stratum x {self.intervals} "
            f"dynamic intervals (seed={self.seed})"
        )


@dataclass(frozen=True)
class ValidationPlan(StaticPlan):
    """Strided-exhaustive subsample used by closed-loop validation.

    Enumerates every valid site at ``bit_stride`` and, when the pool
    exceeds ``tests``, takes an even stride through it — the exact site
    selection the protection validator has always used, lifted into a
    first-class plan so baseline-vs-protected campaigns run through the
    durable orchestrator (content-addressed, sharded, resumable) like any
    other campaign.
    """

    tests: Optional[int] = 40

    kind = "validation"

    def specs_for(self, trace: ColumnarTrace, object_name: str) -> List[FaultSpec]:
        sites = self.site_pool(trace, object_name)
        if self.tests is not None and len(sites) > self.tests:
            stride = len(sites) / self.tests
            sites = [sites[int(i * stride)] for i in range(self.tests)]
        return [site.to_spec() for site in sites]

    def describe(self) -> str:
        bound = "all" if self.tests is None else f"<= {self.tests}"
        return (
            f"validation, strided-exhaustive {bound} tests/object "
            f"(bit_stride={self.bit_stride})"
        )


@dataclass(frozen=True)
class AdaptivePlan(SamplingPlan):
    """Draw RFI batches until the masking-rate CI is tight enough.

    After every persisted batch the orchestrator evaluates the Wilson
    interval of the object's cumulative success (masking) rate; once its
    half-width is at most ``target_half_width`` — or ``max_batches`` have
    been issued — the object is done.  Batch ``b`` of an object is a pure
    function of ``(seed, object, b)``, so resuming a campaign regenerates
    the identical batch sequence and the stop decision replays exactly.
    """

    target_half_width: float = 0.05
    confidence: float = 0.95
    batch_size: int = 32
    max_batches: int = 64
    seed: int = 0

    kind = "adaptive"
    adaptive = True

    def __post_init__(self) -> None:
        if self.target_half_width <= 0 or self.target_half_width >= 1:
            raise ValueError("target_half_width must be in (0, 1)")
        if self.batch_size <= 0 or self.max_batches <= 0:
            raise ValueError("batch_size and max_batches must be positive")
        z_for_confidence(self.confidence)  # validate eagerly

    @property
    def z(self) -> float:
        return z_for_confidence(self.confidence)

    def batch_specs(
        self, sites: Sequence[FaultSite], object_name: str, batch_index: int
    ) -> List[FaultSpec]:
        """Batch ``batch_index`` for ``object_name`` (deterministic)."""
        if not sites:
            raise ValueError(f"{object_name} has no valid fault sites")
        rng = np.random.default_rng(
            [self.seed, _stable_hash(object_name), batch_index]
        )
        indices = rng.integers(0, len(sites), size=self.batch_size)
        return [sites[int(i)].to_spec() for i in indices]

    def satisfied(self, successes: int, trials: int) -> bool:
        """True once the Wilson CI half-width meets the target."""
        if trials <= 0:
            return False
        return wilson_half_width(successes, trials, self.z) <= self.target_half_width

    def describe(self) -> str:
        return (
            f"adaptive, CI half-width <= {self.target_half_width:g} at "
            f"{self.confidence:.0%}, batches of {self.batch_size} "
            f"(max {self.max_batches}, seed={self.seed})"
        )


#: kind -> plan class, for deserialisation and CLI parsing.
PLAN_KINDS: Dict[str, type] = {
    ExhaustivePlan.kind: ExhaustivePlan,
    FixedRandomPlan.kind: FixedRandomPlan,
    StratifiedPlan.kind: StratifiedPlan,
    ValidationPlan.kind: ValidationPlan,
    AdaptivePlan.kind: AdaptivePlan,
}


def plan_from_dict(payload: Dict[str, object]) -> SamplingPlan:
    """Rebuild a plan from :meth:`SamplingPlan.to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    try:
        cls = PLAN_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown plan kind {kind!r}; available: {', '.join(sorted(PLAN_KINDS))}"
        ) from None
    if data.get("objects") is not None:
        data["objects"] = tuple(data["objects"])
    return cls(**data)


def parse_plan(spec: str, objects: Optional[Sequence[str]] = None) -> SamplingPlan:
    """Parse a CLI plan spec into a plan object.

    Grammar (``@SEED`` is optional on the randomised plans; exhaustive
    plans are seedless and reject one)::

        exhaustive[:BIT_STRIDE]
        fixed:TESTS[@SEED]
        stratified:PER_STRATUMxINTERVALS[@SEED]
        adaptive:HALF_WIDTH[xBATCH_SIZE][@SEED]

    Examples: ``fixed:64``, ``fixed:500@7``, ``stratified:8x4``,
    ``adaptive:0.05x32``.
    """
    objects_t = tuple(objects) if objects else None
    kind, _, rest = spec.strip().partition(":")
    seed = 0
    seeded = "@" in rest
    if seeded:
        rest, _, seed_text = rest.rpartition("@")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(f"bad plan seed {seed_text!r} in {spec!r}") from None
    try:
        if kind == "exhaustive":
            if seeded:
                raise ValueError("exhaustive plans take no seed")
            stride = int(rest) if rest else 1
            return ExhaustivePlan(objects=objects_t, bit_stride=stride)
        if kind == "fixed":
            if not rest:
                raise ValueError("fixed plan needs a test count, e.g. fixed:64")
            return FixedRandomPlan(tests=int(rest), seed=seed, objects=objects_t)
        if kind == "stratified":
            per, _, intervals = rest.partition("x")
            return StratifiedPlan(
                per_stratum=int(per),
                intervals=int(intervals) if intervals else 4,
                seed=seed,
                objects=objects_t,
            )
        if kind == "adaptive":
            width, _, batch = rest.partition("x")
            return AdaptivePlan(
                target_half_width=float(width),
                batch_size=int(batch) if batch else 32,
                seed=seed,
                objects=objects_t,
            )
    except ValueError as exc:
        raise ValueError(f"cannot parse plan spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown plan kind {kind!r} in {spec!r}; "
        f"available: {', '.join(sorted(PLAN_KINDS))}"
    )
