"""Enumeration of valid fault-injection sites for a data object (§V-B).

A *valid fault injection site* is "a bit in an instruction operand or output
that has a value of the target data object".  From a dynamic trace this is
exactly the participation list of the object (consumed operands plus store
destinations), crossed with the bit positions of the element type.  Both the
exhaustive validator and the random fault injector draw their sites from
here so the two campaigns and the aDVF model share one definition of the
fault space.

A campaign usually draws a few hundred sites out of tens of thousands, so
the enumeration returns a :class:`FaultSitePool`: a read-only sequence that
holds the participations and builds a :class:`FaultSite` only when one is
indexed or iterated.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.participation import Participation, ParticipationRole, find_participations
from repro.tracing.columnar import ColumnarTrace
from repro.vm.faults import FaultSpec, FaultTarget


@dataclass(frozen=True)
class FaultSite:
    """One valid fault site: a participation crossed with a bit position."""

    participation: Participation
    bit: int

    def to_spec(self) -> FaultSpec:
        """Translate the site into the VM's fault vocabulary."""
        p = self.participation
        if p.role is ParticipationRole.STORE_DEST:
            return FaultSpec(
                dynamic_id=p.event_id,
                bit=self.bit,
                target=FaultTarget.STORE_DEST_OLD,
                note="store destination old value",
            )
        return FaultSpec(
            dynamic_id=p.event_id,
            bit=self.bit,
            target=FaultTarget.OPERAND,
            operand_index=p.operand_index,
            note="consumed operand",
        )


class FaultSitePool(Sequence[FaultSite]):
    """The fault sites of a participation list, in canonical order.

    Site ``i`` is participation ``k`` crossed with bit ``j * bit_stride``,
    where ``k`` is found by bisecting the cumulative per-participation bit
    counts.  ``len()`` is O(1), indexing builds one site, iteration yields
    every site in order, and a pool equals any list or tuple holding the
    same sites.
    """

    __slots__ = ("participations", "bit_stride", "_starts")

    def __init__(self, participations: List[Participation], bit_stride: int = 1) -> None:
        if bit_stride < 1:
            raise ValueError("bit_stride must be >= 1")
        self.participations = participations
        self.bit_stride = bit_stride
        #: ``_starts[k]`` is the index of participation ``k``'s first site;
        #: the last entry is the pool size.
        starts = [0]
        total = 0
        for participation in participations:
            total += -(-participation.value_type.bits // bit_stride)
            starts.append(total)
        self._starts = starts

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index: Union[int, slice]) -> Union[FaultSite, List[FaultSite]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("fault site index out of range")
        k = bisect_right(self._starts, index) - 1
        return FaultSite(
            self.participations[k], (index - self._starts[k]) * self.bit_stride
        )

    def __iter__(self) -> Iterator[FaultSite]:
        stride = self.bit_stride
        for participation in self.participations:
            for bit in range(0, participation.value_type.bits, stride):
                yield FaultSite(participation, bit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FaultSitePool, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


def enumerate_fault_sites(
    trace: ColumnarTrace,
    object_name: str,
    bit_stride: int = 1,
    max_participations: Optional[int] = None,
) -> FaultSitePool:
    """All valid fault sites of ``object_name`` in ``trace``.

    ``bit_stride`` subsamples bit positions evenly; ``max_participations``
    subsamples dynamic occurrences evenly.  Both keep campaigns tractable
    while sampling the same space the paper defines.
    """
    participations = find_participations(
        trace, object_name, max_participations=max_participations
    )
    return FaultSitePool(participations, bit_stride)


def strided_subsample(
    sites: Sequence[FaultSite], limit: Optional[int]
) -> Sequence[FaultSite]:
    """``limit`` sites taken at an even stride through ``sites`` (all of
    them when ``limit`` is ``None`` or not below the pool size).

    The deterministic subsample of exhaustive campaigns and validation
    plans: site ``i`` of the result is ``sites[int(i * len(sites) / limit)]``.
    """
    total = len(sites)
    if limit is None or total <= limit:
        return sites
    stride = total / limit
    return [sites[int(i * stride)] for i in range(limit)]


def iter_site_specs(sites: Iterable[FaultSite]) -> Iterator[FaultSpec]:
    """Convenience: the :class:`FaultSpec` of every site, in order."""
    for site in sites:
        yield site.to_spec()
