"""Enumeration of valid fault-injection sites for a data object (§V-B).

A *valid fault injection site* is "a bit in an instruction operand or output
that has a value of the target data object".  From a dynamic trace this is
exactly the participation list of the object (consumed operands plus store
destinations), crossed with the bit positions of the element type.  Both the
exhaustive validator and the random fault injector draw their sites from
here so the two campaigns and the aDVF model share one definition of the
fault space.  Any trace-like source works; columnar traces get the
vectorized participation pass automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

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


def enumerate_fault_sites(
    trace: ColumnarTrace,
    object_name: str,
    bit_stride: int = 1,
    max_participations: Optional[int] = None,
) -> List[FaultSite]:
    """All valid fault sites of ``object_name`` in ``trace``.

    ``bit_stride`` subsamples bit positions evenly; ``max_participations``
    subsamples dynamic occurrences evenly.  Both keep campaigns tractable
    while sampling the same space the paper defines.
    """
    if bit_stride < 1:
        raise ValueError("bit_stride must be >= 1")
    participations = find_participations(
        trace, object_name, max_participations=max_participations
    )
    sites: List[FaultSite] = []
    for participation in participations:
        width = participation.value_type.bits
        for bit in range(0, width, bit_stride):
            sites.append(FaultSite(participation, bit))
    return sites


def iter_site_specs(sites: List[FaultSite]) -> Iterator[FaultSpec]:
    """Convenience: the :class:`FaultSpec` of every site, in order."""
    for site in sites:
        yield site.to_spec()
