"""Eager reference for :func:`repro.core.sites.enumerate_fault_sites`.

The production function returns a lazily indexed
:class:`~repro.core.sites.FaultSitePool` that builds one site per access.
This oracle is the list it replaced: one :class:`FaultSite` per
participation and bit, built up front, in the same order.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.participation import find_participations
from repro.core.sites import FaultSite
from repro.tracing.columnar import ColumnarTrace


def enumerate_fault_sites(
    trace: ColumnarTrace,
    object_name: str,
    bit_stride: int = 1,
    max_participations: Optional[int] = None,
) -> List[FaultSite]:
    """Every valid fault site of ``object_name``, as one list."""
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
