"""Parallel campaign execution.

The paper runs its aDVF calculations and fault-injection campaigns on a
256-core cluster; this package provides the laptop-scale equivalent: one
worker pool, :class:`~repro.parallel.campaign.ShardPipeline`, that fans
out whole injection shards or chunks of per-object aDVF analyses across
local cores with deterministic work splitting, so results are identical
to the sequential path.

Public API
----------
:class:`~repro.parallel.campaign.CampaignRunner`,
:class:`~repro.parallel.campaign.CampaignChunkError`,
:func:`~repro.parallel.partition.chunk_evenly`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "campaign": ("CampaignChunkError", "CampaignRunner"),
        "partition": ("chunk_evenly",),
    },
)
