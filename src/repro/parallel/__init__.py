"""Parallel campaign execution.

The paper runs its aDVF calculations and fault-injection campaigns on a
256-core cluster; this package provides the laptop-scale equivalent: a
multiprocessing pool that fans out independent fault injections (or whole
per-object aDVF analyses) across local cores with deterministic work
splitting, so results are identical to the sequential path.

Public API
----------
:class:`~repro.parallel.campaign.CampaignRunner`,
:func:`~repro.parallel.campaign.run_injections_parallel`,
:func:`~repro.parallel.campaign.analyze_objects_parallel`,
:func:`~repro.parallel.partition.chunk_evenly`,
:func:`~repro.parallel.partition.interleave`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "campaign": (
            "CampaignChunkError",
            "CampaignRunner",
            "analyze_objects_parallel",
            "run_injections_parallel",
        ),
        "partition": ("chunk_evenly", "interleave"),
    },
)
