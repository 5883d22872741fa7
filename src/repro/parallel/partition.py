"""Deterministic work partitioning helpers for parallel campaigns."""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")


def chunk_evenly(items: Sequence[T], chunks: int) -> List[List[T]]:
    """Split ``items`` into ``chunks`` contiguous pieces of near-equal size.

    The first ``len(items) % chunks`` pieces get one extra element, matching
    the usual block distribution of an MPI scatter.  Empty chunks are
    returned when there are more chunks than items so callers can map the
    result one-to-one onto workers.
    """
    if chunks <= 0:
        raise ValueError("chunks must be positive")
    n = len(items)
    base, extra = divmod(n, chunks)
    out: List[List[T]] = []
    start = 0
    for worker in range(chunks):
        size = base + (1 if worker < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out

