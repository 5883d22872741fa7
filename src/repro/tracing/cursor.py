"""Positioned cursor over any event source (the analyses' read API).

The analyses read events by dynamic id from a trace-like source (supports
``len``, integer indexing by dynamic id, and iteration):
:class:`~repro.tracing.columnar.ColumnarTrace` reconstructs each event from
its columns on demand.  A :class:`TraceCursor` is a seekable reader over such
a source, for the re-execution analysis and the window-scan oracles.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable

from repro.tracing.events import TraceEvent


@runtime_checkable
class TraceLike(Protocol):
    """Anything the analyses can read dynamic events from."""

    def __len__(self) -> int:  # pragma: no cover - protocol
        ...

    def __getitem__(self, dynamic_id: int) -> TraceEvent:  # pragma: no cover
        ...

    def __iter__(self) -> Iterator[TraceEvent]:  # pragma: no cover - protocol
        ...


class TraceCursor:
    """A seekable position in a trace-like event source.

    The cursor is intentionally tiny: ``seek`` to a dynamic id, ``peek`` the
    event there, ``advance`` through events one at a time, or ``take`` a
    bounded window — the access patterns of the re-execution analysis and
    of the window-scan propagation oracle in the tests.
    """

    __slots__ = ("source", "position")

    def __init__(self, source: TraceLike, position: int = 0) -> None:
        self.source = source
        self.position = 0
        self.seek(position)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.source)

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.source)

    def seek(self, dynamic_id: int) -> "TraceCursor":
        """Move to ``dynamic_id`` (chainable)."""
        if dynamic_id < 0:
            raise ValueError("cannot seek to a negative dynamic id")
        self.position = dynamic_id
        return self

    def peek(self) -> Optional[TraceEvent]:
        """The event at the current position, or ``None`` at the end."""
        if self.exhausted:
            return None
        return self.source[self.position]

    def advance(self) -> Optional[TraceEvent]:
        """Return the event at the current position and move past it."""
        event = self.peek()
        if event is not None:
            self.position += 1
        return event

    def take(self, count: int) -> Iterator[TraceEvent]:
        """Yield up to ``count`` events from the current position.

        The cursor position tracks the iteration, so a partially consumed
        window leaves the cursor where the consumer stopped.
        """
        end = min(len(self.source), self.position + count)
        while self.position < end:
            yield self.source[self.position]
            self.position += 1

    def remaining(self) -> int:
        """Number of events between the cursor and the end of the source."""
        return max(0, len(self.source) - self.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceCursor @{self.position}/{len(self.source)}>"
