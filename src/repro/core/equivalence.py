"""Error-equivalence acceleration (§IV, following Relyzer/GangES [7],[20]).

Analysing every (dynamic occurrence × bit position) is what makes exhaustive
approaches intractable; MOARD leans on *error equivalence*: dynamic
occurrences of the same static instruction, holding values whose corrupted
bit falls into the same behavioural class, tend to mask (or not) the same
way.  The :class:`EquivalenceCache` analyses a configurable number of
representative occurrences per ``(static instruction, role, operand, bit
class)`` group and reuses the averaged result for the rest, recording how
often it did so, so reports can state the achieved coverage honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.reports import MaskingCategory, MaskingLevel
from repro.core.patterns import BitClass, classify_bit
from repro.ir.types import IRType


def bit_class_of(bit: int, ir_type: IRType) -> BitClass:
    """Public re-export of the bit classifier (kept here for discoverability)."""
    return classify_bit(bit, ir_type)


#: Cache key: (static instruction uid, role, operand index, bit class)
EquivalenceKey = Tuple[int, str, int, BitClass]


@dataclass
class EquivalenceEntry:
    """Accumulated samples for one equivalence class."""

    masked_samples: List[float] = field(default_factory=list)
    level: Optional[MaskingLevel] = None
    category: Optional[MaskingCategory] = None
    reused: int = 0

    @property
    def sample_count(self) -> int:
        return len(self.masked_samples)

    @property
    def masked_mean(self) -> float:
        if not self.masked_samples:
            return 0.0
        return sum(self.masked_samples) / len(self.masked_samples)


@dataclass
class EquivalenceCache:
    """Per-class sampling budget and result reuse.

    ``samples_per_class`` dynamic occurrences of each class are analysed in
    full; further occurrences reuse the mean masked fraction (and the level /
    category of the first sample).
    """

    samples_per_class: int = 2
    entries: Dict[EquivalenceKey, EquivalenceEntry] = field(default_factory=dict)

    def should_analyze(self, key: EquivalenceKey) -> bool:
        """Whether this occurrence should be analysed in full."""
        entry = self.entries.get(key)
        if entry is None:
            return True
        return entry.sample_count < self.samples_per_class

    def record(
        self,
        key: EquivalenceKey,
        masked_fraction: float,
        level: Optional[MaskingLevel],
        category: Optional[MaskingCategory],
    ) -> None:
        """Store the fully-analysed result of one occurrence."""
        entry = self.entries.setdefault(key, EquivalenceEntry())
        entry.masked_samples.append(masked_fraction)
        if entry.level is None:
            entry.level = level
        if entry.category is None:
            entry.category = category

    def estimate(
        self, key: EquivalenceKey
    ) -> Tuple[float, Optional[MaskingLevel], Optional[MaskingCategory]]:
        """Reused estimate for an occurrence that was not analysed in full."""
        entry = self.entries[key]
        entry.reused += 1
        return entry.masked_mean, entry.level, entry.category

    # ------------------------------------------------------------------ #
    # statistics for reports
    # ------------------------------------------------------------------ #
    @property
    def classes(self) -> int:
        return len(self.entries)

    @property
    def analyses_performed(self) -> int:
        return sum(e.sample_count for e in self.entries.values())

    @property
    def analyses_reused(self) -> int:
        return sum(e.reused for e in self.entries.values())

    def coverage_summary(self) -> Dict[str, int]:
        return {
            "classes": self.classes,
            "analyzed": self.analyses_performed,
            "reused": self.analyses_reused,
        }
