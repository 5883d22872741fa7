"""ASCII bar charts for the paper's figures (4, 5, 6, 7, 8, 9)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.reports import AdvfResult, MaskingCategory, MaskingLevel

#: Order of stacking used by Fig. 4.
LEVEL_ORDER = [MaskingLevel.OPERATION, MaskingLevel.PROPAGATION, MaskingLevel.ALGORITHM]
#: Order of stacking used by Fig. 5 (algorithm-level masking excluded there).
CATEGORY_ORDER = [
    MaskingCategory.OVERWRITE,
    MaskingCategory.OVERSHADOW,
    MaskingCategory.LOGIC_COMPARE,
]

_LEVEL_GLYPH = {
    MaskingLevel.OPERATION: "O",
    MaskingLevel.PROPAGATION: "P",
    MaskingLevel.ALGORITHM: "A",
}
_CATEGORY_GLYPH = {
    MaskingCategory.OVERWRITE: "W",
    MaskingCategory.OVERSHADOW: "S",
    MaskingCategory.LOGIC_COMPARE: "L",
}


def bar_chart(values: Mapping[str, float], width: int = 50, maximum: float = 1.0) -> str:
    """Simple horizontal bar chart of label -> value (values in [0, maximum])."""
    label_width = max((len(label) for label in values), default=0)
    lines = []
    for label, value in values.items():
        filled = int(round(width * min(max(value, 0.0), maximum) / maximum))
        lines.append(f"{label.ljust(label_width)} |{'#' * filled}{' ' * (width - filled)}| {value:.3f}")
    return "\n".join(lines)


def stacked_bar_chart(
    rows: Sequence[Tuple[str, Mapping[str, float]]], width: int = 50, maximum: float = 1.0
) -> str:
    """Stacked horizontal bars: each row is (label, {segment label -> value}).

    Segments are drawn with the first letter of their label; the residual up
    to ``maximum`` is left blank.  Used to mirror the stacked columns of
    Figures 4, 5, 8 and 9.
    """
    label_width = max((len(label) for label, _ in rows), default=0)
    lines = []
    for label, segments in rows:
        bar = ""
        total = 0.0
        for segment_label, value in segments.items():
            glyph = segment_label[:1].upper() or "#"
            chars = int(round(width * min(max(value, 0.0), maximum) / maximum))
            bar += glyph * chars
            total += value
        bar = bar[:width].ljust(width)
        lines.append(f"{label.ljust(label_width)} |{bar}| {total:.3f}")
    return "\n".join(lines)


def advf_level_breakdown_rows(
    results: Mapping[str, AdvfResult]
) -> List[Tuple[str, Dict[str, float]]]:
    """Fig. 4 rows: per data object, aDVF split by analysis level."""
    rows: List[Tuple[str, Dict[str, float]]] = []
    for name, result in results.items():
        segments = {
            f"{_LEVEL_GLYPH[level]}:{level.value}": result.level_fraction(level)
            for level in LEVEL_ORDER
        }
        rows.append((name, segments))
    return rows


def advf_category_breakdown_rows(
    results: Mapping[str, AdvfResult]
) -> List[Tuple[str, Dict[str, float]]]:
    """Fig. 5 rows: per data object, operation/propagation-level aDVF by category."""
    rows: List[Tuple[str, Dict[str, float]]] = []
    for name, result in results.items():
        segments = {
            f"{_CATEGORY_GLYPH[category]}:{category.value}": result.category_fraction(category)
            for category in CATEGORY_ORDER
        }
        rows.append((name, segments))
    return rows
