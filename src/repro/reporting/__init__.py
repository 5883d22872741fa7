"""Text reporting: regenerate the paper's tables and figures as ASCII.

Public API
----------
:func:`~repro.reporting.tables.format_table`,
:func:`~repro.reporting.tables.table1_rows`,
:func:`~repro.reporting.tables.format_outcome_table`,
:func:`~repro.reporting.tables.format_advf_report_table`,
:func:`~repro.reporting.tables.format_campaign_list`,
:func:`~repro.reporting.tables.format_shard_table`,
:func:`~repro.reporting.tables.format_metrics_table`,
:func:`~repro.reporting.tables.format_timeline`,
:func:`~repro.reporting.tables.format_protection_plan_table`,
:func:`~repro.reporting.tables.format_validation_table`,
:func:`~repro.reporting.figures.stacked_bar_chart`,
:func:`~repro.reporting.figures.advf_level_breakdown_rows`,
:func:`~repro.reporting.figures.advf_category_breakdown_rows`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "tables": (
            "format_advf_report_table",
            "format_campaign_list",
            "format_metrics_table",
            "format_outcome_table",
            "format_protection_plan_table",
            "format_shard_table",
            "format_table",
            "format_timeline",
            "format_validation_table",
            "table1_rows",
        ),
        "figures": (
            "advf_category_breakdown_rows",
            "advf_level_breakdown_rows",
            "bar_chart",
            "stacked_bar_chart",
        ),
    },
)
