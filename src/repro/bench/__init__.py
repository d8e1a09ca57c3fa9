"""Benchmark harness: schedule-comparison results and report formatting."""

from repro.bench.runner import ExperimentResult, geomean
from repro.bench.report import (format_table, format_series,
                                format_breakdown, format_bar_chart)

__all__ = [
    "ExperimentResult",
    "geomean",
    "format_table",
    "format_series",
    "format_breakdown",
    "format_bar_chart",
]
