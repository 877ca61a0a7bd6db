"""Analytic bounds, notation extraction, aggregation, and report rendering."""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "bounds": ("DeltaGamma", "Table2Row", "analyze_pair", "delta_of",
               "lower_bound_bits", "notation_summary", "table2_rows",
               "vector_storage_bits"),
    "metrics": ("SchemeAggregate", "Sweep", "aggregate_outcomes",
                "aggregate_system"),
    "report": ("format_ratio", "format_table", "print_report"),
})

__all__ = [
    "DeltaGamma",
    "SchemeAggregate",
    "Sweep",
    "Table2Row",
    "aggregate_outcomes",
    "aggregate_system",
    "analyze_pair",
    "delta_of",
    "format_ratio",
    "format_table",
    "lower_bound_bits",
    "notation_summary",
    "print_report",
    "table2_rows",
    "vector_storage_bits",
]
