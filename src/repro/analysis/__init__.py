"""Analytic bounds, notation extraction, aggregation, and report rendering."""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "bounds": ("DeltaGamma", "Table2Row", "analyze_pair", "lower_bound_bits",
               "table2_rows", "vector_storage_bits"),
    "metrics": ("SchemeAggregate", "aggregate_system"),
    "report": ("format_table",),
})

__all__ = [
    "DeltaGamma",
    "SchemeAggregate",
    "Table2Row",
    "aggregate_system",
    "analyze_pair",
    "format_table",
    "lower_bound_bits",
    "table2_rows",
    "vector_storage_bits",
]
