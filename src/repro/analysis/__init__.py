"""Analysis layer: the measured Table 1 and its exponent fits."""

from repro.analysis.table1 import ProblemReport, format_table1, run_table1

__all__ = ["ProblemReport", "run_table1", "format_table1"]
