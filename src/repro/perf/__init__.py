"""Performance measurement subsystem (``python -m repro bench``).

Public surface::

    from repro.perf import SUITES, build_report, compare_reports
    from repro.perf.microbench import run_microbench

The frozen seed implementations the ratios are measured against live in
:mod:`repro.conformance.reference` (they are golden models first, ratio
denominators second); this package imports them, never the reverse.
"""

from repro.perf.harness import (
    SUITES,
    build_report,
    compare_reports,
    compare_warnings,
    render_comparison,
    render_report,
    write_report,
)

__all__ = [
    "SUITES",
    "build_report",
    "compare_reports",
    "compare_warnings",
    "render_comparison",
    "render_report",
    "write_report",
]
