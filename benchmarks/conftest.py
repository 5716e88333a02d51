"""Benchmark bootstrap: src/ on the path plus a result printer.

Each bench file regenerates one paper table/figure through
:func:`repro.experiments.run_artifact` and prints the same rows/series
the paper reports.
Benchmarks run a single round (the experiments are deterministic; there
is no run-to-run noise to average away, and each run simulates many
minutes of node time).
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def run_and_print(benchmark, experiment, *args, **kwargs):
    """Benchmark ``experiment(*args, **kwargs)`` and print its rendering."""
    result = benchmark.pedantic(
        experiment, args=args, kwargs=kwargs, rounds=1, iterations=1,
    )
    print()
    print(result.render())
    return result
