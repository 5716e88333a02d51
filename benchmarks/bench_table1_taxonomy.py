"""Table 1: taxonomy of production node agents."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_table1_taxonomy(benchmark):
    result = run_and_print(benchmark, run_artifact, "table1")
    assert sum(1 for _ in result.rows) == 6
    total = sum(row["count"] for row in result.rows)
    assert total == 77  # the paper's agent census
