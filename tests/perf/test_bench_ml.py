"""The ML bench suite: scenarios and report rendering."""

import pytest

from repro.perf import SUITES, build_report, render_report
from repro.perf.microbench import run_microbench

#: Tiny scale so the whole module runs in well under a second.
SCALE = 0.02

ML_SCENARIOS, LIVE_ML, legacy_ml = SUITES["ml"]


@pytest.mark.parametrize("name", sorted(ML_SCENARIOS))
@pytest.mark.parametrize(
    "impl", [LIVE_ML, legacy_ml], ids=["optimized", "legacy"]
)
def test_ml_scenarios_run_on_both_implementations(name, impl):
    result = run_microbench(ML_SCENARIOS[name], impl, scale=SCALE, repeats=1)
    assert result.events > 0
    assert result.wall_s > 0
    assert result.ns_per_event > 0


def test_quick_ml_report_schema():
    report = build_report(["ml"], quick=True, repeats=1)
    assert list(report["suites"]) == ["ml"]
    assert report["quick"] is True
    micro = report["microbench"]
    assert {f"ml/{name}" for name in ML_SCENARIOS} <= set(micro)
    assert micro["geomean_speedup"] > 0
    rendered = render_report(report)
    assert "ml suite" in rendered
    assert "ml/csc_predict" in rendered
    assert "ml/harvest_epoch" in rendered

