"""The repro bench harness: suite table, report schema, regression gate."""

import json
import pathlib

import pytest

from repro.perf import (
    SUITES,
    build_report,
    compare_reports,
    compare_warnings,
    render_comparison,
    render_report,
    write_report,
)
from repro.perf.microbench import run_microbench

#: Tiny scale so the whole module runs in well under a second.
SCALE = 0.02

KERNEL_SCENARIOS, live_impl, legacy_impl = SUITES["kernel"]


@pytest.mark.parametrize("name", sorted(KERNEL_SCENARIOS))
@pytest.mark.parametrize(
    "impl", [live_impl, legacy_impl], ids=["optimized", "legacy"]
)
def test_microbench_scenarios_run_on_both_kernels(name, impl):
    result = run_microbench(
        KERNEL_SCENARIOS[name], impl, scale=SCALE, repeats=1
    )
    assert result.events > 0
    assert result.wall_s > 0
    assert result.ns_per_event > 0


def test_legacy_kernel_is_behaviorally_equivalent():
    """Same workload, same simulated outcome, on both implementations."""
    outcomes = []
    for impl in (live_impl, legacy_impl):
        kernel = impl.Kernel()
        queue = impl.SimQueue(kernel, capacity=1)
        log = []

        def producer():
            for i in range(20):
                queue.put(i)
                yield 30

        def consumer():
            while len(log) < 20:
                item = yield from queue.get(timeout_us=100)
                if item is not impl.QUEUE_TIMEOUT:
                    log.append((kernel.now, item))

        kernel.spawn(producer(), name="p")
        kernel.spawn(consumer(), name="c")
        kernel.run()
        outcomes.append((log, kernel.now))
    assert outcomes[0] == outcomes[1]


@pytest.fixture(scope="module")
def quick_all_report():
    return build_report(list(SUITES), quick=True, repeats=1)


def test_quick_report_schema_and_roundtrip(quick_all_report, tmp_path):
    report = quick_all_report
    assert report["quick"] is True
    assert set(report["suites"]) == set(SUITES)
    micro = report["microbench"]
    assert micro["geomean_speedup"] > 0
    for suite, (scenarios, _live, _seed) in SUITES.items():
        assert report["suites"][suite]["geomean_speedup"] > 0
        for name in scenarios:
            entry = micro[f"{suite}/{name}"]
            assert entry["speedup"] > 0
            assert entry["optimized"]["events"] == entry["legacy"]["events"] > 0
    # Nothing but <suite>/<scenario> entries and the overall geomean.
    assert len(micro) == 1 + sum(len(s[0]) for s in SUITES.values())
    path = tmp_path / "bench.json"
    write_report(report, str(path))
    assert json.loads(path.read_text()) == report
    assert "repro bench" in render_report(report)


def test_committed_baseline_names_exactly_the_suites_table():
    """A row added to ``SUITES`` without regenerating ``BENCH_micro.json``
    would only *warn* in CI's bench-smoke comparison — i.e. go ungated —
    and a deleted one would leave a stale row behind.  Pin the name sets
    equal so either fails here, in tier-1."""
    baseline_path = (
        pathlib.Path(__file__).resolve().parents[2] / "BENCH_micro.json"
    )
    baseline = json.loads(baseline_path.read_text())
    committed = {
        name for name, entry in baseline["microbench"].items()
        if isinstance(entry, dict)
    }
    declared = {
        f"{suite}/{scenario}"
        for suite, (scenarios, _live, _seed) in SUITES.items()
        for scenario in scenarios
    }
    assert committed == declared, (
        "regenerate with: repro bench --suite all --repeats 5 "
        "--output BENCH_micro.json"
    )
    assert set(baseline["suites"]) == set(SUITES)
    assert baseline["quick"] is False


def test_suite_filter_compares_clean_against_all_baseline(quick_all_report):
    """``--suite`` is a filter: a one-suite report needs no merge step and
    draws no missing-benchmark noise against the all-suite baseline."""
    kernel_only = build_report(["kernel"], quick=True, repeats=1)
    assert set(kernel_only["suites"]) == {"kernel"}
    assert all(
        name.startswith("kernel/")
        for name in kernel_only["microbench"] if name != "geomean_speedup"
    )
    for new, baseline in (
        (kernel_only, quick_all_report), (quick_all_report, kernel_only)
    ):
        assert compare_warnings(new, baseline) == []
        table = render_comparison(new, baseline)
        assert "kernel/sleep_hot_loop" in table
        assert "missing" not in table and "ml/" not in table


def _fake_report(speedups):
    return {
        "schema": 3,
        "microbench": {
            name: {"speedup": value} for name, value in speedups.items()
        },
    }


def test_compare_reports_passes_within_tolerance():
    baseline = _fake_report({"k/a": 4.0, "k/b": 2.0})
    new = _fake_report({"k/a": 3.2, "k/b": 1.6})  # exactly -20%
    assert compare_reports(new, baseline, max_regression=0.25) == []


def test_compare_reports_flags_regression_but_warns_on_missing():
    baseline = _fake_report({"k/a": 4.0, "k/b": 2.0})
    new = _fake_report({"k/a": 2.9})  # -27.5%, and 'b' only in baseline
    problems = compare_reports(new, baseline, max_regression=0.25)
    # Only the genuine regression gates; the one-sided benchmark is a
    # warning, not a failure.
    assert len(problems) == 1
    assert "regressed" in problems[0]
    warnings = compare_warnings(new, baseline)
    assert any("only in the baseline" in w and "k/b" in w for w in warnings)


def test_compare_warnings_cover_both_sides_and_suite_mismatch():
    baseline = _fake_report({"kernel/a": 1.0, "kernel/b": 2.0})
    new = _fake_report({"kernel/a": 1.0, "kernel/c": 3.0})
    warnings = compare_warnings(new, baseline)
    assert any("only in the baseline" in w and "kernel/b" in w for w in warnings)
    assert any("only in the new" in w and "kernel/c" in w for w in warnings)
    assert compare_warnings(baseline, baseline) == []
    # No suite in common: nothing was compared, and that is the warning.
    disjoint = compare_warnings(_fake_report({"ml/a": 1.0}), baseline)
    assert len(disjoint) == 1 and "different suites" in disjoint[0]

