"""The workloads bench suite and the report-comparison tooling."""

import json

import pytest

from repro.cli import main
from repro.perf import SUITES, build_report, compare_reports, render_comparison
from repro.perf.microbench import run_microbench

TINY = 0.02  # enough events to exercise every path, small enough for CI

WORKLOADS_MICROBENCHMARKS, LIVE_WORKLOADS, legacy = SUITES["workloads"]


def test_every_scenario_runs_against_both_implementations():
    for name, bench in WORKLOADS_MICROBENCHMARKS.items():
        for impl in (LIVE_WORKLOADS, legacy):
            result = run_microbench(bench, impl, TINY, repeats=1)
            assert result.events > 0
            assert result.wall_s > 0.0
            assert result.name == name


def test_suite_report_structure():
    report = build_report(["workloads"], quick=True, repeats=1)
    section = report["microbench"]
    assert "geomean_speedup" in section
    assert report["suites"]["workloads"]["geomean_speedup"] > 0
    for name in WORKLOADS_MICROBENCHMARKS:
        entry = section[f"workloads/{name}"]
        assert entry["optimized"]["events"] == entry["legacy"]["events"]
        assert entry["speedup"] > 0


def _fake_report(speedups, suite="workloads"):
    return {
        "schema": 3,
        "microbench": {
            f"{suite}/{name}": {
                "optimized": {"events": 1, "wall_s": 1.0,
                              "ns_per_event": 1.0, "events_per_sec": 1.0},
                "legacy": {"events": 1, "wall_s": speedup,
                           "ns_per_event": speedup,
                           "events_per_sec": 1.0 / speedup},
                "speedup": speedup,
            }
            for name, speedup in speedups.items()
        },
    }


def test_compare_reports_flags_ratio_regression():
    baseline = _fake_report({"a": 2.0, "b": 3.0})
    fine = _fake_report({"a": 1.9, "b": 2.6})
    assert compare_reports(fine, baseline, max_regression=0.25) == []
    regressed = _fake_report({"a": 1.0, "b": 3.0})
    problems = compare_reports(regressed, baseline, max_regression=0.25)
    assert len(problems) == 1 and "'workloads/a'" in problems[0]


def test_render_comparison_table_contents():
    baseline = _fake_report({"alpha": 2.0, "beta": 4.0})
    new = _fake_report({"alpha": 1.0, "beta": 4.0})
    text = render_comparison(new, baseline, "new.json", "base.json")
    assert "alpha" in text and "beta" in text
    assert "0.50" in text  # alpha's ratio
    assert "1.00" in text  # beta's ratio
    assert "geomean ratio" in text


def test_render_comparison_warns_on_suite_mismatch():
    text = render_comparison(
        _fake_report({"a": 1.0}, suite="kernel"),
        _fake_report({"a": 1.0}, suite="ml"),
    )
    assert "WARNING" in text


# -- the bench --compare CLI -------------------------------------------------


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_cli_compare_passes_within_gate(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", _fake_report({"a": 2.0}))
    new = _write(tmp_path, "new.json", _fake_report({"a": 1.8}))
    assert main(["bench", "--compare", new, baseline]) == 0
    out = capsys.readouterr().out
    assert "bench compare" in out
    assert "no regression" in out


def test_cli_compare_fails_past_gate(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", _fake_report({"a": 2.0}))
    new = _write(tmp_path, "new.json", _fake_report({"a": 1.0}))
    assert main(["bench", "--compare", new, baseline]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err


def test_cli_compare_honors_max_regression(tmp_path):
    baseline = _write(tmp_path, "base.json", _fake_report({"a": 2.0}))
    new = _write(tmp_path, "new.json", _fake_report({"a": 1.2}))
    assert main(["bench", "--compare", new, baseline]) == 1
    assert main([
        "bench", "--compare", new, baseline, "--max-regression", "0.5"
    ]) == 0


def test_cli_compare_missing_file_raises():
    with pytest.raises(OSError):
        main(["bench", "--compare", "/nonexistent/a.json",
              "/nonexistent/b.json"])


def test_compare_reports_geomean_gate_tolerates_single_noise():
    # One benchmark dips 10% while the others hold: the per-benchmark
    # gate fires at 5%, the geomean gate (the tracer-overhead CI shape)
    # averages the noise out and passes.
    baseline = _fake_report({"a": 2.0, "b": 3.0, "c": 4.0})
    noisy = _fake_report({"a": 1.8, "b": 3.0, "c": 4.1})
    assert compare_reports(noisy, baseline, max_regression=0.05)
    assert compare_reports(
        noisy, baseline, max_regression=0.05, gate="geomean"
    ) == []
    # A real across-the-board regression still fails the geomean gate.
    slower = _fake_report({"a": 1.8, "b": 2.7, "c": 3.6})
    problems = compare_reports(
        slower, baseline, max_regression=0.05, gate="geomean"
    )
    assert len(problems) == 1 and "geomean" in problems[0]
