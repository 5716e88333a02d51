"""The ``repro bench`` harness: one table of seed-ratio microbenchmarks.

Every scenario of every suite in :data:`SUITES` runs against both the
live implementation and its frozen seed copy
(:mod:`repro.conformance.reference`) — same machine, same process,
interleaved — and the report records ns/op on each side and their
ratio.  The *speedups* are therefore machine-independent, which is what
:func:`compare_reports` gates on in CI against the committed
``BENCH_micro.json``.

That is all ``repro bench`` measures: one isolated structure per
microbenchmark.  End-to-end wall times, digests and warm-pass behaviour
of the commands users run are the stack benchmark's job
(``benchmarks/stack/``; DESIGN.md §15).

Entries are always named ``<suite>/<scenario>``, so ``--suite`` is a
filter: a one-suite report compares cleanly against an all-suite
baseline on the names they share.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from repro.conformance.reference import (
    KERNEL_IMPLS,
    ML_IMPLS,
    WORKLOADS_IMPLS,
)
from repro.perf.microbench import (
    MICROBENCHMARKS,
    Bench,
    BenchResult,
    run_microbench,
)
from repro.perf.microbench_ml import ML_MICROBENCHMARKS
from repro.perf.microbench_workloads import WORKLOADS_MICROBENCHMARKS

__all__ = [
    "SUITES",
    "build_report",
    "compare_reports",
    "compare_warnings",
    "render_comparison",
    "render_report",
    "write_report",
]

SCHEMA_VERSION = 3

#: suite -> (scenarios, live namespace, frozen seed namespace).
SUITES: Dict[str, Tuple[Dict[str, Bench], Any, Any]] = {
    "kernel": (
        MICROBENCHMARKS, KERNEL_IMPLS["current"], KERNEL_IMPLS["seed"],
    ),
    "ml": (
        ML_MICROBENCHMARKS, ML_IMPLS["current"], ML_IMPLS["seed"],
    ),
    "workloads": (
        WORKLOADS_MICROBENCHMARKS,
        WORKLOADS_IMPLS["current"], WORKLOADS_IMPLS["seed"],
    ),
}


def _geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs))


def _bench_result_dict(result: BenchResult) -> Dict[str, Any]:
    return {
        "events": result.events,
        "wall_s": round(result.wall_s, 6),
        "ns_per_event": round(result.ns_per_event, 1),
        "events_per_sec": round(result.events_per_sec, 1),
    }


def build_report(
    suites: Sequence[str], quick: bool = False, repeats: int = 3
) -> Dict[str, Any]:
    """Run ``suites`` (keys of :data:`SUITES`), optimized vs seed.

    Repeats alternate optimized/legacy (best-of-N each) so slow drift in
    the host's effective clock rate — the dominant noise source on
    shared runners — lands on both sides of every ratio instead of
    biasing whichever implementation ran last.  ``quick`` shrinks the
    scenarios (~4× fewer events); speedup ratios remain comparable,
    which is all the CI regression gate consumes.
    """
    scale = 0.25 if quick else 1.0
    micro: Dict[str, Any] = {}
    speedups: Dict[str, List[float]] = {suite: [] for suite in suites}
    for suite in suites:
        scenarios, live, seed = SUITES[suite]
        for scenario, bench in scenarios.items():
            rounds = [
                (
                    run_microbench(bench, live, scale, 1),
                    run_microbench(bench, seed, scale, 1),
                )
                for _ in range(repeats)
            ]
            optimized = min((o for o, _ in rounds), key=lambda r: r.wall_s)
            frozen = min((f for _, f in rounds), key=lambda r: r.wall_s)
            speedup = frozen.wall_s / optimized.wall_s
            speedups[suite].append(speedup)
            micro[f"{suite}/{scenario}"] = {
                "optimized": _bench_result_dict(optimized),
                "legacy": _bench_result_dict(frozen),
                "speedup": round(speedup, 2),
            }
    micro["geomean_speedup"] = round(
        _geomean(chain.from_iterable(speedups.values())), 2
    )
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "microbench": micro,
        "suites": {
            suite: {"geomean_speedup": round(_geomean(values), 2)}
            for suite, values in speedups.items()
        },
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _speedups(report: Dict[str, Any]) -> Dict[str, float]:
    """``<suite>/<scenario>`` -> speedup, in report order."""
    return {
        name: entry["speedup"]
        for name, entry in report.get("microbench", {}).items()
        if isinstance(entry, dict) and "speedup" in entry
    }


def _suite(name: str) -> str:
    return name.partition("/")[0]


def _shared_suites(
    new: Iterable[str], baseline: Iterable[str]
) -> Tuple[Set[str], str]:
    """Suites both name sets cover, and the warning for when none is."""
    new_suites = {_suite(name) for name in new}
    baseline_suites = {_suite(name) for name in baseline}
    return new_suites & baseline_suites, (
        f"comparing different suites ({sorted(new_suites)} vs "
        f"{sorted(baseline_suites)})"
    )


def compare_reports(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.25,
    gate: str = "each",
) -> List[str]:
    """Regressions of ``new`` against a committed baseline report.

    Only the machine-independent quantity is gated: per-scenario
    optimized-vs-legacy speedups (each may not fall more than
    ``max_regression`` below the baseline ratio).  Returns
    human-readable problem strings; empty means pass.

    ``gate`` selects the granularity: ``"each"`` (default) floors every
    shared benchmark individually; ``"geomean"`` floors only the
    geometric-mean ratio across shared benchmarks — the right gate for
    tight thresholds (like the tracer's 5% overhead budget), where
    single-benchmark measurement noise would dominate an individual
    floor but averages out across the suite.

    Benchmarks present in only one report are *not* problems — they are
    warnings (:func:`compare_warnings`): a renamed or newly-added
    scenario should not hard-fail a comparison against an older report.
    """
    problems: List[str] = []
    current = _speedups(new)
    ratios: List[float] = []
    for name, baseline_speedup in _speedups(baseline).items():
        if name not in current:
            continue  # one-sided benchmark: warned, not gated
        ratios.append(current[name] / baseline_speedup)
        floor = baseline_speedup * (1.0 - max_regression)
        if gate == "each" and current[name] < floor:
            problems.append(
                f"microbench {name!r} speedup regressed: "
                f"{current[name]:.2f}x < floor {floor:.2f}x "
                f"(baseline {baseline_speedup:.2f}x)"
            )
    if gate == "geomean" and ratios:
        geomean = _geomean(ratios)
        if geomean < 1.0 - max_regression:
            problems.append(
                f"suite geomean speedup ratio regressed: "
                f"{geomean:.3f} < floor {1.0 - max_regression:.3f} "
                f"(over {len(ratios)} shared benchmark(s))"
            )
    return problems


def compare_warnings(
    new: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """What makes a comparison *partial*, not failed.

    Within the suites both reports ran, a benchmark present on only one
    side is named (callers print these as warnings while
    :func:`compare_reports` gates only on benchmarks both measured).  A
    suite only one report ran is not a warning — ``--suite`` is a
    filter — unless the reports share no suite at all, the most common
    way to end up with nothing compared.
    """
    new_names, baseline_names = set(_speedups(new)), set(_speedups(baseline))
    shared, mismatch = _shared_suites(new_names, baseline_names)
    if not shared:
        return [mismatch]
    warnings: List[str] = []
    for label, names in (
        ("baseline", baseline_names - new_names),
        ("new", new_names - baseline_names),
    ):
        one_sided = sorted(n for n in names if _suite(n) in shared)
        if one_sided:
            warnings.append(
                f"benchmarks only in the {label} report (not compared): "
                + ", ".join(one_sided)
            )
    return warnings


def render_comparison(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    new_label: str = "new",
    baseline_label: str = "baseline",
) -> str:
    """Per-benchmark speedup-ratio table between two bench reports.

    The ``ratio`` column is ``new speedup / baseline speedup`` — the
    machine-independent quantity the CI gate consumes; < 1.0 means the
    optimized-vs-legacy advantage shrank relative to the baseline
    report.  Rows cover the baseline's benchmarks in the suites both
    reports ran.
    """
    lines = [f"== bench compare: {new_label} vs {baseline_label} =="]
    current, reference = _speedups(new), _speedups(baseline)
    shared, mismatch = _shared_suites(current, reference)
    if not shared:
        lines.append(f"  WARNING: {mismatch}")
    names = [name for name in reference if _suite(name) in shared]
    width = max((len(name) for name in names), default=8)
    lines.append(
        f"  {'benchmark':{width}s}  {new_label[:12]:>12s}  "
        f"{baseline_label[:12]:>12s}  {'ratio':>6s}"
    )
    ratios: List[float] = []
    for name in names:
        if name not in current:
            lines.append(f"  {name:{width}s}  {'missing':>12s}")
            continue
        ratio = current[name] / reference[name]
        ratios.append(ratio)
        lines.append(
            f"  {name:{width}s}  {current[name]:>11.2f}x  "
            f"{reference[name]:>11.2f}x  {ratio:>6.2f}"
        )
    if ratios:
        lines.append(f"  {'geomean ratio':{width}s}  {_geomean(ratios):>34.2f}")
    return "\n".join(lines)


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a report."""
    suites = report.get("suites", {})
    lines = [f"== repro bench ({', '.join(suites)}) =="]
    micro = report.get("microbench", {})
    width = max((len(name) for name in _speedups(report)), default=8)
    for name, entry in micro.items():
        if not isinstance(entry, dict):
            continue
        lines.append(
            f"  {name:{width}s} {entry['optimized']['ns_per_event']:>8.0f} ns/ev"
            f"  (seed {entry['legacy']['ns_per_event']:>8.0f} ns/ev)"
            f"  speedup {entry['speedup']:.2f}x"
        )
    for name, entry in suites.items():
        lines.append(
            f"  {name} suite geomean speedup: {entry['geomean_speedup']:.2f}x"
        )
    if len(suites) > 1:
        lines.append(
            f"  overall geomean speedup: {micro['geomean_speedup']:.2f}x"
        )
    return "\n".join(lines)
