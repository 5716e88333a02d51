"""The ``repro bench`` harness: measure, record, and gate performance.

Produces ``BENCH_kernel.json`` (``--suite kernel``) and
``BENCH_ml.json`` (``--suite ml``) so every perf-affecting PR leaves a
recorded trajectory instead of a claim:

* **Microbenchmarks** run each scenario against both the live
  implementation and its frozen pre-optimization copy — kernel suite:
  :mod:`repro.sim` vs :mod:`repro.perf.legacy`; ML suite:
  :mod:`repro.ml` / :mod:`repro.node.hypervisor` vs
  :mod:`repro.perf.legacy_ml` — same machine, same process.  The
  reported *speedups* are therefore machine-independent ratios — that is
  what :func:`compare_reports` gates on in CI.
* **End-to-end** (kernel suite) runs a real fleet scenario and a
  ``reproduce-all`` subset on the live stack, verifies the fleet digest
  against the pinned seed value (an optimization that changes results is
  a bug, not a speedup), and compares wall-clock against
  :data:`SEED_BASELINES` — seed-commit wall times measured on the
  reference container (best-of-3; see EXPERIMENTS.md).  Absolute
  seconds are machine-dependent; the speedup column is indicative, the
  digest check is not.
* **End-to-end** (ML suite) measures every ``reproduce-all`` work unit
  once at full scale and reports (a) the measured serial full-pass
  wall, (b) the *modeled* 8-worker makespans of the artifact-granular
  and sub-artifact-granular parallel passes (an LPT schedule over the
  measured unit walls — the reference container has one core, so a
  multi-worker wall cannot be measured directly there; on an N-core
  host the measured wall tracks the model), and (c) a digest check that
  the sub-artifact-sharded pass still reproduces the golden pinned
  artifacts bit-exactly.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable, Dict, List

from repro.perf.baselines import (
    GOLDEN_EXPERIMENT_DIGESTS,
    GOLDEN_EXPERIMENT_SCALE,
    GOLDEN_FLEET_DIGESTS,
    SEED_E2E_WALL_S,
)
from repro.perf.golden import KERNEL_IMPLS, ML_IMPLS, WORKLOADS_IMPLS
from repro.perf.microbench import MICROBENCHMARKS, run_microbench
from repro.perf.microbench_ml import ML_MICROBENCHMARKS, run_ml_microbench
from repro.perf.microbench_workloads import (
    WORKLOADS_MICROBENCHMARKS,
    run_workloads_microbench,
)

__all__ = [
    "SEED_BASELINES",
    "build_all_report",
    "build_ml_report",
    "build_report",
    "build_workloads_report",
    "compare_reports",
    "compare_warnings",
    "merge_suite_reports",
    "render_comparison",
    "render_report",
    "write_report",
]

SCHEMA_VERSION = 2

#: Wall-clock of the end-to-end scenarios at the seed commit (pre-
#: optimization).  Digests pin result equivalence; these pin the
#: "before" of the before/after table.  Single source of truth:
#: :mod:`repro.perf.baselines` (shared with the golden-digest tests).
SEED_BASELINES: Dict[str, float] = SEED_E2E_WALL_S

#: The pinned seed digest for the end-to-end fleet scenario.
FLEET_DIGEST = GOLDEN_FLEET_DIGESTS["mixed_6x15_seed3"]

#: Artifacts of the reproduce-all end-to-end subset (cheap but covering
#: tables, a harvest figure, and hence all three runtime loops).
REPRODUCE_SUBSET = ("table1", "table2", "fig6-left")
REPRODUCE_SCALE = 0.2


def _bench_result_dict(result: Any) -> Dict[str, Any]:
    return {
        "events": result.events,
        "wall_s": round(result.wall_s, 6),
        "ns_per_event": round(result.ns_per_event, 1),
        "events_per_sec": round(result.events_per_sec, 1),
    }


def _run_suite(
    benchmarks: Dict[str, Any],
    runner: Callable[..., Any],
    live: Any,
    legacy: Any,
    scale: float,
    repeats: int,
) -> Dict[str, Any]:
    """All scenarios, optimized vs legacy, interleaved for fairness.

    Repeats alternate optimized/legacy (best-of-N each) so slow drift in
    the host's effective clock rate — the dominant noise source on
    shared runners — lands on both sides of every ratio instead of
    biasing whichever implementation ran last.
    """
    section: Dict[str, Any] = {}
    speedups: List[float] = []
    for name in benchmarks:
        optimized = frozen = None
        for _ in range(repeats):
            candidate_opt = runner(name, live, scale, 1)
            candidate_leg = runner(name, legacy, scale, 1)
            if optimized is None or candidate_opt.wall_s < optimized.wall_s:
                optimized = candidate_opt
            if frozen is None or candidate_leg.wall_s < frozen.wall_s:
                frozen = candidate_leg
        speedup = frozen.wall_s / optimized.wall_s
        speedups.append(speedup)
        section[name] = {
            "optimized": _bench_result_dict(optimized),
            "legacy": _bench_result_dict(frozen),
            "speedup": round(speedup, 2),
        }
    section["geomean_speedup"] = round(
        math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
    )
    return section


def run_microbenchmarks(
    scale: float = 1.0, repeats: int = 3
) -> Dict[str, Any]:
    """Kernel scenarios, optimized vs the frozen seed kernel."""
    return _run_suite(
        MICROBENCHMARKS, run_microbench,
        KERNEL_IMPLS["current"], KERNEL_IMPLS["seed"],
        scale, repeats,
    )


def run_ml_microbenchmarks(
    scale: float = 1.0, repeats: int = 3
) -> Dict[str, Any]:
    """ML epoch scenarios, vectorized vs the frozen per-class path."""
    return _run_suite(
        ML_MICROBENCHMARKS, run_ml_microbench,
        ML_IMPLS["current"], ML_IMPLS["seed"],
        scale, repeats,
    )


def run_workloads_microbenchmarks(
    scale: float = 1.0, repeats: int = 3
) -> Dict[str, Any]:
    """Workload/substrate loops, vectorized vs the frozen seed path."""
    return _run_suite(
        WORKLOADS_MICROBENCHMARKS, run_workloads_microbench,
        WORKLOADS_IMPLS["current"], WORKLOADS_IMPLS["seed"],
        scale, repeats,
    )


def run_end_to_end() -> Dict[str, Any]:
    """Fleet + reproduce-subset wall clock on the live stack."""
    # Imported lazily: the full stack is irrelevant to --quick runs.
    from repro.experiments.driver import FleetDriver, reproduce_all
    from repro.fleet.config import FleetConfig

    config = FleetConfig(n_nodes=6, agent="mixed", seed=3, duration_s=15)
    started = time.perf_counter()
    aggregate = FleetDriver(config, workers=1).run()
    fleet_wall = time.perf_counter() - started
    digest = aggregate.digest()

    started = time.perf_counter()
    runs = reproduce_all(only=list(REPRODUCE_SUBSET), scale=REPRODUCE_SCALE)
    reproduce_wall = time.perf_counter() - started

    def against_seed(key: str, wall: float) -> Dict[str, Any]:
        seed = SEED_BASELINES.get(key)
        entry: Dict[str, Any] = {"wall_s": round(wall, 3)}
        if seed is not None:
            entry["seed_wall_s"] = seed
            entry["speedup_vs_seed"] = round(seed / wall, 2)
        return entry

    fleet_entry = against_seed("fleet_mixed_6x15", fleet_wall)
    fleet_entry.update(
        nodes=config.n_nodes,
        sim_seconds=config.duration_s,
        digest=digest,
        digest_ok=digest == FLEET_DIGEST,
    )
    reproduce_entry = against_seed("reproduce_subset", reproduce_wall)
    reproduce_entry.update(
        artifacts=list(REPRODUCE_SUBSET),
        scale=REPRODUCE_SCALE,
        # Milliseconds with µs resolution: the tables finish in well
        # under a millisecond, so second-resolution rounding reported
        # them as 0.0 and made the per-artifact split useless.
        runs_ms={
            run.name: round(run.wall_seconds * 1000.0, 3) for run in runs
        },
    )
    return {
        "fleet_mixed_6x15": fleet_entry,
        "reproduce_subset": reproduce_entry,
    }


def _lpt_makespan(durations: List[float], workers: int) -> float:
    """Longest-processing-time-first schedule length on ``workers``.

    The standard greedy bound: sort jobs descending, always hand the
    next job to the least-loaded worker.  This is how the parallel
    driver's ``imap_unordered`` behaves in the limit of cheap dispatch,
    so it models the multi-worker wall from single-core unit timings.
    """
    loads = [0.0] * max(1, workers)
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


def run_ml_end_to_end(workers: int = 8) -> Dict[str, Any]:
    """Full reproduce-all pass economics + sharded-pass digest check."""
    from repro.experiments.common import experiment_digest
    from repro.experiments.driver import (
        ARTIFACTS,
        artifact_units,
        assemble_artifact,
        reproduce_all,
        run_series_unit,
    )

    # Measure every (artifact, series) unit once at full scale.  The
    # serial full-pass wall is their sum plus (negligible) assembly.
    unit_walls: Dict[str, List[float]] = {}
    digests: Dict[str, str] = {}
    collected: Dict[str, Dict[Any, Any]] = {}
    started = time.perf_counter()
    for name in ARTIFACTS:
        unit_walls[name] = []
        collected[name] = {}
        for _name, series in artifact_units(name, scale=1.0):
            unit_started = time.perf_counter()
            collected[name][series] = run_series_unit((name, series, 1.0))
            unit_walls[name].append(time.perf_counter() - unit_started)
    for name in ARTIFACTS:
        run = assemble_artifact(
            name, 1.0, collected[name], sum(unit_walls[name])
        )
        digests[name] = experiment_digest(run.result)
    serial_wall = time.perf_counter() - started

    artifact_durations = [sum(walls) for walls in unit_walls.values()]
    unit_durations = [w for walls in unit_walls.values() for w in walls]
    artifact_span = _lpt_makespan(artifact_durations, workers)
    series_span = _lpt_makespan(unit_durations, workers)

    # Golden check: the sub-artifact-sharded parallel path must still
    # reproduce the pinned artifact digests bit-exactly.
    check_started = time.perf_counter()
    golden_runs = reproduce_all(
        parallel=True,
        workers=2,
        only=list(GOLDEN_EXPERIMENT_DIGESTS),
        scale=GOLDEN_EXPERIMENT_SCALE,
    )
    golden_ok = all(
        experiment_digest(run.result) == GOLDEN_EXPERIMENT_DIGESTS[run.name]
        for run in golden_runs
    )
    check_wall = time.perf_counter() - check_started

    return {
        "reproduce_full_pass": {
            "wall_s": round(serial_wall, 3),
            "artifacts": len(artifact_durations),
            "work_units": len(unit_durations),
            "longest_artifact_s": round(max(artifact_durations), 3),
            "longest_unit_s": round(max(unit_durations), 3),
            "modeled_makespan_artifact_granular_s": round(artifact_span, 3),
            "modeled_makespan_subartifact_s": round(series_span, 3),
            "modeled_workers": workers,
            "modeled_speedup": round(artifact_span / series_span, 2),
            # µs resolution: the tables run in tens of µs and must not
            # round to 0.0 (the satellite fix that introduced runs_ms).
            "per_artifact_wall_s": {
                name: round(sum(walls), 6)
                for name, walls in unit_walls.items()
            },
            "digests": digests,
        },
        "sharded_golden_artifacts": {
            "wall_s": round(check_wall, 3),
            "artifacts": list(GOLDEN_EXPERIMENT_DIGESTS),
            "scale": GOLDEN_EXPERIMENT_SCALE,
            "digest_ok": golden_ok,
        },
    }


def run_workloads_end_to_end() -> Dict[str, Any]:
    """Incremental reproduction: cold-vs-warm cached pass + digest check.

    Runs the golden ``fig6-left`` artifact twice through a fresh result
    cache in a temporary directory: the cold pass executes and stores
    every unit, the warm pass must execute *zero* units (all-hit) and
    assemble the same rows — verified against the pinned golden digest,
    not just self-consistency.
    """
    import tempfile

    from repro.cache import ResultCache
    from repro.experiments.common import experiment_digest
    from repro.experiments.driver import reproduce_all

    artifact = "fig6-left"
    golden = GOLDEN_EXPERIMENT_DIGESTS[artifact]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_cache = ResultCache(tmp)
        started = time.perf_counter()
        cold_runs = reproduce_all(
            only=[artifact], scale=GOLDEN_EXPERIMENT_SCALE, cache=cold_cache
        )
        cold_wall = time.perf_counter() - started
        warm_cache = ResultCache(tmp)
        started = time.perf_counter()
        warm_runs = reproduce_all(
            only=[artifact], scale=GOLDEN_EXPERIMENT_SCALE, cache=warm_cache
        )
        warm_wall = time.perf_counter() - started
    cold_digest = experiment_digest(cold_runs[0].result)
    warm_digest = experiment_digest(warm_runs[0].result)
    return {
        "cache_warm_reproduce": {
            "artifact": artifact,
            "scale": GOLDEN_EXPERIMENT_SCALE,
            "wall_s": round(cold_wall, 3),
            "warm_wall_s": round(warm_wall, 3),
            "warm_speedup": round(cold_wall / warm_wall, 1),
            "cold_stats": cold_cache.stats.render(),
            "warm_stats": warm_cache.stats.render(),
            "all_hit": warm_cache.stats.misses == 0
            and warm_cache.stats.hits > 0,
            "digest_ok": cold_digest == warm_digest == golden,
        }
    }


def build_report(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """The full ``repro bench`` kernel-suite report.

    ``quick`` shrinks the microbenchmarks (~4× fewer events) and skips
    the end-to-end section; speedup ratios remain comparable, which is
    all the CI regression gate consumes.
    """
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": "kernel",
        "quick": quick,
        "microbench": run_microbenchmarks(
            scale=0.25 if quick else 1.0, repeats=repeats
        ),
    }
    if not quick:
        report["end_to_end"] = run_end_to_end()
    return report


def build_ml_report(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """The ``repro bench --suite ml`` report (same quick semantics)."""
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": "ml",
        "quick": quick,
        "microbench": run_ml_microbenchmarks(
            scale=0.25 if quick else 1.0, repeats=repeats
        ),
    }
    if not quick:
        report["end_to_end"] = run_ml_end_to_end()
    return report


def build_workloads_report(
    quick: bool = False, repeats: int = 3
) -> Dict[str, Any]:
    """The ``repro bench --suite workloads`` report (same semantics)."""
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": "workloads",
        "quick": quick,
        "microbench": run_workloads_microbenchmarks(
            scale=0.25 if quick else 1.0, repeats=repeats
        ),
    }
    if not quick:
        report["end_to_end"] = run_workloads_end_to_end()
    return report


def merge_suite_reports(
    reports: Dict[str, Dict[str, Any]], quick: bool = False
) -> Dict[str, Any]:
    """Merge per-suite bench reports into one ``suite: "all"`` report.

    Benchmark names are namespaced ``<suite>/<name>`` so the merged
    report stays a valid input to :func:`compare_reports` /
    :func:`render_comparison`; the merged ``geomean_speedup`` spans
    every microbenchmark of every suite, and per-suite geomeans are
    kept under ``suites``.
    """
    merged: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "suite": "all",
        "quick": quick,
        "microbench": {},
        "suites": {},
    }
    speedups: List[float] = []
    for suite, report in reports.items():
        micro = report.get("microbench", {})
        for name, entry in micro.items():
            if isinstance(entry, dict) and "speedup" in entry:
                merged["microbench"][f"{suite}/{name}"] = entry
                speedups.append(entry["speedup"])
        merged["suites"][suite] = {
            "geomean_speedup": micro.get("geomean_speedup")
        }
        for name, entry in report.get("end_to_end", {}).items():
            merged.setdefault("end_to_end", {})[f"{suite}/{name}"] = entry
    if speedups:
        merged["microbench"]["geomean_speedup"] = round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
        )
    return merged


def build_all_report(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """The ``repro bench --suite all`` report: every suite, one file.

    Runs the kernel, ML, and workloads suites in sequence and merges
    them (:func:`merge_suite_reports`) so one invocation leaves one
    report covering every microbenchmark and end-to-end check.
    """
    return merge_suite_reports(
        {
            "kernel": build_report(quick=quick, repeats=repeats),
            "ml": build_ml_report(quick=quick, repeats=repeats),
            "workloads": build_workloads_report(quick=quick, repeats=repeats),
        },
        quick=quick,
    )


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare_reports(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.25,
    gate: str = "each",
) -> List[str]:
    """Regressions of ``new`` against a committed baseline report.

    Only machine-independent quantities are gated: per-scenario
    optimized-vs-legacy speedups (each may not fall more than
    ``max_regression`` below the baseline ratio) and the end-to-end
    digest check (must not flip to False).  Returns human-readable
    problem strings; empty means pass.

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
    new_micro = new.get("microbench", {})
    ratios: List[float] = []
    for name, entry in baseline.get("microbench", {}).items():
        if not isinstance(entry, dict) or "speedup" not in entry:
            continue
        current = new_micro.get(name)
        if not isinstance(current, dict) or "speedup" not in current:
            continue  # one-sided benchmark: warned, not gated
        ratios.append(current["speedup"] / entry["speedup"])
        if gate != "each":
            continue
        floor = entry["speedup"] * (1.0 - max_regression)
        if current["speedup"] < floor:
            problems.append(
                f"microbench {name!r} speedup regressed: "
                f"{current['speedup']:.2f}x < floor {floor:.2f}x "
                f"(baseline {entry['speedup']:.2f}x)"
            )
    if gate == "geomean" and ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        if geomean < 1.0 - max_regression:
            problems.append(
                f"suite geomean speedup ratio regressed: "
                f"{geomean:.3f} < floor {1.0 - max_regression:.3f} "
                f"(over {len(ratios)} shared benchmark(s))"
            )
    for name, entry in new.get("end_to_end", {}).items():
        if not isinstance(entry, dict):
            continue
        if entry.get("digest_ok") is False:
            problems.append(
                f"end-to-end {name!r} digest mismatch: "
                "optimization changed results"
            )
        if entry.get("all_hit") is False:
            problems.append(
                f"end-to-end {name!r}: warm cached pass re-executed units "
                "(not all-hit)"
            )
    return problems


def compare_warnings(
    new: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Benchmarks present in only one of two reports (either side).

    These make a comparison *partial*, not failed — callers print them
    as warnings while :func:`compare_reports` gates only on benchmarks
    both reports measured.  Also flags a suite mismatch, the most common
    way to end up with fully disjoint benchmark sets.
    """

    def measured(report: Dict[str, Any]) -> set:
        return {
            name
            for name, entry in report.get("microbench", {}).items()
            if isinstance(entry, dict) and "speedup" in entry
        }

    warnings: List[str] = []
    new_suite = new.get("suite", "?")
    baseline_suite = baseline.get("suite", "?")
    if new_suite != baseline_suite:
        warnings.append(
            f"comparing different suites ({new_suite!r} vs "
            f"{baseline_suite!r})"
        )
    new_names, baseline_names = measured(new), measured(baseline)
    only_baseline = sorted(baseline_names - new_names)
    only_new = sorted(new_names - baseline_names)
    if only_baseline:
        warnings.append(
            "benchmarks only in the baseline report (not compared): "
            + ", ".join(only_baseline)
        )
    if only_new:
        warnings.append(
            "benchmarks only in the new report (not compared): "
            + ", ".join(only_new)
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
    report.
    """
    lines = [f"== bench compare: {new_label} vs {baseline_label} =="]
    new_suite = new.get("suite", "?")
    baseline_suite = baseline.get("suite", "?")
    if new_suite != baseline_suite:
        lines.append(
            f"  WARNING: comparing different suites "
            f"({new_suite!r} vs {baseline_suite!r})"
        )
    new_micro = new.get("microbench", {})
    baseline_micro = baseline.get("microbench", {})
    names = [
        name for name, entry in baseline_micro.items()
        if isinstance(entry, dict) and "speedup" in entry
    ]
    width = max((len(name) for name in names), default=8)
    lines.append(
        f"  {'benchmark':{width}s}  {new_label[:12]:>12s}  "
        f"{baseline_label[:12]:>12s}  {'ratio':>6s}"
    )
    ratios: List[float] = []
    for name in names:
        baseline_speedup = baseline_micro[name]["speedup"]
        entry = new_micro.get(name)
        if not isinstance(entry, dict) or "speedup" not in entry:
            lines.append(f"  {name:{width}s}  {'missing':>12s}")
            continue
        ratio = entry["speedup"] / baseline_speedup
        ratios.append(ratio)
        lines.append(
            f"  {name:{width}s}  {entry['speedup']:>11.2f}x  "
            f"{baseline_speedup:>11.2f}x  {ratio:>6.2f}"
        )
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        lines.append(f"  {'geomean ratio':{width}s}  {geomean:>34.2f}")
    for key in ("geomean_speedup",):
        if key in new_micro and key in baseline_micro:
            lines.append(
                f"  suite geomean speedup: {new_micro[key]:.2f}x "
                f"(baseline {baseline_micro[key]:.2f}x)"
            )
    return "\n".join(lines)


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a report."""
    suite = report.get("suite", "kernel")
    lines = [f"== repro bench ({suite} suite) =="]
    micro = report.get("microbench", {})
    for name, entry in micro.items():
        if not isinstance(entry, dict):
            continue
        lines.append(
            f"  {name:22s} {entry['optimized']['ns_per_event']:>8.0f} ns/ev"
            f"  (seed {entry['legacy']['ns_per_event']:>8.0f} ns/ev)"
            f"  speedup {entry['speedup']:.2f}x"
        )
    if "geomean_speedup" in micro:
        lines.append(
            f"  {suite} microbenchmark geomean speedup: "
            f"{micro['geomean_speedup']:.2f}x"
        )
    for name, entry in report.get("suites", {}).items():
        if entry.get("geomean_speedup") is not None:
            lines.append(
                f"    {name} suite geomean: "
                f"{entry['geomean_speedup']:.2f}x"
            )
    for name, entry in report.get("end_to_end", {}).items():
        wall = entry["wall_s"]
        extra = ""
        if "speedup_vs_seed" in entry:
            extra = (
                f"  (seed {entry['seed_wall_s']:.2f} s, "
                f"speedup {entry['speedup_vs_seed']:.2f}x)"
            )
        if "digest_ok" in entry:
            extra += "  digest OK" if entry["digest_ok"] else "  DIGEST MISMATCH"
        lines.append(f"  e2e {name:18s} {wall:7.2f} s wall{extra}")
        if "warm_wall_s" in entry:
            lines.append(
                f"      warm re-run {entry['warm_wall_s']:.3f} s "
                f"({entry['warm_speedup']:.0f}x; warm pass "
                f"{entry['warm_stats']}"
                + (", all-hit" if entry.get("all_hit") else ", NOT all-hit")
                + ")"
            )
        if "modeled_makespan_subartifact_s" in entry:
            lines.append(
                f"      {entry['modeled_workers']}-worker makespan model: "
                f"artifact-granular "
                f"{entry['modeled_makespan_artifact_granular_s']:.2f} s -> "
                f"sub-artifact {entry['modeled_makespan_subartifact_s']:.2f} s"
                f"  ({entry['modeled_speedup']:.2f}x; longest unit "
                f"{entry['longest_unit_s']:.2f} s over "
                f"{entry['work_units']} units)"
            )
    return "\n".join(lines)
