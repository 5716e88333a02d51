"""The ``python -m repro`` command line.

Subcommands::

    repro list                      # artifacts and agent kinds
    repro run fig1 [fig2 ...]       # named table/figure reproductions
    repro fleet --nodes 64 --agent overclock --workers 8
    repro reproduce-all [--parallel] [--quick] [--only ARTIFACT ...]
                        [--no-cache] [--cache-dir PATH]
                        [--emit-experiments PATH]
    repro sweep run SPEC.toml [--workers 8] [--no-cache]
    repro sweep show SPEC.toml      # expanded grid, nothing executed
    repro sweep list [DIR]          # committed campaign specs
    repro bench [--suite kernel|ml|workloads|all] [--quick]
                [--output PATH] [--check-against PATH]
    repro bench --compare NEW.json BASELINE.json

``fleet`` prints a fleet-wide report ending in a content digest; runs
with the same seed agree on the digest regardless of ``--workers``,
which is how CI smoke-checks the sharding (DESIGN.md §5).

``reproduce-all`` is incremental by default: work units are looked up
in a content-addressed result cache (``.repro-cache``, or
``$REPRO_CACHE_DIR`` / ``--cache-dir``) keyed over artifact, series,
scale, resolved experiment arguments, and a code-version salt, so a
warm re-run executes zero units and prints bit-identical digests — CI
smoke-checks exactly that (DESIGN.md §8).  ``--no-cache`` recomputes
everything.

``sweep run`` executes a declarative robustness campaign
(``repro.sweep``, DESIGN.md §9) through the same cache (``sweep::``
namespace) and warm pool: a warm re-run executes zero cells and
reproduces the campaign digest bit-identically, for any ``--workers``.

Every pooled path dispatches through the supervised execution substrate
(``repro.resilience``, DESIGN.md §11): worker crashes are retried with
deterministic backoff, repeat offenders are quarantined as explicit
holes, and ``--max-retries`` / ``--unit-timeout`` tune the policy.
``repro chaos`` turns the substrate on itself: it runs a target twice —
fault-free, then under an injected worker-fault plan — and verifies
that the faulted run either reproduces the fault-free digests
bit-identically or reports the exact quarantined units.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import List, Optional

from repro.cache import ResultCache, default_cache_dir
from repro.conformance.cli import add_conformance_parser, cmd_conformance
from repro.experiments.common import experiment_digest
from repro.experiments.driver import (
    ARTIFACTS,
    ArtifactRun,
    FleetDriver,
    reproduce_all,
)
from repro.fleet.config import (
    AGENT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FleetConfig,
)
from repro.journal.cli import add_runs_parser, cmd_runs, journal_status_line
from repro.journal.lease import LeaseHeldError
from repro.obs import run_tracing
from repro.obs.cli import add_trace_parser, cmd_trace
from repro.resilience import shutdown_shared_pool
from repro.serve.cli import (
    add_serve_parser,
    cmd_serve,
    submission_config,
)

__all__ = ["main"]


class _Terminated(Exception):
    """SIGTERM arrived; unwind like a Ctrl-C, exit 143."""


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """``--max-retries`` / ``--unit-timeout`` for supervised dispatch."""
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-dispatches per failed/crashed/timed-out work unit "
             "before it is quarantined (default: %(default)s)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline; a unit running past it is presumed "
             "hung, its worker is killed, and the attempt counts as a "
             "failure (default: no deadline)",
    )


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    """``--resume`` / ``--no-journal`` for the crash-consistent ledger."""
    parser.add_argument(
        "--resume", action="store_true",
        help="resume this run's journal instead of starting fresh: "
             "journaled units replay, only un-journaled units execute "
             "(see 'repro runs list' for resumable runs)",
    )
    parser.add_argument(
        "--no-journal", dest="journal", action="store_false", default=True,
        help="disable the crash-consistent run journal (the run is not "
             "resumable after an orchestrator death)",
    )
    parser.add_argument(
        "--no-trace", dest="trace", action="store_false", default=True,
        help="disable the telemetry sidecar (trace.jsonl/metrics.json "
             "next to the run journal); results and digests are "
             "bit-identical either way (DESIGN.md §14)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOL reproduction driver (Wang et al., ASPLOS 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts")

    run = sub.add_parser("run", help="reproduce named tables/figures")
    run.add_argument(
        "artifacts", nargs="+", choices=ARTIFACTS, metavar="ARTIFACT",
        help=f"one of: {', '.join(ARTIFACTS)}",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="shortened (less converged) durations",
    )

    fleet = sub.add_parser(
        "fleet", help="simulate a multi-node fleet of SOL agents"
    )
    fleet.add_argument("--nodes", type=int, default=16)
    fleet.add_argument(
        "--agent", default="overclock",
        choices=AGENT_KINDS + ("mixed",),
    )
    fleet.add_argument("--workers", type=int, default=1)
    fleet.add_argument(
        "--seconds", type=int, default=120,
        help="simulated seconds per node",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--rack-size", type=int, default=8,
        help="nodes per rack (fault blast radius)",
    )
    fleet.add_argument(
        "--fault-racks", default=None, metavar="R0,R1,...",
        help="inject a correlated invalid-data burst into these racks",
    )
    fleet.add_argument("--fault-start", type=int, default=30,
                       help="burst onset (simulated seconds)")
    fleet.add_argument("--fault-duration", type=int, default=60,
                       help="burst length (simulated seconds)")
    fleet.add_argument(
        "--fault-probability", type=float, default=0.9,
        help="fault intensity inside the burst: per-read corruption/"
             "staleness chance, or per-node crash chance for "
             "crash_restart",
    )
    fleet.add_argument(
        "--fault-kind", default="bad_data", choices=FAULT_KINDS,
        help="burst kind: invalid values, telemetry dropout/stale "
             "reads, or agent crash-restart (default: %(default)s)",
    )
    _add_resilience_flags(fleet)
    _add_journal_flags(fleet)

    rall = sub.add_parser(
        "reproduce-all", help="regenerate every table and figure"
    )
    rall.add_argument("--parallel", action="store_true",
                      help="shard the pass across worker processes")
    rall.add_argument("--workers", type=int, default=None)
    rall.add_argument("--quick", action="store_true")
    rall.add_argument(
        "--scale", type=float, default=None, metavar="FRACTION",
        help="explicit duration scale (overrides --quick; 1.0 is the "
             "full pass, 0.33 is --quick)",
    )
    rall.add_argument(
        "--only", nargs="+", choices=ARTIFACTS, metavar="ARTIFACT",
        default=None,
        help="restrict the pass to these artifacts (canonical order kept)",
    )
    rall.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="reuse cached unit results (the default)",
    )
    rall.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="recompute every unit, ignoring the result cache",
    )
    rall.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or "
             "./.repro-cache)",
    )
    rall.add_argument(
        "--emit-experiments", metavar="PATH", default=None,
        help="also write the EXPERIMENTS.md measured-output tables",
    )
    _add_resilience_flags(rall)
    _add_journal_flags(rall)

    sweep = sub.add_parser(
        "sweep",
        help="declarative robustness campaigns with a safety scoreboard",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="execute a campaign spec and print its scoreboard"
    )
    sweep_run.add_argument(
        "spec", metavar="SPEC",
        help="path to a campaign spec (.toml), e.g. "
             "examples/campaigns/smoke.toml",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for cache-miss cells (default: 1)",
    )
    sweep_run.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="reuse cached cell results (the default)",
    )
    sweep_run.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="recompute every cell, ignoring the result cache",
    )
    sweep_run.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or "
             "./.repro-cache)",
    )
    _add_resilience_flags(sweep_run)
    _add_journal_flags(sweep_run)
    sweep_show = sweep_sub.add_parser(
        "show", help="expand a campaign spec without executing anything"
    )
    sweep_show.add_argument("spec", metavar="SPEC")
    sweep_list = sweep_sub.add_parser(
        "list", help="list committed campaign specs"
    )
    sweep_list.add_argument(
        "directory", nargs="?", default="examples/campaigns",
        help="directory to scan for .toml specs (default: %(default)s)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="prove resilience: run a target fault-free and under an "
             "injected worker-fault plan, then compare digests and "
             "quarantine reports",
    )
    chaos.add_argument(
        "target", choices=("fleet", "reproduce", "sweep", "serve"),
        help="which pooled pipeline to stress ('serve' drives the "
             "control-plane kill-server harness)",
    )
    chaos.add_argument(
        "--fault", default="crash",
        choices=("crash", "hang", "corrupt_cache", "slow"),
        help="injected fault kind (default: %(default)s); corrupt_cache "
             "targets the result cache and needs a cached target "
             "(reproduce or sweep)",
    )
    chaos.add_argument(
        "--probability", type=float, default=0.4,
        help="per-unit fault selection probability, hashed from "
             "--chaos-seed (default: %(default)s)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-selection seed; the faulted subset is a pure "
             "function of (seed, unit id) (default: %(default)s)",
    )
    chaos.add_argument(
        "--poison", action="append", default=None, metavar="UNIT_ID",
        help="unit id that faults on every attempt (repeatable); the "
             "run must quarantine exactly these units",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument(
        "--nodes", type=int, default=16, help="fleet target: node count"
    )
    chaos.add_argument(
        "--agent", default="overclock", choices=AGENT_KINDS + ("mixed",),
        help="fleet target: agent kind (default: %(default)s)",
    )
    chaos.add_argument(
        "--seconds", type=int, default=60,
        help="fleet target: simulated seconds per node",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="fleet target: fleet seed"
    )
    chaos.add_argument(
        "--scale", type=float, default=0.1,
        help="reproduce target: duration scale (default: %(default)s)",
    )
    chaos.add_argument(
        "--only", nargs="+", choices=ARTIFACTS, metavar="ARTIFACT",
        default=None, help="reproduce target: restrict the artifact set",
    )
    chaos.add_argument(
        "--spec", metavar="SPEC", default=None,
        help="sweep target: campaign spec path (required for sweep)",
    )
    chaos.add_argument(
        "--kill-parent", type=int, default=None, metavar="N",
        help="crash-consistency mode (DESIGN.md §12): run the target in "
             "a subprocess, SIGKILL the orchestrator after its Nth "
             "journal record, resume the run, and fail unless the "
             "resume re-executes zero journaled units and seals with a "
             "digest bit-identical to an uninterrupted run",
    )
    chaos.add_argument(
        "--kill-server", type=int, default=None, metavar="N",
        help="serve target (DESIGN.md §13): start a real 'repro serve' "
             "server, submit --job over its socket, SIGKILL the server "
             "after its Nth journal record, and fail unless a restarted "
             "server adopts the run, re-executes zero journaled units, "
             "and seals with the uninterrupted digest",
    )
    chaos.add_argument(
        "--job", choices=("fleet", "reproduce", "sweep"),
        default="fleet",
        help="serve target: which job kind the kill-server harness "
             "submits (default: %(default)s)",
    )
    _add_resilience_flags(chaos)

    add_serve_parser(sub)

    add_runs_parser(sub)

    add_trace_parser(sub)

    add_conformance_parser(sub)

    bench = sub.add_parser(
        "bench",
        help="microbenchmarks + end-to-end timings vs the frozen "
             "pre-optimization implementations",
    )
    bench.add_argument(
        "--suite", choices=("kernel", "ml", "workloads", "all"),
        default="kernel",
        help="kernel: event kernel vs the frozen seed kernel; "
             "ml: learning-epoch hot path vs the frozen per-class path; "
             "workloads: workload/substrate per-event loops vs the "
             "frozen pre-vectorization path; "
             "all: every suite in one invocation, merged into one "
             "report (default: %(default)s)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller microbenchmarks, skip the end-to-end section "
             "(speedup ratios stay comparable)",
    )
    bench.add_argument(
        "--output", metavar="PATH", default=None,
        help="where to write the JSON report "
             "(default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--check-against", metavar="PATH", default=None,
        help="compare speedups to a committed baseline report and exit "
             "non-zero on regression",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional speedup drop vs the baseline "
             "(default: %(default)s)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N repeats per microbenchmark (default: %(default)s)",
    )
    bench.add_argument(
        "--compare", nargs=2, metavar=("NEW", "BASELINE"), default=None,
        help="compare two existing bench reports instead of running "
             "anything: print a per-benchmark ratio table and exit "
             "non-zero past the --max-regression gate",
    )
    bench.add_argument(
        "--gate", choices=("each", "geomean"), default="each",
        help="regression-gate granularity: 'each' floors every shared "
             "benchmark, 'geomean' floors only the suite geomean ratio "
             "(use for tight thresholds where per-benchmark noise "
             "dominates; default: %(default)s)",
    )
    bench.add_argument(
        "--trace", action="store_true",
        help="run the suite with an active in-memory tracer (no "
             "sidecar); CI's obs-smoke job compares --trace vs plain "
             "reports to gate tracing overhead",
    )
    return parser


def _cmd_list() -> int:
    print("artifacts:")
    for name in ARTIFACTS:
        print(f"  {name}")
    print(f"fleet agent kinds: {', '.join(AGENT_KINDS + ('mixed',))}")
    return 0


def _print_run(run: ArtifactRun) -> None:
    print(run.result.render())
    # The digest line is what the CI cache smoke diffs between a cold
    # and a warm pass — cached assembly must be bit-identical.
    print(f"[digest {run.result.name} {experiment_digest(run.result)}]")
    print(f"[{run.wall_seconds:.1f}s wall]\n", flush=True)


def _cmd_run(args: argparse.Namespace) -> int:
    scale = 0.33 if args.quick else 1.0
    reproduce_all(scale=scale, only=args.artifacts, on_result=_print_run)
    return 0


def _parse_fault(args: argparse.Namespace) -> Optional[FaultPlan]:
    if args.fault_racks is None:
        return None
    racks = tuple(int(r) for r in args.fault_racks.split(",") if r != "")
    if not racks:
        raise SystemExit("--fault-racks needs at least one rack index")
    return FaultPlan(
        racks=racks,
        start_s=args.fault_start,
        duration_s=args.fault_duration,
        probability=args.fault_probability,
        kind=args.fault_kind,
    )


def _retry_policy(args: argparse.Namespace):
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_retries=args.max_retries, unit_timeout_s=args.unit_timeout
    )


def _quarantine_log(cache: Optional[ResultCache]):
    """A quarantine log next to the cache's corrupt-object quarantine
    (memory-only when no cache directory is in play)."""
    from repro.resilience import QuarantineLog

    if cache is None:
        return QuarantineLog()
    return QuarantineLog(directory=cache.quarantine_dir)


def _print_quarantine(quarantine, only_units=None) -> None:
    """Summarize this run's quarantined units (the persisted log keeps
    records across runs; ``only_units`` restricts to this run's holes)."""
    records = quarantine.load()
    if only_units is not None:
        records = [r for r in records if r.unit_id in set(only_units)]
    if not records:
        return
    units = ", ".join(sorted(r.unit_id for r in records))
    where = f" (log: {quarantine.path})" if quarantine.path else ""
    print(f"[quarantine: {len(records)} unit(s) — {units}{where}]")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.resilience import QuarantineLog

    config = FleetConfig(
        n_nodes=args.nodes,
        agent=args.agent,
        seed=args.seed,
        duration_s=args.seconds,
        rack_size=args.rack_size,
        fault=_parse_fault(args),
    )
    quarantine = QuarantineLog()
    journal = None
    if args.journal:
        from repro.journal.pipelines import open_fleet_journal

        journal = open_fleet_journal(
            default_cache_dir(), config, args.workers, resume=args.resume
        )
    try:
        driver = FleetDriver(
            config,
            workers=args.workers,
            resilience=_retry_policy(args),
            quarantine=quarantine,
            journal=journal,
        )
        started = time.perf_counter()
        with run_tracing(
            journal, enabled_=args.trace,
            kind="fleet", nodes=args.nodes, workers=args.workers,
        ):
            aggregate = driver.run()
        wall = time.perf_counter() - started
        print(aggregate.render())
        # driver.workers, not args.workers: the pool is capped at n_nodes.
        print(f"[{driver.workers} worker(s), {wall:.1f}s wall]")
        if journal is not None:
            print(journal_status_line(journal))
        _print_quarantine(quarantine)
    finally:
        if journal is not None:
            journal.close()
    return 0


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    if args.emit_experiments:
        # Fail before the (minutes-long) run, not after it.
        directory = os.path.dirname(
            os.path.abspath(args.emit_experiments)
        )
        if not os.path.isdir(directory):
            raise SystemExit(
                f"repro: error: cannot write {args.emit_experiments}: "
                f"{directory} is not a directory"
            )
    if args.scale is not None:
        scale = args.scale
    else:
        scale = 0.33 if args.quick else 1.0
    cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    quarantine = _quarantine_log(cache)
    journal = None
    if args.journal:
        from repro.journal.pipelines import open_reproduce_journal

        journal = open_reproduce_journal(
            args.cache_dir or default_cache_dir(),
            args.only, scale, resume=args.resume,
        )
    elif args.resume:
        raise SystemExit(
            "repro: error: --resume needs the journal (no --no-journal)"
        )
    started = time.perf_counter()
    try:
        with run_tracing(
            journal, enabled_=args.trace,
            kind="reproduce", scale=scale, workers=args.workers,
        ):
            runs = reproduce_all(
                parallel=args.parallel,
                workers=args.workers,
                scale=scale,
                only=args.only,
                on_result=_print_run,
                cache=cache,
                resilience=_retry_policy(args),
                quarantine=quarantine,
                journal=journal,
            )
        wall = time.perf_counter() - started
        mode = "parallel/series" if args.parallel else "serial"
        partial = sum(1 for run in runs if run.partial)
        summary = f"[reproduce-all: {len(runs)} artifacts"
        if partial:
            summary += f" ({partial} PARTIAL)"
        print(f"{summary}, {mode}, {wall:.1f}s wall total]")
        if cache is not None:
            print(f"[cache: {cache.stats.render()} dir={cache.directory}]")
        if journal is not None:
            print(journal_status_line(journal))
        _print_quarantine(
            quarantine, only_units=[h for run in runs for h in run.holes]
        )
    finally:
        if journal is not None:
            journal.close()
    if args.emit_experiments:
        text = render_experiments_markdown(runs, quick=args.quick)
        with open(args.emit_experiments, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[wrote {args.emit_experiments}]")
    return 0


def render_experiments_markdown(
    runs: List[ArtifactRun], quick: bool = False
) -> str:
    """EXPERIMENTS.md-style measured-output tables for ``runs``."""
    lines = [
        "# Measured outputs",
        "",
        "Generated by `repro reproduce-all --emit-experiments`"
        + (" (--quick pass)." if quick else " (full pass)."),
        "",
    ]
    for run in runs:
        result = run.result
        lines.append(f"## {result.name}: {result.title}")
        lines.append("")
        lines.append("| " + " | ".join(result.columns) + " |")
        lines.append("|" + "|".join("---" for _ in result.columns) + "|")
        for row in result.rows:
            lines.append(
                "| "
                + " | ".join(
                    result.format_cell(row.get(col))
                    for col in result.columns
                )
                + " |"
            )
        for note in result.notes:
            lines.append(f"\n*{note}*")
        lines.append(f"\n`{run.wall_seconds:.1f}s wall`")
        lines.append("")
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner, load_spec

    if args.sweep_command == "list":
        specs = []
        try:
            names = sorted(os.listdir(args.directory))
        except OSError as error:
            raise SystemExit(f"repro: error: {error}")
        for name in names:
            if not name.endswith(".toml"):
                continue
            path = os.path.join(args.directory, name)
            try:
                spec = load_spec(path)
                cells = len(spec.expand())
            except (OSError, ValueError) as error:
                print(f"  {path}: INVALID ({error})")
                continue
            specs.append((path, spec, cells))
        if not specs:
            print(f"no campaign specs (*.toml) under {args.directory}")
            return 0
        print("campaigns:")
        for path, spec, cells in specs:
            fault_kinds = ",".join(
                sorted({axis.kind for axis in spec.faults})
            ) or "none"
            print(
                f"  {path}: {spec.name} — {cells} cells "
                f"({len(spec.agents)} agents × {len(spec.scales)} scales "
                f"× {len(spec.seeds)} seeds; faults: {fault_kinds})"
            )
        return 0

    try:
        spec = load_spec(args.spec)
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {args.spec}: {error}")

    if args.sweep_command == "show":
        units = spec.expand()
        print(f"== campaign: {spec.name} — {len(units)} cells ==")
        for unit in units:
            print(f"  {unit.unit_id()}")
        return 0

    assert args.sweep_command == "run"
    cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    quarantine = _quarantine_log(cache)
    journal = None
    if args.journal:
        from repro.journal.pipelines import open_sweep_journal

        journal = open_sweep_journal(
            args.cache_dir or default_cache_dir(), spec, resume=args.resume
        )
    try:
        runner = SweepRunner(
            spec,
            workers=args.workers,
            cache=cache,
            resilience=_retry_policy(args),
            quarantine=quarantine,
            journal=journal,
        )
        with run_tracing(
            journal, enabled_=args.trace,
            kind="sweep", campaign=spec.name, workers=args.workers,
        ):
            report = runner.run()
        print(report.render())
        print(
            f"[sweep: {len(report.records)} cells, "
            f"{report.executed} executed, "
            f"{report.from_cache} from cache, "
            f"{report.wall_seconds:.1f}s wall]"
        )
        if cache is not None:
            print(f"[cache: {cache.stats.render()} dir={cache.directory}]")
        if journal is not None:
            print(journal_status_line(journal))
        _print_quarantine(quarantine, only_units=report.holes)
    finally:
        if journal is not None:
            journal.close()
    return 0


def _chaos_fleet(args, plan, policy, quarantine) -> List[str]:
    config = FleetConfig(
        n_nodes=args.nodes, agent=args.agent, seed=args.seed,
        duration_s=args.seconds,
    )
    baseline = FleetDriver(config, workers=args.workers).run()
    print(f"[baseline: digest {baseline.digest()}]")
    chaotic = FleetDriver(
        config, workers=args.workers,
        resilience=policy, quarantine=quarantine, chaos=plan,
    ).run()
    suffix = " PARTIAL" if chaotic.partial else ""
    print(f"[chaos:    digest {chaotic.digest()}{suffix}]")
    if chaotic.partial:
        # Holes are verified against the poison set by the caller; a
        # partial aggregate legitimately diverges from the baseline.
        return []
    if chaotic.digest() != baseline.digest():
        return ["fleet digest diverged under faults with nothing "
                "quarantined"]
    return []


def _chaos_reproduce(args, plan, policy, quarantine) -> List[str]:
    def run_all(cache=None, chaos=None):
        return reproduce_all(
            parallel=True,
            workers=args.workers,
            scale=args.scale,
            only=args.only,
            cache=cache,
            resilience=policy,
            quarantine=quarantine if chaos is not None or cache else None,
            chaos=chaos,
        )

    def digests(runs):
        return {
            run.result.name: experiment_digest(run.result) for run in runs
        }

    if plan.kind == "corrupt_cache":
        return _chaos_corrupt_cache(
            plan,
            lambda cache: digests(run_all(cache=cache)),
        )

    base = digests(run_all())
    print(f"[baseline: {len(base)} artifact digest(s)]")
    failures: List[str] = []
    for run in run_all(chaos=plan):
        name = run.result.name
        if run.partial:
            print(f"[chaos: {name} PARTIAL — "
                  f"holes: {', '.join(run.holes)}]")
            continue
        if experiment_digest(run.result) == base.get(name):
            print(f"[chaos: {name} digest matches baseline]")
        else:
            print(f"[chaos: {name} digest DIVERGED]")
            failures.append(f"{name}: digest diverged under faults")
    return failures


def _chaos_sweep(args, plan, policy, quarantine) -> List[str]:
    from repro.sweep import SweepRunner, load_spec

    try:
        spec = load_spec(args.spec)
    except OSError as error:
        raise SystemExit(f"repro: error: cannot read {args.spec}: {error}")

    def run_campaign(cache=None, chaos=None):
        return SweepRunner(
            spec,
            workers=args.workers,
            cache=cache,
            resilience=policy,
            quarantine=quarantine if chaos is not None or cache else None,
            chaos=chaos,
        ).run()

    if plan.kind == "corrupt_cache":
        return _chaos_corrupt_cache(
            plan,
            lambda cache: {"campaign": run_campaign(cache=cache).digest()},
        )

    baseline = run_campaign()
    print(f"[baseline: digest {baseline.digest()}]")
    report = run_campaign(chaos=plan)
    suffix = " PARTIAL" if report.partial else ""
    print(f"[chaos:    digest {report.digest()}{suffix}]")
    if report.partial:
        return []
    if report.digest() != baseline.digest():
        return ["campaign digest diverged under faults with nothing "
                "quarantined"]
    return []


def _chaos_corrupt_cache(plan, run_with_cache) -> List[str]:
    """Cold run through a write-corrupting cache, then a warm rerun
    through a plain cache on the same directory: every corrupt object
    must be quarantined (never trusted) and the warm digests must still
    match the cold ones bit-for-bit.
    """
    import shutil
    import tempfile

    from repro.resilience import ChaosCache

    tmp = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    try:
        cold_cache = ChaosCache(directory=tmp, plan=plan)
        cold = run_with_cache(cold_cache)
        corrupted = len(cold_cache.corrupted_keys)
        print(f"[chaos: corrupted {corrupted} cache object(s) on disk]")
        warm_cache = ResultCache(tmp)
        warm = run_with_cache(warm_cache)
        print(f"[chaos: warm rerun quarantined "
              f"{warm_cache.stats.corrupt} corrupt object(s); "
              f"{warm_cache.stats.render()}]")
        failures: List[str] = []
        if corrupted == 0:
            print("[chaos: WARNING — no cache writes selected; raise "
                  "--probability for a meaningful run]")
        if warm_cache.stats.corrupt != corrupted:
            failures.append(
                f"corrupted {corrupted} object(s) but the warm rerun "
                f"quarantined {warm_cache.stats.corrupt}"
            )
        for name in sorted(cold):
            if warm.get(name) != cold[name]:
                failures.append(
                    f"{name}: warm digest diverged after cache corruption"
                )
        if not failures:
            print(f"[chaos: {len(cold)} digest(s) reproduced through "
                  f"corruption + quarantine]")
        return failures
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _kill_parent_command(args: argparse.Namespace) -> List[str]:
    """The journaled CLI invocation the kill-parent harness interrupts."""
    if args.target == "fleet":
        return [
            "fleet", "--nodes", str(args.nodes), "--agent", args.agent,
            "--seconds", str(args.seconds), "--seed", str(args.seed),
            "--workers", str(args.workers),
        ]
    if args.target == "reproduce":
        command = [
            "reproduce-all", "--parallel",
            "--workers", str(args.workers), "--scale", str(args.scale),
        ]
        if args.only:
            command += ["--only", *args.only]
        return command
    return ["sweep", "run", args.spec, "--workers", str(args.workers)]


def _chaos_kill_parent(args: argparse.Namespace) -> int:
    """Crash-consistency proof (DESIGN.md §12): SIGKILL the orchestrator
    mid-run in a subprocess, resume from the journal, and require (a)
    zero journaled units re-executed and (b) a sealed digest that is
    bit-identical to an uninterrupted run's.
    """
    import shutil
    import subprocess
    import tempfile

    from repro.journal.log import KILL_AFTER_ENV
    from repro.journal.pipelines import baseline_digest, resume_pipeline
    from repro.journal.registry import list_runs

    print(f"== chaos {args.target}: kill-parent after record "
          f"#{args.kill_parent} ==")
    baseline = baseline_digest(
        args.target, submission_config(args.target, args)
    )
    print(f"[baseline: digest {baseline}]")
    root = tempfile.mkdtemp(prefix="repro-kill-parent-")
    failures: List[str] = []
    try:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = root
        env[KILL_AFTER_ENV] = str(args.kill_parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        command = [sys.executable, "-m", "repro"]
        command += _kill_parent_command(args)
        # Output goes to files, not pipes: the orchestrator's pool
        # workers inherit its stdio, and a captured pipe would make the
        # harness wait on the orphans instead of just the SIGKILLed
        # orchestrator itself.
        out_path = os.path.join(root, "orchestrator.out")
        err_path = os.path.join(root, "orchestrator.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.run(
                command, env=env, stdout=out, stderr=err, timeout=600,
            )
        if proc.returncode == 0:
            failures.append(
                f"run completed before record #{args.kill_parent}; "
                f"lower --kill-parent"
            )
            return _kill_parent_verdict(failures)
        if proc.returncode != -signal.SIGKILL:
            with open(err_path, "r", encoding="utf-8") as handle:
                tail = handle.read().strip().splitlines()[-5:]
            failures.append(
                f"orchestrator exited {proc.returncode}, expected "
                f"SIGKILL: {' | '.join(tail)}"
            )
            return _kill_parent_verdict(failures)
        runs = list_runs(root)
        if len(runs) != 1:
            failures.append(
                f"expected exactly one journaled run, found {len(runs)}"
            )
            return _kill_parent_verdict(failures)
        info = runs[0]
        print(f"[killed: run {info.run_id} — {info.done_units}/"
              f"{info.total_units} units journaled, {info.status}]")
        if info.status == "sealed":
            failures.append("run sealed before the kill landed; "
                            "lower --kill-parent")
            return _kill_parent_verdict(failures)
        # A resumed run appends a second process segment to the
        # sidecar the killed orchestrator started — the merged trace
        # carries both (DESIGN.md §14).
        _result, journal, _cache = resume_pipeline(
            root, info.kind, info.manifest["config"], info.run_id,
            workers=args.workers, resumed=True,
        )
        stats = journal.stats
        re_executed = info.done_units - stats.replayed
        print(
            f"[resumed: units={info.total_units} "
            f"journaled={info.done_units} replayed={stats.replayed} "
            f"executed={stats.executed} cached={stats.cached} "
            f"re-executed={max(re_executed, 0)}]"
        )
        if re_executed > 0:
            failures.append(
                f"resume re-executed {re_executed} journaled unit(s)"
            )
        if not journal.sealed:
            failures.append("resumed run did not seal")
        elif journal.sealed_digest != baseline:
            failures.append(
                f"resumed digest {journal.sealed_digest} != "
                f"uninterrupted digest {baseline}"
            )
        else:
            print(f"[resumed: digest {journal.sealed_digest} matches "
                  f"uninterrupted run]")
        # Observability across the kill (DESIGN.md §14): the killed
        # process wrote trace segment 0, the resume appended segment 1;
        # the merged sidecar must export a valid Chrome trace.
        from repro.obs.export import chrome_trace
        from repro.obs.sidecar import read_trace, segments, trace_path

        trace_records = read_trace(trace_path(info.directory))
        heads = segments(trace_records)
        if len(heads) < 2:
            failures.append(
                f"telemetry: expected >= 2 trace segments "
                f"(killed + resumed), found {len(heads)}"
            )
        else:
            events = chrome_trace(trace_records).get("traceEvents", [])
            if not events:
                failures.append(
                    "telemetry: merged trace exported no chrome events"
                )
            else:
                print(
                    f"[telemetry: trace.jsonl merged "
                    f"{len(heads)} process segments, "
                    f"{len(events)} chrome event(s)]"
                )
        return _kill_parent_verdict(failures)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _kill_parent_verdict(failures: List[str]) -> int:
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
        return 1
    print("[chaos: OK — orchestrator death survived; resume replayed "
          "the journal and reproduced the digest]")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import ChaosPlan, QuarantineLog

    if args.target == "serve":
        if args.kill_server is None or args.kill_server < 1:
            raise SystemExit(
                "repro: error: chaos serve needs --kill-server N (N >= 1)"
            )
        if args.job == "sweep" and not args.spec:
            raise SystemExit(
                "repro: error: chaos serve --job sweep needs "
                "--spec SPEC.toml"
            )
        from repro.serve.harness import run_kill_server_harness

        return run_kill_server_harness(
            args, submission_config(args.job, args)
        )
    if args.kill_server is not None:
        raise SystemExit(
            "repro: error: --kill-server is only meaningful for the "
            "serve target"
        )
    if args.target == "sweep" and not args.spec:
        raise SystemExit(
            "repro: error: chaos sweep needs --spec SPEC.toml"
        )
    if args.kill_parent is not None:
        if args.kill_parent < 1:
            raise SystemExit(
                "repro: error: --kill-parent needs a record count >= 1"
            )
        return _chaos_kill_parent(args)
    if args.fault == "corrupt_cache":
        if args.target == "fleet":
            raise SystemExit(
                "repro: error: corrupt_cache needs a cached target "
                "(reproduce or sweep)"
            )
        if args.poison:
            raise SystemExit(
                "repro: error: --poison targets worker faults; "
                "corrupt_cache selects cache keys by hash"
            )
    if args.fault == "hang" and args.unit_timeout is None:
        # A hang without a deadline would stall the run by design.
        args.unit_timeout = 5.0
        print("[chaos: hang fault with no --unit-timeout; "
              "defaulting to 5s]")
    plan = ChaosPlan(
        kind=args.fault,
        probability=args.probability,
        seed=args.chaos_seed,
        poison_units=tuple(args.poison or ()),
    )
    policy = _retry_policy(args)
    quarantine = QuarantineLog()
    print(f"== chaos {args.target}: {plan.describe()} "
          f"retries={policy.max_retries} "
          f"timeout={policy.unit_timeout_s or 'none'} ==")
    if args.target == "fleet":
        failures = _chaos_fleet(args, plan, policy, quarantine)
    elif args.target == "reproduce":
        failures = _chaos_reproduce(args, plan, policy, quarantine)
    else:
        failures = _chaos_sweep(args, plan, policy, quarantine)
    records = sorted(quarantine.load(), key=lambda r: r.unit_id)
    for record in records:
        detail = f" — {record.error}" if record.error else ""
        print(f"[quarantined: {record.unit_id} ({record.kind} after "
              f"{record.attempts} attempts{detail})]")
    holes = sorted({record.unit_id for record in records})
    expected = sorted(set(plan.poison_units))
    if holes != expected:
        failures.append(
            f"quarantined units {holes} != poison set {expected}"
        )
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos: OK — fault={plan.kind} degraded predictably "
          f"({len(holes)} hole(s), exact)]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf import (
        build_all_report,
        build_ml_report,
        build_report,
        build_workloads_report,
        compare_reports,
        compare_warnings,
        render_comparison,
        render_report,
        write_report,
    )

    if args.compare is not None:
        new_path, baseline_path = args.compare
        with open(new_path, "r", encoding="utf-8") as handle:
            new = json.load(handle)
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        print(render_comparison(new, baseline, new_path, baseline_path))
        # One-sided benchmarks (renamed/added/removed scenarios) warn
        # instead of failing: the comparison is partial, not wrong.
        for warning in compare_warnings(new, baseline):
            print(f"WARNING: {warning}", file=sys.stderr)
        problems = compare_reports(
            new, baseline, max_regression=args.max_regression,
            gate=args.gate,
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            f"[no regression vs {baseline_path} "
            f"(gate: {args.max_regression:.0%} per {args.gate})]"
        )
        return 0

    if args.repeats < 1:
        raise SystemExit("repro: error: --repeats must be >= 1")
    builder = {
        "kernel": build_report,
        "ml": build_ml_report,
        "workloads": build_workloads_report,
        "all": build_all_report,
    }[args.suite]
    if args.trace:
        # In-memory tracer, no sidecar: the point is to measure the
        # enabled-path overhead itself (CI's obs-smoke bench gate).
        from repro.obs import spans as obs_spans

        tracer = obs_spans.activate(obs_spans.Tracer())
        try:
            report = builder(quick=args.quick, repeats=args.repeats)
        finally:
            obs_spans.deactivate()
        print(f"[trace: {len(tracer.drain())} span record(s) buffered "
              f"during the suite]")
    else:
        report = builder(quick=args.quick, repeats=args.repeats)
    output = args.output or f"BENCH_{args.suite}.json"
    print(render_report(report))
    write_report(report, output)
    print(f"[wrote {output}]")
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        for warning in compare_warnings(report, baseline):
            print(f"WARNING: {warning}", file=sys.stderr)
        problems = compare_reports(
            report, baseline, max_regression=args.max_regression,
            gate=args.gate,
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"[no regression vs {args.check_against}]")
    return 0


def _raise_terminated(signum, frame) -> None:
    raise _Terminated()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # SIGTERM gets the SIGINT treatment (DESIGN.md §12): unwind the
    # dispatch (supervised_map resets the pool on the way out), release
    # journal leases via the finally blocks, exit 143 = 128 + SIGTERM.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:
        pass  # not the main thread (embedded use); keep default handling
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "reproduce-all":
            return _cmd_reproduce_all(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "conformance":
            return cmd_conformance(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "runs":
            return cmd_runs(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except LeaseHeldError as error:
        raise SystemExit(f"repro: error: {error}")
    except ValueError as error:
        # Config validation (bad --nodes/--workers/--fault-* values):
        # present it as a usage error, not a traceback.
        raise SystemExit(f"repro: error: {error}")
    except KeyboardInterrupt:
        # The supervised dispatcher already tore the worker pool down on
        # its way out (DESIGN.md §11); resetting here as well covers a
        # Ctrl-C that lands outside any dispatch.  130 = 128 + SIGINT.
        shutdown_shared_pool()
        print("repro: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        shutdown_shared_pool()
        print("repro: terminated", file=sys.stderr)
        return 143
    finally:
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:
                pass
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
