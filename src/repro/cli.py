"""The ``python -m repro`` command line.

Subcommands::

    repro list                      # artifacts and agent kinds
    repro run fig1 [fig2 ...]       # named table/figure reproductions
    repro fleet --nodes 64 --agent overclock --workers 8
    repro reproduce-all [--workers N] [--quick] [--only ARTIFACT ...]
                        [--no-cache] [--cache-dir PATH]
                        [--emit-experiments PATH]
    repro sweep run SPEC.toml [--workers 8] [--no-cache]
    repro sweep show SPEC.toml      # expanded grid, nothing executed
    repro sweep list [DIR]          # committed campaign specs
    repro chaos fleet|reproduce|sweep [--fault KIND] [--poison UNIT]
    repro chaos fleet|reproduce|sweep --kill-parent N
    repro chaos serve --kill-server N [--job fleet|reproduce|sweep]
    repro serve start|submit|status|watch|cancel|metrics|drain|ping
    repro runs list|show|resume|prune
    repro trace export RUN_ID [--output PATH]
    repro conformance list|record|check|diff
    repro bench [--suite kernel|ml|workloads|all] [--quick]
                [--output PATH]
    repro bench --compare NEW.json BASELINE.json

``fleet``, ``reproduce-all`` and ``sweep run`` are one function
(:func:`_launch_command`): the kind's flag group becomes a config
(``journal.pipelines.PIPELINES``), and the launch ladder
(``journal.pipelines.launch``, DESIGN.md §11.2) composes result cache,
run journal (``--resume`` / ``--no-journal``),
telemetry sidecar (``--no-trace``) and the supervised dispatch policy
(``--max-retries`` / ``--unit-timeout``) around the kind's driver; each
sizes its pool with ``--workers N`` (default 1: inline, pool-free).
``run`` is the same ladder with every layer off.
Flag groups shared between subcommands are declared once, in
:mod:`repro.flags`.

``fleet`` prints a fleet-wide report ending in a content digest; runs
with the same seed agree on the digest regardless of ``--workers``,
which is how CI smoke-checks the sharding (DESIGN.md §5).
``reproduce-all`` and ``sweep run`` are incremental: work units are
looked up in a content-addressed result cache (``.repro-cache``, or
``$REPRO_CACHE_DIR`` / ``--cache-dir``), so a warm re-run executes zero
units and prints bit-identical digests (DESIGN.md §8, §9).

``repro chaos`` turns the execution substrate on itself
(:mod:`repro.chaos`): a target runs fault-free and then under an
injected worker-fault plan (DESIGN.md §11), or has its orchestrator
(``--kill-parent``, §12) or server (``--kill-server``, §13) SIGKILLed
mid-run, and must reproduce the fault-free digests bit-identically or
report the exact quarantined units.  Any command runs under a worker
fault plan set in ``$REPRO_CHAOS_PLAN`` (inline JSON); ``repro chaos
--fault`` sets it around the faulted launch only.

``bench`` writes its report to ``--output``; ``bench --compare NEW
BASELINE`` is the one regression gate over two reports.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.cache import ResultCache, default_cache_dir
from repro.conformance.cli import add_conformance_parser, cmd_conformance
from repro.flags import (
    add_cache_flags,
    add_fleet_flags,
    add_journal_flags,
    add_reproduce_flags,
    add_resilience_flags,
    add_spec_flag,
    add_workers_flag,
)
from repro.journal.cli import add_runs_parser, cmd_runs
from repro.journal.lease import LeaseHeldError
from repro.names import AGENT_KINDS, ARTIFACTS
from repro.obs.cli import add_trace_parser, cmd_trace
from repro.serve.cli import (
    add_serve_parser,
    cmd_serve,
    submission_config,
)

if TYPE_CHECKING:
    from repro.experiments.driver import ArtifactRun
    from repro.resilience.policy import RetryPolicy

__all__ = ["main"]


class _Terminated(Exception):
    """SIGTERM arrived; unwind like a Ctrl-C, exit 143."""


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
    add_fleet_flags(fleet, burst=True)
    add_workers_flag(fleet, 1, "worker processes (default: %(default)s)")
    # No cache tier: a fleet journals under the default cache root.
    fleet.set_defaults(cache=False, cache_dir=None)
    add_resilience_flags(fleet)
    add_journal_flags(fleet)

    rall = sub.add_parser(
        "reproduce-all", help="regenerate every table and figure"
    )
    add_workers_flag(
        rall, 1,
        "worker processes for the (artifact, series) units "
        "(default: %(default)s)",
    )
    rall.add_argument(
        "--quick", action="store_true",
        help="the 0.33-scale pass (an explicit --scale overrides it)",
    )
    add_reproduce_flags(rall, scale=None)
    add_cache_flags(rall)
    rall.add_argument(
        "--emit-experiments", metavar="PATH", default=None,
        help="also write the EXPERIMENTS.md measured-output tables",
    )
    add_resilience_flags(rall)
    add_journal_flags(rall)

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
    add_workers_flag(
        sweep_run, 1,
        "worker processes for cache-miss node runs (default: %(default)s)",
    )
    add_cache_flags(sweep_run)
    add_resilience_flags(sweep_run)
    add_journal_flags(sweep_run)
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
    add_workers_flag(chaos, 2, "pool size (default: %(default)s)")
    add_fleet_flags(chaos, seconds=60)
    add_reproduce_flags(chaos, scale=0.1)
    add_spec_flag(chaos)
    chaos.add_argument(
        "--kill-parent", type=int, default=None, metavar="N",
        help="crash-consistency mode (DESIGN.md §12): run the target in "
             "a subprocess, SIGKILL the orchestrator after its Nth "
             "journal commit (one per completed unit; dispatch intents "
             "carry none), resume the run, and fail unless the "
             "resume re-executes zero journaled units and seals with a "
             "digest bit-identical to an uninterrupted run",
    )
    chaos.add_argument(
        "--kill-server", type=int, default=None, metavar="N",
        help="serve target (DESIGN.md §13): start a real 'repro serve' "
             "server, submit --job over its socket, SIGKILL the server "
             "after its Nth journal commit, and fail unless a restarted "
             "server adopts the run, re-executes zero journaled units, "
             "and seals with the uninterrupted digest",
    )
    chaos.add_argument(
        "--job", choices=("fleet", "reproduce", "sweep"),
        default="fleet",
        help="serve target: which job kind the kill-server harness "
             "submits (default: %(default)s)",
    )
    add_resilience_flags(chaos)

    add_serve_parser(sub)

    add_runs_parser(sub)

    add_trace_parser(sub)

    add_conformance_parser(sub)

    bench = sub.add_parser(
        "bench",
        help="microbenchmarks vs the frozen pre-optimization "
             "implementations (ns/op and seed-ratio regression gate)",
    )
    bench.add_argument(
        "--suite", choices=("kernel", "ml", "workloads", "all"),
        default="kernel",
        help="kernel: event kernel vs the frozen seed kernel; "
             "ml: learning-epoch hot path vs the frozen per-class path; "
             "workloads: workload/substrate per-event loops vs the "
             "frozen pre-vectorization path; "
             "all: every suite in one report (default: %(default)s)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller microbenchmarks (speedup ratios stay comparable)",
    )
    bench.add_argument(
        "--output", metavar="PATH", default=None,
        help="where to write the JSON report "
             "(default: BENCH_<suite>.json)",
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


def _launch_command(kind: str, args: argparse.Namespace):
    """``repro fleet | reproduce-all | sweep run``: flags → config →
    the launch ladder → the report (DESIGN.md §11.2)."""
    from repro.journal.pipelines import PIPELINES, launch, print_report

    pipeline = PIPELINES[kind]
    launched = launch(
        kind,
        pipeline.config_from_args(args),
        cache_root=args.cache_dir or default_cache_dir(),
        workers=args.workers,
        journaled=args.journal,
        resume=args.resume,
        open_cache=ResultCache if args.cache else None,
        trace=args.trace,
        policy=_retry_policy(args),
        on_result=pipeline.stream,
    )
    print_report(launched)
    return launched


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.journal.pipelines import PIPELINES, launch

    launch(
        "reproduce", (args.artifacts, 0.33 if args.quick else 1.0),
        workers=1, journaled=False, open_cache=None,
        on_result=PIPELINES["reproduce"].stream,
    )
    return 0


def _retry_policy(args: argparse.Namespace) -> RetryPolicy:
    from repro.resilience.policy import RetryPolicy

    return RetryPolicy(
        max_retries=args.max_retries, unit_timeout_s=args.unit_timeout
    )


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
    if args.scale is None:
        args.scale = 0.33 if args.quick else 1.0
    runs = _launch_command("reproduce", args).result
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
    from repro.journal.pipelines import PIPELINES
    from repro.sweep import load_spec

    if args.sweep_command == "run":
        _launch_command("sweep", args)
        return 0

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

    from repro.sweep.runner import sweep_plan

    assert args.sweep_command == "show"
    spec = PIPELINES["sweep"].config_from_args(args)
    units = spec.expand()
    runs = sweep_plan(spec).unit_ids
    print(
        f"== campaign: {spec.name} — {len(units)} cells, "
        f"{len(runs)} node runs =="
    )
    for unit in units:
        print(f"  {unit.unit_id()}")
    print("node runs (the work units):")
    for unit_id in runs:
        print(f"  {unit_id}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.journal.pipelines import PIPELINES
    from repro.resilience.chaos import ChaosPlan

    if args.target == "serve":
        if args.kill_server is None or args.kill_server < 1:
            raise SystemExit(
                "repro: error: chaos serve needs --kill-server N (N >= 1)"
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
    from repro import chaos

    pipeline = PIPELINES[args.target]
    config = pipeline.config_from_args(args)
    if args.kill_parent is not None:
        if args.kill_parent < 1:
            raise SystemExit(
                "repro: error: --kill-parent needs a commit count >= 1"
            )
        return chaos.kill_parent_proof(
            args.target, pipeline.payload(config), args.workers,
            args.kill_parent,
        )
    if args.fault == "corrupt_cache":
        if not pipeline.cached:
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
    return chaos.worker_fault_proof(
        args.target, config, args.workers, plan, _retry_policy(args)
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf import (
        SUITES,
        build_report,
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
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.trace:
        # In-memory tracer, no sidecar: the point is to measure the
        # enabled-path overhead itself (CI's obs-smoke bench gate).
        from repro.obs import spans as obs_spans

        tracer = obs_spans.activate(obs_spans.Tracer())
        try:
            report = build_report(suites, args.quick, args.repeats)
        finally:
            obs_spans.deactivate()
        print(f"[trace: {len(tracer.drain())} span record(s) buffered "
              f"during the suite]")
    else:
        report = build_report(suites, args.quick, args.repeats)
    output = args.output or f"BENCH_{args.suite}.json"
    print(render_report(report))
    write_report(report, output)
    print(f"[wrote {output}]")
    return 0


def _raise_terminated(signum, frame) -> None:
    raise _Terminated()


def _shutdown_pool() -> None:
    """Reset the warm worker pool — imported here, not at module
    import, so building the parser loads no ``multiprocessing``."""
    from repro.resilience.pool import shutdown_shared_pool

    shutdown_shared_pool()


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
            _launch_command("fleet", args)
            return 0
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
        _shutdown_pool()
        print("repro: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        _shutdown_pool()
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
