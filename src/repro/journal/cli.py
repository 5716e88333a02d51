"""``repro runs``: list, inspect, and resume journaled runs.

Subcommands::

    repro runs list [--cache-dir PATH]
    repro runs show RUN_ID [--timing] [--cache-dir PATH]
    repro runs resume RUN_ID [--workers N] [--no-trace] [--cache-dir PATH]
    repro runs prune [--keep N] [--sealed-only] [--cache-dir PATH]

``RUN_ID`` may be ``latest`` (the most recently created run), here and
in ``repro trace export``.

``show --timing`` reconstructs a per-unit wall / attempts / source
table purely from the run's durable journal records, so the breakdown
works for interrupted runs too; units slower than 3x the median wall
are flagged as outliers.

``resume`` rebuilds the pipeline from the run's manifest alone (fleet
config, artifact selection, or campaign spec — whatever the original
command expanded) and re-opens the journal in resume mode: every
journaled unit replays, only un-journaled units execute, and the run
seals with a digest bit-identical to an uninterrupted run (the chaos
harness's ``--kill-parent`` mode proves exactly this).
"""

from __future__ import annotations

import argparse
import os
import shutil
import time
from typing import List, Tuple

from repro.cache import ResultCache, default_cache_dir
from repro.flags import (
    add_cache_dir_flag,
    add_cache_flags,
    add_trace_flag,
    add_workers_flag,
)
from repro.journal.lease import Lease, LeaseHeldError
from repro.journal.log import replay_records
from repro.journal.registry import RunInfo, list_runs, resolve_run
from repro.journal.run import runs_root
from repro.obs.sidecar import read_trace, segments, trace_path

__all__ = [
    "add_runs_parser",
    "cmd_runs",
    "prune_runs",
    "timing_rows",
]

#: Walls this many times over the median are flagged as outliers.
OUTLIER_FACTOR = 3.0


def add_runs_parser(sub: argparse._SubParsersAction) -> None:
    runs = sub.add_parser(
        "runs",
        help="list, inspect, and resume journaled runs (the crash-"
             "consistent run ledger under <cache>/runs/)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="every journaled run under the cache root"
    )
    add_cache_dir_flag(runs_list)
    runs_show = runs_sub.add_parser(
        "show", help="one run's manifest, progress, and status"
    )
    runs_show.add_argument("run_id", metavar="RUN_ID")
    runs_show.add_argument(
        "--timing", action="store_true",
        help="per-unit wall/attempts/source table rebuilt from the "
             "journal records (works for interrupted runs)",
    )
    add_cache_dir_flag(runs_show)
    runs_resume = runs_sub.add_parser(
        "resume",
        help="re-open an interrupted run: replay journaled units, "
             "execute only the rest, seal",
    )
    runs_resume.add_argument("run_id", metavar="RUN_ID")
    add_workers_flag(
        runs_resume, None,
        "pool size for the remaining units (default: the fleet "
        "manifest's worker count, else 1)",
    )
    add_cache_flags(runs_resume)
    add_trace_flag(runs_resume)
    runs_prune = runs_sub.add_parser(
        "prune",
        help="delete old run directories from <cache>/runs/ (running "
             "runs — lease held — are always refused)",
    )
    runs_prune.add_argument(
        "--keep", type=int, default=0, metavar="N",
        help="keep the N newest prunable runs (default: %(default)s — "
             "prune every non-running run)",
    )
    runs_prune.add_argument(
        "--sealed-only", action="store_true",
        help="prune only sealed runs; interrupted (resumable) runs are "
             "kept",
    )
    add_cache_dir_flag(runs_prune)


def _cache_root(args: argparse.Namespace) -> str:
    return args.cache_dir or default_cache_dir()


def _render_info(info: RunInfo) -> str:
    age = ""
    if info.created_at:
        age = f" age={max(0.0, time.time() - info.created_at):.0f}s"
    return (
        f"{info.run_id}  {info.kind:<9} {info.status:<11} "
        f"{info.done_units}/{info.total_units} done "
        f"({info.executed_units} executed, {info.cached_units} cached, "
        f"{info.quarantined_units} quarantined){age}"
    )


def _cmd_runs_list(args: argparse.Namespace) -> int:
    root = _cache_root(args)
    runs = list_runs(root)
    if not runs:
        print(f"no journaled runs under {root}")
        return 0
    print(f"journaled runs under {root}:")
    for info in runs:
        print(f"  {_render_info(info)}")
    return 0


def timing_rows(records: List[dict]) -> List[dict]:
    """Per-unit timing breakdown from durable journal records.

    Purely record-driven — no sidecar needed — so it reconstructs the
    same table for interrupted runs.  Each row is
    ``{"unit", "wall", "attempts", "source", "fault", "outlier"}``
    where ``source`` is executed/cached/quarantined/pending, ``fault``
    is a quarantined unit's recorded fault kind (else ``None``), and
    ``outlier`` marks executed walls above ``OUTLIER_FACTOR`` x the
    median executed wall.  Rows sort slowest-first (walls first, then
    the rest in journal order).
    """
    attempts: dict = {}
    outcome: dict = {}
    order: List[str] = []
    for record in records:
        unit = record.get("unit")
        if not isinstance(unit, str):
            continue
        if unit not in attempts and unit not in outcome:
            order.append(unit)
        kind = record.get("kind")
        if kind == "UNIT_DISPATCHED":
            attempts[unit] = attempts.get(unit, 0) + 1
        elif kind == "UNIT_DONE":
            wall = record.get("wall")
            outcome[unit] = (
                float(wall) if isinstance(wall, (int, float)) else None,
                "executed" if record.get("executed", True) else "cached",
                None,
            )
        elif kind == "UNIT_QUARANTINED":
            outcome[unit] = (None, "quarantined", record.get("fault"))
    rows = []
    for unit in order:
        wall, source, fault = outcome.get(unit, (None, "pending", None))
        rows.append({
            "unit": unit,
            "wall": wall,
            "attempts": attempts.get(unit, 0),
            "source": source,
            "fault": fault,
            "outlier": False,
        })
    executed_walls = sorted(
        row["wall"] for row in rows
        if row["source"] == "executed" and row["wall"] is not None
    )
    if executed_walls:
        mid = len(executed_walls) // 2
        median = (
            executed_walls[mid] if len(executed_walls) % 2
            else (executed_walls[mid - 1] + executed_walls[mid]) / 2.0
        )
        if median > 0:
            for row in rows:
                if (
                    row["source"] == "executed"
                    and row["wall"] is not None
                    and row["wall"] > OUTLIER_FACTOR * median
                ):
                    row["outlier"] = True
    rows.sort(
        key=lambda row: (
            row["wall"] is None,
            -(row["wall"] or 0.0),
            row["unit"],
        )
    )
    return rows


def _print_timing(info: RunInfo) -> None:
    records, _valid = replay_records(
        os.path.join(info.directory, "log.bin")
    )
    rows = timing_rows(records)
    if not rows:
        print("  timing: no unit records journaled yet")
        return
    width = max(len(row["unit"]) for row in rows)
    width = max(width, len("unit"))
    print("  per-unit timing (journal-reconstructed):")
    print(f"    {'unit':<{width}}  {'wall_s':>9}  {'att':>3}  source")
    for row in rows:
        wall = (
            f"{row['wall']:.3f}" if row["wall"] is not None else "-"
        )
        line = (
            f"    {row['unit']:<{width}}  {wall:>9}  "
            f"{row['attempts']:>3}  {row['source']}"
        )
        if row["fault"]:
            line += f" ({row['fault']})"
        if row["outlier"]:
            line += f"  << outlier (>{OUTLIER_FACTOR:.0f}x median)"
        print(line)
    sidecar = trace_path(info.directory)
    if os.path.exists(sidecar):
        trace = read_trace(sidecar)
        spans = sum(1 for record in trace if record.get("t") == "span")
        print(
            f"  telemetry: trace.jsonl — {len(segments(trace))} "
            f"segment(s), {spans} span(s) "
            f"(repro trace export {info.run_id})"
        )


def _cmd_runs_show(args: argparse.Namespace) -> int:
    root = _cache_root(args)
    info = resolve_run(root, args.run_id)
    if info is None:
        print(f"repro: error: no journaled run {args.run_id!r} "
              f"under {root}")
        return 1
    print(f"run {info.run_id} ({info.kind}) — {info.status}")
    print(f"  directory: {info.directory}")
    print(
        f"  units: {info.done_units}/{info.total_units} done "
        f"({info.executed_units} executed, {info.cached_units} cached, "
        f"{info.quarantined_units} quarantined)"
    )
    if info.sealed_digest is not None:
        print(f"  sealed digest: {info.sealed_digest}")
    plan = info.manifest.get("plan", {})
    if plan:
        keys = ", ".join(sorted(plan))
        print(f"  plan: {keys}")
    config = info.manifest.get("config", {})
    for key in sorted(config):
        print(f"  config.{key} = {config[key]!r}")
    if getattr(args, "timing", False):
        _print_timing(info)
    return 0


def _cmd_runs_resume(args: argparse.Namespace) -> int:
    from repro.journal.pipelines import PIPELINES, launch, print_report

    root = _cache_root(args)
    info = resolve_run(root, args.run_id)
    if info is None:
        print(f"repro: error: no journaled run {args.run_id!r} under "
              f"{root}")
        return 1
    pipeline = PIPELINES.get(info.kind)
    if pipeline is None:
        print(f"repro: error: run {info.run_id} has unknown kind "
              f"{info.kind!r}")
        return 1
    workers = args.workers
    if workers is None:
        # A fleet resumes at the pool size its manifest froze.
        workers = info.manifest.get("plan", {}).get("workers", 1)
    print_report(launch(
        info.kind,
        pipeline.config_from_payload(info.manifest["config"]),
        cache_root=root,
        workers=workers,
        resume=True,
        run_id=info.run_id,
        open_cache=ResultCache if args.cache else None,
        trace=args.trace,
        on_result=pipeline.stream,
        resumed=True,
    ))
    return 0


def prune_runs(
    cache_root: str,
    keep: int = 0,
    sealed_only: bool = False,
) -> Tuple[List[RunInfo], List[RunInfo], List[RunInfo]]:
    """Delete old run directories; never touch a running run.

    Prunable runs are everything not running — sealed runs always,
    interrupted runs unless ``sealed_only`` — and the newest ``keep``
    prunable runs are spared (the registry lists newest first).  Each
    run is deleted under its own lease: a run claimed since the
    registry scan is refused like a running one, and releasing the
    lease removes the lease file.

    Returns:
        ``(pruned, kept, refused)``: what was deleted, what was spared
        (kept by ``keep``/``sealed_only``), and the running runs that
        were refused.
    """
    if keep < 0:
        raise ValueError("keep must be >= 0")
    pruned: List[RunInfo] = []
    kept: List[RunInfo] = []
    refused: List[RunInfo] = []
    prunable: List[RunInfo] = []
    for info in list_runs(cache_root):
        if info.status == "running":
            refused.append(info)
        elif sealed_only and info.status != "sealed":
            kept.append(info)
        else:
            prunable.append(info)
    kept.extend(prunable[:keep])
    root = runs_root(cache_root)
    for info in prunable[keep:]:
        lease = Lease(os.path.join(root, f"{info.run_id}.lease"))
        try:
            lease.acquire()
        except LeaseHeldError:
            refused.append(info)
            continue
        try:
            shutil.rmtree(info.directory, ignore_errors=True)
        finally:
            lease.release()
        pruned.append(info)
    return pruned, kept, refused


def _cmd_runs_prune(args: argparse.Namespace) -> int:
    root = _cache_root(args)
    try:
        pruned, kept, refused = prune_runs(
            root, keep=args.keep, sealed_only=args.sealed_only
        )
    except ValueError as error:
        print(f"repro: error: {error}")
        return 2
    for info in refused:
        print(f"  refused {info.run_id} ({info.kind}): running — a live "
              f"orchestrator owns it")
    for info in pruned:
        print(f"  pruned {info.run_id} ({info.kind}, {info.status})")
    print(
        f"[runs prune: {len(pruned)} pruned, {len(kept)} kept, "
        f"{len(refused)} running refused under {root}]"
    )
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    if args.runs_command == "list":
        return _cmd_runs_list(args)
    if args.runs_command == "show":
        return _cmd_runs_show(args)
    if args.runs_command == "prune":
        return _cmd_runs_prune(args)
    assert args.runs_command == "resume"
    return _cmd_runs_resume(args)
