"""``repro trace`` — export a run's telemetry sidecar.

``repro trace export RUN_ID [--format chrome] [--output PATH]`` reads
``trace.jsonl`` next to the run's journal and emits Chrome/Perfetto
trace-event JSON (open the file at ``ui.perfetto.dev``).  ``RUN_ID``
may be ``latest`` to pick the most recently created journaled run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.flags import add_cache_dir_flag
from repro.obs.export import chrome_trace
from repro.obs.sidecar import read_trace, segments, trace_path

__all__ = ["add_trace_parser", "cmd_trace"]


def add_trace_parser(sub) -> None:
    trace = sub.add_parser(
        "trace",
        help="export run telemetry (Chrome/Perfetto trace JSON)",
        description=(
            "Export the telemetry sidecar written next to a run's "
            "journal as a Chrome/Perfetto trace."
        ),
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    export = tsub.add_parser(
        "export",
        help="emit a run's trace.jsonl as Chrome trace-event JSON",
    )
    export.add_argument(
        "run_id",
        help="journaled run id, or 'latest' for the newest run",
    )
    export.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="output format (default: chrome trace-event JSON)",
    )
    export.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write to PATH instead of stdout",
    )
    add_cache_dir_flag(export)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.cache import default_cache_dir
    from repro.journal.registry import resolve_run

    cache_root = args.cache_dir or default_cache_dir()
    info = resolve_run(cache_root, args.run_id)
    if info is None:
        print(
            f"trace: no journaled run {args.run_id!r} under {cache_root}",
            file=sys.stderr,
        )
        return 2
    path = trace_path(info.directory)
    if not os.path.exists(path):
        print(
            f"trace: run has no telemetry sidecar ({path}); "
            "was it executed with tracing disabled (--no-trace)?",
            file=sys.stderr,
        )
        return 2
    records = read_trace(path)
    trace = chrome_trace(records)
    rendered = json.dumps(trace, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    spans = sum(1 for r in records if r.get("t") == "span")
    print(
        f"trace: {len(segments(records))} segment(s), {spans} span(s), "
        f"{len(trace['traceEvents'])} trace events",
        file=sys.stderr,
    )
    return 0
