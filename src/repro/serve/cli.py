"""``repro serve``: CLI surface of the control plane.

Subcommands::

    repro serve start   [--socket PATH] [--queue-limit N]
                        [--drain-grace S] [--cache-dir PATH]
    repro serve submit  (fleet|reproduce|sweep) [kind flags]
                        [--workers N] [--deadline S]
    repro serve status  [JOB_ID]
    repro serve watch   JOB_ID [--since SEQ]
    repro serve cancel  JOB_ID
    repro serve metrics
    repro serve drain
    repro serve ping

``start`` runs the server in the foreground (it *is* the orchestrator
process — kill it to exercise the crash path); everything else is a
client verb against the server's socket.  ``submit`` streams the job's
events until it ends.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Any, Dict, Optional

from repro.cache import default_cache_dir
from repro.flags import (
    add_cache_dir_flag,
    add_fleet_flags,
    add_reproduce_flags,
    add_spec_flag,
    add_workers_flag,
)

__all__ = ["add_serve_parser", "cmd_serve", "submission_config"]


def _add_socket_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="server socket (default: <cache>/serve.sock)",
    )
    add_cache_dir_flag(parser)


def _add_client_flags(parser: argparse.ArgumentParser) -> None:
    _add_socket_flags(parser)
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="client I/O timeout in seconds (default: %(default)s)",
    )


def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve",
        help="crash-tolerant control plane: a local job server with "
             "admission control, live drain, and journal-backed resume",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    start = serve_sub.add_parser(
        "start", help="run the server in the foreground"
    )
    _add_socket_flags(start)
    start.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="bounded admission queue size; beyond it submissions get "
             "an explicit backpressure rejection (default: %(default)s)",
    )
    start.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="S",
        help="SIGTERM grace before in-flight jobs are cancelled "
             "(default: %(default)ss)",
    )
    add_workers_flag(
        start, 2, "pool size for adopted jobs with no recorded worker count"
    )

    submit = serve_sub.add_parser(
        "submit", help="submit one job and watch it"
    )
    kind_sub = submit.add_subparsers(dest="submit_kind", required=True)
    fleet = kind_sub.add_parser("fleet")
    add_fleet_flags(fleet)
    reproduce = kind_sub.add_parser("reproduce")
    add_reproduce_flags(reproduce, scale=1.0)
    sweep = kind_sub.add_parser("sweep")
    add_spec_flag(sweep, required=True)
    for kind_parser in (fleet, reproduce, sweep):
        _add_client_flags(kind_parser)
        add_workers_flag(
            kind_parser, 2, "pool size the server runs this job with"
        )
        kind_parser.add_argument(
            "--deadline", type=float, default=None, metavar="S",
            help="cancel the job if it runs longer than S seconds",
        )

    status = serve_sub.add_parser("status", help="job status")
    status.add_argument("job_id", nargs="?", default=None)
    _add_client_flags(status)

    watch = serve_sub.add_parser("watch", help="stream a job's events")
    watch.add_argument("job_id")
    watch.add_argument("--since", type=int, default=0, metavar="SEQ")
    _add_client_flags(watch)

    cancel = serve_sub.add_parser("cancel", help="cancel a job")
    cancel.add_argument("job_id")
    _add_client_flags(cancel)

    metrics = serve_sub.add_parser(
        "metrics", help="queue / pool / cache / journal counters"
    )
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="print Prometheus text exposition instead of JSON",
    )
    _add_client_flags(metrics)

    drain = serve_sub.add_parser(
        "drain", help="graceful server shutdown (finish in-flight work)"
    )
    _add_client_flags(drain)

    ping = serve_sub.add_parser("ping", help="server liveness")
    _add_client_flags(ping)


def _socket_path(args: argparse.Namespace) -> str:
    from repro.serve.server import default_socket_path

    if args.socket:
        return args.socket
    return default_socket_path(args.cache_dir or default_cache_dir())


def _client(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    return ServeClient(_socket_path(args), timeout=args.timeout)


def _print_reply(reply: Dict[str, Any]) -> int:
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


def _render_event(message: Dict[str, Any]) -> str:
    kind = message.get("event", "?")
    parts = [f"[{message.get('job_id')}#{message.get('seq')}] {kind}"]
    progress = message.get("progress")
    if progress:
        parts.append(
            f"{progress.get('done', 0)}/{progress.get('total', 0)} done"
        )
    for key in ("unit", "digest", "error", "reason", "run_id"):
        if message.get(key) is not None:
            parts.append(f"{key}={message[key]}")
    return "  ".join(parts)


def _cmd_start(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeServer

    server = ServeServer(
        cache_root=args.cache_dir or default_cache_dir(),
        socket_path=args.socket,
        queue_limit=args.queue_limit,
        drain_grace_s=args.drain_grace,
        default_workers=args.workers,
    )
    return asyncio.run(server.run())


def submission_config(kind: str, args: argparse.Namespace) -> Dict[str, Any]:
    """The journal config payload of a ``kind`` job described by the
    shared ``--nodes/--agent/--seed/--seconds``, ``--only/--scale`` and
    ``--spec`` flags (``serve submit`` and the chaos harnesses)."""
    from repro.journal.pipelines import PIPELINES

    pipeline = PIPELINES[kind]
    return pipeline.payload(pipeline.config_from_args(args))


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    reply = client.submit(
        args.submit_kind,
        submission_config(args.submit_kind, args),
        workers=args.workers,
        deadline_s=args.deadline,
    )
    if not reply.get("ok"):
        if reply.get("backpressure"):
            print(
                f"repro: serve: {reply['error']} — retry in "
                f"{reply['retry_after_s']:.1f}s"
            )
            return 75  # EX_TEMPFAIL: explicit, retryable rejection
        print(f"repro: serve: {reply.get('error', 'submit failed')}")
        return 1
    job_id = reply["job_id"]
    note = " (deduplicated)" if reply.get("deduplicated") else ""
    print(f"[serve: job {job_id} run {reply['run_id']}{note}]")
    for message in client.watch(job_id):
        print(_render_event(message))
        if message.get("event") == "done":
            return 0
        if message.get("event") in ("failed", "cancelled", "expired"):
            return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _client(args)
    last: Optional[str] = None
    for message in client.watch(args.job_id, since=args.since):
        print(_render_event(message))
        last = message.get("event")
    return 0 if last == "done" else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeUnavailable

    if args.serve_command == "start":
        return _cmd_start(args)
    try:
        if args.serve_command == "submit":
            return _cmd_submit(args)
        if args.serve_command == "status":
            return _print_reply(_client(args).status(args.job_id))
        if args.serve_command == "watch":
            return _cmd_watch(args)
        if args.serve_command == "cancel":
            return _print_reply(_client(args).cancel(args.job_id))
        if args.serve_command == "metrics":
            if args.prometheus:
                reply = _client(args).metrics(fmt="prometheus")
                if not reply.get("ok"):
                    return _print_reply(reply)
                print(reply.get("text", ""), end="")
                return 0
            return _print_reply(_client(args).metrics())
        if args.serve_command == "drain":
            return _print_reply(_client(args).drain())
        assert args.serve_command == "ping"
        return _print_reply(_client(args).ping())
    except ServeUnavailable as error:
        print(f"repro: serve: {error}")
        return 69  # EX_UNAVAILABLE
