"""``repro chaos serve``: the kill-server crash-consistency proof.

Extends the PR 8 ``--kill-parent`` argument to the control plane: if
the *server* is the orchestrator, then SIGKILLing it mid-job and
restarting must lose nothing.  The harness:

1. computes the job's uninterrupted digest in-process (no journal, no
   cache — ground truth);
2. starts a real ``repro serve start`` subprocess with
   ``REPRO_JOURNAL_KILL_AFTER=N`` armed, submits the job over the
   socket, and waits for the server to SIGKILL itself after its Nth
   journal commit (one per completed unit, DESIGN.md §12);
3. verifies the interrupted run is on disk (journaled progress, not
   sealed), then starts a *second* server on the same cache root: it
   must adopt the run via the lease dead-pid steal, re-execute **zero**
   journaled units, and seal with a digest bit-identical to step 1;
4. drains the second server (exit 0) and requires every journal lease
   to be released;
5. separately proves the admission surface: a ``--queue-limit 1``
   server must answer the third concurrent submission with an explicit
   backpressure rejection, and SIGTERM must drain it — cancelling the
   in-flight job, releasing its lease — with exit 143.

Any deviation is a loud ``CHAOS FAILURE`` and a nonzero exit.  Steps
2–3 are built from the kill-switch pieces ``--kill-parent`` uses
(:func:`repro.chaos.spawned` / ``killed_run`` / ``check_resumed`` /
``verdict``); only the victim and the successor are servers here.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.chaos import (
    check_resumed,
    killed_run,
    spawned,
    stderr_tail,
    verdict,
)
from repro.journal.pipelines import PIPELINES, baseline_digest
from repro.journal.run import runs_root
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.jobs import TERMINAL_STATUSES

__all__ = ["run_kill_server_harness"]

JOB_TIMEOUT_S = 600.0


def _server(root: str, log_stem: str, *extra: str, **spawn_options: Any):
    """A ``repro serve start`` child on ``root``'s socket."""
    return spawned(
        ["serve", "start", "--cache-dir", root,
         "--socket", os.path.join(root, "serve.sock"), *extra],
        root, log_stem, **spawn_options,
    )


def _leases(root: str) -> List[str]:
    try:
        return sorted(
            name for name in os.listdir(runs_root(root))
            if name.endswith(".lease")
        )
    except OSError:
        return []


def _phase_kill_resume(
    args: argparse.Namespace,
    config: Dict[str, Any],
    root: str,
    failures: List[str],
) -> None:
    """Steps 1–4: SIGKILL the serving orchestrator, adopt, verify."""
    baseline = baseline_digest(args.job, config)
    print(f"[baseline: digest {baseline}]")

    socket_path = os.path.join(root, "serve.sock")
    with _server(root, "server1", kill_after=args.kill_server) as server:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)
        reply = client.submit(args.job, config, workers=args.workers)
        if not reply.get("ok"):
            failures.append(f"submission rejected: {reply.get('error')}")
            return
        run_id = reply["run_id"]
        print(f"[submitted: job {reply['job_id']} run {run_id} "
              f"to pid {server.pid}]")
        killed = killed_run(
            server, "server", "--kill-server", root, "server1", run_id,
            failures,
        )
    if killed is None:
        return

    # The successor: same cache root, no kill switch.  Startup adoption
    # must pick the run up without any client involvement.
    with _server(root, "server2") as successor:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        job: Optional[Dict[str, Any]] = None
        while time.monotonic() < deadline:
            job = client.find_by_run(run_id)
            if job is not None and job["status"] in TERMINAL_STATUSES:
                break
            time.sleep(0.2)
        if job is None:
            failures.append(f"successor never adopted run {run_id}")
            return
        if not job.get("adopted"):
            failures.append(
                f"successor knows run {run_id} but did not mark it "
                f"adopted"
            )
        if job["status"] != "done":
            failures.append(
                f"adopted job ended {job['status']!r} "
                f"(error: {job.get('error')})"
            )
            return
        check_resumed(
            "adopted", killed, job.get("counters") or {},
            job.get("digest"), baseline, failures,
        )
        reply = client.drain()
        if not reply.get("ok"):
            failures.append(f"drain rejected: {reply.get('error')}")
        try:
            successor.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            failures.append("successor did not exit after drain")
        else:
            if successor.returncode != 0:
                failures.append(
                    f"drained server exited {successor.returncode}, "
                    f"expected 0: {stderr_tail(root, 'server2')}"
                )
    leftover = _leases(root)
    if leftover:
        failures.append(
            f"leases left behind after drain: {', '.join(leftover)}"
        )


def _phase_backpressure_drain(
    args: argparse.Namespace, root: str, failures: List[str]
) -> None:
    """Step 5: bounded admission + SIGTERM drain on a fresh root."""
    os.makedirs(root, exist_ok=True)
    socket_path = os.path.join(root, "serve.sock")
    with _server(
        root, "server3", "--queue-limit", "1", "--drain-grace", "0.5"
    ) as server:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)

        fleet = PIPELINES["fleet"]
        base = fleet.config_from_args(args)

        def long_fleet(seed: int) -> Dict[str, Any]:
            return fleet.payload(dataclasses.replace(
                base, n_nodes=max(base.n_nodes, 16), seed=seed,
                duration_s=3600,
            ))

        # Job 1 occupies the scheduler, job 2 fills the depth-1 queue,
        # job 3 must be rejected with the explicit backpressure shape.
        got_backpressure = False
        for attempt in range(3):
            replies = [
                client.submit("fleet", long_fleet(1000 + attempt * 10 + i),
                              workers=2)
                for i in range(3)
            ]
            rejected = [r for r in replies if r.get("backpressure")]
            if rejected:
                reply = rejected[0]
                got_backpressure = True
                if reply.get("retry_after_s", 0) <= 0:
                    failures.append(
                        "backpressure reply missing a positive "
                        "retry_after_s"
                    )
                if reply.get("queue_limit") != 1:
                    failures.append(
                        f"backpressure reply reports queue_limit="
                        f"{reply.get('queue_limit')}, expected 1"
                    )
                print(
                    f"[backpressure: {reply['error']} "
                    f"(retry in {reply['retry_after_s']:.1f}s)]"
                )
                break
            time.sleep(0.2)  # scheduler drained the queue too fast
        if not got_backpressure:
            failures.append(
                "a queue-limit-1 server accepted 9 concurrent "
                "submissions without a backpressure rejection"
            )
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            failures.append("server did not exit within 60s of SIGTERM")
        else:
            if server.returncode != 143:
                failures.append(
                    f"SIGTERM drain exited {server.returncode}, expected "
                    f"143: {stderr_tail(root, 'server3')}"
                )
            else:
                print("[drain: SIGTERM → exit 143]")
    leftover = _leases(root)
    if leftover:
        failures.append(
            f"leases left behind after SIGTERM drain: "
            f"{', '.join(leftover)}"
        )
    else:
        print("[drain: all journal leases released]")


def run_kill_server_harness(
    args: argparse.Namespace, config: Dict[str, Any]
) -> int:
    """``repro chaos serve --kill-server N --job KIND`` entry point;
    ``config`` is the job's submission payload."""
    print(f"== chaos serve: kill-server after commit "
          f"#{args.kill_server} ({args.job} job) ==")
    failures: List[str] = []
    with tempfile.TemporaryDirectory(
        prefix="repro-kill-server-", ignore_cleanup_errors=True
    ) as root:
        _phase_kill_resume(args, config, root, failures)
        if not failures:
            _phase_backpressure_drain(
                args, os.path.join(root, "phase-b"), failures
            )
    return verdict(
        failures,
        "server death survived; the successor adopted the run, "
        "re-executed nothing, and reproduced the digest",
    )
