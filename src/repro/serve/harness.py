"""``repro chaos serve``: the kill-server crash-consistency proof.

Extends the PR 8 ``--kill-parent`` argument to the control plane: if
the *server* is the orchestrator, then SIGKILLing it mid-job and
restarting must lose nothing.  The harness:

1. computes the job's uninterrupted digest in-process (no journal, no
   cache — ground truth);
2. starts a real ``repro serve start`` subprocess with
   ``REPRO_JOURNAL_KILL_AFTER=N`` armed, submits the job over the
   socket, and waits for the server to SIGKILL itself after its Nth
   durable journal record;
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

Any deviation is a loud ``CHAOS FAILURE`` and a nonzero exit.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["run_kill_server_harness"]

SERVER_DEATH_TIMEOUT_S = 600.0
JOB_TIMEOUT_S = 600.0


def _server_command(
    root: str, socket_path: str, extra: Tuple[str, ...] = ()
) -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve", "start",
        "--cache-dir", root, "--socket", socket_path, *extra,
    ]


def _server_env(root: str, kill_after: Optional[int] = None) -> Dict[str, str]:
    from repro.journal.log import KILL_AFTER_ENV

    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = root
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    return env


def _start_server(
    root: str,
    socket_path: str,
    log_stem: str,
    kill_after: Optional[int] = None,
    extra: Tuple[str, ...] = (),
) -> subprocess.Popen:
    # Output to files, not pipes: pool workers inherit the server's
    # stdio and a captured pipe would block on the orphans.
    out = open(os.path.join(root, f"{log_stem}.out"), "wb")
    err = open(os.path.join(root, f"{log_stem}.err"), "wb")
    try:
        return subprocess.Popen(
            _server_command(root, socket_path, extra),
            env=_server_env(root, kill_after),
            stdout=out, stderr=err,
        )
    finally:
        out.close()
        err.close()


def _leases(root: str) -> List[str]:
    from repro.journal.run import runs_root

    try:
        return sorted(
            name for name in os.listdir(runs_root(root))
            if name.endswith(".lease")
        )
    except OSError:
        return []


def _tail(root: str, log_stem: str) -> str:
    try:
        with open(
            os.path.join(root, f"{log_stem}.err"), "r", encoding="utf-8"
        ) as handle:
            lines = handle.read().strip().splitlines()
        return " | ".join(lines[-5:]) or "(empty stderr)"
    except OSError:
        return "(no stderr)"


def _verdict(failures: List[str]) -> int:
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
        return 1
    print("[chaos: OK — server death survived; the successor adopted "
          "the run, re-executed nothing, and reproduced the digest]")
    return 0


def _phase_kill_resume(
    args: argparse.Namespace,
    config: Dict[str, Any],
    root: str,
    failures: List[str],
) -> None:
    """Steps 1–4: SIGKILL the serving orchestrator, adopt, verify."""
    from repro.journal.pipelines import baseline_digest
    from repro.journal.registry import inspect_run
    from repro.serve.client import ServeClient, wait_for_server

    baseline = baseline_digest(args.job, config)
    print(f"[baseline: digest {baseline}]")

    socket_path = os.path.join(root, "serve.sock")
    server = _start_server(
        root, socket_path, "server1", kill_after=args.kill_server
    )
    try:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)
        reply = client.submit(args.job, config, workers=args.workers)
        if not reply.get("ok"):
            failures.append(f"submission rejected: {reply.get('error')}")
            return
        run_id = reply["run_id"]
        print(f"[submitted: job {reply['job_id']} run {run_id} "
              f"to pid {server.pid}]")
        try:
            server.wait(timeout=SERVER_DEATH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(
                f"server outlived the kill budget; is "
                f"--kill-server {args.kill_server} larger than the "
                f"job's record count?"
            )
            return
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if server.returncode != -signal.SIGKILL:
        failures.append(
            f"server exited {server.returncode}, expected SIGKILL: "
            f"{_tail(root, 'server1')}"
        )
        return
    info = inspect_run(root, run_id)
    if info is None:
        failures.append(
            f"no journaled run {run_id} survived the kill"
        )
        return
    print(f"[killed: run {info.run_id} — {info.done_units}/"
          f"{info.total_units} units journaled, {info.status}]")
    if info.status == "sealed":
        failures.append(
            "run sealed before the kill landed; lower --kill-server"
        )
        return
    pre_kill_done = info.done_units

    # The successor: same cache root, no kill switch.  Startup adoption
    # must pick the run up without any client involvement.
    server2 = _start_server(root, socket_path, "server2")
    try:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        job: Optional[Dict[str, Any]] = None
        while time.monotonic() < deadline:
            job = client.find_by_run(run_id)
            if job is not None and job["status"] in (
                "done", "failed", "cancelled", "expired", "drained"
            ):
                break
            time.sleep(0.2)
        if job is None:
            failures.append(
                f"successor never adopted run {run_id}"
            )
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
        counters = job.get("counters") or {}
        replayed = int(counters.get("replayed", 0))
        re_executed = pre_kill_done - replayed
        print(
            f"[adopted: units={counters.get('total')} "
            f"journaled={pre_kill_done} replayed={replayed} "
            f"executed={counters.get('executed')} "
            f"cached={counters.get('cached')} "
            f"re-executed={max(re_executed, 0)}]"
        )
        if re_executed > 0:
            failures.append(
                f"adoption re-executed {re_executed} journaled unit(s)"
            )
        if job.get("digest") != baseline:
            failures.append(
                f"adopted digest {job.get('digest')} != uninterrupted "
                f"digest {baseline}"
            )
        else:
            print(f"[adopted: digest {job['digest']} matches "
                  f"uninterrupted run]")
        reply = client.drain()
        if not reply.get("ok"):
            failures.append(f"drain rejected: {reply.get('error')}")
        server2.wait(timeout=60.0)
        if server2.returncode != 0:
            failures.append(
                f"drained server exited {server2.returncode}, "
                f"expected 0: {_tail(root, 'server2')}"
            )
    except subprocess.TimeoutExpired:
        failures.append("successor did not exit after drain")
    finally:
        if server2.poll() is None:
            server2.kill()
            server2.wait()
    leftover = _leases(root)
    if leftover:
        failures.append(
            f"leases left behind after drain: {', '.join(leftover)}"
        )


def _phase_backpressure_drain(
    args: argparse.Namespace, root: str, failures: List[str]
) -> None:
    """Step 5: bounded admission + SIGTERM drain on a fresh root."""
    from repro.fleet.config import FleetConfig
    from repro.journal.pipelines import fleet_payload
    from repro.serve.client import ServeClient, wait_for_server

    os.makedirs(root, exist_ok=True)
    socket_path = os.path.join(root, "serve.sock")
    server = _start_server(
        root, socket_path, "server3",
        extra=("--queue-limit", "1", "--drain-grace", "0.5"),
    )
    try:
        wait_for_server(socket_path, timeout=30.0)
        client = ServeClient(socket_path, timeout=10.0)

        def long_fleet(seed: int) -> Dict[str, Any]:
            return fleet_payload(FleetConfig(
                n_nodes=max(args.nodes, 16), agent=args.agent,
                seed=seed, duration_s=3600,
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
        server.wait(timeout=60.0)
        if server.returncode != 143:
            failures.append(
                f"SIGTERM drain exited {server.returncode}, expected "
                f"143: {_tail(root, 'server3')}"
            )
        else:
            print("[drain: SIGTERM → exit 143]")
    except subprocess.TimeoutExpired:
        failures.append("server did not exit within 60s of SIGTERM")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
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
    import shutil

    print(f"== chaos serve: kill-server after record "
          f"#{args.kill_server} ({args.job} job) ==")
    root = tempfile.mkdtemp(prefix="repro-kill-server-")
    failures: List[str] = []
    try:
        _phase_kill_resume(args, config, root, failures)
        if not failures:
            _phase_backpressure_drain(
                args, os.path.join(root, "phase-b"), failures
            )
        return _verdict(failures)
    finally:
        shutil.rmtree(root, ignore_errors=True)
