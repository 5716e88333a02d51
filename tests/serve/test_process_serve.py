"""Real-process serve chaos: signals and the kill-server harness.

These spawn actual ``python -m repro serve start`` servers (and, in
the slow test, the full kill-server harness with its SIGKILL), so they
are the only serve tests that exercise the asyncio signal handlers and
process teardown exactly as a terminal or CI job would.
"""

import os
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.fleet.config import FleetConfig
from repro.journal.pipelines import baseline_digest, fleet_payload
from repro.serve.client import ServeClient, wait_for_server


def _env(cache_dir):
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
        "REPRO_CACHE_DIR": cache_dir,
    }


def _start_server(cache_dir, socket_path, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--cache-dir", cache_dir, "--socket", socket_path, *extra],
        env=_env(cache_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture()
def socket_path():
    # AF_UNIX socket paths are length-limited (~108 bytes); pytest's
    # tmp_path can exceed that, so sockets live in a short /tmp dir.
    scratch = tempfile.mkdtemp(prefix="repro-serve-")
    return os.path.join(scratch, "serve.sock")


def test_sigterm_drains_server_to_143(tmp_path, socket_path):
    proc = _start_server(str(tmp_path), socket_path)
    try:
        wait_for_server(socket_path, timeout=20.0)
        assert ServeClient(socket_path, timeout=5.0).ping()["ok"]
        proc.send_signal(signal.SIGTERM)
        output = proc.communicate(timeout=30)[0]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            proc.kill()
            proc.wait()
    assert proc.returncode == 143, output
    assert "draining" in output
    assert not os.path.exists(socket_path)  # socket cleaned up


def test_sigint_cancels_and_exits_130(tmp_path, socket_path):
    proc = _start_server(str(tmp_path), socket_path)
    try:
        wait_for_server(socket_path, timeout=20.0)
        proc.send_signal(signal.SIGINT)
        output = proc.communicate(timeout=30)[0]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, output
    assert "SIGINT" in output


def test_a_job_submitted_at_the_first_ping_runs_to_the_baseline_digest(
    tmp_path, socket_path
):
    """The server answers before its execution stack is imported; a
    job admitted in that window still runs, after the import, to the
    uninterrupted digest."""
    payload = fleet_payload(
        FleetConfig(n_nodes=4, agent="overclock", seed=3, duration_s=10)
    )
    proc = _start_server(str(tmp_path), socket_path)
    try:
        wait_for_server(socket_path, timeout=20.0)
        client = ServeClient(socket_path, timeout=60.0)
        reply = client.submit("fleet", payload, workers=2)
        assert reply["ok"], reply
        events = list(client.watch(reply["job_id"]))
        assert client.drain()["ok"]
        output = proc.communicate(timeout=30)[0]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            proc.kill()
            proc.wait()
    assert events[-1]["event"] == "done", events
    assert events[-1]["digest"] == baseline_digest("fleet", payload)
    assert proc.returncode == 0, output


def test_a_drain_straight_after_start_exits_0(tmp_path, socket_path):
    proc = _start_server(str(tmp_path), socket_path)
    try:
        wait_for_server(socket_path, timeout=20.0)
        assert ServeClient(socket_path, timeout=5.0).drain()["ok"]
        output = proc.communicate(timeout=30)[0]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, output
    assert not os.path.exists(socket_path)


def test_second_server_refuses_a_live_socket(tmp_path, socket_path):
    proc = _start_server(str(tmp_path), socket_path)
    try:
        wait_for_server(socket_path, timeout=20.0)
        rival = _start_server(str(tmp_path), socket_path)
        rival_out = rival.communicate(timeout=30)[0]
        assert rival.returncode != 0
        assert "already listening" in rival_out
        # the incumbent is unharmed
        assert ServeClient(socket_path, timeout=5.0).ping()["ok"]
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover — hung server
            proc.kill()
            proc.wait()


@pytest.mark.slow
def test_chaos_kill_server_fleet_survives(tmp_path, monkeypatch):
    """The full control-plane crash proof, as CI's serve-smoke runs it:
    SIGKILL the serving orchestrator after its 3rd journal record, and
    require adoption with zero re-executed units and a bit-identical
    sealed digest, then backpressure + SIGTERM drain."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "serve",
         "--kill-server", "3", "--job", "fleet",
         "--nodes", "8", "--seconds", "30", "--workers", "2"],
        env=_env(str(tmp_path / "unused")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "re-executed=0" in proc.stdout
    assert "[chaos: OK" in proc.stdout
    assert "matches uninterrupted run" in proc.stdout
    assert "SIGTERM → exit 143" in proc.stdout