"""Real-process chaos: SIGTERM unwinds gracefully, SIGKILL is survivable.

These spawn actual ``python -m repro`` orchestrators, so they are the
only tests that exercise the signal handlers and the ``--kill-parent``
harness exactly as a terminal or CI job would.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

SPEC = """
name = "process-chaos"
agents = ["overclock"]
scales = [2]
seeds = [0]
duration_s = 10
rack_size = 1

[[fault]]
kind = "bad_data"
intensities = [0.9]
start_s = 2
duration_s = 5
racks = [0]
"""


def _env(cache_dir):
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "REPRO_CACHE_DIR": cache_dir,
    }


def _wait_for_pool(proc, workers=2, timeout=60.0):
    """Return once ``proc`` has forked its ``workers`` pool workers.

    ``main`` installs its SIGTERM and SIGINT handling before the pool
    exists, so a signal sent after this reaches the handler, never the
    default disposition of an interpreter still importing ``repro``.
    """
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, "fleet finished before the signal"
        try:
            with open(children, "r", encoding="ascii") as fh:
                if len(fh.read().split()) >= workers:
                    return
        except OSError:
            pass  # exited between the poll and the read: asserted next
        time.sleep(0.02)
    raise AssertionError(f"no {workers} pool workers within {timeout} s")


def test_sigterm_unwinds_gracefully(tmp_path):
    """SIGTERM → pool shutdown, "repro: terminated", exit 143.

    A SIGTERM'd orchestrator must exit via the handler (code 143, the
    shell convention for 128+SIGTERM), not die on the default
    disposition (negative returncode), and must not leave pool workers
    behind.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--nodes", "64",
         "--seconds", "3600", "--workers", "2", "--no-journal"],
        env=_env(str(tmp_path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_pool(proc)
        proc.send_signal(signal.SIGTERM)
        stderr = proc.communicate(timeout=60)[1]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung orchestrator
            proc.kill()
            proc.wait()
    assert proc.returncode == 143, stderr
    assert "repro: terminated" in stderr


def test_sigint_unwinds_gracefully(tmp_path):
    """SIGINT → pool shutdown, "repro: interrupted", exit 130.

    The Ctrl-C twin of the SIGTERM test: KeyboardInterrupt must reach
    ``main``'s handler (130 = 128+SIGINT), not kill the process on the
    default disposition, and must not leave pool workers behind.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--nodes", "64",
         "--seconds", "3600", "--workers", "2", "--no-journal"],
        env=_env(str(tmp_path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_pool(proc)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1]
    finally:
        if proc.poll() is None:  # pragma: no cover — hung orchestrator
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, stderr
    assert "repro: interrupted" in stderr


def test_main_sigint_handler_shuts_shared_pool_down(monkeypatch, capsys):
    """The 130 path really tears the warm pool down, in-process.

    A KeyboardInterrupt that lands *outside* any supervised dispatch
    (here: raised from the driver before dispatching) must still leave
    ``shutdown_shared_pool`` called — no module-global pool, no live
    worker processes.
    """
    from repro.experiments import driver as driver_module
    from repro.cli import main

    seen = {}

    def grab_pool_then_interrupt(self):
        pool = driver_module.shared_pool(2)
        seen["procs"] = [
            worker.process for worker in pool._workers.values()
        ]
        raise KeyboardInterrupt()

    monkeypatch.setattr(
        driver_module.FleetDriver, "run", grab_pool_then_interrupt
    )
    assert main(
        ["fleet", "--nodes", "8", "--seconds", "10", "--workers", "2",
         "--no-journal"]
    ) == 130
    assert "repro: interrupted" in capsys.readouterr().err
    assert driver_module.shared_pool_counters()["size"] == 0
    # grow-never-shrink: a pool left warm by an earlier in-process test
    # may hold more than the 2 workers requested here
    assert len(seen["procs"]) >= 2
    for process in seen["procs"]:
        process.join(timeout=5.0)
        assert not process.is_alive()


def _kill_parent(tmp_path, target, *args):
    """The full harness: SIGKILL after the first commit (one completed
    unit), resume, bit-identical digest."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", target, *args,
         "--kill-parent", "1", "--workers", "1"],
        env=_env(str(tmp_path / "cache")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "journaled=1 replayed=1" in result.stdout
    assert "re-executed=0" in result.stdout
    assert "[chaos: OK" in result.stdout
    assert "matches uninterrupted run" in result.stdout


# One real-SIGKILL smoke per kind; every other crash point of the log
# is enumerated in-process by test_crash_points.py.


@pytest.mark.slow
def test_chaos_kill_parent_sweep_survives(tmp_path):
    spec = tmp_path / "chaos.toml"
    spec.write_text(SPEC)
    _kill_parent(tmp_path, "sweep", "--spec", str(spec))


@pytest.mark.slow
def test_chaos_kill_parent_fleet_survives(tmp_path):
    _kill_parent(tmp_path, "fleet", "--nodes", "3", "--seconds", "10")


@pytest.mark.slow
def test_chaos_kill_parent_reproduce_survives(tmp_path):
    _kill_parent(
        tmp_path, "reproduce", "--only", "table1", "--only", "table2"
    )
