"""Run ownership as a kernel lock: claims, refusals, the four rules.

The owners in the process tests are real processes: the kernel, not a
forged lease file, decides who holds a run.
"""

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.journal.lease import Lease, LeaseHeldError, lease_held

#: Holds a lease — optionally after forking a child that sleeps on —
#: prints ``ready <child pid or 0>`` and waits to be killed.  A forked
#: child reports back before ``ready``: ``os.fork`` runs the at-fork
#: hooks before it returns in the child, so by then the child holds no
#: inherited lock file, and a kill right after ``ready`` cannot catch it
#: mid-fork.
OWNER = (
    "import os, sys, time\n"
    "from repro.journal.lease import Lease\n"
    "Lease(sys.argv[1]).acquire()\n"
    "child = 0\n"
    "if sys.argv[2] == 'fork':\n"
    "    started, report = os.pipe()\n"
    "    child = os.fork()\n"
    "    if child == 0:\n"
    "        os.write(report, b'x')\n"
    "        time.sleep(120)\n"
    "        os._exit(0)\n"
    "    os.read(started, 1)\n"
    "print('ready', child, flush=True)\n"
    "time.sleep(120)\n"
)


@pytest.fixture()
def lease_path(tmp_path):
    return str(tmp_path / "run.lease")


def _env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _spawn_owner(lease_path, mode="alone"):
    """The owner process and its forked child's pid (0: none)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", OWNER, lease_path, mode],
        env=_env(), stdout=subprocess.PIPE, text=True,
    )
    ready, child = proc.stdout.readline().split()
    assert ready == "ready"
    return proc, int(child)


def _claim_after_sigkill(lease_path, mode):
    owner, child = _spawn_owner(lease_path, mode)
    try:
        assert lease_held(lease_path)
        owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=30)
        if child:
            os.kill(child, 0)  # the forked child outlives its parent
        lease = Lease(lease_path).acquire()
        assert lease.held
        lease.release()
    finally:
        owner.kill()
        owner.wait(timeout=30)
        owner.stdout.close()
        if child:
            os.kill(child, signal.SIGKILL)


def test_acquire_release_cycle(lease_path):
    lease = Lease(lease_path).acquire()
    assert lease.held
    assert lease_held(lease_path)
    with open(lease_path) as handle:
        assert handle.read() == f"{os.getpid()}\n"
    lease.release()
    assert not lease.held
    assert not os.path.exists(lease_path)
    lease.release()  # idempotent


def test_second_claimant_rejected_while_owner_lives(lease_path):
    first = Lease(lease_path).acquire()
    with pytest.raises(LeaseHeldError, match=f"pid {os.getpid()}"):
        Lease(lease_path).acquire()
    first.release()
    Lease(lease_path).acquire().release()


def test_corrupt_lease_file_counts_as_stale(lease_path):
    """No holder, garbage content: the content is not the claim."""
    with open(lease_path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert not lease_held(lease_path)
    lease = Lease(lease_path).acquire()
    assert lease.held
    lease.release()


def test_release_never_unlinks_foreign_token(lease_path):
    """Rule 2: release unlinks only the inode it locked — a file that
    replaced it at the path (someone else's) survives."""
    lease = Lease(lease_path).acquire()
    os.unlink(lease_path)
    with open(lease_path, "w", encoding="utf-8") as handle:
        handle.write("other\n")
    lease.release()
    assert os.path.exists(lease_path)


def test_a_claim_that_locked_an_unlinked_inode_retries(
    lease_path, monkeypatch
):
    """Rule 2, claimant side: the path was unlinked (by the releasing
    holder) between this claimant's open and its lock."""
    from repro.journal import lease as lease_module

    real_flock = lease_module.fcntl.flock
    unlinked = []

    def flock(fd, operation):
        if not unlinked:
            unlinked.append(fd)
            os.unlink(lease_path)
        real_flock(fd, operation)

    monkeypatch.setattr(lease_module.fcntl, "flock", flock)
    lease = Lease(lease_path).acquire()
    monkeypatch.undo()
    assert len(unlinked) == 1
    assert os.path.exists(lease_path) and lease_held(lease_path)
    lease.release()


def test_dead_local_pid_is_stolen_immediately(lease_path):
    """A SIGKILLed owner leaves a run that is claimable at once."""
    _claim_after_sigkill(lease_path, "alone")


def test_a_forked_child_does_not_pin_a_dead_owners_run(lease_path):
    """Rule 1: a child forked while the lease was held (a pool worker)
    and still alive after its parent's SIGKILL holds nothing."""
    _claim_after_sigkill(lease_path, "fork")


def test_a_live_owner_is_refused_by_pid(lease_path):
    owner, _child = _spawn_owner(lease_path)
    try:
        with pytest.raises(LeaseHeldError, match=f"pid {owner.pid}$"):
            Lease(lease_path).acquire()
        assert lease_held(lease_path)
    finally:
        owner.kill()
        owner.wait(timeout=30)
        owner.stdout.close()


def test_registry_probes_never_fail_a_claim(lease_path):
    """Rule 3: 300 claim/release cycles against a thread that runs the
    registry's ``running`` probe in a tight loop."""
    stop = threading.Event()
    probes = []

    def probe():
        while not stop.is_set():
            probes.append(lease_held(lease_path))

    prober = threading.Thread(target=probe)
    prober.start()
    try:
        for _ in range(300):
            lease = Lease(lease_path).acquire()
            lease.release()
    finally:
        stop.set()
        prober.join()
    assert probes

