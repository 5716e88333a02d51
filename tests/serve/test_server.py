"""Control-plane integration tests, server in-thread, client blocking.

Each test runs a real :class:`ServeServer` event loop in a daemon
thread against a throwaway cache root and drives it through the real
socket with the blocking client — the same wire path ``repro serve``
uses, minus process boundaries (the subprocess + SIGKILL variants live
in the ``repro chaos serve`` harness and CI's serve-smoke job).
"""

import asyncio
import os
import tempfile
import threading
import time

import pytest

from repro.experiments.driver import FleetDriver
from repro.fleet.config import FleetConfig
from repro.journal.pipelines import fleet_payload, open_fleet_journal
from repro.journal.registry import inspect_run
from repro.journal.run import runs_root
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.server import ServeServer

QUICK = FleetConfig(n_nodes=4, agent="overclock", seed=5, duration_s=10)

#: Effectively-infinite fleet: the cancel/backpressure tests need a job
#: that is still running when the assertion fires.
LONG = FleetConfig(n_nodes=16, agent="overclock", seed=5, duration_s=3600)


class ServerThread:
    """One in-thread server; sockets under a short /tmp dir (AF_UNIX
    paths are length-limited, pytest tmp_path is not)."""

    def __init__(self, cache_root, **kwargs):
        scratch = tempfile.mkdtemp(prefix="repro-serve-")
        self.socket_path = os.path.join(scratch, "serve.sock")
        self.server = ServeServer(
            cache_root=str(cache_root),
            socket_path=self.socket_path,
            **kwargs,
        )
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.server.run())

    def start(self):
        self.thread.start()
        wait_for_server(self.socket_path, timeout=15.0)
        return ServeClient(self.socket_path, timeout=30.0)

    def join(self, timeout=60.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "server did not shut down"
        return self.exit_code


@pytest.fixture()
def cache_root(tmp_path):
    return str(tmp_path / "serve-cache")


@pytest.fixture()
def server_thread(cache_root):
    started = []

    def factory(**kwargs):
        st = ServerThread(cache_root, **kwargs)
        started.append(st)
        return st

    yield factory
    for st in started:
        if st.thread.is_alive():
            for job in st.server.jobs.values():
                job.request_cancel("teardown")
            try:
                ServeClient(st.socket_path, timeout=5.0).drain()
            except Exception:
                pass
            st.thread.join(30.0)


def test_ping_status_and_unknown_verbs(server_thread):
    client = server_thread().start()
    reply = client.ping()
    assert reply["ok"] and reply["server"] == "repro-serve"
    assert reply["pid"] == os.getpid()
    assert client.status() == {"ok": True, "jobs": []}
    assert "unknown job" in client.status("job-9999")["error"]
    assert "unknown verb" in client.request({"verb": "frobnicate"})["error"]
    assert "unknown verb" in client.request({"hello": 1})["error"]


def test_submit_runs_to_sealed_digest_and_streams_events(server_thread):
    baseline = FleetDriver(QUICK, workers=2).run().digest()
    client = server_thread().start()
    reply = client.submit("fleet", fleet_payload(QUICK), workers=2)
    assert reply["ok"], reply
    events = list(client.watch(reply["job_id"]))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "queued"
    assert kinds[-1] == "done"
    assert "started" in kinds and "sealed" in kinds
    sealed = next(e for e in events if e["event"] == "sealed")
    assert kinds.count("unit") == sealed["progress"]["total"]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    done = events[-1]
    assert done["digest"] == baseline
    info = inspect_run(client.request({"verb": "ping"})["cache_root"],
                       reply["run_id"])
    assert info is not None and info.status == "sealed"
    assert info.sealed_digest == baseline


def test_resubmit_of_sealed_run_replays_everything(server_thread):
    client = server_thread().start()
    first = client.submit("fleet", fleet_payload(QUICK), workers=2)
    assert client.wait(first["job_id"])["status"] == "done"
    again = client.submit("fleet", fleet_payload(QUICK), workers=2)
    assert again["run_id"] == first["run_id"]
    assert again["job_id"] != first["job_id"]  # terminal → new job
    job = client.wait(again["job_id"])
    assert job["status"] == "done"
    assert job["counters"]["replayed"] == job["counters"]["total"]
    assert job["counters"]["executed"] == 0


def test_duplicate_active_submission_deduplicates(server_thread):
    client = server_thread().start()
    first = client.submit("fleet", fleet_payload(LONG), workers=2)
    dup = client.submit("fleet", fleet_payload(LONG), workers=2)
    assert dup["ok"] and dup.get("deduplicated") is True
    assert dup["job_id"] == first["job_id"]
    metrics = client.metrics()["metrics"]
    assert metrics["jobs"]["deduplicated"] == 1
    client.cancel(first["job_id"])
    client.wait(first["job_id"])


def test_invalid_submission_is_rejected_not_queued(server_thread):
    client = server_thread().start()
    reply = client.submit("mystery", {"x": 1})
    assert reply["ok"] is False and "invalid submission" in reply["error"]
    reply = client.submit("fleet", {"nonsense": True})
    assert reply["ok"] is False
    metrics = client.metrics()["metrics"]
    assert metrics["jobs"]["invalid"] == 2
    assert metrics["jobs"]["submitted"] == 0


def test_full_queue_gets_explicit_backpressure(server_thread):
    client = server_thread(queue_limit=1).start()
    replies = [
        client.submit(
            "fleet",
            fleet_payload(FleetConfig(
                n_nodes=16, agent="overclock", seed=100 + i,
                duration_s=3600,
            )),
            workers=2,
        )
        for i in range(3)
    ]
    rejected = [r for r in replies if r.get("backpressure")]
    assert rejected, f"no backpressure in {replies}"
    reply = rejected[0]
    assert reply["ok"] is False
    assert reply["retry_after_s"] > 0
    assert reply["queue_limit"] == 1
    assert "admission queue full" in reply["error"]
    assert client.metrics()["metrics"]["jobs"]["rejected"] >= 1
    for r in replies:
        if r.get("ok"):
            client.cancel(r["job_id"])


def test_cancel_leaves_run_resumable_and_releases_lease(
    server_thread, cache_root
):
    client = server_thread().start()
    reply = client.submit("fleet", fleet_payload(LONG), workers=2)
    job_id = reply["job_id"]
    # wait until it is actually running (journal open, lease held)
    deadline = 50
    while client.status(job_id)["job"]["status"] == "queued" and deadline:
        deadline -= 1
        time.sleep(0.1)
    cancel = client.cancel(job_id)
    assert cancel["ok"]
    job = client.wait(job_id, timeout=60.0)
    assert job["status"] == "cancelled"
    info = inspect_run(cache_root, reply["run_id"])
    assert info is not None
    assert info.status == "interrupted"  # resumable, not sealed
    leases = [
        name for name in os.listdir(runs_root(cache_root))
        if name.endswith(".lease")
    ]
    assert leases == []  # journal closed on the way out


def test_cancel_queued_job_never_starts(server_thread):
    client = server_thread(queue_limit=4).start()
    running = client.submit("fleet", fleet_payload(LONG), workers=2)
    queued = client.submit(
        "fleet",
        fleet_payload(FleetConfig(
            n_nodes=16, agent="overclock", seed=6, duration_s=3600,
        )),
        workers=2,
    )
    reply = client.cancel(queued["job_id"])
    assert reply["ok"] and reply["status"] == "cancelled"
    assert client.status(queued["job_id"])["job"]["started_at"] is None
    assert "already" in client.cancel(queued["job_id"])["error"]
    client.cancel(running["job_id"])
    client.wait(running["job_id"])


def test_deadline_expires_running_job(server_thread, cache_root):
    client = server_thread().start()
    reply = client.submit(
        "fleet", fleet_payload(LONG), workers=2, deadline_s=1.5
    )
    job = client.wait(reply["job_id"], timeout=90.0)
    assert job["status"] == "expired"
    info = inspect_run(cache_root, reply["run_id"])
    assert info is not None and info.status == "interrupted"


def test_drain_releases_leases_and_second_server_adopts(
    server_thread, cache_root
):
    """Satellite: drain → leases released → a fresh server adopts an
    interrupted run immediately and finishes it bit-identically with
    zero re-executed units."""
    baseline = FleetDriver(QUICK, workers=1).run().digest()

    # Manufacture an interrupted run: journal two units, then "die"
    # (close without sealing — the lease is released exactly as the
    # kernel releases a dead owner's lock).
    class _Die(Exception):
        pass

    journal = open_fleet_journal(cache_root, QUICK, 1)
    run_id = journal.run_id
    done_before = 0
    try:
        original = journal.record_done

        def die_after_two(unit_id, payload, wall_s, executed=True):
            nonlocal done_before
            original(unit_id, payload, wall_s, executed=executed)
            done_before += 1
            if done_before >= 2:
                raise _Die()

        journal.record_done = die_after_two
        with pytest.raises(_Die):
            FleetDriver(QUICK, workers=1, journal=journal).run()
    finally:
        journal.close()
    assert inspect_run(cache_root, run_id).status == "interrupted"

    st = server_thread(default_workers=1)
    client = st.start()
    job = client.find_by_run(run_id)
    assert job is not None, "server did not adopt the interrupted run"
    assert job["adopted"] is True
    job = client.wait(job["job_id"], timeout=90.0)
    assert job["status"] == "done"
    assert job["digest"] == baseline
    assert job["counters"]["replayed"] == done_before  # 0 re-executed
    assert client.metrics()["metrics"]["jobs"]["adopted"] == 1

    assert client.drain()["ok"]
    assert st.join() == 0
    leases = [
        name for name in os.listdir(runs_root(cache_root))
        if name.endswith(".lease")
    ]
    assert leases == []
    # ...which is exactly why a second server can start immediately:
    st2 = server_thread()
    client2 = st2.start()
    assert client2.ping()["ok"]
    assert client2.metrics()["metrics"]["jobs"]["adopted"] == 0  # sealed
    assert client2.drain()["ok"]
    assert st2.join() == 0


def test_drain_marks_queued_jobs_drained(server_thread):
    st = server_thread(queue_limit=4)
    client = st.start()
    running = client.submit("fleet", fleet_payload(LONG), workers=2)
    queued = client.submit(
        "fleet",
        fleet_payload(FleetConfig(
            n_nodes=16, agent="overclock", seed=7, duration_s=3600,
        )),
        workers=2,
    )
    # drain first — it immediately marks the queued job drained and
    # waits for the in-flight one, which we then cancel to let the
    # server finish its shutdown
    assert client.drain()["ok"]
    client.cancel(running["job_id"])
    assert st.join() == 0
    drained = st.server.jobs[queued["job_id"]]
    assert drained.status == "drained"
    assert drained.started_at is None
    assert st.server.jobs[running["job_id"]].status == "cancelled"


def test_metrics_snapshot_shape(server_thread):
    client = server_thread().start()
    reply = client.submit("fleet", fleet_payload(QUICK), workers=2)
    client.wait(reply["job_id"])
    metrics = client.metrics()["metrics"]
    assert metrics["queue"]["limit"] == 8
    assert metrics["queue"]["accepting"] is True
    assert metrics["jobs"]["by_status"] == {"done": 1}
    assert metrics["jobs"]["submitted"] == 1
    assert metrics["events"]["emitted"] > 0
    pool = metrics["pool"]
    assert pool["size"] >= 1
    assert pool["submitted"] >= 1 and pool["completed"] >= 1
    journal = metrics["journal"]
    assert journal["total"] >= 1
    assert journal["executed"] + journal["replayed"] == journal["total"]


def test_metrics_prometheus_exposition(server_thread):
    client = server_thread().start()
    reply = client.submit("fleet", fleet_payload(QUICK), workers=2)
    client.wait(reply["job_id"])
    prom = client.metrics(fmt="prometheus")
    assert prom["ok"]
    assert prom["format"] == "prometheus"
    text = prom["text"]
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_jobs_submitted 1" in text
    assert "repro_queue_accepting 1" in text
    assert "repro_pool_submitted" in text
    # The default JSON shape is unchanged by the format knob.
    assert client.metrics()["metrics"]["jobs"]["submitted"] == 1


def test_watch_unknown_job_and_late_watch_replays_backlog(server_thread):
    client = server_thread().start()
    with pytest.raises(ValueError, match="unknown job"):
        list(client.watch("job-9999"))
    reply = client.submit("fleet", fleet_payload(QUICK), workers=2)
    client.wait(reply["job_id"])
    # subscribe after completion: the retained backlog still replays
    events = list(client.watch(reply["job_id"]))
    assert events[-1]["event"] == "done"
    # resume from the middle: only newer events arrive
    tail = list(client.watch(reply["job_id"], since=events[-2]["seq"]))
    assert [e["seq"] for e in tail] == [events[-1]["seq"]]


def test_finished_jobs_are_bounded_and_evicted_ids_are_unknown(
    server_thread, monkeypatch
):
    """A server that never exits must not remember every job it ever
    ran: 300 tiny jobs leave the newest RETAINED_JOBS, a bare ``status``
    still fits one protocol line, and an evicted id answers exactly
    like one never issued."""
    from repro.serve import protocol, server as server_module

    def instant(job, cache_root, emit):
        emit("started", run_id=job.run_id, units=1, replayed=0)
        return {"digest": "d" * 64, "journal": {"total": 1}, "cache": {}}

    monkeypatch.setattr(server_module, "execute_job", instant)
    st = server_thread()
    client = st.start()
    job_ids = []
    for seed in range(300):
        reply = client.submit("fleet", fleet_payload(FleetConfig(
            n_nodes=4, agent="overclock", seed=seed, duration_s=10
        )))
        assert reply["ok"], reply
        assert list(client.watch(reply["job_id"]))[-1]["event"] == "done"
        job_ids.append(reply["job_id"])
    server = st.server
    assert len(server.jobs) == server_module.RETAINED_JOBS == 256
    # Every per-job table shrank with it, and no subscriber list
    # lingers once the last watch handler has unwound.
    assert set(server._events) == set(server._event_seq) == set(server.jobs)
    deadline = time.monotonic() + 5.0
    while server._subscribers and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server._subscribers == {}
    assert list(server.jobs) == job_ids[-256:]  # oldest-finished went first
    listing = client.status()
    assert len(listing["jobs"]) == 256
    assert len(protocol.encode(listing)) < protocol.MAX_LINE
    for verb in (client.status, client.cancel):
        assert "unknown job" in verb(job_ids[0])["error"]
    with pytest.raises(ValueError, match="unknown job"):
        list(client.watch(job_ids[0]))
    # The newest job's late watch still replays its whole backlog.
    kinds = [event["event"] for event in client.watch(job_ids[-1])]
    assert kinds == ["queued", "running", "started", "done"]
    assert client.metrics()["metrics"]["jobs"]["submitted"] == 300


def test_a_job_with_a_live_subscriber_is_never_evicted(cache_root):
    from repro.serve import server as server_module
    from repro.serve.jobs import Job

    server = ServeServer(cache_root=cache_root)
    jobs = [
        Job(job_id=f"job-{index:04d}", kind="fleet", payload={},
            run_id=f"run{index}")
        for index in range(server_module.RETAINED_JOBS + 2)
    ]
    server._subscribers[jobs[0].job_id] = [server_module._Subscriber()]
    for job in jobs:
        server.jobs[job.job_id] = job
        server._finish(job, "done", {})
    kept = list(server.jobs)
    assert len(kept) == server_module.RETAINED_JOBS
    assert jobs[0].job_id in kept  # oldest, but watched: passed over
    assert jobs[1].job_id not in kept and jobs[2].job_id not in kept
    assert jobs[0].job_id in server._events


def test_startup_skips_a_run_journaled_by_another_build(
    server_thread, cache_root, capsys
):
    """Adoption refuses a manifest of a foreign ``code_salt`` or
    ``log_format``: logged, skipped, bytes untouched, still on disk for
    ``runs prune``."""
    import json

    run_ids = {}
    for seed, key, value in ((1, "code_salt", "0" * 16), (2, "log_format", 1)):
        config = FleetConfig(
            n_nodes=4, agent="overclock", seed=seed, duration_s=10
        )
        with open_fleet_journal(cache_root, config, 1) as journal:
            journal.record_done(journal.units[0], {"old": "payload"}, 0.1)
        manifest_path = os.path.join(journal.directory, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest[key] = value
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with open(os.path.join(journal.directory, "log.bin"), "rb") as handle:
            run_ids[journal.run_id] = (key, handle.read())
    client = server_thread().start()
    assert client.status() == {"ok": True, "jobs": []}
    assert client.metrics()["metrics"]["jobs"]["adopted"] == 0
    out = capsys.readouterr().out
    for run_id, (key, log_bytes) in run_ids.items():
        assert f"not adopting — run {run_id}: journal {key} is" in out
        info = inspect_run(cache_root, run_id)
        assert info is not None and info.status == "interrupted"
        with open(os.path.join(info.directory, "log.bin"), "rb") as handle:
            assert handle.read() == log_bytes


def test_a_non_object_manifest_hides_no_other_interrupted_run(
    server_thread, cache_root, capsys
):
    """A ``manifest.json`` that is valid JSON but not an object (``[]``)
    is no run at all — exactly like an unreadable one: ``list_runs``
    skips it, the adoption scan still adopts the good interrupted run
    beside it, and ``runs resume`` of it is a usage error."""
    from repro.cli import main
    from repro.journal.registry import list_runs

    with open_fleet_journal(cache_root, QUICK, 1) as journal:
        good = journal.run_id  # closed unsealed: interrupted
    bad = os.path.join(runs_root(cache_root), "0123456789abcdef")
    os.makedirs(bad)
    with open(os.path.join(bad, "manifest.json"), "w") as handle:
        handle.write("[]")

    assert [info.run_id for info in list_runs(cache_root)] == [good]
    assert main(
        ["runs", "resume", "0123456789abcdef", "--cache-dir", cache_root]
    ) == 1
    assert "no journaled run '0123456789abcdef'" in capsys.readouterr().out

    st = server_thread(default_workers=1)
    client = st.start()
    job = client.find_by_run(good)
    assert job is not None and job["adopted"] is True
    assert "adoption scan failed" not in capsys.readouterr().out
    assert client.wait(job["job_id"], timeout=90.0)["status"] == "done"
    assert client.drain()["ok"]
    assert st.join() == 0
