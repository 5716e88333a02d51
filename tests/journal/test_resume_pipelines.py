"""Interrupted-then-resumed pipelines seal with uninterrupted digests.

The orchestrator "dies" in-process: the journal's kill-after hook is
swapped for an exception raised immediately after the Nth fsync'd
record append — the same code path the subprocess SIGKILL harness
(``repro chaos --kill-parent``) exercises, minus the process teardown.
The journal is then closed (standing in for the pid dying, which is
what makes the lease stealable) and the run resumed.
"""

import pytest

from repro.experiments.driver import FleetDriver, reproduce_all, runs_digest
from repro.fleet.config import FleetConfig
from repro.journal.log import KILL_AFTER_ENV, set_kill_action
from repro.journal.pipelines import (
    open_fleet_journal,
    open_reproduce_journal,
    open_sweep_journal,
)
from repro.sweep import SweepRunner
from repro.sweep.spec import CampaignSpec


class _Killed(Exception):
    pass


def _raise_killed():
    raise _Killed()


@pytest.fixture()
def kill_after(monkeypatch):
    """Arm the count-based kill point; yields a setter for N."""
    def arm(n):
        monkeypatch.setenv(KILL_AFTER_ENV, str(n))
        set_kill_action(_raise_killed)

    yield arm
    monkeypatch.delenv(KILL_AFTER_ENV, raising=False)
    set_kill_action(None)


def _disarm(monkeypatch):
    monkeypatch.delenv(KILL_AFTER_ENV, raising=False)
    set_kill_action(None)


FLEET = FleetConfig(n_nodes=4, agent="overclock", seed=7, duration_s=10)

SPEC = CampaignSpec.from_dict({
    "name": "resume-demo",
    "agents": ["overclock"],
    "scales": [2],
    "seeds": [0],
    "duration_s": 10,
    "rack_size": 1,
    "fault": [{
        "kind": "bad_data", "intensities": [0.9],
        "start_s": 2, "duration_s": 5, "racks": [0],
    }],
})


def test_fleet_interrupt_resume_bit_identical(tmp_path, kill_after,
                                              monkeypatch):
    root = str(tmp_path)
    baseline = FleetDriver(FLEET, workers=1).run().digest()
    kill_after(3)  # u0: dispatched+done, u1: dispatched, then "killed"
    journal = open_fleet_journal(root, FLEET, workers=1)
    with pytest.raises(_Killed):
        FleetDriver(FLEET, workers=1, journal=journal).run()
    journal.close()  # stands in for the dead pid releasing the lease
    _disarm(monkeypatch)

    with open_fleet_journal(
        root, FLEET, workers=1, resume=True
    ) as resumed:
        aggregate = FleetDriver(FLEET, workers=1, journal=resumed).run()
    assert aggregate.digest() == baseline
    assert resumed.sealed_digest == baseline
    assert resumed.stats.replayed == 1  # only u0 was journaled
    assert resumed.stats.executed == 3  # the rest ran exactly once
    assert resumed.stats.replayed + resumed.stats.executed == 4


def test_fleet_resume_of_sealed_run_executes_nothing(tmp_path):
    root = str(tmp_path)
    with open_fleet_journal(root, FLEET, workers=1) as journal:
        first = FleetDriver(FLEET, workers=1, journal=journal).run()
    with open_fleet_journal(
        root, FLEET, workers=1, resume=True
    ) as resumed:
        again = FleetDriver(FLEET, workers=1, journal=resumed).run()
    assert again.digest() == first.digest()
    assert resumed.stats.executed == 0
    assert resumed.stats.replayed == 4


def test_reproduce_interrupt_resume_bit_identical(tmp_path, kill_after,
                                                  monkeypatch):
    root = str(tmp_path)
    names = ["table1", "table2"]
    baseline = runs_digest(reproduce_all(only=names))
    kill_after(3)  # table1 journaled, table2 dispatched, then "killed"
    journal = open_reproduce_journal(root, names, 1.0)
    with pytest.raises(_Killed):
        reproduce_all(only=names, journal=journal)
    journal.close()
    _disarm(monkeypatch)

    with open_reproduce_journal(
        root, names, 1.0, resume=True
    ) as resumed:
        runs = reproduce_all(only=names, journal=resumed)
    assert runs_digest(runs) == baseline
    assert resumed.sealed_digest == baseline
    assert resumed.stats.replayed == 1
    assert resumed.stats.executed == 1


def test_sweep_interrupt_resume_bit_identical(tmp_path, kill_after,
                                              monkeypatch):
    root = str(tmp_path)
    baseline = SweepRunner(SPEC).run().digest()
    kill_after(3)  # cell 0 journaled, cell 1 dispatched, then "killed"
    journal = open_sweep_journal(root, SPEC)
    with pytest.raises(_Killed):
        SweepRunner(SPEC, journal=journal).run()
    journal.close()
    _disarm(monkeypatch)

    with open_sweep_journal(root, SPEC, resume=True) as resumed:
        report = SweepRunner(SPEC, journal=resumed).run()
    assert report.digest() == baseline
    assert resumed.stats.replayed == 1
    assert resumed.stats.executed == 1
    # Replayed cells are neither executed nor cache hits: the report
    # accounting matches the journal's own counters.
    assert report.executed == 1
    assert report.from_cache == resumed.stats.cached == 0


def test_sweep_cache_hits_are_journaled_durably(tmp_path):
    """A fresh journaled run over a warm cache records every hit with
    ``executed=False`` — so a later resume replays them from the journal
    without re-probing the cache."""
    from repro.cache import ResultCache

    root = str(tmp_path)
    cache = ResultCache(root)
    with open_sweep_journal(root, SPEC) as first:
        warm_digest = SweepRunner(SPEC, cache=cache, journal=first).run(
        ).digest()
        assert first.stats.executed == 2
    with open_sweep_journal(root, SPEC) as second:  # fresh run, warm cache
        report = SweepRunner(SPEC, cache=cache, journal=second).run()
        assert second.stats.cached == 2
        assert second.stats.executed == 0
    assert report.digest() == warm_digest
