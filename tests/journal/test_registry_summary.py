"""Run counts come from one place: the registry's replay of ``log.bin``.

Sealing appends ``RUN_SEALED(digest)`` and nothing else — no counts in
the record, no sidecar — so sealed and unsealed runs are inspected the
same way, and a stray ``summary.json`` (an older build wrote one at
seal time) is ignored.
"""

import json
import os

from repro.experiments.driver import FleetDriver
from repro.fleet.config import FleetConfig
from repro.journal.pipelines import open_fleet_journal
from repro.journal.registry import inspect_run, interrupted_runs

FLEET = FleetConfig(n_nodes=4, agent="overclock", seed=11, duration_s=10)


def _sealed_run(root):
    with open_fleet_journal(root, FLEET, 1) as journal:
        FleetDriver(FLEET, workers=1, journal=journal).run()
    assert journal.sealed
    return journal


def test_corrupt_sidecar_falls_back_to_replay(tmp_path):
    root = str(tmp_path)
    journal = _sealed_run(root)
    assert not os.path.exists(
        os.path.join(journal.directory, "summary.json")
    )
    # A leftover sidecar that lies about everything changes nothing.
    with open(
        os.path.join(journal.directory, "summary.json"), "w",
        encoding="utf-8",
    ) as handle:
        json.dump({"digest": "0" * 64, "done_units": 99}, handle)
    info = inspect_run(root, journal.run_id)
    assert info.status == "sealed"  # replay path, same verdict
    assert info.sealed_digest == journal.sealed_digest
    assert info.total_units == info.done_units == len(journal.units)
    assert info.executed_units == len(journal.units)
    assert (info.cached_units, info.quarantined_units) == (0, 0)


def test_unsealed_run_has_no_sidecar_and_replays(tmp_path):
    root = str(tmp_path)
    journal = open_fleet_journal(root, FLEET, 1)
    unit = journal.units[0]
    journal.record_dispatched(unit, 1)
    journal.record_done(unit, {"v": 1}, 0.01, executed=True)
    journal.close()  # interrupted: no seal, lease released
    info = inspect_run(root, journal.run_id)
    assert info.status == "interrupted"
    assert info.done_units == 1
    assert interrupted_runs(root) == [info]


def test_interrupted_runs_excludes_sealed_and_running(tmp_path):
    root = str(tmp_path)
    sealed = _sealed_run(root)
    running = open_fleet_journal(
        root, FleetConfig(
            n_nodes=2, agent="overclock", seed=12, duration_s=10
        ), 1,
    )
    try:
        orphans = interrupted_runs(root)
        assert [run.run_id for run in orphans] == []
    finally:
        running.close()
    # once released without a seal, the run becomes adoptable
    orphans = interrupted_runs(root)
    assert [run.run_id for run in orphans] == [running.run_id]
    assert sealed.run_id not in {run.run_id for run in orphans}
