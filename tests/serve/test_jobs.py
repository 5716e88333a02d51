"""Job model unit tests: admission validation, identity, the tap."""

import pytest

from repro.fleet.config import FleetConfig
from repro.journal.pipelines import fleet_payload, open_fleet_journal
from repro.journal.run import derive_run_id
from repro.serve.jobs import JournalTap, job_from_submission

FLEET_CONFIG = fleet_payload(
    FleetConfig(n_nodes=4, agent="overclock", seed=3, duration_s=10)
)


def _submit(kind="fleet", config=None, **extra):
    message = {"kind": kind, "config": config or dict(FLEET_CONFIG)}
    message.update(extra)
    return job_from_submission("job-0001", message)


def test_run_id_matches_journal_identity(tmp_path):
    job = _submit()
    assert job.run_id == derive_run_id("fleet", job.payload)
    journal = open_fleet_journal(
        str(tmp_path), FleetConfig(
            n_nodes=4, agent="overclock", seed=3, duration_s=10
        ), workers=2,
    )
    try:
        assert journal.run_id == job.run_id
    finally:
        journal.close()


def test_same_config_same_run_id_different_seed_differs():
    a = _submit()
    b = _submit()
    assert a.run_id == b.run_id
    other = dict(FLEET_CONFIG, seed=99)
    assert _submit(config=other).run_id != a.run_id


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown job kind"):
        _submit(kind="mystery")


def test_missing_config_rejected():
    with pytest.raises(ValueError, match="'config'"):
        job_from_submission("job-0001", {"kind": "fleet"})


def test_malformed_fleet_config_rejected():
    with pytest.raises(ValueError):
        _submit(config={"nonsense": True})


def test_unknown_reproduce_artifact_rejected():
    with pytest.raises(ValueError, match="unknown artifacts"):
        _submit(
            kind="reproduce",
            config={"artifacts": ["no_such_table"], "scale": 1.0},
        )


def test_bad_workers_and_deadline_rejected():
    with pytest.raises(ValueError, match="workers"):
        _submit(workers=0)
    with pytest.raises(ValueError, match="deadline"):
        _submit(deadline_s=-1)


def test_tap_delegates_and_emits_after_durable_write(tmp_path):
    journal = open_fleet_journal(
        str(tmp_path), FleetConfig(
            n_nodes=2, agent="overclock", seed=0, duration_s=10
        ), workers=1,
    )
    events = []
    tap = JournalTap(
        journal, lambda kind, **fields: events.append((kind, fields))
    )
    try:
        unit = journal.units[0]
        tap.record_dispatched(unit, 1)
        tap.record_done(unit, {"v": 1}, 0.01, executed=True)
        assert journal.stats.executed == 1  # delegation reached journal
        assert events[0][0] == "unit"
        assert events[0][1]["progress"]["done"] == 1
        # attribute pass-through
        assert tap.run_id == journal.run_id
        assert len(tap.units) == len(journal.units)
    finally:
        journal.close()


def test_tap_emits_no_unit_event_before_the_fsync_covering_it(
    tmp_path, fsyncs
):
    """"An event is emitted only after its record is durable", single
    and batch: a batch is one commit, then its events in order."""
    journal = open_fleet_journal(
        str(tmp_path), FleetConfig(
            n_nodes=4, agent="overclock", seed=0, duration_s=10
        ), workers=1,
    )
    events = []
    tap = JournalTap(
        journal,
        lambda kind, **fields: events.append(
            (fields["unit"], len(fsyncs), fields["progress"]["done"])
        ),
    )
    try:
        first, *rest = journal.units
        before = len(fsyncs)
        tap.record_dispatched(first, 0)  # an intent: no fsync, no event
        assert (len(fsyncs), events) == (before, [])
        tap.record_done(first, {"v": 0}, 0.01)
        assert events == [(first, before + 1, 1)]
        tap.record_done_many(
            [(unit, {"v": 1}, 0.0, False) for unit in rest]
        )
        assert events[1:] == [
            (unit, before + 2, len(journal.units)) for unit in rest
        ]
    finally:
        journal.close()

