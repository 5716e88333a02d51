"""RunJournal: deterministic ids, durable replay, digest verification."""

import os
import pickle

import pytest

from repro.journal.lease import LeaseHeldError
from repro.journal.log import replay_records, set_kill_action
from repro.journal.run import (
    RunJournal,
    derive_run_id,
    open_run,
    runs_root,
    _unit_file,
)

CONFIG = {"n": 4, "agent": "overclock"}
UNITS = ["u0", "u1", "u2"]


def _open(tmp_path, resume=False, units=UNITS, **kwargs):
    return open_run(
        str(tmp_path),
        kind="test",
        config=CONFIG,
        plan={"p": 1},
        units=list(units),
        resume=resume,
        **kwargs,
    )


def test_run_id_is_deterministic_and_config_sensitive():
    assert derive_run_id("test", CONFIG) == derive_run_id("test", CONFIG)
    assert derive_run_id("test", CONFIG) != derive_run_id("other", CONFIG)
    assert derive_run_id("test", CONFIG) != derive_run_id(
        "test", {**CONFIG, "n": 5}
    )


def test_fresh_open_writes_manifest_and_claims_lease(tmp_path):
    with _open(tmp_path) as journal:
        assert journal.units == UNITS
        assert journal.manifest["kind"] == "test"
        assert os.path.isdir(journal.directory)
        lease = os.path.join(
            runs_root(str(tmp_path)), f"{journal.run_id}.lease"
        )
        assert os.path.exists(lease)
    assert not os.path.exists(lease)  # close releases


def test_second_orchestrator_is_locked_out(tmp_path):
    with _open(tmp_path):
        with pytest.raises(LeaseHeldError):
            _open(tmp_path)


def test_record_done_then_resume_replays_payload(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_dispatched("u0", 0)
        journal.record_done("u0", {"rows": [1, 2, 3]}, 0.25)
        assert journal.stats.executed == 1
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.is_done("u0")
        assert resumed.replayed["u0"] == {"rows": [1, 2, 3]}
        assert resumed.replayed_walls["u0"] == 0.25
        assert resumed.stats.replayed == 1
        assert not resumed.is_done("u1")


def test_fresh_open_wipes_prior_journal(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", "payload", 0.0)
    with _open(tmp_path) as fresh:  # resume=False: deliberate re-measure
        assert not fresh.is_done("u0")
        assert fresh.stats.replayed == 0


def test_resume_rejects_drifted_unit_list(tmp_path):
    run_id = derive_run_id("test", CONFIG)
    with _open(tmp_path) as journal:
        journal.record_done("u0", 1, 0.0)
    with pytest.raises(ValueError):
        _open(tmp_path, resume=True, units=["u0", "DIFFERENT"],
              run_id=run_id)


def test_resume_without_verification_adopts_manifest(tmp_path):
    run_id = derive_run_id("test", CONFIG)
    with _open(tmp_path) as journal:
        journal.record_done("u0", 1, 0.0)
    with _open(
        tmp_path, resume=True, units=["re", "derived"],
        run_id=run_id, verify_units=False,
    ) as resumed:
        assert resumed.units == UNITS  # the manifest's list wins


def test_corrupt_payload_demotes_unit_to_not_done(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", {"ok": True}, 0.0)
        path = _unit_file(journal.directory, "u0")
    with open(path, "wb") as handle:
        handle.write(b"bit-rot")
    with _open(tmp_path, resume=True) as resumed:
        assert not resumed.is_done("u0")  # digest mismatch: re-execute


def test_missing_payload_demotes_unit_to_not_done(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", {"ok": True}, 0.0)
        os.unlink(_unit_file(journal.directory, "u0"))
    with _open(tmp_path, resume=True) as resumed:
        assert not resumed.is_done("u0")


def test_last_done_record_wins_on_replay(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", "first", 0.0)
        journal.record_done("u0", "second", 0.0)
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.replayed["u0"] == "second"


def test_quarantined_units_replay_unless_later_done(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_quarantined("u1", "crash")
        journal.record_quarantined("u2", "timeout")
        journal.record_done("u2", "recovered", 0.0)  # retry succeeded
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.replayed_quarantined == ["u1"]
        assert resumed.is_done("u2")


def test_seal_is_idempotent_and_replays(tmp_path):
    with _open(tmp_path) as journal:
        journal.seal("digest-a")
        journal.seal("ignored")
        assert journal.sealed_digest == "digest-a"
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.sealed
        assert resumed.sealed_digest == "digest-a"


def test_cache_hit_completion_counts_cached(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", 1, 0.0, executed=False)
        assert journal.stats.cached == 1
        assert journal.stats.executed == 0


def test_kill_between_payload_and_record_reexecutes_unit(tmp_path):
    """Effect-before-intent: a kill after the pickle write but before
    the UNIT_DONE append leaves an orphan payload that replay ignores.
    """
    class Killed(Exception):
        pass

    journal = _open(tmp_path)
    try:
        blob = pickle.dumps("half-done")
        from repro.journal.run import _atomic_write

        _atomic_write(_unit_file(journal.directory, "u1"), blob)
    finally:
        journal.close()
    with _open(tmp_path, resume=True) as resumed:
        assert not resumed.is_done("u1")  # no record: unit re-executes
    del Killed


def test_torn_final_record_drops_exactly_one_unit(tmp_path):
    class Boom(Exception):
        pass

    os.environ["REPRO_JOURNAL_KILL_AFTER"] = "2"
    set_kill_action(lambda: (_ for _ in ()).throw(Boom()))
    try:
        journal = _open(tmp_path)
        journal.record_done("u0", "a", 0.0)  # append #1
        with pytest.raises(Boom):
            journal.record_done("u1", "b", 0.0)  # append #2: "killed"
        journal._log.close()
        journal._lease.release()
    finally:
        os.environ.pop("REPRO_JOURNAL_KILL_AFTER", None)
        set_kill_action(None)
    # The kill lands after the fsync, so u1's record is durable; the
    # stats update it interrupted is process state and simply lost.
    log = os.path.join(journal.directory, "log.bin")
    records, _valid = replay_records(log)
    assert [r["unit"] for r in records if r["kind"] == "UNIT_DONE"] == [
        "u0", "u1",
    ]
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.is_done("u0")
        assert resumed.is_done("u1")


def _salt_exclusions():
    from repro.cache.keys import _SALT_EXCLUDED_DIRS, _SALT_EXCLUDED_FILES

    return sorted((_SALT_EXCLUDED_DIRS - {"__pycache__"}) | _SALT_EXCLUDED_FILES)


@pytest.mark.parametrize("excluded", _salt_exclusions())
def test_excluded_source_stays_out_of_code_salt(excluded):
    """Orchestration, observation and checking code (journal, serve,
    conformance + its frozen golden models, ...) cannot move a result
    bit, so editing it must not change a cache key or a run_id."""
    import repro
    from repro.cache.keys import _salted_sources

    package_root = os.path.dirname(repro.__file__)
    # A stale entry (renamed package) would silently exclude nothing.
    assert os.path.exists(os.path.join(package_root, excluded))
    salted = [relative for relative, _path in _salted_sources(package_root)]
    assert salted, "the salt must cover the simulation sources"
    assert not [
        relative for relative in salted
        if relative == excluded or relative.startswith(excluded + "/")
    ]
