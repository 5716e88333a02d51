"""RunJournal: deterministic ids, durable replay, digest verification."""

import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.cache import codec
from repro.journal.lease import LeaseHeldError
from repro.journal.log import (
    LOG_FORMAT,
    _decode_record,
    _encode_record,
    replay_records,
    set_kill_action,
)
from repro.journal.run import (
    SealMismatchError,
    derive_run_id,
    load_log,
    open_run,
    runs_root,
)

_HEADER = struct.Struct(">III")  # record length, blob length, crc32

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
        view = load_log(resumed.directory, resumed.manifest)
        assert view.units["u0"].done["wall"] == 0.25
        assert resumed.stats.replayed == 1
        assert not resumed.is_done("u1")


def test_manifest_is_compact_json(tmp_path):
    with _open(tmp_path) as journal:
        path = os.path.join(journal.directory, "manifest.json")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text == json.dumps(
            journal.manifest, sort_keys=True, separators=(",", ":")
        )


def test_a_pretty_printed_manifest_still_resumes(tmp_path):
    """An older build wrote the manifest with ``indent=2``."""
    with _open(tmp_path) as journal:
        journal.record_done("u0", {"rows": [1]}, 0.5)
        path = os.path.join(journal.directory, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(journal.manifest, handle, sort_keys=True, indent=2)
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.replayed == {"u0": {"rows": [1]}}
        assert resumed.units == UNITS


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


def _done_frame(data, unit):
    """``(frame start, blob start, blob end)`` of ``unit``'s UNIT_DONE
    (``unit`` as its index in ``UNITS``, the name its records use)."""
    offset = 0
    while offset < len(data):
        record_length, blob_length, _crc = _HEADER.unpack_from(data, offset)
        record_start = offset + _HEADER.size
        blob_start = record_start + record_length
        end = blob_start + blob_length
        record = _decode_record(memoryview(data)[record_start:blob_start])
        if record == {**record, "kind": "UNIT_DONE", "unit": unit}:
            return offset, blob_start, end
        offset = end
    raise AssertionError(f"no UNIT_DONE for {unit}")


def _flip_blob_byte(log, unit, index, fix_crc):
    """Flip one bit of byte ``index`` of ``unit``'s blob in place; with
    ``fix_crc`` the frame's crc is recomputed, so only the codec can
    notice."""
    with open(log, "rb") as handle:
        data = bytearray(handle.read())
    start, blob_start, end = _done_frame(data, UNITS.index(unit))
    data[blob_start + index] ^= 0x01
    if fix_crc:
        record_length, blob_length, _crc = _HEADER.unpack_from(data, start)
        data[start:start + _HEADER.size] = _HEADER.pack(
            record_length, blob_length,
            zlib.crc32(bytes(data[start + _HEADER.size:end])),
        )
    with open(log, "wb") as handle:
        handle.write(bytes(data))


def test_corrupt_payload_demotes_unit_to_not_done(tmp_path):
    """A frame is its payload: one flipped blob byte fails the frame's
    crc, so that unit — and, the log being a prefix, every record after
    it — is not trusted and re-executes."""
    with _open(tmp_path) as journal:
        journal.record_done("u0", {"ok": 0}, 0.0)
        journal.record_done("u1", {"ok": 1, "pad": "x" * 64}, 0.0)
        journal.record_done("u2", {"ok": 2}, 0.0)
        log = os.path.join(journal.directory, "log.bin")
    _flip_blob_byte(log, "u1", 5, fix_crc=False)
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.is_done("u0")
        assert not resumed.is_done("u1")
        assert not resumed.is_done("u2")


def test_blobs_are_deflated_json_and_digest_it(tmp_path):
    """A UNIT_DONE blob is the codec's compact JSON deflated against the
    registry's dictionary, and its ``digest`` is the sha256 of the JSON,
    not of the stored bytes."""
    payload = {"rows": ["x" * 64] * 8}
    with _open(tmp_path) as journal:
        journal.record_done("u0", payload, 0.0)
        log = os.path.join(journal.directory, "log.bin")
    with open(log, "rb") as handle:
        data = handle.read()
    _start, blob_start, end = _done_frame(data, 0)
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    inflater = zlib.decompressobj(zdict=codec.dictionary())
    assert inflater.decompress(data[blob_start:end]) == raw
    assert end - blob_start < len(raw)
    (record,) = replay_records(log)[0]
    assert record["digest"] == hashlib.sha256(raw).hexdigest()


def test_a_rotted_blob_under_a_good_crc_demotes_only_its_unit(tmp_path):
    """Flip a byte inside one deflated blob and recompute the frame's
    crc: the log keeps every frame, the codec refuses that one blob,
    and exactly that unit re-executes on resume."""
    from repro.resilience.executor import Plan, WorkUnit, run_units

    with _open(tmp_path) as journal:
        for unit_id in UNITS:
            journal.record_done(unit_id, {"unit": unit_id}, 0.0)
        log = os.path.join(journal.directory, "log.bin")
    _flip_blob_byte(log, "u1", 4, fix_crc=True)
    executed = []

    def unit_fn(unit_id):
        executed.append(unit_id)
        return {"unit": unit_id}

    plan = Plan("test", tuple(WorkUnit(unit_id, unit_id) for unit_id in UNITS))
    with _open(tmp_path, resume=True) as resumed:
        assert len(replay_records(log)[0]) == len(UNITS)
        assert sorted(resumed.replayed) == ["u0", "u2"]
        outcome = run_units(plan, unit_fn, journal=resumed)
        assert (outcome.replayed, outcome.executed) == (2, 1)
    assert executed == ["u1"]


def test_a_blob_that_inflates_past_the_cap_is_not_done(
    tmp_path, monkeypatch
):
    """A blob whose deflate stream would inflate past the codec's cap
    (a crafted or rotted "zip bomb") demotes its unit: the inflate
    stops at the cap instead of allocating the whole output."""
    monkeypatch.setattr(codec, "MAX_INFLATED", 1 << 16)
    bomb = zlib.compress(b"\0" * (1 << 20), 9)  # 1 MiB from ~1 KB
    with _open(tmp_path) as journal:
        journal.record_done("u0", "fine", 0.0)
        journal._log.append(
            "UNIT_DONE", bomb, unit=1, wall=0.0,
            digest=hashlib.sha256(b"\0" * (1 << 20)).hexdigest(),
            executed=True,
        )
    with pytest.raises(codec.CodecError, match="past"):
        codec.decode(bomb)
    with _open(tmp_path, resume=True) as resumed:
        assert sorted(resumed.replayed) == ["u0"]


def test_blob_that_fails_its_digest_or_unpickle_is_not_done(tmp_path):
    """Past the crc, replay still checks each UNIT_DONE's sha256 digest
    and fails closed on any undecodable blob — a deflated pickle under
    its own digest included: it is never unpickled."""
    not_a_pickle = b"\x80\x05 this is not a pickle"
    good, _digest = codec.encode("u1's payload")
    with _open(tmp_path) as journal:
        journal.record_done("u0", "fine", 0.0)
        journal._log.append(
            "UNIT_DONE", good, unit=1, wall=0.0,
            digest="0" * 64, executed=True,
        )
        journal._log.append(
            "UNIT_DONE", zlib.compress(not_a_pickle), unit=2, wall=0.0,
            digest=hashlib.sha256(not_a_pickle).hexdigest(), executed=True,
        )
    with _open(tmp_path, resume=True) as resumed:
        assert sorted(resumed.replayed) == ["u0"]


def test_a_completed_unit_is_one_frame_and_no_other_file(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_dispatched("u0", 0)
        journal.record_done("u0", {"rows": [1, 2, 3]}, 0.25)
        directory = journal.directory
    assert sorted(os.listdir(directory)) == ["log.bin", "manifest.json"]
    records, _valid = replay_records(os.path.join(directory, "log.bin"))
    assert [r["kind"] for r in records] == ["UNIT_DISPATCHED", "UNIT_DONE"]


def test_record_done_many_is_one_fsync_and_every_unit_replays(
    tmp_path, fsyncs
):
    with _open(tmp_path) as journal:
        before = len(fsyncs)
        journal.record_done_many(
            [("u0", "a", 0.0, False), ("u1", "b", 0.0, False),
             ("u2", "c", 0.5, True)]
        )
        assert len(fsyncs) - before == 1
        assert (journal.stats.cached, journal.stats.executed) == (2, 1)
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.replayed == {"u0": "a", "u1": "b", "u2": "c"}


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
        journal.seal("digest-a")  # same digest: no-op, no second frame
        assert journal.sealed_digest == "digest-a"
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.sealed
        assert resumed.sealed_digest == "digest-a"
        resumed.seal("digest-a")
    records, _valid = replay_records(
        os.path.join(resumed.directory, "log.bin")
    )
    assert [r["kind"] for r in records] == ["RUN_SEALED"]


def test_resealing_with_another_digest_names_both(tmp_path):
    """A sealed run whose replayed payloads re-derive another digest
    (here: a journal sealed under a wrong digest) refuses the seal
    instead of reporting the stored one, and writes nothing."""
    with _open(tmp_path) as journal:
        journal.seal("wrong-digest")
    with _open(tmp_path, resume=True) as resumed:
        with pytest.raises(
            SealMismatchError, match="sealed with digest wrong-digest .* "
            "reduce to right-digest",
        ):
            resumed.seal("right-digest")
        assert resumed.sealed_digest == "wrong-digest"
    records, _valid = replay_records(
        os.path.join(resumed.directory, "log.bin")
    )
    assert [r["digest"] for r in records] == ["wrong-digest"]


def test_a_record_past_the_manifest_is_ignored_by_every_reader(tmp_path):
    """A record names its unit by manifest index; one whose index the
    manifest does not list counts for none of the journal's replay, the
    registry's counts and the ``runs show --timing`` rows."""
    from repro.journal.cli import timing_rows
    from repro.journal.registry import inspect_run
    from repro.journal.run import load_log

    blob, digest = codec.encode("stray")
    with _open(tmp_path) as journal:
        journal.record_dispatched("u0", 0)
        journal.record_done("u0", "a", 0.5)
        for index in (len(UNITS), 2**32 - 1):
            journal._log.append("UNIT_DISPATCHED", unit=index, attempt=0)
            journal._log.append("UNIT_DONE", blob, unit=index, wall=9.0,
                                digest=digest, executed=True)
            journal._log.append("UNIT_QUARANTINED", unit=index, fault="x")
        journal.record_quarantined("u1", "crash")
    assert len(replay_records(journal._log.path)[0]) == 9
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.replayed == {"u0": "a"}
        assert resumed.replayed_quarantined == ["u1"]
    info = inspect_run(str(tmp_path), journal.run_id)
    assert (info.total_units, info.done_units, info.executed_units,
            info.quarantined_units) == (3, 1, 1, 1)
    rows = timing_rows(load_log(journal.directory, journal.manifest))
    assert [(row["unit"], row["attempts"], row["source"]) for row in rows] \
        == [("u0", 1, "executed"), ("u1", 0, "quarantined")]


def test_cache_hit_completion_counts_cached(tmp_path):
    with _open(tmp_path) as journal:
        journal.record_done("u0", 1, 0.0, executed=False)
        assert journal.stats.cached == 1
        assert journal.stats.executed == 0


def test_torn_final_record_drops_exactly_one_unit(tmp_path):
    class Boom(Exception):
        pass

    os.environ["REPRO_JOURNAL_KILL_AFTER"] = "2"
    set_kill_action(lambda: (_ for _ in ()).throw(Boom()))
    try:
        journal = _open(tmp_path)
        journal.record_done("u0", "a", 0.0)  # commit #1
        with pytest.raises(Boom):
            journal.record_done("u1", "b", 0.0)  # commit #2: "killed"
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
        0, 1,
    ]
    with _open(tmp_path, resume=True) as resumed:
        assert resumed.is_done("u0")
        assert resumed.is_done("u1")


def _log_bytes(journal):
    with open(os.path.join(journal.directory, "log.bin"), "rb") as handle:
        return handle.read()


def _edit_manifest(journal, edit):
    path = os.path.join(journal.directory, "manifest.json")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def test_manifest_records_the_log_format(tmp_path):
    with _open(tmp_path) as journal:
        assert journal.manifest["log_format"] == LOG_FORMAT == 5


def test_resume_refuses_a_journal_of_another_log_format(tmp_path):
    """A journal written by the parent commit (manifest without
    ``log_format``, ``>II``-framed records, payloads under ``units/``)
    would parse as zero frames and be truncated to nothing.  Resume
    refuses it before the log is opened; fresh mode still wipes it."""
    with _open(tmp_path) as journal:
        pass
    _edit_manifest(journal, lambda manifest: manifest.pop("log_format"))
    body = json.dumps(
        {"kind": "UNIT_DONE", "unit": "u0", "wall": 0.1, "digest": "d",
         "executed": True}, sort_keys=True,
    ).encode("utf-8")
    old_log = struct.pack(">II", len(body), zlib.crc32(body)) + body
    with open(os.path.join(journal.directory, "log.bin"), "wb") as handle:
        handle.write(old_log)
    with pytest.raises(ValueError, match=r"log_format is None .* is 5"):
        _open(tmp_path, resume=True)
    assert _log_bytes(journal) == old_log
    with pytest.raises(ValueError, match="log_format"):  # explicit id too
        _open(tmp_path, resume=True, run_id=journal.run_id)
    assert _log_bytes(journal) == old_log
    with _open(tmp_path) as fresh:  # no --resume: start over, as ever
        assert fresh.manifest["log_format"] == LOG_FORMAT
        assert fresh.stats.replayed == 0


def test_resume_refuses_a_format_2_journal_of_raw_pickles(tmp_path):
    """Format 2 framed the same way but stored raw pickles: its frames
    would parse, and every blob would fail to inflate and re-execute.
    Resume refuses it outright instead, and leaves its bytes alone."""
    import pickle

    with _open(tmp_path) as journal:
        pass
    _edit_manifest(journal, lambda manifest: manifest.update(log_format=2))
    blob = pickle.dumps("raw", protocol=pickle.HIGHEST_PROTOCOL)
    body = json.dumps(
        {"kind": "UNIT_DONE", "unit": "u0", "wall": 0.1, "executed": True,
         "digest": hashlib.sha256(blob).hexdigest()}, sort_keys=True,
    ).encode("utf-8")
    old_log = _HEADER.pack(
        len(body), len(blob), zlib.crc32(blob, zlib.crc32(body))
    ) + body + blob
    with open(os.path.join(journal.directory, "log.bin"), "wb") as handle:
        handle.write(old_log)
    with pytest.raises(ValueError, match=r"log_format is 2 .* is 5"):
        _open(tmp_path, resume=True)
    assert _log_bytes(journal) == old_log


class _Marker:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _bomb_log(journal, marker, binary):
    """Replace ``journal``'s log with one UNIT_DONE for u0 whose blob is
    a deflated pickle (format 3's encoding) that would create
    ``marker``, under its right digest and crc — its record JSON, as
    format 3 wrote it, or ``binary``, as this build writes it."""
    import pickle

    raw = pickle.dumps(_Marker(str(marker)), protocol=pickle.HIGHEST_PROTOCOL)
    blob = zlib.compress(raw)
    fields = {"wall": 0.1, "executed": True,
              "digest": hashlib.sha256(raw).hexdigest()}
    if binary:
        body = _encode_record("UNIT_DONE", {"unit": 0, **fields})
    else:
        body = json.dumps(
            {"kind": "UNIT_DONE", "unit": "u0", **fields}, sort_keys=True,
        ).encode("utf-8")
    log = _HEADER.pack(
        len(body), len(blob), zlib.crc32(blob, zlib.crc32(body))
    ) + body + blob
    with open(os.path.join(journal.directory, "log.bin"), "wb") as handle:
        handle.write(log)
    return log


def test_a_format_3_journal_of_deflated_pickles_runs_no_code(tmp_path):
    """Format 3 stored deflated pickles.  Resume refuses such a journal
    before reading a blob; and the same blob inside a journal of this
    build's format is demoted, never unpickled."""
    marker = tmp_path / "ran"
    with _open(tmp_path) as journal:
        pass
    _edit_manifest(journal, lambda manifest: manifest.update(log_format=3))
    old_log = _bomb_log(journal, marker, binary=False)
    with pytest.raises(ValueError, match=r"log_format is 3 .* is 5"):
        _open(tmp_path, resume=True)
    assert _log_bytes(journal) == old_log

    _edit_manifest(
        journal, lambda manifest: manifest.update(log_format=LOG_FORMAT)
    )
    _bomb_log(journal, marker, binary=True)
    with _open(tmp_path, resume=True) as resumed:
        assert len(replay_records(resumed._log.path)[0]) == 1
        assert not resumed.is_done("u0") and resumed.stats.replayed == 0
    assert not marker.exists()


def test_resume_by_run_id_refuses_a_journal_of_another_code_salt(tmp_path):
    """``open_run(resume=True, run_id=…)`` does not re-derive the id, so
    the manifest's ``code_salt`` is the only thing that can tell it the
    payloads were computed by other code."""
    from repro.cache.keys import code_salt

    with _open(tmp_path) as journal:
        journal.record_done("u0", "computed by old code", 0.0)
    before = _log_bytes(journal)
    _edit_manifest(
        journal, lambda manifest: manifest.update(code_salt="f" * 16)
    )
    with pytest.raises(ValueError) as refusal:
        _open(tmp_path, resume=True, run_id=journal.run_id)
    assert "code_salt is 'ffffffffffffffff'" in str(refusal.value)
    assert repr(code_salt()) in str(refusal.value)
    assert _log_bytes(journal) == before
    # The refusal released the lease: the run can still be pruned or
    # started fresh.
    with _open(tmp_path) as fresh:
        assert not fresh.is_done("u0")


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
