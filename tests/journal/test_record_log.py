"""The append-only record log: framing, append vs commit, torn tails."""

import json
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal.log import (
    KILL_AFTER_ENV,
    RecordLog,
    _read_frames,
    replay_records,
    set_kill_action,
)

_HEADER = struct.Struct(">III")  # JSON length, blob length, crc32


@pytest.fixture()
def log_path(tmp_path):
    return str(tmp_path / "log.bin")


def test_append_then_replay_round_trips(log_path):
    # A frame as earlier builds wrote it (``", "`` and ``": "``), then
    # this build's compact frames: replay parses any JSON.
    spaced = json.dumps({"kind": "UNIT_DISPATCHED", "unit": "u0",
                         "attempt": 0}, sort_keys=True).encode("utf-8")
    with open(log_path, "wb") as handle:
        handle.write(_frame(spaced, b"", crc_ok=True))
    log = RecordLog(log_path)
    log.append("UNIT_DISPATCHED", unit="u1", attempt=0)
    log.append("UNIT_DONE", b"\x00raw\xffblob", unit="u1", wall=0.5,
               digest="d", executed=True)
    log.append("RUN_SEALED", digest="final")
    log.close()
    records, valid = replay_records(log_path)
    assert [r["kind"] for r in records] == [
        "UNIT_DISPATCHED", "UNIT_DISPATCHED", "UNIT_DONE", "RUN_SEALED",
    ]
    assert [r["unit"] for r in records[:2]] == ["u0", "u1"]
    assert records[2]["unit"] == "u1"
    assert records[3]["digest"] == "final"
    assert valid == os.path.getsize(log_path)
    # The blob rides in the frame raw (no base64), is handed over once
    # on reopen, and is never part of the record metadata; appended
    # frames are compact JSON.
    with open(log_path, "rb") as handle:
        data = handle.read()
    assert b"\x00raw\xffblob" in data
    assert data.startswith(_frame(spaced, b"", crc_ok=True))
    assert b'{"attempt":0,"kind":"UNIT_DISPATCHED","unit":"u1"}' in data
    reopened = RecordLog(log_path)
    assert reopened.records == records
    ((record, blob),) = reopened.take_blobs()
    assert record["kind"] == "UNIT_DONE" and bytes(blob) == b"\x00raw\xffblob"
    assert reopened.take_blobs() == []
    reopened.close()


def test_append_reaches_the_os_and_commit_is_the_only_fsync(
    log_path, fsyncs
):
    log = RecordLog(log_path)
    log.append("UNIT_DISPATCHED", unit="u1", attempt=0)
    log.append("UNIT_DISPATCHED", unit="u2", attempt=0)
    assert fsyncs == []
    # ... yet a SIGKILL now would lose neither: both are in the file.
    assert len(replay_records(log_path)[0]) == 2
    log.commit()
    assert len(fsyncs) == 1
    log.commit()  # nothing appended since: no second fsync
    assert len(fsyncs) == 1
    log.append("UNIT_DISPATCHED", unit="u3", attempt=0)
    log.close()  # close commits what is still pending
    assert len(fsyncs) == 2


def test_unknown_kind_rejected(log_path):
    log = RecordLog(log_path)
    with pytest.raises(ValueError):
        log.append("NOT_A_KIND", unit="u1")
    log.close()


def test_replay_missing_file_is_empty(tmp_path):
    records, valid = replay_records(str(tmp_path / "absent.bin"))
    assert records == []
    assert valid == 0


def _write_records(path, n):
    log = RecordLog(path)
    for i in range(n):
        log.append("UNIT_DONE", unit=f"u{i}", wall=0.0, digest="d",
                   executed=True)
    log.close()
    return os.path.getsize(path)


def test_torn_tail_payload_is_dropped(log_path):
    size = _write_records(log_path, 3)
    # Simulate a kill mid-write: a fourth frame whose body is cut off.
    with open(log_path, "ab") as handle:
        handle.write(_HEADER.pack(60, 40, 0))
        handle.write(b"only-ten-b")
    records, valid = replay_records(log_path)
    assert len(records) == 3
    assert valid == size


def test_torn_header_is_dropped(log_path):
    size = _write_records(log_path, 2)
    with open(log_path, "ab") as handle:
        handle.write(b"\x00\x00")  # partial length header
    records, valid = replay_records(log_path)
    assert len(records) == 2
    assert valid == size


def test_crc_mismatch_stops_replay(log_path):
    _write_records(log_path, 3)
    # Flip a payload byte inside the *last* frame.
    with open(log_path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))
    records, _valid = replay_records(log_path)
    assert len(records) == 2


def test_zero_filled_tail_is_dropped(log_path):
    """An unsynced span a power loss left as zeros: a zero header is a
    well-formed empty frame (crc32 of nothing is 0), so replay must
    stop on its undecodable JSON instead of walking the zeros."""
    size = _write_records(log_path, 2)
    with open(log_path, "ab") as handle:
        handle.write(b"\x00" * 100)
    records, valid = replay_records(log_path)
    assert len(records) == 2
    assert valid == size


def test_reopen_truncates_torn_tail_before_appending(log_path):
    size = _write_records(log_path, 2)
    with open(log_path, "ab") as handle:
        handle.write(_HEADER.pack(50, 0, 0) + b"torn")
    log = RecordLog(log_path)  # re-open for append truncates
    assert os.path.getsize(log_path) == size
    assert len(log.records) == 2
    log.append("RUN_SEALED", digest="x")
    log.close()
    records, valid = replay_records(log_path)
    assert [r["kind"] for r in records][-1] == "RUN_SEALED"
    assert valid == os.path.getsize(log_path)


def test_kill_after_fires_injected_action(log_path, monkeypatch):
    """The kill point counts commits (fsyncs), not appends."""
    fired = []
    monkeypatch.setenv(KILL_AFTER_ENV, "2")
    set_kill_action(lambda: fired.append(True))
    try:
        log = RecordLog(log_path)
        log.append("UNIT_DISPATCHED", unit="u1", attempt=0)
        log.append("UNIT_DONE", unit="u1", wall=0.0, digest="d",
                   executed=True)
        log.commit()  # commit #1 covers both appends
        assert not fired
        log.append("UNIT_DISPATCHED", unit="u2", attempt=0)
        assert not fired  # an append alone is never a kill point
        log.commit()
        assert fired  # fired *after* the 2nd fsync
        log.close()
    finally:
        set_kill_action(None)
    # All three records are durable: the kill lands post-fsync by design.
    records, _valid = replay_records(log_path)
    assert len(records) == 3


def _frame(body, blob, crc_ok):
    crc = zlib.crc32(body + blob) if crc_ok else zlib.crc32(body) ^ 1
    return _HEADER.pack(len(body), len(blob), crc) + body + blob


_body = st.one_of(
    st.binary(max_size=32),
    st.just(b"[" * 5000),
    st.recursive(
        st.none() | st.integers() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    ).map(lambda value: json.dumps(value).encode()),
)
_chunk = st.one_of(
    st.builds(_frame, _body, st.binary(max_size=16), st.booleans()),
    st.binary(max_size=24),
)


@given(
    chunks=st.lists(_chunk, max_size=6),
    cut=st.integers(min_value=0),
    zero=st.tuples(st.integers(min_value=0), st.integers(0, 48)),
)
@settings(max_examples=300, deadline=None)
def test_read_frames_over_any_bytes_yields_a_valid_prefix(chunks, cut, zero):
    """Any byte string replays to a prefix of dict records and never
    raises: wrong crcs, JSON that is not an object or nests too deep,
    torn tails and zero-filled spans all end the replay."""
    data = bytearray(b"".join(chunks))
    data = data[:cut % (len(data) + 1)]
    start = zero[0] % (len(data) + 1)
    data[start:start + zero[1]] = bytes(len(data[start:start + zero[1]]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.bin")
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        frames, end = _read_frames(path)
    assert 0 <= end <= len(data)
    assert all(type(record) is dict for record, _blob in frames)
