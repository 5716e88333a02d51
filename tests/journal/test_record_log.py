"""The append-only record log: framing, binary records, append vs
commit, torn tails."""

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
    _decode_record,
    _encode_record,
    _read_frames,
    replay_records,
    set_kill_action,
)

_HEADER = struct.Struct(">III")  # record length, blob length, crc32
DIGEST = "ab" * 32  # a sha256 as hex


@pytest.fixture()
def log_path(tmp_path):
    return str(tmp_path / "log.bin")


def test_append_then_replay_round_trips(log_path):
    log = RecordLog(log_path)
    log.append("UNIT_DISPATCHED", unit=1, attempt=0)
    log.append("UNIT_DONE", b"\x00raw\xffblob", unit=1, wall=0.5,
               digest=DIGEST, executed=True)
    log.append("UNIT_QUARANTINED", unit=2, fault="crash")
    log.append("RUN_SEALED", digest="final")
    log.close()
    records, valid = replay_records(log_path)
    assert records == [
        {"kind": "UNIT_DISPATCHED", "unit": 1, "attempt": 0},
        {"kind": "UNIT_DONE", "unit": 1, "wall": 0.5, "executed": True,
         "digest": DIGEST},
        {"kind": "UNIT_QUARANTINED", "unit": 2, "fault": "crash"},
        {"kind": "RUN_SEALED", "digest": "final"},
    ]
    assert valid == os.path.getsize(log_path)
    # The blob rides in the frame raw (no base64) and the digest as its
    # 32 raw bytes; the replayed frames are handed over once on reopen.
    with open(log_path, "rb") as handle:
        data = handle.read()
    assert b"\x00raw\xffblob" in data
    assert bytes.fromhex(DIGEST) in data and DIGEST.encode() not in data
    reopened = RecordLog(log_path)
    frames = reopened.take_frames()
    assert [record for record, _blob in frames] == records
    assert [bytes(blob) for _record, blob in frames] == [
        b"", b"\x00raw\xffblob", b"", b"",
    ]
    assert reopened.take_frames() == []
    reopened.close()


def test_frame_sizes_are_pinned(log_path):
    """A dispatch intent is a 19-byte frame and a completion 58 bytes
    plus its blob, whatever the unit index, attempt, wall or digest."""
    log = RecordLog(log_path)
    sizes = []
    for fields in (
        {"unit": 0, "attempt": 0},
        {"unit": 2**32 - 1, "attempt": 2**16 - 1},
    ):
        log.append("UNIT_DISPATCHED", **fields)
        sizes.append(os.path.getsize(log_path))
    for blob in (b"", b"x" * 100):
        log.append("UNIT_DONE", blob, unit=7, wall=1e300, executed=False,
                   digest=DIGEST)
        sizes.append(os.path.getsize(log_path))
    log.close()
    steps = [after - before for before, after in zip([0] + sizes, sizes)]
    assert steps == [19, 19, 58, 58 + 100]


@pytest.mark.parametrize("kind, fields", [
    ("UNIT_DISPATCHED", {"unit": -1, "attempt": 0}),
    ("UNIT_DISPATCHED", {"unit": 2**32, "attempt": 0}),
    ("UNIT_DISPATCHED", {"unit": 0, "attempt": 2**16}),
    ("UNIT_DISPATCHED", {"unit": "u0", "attempt": 0}),
    ("UNIT_DISPATCHED", {"unit": 0}),
    ("UNIT_DONE", {"unit": 0, "wall": 0.0, "executed": True,
                   "digest": "ab" * 31}),
    ("UNIT_DONE", {"unit": 0, "wall": 0.0, "executed": True,
                   "digest": "not hex"}),
    ("UNIT_QUARANTINED", {"unit": 0, "fault": "x" * 2**16}),
    ("RUN_SEALED", {"digest": None}),
])
def test_a_record_its_layout_cannot_hold_is_refused(log_path, kind, fields):
    log = RecordLog(log_path)
    with pytest.raises(ValueError, match=kind):
        log.append(kind, **fields)
    log.close()
    assert os.path.getsize(log_path) == 0


def test_append_reaches_the_os_and_commit_is_the_only_fsync(
    log_path, fsyncs
):
    log = RecordLog(log_path)
    log.append("UNIT_DISPATCHED", unit=1, attempt=0)
    log.append("UNIT_DISPATCHED", unit=2, attempt=0)
    assert fsyncs == []
    # ... yet a SIGKILL now would lose neither: both are in the file.
    assert len(replay_records(log_path)[0]) == 2
    log.commit()
    assert len(fsyncs) == 1
    log.commit()  # nothing appended since: no second fsync
    assert len(fsyncs) == 1
    log.append("UNIT_DISPATCHED", unit=3, attempt=0)
    log.close()  # close commits what is still pending
    assert len(fsyncs) == 2


def test_unknown_kind_rejected(log_path):
    log = RecordLog(log_path)
    with pytest.raises(ValueError):
        log.append("NOT_A_KIND", unit=1)
    log.close()


def test_replay_missing_file_is_empty(tmp_path):
    records, valid = replay_records(str(tmp_path / "absent.bin"))
    assert records == []
    assert valid == 0


def _write_records(path, n):
    log = RecordLog(path)
    for i in range(n):
        log.append("UNIT_DONE", unit=i, wall=0.0, digest=DIGEST,
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
    stop on its empty record instead of walking the zeros."""
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
    assert len(log.take_frames()) == 2
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
        log.append("UNIT_DISPATCHED", unit=1, attempt=0)
        log.append("UNIT_DONE", unit=1, wall=0.0, digest=DIGEST,
                   executed=True)
        log.commit()  # commit #1 covers both appends
        assert not fired
        log.append("UNIT_DISPATCHED", unit=2, attempt=0)
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


_index = st.integers(0, 2**32 - 1)
_records = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("UNIT_DISPATCHED"), "unit": _index,
        "attempt": st.integers(0, 2**16 - 1),
    }),
    st.fixed_dictionaries({
        "kind": st.just("UNIT_DONE"), "unit": _index,
        "wall": st.floats(allow_nan=False) | st.sampled_from(
            [-0.0, 0.0, 1e308, -1e308, 5e-324]
        ),
        "executed": st.booleans(),
        "digest": st.binary(min_size=32, max_size=32).map(bytes.hex),
    }),
    st.fixed_dictionaries({
        "kind": st.just("UNIT_QUARANTINED"), "unit": _index,
        "fault": st.text(max_size=40) | st.just("défaut ☠ 故障"),
    }),
    st.fixed_dictionaries({
        "kind": st.just("RUN_SEALED"),
        "digest": st.text(max_size=70) | st.just("sealed ✓"),
    }),
)


def _encode(record):
    fields = dict(record)
    return _encode_record(fields.pop("kind"), fields)


@given(record=_records)
@settings(max_examples=400, deadline=None)
def test_every_record_kind_round_trips(record):
    """Each kind's layout returns exactly the fields it was given: the
    index and attempt to their widest, any wall bit for bit (``-0.0``
    included), both ``executed`` values, any 32-byte digest, and any
    Unicode fault or seal digest."""
    decoded = _decode_record(memoryview(_encode(record)))
    assert decoded == record
    if record["kind"] == "UNIT_DONE":
        assert struct.pack(">d", decoded["wall"]) == struct.pack(
            ">d", record["wall"]
        )
        assert type(decoded["executed"]) is bool


_DONE_BODY = _encode({"kind": "UNIT_DONE", "unit": 3, "wall": 0.5,
                      "executed": True, "digest": DIGEST})
_FAULT_BODY = _encode({"kind": "UNIT_QUARANTINED", "unit": 3,
                       "fault": "crash"})
_SEALED_BODY = _encode({"kind": "RUN_SEALED", "digest": "final"})


@pytest.mark.parametrize("body", [
    pytest.param(b"", id="empty"),
    pytest.param(b"\x00" + _DONE_BODY[1:], id="kind-byte-0"),
    pytest.param(b"\x05" + _DONE_BODY[1:], id="unknown-kind-byte"),
    pytest.param(_DONE_BODY[:-1], id="done-one-byte-short"),
    pytest.param(_DONE_BODY + b"\x00", id="done-one-byte-long"),
    pytest.param(b"\x01" + _DONE_BODY[1:], id="dispatched-of-done-length"),
    pytest.param(_DONE_BODY[:13] + b"\x02" + _DONE_BODY[14:],
                 id="executed-2"),
    pytest.param(_DONE_BODY[:13] + b"\xff" + _DONE_BODY[14:],
                 id="executed-255"),
    pytest.param(_FAULT_BODY[:-1], id="fault-shorter-than-its-prefix"),
    pytest.param(_FAULT_BODY + b"!", id="fault-longer-than-its-prefix"),
    pytest.param(_FAULT_BODY[:-2] + b"\xc3\x28", id="fault-bad-utf8"),
    pytest.param(_SEALED_BODY[:-1] + b"\xff", id="seal-bad-utf8"),
    pytest.param(b"\x04", id="seal-without-its-length"),
])
def test_replay_stops_at_the_first_invalid_record(log_path, body):
    """A frame whose crc holds but whose record is not a valid format-5
    record ends the replay: the frames before it survive, it and every
    frame after it are dropped, and reopening truncates to it."""
    size = _write_records(log_path, 2)
    with open(log_path, "ab") as handle:
        handle.write(_frame(body, b"", crc_ok=True))
        handle.write(_frame(_SEALED_BODY, b"", crc_ok=True))
    records, valid = replay_records(log_path)
    assert [record["unit"] for record in records] == [0, 1]
    assert valid == size
    RecordLog(log_path).close()
    assert os.path.getsize(log_path) == size


_body = st.one_of(
    st.binary(max_size=50),
    _records.map(_encode),
    st.tuples(_records.map(_encode), st.integers(0, 60), st.integers(0, 255))
    .map(lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:]),
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
    """Any byte string replays to a prefix of valid records and never
    raises: wrong crcs, records of an unknown kind or the wrong length
    or with one byte changed, torn tails and zero-filled spans all end
    the replay, and every record it yields encodes back to itself."""
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
    offset = 0
    for record, blob in frames:
        body = _encode(record)
        assert data[offset + _HEADER.size:][:len(body)] == body
        offset += _HEADER.size + len(body) + len(blob)
    assert offset == end
