"""Wire-protocol unit tests: framing, bounds, reply shapes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_LINE,
    ProtocolError,
    backpressure,
    decode,
    encode,
    error,
    event,
    ok,
)


def test_encode_decode_round_trip():
    message = {"verb": "submit", "kind": "fleet", "config": {"n": 4}}
    line = encode(message)
    assert line.endswith(b"\n")
    assert decode(line) == message


def test_encode_is_deterministic():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})


def test_encode_rejects_oversized_message():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode({"blob": "x" * MAX_LINE})


def test_encode_rejects_unserializable_message():
    with pytest.raises(ProtocolError, match="unserializable"):
        encode({"socket": object()})


def test_decode_rejects_oversized_line():
    with pytest.raises(ProtocolError, match="exceeds"):
        decode(b"x" * (MAX_LINE + 1))


def test_decode_rejects_non_json():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode(b"not json\n")


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError, match="expected a JSON object"):
        decode(b"[1, 2]\n")


def test_ok_and_error_shapes():
    assert ok(job_id="j1") == {"ok": True, "job_id": "j1"}
    reply = error("nope", status="done")
    assert reply["ok"] is False
    assert reply["error"] == "nope"
    assert reply["status"] == "done"


def test_backpressure_reply_is_branchable():
    reply = backpressure(retry_after_s=2.5, depth=8, limit=8)
    assert reply["ok"] is False
    assert reply["backpressure"] is True
    assert reply["retry_after_s"] == 2.5
    assert reply["queue_depth"] == 8
    assert reply["queue_limit"] == 8
    assert "admission queue full" in reply["error"]


def test_event_shape():
    message = event("job-1", 3, "unit", {"unit": "u0"})
    assert message == {
        "event": "unit", "job_id": "job-1", "seq": 3, "unit": "u0",
    }


def test_decode_rejects_a_line_nested_past_the_recursion_limit():
    line = b'{"verb":' + b"[" * 100_000 + b"]" * 100_000 + b"}\n"
    assert len(line) < MAX_LINE
    with pytest.raises(ProtocolError, match="nested too deeply"):
        decode(line)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children),
)


@settings(max_examples=300, deadline=None)
@given(line=st.one_of(
    st.binary(max_size=256),
    st.integers(min_value=1, max_value=50_000).map(
        lambda depth: b"[" * depth + b"]" * depth
    ),
    st.tuples(st.sampled_from(["[", "{\"a\":"]), st.integers(1, 50_000)).map(
        lambda spec: (spec[0] * spec[1]).encode() + b"1"
    ),
    _json_values.map(lambda value: json.dumps(value).encode()),
))
def test_decode_of_any_bytes_is_an_object_or_a_protocol_error(line):
    try:
        message = decode(line)
    except ProtocolError:
        return
    assert isinstance(message, dict)
