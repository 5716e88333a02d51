"""The durable-payload codec: exact round trips, one failure type."""

import hashlib
import math
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import codec
from repro.experiments.common import ExperimentResult
from repro.fleet.node import NodeResult
from repro.sweep.safety import SafetyRecord
from repro.workloads.base import PerformanceReport

FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=24,
)
KEYS = st.text(max_size=8)
COUNTS = st.dictionaries(KEYS, st.integers(min_value=0), max_size=4)
STATS = st.dictionaries(KEYS, PAYLOADS, max_size=3)

NODE_RESULTS = st.builds(
    NodeResult,
    perf_value=FLOATS,
    safeguard_trips=COUNTS,
    action_histogram=COUNTS,
    stats=STATS,
)
#: The four payload dataclasses a unit returns (alone or in lists).
DATACLASSES = st.one_of(
    NODE_RESULTS,
    st.lists(NODE_RESULTS, max_size=3),  # a fleet chunk's payload
    st.builds(
        ExperimentResult,
        rows=st.lists(st.dictionaries(KEYS, SCALARS, max_size=4), max_size=4),
        notes=st.lists(st.text(max_size=16), max_size=2),
    ),
    st.builds(
        SafetyRecord,
        intensity=FLOATS,
        time_to_fallback_s=st.none() | FLOATS,
        safeguard_trips=COUNTS,
        action_histogram=COUNTS,
    ),
    st.builds(PerformanceReport, value=FLOATS),
)


def _pickled(payload):
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _assert_round_trips(payload):
    blob, digest = codec.encode(payload)
    # Compared by pickle bytes: NaN != NaN and -0.0 == 0.0 would hide
    # a lost bit from ``==``.
    assert _pickled(codec.decode(blob, digest)) == _pickled(payload)
    assert _pickled(codec.decode(blob)) == _pickled(payload)
    assert digest == hashlib.sha256(_pickled(payload)).hexdigest()
    encoded = codec.encode(payload)
    assert encoded == (blob, digest)  # deterministic
    assert codec.encode(encoded) is encoded  # already encoded: as is


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_decode_inverts_encode_bit_for_bit(payload):
    _assert_round_trips(payload)


@settings(max_examples=100, deadline=None)
@given(DATACLASSES)
def test_unit_payload_dataclasses_round_trip(payload):
    _assert_round_trips(payload)


def test_special_floats_keep_their_bits():
    payload = {"nan": math.nan, "inf": [math.inf, -math.inf], "z": -0.0}
    _assert_round_trips(payload)
    decoded = codec.decode(*codec.encode(payload))
    assert math.isnan(decoded["nan"])
    assert math.copysign(1.0, decoded["z"]) == -1.0


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=512) | st.binary(max_size=512).map(zlib.compress),
    st.none() | st.text(max_size=64),
)
def test_decode_of_arbitrary_bytes_raises_only_codec_error(blob, digest):
    """Raw bytes mostly fail to inflate; deflated bytes reach the
    unpickler.  Either way the one exception type comes out."""
    try:
        codec.decode(blob, digest)
    except codec.CodecError:
        pass


@pytest.mark.parametrize("blob, reason", [
    (b"not deflate at all", "not a deflated payload"),
    (codec.encode(list(range(100)))[0][:-6], "truncated"),
    (codec.encode([1])[0] + b"\0", "trailing bytes"),
    (zlib.compress(b"\x80\x05 not a pickle"), "undecodable pickle"),
], ids=["garbage", "truncated", "trailing", "not-a-pickle"])
def test_each_failure_is_a_codec_error_naming_it(blob, reason):
    with pytest.raises(codec.CodecError, match=reason):
        codec.decode(blob)


def test_a_wrong_digest_is_refused():
    blob, digest = codec.encode({"rows": [1, 2]})
    with pytest.raises(codec.CodecError, match="digest"):
        codec.decode(blob, "0" * 64)
    assert codec.decode(blob, digest) == {"rows": [1, 2]}


def test_inflate_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(codec, "MAX_INFLATED", 1 << 10)
    at_cap, _ = codec.encode(b"\0" * 900)  # pickle of 900 bytes < 1 KiB
    assert codec.decode(at_cap) == b"\0" * 900
    with pytest.raises(codec.CodecError, match="past 1024 bytes"):
        codec.decode(zlib.compress(b"\0" * (1 << 20)))


def test_an_executed_unit_is_encoded_once_for_both_stores(
    tmp_path, monkeypatch
):
    """The executor encodes an executed unit's result once and hands
    the same blob to the cache and the journal: each cache object's
    bytes are a ``UNIT_DONE`` blob, and nothing is pickled twice."""
    import os

    from repro.cache import ResultCache
    from repro.journal.log import RecordLog
    from repro.journal.pipelines import open_sweep_journal
    from repro.sweep import SweepRunner
    from repro.sweep.spec import CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "encode-once", "agents": ["overclock"], "scales": [2],
        "seeds": [0], "duration_s": 5, "rack_size": 1,
        "fault": [{"kind": "bad_data", "intensities": [0.9],
                   "start_s": 1, "duration_s": 3, "racks": [0]}],
    })
    encodes = []
    real = codec.encode

    def counting(payload):
        if not isinstance(payload, codec.Encoded):
            encodes.append(payload)
        return real(payload)

    monkeypatch.setattr(codec, "encode", counting)
    root = str(tmp_path)
    cache = ResultCache(root)
    with open_sweep_journal(root, spec) as journal:
        SweepRunner(spec, cache=cache, journal=journal).run()
        executed, log_path = journal.stats.executed, journal._log.path
    assert executed == 3
    assert len(encodes) == executed

    objects = set()
    for directory, _subdirs, files in os.walk(os.path.join(root, "objects")):
        for name in files:
            with open(os.path.join(directory, name), "rb") as handle:
                objects.add(handle.read())
    log = RecordLog(log_path)
    blobs = {
        bytes(blob) for record, blob in log.take_blobs()
        if record["kind"] == "UNIT_DONE"
    }
    log.close()
    assert len(objects) == executed
    assert objects == blobs
