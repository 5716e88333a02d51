"""The durable-payload codec: exact round trips, refusals, one failure
type, and no code run by a blob."""

import dataclasses
import enum
import hashlib
import math
import os
import pickle
import zlib

import numpy as np
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
KEYS = st.text(max_size=8).filter(lambda key: key != codec.TAG)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=24,
)
COUNTS = st.dictionaries(KEYS, st.integers(min_value=0), max_size=4)
TIMES = st.none() | st.integers(min_value=0)

NODE_RESULTS = st.builds(
    NodeResult,
    perf_value=FLOATS,
    safeguard_trips=COUNTS,
    action_histogram=COUNTS,
    first_model_safeguard_us=TIMES,
    first_actuator_safeguard_us=TIMES,
    first_fallback_us=TIMES,
    agent_kills=st.integers(min_value=0),
    agent_restarts=st.integers(min_value=0),
)
#: The four payload dataclasses a unit returns (alone, in lists, or
#: inside plain containers).
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
        racks=st.lists(st.integers(), max_size=3).map(tuple),
        time_to_fallback_s=st.none() | FLOATS,
        safeguard_trips=COUNTS,
        action_histogram=COUNTS,
    ),
    st.dictionaries(KEYS, st.builds(PerformanceReport, value=FLOATS)),
)


def _same(left, right):
    """Equal, with NaN equal to itself, −0.0 apart from 0.0, dict key
    order compared, and every type (tuple fields included) exact."""
    if type(left) is not type(right):
        return False
    if type(left) is float:
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and math.copysign(1, left) == math.copysign(
            1, right
        )
    if type(left) is dict:
        return list(left) == list(right) and all(
            _same(left[key], right[key]) for key in left
        )
    if type(left) in (list, tuple):
        return len(left) == len(right) and all(map(_same, left, right))
    if dataclasses.is_dataclass(left):
        return all(
            _same(getattr(left, f.name), getattr(right, f.name))
            for f in dataclasses.fields(left)
        )
    return left == right


def _inflated(blob):
    inflater = zlib.decompressobj(zdict=codec.dictionary())
    return inflater.decompress(blob) + inflater.flush()


def _assert_round_trips(payload):
    blob, digest = codec.encode(payload)
    assert _same(codec.decode(blob, digest), payload)
    assert _same(codec.decode(blob), payload)
    decoded, stored = codec.decode_stored(blob)
    assert _same(decoded, payload) and stored == (blob, digest)
    # The digest names the stored JSON.
    assert digest == hashlib.sha256(_inflated(blob)).hexdigest()
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


def test_dicts_keep_insertion_order_and_tuple_fields_stay_tuples():
    rows = {"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}}
    assert list(codec.decode(*codec.encode(rows))) == ["zeta", "alpha", "mid"]
    record = SafetyRecord(
        "u", "overclock", 2, 0, "bad_data", 0.5, 1, 3, (1, 0), 5, 4, 1,
        {}, {}, 0, 0, 2, 1, None, "d" * 16,
    )
    decoded = codec.decode(*codec.encode(record))
    assert decoded == record and type(decoded.racks) is tuple


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("payload, reason", [
    ((1, 2), "type tuple"),
    ([{"rows": (1,)}], "type tuple"),
    ({0: "zero"}, "key of type int"),
    ({codec.TAG: "NodeResult"}, "holding the key"),
    (b"bytes", "type bytes"),
    ({1.5}, "type set"),
    (np.float64(1.5), "type float64"),
    (_Level.LOW, "type _Level"),
    (NodeResult(0, 0, "s", "a", "w", 1, "m", 1.0, 0, 0,
                action_histogram={"t": (1,)}), "type tuple"),
    (SafetyRecord("u", "a", 1, 0, "none", 0.0, 0, 0, [0], 5, 0, 0, {}, {},
                  0, 0, 0, 0, None, "d"), "racks: not a tuple"),
], ids=["tuple", "nested-tuple", "int-key", "tag-key", "bytes", "set",
        "numpy-float", "int-enum", "tuple-in-histogram", "list-racks"])
def test_encode_refuses_what_it_cannot_bring_back(payload, reason):
    with pytest.raises(codec.CodecError, match=reason):
        codec.encode(payload)


def _deflated(text, zdict=None):
    if zdict is None:
        zdict = codec.dictionary()
    compressor = zlib.compressobj(zdict=zdict) if zdict else zlib.compressobj()
    data = text.encode("utf-8") if isinstance(text, str) else text
    return compressor.compress(data) + compressor.flush()


#: JSON-ish texts: tags, known and unknown, in every position.
JSONISH = st.recursive(
    st.sampled_from([
        "1", "-0.0", "NaN", "Infinity", "null", "true", '"x"', '"$type"',
        '"NodeResult"', '"SafetyRecord"', '"Nope"', "1e999", "[]", "{}",
    ]),
    lambda children: (
        st.lists(children, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]")
        | st.lists(st.tuples(
            st.sampled_from(['"$type"', '"racks"', '"a"', '"rows"']),
            children,
        ), max_size=4).map(
            lambda kvs: "{" + ",".join(f"{k}:{v}" for k, v in kvs) + "}"
        )
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=512)
    | st.binary(max_size=512).map(zlib.compress)
    | st.binary(max_size=512).map(_deflated)
    | JSONISH.map(_deflated),
    st.none() | st.text(max_size=64),
)
def test_decode_of_arbitrary_bytes_raises_only_codec_error(blob, digest):
    """Raw bytes mostly fail to inflate; deflated bytes reach the JSON
    parser and the tag registry.  Either a payload or the one exception
    type comes out."""
    try:
        codec.decode(blob, digest)
    except codec.CodecError:
        pass


OTHER_DICTIONARY = b'{"$type":"Other","field":}'


@pytest.mark.parametrize("blob, reason", [
    (b"not deflate at all", "not a deflated payload"),
    (codec.encode(list(range(100)))[0][:-6], "truncated"),
    (codec.encode([1])[0] + b"\0", "trailing bytes"),
    (_deflated("[1, 2", None), "undecodable payload"),
    (zlib.compress(b"\x80\x05 not a pickle"), "undecodable payload"),
    (_deflated("[1]", OTHER_DICTIONARY), "not a deflated payload"),
    (_deflated("[" * 100_000 + "]" * 100_000), "nests too deeply"),
    (_deflated('{"$type":"Pickle","x":1}'), "unknown tag 'Pickle'"),
    (_deflated('{"$type":7}'), "unknown tag 7"),
    (_deflated('{"$type":"PerformanceReport","metric":"m"}'),
     "fields do not match PerformanceReport"),
    (_deflated(
        '{"$type":"SafetyRecord",' + ",".join(
            f'"{f.name}":0' for f in dataclasses.fields(SafetyRecord)
        ) + "}"), "racks is not a list"),
], ids=["garbage", "truncated", "trailing", "not-json", "not-a-pickle",
        "wrong-dictionary", "deep", "unknown-tag",
        "non-string-tag", "missing-fields", "racks-not-a-list"])
def test_each_failure_is_a_codec_error_naming_it(blob, reason):
    with pytest.raises(codec.CodecError, match=reason):
        codec.decode(blob)


#: A NodeResult as the open-``stats`` layout wrote it: the typed fields
#: were then one ``stats`` dict.
_OLD_NODE_RESULT = (
    '{"$type":"NodeResult","node_id":0,"rack":0,"sku":"s","agent":"a",'
    '"workload":"w","sim_seconds":20,"perf_metric":"m","perf_value":1.0,'
    '"slo_windows":4,"slo_violations":0,"safeguard_trips":{"model":1},'
    '"action_histogram":{"model":3},"stats":{"agent_kills":1,'
    '"agent_restarts":1,"first_fallback_since_fault_us":null}}'
)


def test_a_node_result_with_the_old_stats_field_is_refused():
    """Deflated against today's dictionary, it still inflates and
    parses: the field check refuses it, naming ``stats``, alone or in a
    fleet chunk, so it is never read as a result with default fields."""
    for text in (_OLD_NODE_RESULT, f"[{_OLD_NODE_RESULT}]"):
        blob = _deflated(text)
        with pytest.raises(
            codec.CodecError,
            match="fields do not match NodeResult: no field 'stats'",
        ):
            codec.decode(blob)
        with pytest.raises(codec.CodecError, match="'stats'"):
            codec.decode_stored(blob)


def test_a_blob_without_a_dictionary_decodes_as_plain_json():
    """Only the dictionary id zlib wrote is checked: a stream that names
    none inflates as is, so what it holds is still judged as JSON."""
    assert codec.decode(_deflated("[1,2]", b"")) == [1, 2]


def test_a_wrong_digest_is_refused():
    blob, digest = codec.encode({"rows": [1, 2]})
    with pytest.raises(codec.CodecError, match="digest"):
        codec.decode(blob, "0" * 64)
    assert codec.decode(blob, digest) == {"rows": [1, 2]}


def test_inflate_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(codec, "MAX_INFLATED", 1 << 10)
    at_cap, _ = codec.encode("x" * 900)  # 902 bytes of JSON < 1 KiB
    assert codec.decode(at_cap) == "x" * 900
    with pytest.raises(codec.CodecError, match="past 1024 bytes"):
        codec.decode(_deflated(b" " * (1 << 20)))


def test_the_dictionary_holds_every_tag_and_field_and_follows_them():
    zdict = codec.dictionary()
    for cls in (PerformanceReport, ExperimentResult, SafetyRecord,
                NodeResult):
        assert b'"$type":"%s"' % cls.__name__.encode() in zdict
        for f in dataclasses.fields(cls):
            assert b'"%s":' % f.name.encode() in zdict

    @dataclasses.dataclass
    class Report:
        metric: str
        value: float

    @dataclasses.dataclass
    class Report2:  # one field renamed
        metric: str
        score: float

    Report2.__name__ = "Report"
    before = codec._build_registry((Report,)).zdict
    after = codec._build_registry((Report2,)).zdict
    assert before != after
    # A blob deflated against another registry's dictionary is refused.
    other = _deflated("[1]", after)
    with pytest.raises(codec.CodecError, match="not a deflated payload"):
        codec.decode(other)


# -- a blob can run no code ---------------------------------------------------


class _Marker:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _pickle_bomb(marker):
    """A deflated pickle, as the pickle codec stored payloads, whose
    unpickling would create ``marker``."""
    return zlib.compress(
        pickle.dumps(_Marker(str(marker)), protocol=pickle.HIGHEST_PROTOCOL)
    )


def test_a_pickle_bomb_is_a_codec_error_and_runs_nothing(tmp_path):
    marker = tmp_path / "ran"
    bomb = _pickle_bomb(marker)
    pickle.loads(zlib.decompress(bomb)).close()  # the bomb is live...
    assert marker.exists()
    marker.unlink()
    with pytest.raises(codec.CodecError):
        codec.decode(bomb)
    with pytest.raises(codec.CodecError):
        codec.decode_stored(bomb)
    assert not marker.exists()  # ...but the codec never sets it off


def test_a_pickle_bomb_in_the_cache_is_quarantined_or_ignored(tmp_path):
    from repro.cache import ResultCache

    marker = tmp_path / "ran"
    cache = ResultCache(str(tmp_path / "cache"))
    fresh, legacy = "ab" + "0" * 62, "cd" + "1" * 62
    # Under this encoding's suffix: read, refused, quarantined.
    path = cache._object_path(fresh)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(_pickle_bomb(marker))
    # An old pickle object: another suffix, never looked at.
    legacy_path = cache._object_path(legacy)[: -len(codec.SUFFIX)] + ".pkz"
    os.makedirs(os.path.dirname(legacy_path))
    with open(legacy_path, "wb") as handle:
        handle.write(_pickle_bomb(marker))

    assert cache.get(fresh, "miss") == "miss"
    assert cache.get(legacy, "miss") == "miss"
    assert (cache.stats.misses, cache.stats.corrupt) == (2, 1)
    assert os.listdir(cache.quarantine_dir) == [fresh + codec.SUFFIX]
    assert os.path.exists(legacy_path)
    assert cache.last_hit is None
    assert not marker.exists()


# -- a result is encoded once ------------------------------------------------

_SPEC = {
    "name": "encode-once", "agents": ["overclock"], "scales": [2],
    "seeds": [0], "duration_s": 5, "rack_size": 1,
    "fault": [{"kind": "bad_data", "intensities": [0.9],
               "start_s": 1, "duration_s": 3, "racks": [0]}],
}


def _sweep_pass(root, monkeypatch):
    """Run the 3-unit campaign on ``root``; return (payloads encoded,
    journal stats, cache object bytes, UNIT_DONE blobs)."""
    from repro.cache import ResultCache
    from repro.journal.log import RecordLog
    from repro.journal.pipelines import open_sweep_journal
    from repro.sweep import SweepRunner
    from repro.sweep.spec import CampaignSpec

    spec = CampaignSpec.from_dict(_SPEC)
    encodes = []
    real = codec.encode

    def counting(payload):
        if not isinstance(payload, codec.Encoded):
            encodes.append(payload)
        return real(payload)

    monkeypatch.setattr(codec, "encode", counting)
    with open_sweep_journal(root, spec) as journal:
        SweepRunner(spec, cache=ResultCache(root), journal=journal).run()
        stats, log_path = journal.stats, journal._log.path
    monkeypatch.setattr(codec, "encode", real)

    objects = set()
    for directory, _subdirs, files in os.walk(os.path.join(root, "objects")):
        for name in files:
            with open(os.path.join(directory, name), "rb") as handle:
                objects.add(handle.read())
    log = RecordLog(log_path)
    blobs = {
        bytes(blob) for record, blob in log.take_frames()
        if record["kind"] == "UNIT_DONE"
    }
    log.close()
    return encodes, stats, objects, blobs


def test_an_executed_unit_is_encoded_once_for_both_stores(
    tmp_path, monkeypatch
):
    """The executor encodes an executed unit's result once and hands
    the same blob to the cache and the journal: each cache object's
    bytes are a ``UNIT_DONE`` blob, and nothing is encoded twice."""
    encodes, stats, objects, blobs = _sweep_pass(str(tmp_path), monkeypatch)
    assert stats.executed == 3
    assert len(encodes) == stats.executed
    assert len(objects) == stats.executed
    assert objects == blobs


def test_a_warm_pass_journals_the_bytes_it_read(tmp_path, monkeypatch):
    """A cache hit is journaled as the object it was read from: a warm
    pass encodes nothing, and its ``UNIT_DONE`` blobs are the cache
    objects' bytes."""
    root = str(tmp_path)
    _sweep_pass(root, monkeypatch)
    encodes, stats, objects, blobs = _sweep_pass(root, monkeypatch)
    assert (stats.executed, stats.cached) == (0, 3)
    assert encodes == []
    assert len(objects) == 3 and objects == blobs


def test_a_stale_last_hit_is_not_journaled():
    """``last_hit`` is keyed: a cache stand-in that returns a hit
    without refreshing it has its payload encoded instead."""
    from repro.resilience.executor import Plan, WorkUnit, run_units

    class StaleCache:
        last_hit = ("other-key", codec.encode("stale"))

        def get(self, key, default=None):
            return "fresh"

        def put(self, key, payload):
            raise AssertionError("nothing executes")

    class Journal:
        replayed, replayed_quarantined = {}, ()
        items = []

        def is_done(self, unit_id):
            return False

        def record_done_many(self, items):
            self.items.extend(items)

    journal = Journal()
    run_units(
        Plan("test", (WorkUnit("u0", 0),), cache_key=lambda _: "key"),
        lambda payload: payload, cache=StaleCache(), journal=journal,
    )
    assert [item[1] for item in journal.items] == ["fresh"]

