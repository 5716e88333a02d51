"""The trace codec: ``read_trace`` is the exact inverse of the sidecar's
writer, reads traces written before rows existed, and fails closed.

``legacy_trace.jsonl`` was recorded by the object-per-line writer that
preceded rows: a traced pooled fleet run (4 nodes, 2 workers) stopped
after its first journal commit and resumed once in a fresh process, so
it holds two segments; its last line is torn in half.
``legacy_trace.chrome.json`` is that trace's ``chrome_trace`` output.
Both are fixed: they pin what readers of old runs see, so neither is
ever regenerated.
"""

import json
import os
import tempfile
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import sidecar as sidecar_module
from repro.obs.export import chrome_trace
from repro.obs.sidecar import (
    TelemetrySidecar,
    read_trace,
    segments,
    trace_path,
)
from repro.obs.spans import Tracer

HERE = os.path.dirname(__file__)
LEGACY = os.path.join(HERE, "legacy_trace.jsonl")
LEGACY_CHROME = os.path.join(HERE, "legacy_trace.chrome.json")

_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_args = st.dictionaries(st.text(), _json, max_size=4)


class _Recorder:
    """A tracer sink that writes through the sidecar and keeps a copy
    of every record it was handed."""

    def __init__(self, sidecar):
        self.sidecar = sidecar
        self.emitted = []

    def __call__(self, record):
        self.emitted.append(record)
        self.sidecar.write(record)


def _segment(directory, body):
    sidecar = TelemetrySidecar(directory)
    sidecar.open_segment(run_id="codec")
    recorder = _Recorder(sidecar)
    body(Tracer(sink=recorder))
    sidecar.close()
    return recorder.emitted


def _spans(records):
    return [r for r in records if r.get("t") != "segment"]


def test_every_emitted_record_reads_back_equal(tmp_path):
    directory = str(tmp_path)
    # Worker attempts from another process, traced before this segment
    # opened: their ts offsets are negative.
    worker = Tracer()
    with worker.span("attempt", cat="pool", args={"unit": "u1"}):
        with worker.span("kernel.run", cat="sim"):
            pass
    shipped = [{**r, "pid": r["pid"] + 1} for r in worker.drain()]

    def first(tracer):
        with tracer.span("run", cat="run", args={"run_id": "codec"}):
            with tracer.span(
                "cache.get", cat="cache",
                args={"nested": {"a": [1, {"b": None}], "x": 2.5}},
            ):
                tracer.instant("pool.dispatch", "pool", {"unit": "u1"})
                tracer.instant("tick", "pool")
            unit = tracer.begin("unit-é", cat="unit", attach=False)
            tracer.absorb(shipped)
            tracer.end(unit)
            side = threading.Thread(
                target=lambda: tracer.end(tracer.begin("journal.fsync")),
                name="side-thread",
            )
            side.start()
            side.join(10)
            try:
                with tracer.span("名前 ✓", cat="journal"):
                    raise KeyError("boom")
            except KeyError:
                pass

    def second(tracer):
        with tracer.span("run", cat="run", args={"resumed": True}):
            tracer.absorb(shipped)

    emitted = _segment(directory, first) + _segment(directory, second)
    records = read_trace(trace_path(directory))
    assert _spans(records) == emitted
    assert [h["seq"] for h in segments(records)] == [0, 1]
    assert {r["mode"] for r in emitted if r["t"] == "span"} == {
        "sync", "async"
    }
    assert any(r["t"] == "instant" and not r["args"] for r in emitted)
    # One line per record; every tracer record is a row, and a thread
    # is introduced once per segment.
    with open(trace_path(directory), "rb") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == len(records)
    rows = [line for line in lines if isinstance(line, list)]
    assert len(rows) == len(emitted)
    assert sum(isinstance(row[1], list) for row in rows) == 3 + 2


@given(name=st.text(), cat=st.text(), args=_args, attach=st.booleans(),
       instant_args=_args)
@settings(max_examples=50, deadline=None)
def test_names_and_args_round_trip(name, cat, args, attach, instant_args):
    with tempfile.TemporaryDirectory() as directory:
        def body(tracer):
            tracer.end(tracer.begin(name, cat, args, attach=attach))
            tracer.instant(name, cat, instant_args)

        emitted = _segment(directory, body)
        assert _spans(read_trace(trace_path(directory))) == emitted


def test_records_the_tracer_does_not_emit_pass_through_as_objects(
    tmp_path
):
    odd = [
        {"t": "span", "name": "extra", "extra": 1},
        {"t": "span", "name": "x", "cat": "c", "pid": 1, "tid": 2,
         "thread": "T", "id": 1, "parent": None, "ts": 1.5, "dur": 1,
         "mode": "sync", "args": {}},
        {"t": "note", "text": "free-form"},
    ]
    emitted = _segment(str(tmp_path), lambda tracer: tracer.absorb(odd))
    assert _spans(read_trace(trace_path(str(tmp_path)))) == emitted == odd


def test_a_trace_written_before_rows_exports_as_recorded():
    with open(LEGACY_CHROME, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    records = read_trace(LEGACY)
    assert len(segments(records)) == 2
    assert chrome_trace(records) == expected


def test_a_resumed_old_trace_appends_rows_after_its_torn_tail(tmp_path):
    """A run traced by the old writer, resumed by this one: the torn
    line is ended, the old records read as before, the new ones as
    emitted."""
    directory = str(tmp_path)
    with open(LEGACY, "rb") as src, open(trace_path(directory), "wb") as dst:
        dst.write(src.read())
    old = read_trace(LEGACY)
    emitted = _segment(
        directory, lambda tracer: tracer.end(tracer.begin("run"))
    )
    records = read_trace(trace_path(directory))
    assert records[:len(old)] == old
    assert [h["seq"] for h in segments(records)] == [0, 1, 2]
    assert _spans(records[len(old):]) == emitted


_REAL = [
    b'{"t":"segment","seq":0,"pid":7,"run_id":"r","unix_ns":10,'
    b'"mono_ns":5}',
    b'["s",[7,11,"MainThread"],2,1,40,9,"run","run",{"k":[1,2]}]',
    b'["i",0,1,45,"pool","pool.dispatch"]',
    b'["a",0,3,1,50,4,"unit","u"]',
]
_ints = st.integers(min_value=-3, max_value=2 ** 64)
_row = st.tuples(
    st.sampled_from(["s", "a", "i", "x", 0]),
    st.one_of(_ints, st.lists(_json | _ints, max_size=4), _json),
).flatmap(
    lambda head: st.lists(_json | _ints, max_size=9).map(
        lambda rest: list(head) + rest
    )
)
_line = st.one_of(
    st.sampled_from(_REAL),
    _row.map(lambda row: json.dumps(row).encode()),
    _json.map(lambda value: json.dumps(value).encode()),
    st.fixed_dictionaries(
        {"t": st.just("segment"), "mono_ns": _json | _ints}
    ).map(lambda head: json.dumps(head).encode()),
    st.binary(max_size=40),
    st.just(b"[" * 5000),
)


@given(
    lines=st.lists(_line, max_size=12),
    cut=st.integers(min_value=0),
    zero=st.tuples(st.integers(min_value=0), st.integers(0, 64)),
)
@settings(max_examples=300, deadline=None)
def test_read_trace_over_any_bytes_returns_only_dicts(lines, cut, zero):
    data = bytearray(b"\n".join(lines))
    data = data[:cut % (len(data) + 1)]  # a torn tail
    start = zero[0] % (len(data) + 1)
    data[start:start + zero[1]] = bytes(len(data[start:start + zero[1]]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        records = read_trace(path)
    assert all(type(record) is dict for record in records)


@given(lines=st.lists(_line, max_size=12), cut=st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_segment_count_agrees_with_read_trace(lines, cut):
    data = b"\n".join(lines)
    data = data[:cut % (len(data) + 1)]  # a torn tail
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        expected = len(segments(read_trace(path)))
    assert sidecar_module._count_segments(data) == expected


def test_numbering_a_segment_rebuilds_no_row(tmp_path, monkeypatch):
    """Opening segment k of a trace with k headers numbers it k without
    rebuilding a single row, and still ends the torn line a killed
    writer left."""
    directory = str(tmp_path)

    def body(tracer):
        for _ in range(5):
            tracer.end(tracer.begin("unit"))

    for _ in range(3):
        _segment(directory, body)
    with open(trace_path(directory), "ab") as fh:
        fh.write(b'["s",0,9,1,')  # torn by a kill
    rebuilt = []
    rebuild = sidecar_module._rebuild
    monkeypatch.setattr(
        sidecar_module, "_rebuild",
        lambda *args: rebuilt.append(args) or rebuild(*args),
    )
    sidecar = TelemetrySidecar(directory)
    assert sidecar.open_segment(run_id="codec") == 3
    sidecar.close()
    assert rebuilt == []
    records = read_trace(trace_path(directory))
    assert [h["seq"] for h in segments(records)] == [0, 1, 2, 3]
    assert len(rebuilt) == 15  # the rows are there: 5 per segment
