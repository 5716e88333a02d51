"""The trace codec: ``read_trace`` is the exact inverse of the sidecar's
writer, reads traces written before rows existed, and fails closed.

``legacy_trace.jsonl`` was recorded by the object-per-line writer that
preceded rows: a traced pooled fleet run (4 nodes, 2 workers) stopped
after its first journal commit and resumed once in a fresh process, so
it holds two segments; its last line is torn in half.
``legacy_trace.chrome.json`` is that trace's ``chrome_trace`` output.

``legacy_rows_trace.jsonl`` was recorded the same way (4 nodes, 2
workers, killed after its first journal commit, resumed once) by the
row writer that preceded interned labels and args: ``cat`` and ``name``
inline on every row.  The killed segment's last line was torn in half
before the resume, which ended it.  ``legacy_rows_trace.records
.json`` and ``legacy_rows_trace.chrome.json`` are what that writer's
own ``read_trace`` and ``chrome_trace`` made of it.

``interned_rows_trace.jsonl`` was recorded the same way (4 nodes, 2
workers, killed after its first journal commit, its last line torn in
half, resumed once) by the writer that preceded deflated rows: plain
rows, threads, labels and args interned per segment.
``interned_rows_trace.records.json`` and
``interned_rows_trace.chrome.json`` are what that writer's own
``read_trace`` and ``chrome_trace`` made of it.

All of these are fixed: they pin what readers of old runs see, so none
is ever regenerated.
"""

import base64
import json
import os
import sys
import tempfile
import threading
import zlib

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
#: Each trace of rows an older writer left, with what its own reader
#: and exporter made of it.
ROW_FIXTURES = [
    tuple(os.path.join(HERE, stem + suffix)
          for suffix in (".jsonl", ".records.json", ".chrome.json"))
    for stem in ("legacy_rows_trace", "interned_rows_trace")
]

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


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


def _lines(directory):
    """The JSON value of every complete line of ``directory``'s trace,
    each deflated row inflated to its row: unpadded base64 of one
    sync-flushed step of its segment's raw-deflate stream, without the
    flush's ``00 00 ff ff`` tail."""
    values, stream = [], None
    with open(trace_path(directory), "rb") as fh:
        for line in fh:
            try:
                value = json.loads(line)
            except ValueError:
                continue  # a torn line
            if isinstance(value, dict) and value.get("t") == "segment":
                stream = zlib.decompressobj(wbits=-15)
            elif isinstance(value, str):
                packed = base64.b64decode(value + "=" * (-len(value) % 4))
                value = json.loads(stream.decompress(packed + b"\0\0\xff\xff"))
            values.append(value)
    return values


def _kinds(directory):
    """The JSON type of every line of ``directory``'s trace."""
    with open(trace_path(directory), "rb") as fh:
        return [type(json.loads(line)) for line in fh]


def _introduced(rows):
    """The labels and args texts ``rows`` carry in full, in order."""
    labels, args = [], []
    for row in rows:
        at = 4 if row[0] == "i" else 6  # the label slot
        if isinstance(row[at], list):
            labels.append(tuple(row[at]))
        if len(row) > at + 1 and isinstance(row[at + 1], dict):
            args.append(_compact(row[at + 1]))
    return labels, args


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
                tracer.instant("pool.dispatch", "pool", {"unit": "u1"})
                tracer.instant("tick", "pool")
                for value in (1, 1.0, True, 1):
                    tracer.instant("tick", "pool", {"n": value})
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

    by_segment = [_segment(directory, first), _segment(directory, second)]
    emitted = by_segment[0] + by_segment[1]
    records = read_trace(trace_path(directory))
    assert _spans(records) == emitted
    # 1, 1.0 and true are equal in Python but are distinct args.
    assert [type(r["args"]["n"]) for r in records if "n" in r.get(
        "args", ())] == [int, float, bool, int]
    assert [h["seq"] for h in segments(records)] == [0, 1]
    assert {r["mode"] for r in emitted if r["t"] == "span"} == {
        "sync", "async"
    }
    assert any(r["t"] == "instant" and not r["args"] for r in emitted)
    # One line per record; every tracer record is a deflated row, and a
    # thread, a label and an args dict are each written in full once
    # per segment.
    assert _kinds(directory) == (
        [dict] + [str] * len(by_segment[0]) + [dict]
        + [str] * len(by_segment[1])
    )
    lines = _lines(directory)
    assert len(lines) == len(records)
    rows = [line for line in lines if isinstance(line, list)]
    assert len(rows) == len(emitted)
    assert sum(isinstance(row[1], list) for row in rows) == 3 + 2
    start = 0
    for segment in by_segment:
        labels, args = _introduced(rows[start:start + len(segment)])
        start += len(segment)
        assert sorted(labels) == sorted(
            {(r["cat"], r["name"]) for r in segment}
        )
        assert sorted(args) == sorted(
            {_compact(r["args"]) for r in segment if r["args"]}
        )
    assert start == len(rows)


@given(name=st.text(), cat=st.text(), args=_args, attach=st.booleans(),
       instant_args=_args)
@settings(max_examples=50, deadline=None)
def test_names_and_args_round_trip(name, cat, args, attach, instant_args):
    with tempfile.TemporaryDirectory() as directory:
        def body(tracer):
            for _ in range(2):  # every label and args dict again
                tracer.end(tracer.begin(name, cat, args, attach=attach))
                tracer.instant(name, cat, instant_args)
            tracer.instant(cat, name, args)

        emitted = _segment(directory, body)
        assert _spans(read_trace(trace_path(directory))) == emitted


def test_args_json_cannot_return_exactly_are_refused_at_the_emitting_call(
    tmp_path
):
    """A tuple reads back as a list and a non-``str`` key as a string,
    so ``begin``, ``span`` and ``instant`` refuse them, naming the
    argument, and emit nothing; what they accept reads back equal."""
    import pytest

    refused = [
        ({"pair": (1, 2)}, "'pair' holds a tuple"),
        ({"rows": [1, [2, (3,)]]}, "'rows' holds a tuple"),
        ({"by_node": {1: "x"}}, "'by_node' holds a dict key of type int"),
        ({"deep": {"a": [{"b": {None: 0}}]}},
         "'deep' holds a dict key of type NoneType"),
        ({3: "x"}, "arg name 3 is a int"),
    ]

    def body(tracer):
        with tracer.span("run", cat="run", args={"ok": [1, {"k": [2]}]}):
            for args, message in refused:
                with pytest.raises(TypeError, match=message):
                    tracer.begin("refused", cat="unit", args=args)
                with pytest.raises(TypeError, match=message):
                    tracer.span("refused", cat="unit", args=args)
                with pytest.raises(TypeError, match=message):
                    tracer.instant("refused", "unit", args)
            tracer.instant("kept", "unit", {"n": {"k": [1.5, None]}})

    emitted = _segment(str(tmp_path), body)
    assert [r["name"] for r in emitted] == ["kept", "run"]
    assert _spans(read_trace(trace_path(str(tmp_path)))) == emitted


def test_records_the_tracer_does_not_emit_pass_through_as_objects(
    tmp_path
):
    odd = [
        {"t": "span", "name": "extra", "extra": 1},
        {"t": "span", "name": "x", "cat": "c", "pid": 1, "tid": 2,
         "thread": "T", "id": 1, "parent": None, "ts": 1.5, "dur": 1,
         "mode": "sync", "args": {}},
        {"t": "instant", "name": "x", "cat": "c", "pid": 1, "tid": 2,
         "thread": "T", "parent": "p", "ts": 1, "args": {}},
        {"t": "instant", "name": 7, "cat": "c", "pid": 1, "tid": 2,
         "thread": "T", "parent": None, "ts": 1, "args": {}},
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


def test_a_trace_of_older_rows_reads_and_exports_as_recorded():
    for trace, recorded, chrome in ROW_FIXTURES:
        with open(recorded, "r", encoding="utf-8") as fh:
            expected_records = json.load(fh)
        with open(chrome, "r", encoding="utf-8") as fh:
            expected_chrome = json.load(fh)
        records = read_trace(trace)
        assert len(segments(records)) == 2
        assert records == expected_records
        assert chrome_trace(records) == expected_chrome


def test_a_resumed_old_trace_appends_rows_after_its_torn_tail(tmp_path):
    """A run traced by an older writer, resumed by this one: a torn
    last line is ended, the old records read as before, the new ones as
    emitted."""
    for legacy in [LEGACY] + [trace for trace, _, _ in ROW_FIXTURES]:
        directory = str(tmp_path / os.path.basename(legacy))
        os.mkdir(directory)
        with open(legacy, "rb") as src, \
                open(trace_path(directory), "wb") as dst:
            dst.write(src.read())
        old = read_trace(legacy)
        emitted = _segment(directory, lambda tracer: [
            tracer.instant("pool.dispatch", "pool", {"unit": "u1"}),
            tracer.instant("pool.dispatch", "pool", {"unit": "u1"}),
            tracer.end(tracer.begin("run")),
        ])
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
    b'["s",0,4,1,60,2,["run","run"],{"k":1}]',
    b'["i",0,1,70,0,0]',
    b'["a",0,5,1,80,3,1]',
    # Deflated rows: one segment's stream, in order, then that segment
    # whole (header and rows).
    b'"ilYqVtKJNtcxNNRR8k3MzAvJKEpNTFGK1THSMdQxMdCx1IlWKirNU9IBk7E61UrZSl'
    b'bRhjpGsbWxAAA"',
    b'"ilbKVNIxAKkzBaoqyM/PASoDUXopmcUFiSXJGUqxsQAA"',
    b'"ilZKBCkyBiozNdAxASoszcssASosBZpmEAsA"',
    b'"gpthDiRiAQA"',
]
_REAL.append(b"\n".join([_REAL[0]] + _REAL[-4:]))
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


class _FullDisk:
    """A trace handle whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_write_advances_no_table(tmp_path):
    """A row that introduces a thread, a label and an args dict but is
    never written introduces none of them: the next row carries all
    three in full again, so the reader rebuilds it."""
    directory = str(tmp_path)
    sidecar = TelemetrySidecar(directory)
    sidecar.open_segment(run_id="codec")
    recorder = _Recorder(sidecar)
    tracer = Tracer(sink=recorder)
    handle, sidecar._fh = sidecar._fh, _FullDisk()
    tracer.instant("pool.dispatch", "pool", {"unit": "u1"})  # lost
    sidecar._fh = handle
    for _ in range(2):
        tracer.instant("pool.dispatch", "pool", {"unit": "u1"})
    sidecar.close()
    assert _spans(read_trace(trace_path(directory))) == recorder.emitted[1:]
    first, second = _lines(directory)[1:]
    assert [type(slot) for slot in first[1:2] + first[4:]] == [
        list, list, dict
    ]
    assert second[1:2] + second[4:] == [0, 0, 0]


class _FailsOnce:
    """A trace handle whose first write fails, as on a disk that was
    briefly full; every later write goes through."""

    def __init__(self, handle):
        self.handle, self.failed = handle, False

    def write(self, text):
        if not self.failed:
            self.failed = True
            raise OSError(28, "No space left on device")
        return self.handle.write(text)

    def flush(self):
        self.handle.flush()

    def close(self):
        self.handle.close()


def test_a_failed_write_retires_the_stream(tmp_path):
    """A deflated row that is never written leaves the writer's stream
    ahead of the reader's, so the writer retires it: the rest of the
    segment is plain rows, every one reads back, and they index the
    values the deflated rows introduced, not the lost row's."""
    directory = str(tmp_path)
    sidecar = TelemetrySidecar(directory)
    sidecar.open_segment(run_id="codec")
    recorder = _Recorder(sidecar)
    tracer = Tracer(sink=recorder)

    def dispatches():
        for unit in ("u0", "u1", "u0"):
            tracer.instant("pool.dispatch", "pool", {"unit": unit})

    dispatches()
    sidecar._fh = _FailsOnce(sidecar._fh)
    tracer.instant("journal.fsync", "journal", {"n": 1})  # lost
    dispatches()
    tracer.instant("journal.fsync", "journal", {"n": 1})
    sidecar.close()
    emitted = recorder.emitted
    assert _spans(read_trace(trace_path(directory))) == (
        emitted[:3] + emitted[4:]
    )
    assert _kinds(directory) == [dict] + [str] * 3 + [list] * 4
    assert [row[1:2] + row[4:] for row in _lines(directory)[4:]] == [
        [0, 0, 0], [0, 0, 1], [0, 0, 0],
        [0, ["journal", "journal.fsync"], {"n": 1}],
    ]


def test_rows_from_two_threads_never_interleave(tmp_path):
    """Two threads emit through one sidecar with the interpreter
    switching threads as often as it can: every record of each reads
    back, in its thread's order."""
    directory = str(tmp_path)
    sidecar = TelemetrySidecar(directory)
    sidecar.open_segment(run_id="codec")
    recorder = _Recorder(sidecar)
    tracer = Tracer(sink=recorder)

    def emit():
        for k in range(500):
            tracer.instant(f"tick{k % 5}", "pool", {"k": k % 7})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    sidecar.close()
    records = _spans(read_trace(trace_path(directory)))
    assert len(records) == len(recorder.emitted) == 1000
    for thread in threads:
        assert [r for r in records if r["tid"] == thread.ident] == [
            r for r in recorder.emitted if r["tid"] == thread.ident
        ]


def test_a_garbage_deflated_line_retires_only_its_segments_stream(
    tmp_path
):
    """A ``str`` line that does not inflate ends its segment's stream:
    the segment's later deflated rows are skipped, its plain lines and
    the next segment still read."""
    directory = str(tmp_path)

    def body(tracer):
        for k in range(4):
            tracer.instant("tick", "pool", {"k": k % 2})

    first = _segment(directory, body)
    path = trace_path(directory)
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # After the header and two rows: not base64, so the stream is
    # never fed it, yet the rows after it may refer to the row it was.
    lines[3:3] = [b'"garbage!"']
    lines[-1:] = [
        b'{"t":"note","text":"plain"}',
        b'["i",0,null,5,0,0]',  # a plain row: thread, label, args 0
        b"",
    ]
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    second = _segment(directory, body)
    records = read_trace(path)
    header = segments(records)[0]
    plain = {**first[0], "parent": None, "ts": header["mono_ns"] + 5}
    assert records[1:-len(second) - 1] == first[:2] + [
        {"t": "note", "text": "plain"}, plain,
    ]
    assert _spans(records[-len(second):]) == second


def test_a_row_inflating_past_the_cap_is_skipped(tmp_path, monkeypatch):
    """A deflated row that inflates to the codec's ``MAX_INFLATED`` or
    more is skipped and retires its segment's stream."""
    from repro.cache import codec

    directory = str(tmp_path)
    first = _segment(directory, lambda tracer: [
        tracer.instant("small", "pool"),
        tracer.instant("big", "pool", {"pad": "x" * 2000}),
        tracer.instant("small", "pool"),
    ])
    second = _segment(
        directory, lambda tracer: tracer.instant("small", "pool")
    )
    path = trace_path(directory)
    assert _spans(read_trace(path)) == first + second
    monkeypatch.setattr(codec, "MAX_INFLATED", 1 << 10)
    assert _spans(read_trace(path)) == first[:1] + second


def test_a_torn_row_that_introduced_a_label_costs_only_itself(tmp_path):
    """A segment killed while writing the row that introduced a label
    and an args dict, then resumed: every complete row reads back, and
    the resumed segment introduces both again."""
    directory = str(tmp_path)

    def body(tracer):
        tracer.instant("pool.dispatch", "pool", {"unit": "u1"})
        tracer.end(tracer.begin("journal.fsync", "journal", {"n": 1}))

    killed = _segment(directory, body)
    path = trace_path(directory)
    with open(path, "rb") as fh:
        data = fh.read()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    assert _kinds(directory)[-1] is str
    assert _lines(directory)[-1][-2:] == [
        ["journal", "journal.fsync"], {"n": 1}
    ]
    with open(path, "wb") as fh:
        fh.write(data[:last + (len(data) - last) // 2])
    resumed = _segment(directory, body)
    records = read_trace(path)
    assert [h["seq"] for h in segments(records)] == [0, 1]
    assert _spans(records) == killed[:-1] + resumed
    rows = [line for line in _lines(directory) if isinstance(line, list)]
    assert _introduced(rows[1:]) == (
        [("pool", "pool.dispatch"), ("journal", "journal.fsync")],
        ['{"unit":"u1"}', '{"n":1}'],
    )


def test_tables_stop_growing_at_the_limit_on_both_sides(
    tmp_path, monkeypatch
):
    """Past ``TABLE_LIMIT`` values a new thread, label or args dict is
    written in full every time and gets no index; the reader keeps the
    same count, so an index past it names nothing."""
    monkeypatch.setattr(sidecar_module, "TABLE_LIMIT", 2)
    directory = str(tmp_path)
    source = Tracer()
    for k in range(4):
        source.instant(f"label{k}", "cat", {"k": k})
    distinct = [
        {**record, "pid": record["pid"] + k}
        for k, record in enumerate(source.drain())
    ]
    emitted = _segment(
        directory, lambda tracer: tracer.absorb(distinct + distinct)
    )
    rows = [line for line in _lines(directory) if isinstance(line, list)]
    # The thread, label and args slots: two values get indices.
    assert [[type(row[slot]) for row in rows] for slot in (1, 4, 5)] == [
        [list] * 4 + [int] * 2 + [list] * 2,
        [list] * 4 + [int] * 2 + [list] * 2,
        [dict] * 4 + [int] * 2 + [dict] * 2,
    ]
    with open(trace_path(directory), "a", encoding="utf-8") as fh:
        for row in ([2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]):
            fh.write(_compact(["i", row[0], None, 5] + row[1:]) + "\n")
    records = _spans(read_trace(trace_path(directory)))
    assert records[:-1] == emitted
    assert (records[-1]["name"], records[-1]["args"]) == (
        "label1", {"k": 1}
    )


def test_each_rebuilt_record_owns_its_args(tmp_path):
    args = {"unit": "u1", "nested": {"a": [1]}}
    _segment(str(tmp_path), lambda tracer: [
        tracer.instant("pool.dispatch", "pool", args) for _ in range(3)
    ])
    first, second, third = _spans(read_trace(trace_path(str(tmp_path))))
    second["args"]["nested"]["a"].append(2)
    second["args"]["extra"] = True
    assert first["args"] == third["args"] == args
    assert args == {"unit": "u1", "nested": {"a": [1]}}
