"""Sidecar + exporter tests: segments, crash tolerance, Chrome JSON,
Prometheus text."""

import json

from repro.obs.export import chrome_trace, render_prometheus
from repro.obs.sidecar import (
    TelemetrySidecar,
    read_trace,
    segments,
    trace_path,
)
from repro.obs.spans import Tracer


def _traced_segment(directory, run_id, names):
    sidecar = TelemetrySidecar(str(directory))
    sidecar.open_segment(run_id=run_id)
    tracer = Tracer(sink=sidecar.write)
    for name in names:
        with tracer.span(name):
            pass
    sidecar.close()
    return sidecar


def test_segments_accumulate_across_reopens(tmp_path):
    _traced_segment(tmp_path, "run-1", ["a", "b"])
    _traced_segment(tmp_path, "run-1", ["c"])
    records = read_trace(trace_path(str(tmp_path)))
    heads = segments(records)
    assert [h["seq"] for h in heads] == [0, 1]
    assert all(h["run_id"] == "run-1" for h in heads)
    spans = [r for r in records if r["t"] == "span"]
    assert [s["name"] for s in spans] == ["a", "b", "c"]
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


def test_torn_and_garbage_lines_are_skipped(tmp_path):
    _traced_segment(tmp_path, "run-1", ["a"])
    path = trace_path(str(tmp_path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"t": "span", "name": "torn", "ts": 1, "dur"')
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\ngarbage line\n")
    records = read_trace(path)
    names = [r.get("name") for r in records if r.get("t") == "span"]
    assert names == ["a"]
    # A reader on a missing file degrades to empty, never raises.
    assert read_trace(str(tmp_path / "nope.jsonl")) == []


def test_chrome_export_round_trips_and_orders_spans(tmp_path):
    _traced_segment(tmp_path, "run-1", ["a", "b"])
    _traced_segment(tmp_path, "run-1", ["c"])
    records = read_trace(trace_path(str(tmp_path)))
    trace = chrome_trace(records)
    # Round-trips through JSON.
    parsed = json.loads(json.dumps(trace))
    assert parsed["displayTimeUnit"] == "ms"
    events = parsed["traceEvents"]
    assert events, "expected trace events"
    for event in events:
        assert event["ph"] in ("X", "b", "e", "i", "M")
    # Per (pid, tid), complete-span timestamps are monotonic.
    by_thread = {}
    for event in events:
        if event["ph"] == "X":
            key = (event["pid"], event["tid"])
            by_thread.setdefault(key, []).append(event["ts"])
    for stamps in by_thread.values():
        assert stamps == sorted(stamps)


def test_chrome_export_async_spans_pair_up():
    records = [
        {"t": "segment", "seq": 0, "pid": 1, "unix_ns": 10 ** 18,
         "mono_ns": 0},
        {"t": "span", "name": "unit-a", "cat": "unit", "pid": 1,
         "tid": 7, "thread": "MainThread", "id": 3, "parent": 1,
         "ts": 1000, "dur": 5000, "mode": "async", "args": {}},
    ]
    events = chrome_trace(records)["traceEvents"]
    begins = [e for e in events if e["ph"] == "b"]
    ends = [e for e in events if e["ph"] == "e"]
    assert len(begins) == len(ends) == 1
    assert begins[0]["id"] == ends[0]["id"] == "1:3"
    assert ends[0]["ts"] - begins[0]["ts"] == 5.0  # 5000 ns = 5 us


def test_prometheus_rendering_flattens_and_types():
    text = render_prometheus({
        "queue": {"depth": 3, "accepting": True},
        "jobs": {"submitted": 7, "by_status": {"done": 2}},
        "events": {"dropped_total": 0},
        "name": "ignored-string",
    })
    lines = text.strip().splitlines()
    assert "repro_queue_depth 3" in lines
    assert "repro_queue_accepting 1" in lines
    assert "repro_jobs_submitted 7" in lines
    assert "repro_jobs_by_status_done 2" in lines
    assert "# TYPE repro_events_dropped_total counter" in lines
    assert "# TYPE repro_queue_depth gauge" in lines
    assert not any("ignored-string" in line for line in lines)
    assert text.endswith("\n")
