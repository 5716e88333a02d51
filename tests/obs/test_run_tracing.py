"""End-to-end observability: tracing never moves a digest, sidecars
merge across process segments, and the CLI exports/inspects them."""

import json
import os

import pytest

from repro.cli import main
from repro.experiments.driver import FleetDriver
from repro.fleet.config import FleetConfig
from repro.journal.cli import timing_rows
from repro.journal.pipelines import open_fleet_journal
from repro.journal.registry import list_runs
from repro.obs import run_tracing, spans as obs
from repro.obs.sidecar import read_metrics, read_trace, segments, trace_path
from repro.resilience.pool import shared_pool_counters

FLEET = FleetConfig(n_nodes=4, agent="overclock", seed=7, duration_s=10)


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    obs.deactivate()
    yield
    obs.deactivate()


def _run_fleet(root, traced, workers=2):
    with open_fleet_journal(root, FLEET, workers) as journal:
        with run_tracing(journal, enabled_=traced, kind="fleet"):
            aggregate = FleetDriver(
                FLEET, workers=workers, journal=journal
            ).run()
        directory = journal.directory
    return aggregate.digest(), directory


def test_tracing_on_vs_off_digests_bit_identical(tmp_path):
    # The pool's counters are lifetime totals of the shared pool, which
    # earlier tests may already have used.
    submitted_before = shared_pool_counters()["submitted"]
    traced_digest, traced_dir = _run_fleet(str(tmp_path / "a"), True)
    plain_digest, plain_dir = _run_fleet(str(tmp_path / "b"), False)
    assert traced_digest == plain_digest
    assert os.path.exists(trace_path(traced_dir))
    assert not os.path.exists(trace_path(plain_dir))
    # The traced run captured the whole hierarchy out-of-band.
    records = read_trace(trace_path(traced_dir))
    names = {r.get("name") for r in records if r.get("t") == "span"}
    assert "run" in names
    assert "pipeline" in names
    assert "attempt" in names  # worker-shipped over the event pipe
    cats = {r.get("cat") for r in records if r.get("t") == "span"}
    assert {"run", "fleet", "unit", "pool"} <= cats
    # Worker attempts ran in other processes; their records merged in.
    pids = {r.get("pid") for r in records if r.get("t") == "span"}
    assert len(pids) > 1
    metrics = read_metrics(os.path.join(traced_dir, "metrics.json"))
    assert metrics["segments"][0]["metrics"]["pool"]["submitted"] == (
        submitted_before + len(FleetDriver(FLEET, workers=2).chunks())
    )


def test_resumed_run_appends_second_segment(tmp_path):
    root = str(tmp_path)
    # Segment 0: trace a first (complete) pass; segment 1: resume-style
    # second session against the same journal directory.
    digest, directory = _run_fleet(root, True, workers=1)
    with open_fleet_journal(
        root, FLEET, 1, resume=True
    ) as journal:
        with run_tracing(journal, kind="fleet", resumed=True):
            again = FleetDriver(FLEET, workers=1, journal=journal).run()
    assert again.digest() == digest
    records = read_trace(trace_path(directory))
    heads = segments(records)
    assert len(heads) == 2
    assert [h["seq"] for h in heads] == [0, 1]
    metrics = read_metrics(os.path.join(directory, "metrics.json"))
    assert len(metrics["segments"]) == 2


def test_malformed_metrics_json_cannot_fail_a_finished_run(tmp_path, capsys):
    root = str(tmp_path)
    journal = open_fleet_journal(root, FLEET, 1)
    journal.close()  # interrupted before any unit completed
    path = os.path.join(journal.directory, "metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"segments": None}, fh)
    assert main(["runs", "resume", journal.run_id, "--cache-dir", root]) == 0
    assert "sealed]" in capsys.readouterr().out
    (segment,) = read_metrics(path)["segments"]
    assert sorted(segment) == ["metrics", "pid", "seq"]
    assert segment["metrics"]["pool"]["size"] >= 0


def test_a_non_utf8_trace_tail_does_not_block_resume(tmp_path, capsys):
    """A killed segment's last write left bytes that are not UTF-8:
    resume, ``runs show`` and ``trace export`` all read past them."""
    root = str(tmp_path)
    journal = open_fleet_journal(root, FLEET, 1)
    with run_tracing(journal, kind="fleet"):
        pass  # the segment was killed before any unit completed
    journal.close()
    path = trace_path(journal.directory)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe")
    assert main(["runs", "resume", journal.run_id, "--cache-dir", root]) == 0
    assert "sealed]" in capsys.readouterr().out
    records = read_trace(path)
    assert [h["seq"] for h in segments(records)] == [0, 1]
    assert sum(r["name"] == "pipeline" for r in records if "name" in r) == 1
    assert main(
        ["runs", "show", journal.run_id, "--timing", "--cache-dir", root]
    ) == 0
    assert "2 segment(s)" in capsys.readouterr().out
    assert main(
        ["trace", "export", journal.run_id, "--cache-dir", root,
         "--output", str(tmp_path / "trace.json")]
    ) == 0


def test_trace_export_cli_round_trips(tmp_path, capsys):
    root = str(tmp_path)
    _run_fleet(root, True)
    (info,) = list_runs(root)
    out_path = str(tmp_path / "trace.json")
    assert main(
        ["trace", "export", info.run_id, "--cache-dir", root,
         "--output", out_path]
    ) == 0
    with open(out_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"]
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert phases <= {"X", "b", "e", "i", "M"}
    # 'latest' resolves to the same run.
    assert main(
        ["trace", "export", "latest", "--cache-dir", root,
         "--output", out_path]
    ) == 0


def test_trace_export_errors_cleanly(tmp_path, capsys):
    root = str(tmp_path)
    assert main(
        ["trace", "export", "nope", "--cache-dir", root]
    ) == 2
    # A run executed with tracing off has no sidecar.
    _run_fleet(root, False)
    (info,) = list_runs(root)
    assert main(
        ["trace", "export", info.run_id, "--cache-dir", root]
    ) == 2
    err = capsys.readouterr().err
    assert "no telemetry sidecar" in err


def test_runs_show_timing_table(tmp_path, capsys):
    root = str(tmp_path)
    _run_fleet(root, True)
    (info,) = list_runs(root)
    assert main(
        ["runs", "show", info.run_id, "--timing", "--cache-dir", root]
    ) == 0
    out = capsys.readouterr().out
    assert "per-unit timing (journal-reconstructed):" in out
    assert "wall_s" in out
    assert "executed" in out
    assert "telemetry: trace.jsonl" in out


def test_timing_rows_sources_and_outlier_flag():
    records = [
        {"kind": "UNIT_DISPATCHED", "unit": "slow", "attempt": 0},
        {"kind": "UNIT_DISPATCHED", "unit": "slow", "attempt": 1},
        {"kind": "UNIT_DONE", "unit": "slow", "wall": 10.0,
         "executed": True},
        {"kind": "UNIT_DISPATCHED", "unit": "fast1", "attempt": 0},
        {"kind": "UNIT_DONE", "unit": "fast1", "wall": 1.0,
         "executed": True},
        {"kind": "UNIT_DISPATCHED", "unit": "fast2", "attempt": 0},
        {"kind": "UNIT_DONE", "unit": "fast2", "wall": 1.2,
         "executed": True},
        {"kind": "UNIT_DONE", "unit": "hit", "wall": 0.0,
         "executed": False},
        {"kind": "UNIT_DISPATCHED", "unit": "poison", "attempt": 0},
        {"kind": "UNIT_QUARANTINED", "unit": "poison", "fault": "error"},
        {"kind": "UNIT_DISPATCHED", "unit": "unfinished", "attempt": 0},
        {"kind": "RUN_SEALED", "digest": "d"},
    ]
    rows = {row["unit"]: row for row in timing_rows(records)}
    assert rows["slow"]["attempts"] == 2
    assert rows["slow"]["outlier"] is True  # 10.0 > 3 x median(1.2)
    assert rows["fast1"]["outlier"] is False
    assert rows["hit"]["source"] == "cached"
    assert rows["poison"]["source"] == "quarantined"
    assert rows["poison"]["fault"] == "error"
    assert rows["slow"]["fault"] is None
    assert rows["unfinished"]["source"] == "pending"
    # Slowest-first ordering, wall-less rows at the bottom.
    ordered = [row["unit"] for row in timing_rows(records)]
    assert ordered[:3] == ["slow", "fast2", "fast1"]
    assert set(ordered[3:]) == {"hit", "poison", "unfinished"}


def test_no_trace_flag_on_cli_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(
        ["fleet", "--nodes", "2", "--seconds", "5", "--no-trace"]
    ) == 0
    (info,) = list_runs(str(tmp_path))
    assert not os.path.exists(trace_path(info.directory))
