"""End-to-end observability: tracing never moves a digest, sidecars
merge across process segments, and the CLI exports/inspects them."""

import glob
import json
import os

import pytest

from repro.cache import ResultCache
from repro.cli import main
from repro.experiments.driver import FleetDriver, reproduce_all, reproduce_plan
from repro.fleet.config import FleetConfig
from repro.journal.cli import timing_rows
from repro.journal.pipelines import open_fleet_journal, open_reproduce_journal
from repro.journal.registry import list_runs
from repro.journal.run import load_log, read_log
from repro.obs import run_tracing, spans as obs
from repro.obs.sidecar import read_trace, segments, trace_path
from repro.resilience.chaos import CHAOS_PLAN_ENV
from repro.resilience.pool import shared_pool, shared_pool_counters

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
    # What the pool did is in the trace too: one dispatch per chunk.
    dispatches = [r for r in records if r.get("name") == "pool.dispatch"]
    assert len(dispatches) == len(FleetDriver(FLEET, workers=2).chunks())


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


RUN_FILES = ["log.bin", "manifest.json", "trace.jsonl"]


def test_a_traced_run_directory_holds_exactly_its_three_files(
    tmp_path, monkeypatch
):
    """Each file a traced run leaves has a reader: the manifest, the
    record log and the trace.  A fleet, a reproduce and a sweep run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "campaigns",
        "smoke.toml",
    )
    for argv in (
        ["fleet", "--nodes", "4", "--seconds", "10", "--workers", "2"],
        ["reproduce-all", "--only", *ONLY, "--scale", str(SCALE),
         "--workers", "2"],
        ["sweep", "run", spec, "--workers", "2"],
    ):
        assert main(argv) == 0
    runs = list_runs(str(tmp_path))
    assert sorted(info.kind for info in runs) == [
        "fleet", "reproduce", "sweep"
    ]
    for info in runs:
        assert sorted(os.listdir(info.directory)) == RUN_FILES


def test_malformed_metrics_json_cannot_fail_a_finished_run(tmp_path, capsys):
    """An older build wrote a ``metrics.json`` per traced run: a run
    directory that still holds one (malformed, even) lists, shows,
    resumes and exports, and the file is left as it was."""
    root = str(tmp_path)
    journal = open_fleet_journal(root, FLEET, 1)
    with run_tracing(journal, kind="fleet"):
        pass  # interrupted before any unit completed
    journal.close()
    path = os.path.join(journal.directory, "metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"segments": None}, fh)
    assert main(["runs", "list", "--cache-dir", root]) == 0
    assert journal.run_id in capsys.readouterr().out
    assert main(["runs", "resume", journal.run_id, "--cache-dir", root]) == 0
    assert "sealed]" in capsys.readouterr().out
    assert main(
        ["runs", "show", journal.run_id, "--timing", "--cache-dir", root]
    ) == 0
    assert "2 segment(s)" in capsys.readouterr().out
    assert main(
        ["trace", "export", journal.run_id, "--cache-dir", root,
         "--output", str(tmp_path / "trace.json")]
    ) == 0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {"segments": None}
    assert sorted(os.listdir(journal.directory)) == sorted(
        RUN_FILES + ["metrics.json"]
    )


def test_a_crashing_fleet_runs_pool_counters_are_in_its_trace(
    tmp_path, monkeypatch
):
    """Under a ``crash`` plan, what the pool did over a traced CLI run —
    dispatches, completions, crashes, kills, respawns, errored
    attempts — read from ``trace.jsonl`` alone equals the change in the
    live pool counters over that run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(CHAOS_PLAN_ENV, json.dumps(
        {"kind": "crash", "probability": 0.5, "seed": 1}
    ))
    shared_pool(2)  # the run reuses this pool, so its counters go on
    before = shared_pool_counters()
    assert main(
        ["fleet", "--nodes", "8", "--seconds", "10", "--workers", "2"]
    ) == 0
    after = shared_pool_counters()
    (info,) = list_runs(str(tmp_path))
    records = read_trace(trace_path(info.directory))

    def count(name):
        return sum(r.get("name") == name for r in records)

    attempts = [r for r in records if r.get("name") == "attempt"]
    crashes, kills = count("pool.crash"), count("pool.kill")
    from_trace = {
        "submitted": count("pool.dispatch"),
        "completed": sum("error" not in r["args"] for r in attempts),
        "errored": sum("error" in r["args"] for r in attempts),
        "crashes": crashes,
        "kills": kills,
        "respawns": crashes + kills,
    }
    assert from_trace == {key: after[key] - before[key] for key in from_trace}
    units = [r for r in records if r.get("cat") == "unit"]
    assert crashes > 0 and from_trace["completed"] == len(units)


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
    units = ["slow", "fast1", "fast2", "hit", "poison", "unfinished"]
    records = [
        {"kind": "UNIT_DISPATCHED", "unit": 0, "attempt": 0},
        {"kind": "UNIT_DISPATCHED", "unit": 0, "attempt": 1},
        {"kind": "UNIT_DONE", "unit": 0, "wall": 10.0, "executed": True},
        {"kind": "UNIT_DISPATCHED", "unit": 1, "attempt": 0},
        {"kind": "UNIT_DONE", "unit": 1, "wall": 1.0, "executed": True},
        {"kind": "UNIT_DISPATCHED", "unit": 2, "attempt": 0},
        {"kind": "UNIT_DONE", "unit": 2, "wall": 1.2, "executed": True},
        {"kind": "UNIT_DONE", "unit": 3, "wall": 0.0, "executed": False},
        {"kind": "UNIT_DISPATCHED", "unit": 4, "attempt": 0},
        {"kind": "UNIT_QUARANTINED", "unit": 4, "fault": "error"},
        {"kind": "UNIT_DISPATCHED", "unit": 5, "attempt": 0},
        {"kind": "RUN_SEALED", "digest": "d"},
    ]
    view = read_log({"units": units}, [(r, b"") for r in records])
    rows = {row["unit"]: row for row in timing_rows(view)}
    assert rows["slow"]["attempts"] == 2
    assert rows["slow"]["outlier"] is True  # 10.0 > 3 x median(1.2)
    assert rows["fast1"]["outlier"] is False
    assert rows["hit"]["source"] == "cached"
    assert rows["poison"]["source"] == "quarantined"
    assert rows["poison"]["fault"] == "error"
    assert rows["slow"]["fault"] is None
    assert rows["unfinished"]["source"] == "pending"
    # Slowest-first ordering, wall-less rows at the bottom.
    ordered = [row["unit"] for row in timing_rows(view)]
    assert ordered[:3] == ["slow", "fast2", "fast1"]
    assert set(ordered[3:]) == {"hit", "poison", "unfinished"}


def test_no_trace_flag_on_cli_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(
        ["fleet", "--nodes", "2", "--seconds", "5", "--no-trace"]
    ) == 0
    (info,) = list_runs(str(tmp_path))
    assert not os.path.exists(trace_path(info.directory))


# -- the cache probe: one span per pass ---------------------------------------

ONLY = ["table1", "fig4"]  # three units
SCALE = 0.05


def _cached_pass(root):
    """One traced ``reproduce_all`` through cache + journal; returns the
    cache, the trace's span records and each unit's journaled
    ``executed`` flag."""
    cache = ResultCache(root)
    with open_reproduce_journal(root, ONLY, SCALE) as journal:
        with run_tracing(journal, kind="reproduce"):
            reproduce_all(only=ONLY, scale=SCALE, cache=cache,
                          journal=journal)
        directory, manifest = journal.directory, journal.manifest
    records = read_trace(trace_path(directory))
    executed = {
        unit: state.done["executed"]
        for unit, state in load_log(directory, manifest).units.items()
    }
    return cache, [r for r in records if r.get("t") == "span"], executed


def _probes(spans):
    return [r["args"] for r in spans if r["name"] == "cache.probe"]


def test_a_cached_pass_traces_one_probe_span(tmp_path):
    root = str(tmp_path)
    units = len(reproduce_plan(ONLY, SCALE).units)
    cold_cache, cold, cold_executed = _cached_pass(root)
    assert _probes(cold) == [{"hits": 0, "misses": units}]
    warm_cache, warm, warm_executed = _cached_pass(root)
    assert _probes(warm) == [{"hits": units, "misses": 0}]
    # No span per key: each unit's outcome is the journal's `executed`
    # flag, and the cache's counters total them.
    assert not [r for r in cold + warm if r["name"] == "cache.get"]
    assert sorted(cold_executed.values()) == [True] * units
    assert sorted(warm_executed.values()) == [False] * units
    assert (cold_cache.stats.misses, warm_cache.stats.hits) == (units, units)


def test_a_corrupt_object_is_still_quarantined_and_counted(tmp_path):
    root = str(tmp_path)
    units = len(reproduce_plan(ONLY, SCALE).units)
    _cached_pass(root)
    victim = sorted(glob.glob(os.path.join(root, "objects", "*", "*")))[0]
    with open(victim, "wb") as handle:
        handle.write(b"not a deflated object")
    cache, spans, _executed = _cached_pass(root)
    assert _probes(spans) == [{"hits": units - 1, "misses": 1}]
    assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
    assert os.path.exists(
        os.path.join(cache.quarantine_dir, os.path.basename(victim))
    )


def test_a_traced_fleet_run_writes_no_probe_span(tmp_path):
    _digest, directory = _run_fleet(str(tmp_path), True, workers=1)
    records = read_trace(trace_path(directory))
    assert "unit" in {r.get("cat") for r in records}
    assert "cache.probe" not in {r.get("name") for r in records}
