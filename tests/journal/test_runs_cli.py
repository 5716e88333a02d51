"""``repro runs`` and the journaled command flags, driven in-process."""

import pytest

from repro.cli import main
from repro.journal.log import KILL_AFTER_ENV, set_kill_action
from repro.journal.pipelines import open_sweep_journal
from repro.journal.registry import list_runs
from repro.sweep import SweepRunner
from repro.sweep.spec import load_spec

SPEC = """
name = "runs-cli-demo"
agents = ["overclock"]
scales = [2]
seeds = [0]
duration_s = 10
rack_size = 1

[[fault]]
kind = "bad_data"
intensities = [0.9]
start_s = 2
duration_s = 5
racks = [0]
"""


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "demo.toml"
    path.write_text(SPEC)
    return str(path)


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_runs_list_empty(capsys, cache_dir):
    assert main(["runs", "list", "--cache-dir", cache_dir]) == 0
    assert "no journaled runs under" in capsys.readouterr().out


def test_sweep_run_journals_and_runs_list_shows_it(capsys, spec_path,
                                                   cache_dir):
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir]
    ) == 0
    out = capsys.readouterr().out
    assert "[journal: run " in out
    assert "sealed]" in out

    assert main(["runs", "list", "--cache-dir", cache_dir]) == 0
    listing = capsys.readouterr().out
    assert "sweep" in listing
    assert "sealed" in listing
    # 2 cells, 3 distinct node runs (node 1 is outside the burst).
    assert "3/3 done" in listing


def test_no_journal_flag_suppresses_journal(capsys, spec_path, cache_dir):
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir,
         "--no-journal"]
    ) == 0
    assert "[journal:" not in capsys.readouterr().out
    assert list_runs(cache_dir) == []


def test_runs_show_renders_manifest(capsys, spec_path, cache_dir):
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir]
    ) == 0
    capsys.readouterr()
    (info,) = list_runs(cache_dir)
    assert main(
        ["runs", "show", info.run_id, "--cache-dir", cache_dir]
    ) == 0
    out = capsys.readouterr().out
    assert f"run {info.run_id} (sweep) — sealed" in out
    assert "sealed digest: " in out
    assert "units: 3/3 done" in out


def test_runs_show_unknown_id_fails(capsys, cache_dir):
    assert main(
        ["runs", "show", "deadbeefdeadbeef", "--cache-dir", cache_dir]
    ) == 1
    assert "no journaled run" in capsys.readouterr().out


def test_runs_resume_unknown_id_fails(capsys, cache_dir):
    assert main(
        ["runs", "resume", "deadbeefdeadbeef", "--cache-dir", cache_dir]
    ) == 1
    assert "no journaled run" in capsys.readouterr().out


def _interrupt_sweep(spec_path, cache_dir, monkeypatch, after=1):
    """Journal ``after`` node runs of the campaign (one commit each), then
    "die" mid-run; ``after=0`` dies before anything ran."""
    class Killed(Exception):
        pass

    spec = load_spec(spec_path)
    if after == 0:
        with open_sweep_journal(cache_dir, spec) as journal:
            return journal.run_id
    monkeypatch.setenv(KILL_AFTER_ENV, str(after))
    set_kill_action(lambda: (_ for _ in ()).throw(Killed()))
    try:
        journal = open_sweep_journal(cache_dir, spec)
        with pytest.raises(Killed):
            SweepRunner(spec, journal=journal).run()
        journal.close()  # a dead owner's lock is dropped by the kernel
    finally:
        monkeypatch.delenv(KILL_AFTER_ENV, raising=False)
        set_kill_action(None)
    return journal.run_id


def test_runs_resume_finishes_interrupted_sweep(capsys, spec_path,
                                                cache_dir, monkeypatch):
    run_id = _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    (info,) = list_runs(cache_dir)
    assert info.run_id == run_id
    assert info.status == "interrupted"
    assert info.done_units == 1

    assert main(["runs", "resume", run_id, "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "replayed=1 executed=2" in out
    assert "sealed]" in out
    (after,) = list_runs(cache_dir)
    assert after.status == "sealed"


def test_runs_resume_persists_a_poisoned_unit(capsys, spec_path, cache_dir,
                                              monkeypatch):
    """A unit poisoned during ``runs resume`` is reported by the resume
    and durably journaled: ``runs show --timing`` reads its fault kind
    and attempt count back from the journal alone."""
    import json

    from repro.resilience.chaos import CHAOS_PLAN_ENV

    # Killed before the first completion: all node runs are still
    # pending, so the resume dispatches them on the pool, where faults
    # apply.
    run_id = _interrupt_sweep(spec_path, cache_dir, monkeypatch, after=0)
    poison = "overclock/node0/x10s/seed0/k1/bad_data@0.9[2+5]"
    monkeypatch.setenv(CHAOS_PLAN_ENV, json.dumps(
        {"kind": "crash", "probability": 0.0, "poison_units": [poison]}
    ))
    assert main([
        "runs", "resume", run_id, "--cache-dir", cache_dir, "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert f"[quarantine: 1 unit(s) — {poison}" in out
    (after,) = list_runs(cache_dir)
    assert after.quarantined_units == 1
    assert main([
        "runs", "show", run_id, "--cache-dir", cache_dir, "--timing",
    ]) == 0
    (row,) = [
        line.split() for line in capsys.readouterr().out.splitlines()
        if line.strip().startswith(poison)
    ]
    assert row == [poison, "-", "3", "quarantined", "(crash)"]


def test_latest_names_the_newest_run_for_show_and_resume(
    capsys, spec_path, cache_dir, monkeypatch
):
    assert main(["runs", "show", "latest", "--cache-dir", cache_dir]) == 1
    assert "no journaled run 'latest'" in capsys.readouterr().out
    run_id = _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    assert main(["runs", "show", "latest", "--cache-dir", cache_dir]) == 0
    assert f"run {run_id} (sweep)" in capsys.readouterr().out
    assert main(["runs", "resume", "latest", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert f"[journal: run {run_id} " in out
    assert "replayed=1 executed=2" in out


def test_sweep_resume_flag_finishes_interrupted_run(capsys, spec_path,
                                                    cache_dir,
                                                    monkeypatch):
    _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir, "--resume"]
    ) == 0
    out = capsys.readouterr().out
    assert "replayed=1 executed=2" in out
    assert "sealed]" in out


@pytest.mark.parametrize("command", ["runs resume", "sweep run --resume"])
@pytest.mark.parametrize(
    "key, value", [("log_format", 1), ("code_salt", "0" * 16)]
)
def test_resume_refuses_a_journal_of_another_build_as_a_usage_error(
    command, key, value, spec_path, cache_dir, monkeypatch
):
    """Neither resume spelling adopts a manifest whose ``log_format``
    or ``code_salt`` is not this build's: a usage error naming both
    values, and the refused log keeps every byte."""
    import json
    import os

    run_id = _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    directory = os.path.join(cache_dir, "runs", run_id)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    ours, manifest[key] = manifest[key], value
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with open(os.path.join(directory, "log.bin"), "rb") as handle:
        before = handle.read()
    argv = {
        "runs resume": ["runs", "resume", run_id],
        "sweep run --resume": ["sweep", "run", spec_path, "--resume"],
    }[command]
    with pytest.raises(SystemExit) as refusal:
        main(argv + ["--cache-dir", cache_dir])
    assert str(refusal.value) == (
        f"repro: error: run {run_id}: journal {key} is {value!r} but this "
        f"build's is {ours!r}; refusing to resume (run without --resume "
        f"to start fresh, or `repro runs prune` it)"
    )
    with open(os.path.join(directory, "log.bin"), "rb") as handle:
        assert handle.read() == before and before
    assert os.listdir(os.path.join(cache_dir, "runs")) == [run_id]  # no lease


def test_resumed_digest_matches_uninterrupted_run(capsys, spec_path,
                                                  cache_dir, monkeypatch):
    baseline = SweepRunner(load_spec(spec_path)).run().digest()
    _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir, "--resume"]
    ) == 0
    out = capsys.readouterr().out
    assert f"campaign digest: {baseline}" in out


def test_reproduce_all_journals_series_runs(capsys, cache_dir):
    assert main(
        ["reproduce-all", "--only", "table1", "--cache-dir", cache_dir,
         "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "[journal: run " in out
    assert "sealed]" in out
    (info,) = list_runs(cache_dir)
    assert info.kind == "reproduce"
    assert info.status == "sealed"


@pytest.mark.parametrize("command", ["reproduce-all", "fleet", "sweep"])
def test_reproduce_all_resume_needs_journal(command, spec_path, cache_dir,
                                            monkeypatch):
    """The check lives in the launch ladder, so every journaled command
    refuses ``--resume --no-journal`` instead of silently running fresh."""
    monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
    argv = {
        "reproduce-all": ["reproduce-all", "--only", "table1"],
        "fleet": ["fleet", "--nodes", "2", "--seconds", "5"],
        "sweep": ["sweep", "run", spec_path],
    }[command]
    with pytest.raises(SystemExit, match="--resume needs the journal"):
        main(argv + ["--no-journal", "--resume"])


def test_fleet_journals_via_cache_env(capsys, cache_dir, monkeypatch):
    from repro.experiments.driver import FleetDriver
    from repro.fleet.config import FleetConfig

    monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
    assert main(
        ["fleet", "--nodes", "4", "--seconds", "10", "--workers", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "[journal: run " in out
    assert "sealed]" in out
    (info,) = list_runs(cache_dir)
    assert info.kind == "fleet"
    # Resume of a sealed fleet run replays everything, executes nothing.
    assert main(
        ["runs", "resume", info.run_id, "--cache-dir", cache_dir]
    ) == 0
    resumed = capsys.readouterr().out
    chunks = FleetDriver(FleetConfig(n_nodes=4), workers=1).chunks()
    assert f"replayed={len(chunks)} executed=0" in resumed


# -- runs prune --------------------------------------------------------------


def _seal_fleet(cache_dir, seed, nodes=2):
    from repro.experiments.driver import FleetDriver
    from repro.fleet.config import FleetConfig
    from repro.journal.pipelines import open_fleet_journal

    config = FleetConfig(
        n_nodes=nodes, agent="overclock", seed=seed, duration_s=10
    )
    with open_fleet_journal(cache_dir, config, 1) as journal:
        FleetDriver(config, workers=1, journal=journal).run()
    return journal.run_id


def test_runs_prune_empty_root(capsys, cache_dir):
    assert main(["runs", "prune", "--cache-dir", cache_dir]) == 0
    assert "0 pruned, 0 kept" in capsys.readouterr().out


def test_runs_prune_deletes_sealed_runs(capsys, cache_dir):
    a = _seal_fleet(cache_dir, seed=1)
    b = _seal_fleet(cache_dir, seed=2)
    assert main(["runs", "prune", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert f"pruned {a}" in out and f"pruned {b}" in out
    assert "2 pruned, 0 kept, 0 running refused" in out
    assert list_runs(cache_dir) == []


def test_runs_prune_keep_spares_newest(capsys, cache_dir):
    _seal_fleet(cache_dir, seed=1)
    _seal_fleet(cache_dir, seed=2)
    newest = list_runs(cache_dir)[0].run_id
    assert main(
        ["runs", "prune", "--keep", "1", "--cache-dir", cache_dir]
    ) == 0
    assert "1 pruned, 1 kept" in capsys.readouterr().out
    (survivor,) = list_runs(cache_dir)
    assert survivor.run_id == newest


def test_runs_prune_sealed_only_keeps_interrupted(capsys, spec_path,
                                                  cache_dir, monkeypatch):
    interrupted = _interrupt_sweep(spec_path, cache_dir, monkeypatch)
    _seal_fleet(cache_dir, seed=3)
    assert main(
        ["runs", "prune", "--sealed-only", "--cache-dir", cache_dir]
    ) == 0
    assert "1 pruned, 1 kept" in capsys.readouterr().out
    (survivor,) = list_runs(cache_dir)
    assert survivor.run_id == interrupted
    assert survivor.status == "interrupted"  # still resumable


def test_runs_prune_refuses_running_run(capsys, cache_dir):
    from repro.fleet.config import FleetConfig
    from repro.journal.pipelines import open_fleet_journal

    config = FleetConfig(
        n_nodes=2, agent="overclock", seed=4, duration_s=10
    )
    journal = open_fleet_journal(cache_dir, config, 1)
    try:
        assert main(["runs", "prune", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"refused {journal.run_id}" in out
        assert "1 running refused" in out
        (info,) = list_runs(cache_dir)
        assert info.status == "running"
    finally:
        journal.close()


def test_runs_prune_negative_keep_is_usage_error(capsys, cache_dir):
    assert main(
        ["runs", "prune", "--keep", "-1", "--cache-dir", cache_dir]
    ) == 2
    assert "keep must be >= 0" in capsys.readouterr().out


def test_runs_prune_removes_stale_lease_files(cache_dir):
    import os

    from repro.journal.run import runs_root

    run_id = _seal_fleet(cache_dir, seed=5)
    # a lease file left behind by a dead owner (no lock holder)
    stale = os.path.join(runs_root(cache_dir), f"{run_id}.lease")
    with open(stale, "w", encoding="utf-8") as handle:
        handle.write("{}")
    assert main(["runs", "prune", "--cache-dir", cache_dir]) == 0
    assert not os.path.exists(stale)
    assert list_runs(cache_dir) == []


def test_runs_prune_refuses_a_run_claimed_after_the_scan(
    capsys, cache_dir, monkeypatch
):
    """A run the registry saw as sealed, but that an orchestrator claimed
    between that snapshot and the delete, is refused and left intact —
    directory, lease file and all."""
    import os

    from repro.journal import cli as runs_cli
    from repro.journal.lease import Lease
    from repro.journal.run import runs_root

    run_id = _seal_fleet(cache_dir, seed=6)
    lease = Lease(os.path.join(runs_root(cache_dir), f"{run_id}.lease"))

    def snapshot_then_claim(root):
        runs = list_runs(root)
        lease.acquire()
        return runs

    monkeypatch.setattr(runs_cli, "list_runs", snapshot_then_claim)
    try:
        assert main(["runs", "prune", "--cache-dir", cache_dir]) == 0
        assert "0 pruned, 0 kept, 1 running refused" in (
            capsys.readouterr().out
        )
        assert os.path.exists(lease.path)
        (info,) = list_runs(cache_dir)
        assert info.run_id == run_id and info.status == "sealed"
    finally:
        lease.release()
