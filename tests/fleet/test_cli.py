"""The ``python -m repro`` command line, driven in-process."""

import pytest

from repro.cli import main, render_experiments_markdown
from repro.experiments.driver import reproduce_all


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "table2" in out and "mixed" in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Taxonomy of production agents" in out
    assert "35%" in out


def test_fleet_smoke(capsys):
    assert main(
        ["fleet", "--nodes", "2", "--seconds", "10", "--workers", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "== fleet: 2 nodes × 10s simulated ==" in out
    assert "digest:" in out


def test_fleet_same_seed_same_digest_across_workers(capsys):
    args = ["fleet", "--nodes", "4", "--seconds", "10", "--seed", "5"]
    main(args + ["--workers", "1"])
    first = capsys.readouterr().out
    main(args + ["--workers", "2"])
    second = capsys.readouterr().out
    digest = [l for l in first.splitlines() if l.startswith("digest:")]
    assert digest == [
        l for l in second.splitlines() if l.startswith("digest:")
    ]


def test_fleet_fault_flags(capsys):
    assert main(
        ["fleet", "--nodes", "2", "--seconds", "15", "--rack-size", "1",
         "--fault-racks", "0", "--fault-start", "2",
         "--fault-duration", "8"]
    ) == 0
    assert "digest:" in capsys.readouterr().out


def test_fleet_rejects_bad_fault_racks():
    with pytest.raises(SystemExit):
        main(["fleet", "--nodes", "2", "--fault-racks", ","])


def test_run_rejects_unknown_artifact(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_experiments_markdown_rendering():
    runs = reproduce_all(only=["table1"])
    text = render_experiments_markdown(runs, quick=True)
    assert text.startswith("# Measured outputs")
    assert "## table1" in text
    assert "| class |" in text
    assert "--quick" in text


def test_reproduce_all_rejects_unknown_only_artifact():
    with pytest.raises(SystemExit):
        main(["reproduce-all", "--only", "fig99"])


def test_reproduce_all_rejects_mixed_known_and_unknown_only():
    with pytest.raises(SystemExit):
        main(["reproduce-all", "--only", "table1", "fig99"])


def test_fleet_fault_kind_flags_reach_the_simulation(capsys):
    digests = {}
    for kind in ("bad_data", "dropout", "crash_restart"):
        assert main(
            ["fleet", "--nodes", "2", "--seconds", "15", "--rack-size", "1",
             "--fault-racks", "0", "--fault-start", "2",
             "--fault-duration", "8", "--fault-probability", "1.0",
             "--fault-kind", kind]
        ) == 0
        out = capsys.readouterr().out
        digests[kind] = [
            l for l in out.splitlines() if l.startswith("digest:")
        ]
        assert digests[kind]
    # The flag must actually reach the simulation: each kind injects a
    # different failure, so the three digests cannot coincide.
    assert len({tuple(d) for d in digests.values()}) == 3


def test_fleet_rejects_unknown_fault_kind():
    with pytest.raises(SystemExit):
        main(["fleet", "--nodes", "2", "--fault-racks", "0",
              "--fault-kind", "meteor"])


def test_reproduce_all_workers_alone_sizes_the_pool(capsys):
    """``--workers N`` is the one pool-size setting: with N > 1 the pass
    is sharded, no second flag needed."""
    assert main(
        ["reproduce-all", "--workers", "2", "--only", "table1", "table2",
         "--scale", "0.05", "--no-journal"]
    ) == 0
    out = capsys.readouterr().out
    assert "[reproduce-all: 2 artifacts, parallel/series," in out


def test_emit_experiments_writes_the_measured_tables(tmp_path, capsys):
    path = tmp_path / "EXPERIMENTS.md"
    assert main(
        ["reproduce-all", "--only", "table1", "--scale", "0.05",
         "--no-journal", "--emit-experiments", str(path)]
    ) == 0
    assert f"[wrote {path}]" in capsys.readouterr().out
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# Measured outputs")
    assert "## table1" in text and "| class |" in text
    assert "(full pass)" in text


def test_emit_experiments_refuses_a_missing_directory_before_running(
    tmp_path, monkeypatch
):
    from repro.journal import pipelines

    def launch(*args, **kwargs):
        raise AssertionError("a unit ran before the path was checked")

    monkeypatch.setattr(pipelines, "launch", launch)
    target = tmp_path / "missing" / "EXPERIMENTS.md"
    with pytest.raises(SystemExit, match="is not a directory"):
        main(["reproduce-all", "--only", "table1", "--no-journal",
              "--emit-experiments", str(target)])
    assert not target.parent.exists()
