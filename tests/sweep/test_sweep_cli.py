"""The ``repro sweep`` command line, driven in-process."""

import os

import pytest

from repro.cli import main

SPEC = """
name = "cli-demo"
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


def test_sweep_show_lists_cells_without_running(capsys, spec_path):
    assert main(["sweep", "show", spec_path]) == 0
    out = capsys.readouterr().out
    assert "campaign: cli-demo — 2 cells, 3 node runs" in out
    assert "overclock/n2/x10s/seed0/baseline" in out
    assert "bad_data@0.9[2+5]r0" in out
    assert "overclock/node1/x10s/seed0/k1/baseline" in out


def test_sweep_run_prints_scoreboard_and_digest(capsys, spec_path, tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir]
    ) == 0
    out = capsys.readouterr().out
    assert "campaign digest: " in out
    # 2 cells, 3 distinct node runs (node 1 is outside the burst).
    assert "[sweep: 2 cells, 3 executed, 0 from cache" in out
    assert "frontier: fault=bad_data[2+5]r0 agent=overclock" in out
    # Warm re-run through the same cache: zero executed, same digest.
    assert main(
        ["sweep", "run", spec_path, "--cache-dir", cache_dir]
    ) == 0
    warm = capsys.readouterr().out
    assert "[sweep: 2 cells, 0 executed, 3 from cache" in warm
    digest = [l for l in out.splitlines() if l.startswith("campaign digest")]
    assert digest == [
        l for l in warm.splitlines() if l.startswith("campaign digest")
    ]


def test_sweep_run_no_cache_recomputes(capsys, spec_path):
    assert main(["sweep", "run", spec_path, "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "3 executed" in out
    assert "[cache:" not in out


def test_sweep_list_scans_a_directory(capsys, tmp_path, spec_path):
    assert main(["sweep", "list", os.path.dirname(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "cli-demo — 2 cells" in out
    (tmp_path / "broken.toml").write_text("name = \n")
    assert main(["sweep", "list", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "INVALID" in out and "cli-demo" in out


def test_sweep_list_empty_directory(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["sweep", "list", str(empty)]) == 0
    assert "no campaign specs" in capsys.readouterr().out


def test_sweep_list_missing_directory_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "list", str(tmp_path / "nope")])


def test_sweep_run_missing_spec_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "run", str(tmp_path / "nope.toml")])


def test_sweep_run_invalid_spec_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text('name = "x"\nagents = ["toaster"]\nscales = [2]\n')
    with pytest.raises(SystemExit):
        main(["sweep", "run", str(path)])


def test_committed_example_campaigns_expand():
    from repro.sweep import load_spec

    directory = os.path.join(os.path.dirname(__file__), "..", "..",
                             "examples", "campaigns")
    specs = sorted(
        name for name in os.listdir(directory) if name.endswith(".toml")
    )
    assert len(specs) >= 3
    for name in specs:
        spec = load_spec(os.path.join(directory, name))
        assert len(spec.expand()) >= 2
