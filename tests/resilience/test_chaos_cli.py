"""The ``repro chaos`` command line and the interrupt exit path."""

import pytest

from repro import cli
from repro.cli import main

SPEC = """
name = "chaos-cli"
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
    path = tmp_path / "chaos.toml"
    path.write_text(SPEC)
    return str(path)


def test_chaos_fleet_crash_recovers_bit_identically(capsys):
    code = main([
        "chaos", "fleet", "--fault", "crash", "--probability", "1.0",
        "--nodes", "4", "--seconds", "10", "--workers", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos: OK" in out and "0 hole(s)" in out


def test_chaos_sweep_poison_cell_reports_the_exact_hole(
    capsys, spec_path
):
    poison = "overclock/node1/x10s/seed0/k1/baseline"
    code = main([
        "chaos", "sweep", "--spec", spec_path, "--fault", "crash",
        "--probability", "0.0", "--poison", poison, "--workers", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert f"[quarantined: {poison} (crash after 3 attempts" in out
    assert "1 hole(s), exact" in out


def test_chaos_rejects_incoherent_requests():
    with pytest.raises(SystemExit):
        main(["chaos", "sweep", "--fault", "crash"])  # no --spec
    with pytest.raises(SystemExit):
        main(["chaos", "fleet", "--fault", "corrupt_cache"])
    with pytest.raises(SystemExit):
        main(["chaos", "sweep", "--spec", "x.toml",
              "--fault", "corrupt_cache", "--poison", "u"])


def test_resilience_flags_reach_the_sweep_policy(capsys, spec_path):
    # max-retries=0 + a first-attempt crash on every node run means
    # nothing can recover: all must quarantine, and the verdict must
    # fail because the holes were not declared as poison.
    code = main([
        "chaos", "sweep", "--spec", spec_path, "--fault", "crash",
        "--probability", "1.0", "--max-retries", "0", "--workers", "2",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "after 1 attempts" in captured.out
    assert "CHAOS FAILURE" in captured.err


def test_keyboard_interrupt_exits_130_and_resets_the_pool(monkeypatch):
    from repro.experiments import driver

    def interrupted(kind, args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_launch_command", interrupted)
    assert main(["fleet", "--nodes", "2"]) == 130
    assert driver.shared_pool_counters()["size"] == 0
