"""The ``repro conformance`` command line, driven in-process."""

import pytest

from repro.cli import main


def test_list_shows_scenarios_and_impls(capsys):
    assert main(["conformance", "list"]) == 0
    out = capsys.readouterr().out
    assert "kernel-churn-s3" in out
    assert "agent-overclock-synthetic-s7" in out
    assert "kernel:seed" in out
    assert "agent:current" in out


def test_record_then_check_round_trips(tmp_path, capsys):
    args = ["--dir", str(tmp_path), "--scenario", "ml-epochs-s3",
            "--skip-golden"]
    assert main(["conformance", "record"] + args) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "ml-epochs-s3.kav.json" in out

    assert main(["conformance", "check"] + args) == 0
    out = capsys.readouterr().out
    assert "vectors OK" in out


def test_check_fails_on_missing_vector(tmp_path, capsys):
    assert main([
        "conformance", "check", "--dir", str(tmp_path),
        "--scenario", "kernel-churn-s3", "--skip-golden",
    ]) == 1
    out = capsys.readouterr().out
    assert "NONCONFORMANT" in out


def test_check_of_a_missing_corpus_directory_is_a_usage_error(tmp_path):
    """Run outside the repository root, the default ``--dir`` names no
    directory: the check ends in one ``repro: error:`` line naming the
    file and ``--dir``, not a traceback."""
    missing = tmp_path / "no-corpus"
    with pytest.raises(SystemExit) as exit_info:
        main(["conformance", "check", "--dir", str(missing),
              "--scenario", "kernel-churn-s3"])
    message = str(exit_info.value.code)
    assert message.startswith("repro: error: cannot read golden-digest")
    assert str(missing) in message and "--dir" in message


def test_diff_equivalent_impls_exits_zero(capsys):
    assert main([
        "conformance", "diff", "kernel:current", "kernel:seed",
        "--scenario", "kernel-churn-s3",
    ]) == 0
    out = capsys.readouterr().out
    assert "equivalent" in out


def test_diff_rejects_cross_family_pairs():
    with pytest.raises(SystemExit, match="families"):
        main(["conformance", "diff", "kernel:current", "ml:seed"])


def test_unknown_scenario_is_a_clean_error():
    with pytest.raises(SystemExit, match="unknown scenario"):
        main([
            "conformance", "check", "--scenario", "no-such-scenario",
        ])


def test_unknown_impl_is_a_clean_error():
    with pytest.raises(SystemExit, match="unknown"):
        main(["conformance", "diff", "kernel:current", "kernel:nope"])
