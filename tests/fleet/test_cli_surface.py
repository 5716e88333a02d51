"""The CLI surface is a fixed point of the flag-group refactor.

``cli_surface.json`` records, for every leaf subcommand at the commit
before the shared flag groups (:mod:`repro.flags`), each option's
default and ``choices``.  The refactor may add, drop and re-default
nothing; the two intended differences are spelled out below.  The
snapshot itself changed once since, when each execution-stack decision
got one setting: ``reproduce-all --parallel``, ``bench
--check-against`` and ``conformance diff --cadence`` went, and
``reproduce-all --workers`` defaults to 1 (128 options), and again
when ``serve start --workers`` went: adopted jobs take the pool size
their manifest records, so the option never took effect (127 options).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import names
from repro.cli import _build_parser
from repro.experiments.driver import ARTIFACT_SPECS, ARTIFACTS
from repro.fleet import config as fleet_config
from repro.fleet.config import AGENT_KINDS, FleetConfig

SNAPSHOT = os.path.join(os.path.dirname(__file__), "cli_surface.json")

#: The snapshot is never regenerated: a surface change shows up here.
SNAPSHOT_SHA256 = (
    "13a4d8235bea4e5bfa308bc4fdb3e924d6f11129e6e591944763fa7fdb31c5b3"
)

#: What the shared declarations change on purpose: ``serve submit``
#: rejects a bad agent / artifact name at parse time, like every other
#: surface, instead of inside ``FleetConfig`` / ``select_artifacts``.
INTENDED = {
    ("repro serve submit fleet", "--agent"):
        ["overclock", list(AGENT_KINDS + ("mixed",))],
    ("repro serve submit reproduce", "--only"): [None, list(ARTIFACTS)],
}


def surface(parser, prefix="repro"):
    """``{leaf command: {option strings (or dest): [default, choices]}}``."""
    subparsers = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if subparsers:
        leaves = {}
        for name, child in subparsers[0].choices.items():
            leaves.update(surface(child, f"{prefix} {name}"))
        return leaves
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = " ".join(sorted(action.option_strings)) or action.dest
        choices = action.choices
        options[key] = [
            action.default, None if choices is None else list(choices)
        ]
    return {prefix: options}


def test_cli_surface_matches_the_recorded_snapshot():
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    for (command, option), value in INTENDED.items():
        assert expected[command][option] != value  # still a difference
        expected[command][option] = value
    assert surface(_build_parser()) == expected


ONLY_SURFACES = {
    "reproduce-all": ["reproduce-all"],
    "chaos": ["chaos", "reproduce"],
    "serve submit reproduce": ["serve", "submit", "reproduce"],
}


@pytest.mark.parametrize("command", sorted(ONLY_SURFACES))
@pytest.mark.parametrize("spelling", [
    ["--only", "fig1", "fig2"],
    ["--only", "fig1", "--only", "fig2"],
], ids=["one-flag", "repeated-flag"])
def test_only_selects_both_artifacts_in_either_spelling(command, spelling):
    args = _build_parser().parse_args(ONLY_SURFACES[command] + spelling)
    assert args.only == ["fig1", "fig2"]


def test_serve_submit_fleet_rejects_an_unknown_agent_at_parse_time(capsys):
    with pytest.raises(SystemExit):
        _build_parser().parse_args(
            ["serve", "submit", "fleet", "--agent", "meteor"]
        )
    assert "invalid choice: 'meteor'" in capsys.readouterr().err


def test_importing_the_cli_loads_no_bench_or_golden_model():
    """Every ``python -m repro`` start builds the parser; only the
    ``bench`` and ``conformance`` commands may pay for the bench harness
    and the frozen golden models."""
    probe = (
        "import sys, repro.cli; repro.cli._build_parser(); "
        "print([m for m in sys.modules if m.startswith("
        "('repro.perf', 'repro.conformance.reference'))])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    assert out.strip() == "[]"


def test_the_cli_names_have_one_source():
    """``repro.names`` declares the choice lists and the rack-size
    default; the registry and the fleet config use those objects."""
    assert tuple(ARTIFACT_SPECS) == ARTIFACTS == names.ARTIFACTS
    assert fleet_config.AGENT_KINDS is names.AGENT_KINDS
    assert fleet_config.FAULT_KINDS is names.FAULT_KINDS
    assert FleetConfig(n_nodes=1).rack_size == names.DEFAULT_RACK_SIZE
    with open(SNAPSHOT, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == SNAPSHOT_SHA256
