"""The committed corpus: coverage and conformance."""

from pathlib import Path

import pytest

from repro.conformance.corpus import (
    GOLDEN_FILENAME,
    check_corpus,
    load_golden_digests,
)
from repro.conformance.scenarios import (
    GOLDEN_ARTIFACTS,
    GOLDEN_EXPERIMENT_SCALE,
    GOLDEN_FLEET_CONFIGS,
    SCENARIOS,
    default_scenarios,
)
from repro.conformance.vectors import load_vector, vector_filename

CORPUS_DIR = str(Path(__file__).resolve().parent / "vectors")

#: One representative per family for the in-suite live check; CI's
#: ``conformance-smoke`` job checks every vector plus the golden table.
_SPOT_CHECK = [
    "agent-overclock-synthetic-s7",
    "kernel-churn-s3",
    "ml-epochs-s9",
    "workloads-objectstore-s3",
]


def test_corpus_covers_every_scenario():
    committed = {p.name for p in Path(CORPUS_DIR).glob("*.kav.json")}
    expected = {vector_filename(name) for name in default_scenarios()}
    assert committed == expected
    assert (Path(CORPUS_DIR) / GOLDEN_FILENAME).exists()


def test_corpus_covers_all_agent_kinds_and_seeds():
    agents = {
        (spec.agent, spec.workload, spec.seed)
        for spec in SCENARIOS.values()
        if spec.family == "agent"
    }
    assert {agent for agent, _, _ in agents} == {
        "overclock", "harvest", "memory",
    }
    for kind in ("overclock", "harvest", "memory"):
        workloads = {w for a, w, _ in agents if a == kind}
        seeds = {s for a, _, s in agents if a == kind}
        assert len(workloads) >= 2
        assert len(seeds) >= 2


@pytest.mark.parametrize("scenario", _SPOT_CHECK)
def test_committed_vectors_check_clean(scenario):
    assert check_corpus(
        CORPUS_DIR, scenarios=[scenario], golden=False
    ) == []


def test_committed_vectors_all_load(tmp_path):
    for name in default_scenarios():
        vector = load_vector(
            str(Path(CORPUS_DIR) / vector_filename(name))
        )
        assert vector.name == name
        assert vector.checkpoints, f"{name} recorded no checkpoints"
        assert vector.terminal[0] >= len(vector.checkpoints) * vector.cadence


def test_golden_table_covers_every_golden_config_and_artifact():
    # The table is the only place a golden digest is written; what it
    # must pin is declared next to the scenarios.
    table = load_golden_digests(CORPUS_DIR)
    assert table["experiment_scale"] == GOLDEN_EXPERIMENT_SCALE
    assert set(table["fleet"]) == set(GOLDEN_FLEET_CONFIGS)
    assert set(table["experiments"]) == set(GOLDEN_ARTIFACTS)


def test_missing_vector_is_reported_with_remedy(tmp_path):
    problems = check_corpus(
        str(tmp_path), scenarios=["kernel-churn-s3"], golden=False
    )
    assert len(problems) == 1
    assert "no committed vector" in problems[0]
    assert "repro conformance record" in problems[0]
