"""Golden digests: optimization must never change a result bit.

The expected values live in the committed conformance corpus
(``tests/conformance/vectors/golden_digests.json``), recorded at the
seed commit (pre kernel-overhaul) and re-recordable with ``repro
conformance record``.  They cover all three agent kinds, heterogeneous
SKU mixes, and a rack fault burst.  Every hot-path change — kernel
scheduling, event pooling, ``FleetDriver`` sharding, numeric inner loops
— must reproduce them exactly, across worker counts and with an event
sink attached.  The corpus table is the only place the digests are written.
"""

from pathlib import Path

import pytest

from repro.conformance.corpus import load_golden_digests
from repro.conformance.scenarios import GOLDEN_FLEET_CONFIGS
from repro.core.events import EventKind
from repro.experiments.common import experiment_digest
from repro.experiments.driver import FleetDriver, reproduce_all
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.scenario import FleetScenario
from repro.sim.trace import WindowRecorder

CORPUS_DIR = str(
    Path(__file__).resolve().parents[1] / "conformance" / "vectors"
)
_GOLDEN = load_golden_digests(CORPUS_DIR)
GOLDEN_FLEETS = {
    name: (config, _GOLDEN["fleet"][name])
    for name, config in GOLDEN_FLEET_CONFIGS.items()
}
GOLDEN_EXPERIMENTS = _GOLDEN["experiments"]
GOLDEN_EXPERIMENT_SCALE = _GOLDEN["experiment_scale"]


def test_corpus_pins_every_golden_fleet():
    assert set(_GOLDEN["fleet"]) == set(GOLDEN_FLEET_CONFIGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_FLEETS))
def test_fleet_digest_matches_seed_baseline(name):
    config, expected = GOLDEN_FLEETS[name]
    assert FleetDriver(config, workers=1).run().digest() == expected


def test_fleet_digest_identical_across_worker_counts():
    config, expected = GOLDEN_FLEETS["overclock_8x20_seed7"]
    parallel = FleetDriver(config, workers=3).run()
    assert parallel.digest() == expected


def test_fleet_digest_identical_with_a_window_recorder_attached():
    """A sink on every node's event log observes; it changes no result."""
    config, expected = GOLDEN_FLEETS["mixed_6x15_seed3"]
    scenario = FleetScenario(config)
    plain, traced = [], []
    for node_id in range(config.n_nodes):
        plain.append(scenario.build_node(node_id).run())
        fleet_node = scenario.build_node(node_id)
        log = fleet_node.node.agent.runtime.log
        recorder = WindowRecorder()
        log.attach_tracer(recorder)
        traced.append(fleet_node.run())
        assert recorder.n_events == sum(map(log.count, EventKind)) > 0
    assert traced == plain
    assert FleetAggregate.from_results(traced).digest() == expected


def test_experiment_results_match_seed_baseline():
    runs = reproduce_all(
        only=list(GOLDEN_EXPERIMENTS), scale=GOLDEN_EXPERIMENT_SCALE
    )
    got = {run.name: experiment_digest(run.result) for run in runs}
    assert got == GOLDEN_EXPERIMENTS


def test_parallel_reproduce_all_streams_canonical_order():
    only = ["table1", "table2", "fig6-left"]
    seen = []
    runs = reproduce_all(
        workers=2, only=only,
        scale=GOLDEN_EXPERIMENT_SCALE,
        on_result=lambda run: seen.append(run.name),
    )
    assert [run.name for run in runs] == only
    assert seen == only
