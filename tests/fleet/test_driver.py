"""FleetDriver: serial/parallel equivalence, shard-order invariance and
the chunk plan.

These are the PR's headline guarantees: the same seed produces
bit-identical fleet aggregates whether nodes run in one process, across
a pool, or in shuffled order (DESIGN.md §5).
"""

import random

import pytest

from repro.experiments.driver import (
    MIN_CHUNK_NODES, FleetDriver, reproduce_all,
)
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.config import FleetConfig
from repro.fleet.scenario import FleetScenario
from repro.journal.log import KILL_AFTER_ENV, set_kill_action
from repro.journal.pipelines import open_fleet_journal

CONFIG = FleetConfig(n_nodes=6, agent="overclock", seed=11, duration_s=20)


def test_serial_and_parallel_aggregates_are_bit_identical():
    serial = FleetDriver(CONFIG, workers=1).run()
    parallel = FleetDriver(CONFIG, workers=2).run()
    assert serial.digest() == parallel.digest()
    assert serial.as_dict() == parallel.as_dict()


def test_aggregate_is_invariant_under_shuffled_shard_order():
    scenario = FleetScenario(CONFIG)
    ordered = scenario.run(range(CONFIG.n_nodes))
    shuffled_ids = list(range(CONFIG.n_nodes))
    random.Random(3).shuffle(shuffled_ids)
    shuffled = scenario.run(shuffled_ids)
    assert (
        FleetAggregate.from_results(ordered).digest()
        == FleetAggregate.from_results(shuffled).digest()
    )


def test_per_node_results_identical_across_shardings():
    serial = {r.node_id: r for r in FleetScenario(CONFIG).run()}
    driver = FleetDriver(CONFIG, workers=3)
    parallel = {
        r.node_id: r for r in FleetDriver(CONFIG, workers=3).run().results
    }
    assert serial == parallel
    # shards partition the fleet
    flat = sorted(i for shard in driver.shards() for i in shard)
    assert flat == list(range(CONFIG.n_nodes))


def test_workers_capped_at_fleet_size():
    driver = FleetDriver(FleetConfig(n_nodes=2, duration_s=5), workers=64)
    assert driver.workers == 2


def test_chunks_partition_shards_with_a_two_node_floor():
    """Every (fleet size, worker count) pair, exhaustively: chunks are
    slices of one round-robin shard that together cover every node once,
    none has fewer than ``MIN_CHUNK_NODES`` nodes unless its shard does,
    and no worker gets more than four."""
    for n_nodes in range(1, 71):
        for workers in range(1, 9):
            driver = FleetDriver(FleetConfig(n_nodes=n_nodes), workers=workers)
            shards = driver.shards()
            chunks = driver.chunks()
            flat = sorted(node for chunk in chunks for node in chunk)
            assert flat == list(range(n_nodes)), (n_nodes, workers)
            assert len(chunks) <= 4 * driver.workers, (n_nodes, workers)
            for chunk in chunks:
                (shard,) = [s for s in shards if chunk[0] in s]
                start = shard.index(chunk[0])
                assert shard[start:start + len(chunk)] == chunk
                if len(shard) >= MIN_CHUNK_NODES:
                    assert len(chunk) >= MIN_CHUNK_NODES, (n_nodes, workers)


def test_the_64_node_two_worker_chunk_plan_is_pinned():
    """The stack benchmark's ``fleet_pool`` plan: eight chunks of eight."""
    plan = FleetDriver(
        FleetConfig(n_nodes=64, agent="mixed", duration_s=30), workers=2
    ).chunk_plan()
    assert list(plan) == [
        "chunk000(n0+8)", "chunk001(n16+8)", "chunk002(n32+8)",
        "chunk003(n48+8)", "chunk004(n1+8)", "chunk005(n17+8)",
        "chunk006(n33+8)", "chunk007(n49+8)",
    ]


class _Killed(Exception):
    pass


def _raise_killed():
    raise _Killed()


@pytest.mark.parametrize("n_nodes", [4, 8])
def test_inline_pooled_and_resumed_fleets_match_the_bare_scenario(
    n_nodes, tmp_path, monkeypatch
):
    config = FleetConfig(n_nodes=n_nodes, agent="mixed", seed=3, duration_s=5)
    truth = FleetAggregate.from_results(FleetScenario(config).run()).digest()
    assert FleetDriver(config, workers=1).run().digest() == truth
    assert FleetDriver(config, workers=2).run().digest() == truth

    root = str(tmp_path)
    monkeypatch.setenv(KILL_AFTER_ENV, "1")
    set_kill_action(_raise_killed)
    try:
        with pytest.raises(_Killed):
            with open_fleet_journal(root, config, 1) as journal:
                FleetDriver(config, workers=1, journal=journal).run()
    finally:
        monkeypatch.delenv(KILL_AFTER_ENV)
        set_kill_action(None)
    with open_fleet_journal(root, config, 2, resume=True) as resumed:
        assert FleetDriver(
            config, workers=2, journal=resumed
        ).run().digest() == truth
    assert resumed.stats.replayed == 1
    assert resumed.stats.executed == len(resumed.units) - 1
    assert resumed.sealed_digest == truth


def test_reproduce_all_parallel_matches_serial_rows():
    only = ["table1", "table2"]
    serial = reproduce_all(only=only)
    parallel = reproduce_all(workers=2, only=only)
    assert [run.name for run in serial] == only
    assert [run.name for run in parallel] == only
    for s, p in zip(serial, parallel):
        assert s.result.rows == p.result.rows
        assert s.result.columns == p.result.columns


def test_reproduce_all_rejects_unknown_artifacts():
    with pytest.raises(ValueError):
        reproduce_all(only=["fig99"])
