"""The process-wide warm worker pool and the single-chunk inline fix."""

import pytest

from repro.experiments.driver import FleetDriver, reproduce_all
from repro.fleet.config import FleetConfig
from repro.resilience import executor, pool as warm
from repro.resilience.pool import shared_pool, shutdown_shared_pool
from repro.fleet.scenario import FleetScenario


def test_shared_pool_is_reused_across_calls():
    shutdown_shared_pool()
    first = shared_pool(2)
    assert shared_pool(2) is first
    assert shared_pool(1) is first  # smaller requests reuse the pool


def test_shared_pool_grows_on_larger_request():
    shutdown_shared_pool()
    small = shared_pool(1)
    grown = shared_pool(3)
    assert grown is not small
    assert shared_pool(2) is grown  # and stays at the high-water mark


def test_shared_pool_rejects_nonpositive():
    with pytest.raises(ValueError):
        shared_pool(0)


def test_shutdown_is_idempotent():
    shutdown_shared_pool()
    shutdown_shared_pool()
    assert shared_pool(1) is not None


def test_fleet_driver_reuses_warm_pool_and_matches_serial():
    shutdown_shared_pool()
    config = FleetConfig(n_nodes=4, agent="mixed", seed=3, duration_s=10)
    serial = FleetDriver(config, workers=1).run()
    parallel_first = FleetDriver(config, workers=2).run()
    pool_after_first = warm._shared_pool
    assert pool_after_first is not None
    parallel_second = FleetDriver(config, workers=2).run()
    assert warm._shared_pool is pool_after_first  # no respawn
    assert serial.digest() == parallel_first.digest()
    assert serial.digest() == parallel_second.digest()


def test_single_chunk_runs_inline_without_pool(monkeypatch):
    """A one-chunk work list must not spawn (or borrow) a pool."""
    config = FleetConfig(n_nodes=4, agent="overclock", seed=7, duration_s=10)
    expected = FleetScenario(config).run_fleet()
    fleet_driver = FleetDriver(config, workers=2)
    all_nodes = tuple(range(config.n_nodes))
    monkeypatch.setattr(
        FleetDriver, "chunks", lambda self: [all_nodes]
    )

    def poisoned_pool(workers):
        raise AssertionError("single-chunk run requested a pool")

    monkeypatch.setattr(executor, "shared_pool", poisoned_pool)
    aggregate = fleet_driver.run()
    assert aggregate.digest() == expected.digest()


def test_multi_chunk_config_never_yields_single_chunk():
    """The organic chunking always produces >= workers chunks, so the
    inline path is a guard, not a behavior change, for real configs."""
    for nodes, workers in ((2, 2), (5, 2), (16, 4), (64, 8)):
        config = FleetConfig(n_nodes=nodes, agent="overclock", seed=0,
                             duration_s=5)
        chunks = FleetDriver(config, workers=workers).chunks()
        assert len(chunks) >= min(workers, nodes)


def test_reproduce_all_shares_the_fleet_pool():
    shutdown_shared_pool()
    config = FleetConfig(n_nodes=4, agent="harvest", seed=1, duration_s=10)
    FleetDriver(config, workers=2).run()
    pool = warm._shared_pool
    assert pool is not None
    runs = reproduce_all(
        only=["table1", "table2"], scale=0.05, workers=2
    )
    assert [run.name for run in runs] == ["table1", "table2"]
    assert warm._shared_pool is pool  # same warm pool served the pass


def test_one_pool_serves_fleet_reproduce_and_sweep():
    """Every pooled pipeline draws from the same warm supervised pool
    in one process — no per-subsystem pools, no respawns between them."""
    from repro.sweep import CampaignSpec, FaultAxis, SweepRunner

    shutdown_shared_pool()
    config = FleetConfig(n_nodes=4, agent="overclock", seed=2,
                         duration_s=10)
    FleetDriver(config, workers=2).run()
    pool = warm._shared_pool
    assert pool is not None
    reproduce_all(only=["table1"], scale=0.05, workers=2)
    assert warm._shared_pool is pool
    spec = CampaignSpec(
        name="warm-pool", agents=("overclock",), scales=(2,), seeds=(0,),
        duration_s=15, rack_size=1,
        faults=(
            FaultAxis(kind="bad_data", intensities=(0.9,), start_s=3,
                      duration_s=8, racks=(0,)),
        ),
    )
    SweepRunner(spec, workers=2).run()
    assert warm._shared_pool is pool  # sweep reused it too


def test_shutdown_terminates_worker_processes():
    shutdown_shared_pool()
    pool = shared_pool(2)
    processes = [w.process for w in pool._workers.values()]
    assert all(p.is_alive() for p in processes)
    shutdown_shared_pool()
    assert warm._shared_pool is None
    assert all(not p.is_alive() for p in processes)
    shutdown_shared_pool()  # idempotent with nothing live
