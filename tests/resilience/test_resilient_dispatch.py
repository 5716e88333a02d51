"""End-to-end resilience: every pipeline under injected faults either
reproduces the fault-free digests bit-identically or reports the exact
quarantined units as explicit holes (DESIGN.md §11).

Scales and fleets are deliberately tiny; the properties under test are
structural (digest identity, exact holes), not statistical.
"""

import pytest

from repro.experiments.common import experiment_digest
from repro.experiments.driver import FleetDriver, reproduce_all
from repro.fleet.config import FleetConfig
from repro.resilience import ChaosPlan, RetryPolicy
from repro.sweep import CampaignSpec, FaultAxis, SweepRunner
from repro.sweep.runner import sweep_plan

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05)
SCALE = 0.05


def _digests(runs):
    return {run.name: experiment_digest(run.result) for run in runs}


# -- fleet -------------------------------------------------------------------


def test_fleet_digest_survives_worker_crashes():
    config = FleetConfig(n_nodes=8, agent="mixed", seed=5, duration_s=10)
    baseline = FleetDriver(config, workers=2).run()
    chaotic = FleetDriver(
        config, workers=2, resilience=FAST,
        chaos=ChaosPlan(kind="crash", probability=1.0),
    ).run()
    assert chaotic.digest() == baseline.digest()
    assert not chaotic.partial and chaotic.holes == ()


def test_fleet_poison_chunk_degrades_to_explicit_node_holes():
    config = FleetConfig(n_nodes=8, agent="overclock", seed=0,
                         duration_s=10)
    driver = FleetDriver(config, workers=2)
    chunks = driver.chunks()
    poison_id = f"chunk000(n{chunks[0][0]}+{len(chunks[0])})"
    log = []
    driver = FleetDriver(
        config, workers=2, resilience=FAST, quarantine=log,
        chaos=ChaosPlan(kind="crash", poison_units=(poison_id,)),
    )
    aggregate = driver.run()
    assert aggregate.partial
    assert aggregate.holes == tuple(sorted(chunks[0]))
    assert "PARTIAL" in aggregate.render()
    assert [r.unit_id for r in log] == [poison_id]
    # The surviving nodes' results are intact (not zeroed or dropped).
    assert aggregate.n_nodes == config.n_nodes - len(chunks[0])


def test_fleet_aggregate_digest_is_unchanged_without_holes():
    """`holes` must not perturb the committed golden digests: the
    canonical dict only grows the key when holes exist."""
    config = FleetConfig(n_nodes=4, agent="overclock", seed=1,
                         duration_s=10)
    aggregate = FleetDriver(config, workers=1).run()
    assert "holes" not in aggregate.as_dict()


# -- reproduce-all -----------------------------------------------------------


def test_reproduce_all_digests_survive_crash_faults():
    baseline = reproduce_all(only=["fig6-left"], scale=SCALE)
    chaotic = reproduce_all(
        only=["fig6-left"], scale=SCALE, parallel=True, workers=2,
        resilience=FAST, chaos=ChaosPlan(kind="crash", probability=1.0),
    )
    assert _digests(baseline) == _digests(chaotic)
    assert all(not run.partial for run in chaotic)


def test_reproduce_all_poison_unit_yields_partial_artifact():
    poison = f"fig6-left/image-dnn/on@{SCALE!r}"
    log = []
    runs = reproduce_all(
        only=["fig6-left", "table1"], scale=SCALE, parallel=True,
        workers=2, resilience=FAST, quarantine=log,
        chaos=ChaosPlan(kind="crash", poison_units=(poison,)),
    )
    by_name = {run.name: run for run in runs}
    partial = by_name["fig6-left"]
    assert partial.partial and partial.holes == (poison,)
    assert "PARTIAL" in partial.result.title
    assert [row["unit"] for row in partial.result.rows] == [poison]
    # The other artifact is untouched by its neighbor's poison.
    clean = by_name["table1"]
    assert not clean.partial
    assert _digests([clean]) == _digests(
        reproduce_all(only=["table1"], scale=SCALE)
    )
    assert [r.unit_id for r in log] == [poison]


# -- sweep -------------------------------------------------------------------


def _spec():
    return CampaignSpec(
        name="chaos-e2e",
        agents=("overclock",),
        scales=(2,),
        seeds=(0,),
        duration_s=15,
        rack_size=1,
        faults=(
            FaultAxis(kind="bad_data", intensities=(0.5, 0.9),
                      start_s=3, duration_s=8, racks=(0,)),
        ),
    )


def test_sweep_digest_survives_crash_faults():
    spec = _spec()
    baseline = SweepRunner(spec, workers=2).run()
    chaotic = SweepRunner(
        spec, workers=2, resilience=FAST,
        chaos=ChaosPlan(kind="crash", probability=1.0),
    ).run()
    assert chaotic.digest() == baseline.digest()
    assert not chaotic.partial and chaotic.holes == ()


def test_sweep_poison_cell_is_an_explicit_hole():
    spec = _spec()
    baseline = spec.expand()[0]
    # Node 0's baseline run belongs to the baseline cell only (node 0
    # is inside the burst's rack in both faulted cells).
    poison = baseline.node_runs()[0].unit_id()
    report = SweepRunner(
        spec, workers=2, resilience=FAST,
        chaos=ChaosPlan(kind="crash", poison_units=(poison,)),
    ).run()
    assert report.partial and report.holes == (baseline.unit_id(),)
    assert report.quarantined == (poison,)
    assert len(report.records) == len(spec.expand()) - 1
    assert "PARTIAL" in report.render()
    # A fault-free rerun back-fills the hole and matches the clean run.
    clean = SweepRunner(spec, workers=2).run()
    assert not clean.partial
    assert len(clean.records) == len(spec.expand())


def test_sweep_executed_excludes_holes():
    spec = _spec()
    plan = sweep_plan(spec)
    poison = plan.unit_ids[-1]
    report = SweepRunner(
        spec, workers=2, resilience=FAST,
        chaos=ChaosPlan(kind="crash", poison_units=(poison,)),
    ).run()
    assert report.executed == len(plan.units) - 1
    assert report.from_cache == 0


# -- interrupt hygiene (satellite: the wedged-pool bug) ----------------------


def test_interrupt_during_dispatch_resets_the_shared_pool():
    from repro.experiments import driver as driver_module

    driver_module.shutdown_shared_pool()

    class Interrupt(BaseException):
        pass

    def interrupt(uid, result):
        raise Interrupt

    from repro.resilience import supervised_map

    with pytest.raises(Interrupt):
        supervised_map(
            _identity, [("u", 1)], workers=2,
            pool_factory=driver_module.shared_pool,
            pool_shutdown=driver_module.shutdown_shared_pool,
            policy=FAST, on_result=interrupt,
        )
    # reset, not wedged
    assert driver_module.shared_pool_counters()["size"] == 0
    # And the next dispatch builds a fresh working pool.
    outcome = supervised_map(
        _identity, [("u", 7)], workers=2,
        pool_factory=driver_module.shared_pool,
        pool_shutdown=driver_module.shutdown_shared_pool,
        policy=FAST,
    )
    assert outcome.results == {"u": 7}


def _identity(payload):
    return payload
