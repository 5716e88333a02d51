"""The campaign engine: determinism, incrementality, the sweep:: namespace.

The expensive guarantees (parallel == serial digest, warm re-run
executes zero cells) run on deliberately tiny overclock fleets so the
whole module stays in test-suite budget.
"""

import pytest

from repro.cache import ResultCache, sweep_unit_key
from repro.sweep import (
    CampaignSpec,
    FaultAxis,
    SafetyRecord,
    SweepRunner,
    run_unit,
)
from repro.sweep.runner import sweep_plan


def _spec(intensities=(0.9,), agents=("overclock",), seeds=(0,)):
    return CampaignSpec(
        name="t",
        agents=agents,
        scales=(2,),
        seeds=seeds,
        duration_s=15,
        rack_size=1,
        faults=(
            FaultAxis(
                kind="bad_data",
                intensities=intensities,
                start_s=3,
                duration_s=8,
                racks=(0,),
            ),
        ),
    )


def test_run_unit_is_pure_in_the_cell():
    unit = _spec().expand()[0]
    first, second = run_unit(unit), run_unit(unit)
    assert isinstance(first, SafetyRecord)
    assert first == second
    assert first.fleet_digest == second.fleet_digest


def test_parallel_and_serial_agree_bit_identically(tmp_path):
    spec = _spec(intensities=(0.5, 0.9))
    serial = SweepRunner(spec, workers=1).run()
    parallel = SweepRunner(spec, workers=3).run()
    assert serial.digest() == parallel.digest()
    assert [r.as_dict() for r in serial.records] == [
        r.as_dict() for r in parallel.records
    ]


def test_warm_rerun_executes_zero_cells(tmp_path):
    spec = _spec()
    cold_cache = ResultCache(str(tmp_path))
    cold = SweepRunner(spec, cache=cold_cache).run()
    # 2 cells of 2 nodes; node 1 sits outside the burst's rack, so the
    # faulted cell shares it with the baseline: 3 distinct node runs.
    node_runs = len(sweep_plan(spec).units)
    assert node_runs == 3
    assert cold.executed == node_runs
    warm_cache = ResultCache(str(tmp_path))
    warm = SweepRunner(spec, cache=warm_cache).run()
    assert warm.executed == 0
    assert warm.from_cache == node_runs
    assert warm_cache.stats.misses == 0 and warm_cache.stats.stores == 0
    assert warm.digest() == cold.digest()


def test_editing_one_axis_reruns_only_changed_cells(tmp_path):
    cache = ResultCache(str(tmp_path))
    SweepRunner(_spec(intensities=(0.9,)), cache=cache).run()
    grown = SweepRunner(
        _spec(intensities=(0.5, 0.9)), cache=ResultCache(str(tmp_path))
    ).run()
    # The two baseline nodes and the 0.9 node 0 load from cache; only
    # the new 0.5 cell's node 0 runs (its node 1 is a baseline node).
    assert grown.executed == 1
    assert grown.from_cache == 3


def test_cells_are_shared_across_campaign_names(tmp_path):
    cache = ResultCache(str(tmp_path))
    SweepRunner(_spec(), cache=cache).run()
    renamed = CampaignSpec(
        name="totally-different",
        agents=("overclock",),
        scales=(2,),
        seeds=(0,),
        duration_s=15,
        rack_size=1,
        faults=(
            FaultAxis(kind="bad_data", intensities=(0.9,), start_s=3,
                      duration_s=8, racks=(0,)),
        ),
    )
    warm = SweepRunner(renamed, cache=ResultCache(str(tmp_path))).run()
    assert warm.executed == 0


def test_sweep_keys_use_their_own_namespace():
    unit = _spec().expand()[0]
    key = sweep_unit_key(unit.cache_payload())
    assert key.startswith("sweep::")
    # Identical payload under a fixed salt is stable; any coordinate
    # change moves the address.
    fixed = sweep_unit_key(unit.cache_payload(), salt="s")
    assert fixed == sweep_unit_key(unit.cache_payload(), salt="s")
    other = dict(unit.cache_payload(), seed=1)
    assert sweep_unit_key(other, salt="s") != fixed


def test_runner_rejects_bad_worker_counts():
    with pytest.raises(ValueError):
        SweepRunner(_spec(), workers=0)


def test_baseline_cells_anchor_deltas_end_to_end():
    report = SweepRunner(_spec()).run()
    faulted = [r for r in report.records if r.fault_kind != "none"]
    assert len(faulted) == 1
    deltas = report.deltas(faulted[0])
    assert deltas is not None
    assert "qos_violation_delta" in deltas
    assert (
        report.frontier()[("bad_data[3+8]r0", "overclock")][0]["cells"] == 1
    )
