"""The sweep's work unit is the distinct node run, not the cell.

A node's result depends only on its :class:`NodeRun` — fleet agent
setting, seed, node id, rack size, duration, and the fault that reaches
its rack — so a campaign simulates each distinct one once and assembles
every cell from its nodes.  These tests pin that the assembly equals
the per-cell oracle :func:`run_unit`, how many node runs each grid has,
and how a quarantined node run turns into report holes.
"""

import pytest

from repro.fleet.config import FaultPlan, FleetConfig
from repro.resilience import ChaosPlan, RetryPolicy
from repro.sweep import (
    CampaignReport,
    CampaignSpec,
    FaultAxis,
    SweepRunner,
    load_spec,
    run_unit,
)
from repro.sweep.runner import sweep_plan

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05)


def _slots(spec):
    return sum(cell.n_nodes for cell in spec.expand())


def test_runner_equals_the_per_cell_oracle():
    spec = CampaignSpec(
        name="equivalence",
        agents=("overclock", "mixed"),
        scales=(1, 2, 3),
        seeds=(2, 7),
        duration_s=4,
        rack_size=2,
        faults=tuple(
            FaultAxis(kind, (0.9,), start_s=1, duration_s=2, racks=(0,))
            for kind in ("bad_data", "dropout", "crash_restart")
        ),
    )
    # The 3-node fleets put node 2 outside the burst's rack, and the
    # smaller fleets repeat the larger ones' nodes.
    assert len(sweep_plan(spec).units) < _slots(spec)
    # Both mixed fleets run all three agent kinds.
    for seed in spec.seeds:
        fleet = FleetConfig(n_nodes=3, agent="mixed", seed=seed)
        kinds = {fleet.node_spec(i).agent for i in range(3)}
        assert kinds == {"overclock", "harvest", "memory"}
    oracle = CampaignReport.build(
        spec.name, [run_unit(cell) for cell in spec.expand()]
    )
    report = SweepRunner(spec).run()
    assert [r.as_dict() for r in report.records] == [
        r.as_dict() for r in oracle.records
    ]
    assert report.digest() == oracle.digest()


def test_a_node_outside_the_blast_radius_is_its_baseline_run():
    fault = FaultPlan(racks=(1,), start_s=5, duration_s=10,
                      probability=0.5, kind="dropout")
    faulted = FleetConfig(n_nodes=6, agent="mixed", seed=3, duration_s=30,
                          rack_size=2, fault=fault)
    baseline = FleetConfig(n_nodes=6, agent="mixed", seed=3, duration_s=30,
                           rack_size=2)
    for node_id in (0, 1, 4, 5):
        run = faulted.node_run(node_id)
        assert run == baseline.node_run(node_id)
        assert run.unit_id() == baseline.node_run(node_id).unit_id()
        assert run.unit_id().endswith("/baseline")
    for node_id in (2, 3):
        run = faulted.node_run(node_id)
        assert run.unit_id() != baseline.node_run(node_id).unit_id()
        assert run.fault_window_us() == (5_000_000, 15_000_000)
    # A smaller fleet's nodes are the larger fleet's nodes.
    small = FleetConfig(n_nodes=2, agent="mixed", seed=3, duration_s=30,
                        rack_size=2, fault=FaultPlan(
                            racks=(0,), start_s=5, duration_s=10,
                            probability=0.5, kind="dropout"))
    assert small.node_run(1) != faulted.node_run(1)
    assert small.node_run(1).node_spec() == faulted.node_spec(1)


def test_node_run_ids_stay_cell_id_length():
    spec = load_spec("examples/campaigns/smoke.toml")
    longest_cell = max(len(cell.unit_id()) for cell in spec.expand())
    assert max(len(i) for i in sweep_plan(spec).unit_ids) <= (
        longest_cell + 4
    )


@pytest.mark.parametrize("path, runs, slots", [
    ("examples/campaigns/smoke.toml", 6, 12),
    ("examples/campaigns/invalid_data_frontier.toml", 40, 96),
    # Every node of every faulted cell sits in a fault rack.
    ("examples/campaigns/failure_modes.toml", 80, 80),
])
def test_committed_campaign_plan_sizes(path, runs, slots):
    spec = load_spec(path)
    plan = sweep_plan(spec)
    assert (len(plan.units), _slots(spec)) == (runs, slots)
    assert len(set(plan.unit_ids)) == runs


def test_benchmark_grid_plan_size():
    # The sweep_tiny_cells grid of benchmarks/stack at --seed 0.
    spec = CampaignSpec(
        name="stack-bench",
        agents=("overclock", "harvest", "memory"),
        scales=(1, 2),
        seeds=(0, 1, 2, 3),
        duration_s=5,
        faults=(FaultAxis("bad_data", (0.5, 0.9), start_s=1, duration_s=3),),
    )
    assert len(spec.expand()) == 72
    assert (len(sweep_plan(spec).units), _slots(spec)) == (72, 108)


def test_plan_lists_node_runs_in_first_appearance_order():
    spec = load_spec("examples/campaigns/smoke.toml")
    seen = []
    for cell in spec.expand():
        for run in cell.node_runs():
            if run.unit_id() not in seen:
                seen.append(run.unit_id())
    plan = sweep_plan(spec)
    assert plan.unit_ids == seen
    assert all(unit.cost == spec.duration_s for unit in plan.units)


def test_a_poisoned_node_run_holes_every_cell_that_contains_it():
    spec = CampaignSpec(
        name="poison",
        agents=("overclock",),
        scales=(1, 2),
        seeds=(0,),
        duration_s=10,
        rack_size=1,
        faults=(FaultAxis("bad_data", (0.9,), start_s=2, duration_s=5,
                          racks=(0,)),),
    )
    # Node 1's baseline run is in the 2-node baseline cell and, outside
    # the burst's rack, in the 2-node faulted cell; no 1-node cell has it.
    cells = spec.expand()
    poison = cells[2].node_runs()[1].unit_id()
    assert poison == "overclock/node1/x10s/seed0/k1/baseline"
    containing = sorted(
        cell.unit_id() for cell in cells
        if poison in [run.unit_id() for run in cell.node_runs()]
    )
    assert len(containing) == 2
    quarantine = []
    report = SweepRunner(
        spec, workers=2, resilience=FAST, quarantine=quarantine,
        chaos=ChaosPlan(kind="crash", poison_units=(poison,)),
    ).run()
    assert report.quarantined == (poison,)
    assert [record.unit_id for record in quarantine] == [poison]
    assert list(report.holes) == containing
    assert len(report.records) == len(cells) - 2
    assert report.executed == len(sweep_plan(spec).units) - 1
    assert "PARTIAL: 2 cell(s) missing" in report.render()
    clean = {r.unit_id: r for r in SweepRunner(spec).run().records}
    for record in report.records:
        assert record == clean[record.unit_id]
