"""Safety records and the campaign report: deltas, frontier, digest."""

import pytest

from repro.sweep import (
    CampaignReport,
    CampaignSpec,
    FaultAxis,
    SafetyRecord,
    SweepRunner,
)


def _record(**overrides):
    defaults = dict(
        unit_id="overclock/n2/x20s/seed0/baseline",
        agent="overclock",
        n_nodes=2,
        seed=0,
        fault_kind="none",
        intensity=0.0,
        fault_start_s=0,
        fault_duration_s=0,
        racks=(),
        sim_seconds=20,
        slo_windows=8,
        slo_violations=0,
        safeguard_trips={"actuator": 0, "model": 0},
        action_histogram={"default": 0, "model": 10, "none": 2},
        agent_kills=0,
        agent_restarts=0,
        affected_nodes=0,
        engaged_nodes=0,
        time_to_fallback_s=None,
        fleet_digest="d" * 64,
    )
    defaults.update(overrides)
    return SafetyRecord(**defaults)


def _faulted(**overrides):
    defaults = dict(
        unit_id="overclock/n2/x20s/seed0/bad_data@0.9[5+10]r0",
        fault_kind="bad_data",
        intensity=0.9,
        fault_start_s=5,
        fault_duration_s=10,
        racks=(0,),
        slo_violations=2,
        safeguard_trips={"actuator": 1, "model": 3},
        action_histogram={"default": 6, "model": 4, "none": 2},
        affected_nodes=2,
        engaged_nodes=2,
        time_to_fallback_s=0.6,
    )
    defaults.update(overrides)
    return _record(**defaults)


def test_record_derived_properties():
    record = _faulted()
    assert record.qos_violation_rate == 2 / 8
    assert record.total_trips == 4
    assert record.fallback_share == (6 + 2) / 12
    empty = _record(slo_windows=0, action_histogram={})
    assert empty.qos_violation_rate == 0.0
    assert empty.fallback_share == 0.0


def test_report_is_order_independent():
    records = [_record(), _faulted()]
    forward = CampaignReport.build("c", records)
    backward = CampaignReport.build("c", list(reversed(records)))
    assert forward.digest() == backward.digest()
    assert [r.unit_id for r in forward.records] == [
        r.unit_id for r in backward.records
    ]


def test_report_digest_ignores_name_and_execution_counters():
    records = [_record(), _faulted()]
    a = CampaignReport.build("a", records, executed=2, wall_seconds=9.0)
    b = CampaignReport.build("b", records, from_cache=2)
    assert a.digest() == b.digest()


def test_report_digest_sees_every_result_bit():
    base = CampaignReport.build("c", [_record(), _faulted()])
    moved = CampaignReport.build(
        "c", [_record(), _faulted(time_to_fallback_s=0.6000001)]
    )
    assert base.digest() != moved.digest()


def test_report_rejects_duplicate_cells():
    with pytest.raises(ValueError, match="duplicate"):
        CampaignReport.build("c", [_record(), _record()])


def test_deltas_against_matching_baseline():
    report = CampaignReport.build("c", [_record(), _faulted()])
    faulted = next(r for r in report.records if r.fault_kind != "none")
    deltas = report.deltas(faulted)
    assert deltas["qos_violation_delta"] == pytest.approx(2 / 8)
    assert deltas["safeguard_trips_delta"] == 4
    assert deltas["fallback_share_delta"] == pytest.approx(
        8 / 12 - 2 / 12
    )
    assert deltas["action_histogram_delta"] == {
        "default": 6, "model": -6, "none": 0,
    }
    baseline = next(r for r in report.records if r.fault_kind == "none")
    assert report.deltas(baseline) is None


def test_deltas_none_when_baseline_cell_missing():
    report = CampaignReport.build("c", [_faulted()])
    assert report.deltas(report.records[0]) is None


def test_frontier_rows_sorted_by_intensity():
    report = CampaignReport.build(
        "c",
        [
            _record(),
            _faulted(),
            _faulted(
                unit_id="overclock/n2/x20s/seed0/bad_data@0.3[5+10]r0",
                intensity=0.3,
                slo_violations=1,
                time_to_fallback_s=1.2,
            ),
        ],
    )
    frontier = report.frontier()
    rows = frontier[("bad_data[5+10]r0", "overclock")]
    assert [row["intensity"] for row in rows] == [0.3, 0.9]
    assert rows[0]["qos_violation_rate"] == pytest.approx(1 / 8)
    assert rows[1]["qos_violation_delta"] == pytest.approx(2 / 8)
    assert rows[1]["engaged_nodes"] == 2
    assert rows[1]["affected_nodes"] == 2


def test_frontier_never_merges_same_kind_axes_with_different_windows():
    report = CampaignReport.build(
        "c",
        [
            _faulted(),
            _faulted(
                unit_id="overclock/n2/x20s/seed0/bad_data@0.9[12+4]r1",
                fault_start_s=12,
                fault_duration_s=4,
                racks=(1,),
            ),
        ],
    )
    frontier = report.frontier()
    assert set(frontier) == {
        ("bad_data[5+10]r0", "overclock"),
        ("bad_data[12+4]r1", "overclock"),
    }
    assert all(len(rows) == 1 for rows in frontier.values())


def test_render_contains_cells_frontier_and_digest():
    report = CampaignReport.build("demo", [_record(), _faulted()])
    text = report.render()
    assert "campaign: demo" in text
    assert "baseline" in text
    assert "frontier: fault=bad_data[5+10]r0 agent=overclock" in text
    assert f"campaign digest: {report.digest()}" in text


#: Per cell: time_to_fallback_s, engaged_nodes, agent_kills,
#: agent_restarts — the safety facts each node result feeds the record.
_PINNED_RECORDS = {
    "mixed/n4/x20s/seed0/bad_data@0.9[5+10]r0": (0.125, 1, 0, 0),
    "mixed/n4/x20s/seed0/baseline": (None, 0, 0, 0),
    "mixed/n4/x20s/seed0/crash_restart@1.0[5+10]r0": (10.8, 1, 2, 2),
    "mixed/n4/x20s/seed1/bad_data@0.9[5+10]r0": (0.6, 2, 0, 0),
    "mixed/n4/x20s/seed1/baseline": (None, 0, 0, 0),
    "mixed/n4/x20s/seed1/crash_restart@1.0[5+10]r0": (None, 0, 2, 2),
}
_PINNED_DIGEST = (
    "09070cdd1d81b724d9611eea7ab524b37aa8c16358ae4f2de76640163be7035b"
)


def test_campaign_safety_records_are_pinned():
    """A small mixed campaign's per-cell safety facts and digest, pinned
    as literals: a change to how a node reports its engagement times or
    kill/restart counts must leave every record as it was."""
    spec = CampaignSpec(
        name="pin",
        agents=("mixed",),
        scales=(4,),
        seeds=(0, 1),
        duration_s=20,
        rack_size=2,
        faults=(
            FaultAxis(kind="bad_data", intensities=(0.9,), start_s=5,
                      duration_s=10, racks=(0,)),
            FaultAxis(kind="crash_restart", intensities=(1.0,), start_s=5,
                      duration_s=10, racks=(0,)),
        ),
    )
    report = SweepRunner(spec, workers=1).run()
    assert {
        r.unit_id: (
            r.time_to_fallback_s, r.engaged_nodes,
            r.agent_kills, r.agent_restarts,
        )
        for r in report.records
    } == _PINNED_RECORDS
    assert report.digest() == _PINNED_DIGEST
