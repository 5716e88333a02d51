"""The chaos harness: seeded selection, the env plan, cache corruption."""

import json
import os

import pytest

from repro.cache import ResultCache
from repro.resilience import ChaosCache, ChaosPlan, activated, active_plan
from repro.resilience.chaos import CHAOS_PLAN_ENV, apply_worker_fault


def test_selection_is_a_pure_function_of_seed_and_unit():
    plan = ChaosPlan(kind="crash", probability=0.5, seed=3)
    again = ChaosPlan(kind="crash", probability=0.5, seed=3)
    units = [f"unit-{i}" for i in range(64)]
    assert [plan.selects(u) for u in units] == [
        again.selects(u) for u in units
    ]
    selected = sum(plan.selects(u) for u in units)
    assert 0 < selected < len(units)  # p=0.5 picks a real subset
    reseeded = ChaosPlan(kind="crash", probability=0.5, seed=4)
    assert [plan.selects(u) for u in units] != [
        reseeded.selects(u) for u in units
    ]


def test_probability_bounds():
    none = ChaosPlan(kind="crash", probability=0.0)
    everything = ChaosPlan(kind="crash", probability=1.0)
    assert not any(none.selects(f"u{i}") for i in range(16))
    assert all(everything.selects(f"u{i}") for i in range(16))
    with pytest.raises(ValueError):
        ChaosPlan(kind="crash", probability=1.5)
    with pytest.raises(ValueError):
        ChaosPlan(kind="sabotage")


def test_faults_fire_on_configured_attempts_only():
    plan = ChaosPlan(kind="crash", probability=1.0)  # attempt 0 only
    assert plan.should_fault("u", 0)
    assert not plan.should_fault("u", 1)  # the retry recovers
    poison = ChaosPlan(kind="crash", poison_units=("u",))
    assert all(poison.should_fault("u", attempt) for attempt in range(5))
    assert not poison.should_fault("other", 0)


def test_plan_round_trips_through_dict():
    plan = ChaosPlan(
        kind="hang", probability=0.25, seed=9, poison_units=("a", "b"),
    )
    assert ChaosPlan.from_dict(plan.to_dict()) == plan


@pytest.mark.parametrize("key", ["hang_s", "fault_attempts", "kind_"])
def test_a_plan_key_nothing_reads_is_refused(key):
    """A dropped field would let a chaos run pass without testing what
    its plan asked for."""
    with pytest.raises(ValueError, match=key):
        ChaosPlan.from_dict({"kind": "hang", key: 1})


def test_active_plan_reads_the_environment(monkeypatch):
    monkeypatch.delenv(CHAOS_PLAN_ENV, raising=False)
    assert active_plan() is None
    monkeypatch.setenv(
        CHAOS_PLAN_ENV,
        json.dumps({"kind": "crash", "probability": 0.5, "seed": 2}),
    )
    plan = active_plan()
    assert plan == ChaosPlan(kind="crash", probability=0.5, seed=2)
    monkeypatch.setenv(CHAOS_PLAN_ENV, "{broken")
    with pytest.raises(ValueError):
        active_plan()  # a silently-ignored plan would pass vacuously


@pytest.mark.parametrize("before", [None, '{"kind": "slow"}'])
def test_activated_sets_the_plan_for_its_block_only(monkeypatch, before):
    if before is None:
        monkeypatch.delenv(CHAOS_PLAN_ENV, raising=False)
    else:
        monkeypatch.setenv(CHAOS_PLAN_ENV, before)
    plan = ChaosPlan(kind="crash", poison_units=("u",))
    with pytest.raises(RuntimeError):
        with activated(plan):
            assert active_plan() == plan
            raise RuntimeError("the faulted run failed")
    assert os.environ.get(CHAOS_PLAN_ENV) == before


def test_worker_faults_refuse_to_fire_in_the_main_process():
    plan = ChaosPlan(kind="crash", probability=1.0).to_dict()
    # Would os._exit the test process if the _IN_WORKER guard failed.
    apply_worker_fault(plan, "u", 0)
    apply_worker_fault(None, "u", 0)


def test_chaos_cache_corrupts_selected_writes_only(tmp_path):
    plan = ChaosPlan(kind="corrupt_cache", probability=0.5, seed=1)
    cache = ChaosCache(directory=str(tmp_path), plan=plan)
    keys = [f"{i:02x}" * 32 for i in range(16)]
    for key in keys:
        cache.put(key, {"k": key})
    assert cache.corrupted_keys  # p=0.5 garbled a real subset
    assert set(cache.corrupted_keys) == {
        k for k in keys if plan.selects(k)
    }
    # A fresh plain cache quarantines exactly the garbled objects and
    # serves the rest untouched.
    reader = ResultCache(str(tmp_path))
    for key in keys:
        value = reader.get(key)
        if key in cache.corrupted_keys:
            assert value is None
        else:
            assert value == {"k": key}
    assert reader.stats.corrupt == len(cache.corrupted_keys)


def test_chaos_cache_with_other_fault_kinds_is_transparent(tmp_path):
    plan = ChaosPlan(kind="crash", probability=1.0)
    cache = ChaosCache(directory=str(tmp_path), plan=plan)
    cache.put("aa" * 32, [1])
    assert cache.corrupted_keys == []
    assert ResultCache(str(tmp_path)).get("aa" * 32) == [1]
