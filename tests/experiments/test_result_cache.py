"""Incremental reproduction: the content-addressed result cache.

Covers the key derivation (code salt, kwargs canonicalization), the
on-disk store (round-trip exactness, atomicity debris, corrupt-object
degradation), and the driver integration: a cold ``reproduce_all``
executes and stores every unit, a warm one executes zero and assembles
row-identical results — serially and through the sharded pool — and
recorded unit walls feed the longest-first dispatch.
"""

import os
import pickle

import pytest

from repro.cache import ResultCache, code_salt, unit_key
from repro.cache.store import CACHE_DIR_ENV, default_cache_dir
from repro.experiments import driver
from repro.experiments.common import experiment_digest
from repro.experiments.driver import reproduce_all
from repro.resilience import executor


# -- keys --------------------------------------------------------------------


def test_code_salt_is_stable_within_process():
    assert code_salt() == code_salt()
    assert len(code_salt()) == 64


def test_unit_key_sensitivity():
    base = unit_key("fig2", "ObjectStore/guarded", 0.33, {"seconds": 198})
    assert base == unit_key(
        "fig2", "ObjectStore/guarded", 0.33, {"seconds": 198}
    )
    assert base != unit_key("fig3", "ObjectStore/guarded", 0.33,
                            {"seconds": 198})
    assert base != unit_key("fig2", "DiskSpeed/guarded", 0.33,
                            {"seconds": 198})
    assert base != unit_key("fig2", "ObjectStore/guarded", 1.0,
                            {"seconds": 198})
    assert base != unit_key("fig2", "ObjectStore/guarded", 0.33,
                            {"seconds": 600})
    assert base != unit_key("fig2", None, 0.33, {"seconds": 198})


def test_unit_key_changes_with_code_salt():
    one = unit_key("fig2", "x", 1.0, {}, salt="a" * 64)
    two = unit_key("fig2", "x", 1.0, {}, salt="b" * 64)
    assert one != two


def test_unit_key_float_kwargs_are_exact():
    close_a = unit_key("fig1", None, 1.0, {"threshold": 0.1 + 0.2})
    close_b = unit_key("fig1", None, 1.0, {"threshold": 0.3})
    assert close_a != close_b  # repr-exact floats, no rounding collisions


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == str(tmp_path / "elsewhere")
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().endswith(".repro-cache")


# -- store -------------------------------------------------------------------


def test_store_round_trips_payloads_exactly(tmp_path):
    cache = ResultCache(str(tmp_path))
    payload = {
        "floats": [0.1, 1e-300, float("inf")],
        "nested": {"ints": (1, 2, 3), "flag": True, "none": None},
    }
    cache.put("ab" * 32, payload)
    loaded = cache.get("ab" * 32)
    assert loaded == payload
    assert loaded["floats"][0].hex() == payload["floats"][0].hex()
    assert cache.stats.stores == 1 and cache.stats.hits == 1


def test_store_miss_counts_and_default(tmp_path):
    cache = ResultCache(str(tmp_path))
    sentinel = object()
    assert cache.get("cd" * 32, sentinel) is sentinel
    assert cache.stats.misses == 1
    assert ("cd" * 32) not in cache


def test_corrupt_object_degrades_to_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("ef" * 32, [1, 2, 3])
    path = cache._object_path("ef" * 32)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    fresh = ResultCache(str(tmp_path))
    assert fresh.get("ef" * 32, None) is None
    assert fresh.stats.misses == 1
    fresh.put("ef" * 32, [4])  # re-store over the corrupt object
    assert fresh.get("ef" * 32) == [4]


def test_corrupt_object_is_moved_to_quarantine(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "ef" * 32
    cache.put(key, [1, 2, 3])
    path = cache._object_path(key)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    fresh = ResultCache(str(tmp_path))
    assert fresh.get(key, None) is None
    assert fresh.stats.corrupt == 1
    # The evidence moved aside; the slot is free for a fresh store.
    assert not os.path.exists(path)
    quarantined = os.path.join(fresh.quarantine_dir, f"{key}.pkl")
    with open(quarantined, "rb") as handle:
        assert handle.read() == b"not a pickle"


def test_corrupt_counter_surfaces_in_stats_render(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert "corrupt" not in cache.stats.render()  # silent when clean
    cache.put("ab" * 32, [1])
    with open(cache._object_path("ab" * 32), "wb") as handle:
        handle.write(b"garbage")
    fresh = ResultCache(str(tmp_path))
    fresh.get("ab" * 32)
    assert "corrupt=1" in fresh.stats.render()


def test_truncated_object_is_quarantined_too(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "0d" * 32
    cache.put(key, list(range(100)))
    path = cache._object_path(key)
    with open(path, "rb") as handle:
        head = handle.read(10)  # a torn write: valid prefix, no tail
    with open(path, "wb") as handle:
        handle.write(head)
    fresh = ResultCache(str(tmp_path))
    assert fresh.get(key, None) is None
    assert fresh.stats.corrupt == 1


def test_store_leaves_no_temp_debris(tmp_path):
    cache = ResultCache(str(tmp_path))
    for i in range(5):
        cache.put(f"{i:02d}" + "a" * 62, list(range(i)))
    leftovers = [
        name
        for _dir, _subdirs, files in os.walk(tmp_path)
        for name in files
        if name.endswith(".tmp")
    ]
    assert leftovers == []


class _Crafted:
    """A pickle whose load calls ``func(*args)``."""

    def __init__(self, func, args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


@pytest.mark.parametrize("crafted", [
    _Crafted(int, ("x", "y", "z")),  # TypeError on load
    _Crafted(dict.__getitem__, ({}, "k")),  # KeyError on load
], ids=["TypeError", "KeyError"])
def test_any_unpickle_error_is_quarantined_as_a_miss(tmp_path, crafted):
    cache = ResultCache(str(tmp_path))
    key = "5a" * 32
    cache.put(key, crafted)
    assert cache.get(key, "default") == "default"
    assert (cache.stats.misses, cache.stats.corrupt) == (1, 1)
    assert key not in cache
    assert os.path.exists(os.path.join(cache.quarantine_dir, f"{key}.pkl"))


def test_unit_timings_persist_and_merge(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.save_unit_timings({"fig7/ObjectStore/SmartMemory@1.0": 12.5})
    cache.save_unit_timings({
        "fig7/ObjectStore/SmartMemory@1.0": 10.0,
        "fig7/SQL/SmartMemory@1.0": 11.0,
    })
    timings = ResultCache(str(tmp_path)).load_unit_timings()
    merged = timings["fig7/ObjectStore/SmartMemory@1.0"]
    # Counts/totals accumulate, min/max widen, last takes the fresher
    # observation — the value longest-first dispatch reads.
    assert merged["count"] == 2
    assert merged["total"] == 22.5
    assert merged["min"] == 10.0
    assert merged["max"] == 12.5
    assert merged["last"] == 10.0
    assert timings["fig7/SQL/SmartMemory@1.0"]["last"] == 11.0


def test_unit_timings_corrupt_file_is_empty(tmp_path):
    cache = ResultCache(str(tmp_path))
    os.makedirs(tmp_path, exist_ok=True)
    with open(cache._timings_path, "w", encoding="utf-8") as handle:
        handle.write("{broken")
    assert cache.load_unit_timings() == {}


# -- driver integration ------------------------------------------------------


SCALE = 0.05  # tiny but non-degenerate durations


def _digests(runs):
    return {run.name: experiment_digest(run.result) for run in runs}


def test_serial_cold_then_warm_is_all_hit_and_row_identical(tmp_path):
    cold_cache = ResultCache(str(tmp_path))
    cold = reproduce_all(only=["fig6-left"], scale=SCALE, cache=cold_cache)
    assert cold_cache.stats.misses > 0
    assert cold_cache.stats.stores == cold_cache.stats.misses
    warm_cache = ResultCache(str(tmp_path))
    warm = reproduce_all(only=["fig6-left"], scale=SCALE, cache=warm_cache)
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.stores == 0
    assert warm_cache.stats.hits == cold_cache.stats.stores
    assert _digests(cold) == _digests(warm)
    assert cold[0].result.rows == warm[0].result.rows
    # warm wall is the sum of *executed* unit walls: zero units ran
    assert warm[0].wall_seconds == 0.0


def test_cached_rows_match_uncached_rows(tmp_path):
    uncached = reproduce_all(only=["table1", "fig6-middle"], scale=SCALE)
    cached = reproduce_all(
        only=["table1", "fig6-middle"], scale=SCALE,
        cache=ResultCache(str(tmp_path)),
    )
    assert _digests(uncached) == _digests(cached)


def test_parallel_warm_pass_skips_the_pool(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    cold = reproduce_all(
        only=["fig6-right"], scale=SCALE, parallel=True, workers=2,
        cache=cache,
    )
    # A fully-warm parallel pass must never touch the pool at all.
    def poisoned_pool(workers):
        raise AssertionError("warm pass requested a worker pool")

    monkeypatch.setattr(executor, "shared_pool", poisoned_pool)
    warm_cache = ResultCache(str(tmp_path))
    warm = reproduce_all(
        only=["fig6-right"], scale=SCALE, parallel=True, workers=2,
        cache=warm_cache,
    )
    assert warm_cache.stats.misses == 0
    assert _digests(cold) == _digests(warm)


def test_parallel_cold_pass_stores_and_matches_serial(tmp_path):
    # 0.1: large enough for fig2's Synthetic workload to finish a batch
    serial = reproduce_all(only=["fig2"], scale=0.1)
    cache = ResultCache(str(tmp_path))
    parallel = reproduce_all(
        only=["fig2"], scale=0.1, parallel=True, workers=2, cache=cache
    )
    assert cache.stats.stores > 0
    assert _digests(serial) == _digests(parallel)


def test_code_salt_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    reproduce_all(only=["table1"], scale=SCALE, cache=cache)
    monkeypatch.setattr("repro.cache.keys._code_salt_cache", "f" * 64)
    stale = ResultCache(str(tmp_path))
    reproduce_all(only=["table1"], scale=SCALE, cache=stale)
    assert stale.stats.misses > 0  # old entries no longer addressable


def test_scale_is_part_of_the_key(tmp_path):
    cache = ResultCache(str(tmp_path))
    reproduce_all(only=["table1"], scale=SCALE, cache=cache)
    other = ResultCache(str(tmp_path))
    reproduce_all(only=["table1"], scale=SCALE * 2, cache=other)
    assert other.stats.misses > 0


def test_executed_walls_recorded_and_persisted(tmp_path):
    cache = ResultCache(str(tmp_path))
    reproduce_all(only=["fig6-left"], scale=SCALE, cache=cache)
    timings = cache.load_unit_timings()
    assert timings, "executed unit timings should persist with the cache"
    for key, summary in timings.items():
        assert key.startswith("fig6-left/")
        assert summary["count"] >= 1
        assert summary["last"] >= 0.0
        assert summary["min"] <= summary["last"] <= summary["max"]


def test_dispatch_costs_prefer_recorded_walls():
    measured, *rest = driver.reproduce_plan(["fig7"], 1.0).units
    costs = {
        unit.unit_id: unit.cost
        for unit in driver.reproduce_plan(
            ["fig7"], 1.0, {measured.unit_id: 9.0}
        ).units
    }
    assert costs[measured.unit_id] == 9.0
    # the unmeasured units get the calibrated estimate, comparable
    # in magnitude to the measured wall (same heuristic => same cost)
    for unit in rest:
        assert costs[unit.unit_id] == pytest.approx(9.0)


def test_pickled_objects_live_under_fanout_dirs(tmp_path):
    cache = ResultCache(str(tmp_path))
    reproduce_all(only=["table1"], scale=SCALE, cache=cache)
    objects_root = tmp_path / "objects"
    stored = list(objects_root.rglob("*.pkl"))
    assert stored
    for path in stored:
        assert len(path.parent.name) == 2  # two-hex fan-out
        with open(path, "rb") as handle:
            pickle.load(handle)  # every object is readable


def test_atomic_writes_under_multi_process_contention(tmp_path):
    """Two real processes hammer one key: readers never see garbage.

    ``put`` is tmp-file + ``os.replace``, so a concurrent ``get`` must
    observe either some writer's complete payload or a miss — never a
    torn object (which would show up as ``stats.corrupt``).
    """
    import subprocess
    import sys

    root = str(tmp_path)
    script = (
        "import sys\n"
        "from repro.cache import ResultCache\n"
        "root, tag = sys.argv[1], sys.argv[2]\n"
        "cache = ResultCache(root)\n"
        "for i in range(200):\n"
        "    cache.put('contended-key', {'tag': tag, 'i': i,\n"
        "                                'blob': b'x' * 4096})\n"
        "    got = cache.get('contended-key')\n"
        "    assert got is not None and got['blob'] == b'x' * 4096\n"
        "assert cache.stats.corrupt == 0, cache.stats\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, root, tag], env=env
        )
        for tag in ("alpha", "beta")
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    # The surviving object is one writer's complete payload.
    final = ResultCache(root)
    payload = final.get("contended-key")
    assert payload["tag"] in ("alpha", "beta")
    assert payload["blob"] == b"x" * 4096
    assert final.stats.corrupt == 0


# -- quarantine bound --------------------------------------------------------


def test_quarantine_dir_is_bounded_to_keep_newest(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(5)]
    cache = ResultCache(str(tmp_path), quarantine_keep=3)
    for key in keys:
        cache.put(key, [1])
        with open(cache._object_path(key), "wb") as handle:
            handle.write(b"garbage")
    fresh = ResultCache(str(tmp_path), quarantine_keep=3)
    for key in keys:
        assert fresh.get(key) is None  # every object corrupt → miss
    assert fresh.stats.corrupt == 5
    pkls = [
        name for name in os.listdir(fresh.quarantine_dir)
        if name.endswith(".pkl")
    ]
    assert len(pkls) == 3  # oldest two evicted
    assert fresh.stats.pruned == 2
    assert "pruned=2" in fresh.stats.render()


def test_quarantine_prune_spares_the_units_log(tmp_path):
    """Only ``*.pkl`` evidence counts against the object bound: any
    other file in the quarantine directory is never collected."""
    cache = ResultCache(str(tmp_path), quarantine_keep=1)
    os.makedirs(cache.quarantine_dir, exist_ok=True)
    ledger = os.path.join(cache.quarantine_dir, "units.json")
    with open(ledger, "w", encoding="utf-8") as handle:
        handle.write("[]")
    keys = [f"{i:02x}" * 32 for i in range(3)]
    for key in keys:
        cache.put(key, [1])
        with open(cache._object_path(key), "wb") as handle:
            handle.write(b"garbage")
    fresh = ResultCache(str(tmp_path), quarantine_keep=1)
    for key in keys:
        fresh.get(key)
    assert os.path.exists(ledger)  # the ledger survived
    pkls = [
        name for name in os.listdir(fresh.quarantine_dir)
        if name.endswith(".pkl")
    ]
    assert len(pkls) == 1
    assert fresh.stats.pruned == 2


def test_negative_quarantine_keep_disables_pruning(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(4)]
    cache = ResultCache(str(tmp_path), quarantine_keep=-1)
    for key in keys:
        cache.put(key, [1])
        with open(cache._object_path(key), "wb") as handle:
            handle.write(b"garbage")
    fresh = ResultCache(str(tmp_path), quarantine_keep=-1)
    for key in keys:
        fresh.get(key)
    pkls = [
        name for name in os.listdir(fresh.quarantine_dir)
        if name.endswith(".pkl")
    ]
    assert len(pkls) == 4
    assert fresh.stats.pruned == 0
    assert "pruned" not in fresh.stats.render()
