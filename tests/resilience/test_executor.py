"""The one unit executor (DESIGN.md §11.1).

Part (a) drives :func:`run_units` against fake cache/journal doubles
that share one call log, so the ordering rules are asserted directly.
Part (b) is the contract every pipeline inherits from it: inline ==
pooled == warm-cache == interrupted-then-resumed digest, and warm and
resumed passes execute nothing.
"""

import threading

import pytest

from repro.cache import ResultCache, codec
from repro.journal.log import KILL_AFTER_ENV, replay_records, set_kill_action
from repro.journal.pipelines import PIPELINES, baseline_digest, launch
from repro.obs import spans as obs
from repro.resilience import (
    ChaosPlan,
    DispatchCancelled,
    Plan,
    RetryPolicy,
    WorkUnit,
    activated,
    run_units,
)
from repro.resilience.pool import shared_pool, shared_pool_counters

FAST = RetryPolicy(max_retries=0)


def _double(payload):
    return payload * 2


def _plan(n=3, cache_key=lambda payload: f"key{payload}"):
    return Plan(
        "test",
        tuple(WorkUnit(f"u{i}", i, cost=float(i)) for i in range(n)),
        cache_key=cache_key,
    )


class FakeCache:
    def __init__(self, log, contents=None):
        self.log = log
        self.contents = dict(contents or {})

    def get(self, key, default=None):
        self.log.append(("get", key))
        return self.contents.get(key, default)

    def put(self, key, payload):
        self.log.append(("put", key))
        self.contents[key] = payload


class FakeJournal:
    def __init__(self, log, replayed=None, quarantined=()):
        self.log = log
        self.replayed = dict(replayed or {})
        self.replayed_quarantined = list(quarantined)

    def is_done(self, unit_id):
        return unit_id in self.replayed

    def record_dispatched(self, unit_id, attempt):
        self.log.append(("dispatched", unit_id))

    def record_done(self, unit_id, payload, wall_s, executed=True):
        self.log.append(("done", unit_id, executed, wall_s))

    def record_done_many(self, items):
        self.log.append(("batch", [item[0] for item in items]))
        for item in items:
            self.record_done(*item)

    def record_quarantined(self, unit_id, fault_kind):
        self.log.append(("quarantined", unit_id, fault_kind))

    def seal(self, digest):
        self.log.append(("seal", digest))


# -- (a) run_units against doubles -------------------------------------------


def test_replay_beats_cache():
    log = []
    seen = []
    outcome = run_units(
        _plan(1), _double,
        cache=FakeCache(log, {"key0": "from-cache"}),
        journal=FakeJournal(log, replayed={"u0": "from-journal"}),
        on_result=lambda unit, payload, wall: seen.append((payload, wall)),
    )
    assert seen == [("from-journal", None)]
    assert log == []  # never probed, never re-recorded
    assert (outcome.replayed, outcome.cached, outcome.executed) == (1, 0, 0)


def test_cache_hit_is_recorded_as_not_executed():
    log = []
    seen = []
    outcome = run_units(
        _plan(2), _double,
        cache=FakeCache(log, {"key1": "hit"}), journal=FakeJournal(log),
        on_result=lambda unit, payload, wall: seen.append(
            (unit.unit_id, payload, wall is None)
        ),
    )
    assert ("done", "u1", False, 0.0) in log
    assert ("dispatched", "u1") not in log
    assert sorted(seen) == [("u0", 0, False), ("u1", "hit", True)]
    assert (outcome.replayed, outcome.cached, outcome.executed) == (0, 1, 1)


def test_cache_hits_settle_in_one_batch_before_anything_dispatches():
    """Every hit of the probe loop reaches the journal in one
    ``record_done_many`` (one commit), the reducer hears of them only
    after it, and dispatch starts after that."""
    log = []
    outcome = run_units(
        _plan(4), _double,
        cache=FakeCache(log, {"key0": "a", "key2": "c", "key3": "d"}),
        journal=FakeJournal(log),
        on_result=lambda unit, payload, wall: log.append(
            ("result", unit.unit_id)
        ),
    )
    steps = [entry[:2] for entry in log if entry[0] != "get"]
    assert steps == [
        ("batch", ["u0", "u2", "u3"]),
        ("done", "u0"), ("done", "u2"), ("done", "u3"),
        ("result", "u0"), ("result", "u2"), ("result", "u3"),
        ("dispatched", "u1"), ("put", "key1"), ("done", "u1"),
        ("result", "u1"),
    ]
    assert (outcome.cached, outcome.executed) == (3, 1)


def test_put_happens_before_record_done():
    """A journal that dies in ``record_done`` leaves the unit cached and
    un-journaled — the crash window a resume closes from the cache."""
    log = []

    class DyingJournal(FakeJournal):
        def record_done(self, unit_id, payload, wall_s, executed=True):
            raise RuntimeError("killed before the record landed")

    cache = FakeCache(log)
    with pytest.raises(RuntimeError):
        run_units(_plan(1), _double, cache=cache, journal=DyingJournal(log))
    assert cache.contents == {"key0": codec.encode(0)}  # encoded once
    assert [entry[0] for entry in log] == ["get", "dispatched", "put"]


def test_quarantine_reports_the_hole_and_journals_it():
    log = []
    holes = []
    with activated(ChaosPlan(kind="crash", poison_units=("u1",))):
        outcome = run_units(
            _plan(3), _double, workers=2, policy=FAST,
            cache=FakeCache(log), journal=FakeJournal(log),
            on_hole=lambda unit: holes.append(unit.unit_id),
        )
    assert holes == outcome.holes == ["u1"]
    assert ("quarantined", "u1", "crash") in log
    assert not any(e[:2] == ("done", "u1") for e in log)
    assert outcome.executed == 2


def test_replayed_quarantine_is_a_hole_without_redispatch():
    log = []
    holes = []
    outcome = run_units(
        _plan(2), _double,
        journal=FakeJournal(log, quarantined=["u0"]),
        on_hole=lambda unit: holes.append(unit.unit_id),
    )
    assert holes == outcome.holes == ["u0"]
    assert ("dispatched", "u0") not in log


@pytest.mark.parametrize("workers", [1, 2])
def test_cancellation_leaves_the_journal_unsealed(workers):
    """Inline and pooled runs check the same cancel event: once it is
    set, no unit is recorded done and the run is not sealed."""
    log = []
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(DispatchCancelled):
        run_units(
            _plan(3), _double, workers=workers, journal=FakeJournal(log),
            cancel=cancel,
        )
    assert not any(entry[0] in ("seal", "done") for entry in log)


def test_seal_needs_a_journal_and_computes_the_digest_lazily():
    log = []
    run_units(_plan(1), _double, journal=FakeJournal(log)).seal(lambda: "d")
    assert log[-1] == ("seal", "d")
    run_units(_plan(1), _double).seal(
        lambda: pytest.fail("digest computed with no journal to seal")
    )


def test_inline_and_pooled_take_the_same_steps_per_unit():
    def steps(workers):
        log = []
        run_units(
            _plan(3), _double, workers=workers,
            cache=FakeCache(log), journal=FakeJournal(log),
            on_result=lambda unit, payload, wall: log.append(
                ("result", unit.unit_id, payload, wall > 0)
            ),
        )
        per_unit = {}
        for entry in log:
            unit = entry[1].replace("key", "u")
            per_unit.setdefault(unit, []).append(entry[0])
        return log, per_unit

    inline_log, inline = steps(1)
    _pooled_log, pooled = steps(2)
    assert inline == pooled == {
        f"u{i}": ["get", "dispatched", "put", "done", "result"]
        for i in range(3)
    }
    # longest-first: cost descending is u2, u1, u0
    dispatch_order = [e[1] for e in inline_log if e[0] == "dispatched"]
    assert dispatch_order == ["u2", "u1", "u0"]


def _refuse_to_rebuild():
    raise RuntimeError("cannot rebuild")


class _Unrebuildable:
    """Pickles anywhere; unpickling it raises, in a worker or the parent."""

    def __reduce__(self):
        return (_refuse_to_rebuild, ())


def _unrebuildable_u1(payload):
    return _Unrebuildable() if payload == 1 else payload * 2


def test_an_undecodable_result_frame_is_a_hole_not_a_dead_pool(
    fast_backoff,
):
    """The pool knows which worker sent the frame, so the attempt it
    holds fails, retries, and is quarantined; the pool survives."""
    shared_pool(2)
    before = shared_pool_counters()
    quarantine = []
    seen = []
    outcome = run_units(
        _plan(4), _unrebuildable_u1, workers=2,
        policy=RetryPolicy(max_retries=1),
        quarantine=quarantine,
        on_result=lambda unit, payload, wall: seen.append(unit.unit_id),
    )
    after = shared_pool_counters()
    assert outcome.holes == ["u1"]
    assert sorted(seen) == ["u0", "u2", "u3"] and outcome.executed == 3
    (record,) = quarantine
    assert record.attempts == 2
    assert "undecodable worker frame: RuntimeError" in record.error
    assert after["size"] == before["size"] >= 2
    assert after["respawns"] == before["respawns"]  # the workers were kept


def test_a_task_the_worker_cannot_unpickle_is_a_hole_not_a_dead_worker(
    fast_backoff,
):
    """A task frame that will not rebuild in the worker fails the
    attempt it carried, retries, and is quarantined with the unpickle
    error; the worker lives on (no crash, no respawn)."""
    shared_pool(2)
    before = shared_pool_counters()
    quarantine = []
    plan = Plan("test", tuple(
        WorkUnit(f"u{i}", _Unrebuildable() if i == 1 else i, cost=float(i))
        for i in range(4)
    ))
    seen = []
    outcome = run_units(
        plan, _double, workers=2,
        policy=RetryPolicy(max_retries=1),
        quarantine=quarantine,
        on_result=lambda unit, payload, wall: seen.append((unit.unit_id,
                                                           payload)),
    )
    after = shared_pool_counters()
    assert outcome.holes == ["u1"]
    assert sorted(seen) == [("u0", 0), ("u2", 4), ("u3", 6)]
    (record,) = quarantine
    assert record.attempts == 2
    assert "undecodable task: RuntimeError: cannot rebuild" in record.error
    assert after["crashes"] == before["crashes"]
    assert after["respawns"] == before["respawns"]


def test_a_plan_without_a_cache_tier_never_touches_the_cache():
    log = []
    run_units(_plan(2, cache_key=None), _double, cache=FakeCache(log))
    assert log == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_store_less_run_never_encodes_a_result(workers, monkeypatch):
    """With neither a cache tier nor a journal no store takes a unit's
    bytes, so none are encoded, inline or pooled; a store that does
    take them still gets them."""
    def refuse(payload):
        raise AssertionError("encoded for no store")

    monkeypatch.setattr(codec, "encode", refuse)
    seen = []
    outcome = run_units(
        _plan(3), _double, workers=workers,
        on_result=lambda unit, payload, wall: seen.append(payload),
    )
    assert outcome.executed == 3 and sorted(seen) == [0, 2, 4]
    run_units(_plan(3, cache_key=None), _double, workers=workers,
              cache=FakeCache([]))
    with pytest.raises(AssertionError, match="encoded for no store"):
        run_units(_plan(1), _double, journal=FakeJournal([]))


def _probe_spans(plan, **options):
    """The ``cache.probe`` spans one traced :func:`run_units` emits."""
    tracer = obs.activate(obs.Tracer())
    try:
        run_units(plan, _double, **options)
    finally:
        obs.deactivate()
    return [
        (record["cat"], record["args"]) for record in tracer.drain()
        if record["name"] == "cache.probe"
    ]


def test_one_probe_span_counts_this_calls_probes_only():
    log = []
    assert _probe_spans(
        _plan(4),
        cache=FakeCache(log, {"key1": "hit"}),
        journal=FakeJournal(log, replayed={"u0": 0}, quarantined=["u3"]),
    ) == [("cache", {"hits": 1, "misses": 1})]


def test_no_probe_span_without_a_cache_tier():
    assert _probe_spans(_plan(2, cache_key=None), cache=FakeCache([])) == []
    assert _probe_spans(_plan(2)) == []


# -- (b) the contract every pipeline inherits --------------------------------

CONTRACT = {
    "fleet": {
        "n_nodes": 8, "agent": "mixed", "seed": 3, "duration_s": 5,
        "rack_size": 8, "fault": None,
    },
    "reproduce": {"artifacts": ["table1", "fig6-left"], "scale": 0.05},
    "sweep": {
        "name": "contract", "agents": ["overclock"], "scales": [1, 2],
        "seeds": [0], "duration_s": 5, "rack_size": 1,
        "fault": [{"kind": "bad_data", "intensities": [0.9],
                   "start_s": 1, "duration_s": 3, "racks": [0]}],
    },
}


class _Killed(Exception):
    pass


def _raise_killed():
    raise _Killed()


def _journaled(kind, root, workers, resume=False, cache=False):
    """One trip down the launch ladder; the (closed) journal it left."""
    return launch(
        kind, PIPELINES[kind].config_from_payload(CONTRACT[kind]),
        cache_root=root, workers=workers, resume=resume,
        open_cache=ResultCache if cache else None,
    ).journal


@pytest.mark.parametrize("kind", sorted(CONTRACT))
def test_pipeline_contract(kind, tmp_path, monkeypatch):
    """inline == pooled == warm-cache == interrupted-then-resumed."""
    truth = baseline_digest(kind, CONTRACT[kind])
    cached = PIPELINES[kind].cached  # the ladder opens no cache otherwise

    inline = _journaled(kind, str(tmp_path / "inline"), 1)
    pooled_root = str(tmp_path / "pooled")
    pooled = _journaled(kind, pooled_root, 2, cache=True)
    assert inline.sealed_digest == pooled.sealed_digest == truth
    assert pooled.stats.executed == len(pooled.units)

    # Every executed unit journals the wall its worker measured.
    records, _valid = replay_records(f"{pooled.directory}/log.bin")
    walls = [r["wall"] for r in records if r.get("kind") == "UNIT_DONE"]
    assert len(walls) == len(pooled.units) and min(walls) > 0

    # Warm: a fresh journal over the filled cache executes nothing
    # (a kind with no cache tier warms by resuming its sealed run).
    warm = _journaled(kind, pooled_root, 2, resume=not cached, cache=True)
    assert warm.sealed_digest == truth
    assert warm.stats.executed == 0
    assert warm.stats.cached == (len(warm.units) if cached else 0)

    # Interrupted after the 1st commit (one completed unit), resumed.
    root = str(tmp_path / "killed")
    monkeypatch.setenv(KILL_AFTER_ENV, "1")
    set_kill_action(_raise_killed)
    try:
        with pytest.raises(_Killed):
            _journaled(kind, root, 1)
    finally:
        monkeypatch.delenv(KILL_AFTER_ENV)
        set_kill_action(None)
    resumed = _journaled(kind, root, 2, resume=True)
    assert resumed.sealed_digest == truth
    assert resumed.stats.replayed == 1
    assert resumed.stats.replayed + resumed.stats.executed == len(
        resumed.units
    )
    # ... and resuming the now-sealed run executes nothing at all.
    again = _journaled(kind, root, 1, resume=True)
    assert again.sealed_digest == truth
    assert (again.stats.executed, again.stats.replayed) == (
        0, len(again.units)
    )
