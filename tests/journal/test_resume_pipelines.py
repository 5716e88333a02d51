"""Resumed and re-run pipelines seal with uninterrupted digests.

What a crash at *any* byte of the log does to a resume is enumerated in
``test_crash_points.py``; what is left here is the two ends of the
range — resuming a sealed run, and a fresh run over a warm cache.
"""

import pytest

from repro.experiments.driver import FleetDriver
from repro.fleet.config import FleetConfig
from repro.journal.pipelines import open_fleet_journal, open_sweep_journal
from repro.journal.run import SealMismatchError
from repro.sweep import SweepRunner
from repro.sweep.spec import CampaignSpec

FLEET = FleetConfig(n_nodes=4, agent="overclock", seed=7, duration_s=10)

SPEC = CampaignSpec.from_dict({
    "name": "resume-demo",
    "agents": ["overclock"],
    "scales": [2],
    "seeds": [0],
    "duration_s": 10,
    "rack_size": 1,
    "fault": [{
        "kind": "bad_data", "intensities": [0.9],
        "start_s": 2, "duration_s": 5, "racks": [0],
    }],
})


def test_fleet_resume_of_sealed_run_executes_nothing(tmp_path):
    root = str(tmp_path)
    with open_fleet_journal(root, FLEET, workers=1) as journal:
        first = FleetDriver(FLEET, workers=1, journal=journal).run()
    with open_fleet_journal(
        root, FLEET, workers=1, resume=True
    ) as resumed:
        again = FleetDriver(FLEET, workers=1, journal=resumed).run()
    assert again.digest() == first.digest()
    assert resumed.stats.executed == 0
    assert resumed.stats.replayed == len(
        FleetDriver(FLEET, workers=1).chunks()
    )


def test_fleet_resume_of_a_run_sealed_under_a_wrong_digest_fails(tmp_path):
    """Resuming a sealed run re-derives its digest from the replayed
    payloads; one that differs from the sealed digest is an error
    naming both, never a silent report of the stored one."""
    root = str(tmp_path)
    right = FleetDriver(FLEET, workers=1).run().digest()
    with open_fleet_journal(root, FLEET, workers=1) as journal:
        journal.seal("0" * 64)
    with open_fleet_journal(root, FLEET, workers=1, resume=True) as resumed:
        with pytest.raises(SealMismatchError, match=f"{'0' * 64} .* {right}"):
            FleetDriver(FLEET, workers=1, journal=resumed).run()
        assert resumed.sealed_digest == "0" * 64


def test_sweep_cache_hits_are_journaled_durably(tmp_path):
    """A fresh journaled run over a warm cache records every hit with
    ``executed=False`` — so a later resume replays them from the journal
    without re-probing the cache."""
    from repro.cache import ResultCache

    root = str(tmp_path)
    cache = ResultCache(root)
    with open_sweep_journal(root, SPEC) as first:
        warm_digest = SweepRunner(SPEC, cache=cache, journal=first).run(
        ).digest()
        # 2 cells, 3 distinct node runs (node 1 is outside the burst).
        assert first.stats.executed == 3
    with open_sweep_journal(root, SPEC) as second:  # fresh run, warm cache
        report = SweepRunner(SPEC, cache=cache, journal=second).run()
        assert second.stats.cached == 3
        assert second.stats.executed == 0
    assert report.digest() == warm_digest
