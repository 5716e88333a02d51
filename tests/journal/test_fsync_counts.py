"""Fsyncs per pass are a pinned function of the plan (DESIGN.md §12).

``executed units + (1 if any cache hit) + 3`` — the manifest, the seal
and ``summary.json`` are the three; the lease is a kernel lock and
costs none — whatever the worker count and however the pool's polls
happened to group results.
The stack benchmark reports the same number as
``journal.fsyncs_per_pass``; here it is an assertion.
"""

import os

import pytest

from repro.journal.pipelines import PIPELINES, launch
from repro.serve.jobs import execute_job, job_from_submission

FIXED = 3  # manifest, seal, summary.json

PAYLOADS = {
    "fleet": {
        "n_nodes": 6, "agent": "overclock", "seed": 3, "duration_s": 5,
        "rack_size": 8, "fault": None,
    },
    "reproduce": {"artifacts": ["table1", "table2"], "scale": 1.0},
    "sweep": {
        "name": "fsync-counts", "agents": ["overclock"], "scales": [1, 2],
        "seeds": [0], "duration_s": 5, "rack_size": 1,
        "fault": [{"kind": "bad_data", "intensities": [0.9],
                   "start_s": 1, "duration_s": 3, "racks": [0]}],
    },
}


def _launch(kind, root, workers, fsyncs, **options):
    before = len(fsyncs)
    launched = launch(
        kind, PIPELINES[kind].config_from_payload(PAYLOADS[kind]),
        cache_root=root, workers=workers, **options,
    )
    return launched.journal, len(fsyncs) - before


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(PAYLOADS))
def test_a_cold_pass_is_one_fsync_per_executed_unit_plus_fixed(
    kind, workers, tmp_path, fsyncs
):
    journal, count = _launch(kind, str(tmp_path), workers, fsyncs)
    assert journal.stats.executed == len(journal.units) > 1
    assert count == len(journal.units) + FIXED


@pytest.mark.parametrize("workers", [1, 2])
def test_an_all_hit_pass_is_one_fsync_plus_fixed_whatever_its_size(
    workers, tmp_path, fsyncs
):
    root = str(tmp_path)
    _launch("sweep", root, workers, fsyncs)
    journal, count = _launch("sweep", root, workers, fsyncs)  # fresh, warm
    assert journal.stats.cached == len(journal.units) > 1
    assert count == 1 + FIXED


def test_hits_and_misses_in_one_pass_share_nothing_but_the_batch(
    tmp_path, fsyncs
):
    """One hit among the misses: its batch commit, then one per miss."""
    root = str(tmp_path)
    first, _count = _launch("sweep", root, 1, fsyncs)
    objects = sorted(
        os.path.join(directory, name)
        for directory, _dirs, names in os.walk(os.path.join(root, "objects"))
        for name in names
    )
    assert len(objects) == len(first.units)
    for path in objects[1:]:
        os.unlink(path)
    journal, count = _launch("sweep", root, 1, fsyncs)
    assert (journal.stats.cached, journal.stats.executed) == (
        1, len(first.units) - 1
    )
    assert count == journal.stats.executed + 1 + FIXED


@pytest.mark.parametrize("workers", [1, 2])
def test_a_serve_fleet_job_is_one_fsync_per_chunk_plus_fixed(
    workers, tmp_path, fsyncs
):
    job = job_from_submission("job-0001", {
        "kind": "fleet", "config": PAYLOADS["fleet"], "workers": workers,
    })
    before = len(fsyncs)
    result = execute_job(job, str(tmp_path), lambda kind, **fields: None)
    chunks = result["journal"]["total"]
    assert result["journal"]["executed"] == chunks > 1
    assert len(fsyncs) - before == chunks + FIXED
