"""The journal crash-point enumerator: every frame, every cut, no sampling.

For one tiny run of each pipeline kind the uninterrupted ``log.bin`` is
taken apart frame by frame and the run is resumed from **every** state
a crash could have left the log in:

* the log cut at each frame's start, inside its header, inside its
  record, inside its blob, and at its end (a SIGKILL mid-``write``, or a
  power loss that kept only part of an unsynced suffix);
* for every cut that lies past the last commit (fsync) point before it,
  the same length with that unsynced span zero-filled instead (a power
  loss that kept the file size but not the data blocks).

Each state is reopened through ``launch(resume=True)`` — the one way
anything resumes — and must hold the three invariants (DESIGN.md §12):

1. no unit whose ``UNIT_DONE`` frame lies wholly inside the surviving
   prefix re-executes;
2. no unit whose frame was cut or zeroed is trusted;
3. the run seals the digest of the uninterrupted run.

``sweep`` also runs on two workers, so refill-before-commit interleaves
dispatch intents with completions in the log being cut, and once as an
all-hit pass over a warm cache, whose log is one batch — every
completion frame under a single commit.
"""

import os
import shutil
import struct
import time

import pytest

from repro.cache import ResultCache
from repro.journal.log import RecordLog, _decode_record
from repro.journal.pipelines import PIPELINES, baseline_digest, launch

_HEADER = struct.Struct(">III")  # record length, blob length, crc32

CASES = {
    "fleet": ("fleet", 1, {
        "n_nodes": 3, "agent": "overclock", "seed": 11, "duration_s": 5,
        "rack_size": 8, "fault": None,
    }),
    "reproduce": ("reproduce", 1, {
        "artifacts": ["table1", "table2"], "scale": 1.0,
    }),
    "sweep": ("sweep", 1, {
        "name": "crash-points", "agents": ["overclock"], "scales": [1, 2],
        "seeds": [0, 1], "duration_s": 5, "rack_size": 1,
        "fault": [{"kind": "bad_data", "intensities": [0.9],
                   "start_s": 1, "duration_s": 3, "racks": [0]}],
    }),
}
CASES["sweep-2-workers"] = ("sweep", 2, CASES["sweep"][2])
CASES["sweep-all-hit-batch"] = ("sweep", 1, CASES["sweep"][2])


def _frames(data, units):
    """``(unit or None, start, record_start, blob_start, end)`` per
    frame; ``unit`` names (from the manifest's ``units``) the unit a
    ``UNIT_DONE`` frame completes."""
    frames = []
    offset = 0
    while offset < len(data):
        record_length, blob_length, _crc = _HEADER.unpack_from(data, offset)
        record_start = offset + _HEADER.size
        blob_start = record_start + record_length
        end = blob_start + blob_length
        record = _decode_record(memoryview(data)[record_start:blob_start])
        unit = (
            units[record["unit"]] if record["kind"] == "UNIT_DONE" else None
        )
        frames.append((unit, offset, record_start, blob_start, end))
        offset = end
    assert offset == len(data)
    return frames


def _crash_states(data, frames, commits):
    """Every ``(label, log bytes, surviving prefix length)`` to resume."""
    cuts = set()
    for _unit, start, record_start, blob_start, end in frames:
        cuts.update((
            start,
            start + _HEADER.size // 2,
            (record_start + blob_start) // 2,
            end,
        ))
        if end > blob_start:
            cuts.add((blob_start + end) // 2)
    for cut in sorted(cuts):
        yield f"cut@{cut}", data[:cut], cut
        synced = max((c for c in commits if c <= cut), default=0)
        if synced < cut:
            yield (
                f"zero@{synced}+{cut - synced}",
                data[:synced] + b"\x00" * (cut - synced),
                synced,
            )


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_crash_point_resumes_to_the_uninterrupted_digest(
    case, tmp_path, monkeypatch
):
    kind, workers, payload = CASES[case]
    config = PIPELINES[kind].config_from_payload(payload)
    truth = baseline_digest(kind, payload)
    batch = case.endswith("batch")
    warm = str(tmp_path / "warm-cache")

    def run(root, **options):
        return launch(
            kind, config, cache_root=root, workers=workers, trace=False,
            open_cache=(lambda _root: ResultCache(warm)) if batch else None,
            **options,
        ).journal

    if batch:
        run(str(tmp_path / "cold"))  # fills the cache every state shares

    # The uninterrupted run, with the log's size noted at every commit.
    commits = set()
    real_commit = RecordLog.commit

    def noting_commit(self):
        real_commit(self)
        commits.add(os.path.getsize(self.path))

    with monkeypatch.context() as patch:
        patch.setattr(RecordLog, "commit", noting_commit)
        whole = run(str(tmp_path / "whole"))
    assert whole.sealed_digest == truth
    units = whole.units
    with open(os.path.join(whole.directory, "log.bin"), "rb") as handle:
        data = handle.read()
    frames = _frames(data, units)
    assert sorted(u for u, *_ in frames if u) == sorted(units)
    if batch:
        # No intents: every hit's completion under one commit, the seal.
        assert (len(frames), len(commits)) == (len(units) + 1, 2)
    else:
        # One intent and one completion per unit, and the seal; one
        # commit per completion and one for the seal — intents commit
        # nothing.
        assert len(frames) == 2 * len(units) + 1
        assert len(commits) == len(units) + 1
        # On a pool the freed worker's next intent is appended before
        # the finished unit's commit: intents run ahead of completions.
        intents_run_ahead = any(
            before[0] is None and after[0] is None
            for before, after in zip(frames, frames[1:])
        )
        assert intents_run_ahead == (workers > 1)

    started = time.perf_counter()
    visited = 0
    for label, log_bytes, surviving in _crash_states(data, frames, commits):
        root = str(tmp_path / label)
        directory = os.path.join(root, "runs", whole.run_id)
        os.makedirs(directory)
        shutil.copy(os.path.join(whole.directory, "manifest.json"), directory)
        with open(os.path.join(directory, "log.bin"), "wb") as handle:
            handle.write(log_bytes)
        trusted = {
            unit for unit, _s, _j, _b, end in frames
            if unit is not None and end <= surviving
        }
        resumed = run(root, resume=True, run_id=whole.run_id)
        assert set(resumed.replayed) == trusted, label
        assert resumed.stats.replayed == len(trusted), label
        redone = (resumed.stats.cached, resumed.stats.executed)
        if batch:  # what the cut took from the batch is a hit again
            assert redone == (len(units) - len(trusted), 0), label
        else:
            assert redone == (0, len(units) - len(trusted)), label
        assert resumed.sealed_digest == truth, label
        visited += 1
    print(
        f"\n[crash points: {case} — {len(frames)} frames, {visited} states "
        f"resumed in {time.perf_counter() - started:.2f}s]"
    )
    # Five cuts per blob-carrying frame, four per other, shared
    # boundaries counted once — plus the zero-filled twins.
    assert visited > 4 * len(frames)
