"""Run discovery: scan the journal area and classify each run.

Read-only — the registry never claims a lease (its ``running`` probe
is a shared lock held for an instant, which no claim fails on), so
``repro runs list`` can inspect a cache root while a live orchestrator
works in it.  A run without a readable JSON-object manifest is not a
run.  Otherwise its status is:

* ``sealed``: the log carries ``RUN_SEALED`` — the run finished and its
  final digest is recorded;
* ``running``: a live process holds the run's lease lock;
* ``interrupted``: no seal and no lock holder — the orchestrator died
  (or released without sealing); the run is resumable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.journal.lease import lease_held
from repro.journal.log import replay_records
from repro.journal.run import read_manifest, runs_root

__all__ = [
    "RunInfo",
    "inspect_run",
    "interrupted_runs",
    "list_runs",
    "resolve_run",
]


@dataclass(frozen=True)
class RunInfo:
    """One journaled run's durable state, as the registry sees it."""

    run_id: str
    kind: str
    status: str  # "sealed" | "running" | "interrupted"
    total_units: int
    done_units: int
    quarantined_units: int
    executed_units: int
    cached_units: int
    sealed_digest: Optional[str]
    created_at: float
    directory: str
    manifest: Dict[str, Any]


def _read_summary(directory: str) -> Optional[Dict[str, Any]]:
    """The seal-time ``summary.json`` sidecar, if present and sane."""
    try:
        with open(
            os.path.join(directory, "summary.json"), "r", encoding="utf-8"
        ) as handle:
            summary = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(summary, dict) or not summary.get("digest"):
        return None
    return summary


def inspect_run(cache_root: str, run_id: str) -> Optional[RunInfo]:
    """Durable state of one run, or ``None`` if it has no manifest
    (:func:`~repro.journal.run.read_manifest`).

    Sealed runs short-circuit through the seal-time ``summary.json``
    sidecar — listing N sealed runs costs N small JSON reads, not N
    full ``log.bin`` replays.  Unsealed runs (and sealed runs whose
    sidecar write was lost to a crash) fall back to replay.
    """
    root = runs_root(cache_root)
    directory = os.path.join(root, run_id)
    manifest = read_manifest(directory)
    if manifest is None:
        return None
    summary = _read_summary(directory)
    if summary is not None:
        return RunInfo(
            run_id=str(manifest.get("run_id", run_id)),
            kind=str(manifest.get("kind", "?")),
            status="sealed",
            total_units=len(manifest.get("units", [])),
            done_units=int(summary.get("done_units", 0)),
            quarantined_units=int(summary.get("quarantined_units", 0)),
            executed_units=int(summary.get("executed_units", 0)),
            cached_units=int(summary.get("cached_units", 0)),
            sealed_digest=str(summary["digest"]),
            created_at=float(manifest.get("created_at", 0.0)),
            directory=directory,
            manifest=manifest,
        )
    records, _valid = replay_records(os.path.join(directory, "log.bin"))
    known = set(manifest.get("units", []))
    done: Dict[str, bool] = {}
    quarantined = set()
    sealed_digest: Optional[str] = None
    for record in records:
        kind = record.get("kind")
        if kind == "UNIT_DONE" and record.get("unit") in known:
            done[record["unit"]] = bool(record.get("executed", True))
        elif kind == "UNIT_QUARANTINED" and record.get("unit") in known:
            quarantined.add(record["unit"])
        elif kind == "RUN_SEALED":
            sealed_digest = record.get("digest")
    if sealed_digest is not None:
        status = "sealed"
    elif lease_held(os.path.join(root, f"{run_id}.lease")):
        status = "running"
    else:
        status = "interrupted"
    return RunInfo(
        run_id=str(manifest.get("run_id", run_id)),
        kind=str(manifest.get("kind", "?")),
        status=status,
        total_units=len(manifest.get("units", [])),
        done_units=len(done),
        quarantined_units=len(quarantined - set(done)),
        executed_units=sum(1 for executed in done.values() if executed),
        cached_units=sum(1 for executed in done.values() if not executed),
        sealed_digest=sealed_digest,
        created_at=float(manifest.get("created_at", 0.0)),
        directory=directory,
        manifest=manifest,
    )


def list_runs(cache_root: str) -> List[RunInfo]:
    """Every journaled run under the cache root, newest first."""
    root = runs_root(cache_root)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    runs: List[RunInfo] = []
    for name in names:
        if name.endswith(".lease"):
            continue
        info = inspect_run(cache_root, name)
        if info is not None:
            runs.append(info)
    runs.sort(key=lambda info: (-info.created_at, info.run_id))
    return runs


def resolve_run(cache_root: str, run_id: str) -> Optional[RunInfo]:
    """:func:`inspect_run`, with ``"latest"`` naming the most recently
    created run — the one spelling every ``RUN_ID`` argument accepts."""
    if run_id == "latest":
        runs = list_runs(cache_root)
        return runs[0] if runs else None
    return inspect_run(cache_root, run_id)


def interrupted_runs(cache_root: str) -> List[RunInfo]:
    """Resumable runs: no seal, no lock holder — adoption candidates.

    The ``repro serve`` control plane calls this at startup to re-adopt
    runs whose orchestrator (possibly a previous server) died; each is
    claimed one at a time by the normal lease claim when its job
    actually executes, so two servers racing the same cache root
    resolve per-run, not wholesale.
    """
    return [
        info for info in list_runs(cache_root)
        if info.status == "interrupted"
    ]
