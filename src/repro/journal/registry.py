"""Run discovery: scan the journal area and classify each run.

Read-only — the registry never claims a lease (its ``running`` probe
is a shared lock held for an instant, which no claim fails on), so
``repro runs list`` can inspect a cache root while a live orchestrator
works in it.  A run without a readable, well-formed manifest
(:func:`~repro.journal.run.read_manifest`) is not a run.  Otherwise its
status is:

* ``sealed``: the log carries ``RUN_SEALED`` — the run finished and its
  final digest is recorded;
* ``running``: a live process holds the run's lease lock;
* ``interrupted``: no seal and no lock holder — the orchestrator died
  (or released without sealing); the run is resumable.

A run whose manifest names another build's ``log_format`` is listed
with that format and no counts: its log is not read (it could only be
misread), so it is never ``sealed``, and resuming it is refused
(:func:`~repro.journal.run.check_resumable`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.journal.lease import lease_held
from repro.journal.log import LOG_FORMAT
from repro.journal.run import load_log, read_manifest, runs_root

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

    @property
    def readable(self) -> bool:
        """Whether this build reads the run's log: its manifest's
        ``log_format`` is this build's (otherwise every count is 0)."""
        return self.manifest.get("log_format") == LOG_FORMAT


def inspect_run(cache_root: str, run_id: str) -> Optional[RunInfo]:
    """Durable state of one run, or ``None`` if it has no manifest
    (:func:`~repro.journal.run.read_manifest`).

    The one place run counts are computed: the run's ``log.bin`` read
    against its manifest (:func:`~repro.journal.run.load_log`; blobs
    are not decoded), the same for sealed and unsealed runs.  A log of
    another format is not read and counts nothing.
    """
    root = runs_root(cache_root)
    directory = os.path.join(root, run_id)
    manifest = read_manifest(directory)
    if manifest is None:
        return None
    view = load_log(directory, manifest)
    sources = (
        [] if view is None
        else [entry.source for entry in view.units.values()]
    )
    sealed_digest = None if view is None else view.sealed_digest
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
        done_units=sources.count("executed") + sources.count("cached"),
        quarantined_units=sources.count("quarantined"),
        executed_units=sources.count("executed"),
        cached_units=sources.count("cached"),
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
