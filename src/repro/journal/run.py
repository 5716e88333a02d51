"""The run journal: manifest, durable unit results, idempotent replay.

One run = one directory under ``<cache>/runs/<run_id>/``::

    manifest.json   atomic at start: kind, config, plan, full unit list,
                    log_format, code_salt
    log.bin         append-only record stream (:mod:`repro.journal.log`);
                    a UNIT_DONE frame carries its result pickle

plus a sibling ``<cache>/runs/<run_id>.lease`` file whose kernel lock
is the claim (:mod:`repro.journal.lease`; outside the directory, so
wiping the directory for a fresh run cannot destroy a live claim).

Crash-consistency discipline — this class is the one place that sorts
the record kinds into three durability classes (DESIGN.md §12):

* **intent** (``UNIT_DISPATCHED``): appended, never fsync'd on its own
  and never trusted on replay — it rides whichever commit comes next;
* **completion** (``UNIT_DONE``, ``UNIT_QUARANTINED``, ``RUN_SEALED``):
  the recording call does not return before its fsync.  A completed
  unit is one frame — record + raw result pickle under one crc — and
  one fsync, so a kill mid-write leaves a torn tail the log replay
  drops and the unit re-executes (idempotent: units are pure,
  DESIGN.md §11).  Replay still checks every ``UNIT_DONE``'s sha256
  ``digest`` against its blob before unpickling and demotes any
  mismatch or unpickle error to *not done*;
* **batch** (:meth:`RunJournal.record_done_many`): every frame
  appended, one fsync, stats after — the same guarantee per record.

``run_id`` is deterministic: a hash of the run kind, the canonical
config payload, and the code-version salt.  The same invocation always
maps to the same journal (that is what makes ``--resume`` a flag
rather than a lookup problem), and any result-affecting source edit
moves every run to a fresh id.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cache.keys import code_salt, _canonical
from repro.journal.lease import Lease
from repro.journal.log import LOG_FORMAT, RecordLog

__all__ = [
    "DoneItem",
    "RunJournal",
    "RunStats",
    "check_resumable",
    "derive_run_id",
    "open_run",
    "read_manifest",
    "runs_root",
]

#: One completed unit as :meth:`RunJournal.record_done_many` takes it:
#: ``(unit_id, payload, wall_s, executed)``.
DoneItem = Tuple[str, Any, float, bool]


def runs_root(cache_root: str) -> str:
    """The journal area under a cache root."""
    return os.path.join(cache_root, "runs")


def derive_run_id(kind: str, payload: Dict[str, Any]) -> str:
    """Deterministic run id: hash of kind + canonical config + salt."""
    body = json.dumps(
        {
            "kind": kind,
            "config": _canonical(payload),
            "salt": code_salt(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class RunStats:
    """Counters for the journal status line and the resume assertions.

    ``replayed`` units came back from the journal (not executed this
    process); ``executed`` ran live; ``cached`` completed via a result-
    cache hit (recorded durably all the same, so a resume neither
    re-probes nor re-executes them).
    """

    replayed: int = 0
    executed: int = 0
    cached: int = 0
    quarantined: int = 0


@dataclass
class RunJournal:
    """An owned, replayed run ledger.  Build via :func:`open_run`."""

    run_id: str
    directory: str
    manifest: Dict[str, Any]
    _lease: Lease
    _log: RecordLog
    stats: RunStats = field(default_factory=RunStats)
    replayed: Dict[str, Any] = field(default_factory=dict)
    replayed_walls: Dict[str, float] = field(default_factory=dict)
    replayed_quarantined: List[str] = field(default_factory=list)
    sealed_digest: Optional[str] = None
    _closed: bool = field(init=False, default=False)

    # -- queries -------------------------------------------------------------

    @property
    def units(self) -> List[str]:
        return list(self.manifest["units"])

    @property
    def sealed(self) -> bool:
        return self.sealed_digest is not None

    def is_done(self, unit_id: str) -> bool:
        return unit_id in self.replayed

    # -- recording -----------------------------------------------------------

    def record_dispatched(self, unit_id: str, attempt: int) -> None:
        """Dispatch intent: handed to the OS, durable with the next
        commit.  Nothing on replay trusts it (it feeds the attempts
        column of ``runs show --timing``)."""
        self._log.append("UNIT_DISPATCHED", unit=unit_id, attempt=attempt)

    def record_done_many(self, items: Iterable[DoneItem]) -> None:
        """Durable completion of a batch: one frame per unit (record +
        result pickle), one fsync for all of them, stats after it."""
        items = list(items)
        for unit_id, payload, wall_s, executed in items:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._log.append(
                "UNIT_DONE",
                blob,
                unit=unit_id,
                wall=float(wall_s),
                digest=hashlib.sha256(blob).hexdigest(),
                executed=bool(executed),
            )
        self._log.commit()
        executed = sum(1 for item in items if item[3])
        self.stats.executed += executed
        self.stats.cached += len(items) - executed

    def record_done(
        self,
        unit_id: str,
        payload: Any,
        wall_s: float,
        executed: bool = True,
    ) -> None:
        """Durable completion of one unit: one frame, one fsync."""
        self.record_done_many([(unit_id, payload, wall_s, executed)])

    def record_quarantined(self, unit_id: str, fault_kind: str) -> None:
        self._log.append("UNIT_QUARANTINED", unit=unit_id, fault=fault_kind)
        self._log.commit()
        self.stats.quarantined += 1

    def seal(self, digest: str) -> None:
        """Terminal record: the run completed with this final digest.

        The seal record carries the run's summary counts (done /
        quarantined / executed / cached, derived from the durable
        record stream, so replayed units are included), and the same
        summary is mirrored into a ``summary.json`` sidecar — the
        registry's no-replay fast path for listing sealed runs.  A kill
        between the seal append and the sidecar write just means the
        registry falls back to log replay for this run (correct, only
        slower).
        """
        if self.sealed:
            return
        summary = self._summary_counts()
        self._log.append("RUN_SEALED", digest=digest, **summary)
        self._log.commit()
        self.sealed_digest = digest
        sidecar = {
            "run_id": self.run_id,
            "digest": digest,
            "total_units": len(self.manifest.get("units", [])),
            **summary,
        }
        try:
            _atomic_write(
                os.path.join(self.directory, "summary.json"),
                json.dumps(sidecar, sort_keys=True, indent=2).encode(
                    "utf-8"
                ),
            )
        except OSError:  # pragma: no cover — sidecar is an optimization
            pass

    def _summary_counts(self) -> Dict[str, int]:
        """Completion counts from the durable record stream.

        Computed from the log (not :attr:`stats`) so replayed units
        count and torn records cannot: this is exactly what a registry
        replay of the sealed log would conclude.
        """
        known = set(self.manifest.get("units", []))
        done: Dict[str, bool] = {}
        quarantined = set()
        for record in self._log.records:
            kind = record.get("kind")
            if kind == "UNIT_DONE" and record.get("unit") in known:
                done[record["unit"]] = bool(record.get("executed", True))
            elif (
                kind == "UNIT_QUARANTINED"
                and record.get("unit") in known
            ):
                quarantined.add(record["unit"])
        return {
            "done_units": len(done),
            "quarantined_units": len(quarantined - set(done)),
            "executed_units": sum(1 for e in done.values() if e),
            "cached_units": sum(1 for e in done.values() if not e),
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the log, then release the lease."""
        if self._closed:
            return
        self._closed = True
        self._log.close()
        self._lease.release()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _replay_into(journal: RunJournal) -> None:
    """Rebuild completion state from the valid prefix of the log."""
    quarantined: List[str] = []
    known = set(journal.manifest["units"])
    for record in journal._log.records:
        kind = record.get("kind")
        if kind == "UNIT_QUARANTINED" and record.get("unit") in known:
            if record["unit"] not in quarantined:
                quarantined.append(record["unit"])
        elif kind == "RUN_SEALED":
            journal.sealed_digest = record.get("digest")
    # The log hands each replayed blob over once; the last UNIT_DONE of
    # a unit wins and only that one is hashed and unpickled.
    done = {
        record["unit"]: (record, blob)
        for record, blob in journal._log.take_blobs()
        if record.get("kind") == "UNIT_DONE" and record.get("unit") in known
    }
    for unit_id, (record, blob) in done.items():
        if hashlib.sha256(blob).hexdigest() != record.get("digest"):
            continue  # rotted payload: demote to not-done, re-execute
        try:
            journal.replayed[unit_id] = pickle.loads(blob)
        except Exception:  # noqa: BLE001 — unpicklable ⇒ re-execute
            continue
        journal.replayed_walls[unit_id] = float(record.get("wall", 0.0))
    journal.stats.replayed = len(journal.replayed)
    journal.replayed_quarantined = [
        unit_id for unit_id in quarantined
        if unit_id not in journal.replayed
    ]


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """A run directory's manifest, or ``None`` when it is missing,
    unreadable, or not a JSON object — all three mean "no journal"."""
    try:
        with open(
            os.path.join(directory, "manifest.json"), "r", encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def check_resumable(run_id: str, manifest: Dict[str, Any]) -> None:
    """Refuse to adopt a journal this build did not write.

    ``journal/`` is outside the code salt (editing it cannot move a
    result bit), so neither a frame-layout change nor an explicit
    ``run_id`` is caught by the run id itself: a manifest of another
    ``log_format`` would parse as zero frames and be truncated, one of
    another ``code_salt`` would replay old-code payloads into a digest
    that is neither version's.

    Raises:
        ValueError: naming the journal's value and this build's.
    """
    for key, ours in (("log_format", LOG_FORMAT), ("code_salt", code_salt())):
        theirs = manifest.get(key)
        if theirs != ours:
            raise ValueError(
                f"run {run_id}: journal {key} is {theirs!r} but this "
                f"build's is {ours!r}; refusing to resume (run without "
                f"--resume to start fresh, or `repro runs prune` it)"
            )


def open_run(
    cache_root: str,
    *,
    kind: str,
    config: Dict[str, Any],
    plan: Dict[str, Any],
    units: List[str],
    resume: bool = False,
    run_id: Optional[str] = None,
    verify_units: bool = True,
) -> RunJournal:
    """Claim (and possibly replay) the journal for one run.

    Fresh mode (``resume=False``) wipes any prior journal for this
    ``run_id`` and starts clean — re-running a command deliberately
    re-measures unless the caller asked to resume.  Resume mode adopts
    the existing manifest (after verifying the unit list matches the
    current expansion bit-for-bit, unless ``verify_units=False`` —
    fleet resumes adopt the manifest's frozen chunk plan instead of
    re-deriving one) and replays completions.  A sealed journal resumes
    trivially: everything replays, nothing executes.

    Raises:
        LeaseHeldError: a live orchestrator owns this run.
        ValueError: resume requested but the manifest was written by
            another log format or code salt (:func:`check_resumable`;
            raised before the log is opened, so its bytes are
            untouched), or disagrees with the current expansion (config
            drift without a salt change).
    """
    resolved = run_id or derive_run_id(kind, config)
    root = runs_root(cache_root)
    directory = os.path.join(root, resolved)
    lease = Lease(os.path.join(root, f"{resolved}.lease")).acquire()
    try:
        existing = read_manifest(directory) if resume else None
        if existing is not None:
            check_resumable(resolved, existing)
            if verify_units and list(existing.get("units", [])) != list(
                units
            ):
                raise ValueError(
                    f"run {resolved}: journaled unit list does not match "
                    "the current expansion; refusing to resume"
                )
            manifest = existing
        else:
            if os.path.isdir(directory):
                shutil.rmtree(directory)
            manifest = {
                "run_id": resolved,
                "kind": kind,
                "config": _canonical(config),
                "plan": _canonical(plan),
                "units": list(units),
                "log_format": LOG_FORMAT,
                "code_salt": code_salt(),
                "created_at": time.time(),
            }
            _atomic_write(
                os.path.join(directory, "manifest.json"),
                json.dumps(manifest, sort_keys=True, indent=2).encode(
                    "utf-8"
                ),
            )
        journal = RunJournal(
            run_id=resolved,
            directory=directory,
            manifest=manifest,
            _lease=lease,
            _log=RecordLog(os.path.join(directory, "log.bin")),
        )
    except BaseException:
        lease.release()
        raise
    _replay_into(journal)
    return journal
