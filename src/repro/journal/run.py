"""The run journal: manifest, durable unit results, idempotent replay.

One run = one directory under ``<cache>/runs/<run_id>/``::

    manifest.json   written once at start, durably, through the IO seam
                    (:func:`repro.cache.files.write_atomic`): kind,
                    config, plan, full unit list, log_format, code_salt
    log.bin         append-only record stream (:mod:`repro.journal.log`);
                    a UNIT_DONE frame carries its encoded result
                    (:mod:`repro.cache.codec`: deflated JSON)

plus a sibling ``<cache>/runs/<run_id>.lease`` file whose kernel lock
is the claim (:mod:`repro.journal.lease`; outside the directory, so
wiping the directory for a fresh run cannot destroy a live claim).

The manifest is the log's unit-name table: a record names its unit by
the unit's index in ``manifest["units"]``, which is written durably
before the first frame and never changes.  This module is the one
place that maps ids to indices and back — :class:`RunJournal` on
append, :func:`read_log` on every read, which drops a record whose
index the manifest does not list; the journal's replay, the registry's
counts and ``runs show --timing`` all read a log through it.

Crash-consistency discipline — this class is the one place that sorts
the record kinds into three durability classes (DESIGN.md §12):

* **intent** (``UNIT_DISPATCHED``): appended, never fsync'd on its own
  and never trusted on replay — it rides whichever commit comes next;
* **completion** (``UNIT_DONE``, ``UNIT_QUARANTINED``, ``RUN_SEALED``):
  the recording call does not return before its fsync.  A completed
  unit is one frame — record + encoded result under one crc — and
  one fsync, so a kill mid-write leaves a torn tail the log replay
  drops and the unit re-executes (idempotent: units are pure,
  DESIGN.md §11).  Replay still decodes every ``UNIT_DONE`` blob
  against its ``digest`` (the sha256 of the stored JSON) and demotes any
  :class:`~repro.cache.codec.CodecError` to *not done*;
* **batch** (:meth:`RunJournal.record_done_many`): every frame
  appended, one fsync, stats after — the same guarantee per record.

``run_id`` is deterministic: a hash of the run kind, the canonical
config payload, and the code-version salt.  The same invocation always
maps to the same journal (that is what makes ``--resume`` a flag
rather than a lookup problem), and any result-affecting source edit
moves every run to a fresh id.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cache import codec
from repro.cache.files import write_atomic
from repro.cache.keys import code_salt, _canonical
from repro.digest import content_digest
from repro.journal.lease import Lease
from repro.journal.log import LOG_FORMAT, Frame, RecordLog, _read_frames

__all__ = [
    "DoneItem",
    "LogView",
    "RunJournal",
    "RunStats",
    "SealMismatchError",
    "UnitLog",
    "check_resumable",
    "derive_run_id",
    "load_log",
    "open_run",
    "read_log",
    "read_manifest",
    "runs_root",
]

#: One completed unit as :meth:`RunJournal.record_done_many` takes it:
#: ``(unit_id, payload, wall_s, executed)``.
DoneItem = Tuple[str, Any, float, bool]


class SealMismatchError(ValueError):
    """A sealed run re-derived a digest other than the one it sealed."""


def runs_root(cache_root: str) -> str:
    """The journal area under a cache root."""
    return os.path.join(cache_root, "runs")


def derive_run_id(kind: str, payload: Dict[str, Any]) -> str:
    """Deterministic run id: hash of kind + canonical config + salt."""
    return content_digest({
        "kind": kind,
        "config": _canonical(payload),
        "salt": code_salt(),
    })[:16]


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
    replayed_quarantined: List[str] = field(default_factory=list)
    sealed_digest: Optional[str] = None
    _closed: bool = field(init=False, default=False)
    _index: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {
            unit_id: index
            for index, unit_id in enumerate(self.manifest["units"])
        }

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

    def _unit(self, unit_id: str) -> int:
        """``unit_id``'s index in the manifest, the name its records use.

        Raises:
            ValueError: the manifest does not list ``unit_id``.
        """
        try:
            return self._index[unit_id]
        except KeyError:
            raise ValueError(
                f"run {self.run_id}: unit {unit_id!r} is not in its manifest"
            ) from None

    def record_dispatched(self, unit_id: str, attempt: int) -> None:
        """Dispatch intent: handed to the OS, durable with the next
        commit.  Nothing on replay trusts it (it feeds the attempts
        column of ``runs show --timing``)."""
        self._log.append(
            "UNIT_DISPATCHED", unit=self._unit(unit_id), attempt=attempt
        )

    def record_done_many(self, items: Iterable[DoneItem]) -> None:
        """Durable completion of a batch: one frame per unit (record +
        encoded result), one fsync for all of them, stats after it.  A
        payload may come already :class:`~repro.cache.codec.Encoded`."""
        items = list(items)
        for unit_id, payload, wall_s, executed in items:
            blob, digest = codec.encode(payload)
            self._log.append(
                "UNIT_DONE",
                blob,
                unit=self._unit(unit_id),
                wall=float(wall_s),
                digest=digest,
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
        self._log.append(
            "UNIT_QUARANTINED", unit=self._unit(unit_id), fault=fault_kind
        )
        self._log.commit()
        self.stats.quarantined += 1

    def seal(self, digest: str) -> None:
        """Terminal record: the run completed with this final digest.

        One frame, one fsync.  The run's counts are not copied into it:
        the registry derives them by replaying the log
        (:func:`~repro.journal.registry.inspect_run`), sealed or not.

        Sealing a sealed run (a resume or resubmit of a finished run
        re-derives its digest from the replayed payloads) writes
        nothing, but the re-derived digest must be the sealed one.

        Raises:
            SealMismatchError: the run is sealed with another digest.
        """
        if self.sealed:
            if digest != self.sealed_digest:
                raise SealMismatchError(
                    f"run {self.run_id} is sealed with digest "
                    f"{self.sealed_digest} but its replayed payloads "
                    f"reduce to {digest}"
                )
            return
        self._log.append("RUN_SEALED", digest=digest)
        self._log.commit()
        self.sealed_digest = digest

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


@dataclass
class UnitLog:
    """What the log says of one manifest unit, folded in log order.

    ``source`` is the unit's standing: ``executed`` or ``cached`` once
    any ``UNIT_DONE`` landed (the last one counts, and a completion
    outranks a quarantine whatever their order), else ``quarantined``
    once a ``UNIT_QUARANTINED`` did, else ``pending``.
    """

    attempts: int = 0  # UNIT_DISPATCHED records
    done: Optional[Dict[str, Any]] = None  # the last UNIT_DONE record
    blob: Optional[memoryview] = None  # ... and its encoded result
    fault: Optional[str] = None  # the last UNIT_QUARANTINED's fault

    @property
    def source(self) -> str:
        if self.done is not None:
            return "executed" if self.done["executed"] else "cached"
        return "pending" if self.fault is None else "quarantined"


@dataclass
class LogView:
    """A run's log read against its manifest (:func:`read_log`).

    ``units`` holds every unit some record names, keyed by id, in the
    order of each unit's first record.
    """

    units: Dict[str, UnitLog]
    sealed_digest: Optional[str]


def read_log(manifest: Dict[str, Any], frames: Iterable[Frame]) -> LogView:
    """The one reader of a run's records: resolve each record's unit
    index against ``manifest["units"]`` and fold the records per unit.
    A record whose index the manifest does not list is dropped; the
    last ``RUN_SEALED`` names the sealed digest."""
    names = manifest["units"]
    units: Dict[str, UnitLog] = {}
    sealed_digest: Optional[str] = None
    for record, blob in frames:
        kind = record["kind"]
        if kind == "RUN_SEALED":
            sealed_digest = record["digest"]
            continue
        if record["unit"] >= len(names):
            continue  # a unit this manifest does not list
        entry = units.setdefault(names[record["unit"]], UnitLog())
        if kind == "UNIT_DISPATCHED":
            entry.attempts += 1
        elif kind == "UNIT_DONE":
            entry.done, entry.blob = record, blob
        else:
            entry.fault = record["fault"]
    return LogView(units, sealed_digest)


def load_log(directory: str, manifest: Dict[str, Any]) -> Optional[LogView]:
    """:func:`read_log` over a run directory's ``log.bin``, read-only;
    ``None``, with no byte of the log read, when the manifest's
    ``log_format`` is not this build's."""
    if manifest.get("log_format") != LOG_FORMAT:
        return None
    frames, _valid = _read_frames(os.path.join(directory, "log.bin"))
    return read_log(manifest, frames)


def _replay_into(journal: RunJournal) -> None:
    """Rebuild completion state from the valid prefix of the log.  The
    log hands its replayed frames over once; only each unit's last
    ``UNIT_DONE`` blob is decoded."""
    view = read_log(journal.manifest, journal._log.take_frames())
    journal.sealed_digest = view.sealed_digest
    for unit_id, entry in view.units.items():
        if entry.done is None:
            continue
        try:
            journal.replayed[unit_id] = codec.decode(
                entry.blob, entry.done["digest"]
            )
        except codec.CodecError:
            continue  # rotted payload: demote to not-done, re-execute
    journal.stats.replayed = len(journal.replayed)
    journal.replayed_quarantined = [
        unit_id for unit_id, entry in view.units.items()
        if entry.fault is not None and unit_id not in journal.replayed
    ]


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """A run directory's manifest, or ``None`` when it is missing,
    unreadable, or malformed — all three mean "no journal".

    Well-formed is a JSON object whose fields the registry, ``repro
    runs`` and serve adoption read have the types they assume: ``units``
    a list of strings, ``plan`` and ``config`` objects, ``created_at`` a
    finite number, and ``plan.workers``, when present, an int ≥ 1.
    """
    try:
        with open(
            os.path.join(directory, "manifest.json"), "r", encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict):
            return None
        units = manifest.get("units", [])
        plan = manifest.get("plan", {})
        created_at = manifest.get("created_at", 0.0)
        well_formed = (
            isinstance(units, list)
            and all(isinstance(unit, str) for unit in units)
            and isinstance(plan, dict)
            and isinstance(manifest.get("config", {}), dict)
            and type(created_at) in (int, float)
            and math.isfinite(created_at)
            and type(plan.get("workers", 1)) is int
            and plan.get("workers", 1) >= 1
        )
    except (OSError, ValueError, OverflowError):  # huge int created_at
        return None
    return manifest if well_formed else None


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
            write_atomic(
                os.path.join(directory, "manifest.json"),
                json.dumps(
                    manifest, sort_keys=True, separators=(",", ":")
                ).encode("utf-8"),
                durable=True,
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
