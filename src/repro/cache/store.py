"""On-disk content-addressed payload store.

Payloads are whatever a work unit returns: data from the closed set of
:mod:`repro.cache.codec`.  Each is stored as one object
``objects/<key[:2]>/<key>.jz`` in that codec's encoding (canonical
JSON deflated against the registry's dictionary; floats round-trip
bit-exactly, which the warm-run digest guarantee depends on).  Writes
are atomic and not durable (:func:`repro.cache.files.write_atomic`): a
killed run never leaves a truncated object where a key should be, and
a power loss only misses.  An object of another encoding (a ``.pkz``
pickle of an older build) has another suffix and is never looked at:
it reads as a plain miss.

A present-but-undecodable object is *quarantined*, not silently
re-treated as a miss: the bad file is moved aside to
``<cache>/quarantine/`` (evidence for the operator — something wrote
garbage where a content-addressed object should be), counted in
:attr:`CacheStats.corrupt`, and surfaced on the ``[cache:]`` CLI line;
the unit then reruns and stores a fresh object (DESIGN.md §11).

The store also keeps ``unit_timings.json``: one number per unit, its
last measured wall, which the driver feeds back into longest-first
dispatch (replacing the estimated-cost heuristic; DESIGN.md §8).

A get opens no span: the executor traces one ``cache.probe`` per pass,
and :attr:`ResultCache.stats` and the journal's ``UNIT_DONE.executed``
flag keep each probe's outcome (DESIGN.md §14).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.cache import codec
from repro.cache.files import write_atomic
from repro.obs import spans as obs

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Evidence objects a quarantining keeps (the newest); older ones are
#: deleted, so a long-lived cache under recurring corruption cannot
#: grow ``<cache>/quarantine/`` forever.
QUARANTINE_KEEP = 64

_MISS = object()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``.repro-cache`` under the working dir."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.getcwd(), ".repro-cache"
    )


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance.

    Plain fields (DESIGN.md §14): the orchestrator thread that owns the
    cache is their one writer, and the ``[cache:]`` CLI line, the serve
    ``metrics`` verb and a job's result all read :meth:`snapshot`.

    ``corrupt`` counts present-but-unreadable objects that were moved
    to quarantine (each such get also counts as a miss — the unit
    reran).  ``pruned`` counts quarantined evidence files deleted to
    keep the quarantine directory bounded (:data:`QUARANTINE_KEEP`).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    pruned: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Wire-serializable counter values."""
        return asdict(self)

    def render(self) -> str:
        line = f"hits={self.hits} misses={self.misses} stores={self.stores}"
        if self.corrupt:
            line += f" corrupt={self.corrupt}"
        if self.pruned:
            line += f" pruned={self.pruned}"
        return line


@dataclass
class ResultCache:
    """Content-addressed payload store rooted at ``directory``.

    Each quarantining keeps only the newest :data:`QUARANTINE_KEEP`
    evidence objects and deletes older ones (counted in
    :attr:`CacheStats.pruned`).
    """

    directory: str = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    #: ``(key, stored form)`` of the payload the last :meth:`get`
    #: returned as a hit, else ``None``: a caller that journals the
    #: hit stores these bytes instead of encoding the payload again.
    last_hit: Optional[Tuple[str, codec.Encoded]] = field(
        default=None, init=False, repr=False
    )

    def _object_path(self, key: str) -> str:
        return os.path.join(
            self.directory, "objects", key[:2], key + codec.SUFFIX
        )

    @property
    def quarantine_dir(self) -> str:
        """Where corrupt objects are kept as evidence."""
        return os.path.join(self.directory, "quarantine")

    def get(self, key: str, default: Any = None) -> Any:
        """The payload stored under ``key``, or ``default`` (a miss).

        A key with no object is a plain miss.  A key whose object
        exists but cannot be read or decoded (any
        :class:`~repro.cache.codec.CodecError`) is *corrupt*: the file
        is moved to ``<cache>/quarantine/`` as evidence, the corruption
        is counted, and the get degrades to a miss — the unit reruns
        and stores a fresh object.  Garbage is never returned.
        """
        path = self._object_path(key)
        self.last_hit = None
        try:
            with open(path, "rb") as handle:
                payload, stored = codec.decode_stored(handle.read())
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except (OSError, codec.CodecError):
            # Truncated, garbled, crafted, or stale-beyond-decoding:
            # quarantine the evidence, then degrade to a miss, as
            # journal replay does.
            self._quarantine_object(key, path)
            self.stats.misses += 1
            self.stats.corrupt += 1
            return default
        self.stats.hits += 1
        self.last_hit = (key, stored)
        return payload

    def _quarantine_object(self, key: str, path: str) -> None:
        """Move a corrupt object into quarantine (best-effort)."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(
                path,
                os.path.join(self.quarantine_dir, key + codec.SUFFIX),
            )
        except OSError:  # pragma: no cover — unreadable *and* unmovable
            return
        self._prune_quarantine()

    def _prune_quarantine(self) -> None:
        """Keep only the newest :data:`QUARANTINE_KEEP` evidence objects.

        Only evidence files of this encoding (``codec.SUFFIX``) are
        eligible; any other file an operator leaves here is not the
        cache's to collect.
        Oldest-first by ``(mtime, name)``: deterministic even when a
        burst of corruption lands within one timestamp granule.
        """
        try:
            names = os.listdir(self.quarantine_dir)
        except OSError:
            return
        entries = []
        for name in names:
            if not name.endswith(codec.SUFFIX):
                continue
            path = os.path.join(self.quarantine_dir, name)
            try:
                entries.append((os.stat(path).st_mtime_ns, name, path))
            except OSError:
                continue  # raced a concurrent prune
        entries.sort()
        excess = len(entries) - QUARANTINE_KEEP
        for _mtime, _name, path in entries[:max(excess, 0)]:
            try:
                os.unlink(path)
            except OSError:
                continue
            self.stats.pruned += 1

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def put(self, key: str, payload: Any) -> None:
        """Atomically store ``payload`` (maybe encoded) under ``key``."""
        path = self._object_path(key)
        with obs.span("cache.put", cat="cache", key=key[:16]):
            write_atomic(path, codec.encode(payload).blob, durable=False)
            self.stats.stores += 1

    # -- recorded unit timings ----------------------------------------------

    @property
    def _timings_path(self) -> str:
        return os.path.join(self.directory, "unit_timings.json")

    def _read_walls(self) -> Dict[str, float]:
        """``unit_timings.json`` as ``{unit_id: wall}``.  A summary dict
        an older build wrote reads as its ``last`` field, and an entry
        that is not a number (``bool`` included) is skipped."""
        try:
            with open(self._timings_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        out: Dict[str, float] = {}
        for key, wall in data.items():
            if isinstance(wall, dict):
                wall = wall.get("last")
            if isinstance(wall, (int, float)) and not isinstance(wall, bool):
                out[str(key)] = wall
        return out

    def load_unit_timings(self) -> Dict[str, Dict[str, float]]:
        """Each unit's last recorded wall as ``{unit_id: {"last":
        wall}}`` (empty when none).  The file stores the bare number;
        the ``last`` key is the shape every reader already indexes."""
        return {
            key: {"last": wall} for key, wall in self._read_walls().items()
        }

    def save_unit_timings(self, walls: Dict[str, float]) -> None:
        """Record one pass's executed walls (unit id → seconds), each
        replacing the unit's previous wall — the one merge of
        ``unit_timings.json``.  Only the last wall is kept because it is
        the only one longest-first dispatch reads.  Atomic rewrite, same
        contract as object stores."""
        merged = self._read_walls()
        for key, wall in walls.items():
            merged[key] = round(float(wall), 6)
        write_atomic(
            self._timings_path,
            json.dumps(merged, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            ),
            durable=False,
        )
