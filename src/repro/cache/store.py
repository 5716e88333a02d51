"""On-disk content-addressed payload store.

Payloads are whatever a work unit returns — already required to be
picklable for the multiprocessing driver, and pickle round-trips floats
and nested containers bit-exactly, which the warm-run digest guarantee
depends on.  Writes are atomic (temp file + ``os.replace``), so a
killed run never leaves a truncated object where a key should be.

A present-but-unreadable object is *quarantined*, not silently
re-treated as a miss: the bad file is moved aside to
``<cache>/quarantine/`` (evidence for the operator — something wrote
garbage where a content-addressed object should be), counted in
:attr:`CacheStats.corrupt`, and surfaced on the ``[cache:]`` CLI line;
the unit then reruns and stores a fresh object (DESIGN.md §11).

The store also keeps ``unit_timings.json`` — per-unit wall-time
summaries (count/total/min/max/last) that the driver feeds back into
longest-first dispatch via their ``last`` field (replacing the
estimated-cost heuristic; DESIGN.md §8).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Dict

from repro.obs import spans as obs

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

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
    keep the quarantine directory bounded
    (:attr:`ResultCache.quarantine_keep`).
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
    """Content-addressed pickle store rooted at ``directory``.

    ``quarantine_keep`` bounds the quarantine directory: each
    quarantining keeps only the newest ``quarantine_keep`` evidence
    pickles and deletes older ones (counted in
    :attr:`CacheStats.pruned`), so a long-lived cache under recurring
    corruption cannot grow ``<cache>/quarantine/`` forever.
    """

    directory: str = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    quarantine_keep: int = 64

    def _object_path(self, key: str) -> str:
        return os.path.join(self.directory, "objects", key[:2], f"{key}.pkl")

    @property
    def quarantine_dir(self) -> str:
        """Where corrupt objects are kept as evidence."""
        return os.path.join(self.directory, "quarantine")

    def get(self, key: str, default: Any = None) -> Any:
        """The payload stored under ``key``, or ``default`` (a miss).

        A key with no object is a plain miss.  A key whose object
        exists but cannot be read or unpickled — whatever exception the
        unpickle raises — is *corrupt*: the file is moved
        to ``<cache>/quarantine/`` as evidence, the corruption is
        counted, and the get degrades to a miss — the unit reruns and
        stores a fresh object.  Garbage is never returned.
        """
        path = self._object_path(key)
        with obs.span("cache.get", cat="cache", key=key[:16]) as sp:
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
            except FileNotFoundError:
                self.stats.misses += 1
                if sp is not None:
                    sp.args["outcome"] = "miss"
                return default
            except Exception:  # noqa: BLE001 — any unpickle error
                # Truncated, garbled, crafted, or stale-beyond-
                # unpickling: quarantine the evidence, then degrade to a
                # miss, as journal replay does.
                self._quarantine_object(key, path)
                self.stats.misses += 1
                self.stats.corrupt += 1
                if sp is not None:
                    sp.args["outcome"] = "corrupt"
                return default
            self.stats.hits += 1
            if sp is not None:
                sp.args["outcome"] = "hit"
            return payload

    def _quarantine_object(self, key: str, path: str) -> None:
        """Move a corrupt object into quarantine (best-effort)."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(
                path, os.path.join(self.quarantine_dir, f"{key}.pkl")
            )
        except OSError:  # pragma: no cover — unreadable *and* unmovable
            return
        self._prune_quarantine()

    def _prune_quarantine(self) -> None:
        """Keep only the newest ``quarantine_keep`` evidence pickles.

        Only ``*.pkl`` evidence files are eligible; any other file an
        operator leaves here is not the cache's to collect.
        Oldest-first by ``(mtime, name)``: deterministic even when a
        burst of corruption lands within one timestamp granule.
        """
        if self.quarantine_keep < 0:
            return  # unbounded by explicit request
        try:
            names = os.listdir(self.quarantine_dir)
        except OSError:
            return
        entries = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.quarantine_dir, name)
            try:
                entries.append((os.stat(path).st_mtime_ns, name, path))
            except OSError:
                continue  # raced a concurrent prune
        entries.sort()
        excess = len(entries) - self.quarantine_keep
        for _mtime, _name, path in entries[:max(excess, 0)]:
            try:
                os.unlink(path)
            except OSError:
                continue
            self.stats.pruned += 1

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def put(self, key: str, payload: Any) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self._object_path(key)
        with obs.span("cache.put", cat="cache", key=key[:16]):
            self._atomic_write(
                path,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self.stats.stores += 1

    # -- recorded unit timings ----------------------------------------------

    #: Wall summary fields persisted per unit key.
    TIMING_FIELDS = ("count", "total", "min", "max", "last")

    @property
    def _timings_path(self) -> str:
        return os.path.join(self.directory, "unit_timings.json")

    def load_unit_timings(self) -> Dict[str, Dict[str, float]]:
        """Persisted per-unit wall summaries (empty when none)."""
        try:
            with open(self._timings_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        out: Dict[str, Dict[str, float]] = {}
        for key, summary in data.items():
            if not isinstance(summary, dict):
                continue
            if not isinstance(summary.get("last"), (int, float)):
                continue
            out[str(key)] = {
                name: summary[name]
                for name in self.TIMING_FIELDS
                if isinstance(summary.get(name), (int, float))
            }
        return out

    def save_unit_timings(self, walls: Dict[str, float]) -> None:
        """Fold one pass's executed walls (unit id → seconds) into the
        persisted summaries — the one merge of ``unit_timings.json``.

        Per unit, the count grows by one, the total by the wall, min/max
        widen, and ``last`` — the value longest-first dispatch reads —
        becomes this wall.  Atomic rewrite, same contract as object
        stores.
        """
        merged = self.load_unit_timings()
        for key, wall in walls.items():
            wall = round(float(wall), 6)
            prior = merged.get(key, {})
            merged[key] = {
                "count": int(prior.get("count", 0)) + 1,
                "total": round(float(prior.get("total", 0.0)) + wall, 6),
                "min": min(prior.get("min", wall), wall),
                "max": max(prior.get("max", wall), wall),
                "last": wall,
            }
        self._atomic_write(
            self._timings_path,
            json.dumps(merged, indent=0, sort_keys=True).encode("utf-8"),
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _atomic_write(path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
