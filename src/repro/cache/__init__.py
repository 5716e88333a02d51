"""Incremental reproduction: the content-addressed result cache.

``reproduce-all`` decomposes every paper artifact into ``(artifact,
series)`` work units that are pure functions of their arguments
(DESIGN.md §7).  That purity is what makes this cache sound: a unit's
payload is fully determined by *what* is being run (artifact + series
key), *how* (the resolved experiment kwargs, scale, seed), and *which
code* runs it (a salt hashed over the package sources).  The store maps
a digest of those inputs to the encoded payload (deflated canonical JSON,
:mod:`repro.cache.codec`), so a warm re-run assembles every figure from
cached rows without executing a single simulation — and, because
assembly is deterministic, emits bit-identical digests (DESIGN.md §8).

Public surface::

    from repro.cache import ResultCache, default_cache_dir, unit_key

``ResultCache`` is the on-disk store (hits/misses/stores counted on the
instance); ``unit_key`` derives the content address; the cache
directory defaults to ``.repro-cache`` and is overridden with the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``.
"""

from repro.cache.keys import code_salt, sweep_unit_key, unit_key
from repro.cache.store import CacheStats, ResultCache, default_cache_dir

__all__ = [
    "CacheStats",
    "ResultCache",
    "code_salt",
    "default_cache_dir",
    "sweep_unit_key",
    "unit_key",
]
