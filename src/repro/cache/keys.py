"""Cache key derivation: content addresses for reproduction work units.

A unit's key digests everything its payload can depend on:

* the artifact name and series key (``None`` for whole-artifact units);
* the resolved experiment kwargs (durations after scaling, seeds,
  region counts — whatever the registry's kwargs builder produced) plus
  the scale itself;
* a **code-version salt**: a hash over the source bytes of every
  ``repro`` module that can influence results, plus the environment
  the bits depend on (Python version, numpy version, machine
  architecture — RNG internals and reduction kernels can change across
  any of them).  Editing the kernel, a workload, an agent, or an
  experiment invalidates every cached row; editing the CLI, the perf
  or conformance harness (frozen golden models included), the
  resilience layer, the serve control plane, or this cache package
  does not.

Keys are hex SHA-256, so the store is content-addressed in the usual
two-level fan-out layout (``objects/ab/abcdef....jz``).
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.digest import content_digest

__all__ = ["code_salt", "sweep_unit_key", "unit_key"]

#: Package subtrees/files whose source cannot affect experiment rows
#: (no salted module imports any of them).  ``perf`` and ``conformance``
#: measure and check the live code against the frozen golden models
#: (``conformance/reference``), ``cache`` is this subsystem, ``serve``
#: only transports submissions to the same launch ladder the CLI uses,
#: ``resilience`` only supervises dispatch (units are pure
#: in their payloads, so retries and pool mechanics cannot move a
#: result bit), ``journal`` only records dispatch durably (same
#: argument — replayed payloads were produced by the salted code),
#: ``obs`` only observes (spans and metrics are strictly out-of-band;
#: DESIGN.md §14 — an instrumentation edit must not invalidate every
#: cached row), and the CLI (``cli.py``, its shared ``flags.py``, the
#: ``chaos.py`` proofs) only orchestrates.
_SALT_EXCLUDED_DIRS = frozenset({
    "cache", "conformance", "journal", "obs", "perf", "resilience",
    "serve", "__pycache__",
})
_SALT_EXCLUDED_FILES = frozenset({"chaos.py", "cli.py", "flags.py"})

_code_salt_cache: Optional[str] = None


def _salted_sources(package_root: str) -> List[Tuple[str, str]]:
    """Sorted ``(relative path, path)`` of every result-affecting source."""
    entries = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        relative_dir = os.path.relpath(dirpath, package_root)
        parts = [] if relative_dir == "." else relative_dir.split(os.sep)
        if parts and parts[0] in _SALT_EXCLUDED_DIRS:
            continue
        dirnames[:] = [
            name for name in dirnames
            if not (not parts and name in _SALT_EXCLUDED_DIRS)
            and name != "__pycache__"
        ]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            if not parts and filename in _SALT_EXCLUDED_FILES:
                continue
            entries.append(
                ("/".join(parts + [filename]),
                 os.path.join(dirpath, filename))
            )
    return sorted(entries)


def code_salt() -> str:
    """Hash of every result-affecting ``repro`` source file plus the
    numeric environment (Python/numpy versions, machine architecture).

    Deterministic in file *contents* (sorted relative paths, raw
    bytes), independent of mtimes and install location.  Computed once
    per process.
    """
    global _code_salt_cache
    if _code_salt_cache is None:
        import numpy as np  # here, so the control plane never loads it

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        # Environment: a cache written under one numpy/Python/arch must
        # not be served under another — bit streams and reduction
        # kernels are only pinned within one environment.
        digest.update(
            f"python={sys.version_info[:3]};numpy={np.__version__};"
            f"machine={platform.machine()}\0".encode("utf-8")
        )
        for relative_path, path in _salted_sources(package_root):
            digest.update(relative_path.encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
        _code_salt_cache = digest.hexdigest()
    return _code_salt_cache


def _canonical(value: Any) -> Any:
    """JSON-safe canonical form; floats stay exact via ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def unit_key(
    artifact: str,
    series: Optional[str],
    scale: float,
    kwargs: Dict[str, Any],
    salt: Optional[str] = None,
) -> str:
    """Content address of one ``(artifact, series)`` work unit."""
    return content_digest({
        "artifact": artifact,
        "series": series,
        "scale": repr(float(scale)),
        "kwargs": _canonical(kwargs),
        "salt": code_salt() if salt is None else salt,
    })


def sweep_unit_key(
    unit: Dict[str, Any],
    salt: Optional[str] = None,
) -> str:
    """Content address of one robustness-campaign work unit.

    ``unit`` is a node run's coordinate payload
    (:meth:`repro.fleet.config.NodeRun.cache_payload`): agent setting,
    seed, node id, rack size, duration, and the node's effective fault —
    campaign-independent, so every cell in any campaign that contains
    the node run hits it.  The same code-version salt as
    :func:`unit_key` applies, so any result-affecting source edit
    invalidates cached node runs structurally.

    Keys carry a literal ``sweep::`` prefix — a distinct namespace from
    the reproduce-all unit keys that also groups every campaign object
    under ``objects/sw/`` on disk.
    """
    return "sweep::" + content_digest({
        "ns": "sweep",
        "unit": _canonical(unit),
        "salt": code_salt() if salt is None else salt,
    })
