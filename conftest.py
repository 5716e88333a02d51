"""Pytest bootstrap: make ``src/`` importable without an installed wheel.

``pip install -e .`` is the supported path; this shim only matters in
environments without build tooling (e.g. offline CI images).
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: spawns real orchestrator subprocesses (seconds, not ms); "
        "deselect with -m 'not slow'",
    )


@pytest.fixture(autouse=True)
def _isolated_repro_cache(monkeypatch, tmp_path):
    """Point the result cache at a per-test directory.

    ``default_cache_dir()`` falls back to ``./.repro-cache`` in the
    working directory, so any test exercising a cache-enabled code path
    without an explicit ``--cache-dir`` would otherwise pollute the
    repo checkout (and leak state between tests).  Tests that probe the
    environment handling itself still can ``setenv``/``delenv`` over
    this.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count ``os.fsync``: a list that grows by one fd per call, so a
    test can pin how many durable writes a step costs (the journal's
    fsyncs per pass are an exact function of the plan, DESIGN.md §12)."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


@pytest.fixture()
def fast_backoff(monkeypatch):
    """Real retry-backoff semantics at negligible wall time: the
    dispatcher waits 10 ms before a first retry, doubling to a 50 ms
    cap (the module constants of :mod:`repro.resilience.policy`)."""
    from repro.resilience import policy

    monkeypatch.setattr(policy, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(policy, "BACKOFF_CAP_S", 0.05)
