"""Crash-consistent run journal (DESIGN.md §12).

A write-ahead ledger that makes every long-running pipeline — fleet
runs, ``reproduce-all`` passes, robustness campaigns — resumable after
the orchestrator dies at any instant, with bit-identical final
digests:

* :mod:`repro.journal.log` — the crc-framed record stream (a record
  and its payload blob are one frame), append vs commit, and
  torn-tail-tolerant replay;
* :mod:`repro.journal.lease` — run ownership as a kernel ``flock``
  (one orchestrator per run, dropped by the kernel when its holder
  dies);
* :mod:`repro.journal.run` — the :class:`RunJournal`: atomic manifest,
  which record kinds commit before they return, idempotent replay,
  deterministic run ids;
* :mod:`repro.journal.pipelines` — the per-kind table (config payloads,
  journal openers with unit lists expanded exactly as the pipeline
  will, drivers, digests) and the one launch ladder over it;
* :mod:`repro.journal.registry` — read-only run discovery for
  ``repro runs list|show``;
* :mod:`repro.journal.cli` — the ``repro runs`` subcommand.
"""

from repro.journal.lease import Lease, LeaseHeldError
from repro.journal.log import RecordLog, replay_records
from repro.journal.run import RunJournal, derive_run_id, open_run

__all__ = [
    "Lease",
    "LeaseHeldError",
    "RecordLog",
    "RunJournal",
    "derive_run_id",
    "open_run",
    "replay_records",
]
