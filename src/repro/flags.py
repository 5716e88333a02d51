"""Flag groups shared by more than one ``repro`` subcommand.

Each group is declared here once and attached wherever it applies, so
``repro fleet``, ``repro chaos``, ``repro serve submit fleet`` … parse
``--nodes/--agent/--seconds/--seed`` identically (same types, same
``choices``) and differ only in the defaults their callers pass.  What
the parsed values *mean* — how they become a pipeline config — is
:data:`repro.journal.pipelines.PIPELINES`' ``config_from_args``; this
module only spells the flags.  Its choices and defaults come from the
leaf :mod:`repro.names`, so parsing argv imports no simulation.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.names import AGENT_KINDS, ARTIFACTS, DEFAULT_RACK_SIZE, FAULT_KINDS

__all__ = [
    "add_cache_dir_flag",
    "add_cache_flags",
    "add_fleet_flags",
    "add_journal_flags",
    "add_reproduce_flags",
    "add_resilience_flags",
    "add_spec_flag",
    "add_trace_flag",
    "add_workers_flag",
]


def add_fleet_flags(
    parser: argparse.ArgumentParser, seconds: int = 120, burst: bool = False
) -> None:
    """``--nodes/--agent/--seconds/--seed``: which fleet.

    ``burst`` adds ``--rack-size`` and the ``--fault-*`` correlated
    burst (``repro fleet`` only); every other surface describes the
    plain fleet, which is what the defaults set here say.
    """
    parser.add_argument("--nodes", type=int, default=16,
                        help="fleet: node count (default: %(default)s)")
    parser.add_argument(
        "--agent", default="overclock", choices=AGENT_KINDS + ("mixed",),
        help="fleet: agent kind (default: %(default)s)",
    )
    parser.add_argument(
        "--seconds", type=int, default=seconds,
        help="fleet: simulated seconds per node (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet: fleet seed (default: %(default)s)")
    if not burst:
        parser.set_defaults(rack_size=DEFAULT_RACK_SIZE, fault_racks=None)
        return
    parser.add_argument(
        "--rack-size", type=int, default=DEFAULT_RACK_SIZE,
        help="nodes per rack (fault blast radius)",
    )
    parser.add_argument(
        "--fault-racks", default=None, metavar="R0,R1,...",
        help="inject a correlated invalid-data burst into these racks",
    )
    parser.add_argument("--fault-start", type=int, default=30,
                        help="burst onset (simulated seconds)")
    parser.add_argument("--fault-duration", type=int, default=60,
                        help="burst length (simulated seconds)")
    parser.add_argument(
        "--fault-probability", type=float, default=0.9,
        help="fault intensity inside the burst: per-read corruption/"
             "staleness chance, or per-node crash chance for "
             "crash_restart",
    )
    parser.add_argument(
        "--fault-kind", default="bad_data", choices=FAULT_KINDS,
        help="burst kind: invalid values, telemetry dropout/stale "
             "reads, or agent crash-restart (default: %(default)s)",
    )


def add_reproduce_flags(
    parser: argparse.ArgumentParser, scale: Optional[float]
) -> None:
    """``--only/--scale``: which artifacts, how long."""
    parser.add_argument(
        "--only", nargs="+", action="extend", choices=ARTIFACTS,
        metavar="ARTIFACT", default=None,
        help="reproduce: restrict the pass to these artifacts "
             "(repeatable; canonical order kept)",
    )
    parser.add_argument(
        "--scale", type=float, default=scale, metavar="FRACTION",
        help="reproduce: duration scale — 1.0 is the full pass, 0.33 the "
             "--quick one"
             + (" (default: %(default)s)" if scale is not None else ""),
    )


def add_spec_flag(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    parser.add_argument(
        "--spec", metavar="SPEC", default=None, required=required,
        help="sweep: campaign spec path (.toml)",
    )


def add_workers_flag(
    parser: argparse.ArgumentParser, default: Optional[int], help: str
) -> None:
    parser.add_argument("--workers", type=int, default=default, help=help)


def add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="cache root — result cache, run journals, serve socket "
             "(default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )


def add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """``--no-cache/--cache-dir``."""
    parser.add_argument(
        "--no-cache", dest="cache", action="store_false", default=True,
        help="recompute every unit, ignoring the result cache",
    )
    add_cache_dir_flag(parser)


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """``--max-retries`` / ``--unit-timeout`` for supervised dispatch."""
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-dispatches per failed/crashed/timed-out work unit "
             "before it is quarantined (default: %(default)s)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline; a unit running past it is presumed "
             "hung, its worker is killed, and the attempt counts as a "
             "failure (default: no deadline)",
    )


def add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-trace", dest="trace", action="store_false", default=True,
        help="disable the telemetry sidecar (trace.jsonl next to the "
             "run journal); results and digests are "
             "bit-identical either way (DESIGN.md §14)",
    )


def add_journal_flags(parser: argparse.ArgumentParser) -> None:
    """``--resume`` / ``--no-journal`` / ``--no-trace`` for the
    crash-consistent ledger and its sidecar."""
    parser.add_argument(
        "--resume", action="store_true",
        help="resume this run's journal instead of starting fresh: "
             "journaled units replay, only un-journaled units execute "
             "(see 'repro runs list' for resumable runs)",
    )
    parser.add_argument(
        "--no-journal", dest="journal", action="store_false", default=True,
        help="disable the crash-consistent run journal (the run is not "
             "resumable after an orchestrator death)",
    )
    add_trace_flag(parser)
