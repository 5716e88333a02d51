"""``repro conformance``: record, check, diff, list.

Wired into the main CLI by :mod:`repro.cli`::

    repro conformance list
    repro conformance record [--dir DIR] [--scenario NAME ...]
                             [--skip-golden]
    repro conformance check  [--dir DIR] [--scenario NAME ...]
                             [--skip-golden]
    repro conformance diff IMPL_A IMPL_B [--scenario NAME ...]

``record``/``check`` default to the committed corpus directory;
``check`` exits non-zero on the first conformance problem, ``diff``
exits non-zero when any scenario diverges (after printing the bisected
first-divergence report).

Importing this module loads only :mod:`argparse`: the scenarios (and
with them the frozen golden models) are imported by the command that
runs, not by every ``python -m repro`` start that builds the parser.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

__all__ = ["add_conformance_parser", "cmd_conformance"]

#: Where the committed known-answer corpus lives, relative to the repo
#: root (CI and the Makefile-style workflows run from there).
DEFAULT_CORPUS_DIR = "tests/conformance/vectors"


def add_conformance_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``conformance`` subcommand tree to the main parser."""
    conf = sub.add_parser(
        "conformance",
        help="known-answer vectors + differential replay with "
             "bisect-to-first-divergence",
    )
    conf_sub = conf.add_subparsers(dest="conformance_command", required=True)

    conf_sub.add_parser(
        "list", help="known scenarios and registered reference impls"
    )

    record = conf_sub.add_parser(
        "record", help="(re)record known-answer vectors"
    )
    check = conf_sub.add_parser(
        "check", help="verify the current build against committed vectors"
    )
    for parser in (record, check):
        parser.add_argument(
            "--dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
            help="corpus directory (default: %(default)s)",
        )
        parser.add_argument(
            "--scenario", nargs="+", default=None, metavar="NAME",
            help="restrict to these scenarios (default: all)",
        )
        parser.add_argument(
            "--skip-golden", action="store_true",
            help="skip the pinned fleet/experiment golden-digest table",
        )

    diff = conf_sub.add_parser(
        "diff",
        help="differential replay of two impls; on divergence, bisect "
             "to the first diverging event",
    )
    diff.add_argument("impl_a", metavar="IMPL_A")
    diff.add_argument("impl_b", metavar="IMPL_B")
    diff.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="scenarios to replay (default: every scenario of the "
             "impls' family)",
    )


def _cmd_list() -> int:
    from repro.conformance import registry
    from repro.conformance.scenarios import SCENARIOS

    print("scenarios:")
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        extent = (
            f"{spec.duration_s}s" if spec.family == "agent"
            else f"{spec.steps} steps"
        )
        print(f"  {name} [{spec.family}] seed={spec.seed} {extent} "
              f"cadence={spec.cadence}")
    print("reference impls:")
    for name in registry.available():
        print(f"  {name}: {registry.get(name).description}")
    return 0


def _validated_scenarios(names: Optional[List[str]]) -> Optional[List[str]]:
    from repro.conformance.scenarios import get_scenario

    if names is not None:
        for name in names:
            get_scenario(name)  # raises with the known-name list
    return names


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.conformance.corpus import record_corpus

    for path in record_corpus(
        args.dir,
        scenarios=_validated_scenarios(args.scenario),
        golden=not args.skip_golden,
    ):
        print(f"recorded {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.conformance.corpus import check_corpus
    from repro.conformance.scenarios import default_scenarios

    problems = check_corpus(
        args.dir,
        scenarios=_validated_scenarios(args.scenario),
        golden=not args.skip_golden,
    )
    if problems:
        for problem in problems:
            print(f"NONCONFORMANT: {problem}")
        return 1
    scenarios = args.scenario or list(default_scenarios())
    golden = "" if args.skip_golden else " + golden digests"
    print(f"[conformance: {len(scenarios)} vectors OK{golden}]")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.conformance import registry
    from repro.conformance.runner import run_differential
    from repro.conformance.scenarios import default_scenarios

    impl_a = registry.get(args.impl_a)
    impl_b = registry.get(args.impl_b)
    if impl_a.family != impl_b.family:
        raise SystemExit(
            f"repro: error: cannot diff across families "
            f"({impl_a.name}: {impl_a.family}, "
            f"{impl_b.name}: {impl_b.family})"
        )
    scenarios = _validated_scenarios(args.scenario) or list(
        default_scenarios(impl_a.family)
    )
    diverged = 0
    for name in scenarios:
        report = run_differential(args.impl_a, args.impl_b, name)
        print(report.render())
        if not report.equivalent:
            diverged += 1
    if diverged:
        print(f"[conformance diff: {diverged}/{len(scenarios)} "
              "scenarios DIVERGED]")
        return 1
    print(f"[conformance diff: {len(scenarios)} scenarios equivalent]")
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    """Dispatch one parsed ``repro conformance ...`` invocation."""
    try:
        if args.conformance_command == "list":
            return _cmd_list()
        if args.conformance_command == "record":
            return _cmd_record(args)
        if args.conformance_command == "check":
            return _cmd_check(args)
        if args.conformance_command == "diff":
            return _cmd_diff(args)
    except KeyError as error:
        # Unknown scenario/impl names carry their own "known: ..." list.
        raise SystemExit(f"repro: error: {error.args[0]}")
    raise AssertionError(
        f"unhandled conformance command {args.conformance_command!r}"
    )
