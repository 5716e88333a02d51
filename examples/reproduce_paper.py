"""Regenerate every table and figure of the paper in one go.

This is the full evaluation driver.  Expect a few minutes of wall time;
pass ``--quick`` for a shortened (less converged) pass and
``--workers N`` to shard the ``(artifact, series)`` units across N
worker processes.

Run:  python examples/reproduce_paper.py [--quick] [--workers N]

Equivalent CLI:  python -m repro reproduce-all [--quick] [--workers N]
"""

import argparse

from repro.experiments.driver import reproduce_all


def _print_run(run):
    print(run.result.render())
    print(f"[{run.wall_seconds:.1f}s wall]\n", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    reproduce_all(
        workers=args.workers,
        scale=0.33 if args.quick else 1.0,
        on_result=_print_run,
    )


if __name__ == "__main__":
    main()
