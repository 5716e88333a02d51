"""A rack-correlated telemetry failure hitting a heterogeneous fleet.

Simulates 24 nodes (3 racks × 8) running a mix of SmartOverclock,
SmartHarvest, and SmartMemory agents.  Halfway through, rack 0's
telemetry goes bad for a minute — every node in the rack starts reading
corrupt model inputs at once.  The report shows the paper's safeguards
holding at fleet scale: the burst does not land as SLO violations.  It
ends with how long after the burst onset each rack-0 node first engaged
a safeguard or acted on a default prediction.

Run:  python examples/fleet_at_scale.py [workers]

Equivalent CLI:

    python -m repro fleet --nodes 24 --agent mixed --seconds 120 \
        --rack-size 8 --fault-racks 0 --fault-start 40 \
        --fault-duration 60 --workers 4
"""

import sys

from repro.experiments.driver import FleetDriver
from repro.fleet import FaultPlan, FleetConfig
from repro.sim.units import SEC


def main():
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    config = FleetConfig(
        n_nodes=24,
        agent="mixed",
        seed=0,
        duration_s=120,
        rack_size=8,
        fault=FaultPlan(
            racks=(0,), start_s=40, duration_s=60, probability=0.9
        ),
    )
    aggregate = FleetDriver(config, workers=workers).run()
    print(aggregate.render())

    # A faulted node's first engagement counts from its fault onset.
    print()
    print("rack 0, seconds from the burst onset to each node's fallback:")
    for r in aggregate.results:
        if r.rack != 0:
            continue
        first = min(
            (
                t
                for t in (
                    r.first_model_safeguard_us,
                    r.first_actuator_safeguard_us,
                    r.first_fallback_us,
                )
                if t is not None
            ),
            default=None,
        )
        after = (
            "none" if first is None
            else f"{(first - config.fault.start_s * SEC) / SEC:.2f}"
        )
        print(f"  node {r.node_id:2d} {r.agent:9s} {after}")


if __name__ == "__main__":
    main()
