"""Fleet fault plumbing: windowed gating, per-agent/per-kind bursts."""

import pytest

from repro.fleet.config import FAULT_KINDS, NodeSpec
from repro.fleet.faults import attach_burst, windowed
from repro.fleet.node import FleetNode
from repro.platform.taxonomy import NODE_SKUS
from repro.sim import Kernel
from repro.sim.units import SEC


def _node(agent, workload, fault_kind=None, probability=1.0, seconds=20):
    spec = NodeSpec(
        node_id=0,
        rack=0,
        sku=NODE_SKUS[0],
        agent=agent,
        workload=workload,
        seed=1234,
    )
    window = (2 * SEC, 10 * SEC) if fault_kind else None
    return FleetNode(
        spec,
        duration_s=seconds,
        fault_window_us=window,
        fault_probability=probability,
        fault_kind=fault_kind or "bad_data",
    )


def _outcome(fleet_node):
    """Run the node: its runtime counters and its action histogram."""
    result = fleet_node.run()
    return fleet_node.node.agent.runtime.stats(), result.action_histogram


# -- windowed ----------------------------------------------------------------


def test_windowed_applies_only_inside_the_window():
    kernel = Kernel()
    inject = windowed(kernel, lambda v: v * 10, (5, 10))
    seen = []
    for t in (0, 4, 5, 7, 9, 10, 11):
        kernel.call_at(t, lambda: seen.append(inject(1)))
    kernel.run(until=20)
    # start boundary inclusive, end boundary exclusive
    assert seen == [1, 1, 10, 10, 10, 1, 1]


def test_windowed_rejects_empty_and_inverted_windows():
    kernel = Kernel()
    with pytest.raises(ValueError):
        windowed(kernel, lambda v: v, (5, 5))
    with pytest.raises(ValueError):
        windowed(kernel, lambda v: v, (10, 5))


# -- attach_burst: bad_data per agent kind -----------------------------------


@pytest.mark.parametrize(
    "agent,workload",
    [("overclock", "Synthetic"), ("harvest", "image-dnn"),
     ("memory", "ObjectStore")],
)
def test_attach_burst_bad_data_each_agent_kind(agent, workload):
    """The burst changes behavior vs the same node without one."""
    clean = _node(agent, workload)
    faulted = _node(agent, workload, fault_kind="bad_data")
    assert clean.spec.node_id == faulted.spec.node_id
    # Corrupt telemetry must be observable somewhere: validation
    # failures, fallback actions, or (for memory) errored scans — the
    # two runs cannot be bit-identical.
    assert _outcome(clean) != _outcome(faulted)


@pytest.mark.parametrize(
    "agent,workload",
    [("overclock", "Synthetic"), ("harvest", "image-dnn"),
     ("memory", "ObjectStore")],
)
def test_attach_burst_dropout_each_agent_kind(agent, workload):
    clean = _node(agent, workload)
    faulted = _node(agent, workload, fault_kind="dropout")
    assert _outcome(clean) != _outcome(faulted)


@pytest.mark.parametrize(
    "agent,workload",
    [("overclock", "Synthetic"), ("harvest", "image-dnn"),
     ("memory", "ObjectStore")],
)
def test_attach_burst_crash_restart_each_agent_kind(agent, workload):
    faulted = _node(agent, workload, fault_kind="crash_restart").run()
    assert faulted.agent_kills == 1
    assert faulted.agent_restarts == 1


def test_crash_restart_probability_zero_never_crashes():
    result = _node(
        "overclock", "Synthetic", fault_kind="crash_restart",
        probability=0.0,
    ).run()
    assert result.agent_kills == 0
    assert result.agent_restarts == 0


def test_attach_burst_rejects_unknown_agent_kind():
    kernel = Kernel()
    with pytest.raises(ValueError):
        attach_burst(
            kernel, "toaster", object(), _Streams(), (0, SEC), 0.5,
            kind="bad_data",
        )
    with pytest.raises(ValueError):
        attach_burst(
            kernel, "toaster", object(), _Streams(), (0, SEC), 0.5,
            kind="dropout",
        )


class _Streams:
    def get(self, name):
        import numpy as np

        return np.random.default_rng(0)


def test_fault_kinds_registry_is_exactly_the_dispatched_set():
    assert FAULT_KINDS == ("bad_data", "dropout", "crash_restart")
