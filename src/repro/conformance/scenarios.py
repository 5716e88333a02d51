"""Conformance scenarios and the built-in reference implementations.

A :class:`ScenarioSpec` names one deterministic, observable run.  Two
shapes exist:

* ``family="agent"`` — the production stack end to end: one
  :class:`~repro.fleet.node.FleetNode` (agent × workload × seed) run for
  ``duration_s`` simulated seconds with a trace sink attached to the
  runtime event log.  The production ``SimQueue``/``Event`` machinery is
  welded to the current kernel's internals, so agent scenarios run only
  on ``agent:*`` impls (today: ``agent:current``); their ground truth is
  the committed known-answer vectors, not a second live implementation.
* scripted families (``"kernel"``, ``"ml"``, ``"workloads"``) — a
  deterministic script driving an implementation *namespace* through the
  shared API surface the microbench suites already pin, emitting
  canonical events at every observable result.  These run on both the
  live and the frozen seed namespaces
  (:mod:`repro.conformance.reference`), so the differential runner can
  replay current-vs-seed and bisect any divergence to the first event.

The scripts draw every random decision from seeded generators created
*before* any implementation object exists, so a script run is a pure
function of ``(spec, impl)`` — the property differential replay needs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.events import encode_event
from repro.fleet.config import FaultPlan, FleetConfig, NodeSpec
from repro.fleet.node import FleetNode, Node
from repro.ml.costsensitive import asymmetric_core_costs
from repro.node.memory import Tier
from repro.platform.taxonomy import NODE_SKUS
from repro.conformance.reference import (
    KERNEL_IMPLS,
    ML_IMPLS,
    WORKLOADS_IMPLS,
)
from repro.conformance.registry import ReferenceImpl, register

__all__ = [
    "FAMILIES",
    "GOLDEN_ARTIFACTS",
    "GOLDEN_EXPERIMENT_SCALE",
    "GOLDEN_FLEET_CONFIGS",
    "SCENARIOS",
    "ScenarioSpec",
    "default_scenarios",
    "get_scenario",
    "make_scripted_impl",
    "run_agent_node",
]

#: Scenario families, in the order the CLI lists them.
FAMILIES: Tuple[str, ...] = ("agent", "kernel", "ml", "workloads")

_SKUS_BY_NAME = {sku.name: sku for sku in NODE_SKUS}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named deterministic conformance run.

    ``duration_s`` applies to agent scenarios (simulated seconds);
    ``steps`` to scripted scenarios (script iterations).  ``cadence`` is
    the checkpoint interval recorded into this scenario's vectors.
    """

    name: str
    family: str
    seed: int = 0
    agent: str = ""
    workload: str = ""
    duration_s: int = 0
    steps: int = 0
    sku: str = "gen5-general"
    cadence: int = 1000

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        if self.family == "agent":
            if not self.agent or not self.workload or self.duration_s <= 0:
                raise ValueError(
                    "agent scenarios need agent, workload, duration_s"
                )
            if self.sku not in _SKUS_BY_NAME:
                raise ValueError(
                    f"unknown sku {self.sku!r}; have "
                    f"{sorted(_SKUS_BY_NAME)}"
                )
        elif self.steps <= 0:
            raise ValueError("scripted scenarios need steps > 0")

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        return cls(**data)


class _Emit:
    """Feed canonical event payloads to a sink (or nowhere)."""

    def __init__(self, sink: Optional[Any], source: str) -> None:
        self.sink = sink
        self.source = source

    def __call__(self, time_us: int, kind: str, **details: Any) -> None:
        if self.sink is not None:
            self.sink.on_event(
                time_us, encode_event(time_us, kind, self.source, details)
            )


# -- family "agent": the production stack on one fleet node -----------------

def run_agent_node(
    spec: ScenarioSpec,
    sink: Optional[Any],
    prepare: Optional[Callable[[Node], None]] = None,
) -> Dict[str, Any]:
    """Run one production fleet node, tracing its runtime event log.

    ``prepare`` runs on the built :class:`~repro.fleet.node.Node` before
    the simulation — the test suite's perturbed agent impl uses it to
    burn an RNG draw.
    """
    node_spec = NodeSpec(
        node_id=0,
        rack=0,
        sku=_SKUS_BY_NAME[spec.sku],
        agent=spec.agent,
        workload=spec.workload,
        seed=spec.seed,
    )
    fleet_node = FleetNode(node_spec, duration_s=spec.duration_s)
    if prepare is not None:
        prepare(fleet_node.node)
    if sink is not None:
        fleet_node.node.agent.runtime.log.attach_tracer(sink)
    result = fleet_node.run()
    # The node has no fault window, so its first engagements count from
    # t = 0: the first ever, under the names the vectors pin.
    stats = fleet_node.node.agent.runtime.stats()
    stats["model_safeguard_first_trigger_us"] = result.first_model_safeguard_us
    stats["actuator_safeguard_first_trigger_us"] = (
        result.first_actuator_safeguard_us
    )
    stats["first_fallback_us"] = result.first_fallback_us
    return {
        "perf_metric": result.perf_metric,
        "perf_value": result.perf_value,
        "slo_windows": result.slo_windows,
        "slo_violations": result.slo_violations,
        "safeguard_trips": dict(result.safeguard_trips),
        "action_histogram": dict(result.action_histogram),
        "stats": stats,
    }


# -- family "kernel": scripted producer/consumer/timeout/kill churn ---------

def _run_kernel_script(
    impl: Any, spec: ScenarioSpec, sink: Optional[Any]
) -> Dict[str, Any]:
    """SOL-shaped queue traffic on any kernel namespace.

    Producer/consumer pairs with bounded gets (some won by the item,
    some by the timeout), a ticker process, and a mid-run strided kill
    of parked waiters — the exact machinery the agent runtime leans on,
    script-observable on both the current and the frozen seed kernel.
    """
    emit = _Emit(sink, "kernel-script")
    iters = spec.steps
    rng = random.Random(spec.seed)
    n_pairs = 3
    n_waiters = 16
    # Every random decision is drawn up front: the script is identical
    # for both sides of a differential run by construction.
    put_intervals = [
        [rng.choice((500, 1_000, 2_000, 40_000)) for _ in range(iters)]
        for _ in range(n_pairs)
    ]
    get_timeouts = [
        [rng.choice((800, 5_000, 30_000)) for _ in range(64)]
        for _ in range(n_pairs)
    ]
    tick_delays = [rng.choice((700, 1_300, 2_900)) for _ in range(iters)]
    kill_order = list(range(n_waiters))
    rng.shuffle(kill_order)

    kernel = impl.Kernel()
    timeout_sentinel = impl.QUEUE_TIMEOUT
    counters = {"puts": 0, "gets": 0, "timeouts": 0, "ticks": 0, "kills": 0}

    def producer(queue, pid):
        for i in range(iters):
            queue.put((pid, i))
            counters["puts"] += 1
            emit(kernel.now, "queue.put", pair=pid, i=i)
            yield put_intervals[pid][i]

    def consumer(queue, pid):
        got = 0
        attempts = 0
        while got < iters:
            timeout_us = get_timeouts[pid][attempts % 64]
            attempts += 1
            item = yield from queue.get(timeout_us=timeout_us)
            if item is timeout_sentinel:
                counters["timeouts"] += 1
                emit(kernel.now, "queue.timeout", pair=pid)
            else:
                got += 1
                counters["gets"] += 1
                emit(kernel.now, "queue.got", pair=pid, item=list(item))

    def waiter(event):
        yield event

    def ticker(event, waiters):
        for i in range(iters):
            yield tick_delays[i]
            counters["ticks"] += 1
            emit(kernel.now, "tick", i=i)
            if i == iters // 2:
                # SRE CleanUp: tear down every parked waiter, in a
                # shuffled order (the path that was O(waiters) per kill
                # on the seed kernel).
                for index in kill_order:
                    waiters[index].kill()
                    counters["kills"] += 1
                emit(kernel.now, "killed", count=len(waiters))

    for pid in range(n_pairs):
        queue = impl.SimQueue(kernel, name=f"pair{pid}")
        kernel.spawn(producer(queue, pid), name=f"prod{pid}")
        kernel.spawn(consumer(queue, pid), name=f"cons{pid}")
    shared = kernel.event("conformance.shared")
    waiters = [
        kernel.spawn(waiter(shared), name=f"w{i}") for i in range(n_waiters)
    ]
    kernel.spawn(ticker(shared, waiters), name="ticker")
    kernel.run()
    counters["final_time_us"] = kernel.now
    return counters


# -- family "ml": scripted learning epochs --------------------------------

class _ClockOnly:
    """A ``.now``-only kernel stand-in (the telemetry path needs no more)."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


def _run_ml_script(
    impl: Any, spec: ScenarioSpec, sink: Optional[Any]
) -> Dict[str, Any]:
    """SmartHarvest-shaped learning epochs on any ML namespace.

    Per epoch: demand change points, feature extraction over a 500-
    sample window, predict + predicted-costs readout, a cost-sensitive
    update, and the telemetry reconstruction — every float the paths
    produce is emitted, so any vectorized-vs-per-class drift shows in
    the first epoch it happens.
    """
    emit = _Emit(sink, "ml-script")
    n_classes, n_features = 9, 9
    rng = np.random.default_rng(spec.seed)
    kernel = _ClockOnly()
    classifier = impl.CostSensitiveClassifier(
        n_classes=n_classes, n_features=n_features
    )
    hypervisor = impl.Hypervisor(
        kernel, n_cores=8, history_horizon_us=1_000_000
    )
    predictions = []
    for epoch in range(spec.steps):
        for _change in range(5):
            kernel.now += 5_000
            hypervisor.set_demand(float(rng.uniform(0.0, 8.0)))
        window = rng.uniform(0.0, 8.0, size=500)
        features = impl.distributional_features(window)
        prediction = int(classifier.predict(features))
        predictions.append(prediction)
        costs = classifier.predicted_costs(features)
        label = int(rng.integers(0, n_classes))
        classifier.update(features, asymmetric_core_costs(label, n_classes))
        usage = hypervisor.sample_usage(
            25_000, 50,
            rng=np.random.default_rng(spec.seed * 7919 + epoch),
            noise_cores=0.05,
        )
        emit(
            kernel.now, "ml.epoch",
            epoch=epoch,
            prediction=prediction,
            label=label,
            features=[float(f) for f in features],
            predicted_costs=[float(c) for c in costs],
            usage_sum=float(np.sum(usage)),
            demand_max=float(hypervisor.max_demand_over(25_000)),
        )
    return {
        "epochs": spec.steps,
        "predictions": predictions,
        "final_time_us": kernel.now,
    }


# -- family "workloads": scripted substrate + workload loops ---------------

def _run_workloads_script(
    impl: Any, spec: ScenarioSpec, sink: Optional[Any]
) -> Dict[str, Any]:
    """Substrate churn under an ObjectStore loop on any workloads namespace.

    The workload ``_run`` generator is stepped directly with the kernel
    clock advanced by each yielded delay (the lockstep bit-identity
    idiom), while the script interleaves agent-style frequency actions,
    memory scans/migrations, and periodic counter readouts.
    """
    from repro.sim import Kernel

    emit = _Emit(sink, "workloads-script")
    n_regions = 64
    drive = np.random.default_rng(spec.seed)
    kernel = Kernel()
    cpu = impl.CpuModel(kernel)
    store = impl.ObjectStoreWorkload(
        kernel, cpu, np.random.default_rng(spec.seed + 1)
    )
    memory = impl.TieredMemory(
        kernel,
        n_regions=n_regions,
        pages_per_region=512,
        rng=np.random.default_rng(spec.seed + 2),
    )
    memory.set_scan_fault_probability(0.05)
    memory.set_rates(drive.uniform(0.0, 5000.0, n_regions))
    generator = store._run()
    delay = next(generator)
    for step in range(spec.steps):
        kernel._now += delay
        roll = drive.random()
        if roll < 0.25:
            freq = float(drive.uniform(1.5, 2.3))
            emit(
                kernel.now, "wl.freq",
                step=step, applied=cpu.set_frequency(freq),
            )
        elif roll < 0.55:
            region = int(drive.integers(0, n_regions))
            scan = memory.scan(region)
            emit(
                kernel.now, "wl.scan",
                step=step, region=region, set_bits=scan.set_bits,
                saturated=scan.saturated, error=scan.error,
            )
        elif roll < 0.65:
            region = int(drive.integers(0, n_regions))
            tier = Tier.REMOTE if drive.random() < 0.5 else Tier.LOCAL
            emit(
                kernel.now, "wl.migrate",
                step=step, region=region,
                moved=memory.migrate(region, tier),
            )
        if step % 10 == 0:
            emit(
                kernel.now, "wl.sample",
                step=step,
                ips=cpu.ips_rate(),
                watts=cpu.instantaneous_watts(),
                n_local=memory.n_local,
                requests=len(store.latency_samples_ms),
            )
        delay = generator.send(None)
    performance = store.performance()
    return {
        "steps": spec.steps,
        "perf_metric": performance.metric,
        "perf_value": float(performance.value),
        "requests": len(store.latency_samples_ms),
        "n_local": int(memory.n_local),
        "final_time_us": kernel.now,
    }


_SCRIPTS: Dict[str, Callable[[Any, ScenarioSpec, Optional[Any]],
                             Dict[str, Any]]] = {
    "kernel": _run_kernel_script,
    "ml": _run_ml_script,
    "workloads": _run_workloads_script,
}


def make_scripted_impl(
    name: str, family: str, namespace: Any, description: str
) -> ReferenceImpl:
    """A :class:`ReferenceImpl` driving ``namespace`` with the family script.

    ``namespace`` may be the namespace itself or a zero-arg factory
    (called per run) — the tests use factories for perturbed variants
    that carry per-run state like an event-countdown trigger.
    """
    script = _SCRIPTS[family]

    def run(spec: ScenarioSpec, sink: Optional[Any]) -> Dict[str, Any]:
        resolved = namespace() if callable(namespace) else namespace
        return script(resolved, spec, sink)

    return ReferenceImpl(
        name=name, family=family, description=description, run=run
    )


def _register_builtins() -> None:
    register(ReferenceImpl(
        name="agent:current",
        family="agent",
        description="production agent stack on the live kernel",
        run=run_agent_node,
    ))
    described = {
        "current": "live optimized implementation",
        "seed": "frozen pre-optimization seed copy",
    }
    for family, impls in (
        ("kernel", KERNEL_IMPLS),
        ("ml", ML_IMPLS),
        ("workloads", WORKLOADS_IMPLS),
    ):
        for variant, namespace in impls.items():
            register(make_scripted_impl(
                f"{family}:{variant}", family, namespace,
                f"{family} {described.get(variant, variant)}",
            ))


_register_builtins()


# -- the scenario catalog ---------------------------------------------------

def _agent_matrix() -> Dict[str, ScenarioSpec]:
    matrix = {
        "overclock": ("Synthetic", "ObjectStore"),
        "harvest": ("image-dnn", "moses"),
        "memory": ("ObjectStore", "SQL"),
    }
    specs: Dict[str, ScenarioSpec] = {}
    for agent, workloads in matrix.items():
        for workload in workloads:
            for seed in (7, 11):
                name = f"agent-{agent}-{workload.lower()}-s{seed}"
                # ~16 traced events per sim-second, so 60 s gives
                # ~1k events and cadence 200 a handful of windows.
                specs[name] = ScenarioSpec(
                    name=name, family="agent", agent=agent,
                    workload=workload, seed=seed, duration_s=60,
                    cadence=200,
                )
    return specs


#: Every named scenario, keyed by name.  The committed KAV corpus
#: covers all of them (all three agent kinds × two workloads × two
#: seeds, plus the three scripted families × two seeds).
SCENARIOS: Dict[str, ScenarioSpec] = {
    **_agent_matrix(),
    **{
        spec.name: spec
        for spec in (
            ScenarioSpec(name="kernel-churn-s3", family="kernel",
                         seed=3, steps=150, cadence=200),
            ScenarioSpec(name="kernel-churn-s9", family="kernel",
                         seed=9, steps=150, cadence=200),
            ScenarioSpec(name="ml-epochs-s3", family="ml",
                         seed=3, steps=120, cadence=100),
            ScenarioSpec(name="ml-epochs-s9", family="ml",
                         seed=9, steps=120, cadence=100),
            ScenarioSpec(name="workloads-objectstore-s3", family="workloads",
                         seed=3, steps=400, cadence=200),
            ScenarioSpec(name="workloads-objectstore-s9", family="workloads",
                         seed=9, steps=400, cadence=200),
        )
    },
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario, with a helpful error on a miss."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            + ", ".join(sorted(SCENARIOS))
        ) from None


def default_scenarios(family: Optional[str] = None) -> Tuple[str, ...]:
    """Scenario names (optionally one family), in sorted order."""
    return tuple(sorted(
        name for name, spec in SCENARIOS.items()
        if family is None or spec.family == family
    ))


#: The golden fleet configurations whose digests are pinned in the
#: corpus (``golden_digests.json`` — the only place a golden digest is
#: written).  They live here so the conformance CLI can re-record them
#: and the tests can assert against the corpus.
GOLDEN_FLEET_CONFIGS: Dict[str, FleetConfig] = {
    "overclock_8x20_seed7": FleetConfig(
        n_nodes=8, agent="overclock", seed=7, duration_s=20
    ),
    "mixed_6x15_seed3": FleetConfig(
        n_nodes=6, agent="mixed", seed=3, duration_s=15
    ),
    "harvest_4x20_seed5_fault": FleetConfig(
        n_nodes=4, agent="harvest", seed=5, duration_s=20, rack_size=2,
        fault=FaultPlan(racks=(0,), start_s=5, duration_s=10,
                        probability=0.9),
    ),
}

#: The artifacts whose canonical ``ExperimentResult`` digests the corpus
#: pins, and the scale they are run at (cheap but covering tables, a
#: harvest figure, and hence all three runtime loops).
GOLDEN_ARTIFACTS: Tuple[str, ...] = ("table1", "table2", "fig6-left")
GOLDEN_EXPERIMENT_SCALE = 0.2
