"""Per-layer probes: one structure per probe, then the ladder.

The method of the Firestorm/Oryon dissection and the Cell BE study
(PAPERS.md): isolate one structure per microbenchmark, then explain the
end-to-end number as a sum of parts.  Every probe calls a public entry
point of one layer in a loop of its own and reports the cost of one
operation; the *ladder* runs one fixed cell list through the stack one
layer at a time.  Probes run in the traced run only and never feed an
end-to-end metric.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.cache import ResultCache, sweep_unit_key
from repro.experiments.driver import (
    shared_pool,
    shutdown_shared_pool,
)
from repro.fleet import AGENT_KINDS, FleetAggregate, FleetConfig, FleetScenario
from repro.journal.pipelines import open_sweep_journal, sweep_payload
from repro.ml import CostSensitiveClassifier, distributional_features
from repro.obs import (
    TelemetrySidecar,
    Tracer,
    activate,
    chrome_trace,
    deactivate,
    run_tracing,
    span,
)
from repro.resilience import supervised_map
from repro.sim import Kernel
from repro.sim.queue import QUEUE_TIMEOUT, SimQueue
from repro.sweep import CampaignReport, SweepRunner, run_unit

import workloads
from instruments import median
from workloads import WORKERS, mkdtemp


def best_of(fn: Callable[[], float], repeats: int = 3) -> float:
    """Median of ``repeats`` runs of a probe that returns its own time
    (the median, not the minimum: this box's noise runs both ways)."""
    return median([fn() for _ in range(repeats)])


def per_call(fn: Callable[[], Any], calls: int) -> float:
    """Seconds per call of ``fn`` over ``calls`` back-to-back calls."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def _noop(payload: Any) -> Any:
    return payload


# -- sim ---------------------------------------------------------------------


def sim_probes(smoke: bool) -> Dict[str, float]:
    """Own loops on the kernel: pure event dispatch, and the Actuator's
    bounded-get pattern where the item always beats the timeout."""
    iters = 500 if smoke else 20_000

    def sleep_loop() -> float:
        kernel = Kernel()

        def proc():
            for _ in range(iters):
                yield 1

        for i in range(10):
            kernel.spawn(proc(), name=f"p{i}")
        started = time.perf_counter()
        kernel.run()
        return (time.perf_counter() - started) / (10 * iters)

    def queue_loop() -> float:
        kernel = Kernel()
        count = max(1, iters // 5)

        def producer(queue):
            for i in range(count):
                queue.put(i)
                yield 1000

        def consumer(queue):
            got = 0
            while got < count:
                item = yield from queue.get(timeout_us=100_000)
                if item is not QUEUE_TIMEOUT:
                    got += 1

        for n in range(8):
            queue = SimQueue(kernel, capacity=1)
            kernel.spawn(producer(queue), name=f"prod{n}")
            kernel.spawn(consumer(queue), name=f"cons{n}")
        started = time.perf_counter()
        kernel.run()
        return (time.perf_counter() - started) / (8 * count)

    return {
        "sim.sleep_ns_per_event": best_of(sleep_loop) * 1e9,
        "sim.queue_timeout_ns_per_event": best_of(queue_loop) * 1e9,
    }


# -- ml ----------------------------------------------------------------------


def ml_probes(smoke: bool) -> Dict[str, float]:
    """SmartHarvest's dimensions: 9 classes, 9 features, a 25 ms window
    of 50 us samples."""
    calls = 200 if smoke else 5000
    rng = np.random.default_rng(1234)
    features = rng.uniform(0.0, 1.0, size=9)
    costs = rng.uniform(0.0, 4.0, size=9)
    window = rng.uniform(0.0, 8.0, size=500)
    classifier = CostSensitiveClassifier(n_classes=9, n_features=9)
    for _ in range(50):
        classifier.update(features, costs)
    return {
        "ml.csc_predict_ns": best_of(
            lambda: per_call(lambda: classifier.predict(features), calls)
        ) * 1e9,
        "ml.csc_update_ns": best_of(
            lambda: per_call(lambda: classifier.update(features, costs), calls)
        ) * 1e9,
        "ml.features_ns": best_of(
            lambda: per_call(lambda: distributional_features(window), calls)
        ) * 1e9,
    }


# -- experiments -------------------------------------------------------------


def experiments_probes(seed: int, base: str, smoke: bool) -> Dict[str, float]:
    """One cold cached ``reproduce_all`` pass, read by artifact."""
    workload = workloads.ReproduceInline(seed, smoke)
    root = mkdtemp("experiments-", base)
    try:
        workload.run(ResultCache(root), None)
        return workload.traced_extras()
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- fleet -------------------------------------------------------------------


def fleet_probes(seed: int, smoke: bool) -> Dict[str, float]:
    """Host ms per simulated node-second by agent kind (covers core +
    agents + node + workloads), the reduction, and the exact simulated
    counts that must repeat across runs and commits."""
    nodes, duration_s = (2, 5) if smoke else (4, 10)
    out: Dict[str, float] = {}
    results: List[Any] = []
    for kind in AGENT_KINDS:
        scenario = FleetScenario(FleetConfig(
            n_nodes=nodes, agent=kind, seed=seed, duration_s=duration_s
        ))
        started = time.perf_counter()
        kind_results = scenario.run()
        out[f"fleet.{kind}_ms_per_node_s"] = (
            (time.perf_counter() - started) * 1e3 / (nodes * duration_s)
        )
        # Node ids must be unique within one aggregate.
        for result in kind_results:
            result.node_id = len(results)
            results.append(result)
    aggregate = FleetAggregate.from_results(results)
    out["fleet.aggregate_us_per_node"] = best_of(
        lambda: per_call(lambda: FleetAggregate.from_results(results), 50)
    ) * 1e6 / len(results)
    out["fleet.digest_ms"] = best_of(
        lambda: per_call(aggregate.digest, 50)
    ) * 1e3
    out["fleet.safeguard_trips"] = float(
        sum(aggregate.safeguard_trips.values())
    )
    out["fleet.slo_violations"] = float(aggregate.slo_violations)
    out["fleet.actions"] = float(sum(aggregate.action_histogram.values()))
    return out


# -- cache -------------------------------------------------------------------


def cache_probes(base: str, payload: Any, unit: Any) -> Dict[str, float]:
    """``payload`` is a real unit result (a sweep cell's SafetyRecord)."""
    root = mkdtemp("cache-", base)
    try:
        cache = ResultCache(root)
        keys = [sweep_unit_key({"probe": i}) for i in range(200)]
        missing = [sweep_unit_key({"missing": i}) for i in range(200)]

        def over(fn: Callable[[str], Any], names: List[str]) -> float:
            started = time.perf_counter()
            for name in names:
                fn(name)
            return (time.perf_counter() - started) / len(names)

        put = over(lambda key: cache.put(key, payload), keys)
        hit = over(cache.get, keys)
        miss = over(cache.get, missing)
        coordinates = unit.cache_payload()
        return {
            "cache.key_us": best_of(
                lambda: per_call(lambda: sweep_unit_key(coordinates), 500)
            ) * 1e6,
            "cache.put_us": put * 1e6,
            "cache.get_hit_us": hit * 1e6,
            "cache.get_miss_us": miss * 1e6,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- journal -----------------------------------------------------------------


def journal_probes(base: str, spec: Any, payload: Any) -> Dict[str, float]:
    """One scripted run per repeat: open, dispatch + complete every cell,
    seal, close, then reopen in resume mode (the replay)."""
    samples: Dict[str, List[float]] = {}

    def note(name: str, started: float, per: int = 1) -> None:
        samples.setdefault(name, []).append(
            (time.perf_counter() - started) / per
        )

    for _ in range(3):
        root = mkdtemp("journal-", base)
        try:
            started = time.perf_counter()
            journal = open_sweep_journal(root, spec)
            note("journal.open_ms", started)
            units = journal.units
            started = time.perf_counter()
            for unit_id in units:
                journal.record_dispatched(unit_id, 0)
            note("journal.record_dispatched_us", started, len(units))
            started = time.perf_counter()
            for unit_id in units:
                journal.record_done(unit_id, payload, 0.0)
            note("journal.record_done_us", started, len(units))
            started = time.perf_counter()
            journal.seal("0" * 64)
            note("journal.seal_ms", started)
            started = time.perf_counter()
            journal.close()
            note("journal.close_ms", started)
            started = time.perf_counter()
            journal = open_sweep_journal(root, spec, resume=True)
            note("journal.replay_us_per_record", started, 2 * len(units) + 1)
            journal.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {
        name: median(values) * (1e3 if name.endswith("_ms") else 1e6)
        for name, values in samples.items()
    }


# -- resilience --------------------------------------------------------------


def resilience_probes(smoke: bool) -> Dict[str, float]:
    """The pool alone: spawn, 500 no-op units, one no-op on an idle pool."""
    shutdown_shared_pool()
    started = time.perf_counter()
    shared_pool(WORKERS)
    spawn = time.perf_counter() - started

    def dispatch(count: int) -> float:
        started = time.perf_counter()
        outcome = supervised_map(
            _noop, [(f"u{i}", i) for i in range(count)],
            workers=WORKERS, pool_factory=shared_pool,
            pool_shutdown=shutdown_shared_pool, context="probe",
        )
        if len(outcome.results) != count:
            raise RuntimeError(f"no-op dispatch lost units: {outcome.holes}")
        return time.perf_counter() - started

    try:
        dispatch(WORKERS)  # first task per worker pays its imports
        units = 50 if smoke else 500
        return {
            "resilience.pool_spawn_ms": spawn * 1e3,
            "resilience.dispatch_us_per_unit":
                best_of(lambda: dispatch(units)) * 1e6 / units,
            "resilience.roundtrip_p50_us": median(
                [dispatch(1) for _ in range(20 if smoke else 100)]
            ) * 1e6,
        }
    finally:
        shutdown_shared_pool()


# -- obs ---------------------------------------------------------------------


def obs_probes(base: str, smoke: bool) -> Dict[str, float]:
    count = 1000 if smoke else 20_000

    def spans() -> float:
        started = time.perf_counter()
        for _ in range(count):
            with span("probe", cat="bench"):
                pass
        return (time.perf_counter() - started) / count

    off = best_of(spans)
    tracer = activate(Tracer())
    try:
        on = best_of(spans)
    finally:
        deactivate()
    records = tracer.drain()[:count]
    started = time.perf_counter()
    chrome_trace(records)
    export = time.perf_counter() - started
    root = mkdtemp("obs-", base)
    try:
        sidecar = TelemetrySidecar(root)
        sidecar.open_segment(run_id="probe")
        started = time.perf_counter()
        for record in records[:2000]:
            sidecar.write(record)
        write = (time.perf_counter() - started) / min(len(records), 2000)
        sidecar.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "obs.span_on_ns": on * 1e9,
        "obs.span_off_ns": off * 1e9,
        "obs.sidecar_write_us": write * 1e6,
        "obs.export_ms_per_1k_spans": export * 1e3 / (len(records) / 1000),
    }


# -- cli ---------------------------------------------------------------------


def cli_probes(env: Dict[str, str], smoke: bool) -> Dict[str, float]:
    """Fresh interpreters: what every command pays before it does work
    (``code_salt`` is cached per process, so it needs one too)."""
    script = (
        "import time; t0 = time.perf_counter(); import repro.cli; "
        "t1 = time.perf_counter(); from repro.cache import code_salt; "
        "code_salt(); t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
    )
    pairs = [
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        for _ in range(1 if smoke else 3)
    ]

    def list_once() -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "list"], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - started

    return {
        "cli.import_ms": median([float(p[0]) for p in pairs]) * 1e3,
        "cache.code_salt_ms": median([float(p[1]) for p in pairs]) * 1e3,
        "cli.list_ms": best_of(list_once, 1 if smoke else 3) * 1e3,
    }


# -- serve + the ladder ------------------------------------------------------

LADDER = (
    # rung, what it adds over the previous rung, the layer that owns it
    ("ladder.bare_s", "plain run_unit loop", "sweep"),
    ("ladder.inline_s", "SweepRunner(workers=1)", "sweep"),
    ("ladder.inline_full_s", "+cache +journal +tracing, inline",
     "cache+journal+obs"),
    ("ladder.pool_s", "workers=2, -cache -journal -tracing", "resilience"),
    ("ladder.pool_cache_s", "+cache", "cache"),
    ("ladder.pool_cache_journal_s", "+journal", "journal"),
    ("ladder.pool_full_s", "+tracing (= the workload's cold pass)", "obs"),
    ("ladder.serve_s", "same campaign as a sweep job over the socket",
     "serve"),
)


def ladder_probes(
    seed: int, base: str, smoke: bool, repeats: int
) -> Dict[str, float]:
    """The layer-tax waterfall on the ``sweep_tiny_cells`` cell list.

    ``repeats`` runs per rung, median kept.  Three on the workload that
    owns the ladder; one elsewhere, where eight more seconds per rung
    set would not fit the traced run's window and a delta is still read
    per unit over 72 cells.  Every rung's digest must equal the bare one.
    """
    spec = workloads.sweep_spec(seed, smoke)
    cells = spec.expand()
    records: List[Any] = []

    def bare() -> float:
        started = time.perf_counter()
        records[:] = [run_unit(cell) for cell in cells]
        return time.perf_counter() - started

    out = {"ladder.bare_s": best_of(bare, repeats)}
    bare_digest = CampaignReport.build(spec.name, records).digest()

    def check(digest: Any) -> None:
        if digest != bare_digest:
            raise RuntimeError("ladder rung digest differs from bare")

    def rung(workers: int, cache: bool, journal: bool, trace: bool) -> float:
        root = mkdtemp("ladder-", base)
        try:
            started = time.perf_counter()
            ledger = open_sweep_journal(root, spec) if journal else None
            try:
                with run_tracing(ledger, enabled_=trace):
                    report = SweepRunner(
                        spec, workers=workers,
                        cache=ResultCache(root) if cache else None,
                        journal=ledger,
                    ).run()
            finally:
                if ledger is not None:
                    ledger.close()
            wall = time.perf_counter() - started
        finally:
            shutil.rmtree(root, ignore_errors=True)
        check(report.digest())
        return wall

    def over_the_socket() -> float:
        # A fresh server per repeat: a second submit of the same
        # campaign to the same server would replay the sealed run.
        serve = workloads.ServeRoundtrip(seed, smoke)
        try:
            serve.setup(base)
            started = time.perf_counter()
            reply = serve.client.submit(
                "sweep", sweep_payload(spec), workers=WORKERS
            )
            for last in serve.client.watch(reply["job_id"]):
                pass
            wall = time.perf_counter() - started
        finally:
            serve.teardown()
            shutil.rmtree(serve.root, ignore_errors=True)
        check(last.get("digest"))
        return wall

    def rungs(**shapes: Any) -> None:
        for name, shape in shapes.items():
            out[f"ladder.{name}_s"] = best_of(lambda: rung(*shape), repeats)

    rungs(inline=(1, False, False, False), inline_full=(1, True, True, True))
    pooled = workloads.SweepTinyCells(seed, smoke)
    try:
        pooled.setup(base)
        rungs(
            pool=(WORKERS, False, False, False),
            pool_cache=(WORKERS, True, False, False),
            pool_cache_journal=(WORKERS, True, True, False),
            pool_full=(WORKERS, True, True, True),
        )
    finally:
        pooled.teardown()
    out["ladder.serve_s"] = best_of(over_the_socket, repeats)

    out["sweep.run_unit_ms_per_cell"] = out["ladder.bare_s"] * 1e3 / len(cells)
    out["sweep.expand_us_per_cell"] = (
        best_of(lambda: per_call(spec.expand, 5)) * 1e6 / len(cells)
    )
    out["sweep.report_ms"] = best_of(lambda: per_call(
        lambda: CampaignReport.build(spec.name, records).digest(), 5
    )) * 1e3
    out.update(cache_probes(base, records[0], cells[0]))
    out.update(journal_probes(base, spec, records[0]))
    return out


def serve_probes(seed: int, base: str, smoke: bool) -> Dict[str, float]:
    """One small session of the serve workload for the socket-side
    numbers: 100 fresh 4-node fleet jobs, then the same 100 again."""
    serve = workloads.ServeRoundtrip(seed, smoke)
    if not smoke:
        serve.jobs_per_block = 100  # p95 needs samples beyond it
    out: Dict[str, float] = {}
    try:
        serve.setup(base)
        serve.prepare()
        client = serve.client
        out["serve.ping_p50_us"] = median(
            [per_call(client.ping, 1) for _ in range(50)]
        ) * 1e6
        block = serve.block(0, base)
        if block.errors:
            raise RuntimeError(f"serve probe failed: {block.errors[:3]}")
        out["serve.status_p50_us"] = median(
            [per_call(lambda: client.status("job-0001"), 1) for _ in range(50)]
        ) * 1e6
    finally:
        serve.teardown()
        shutil.rmtree(serve.root, ignore_errors=True)
    tail = int(0.95 * len(block.cold))
    out.update({
        "serve.start_s": serve.start_s,
        "serve.drain_s": serve.drain_s,
        "serve.submit_ack_p50_ms": median(serve.ack_s) * 1e3,
        "serve.job_latency_p95_s": sorted(block.cold)[tail],
        "serve.replay_p95_s": sorted(block.warm)[tail],
        "serve.events_per_job": float(median(serve.events_per_job)),
        "serve.rejected": float(serve.rejected),
    })
    return out


def run_all(seed: int, base: str, smoke: bool, skip_experiments: bool,
            ladder_repeats: int) -> Dict[str, float]:
    """Every probe.  ``skip_experiments``: the ``reproduce_inline``
    traced run reads those numbers off its own cold pass instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [workloads.SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out: Dict[str, float] = {}
    out.update(sim_probes(smoke))
    out.update(ml_probes(smoke))
    out.update(fleet_probes(seed, smoke))
    out.update(obs_probes(base, smoke))
    out.update(cli_probes(env, smoke))
    out.update(resilience_probes(smoke))
    out.update(ladder_probes(seed, base, smoke, ladder_repeats))
    out.update(serve_probes(seed, base, smoke))
    if not skip_experiments:
        out.update(experiments_probes(seed, base, smoke))
    return out
