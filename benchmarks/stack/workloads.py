"""The four workloads: inputs from the seed, one block = cold pass + warm passes.

Each workload drives the program through its public entry points only
and checks every pass against the same work run as bare inline calls.
A *block* is the unit the time-boxed loop in ``run.py`` repeats: one
cold pass under a fresh root (nothing cached or journaled), then the
warm passes on that root, so drift lands on both phases alike.

Why these four (the README has the long form): ``reproduce_inline`` is
compute-bound and bypasses the pool; ``sweep_tiny_cells`` is
overhead-bound (10-20 ms cells, so dispatch + cache + journal + spans
are a third of the wall); ``fleet_pool`` is fan-out/reduce-bound and
bypasses the cache; ``serve_roundtrip`` is the only one through the
socket, admission, job thread and event stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cache import ResultCache, code_salt
from repro.experiments.driver import (
    ARTIFACT_SPECS,
    FleetDriver,
    artifact_units,
    reproduce_all,
    runs_digest,
    shared_pool,
    shared_pool_counters,
    shutdown_shared_pool,
)
from repro.fleet import FleetConfig, FleetScenario
from repro.journal.pipelines import (
    fleet_payload,
    open_fleet_journal,
    open_reproduce_journal,
    open_sweep_journal,
)
from repro.obs import run_tracing
from repro.serve import ServeClient, ServeUnavailable
from repro.sweep import (
    CampaignReport,
    CampaignSpec,
    FaultAxis,
    SweepRunner,
    run_unit,
)

import instruments
from instruments import median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Block:
    """What one block measured (walls in host seconds)."""

    cold: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    units: int = 0           # work units sealed by the cold phase
    sim_node_s: float = 0.0  # simulated node-seconds of the cold phase
    attempted: int = 0
    failed: int = 0
    quarantined: int = 0
    cpu_s: float = 0.0       # process-tree CPU inside the timed regions
    disk_bytes: float = 0.0  # left behind by one cold pass / fresh job
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    # Traced runs only: per-layer numbers of this block's cold phase,
    # and each phase's [start, end] on the system-wide clock.
    layers: Dict[str, float] = field(default_factory=dict)
    cold_window: Tuple[float, float] = (0.0, 0.0)
    warm_window: Tuple[float, float] = (0.0, 0.0)


def mkdtemp(prefix: str, base: str) -> str:
    """A fresh directory under ``base``, as a path relative to the
    working directory: the serve socket lives below it, and ``AF_UNIX``
    paths are capped at ~107 bytes wherever the checkout happens to be."""
    return os.path.relpath(tempfile.mkdtemp(prefix=prefix, dir=base))


def classify_disk(root: str) -> Dict[str, float]:
    """Bytes under ``root`` by owning layer, plus the trace line count."""
    out = {"cache": 0.0, "journal": 0.0, "obs": 0.0, "spans": 0.0}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                size = os.lstat(path).st_size
            except OSError:
                continue
            if name in ("trace.jsonl", "metrics.json"):
                out["obs"] += size
                if name == "trace.jsonl":
                    with open(path, "rb") as handle:
                        out["spans"] += sum(1 for _ in handle)
            elif "runs" in dirpath.split(os.sep):
                out["journal"] += size
            else:
                out["cache"] += size
    return out


@contextlib.contextmanager
def _no_span(name: str, layer: str):
    yield None


class Workload:
    """An in-process journaled pipeline (reproduce, sweep, fleet)."""

    name = ""
    layer = ""           # the layer that owns the pipeline span
    cached = True        # hands the driver a ResultCache
    pooled = True        # dispatches through the shared pool
    warm_passes = 5
    min_blocks = 4
    units = 0
    sim_node_s = 0.0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.warm_passes = 1
            self.min_blocks = 1
        self.reference_digest = ""

    # -- hooks ---------------------------------------------------------------

    def reference(self) -> str:
        """Digest of the same work as bare inline calls."""
        raise NotImplementedError

    def open_journal(self, root: str, warm: bool) -> Any:
        raise NotImplementedError

    def run(self, cache: Any, journal: Any) -> str:
        """Drive the pipeline; returns the result digest."""
        raise NotImplementedError

    def traced_extras(self) -> Dict[str, float]:
        """Workload-specific per-layer numbers from the last cold pass."""
        return {}

    def finish_trace(self, blocks: List[Block]) -> None:
        """After teardown: fold in what only a stopped program reveals."""

    # -- lifecycle -----------------------------------------------------------

    def setup(self, base: str, traced: bool = False) -> None:
        """What a user pays between process start and the first pass,
        after the imports: the code salt, the pool spawn, and one tiny
        pass through the pool."""
        code_salt()
        if self.pooled and WORKERS > 1:
            shared_pool(WORKERS)
            FleetDriver(
                FleetConfig(n_nodes=8, agent="mixed", duration_s=5),
                workers=WORKERS,
            ).run()

    def prepare(self) -> None:
        """Untimed, after every setup: the bare inline reference, once
        (which also lets lazy imports and allocator warm-up finish
        before timing)."""
        if not self.reference_digest:
            self.reference_digest = self.reference()

    def teardown(self) -> None:
        shutdown_shared_pool()

    def pool_counters(self) -> Dict[str, int]:
        return shared_pool_counters()

    # -- one pass ------------------------------------------------------------

    def one_pass(
        self, root: str, warm: bool, block: Block,
        spans: Optional[instruments.Spans],
    ) -> Tuple[str, Optional[int]]:
        span = spans.span if spans else _no_span
        cpu0 = instruments.tree_cpu_s()
        started = time.perf_counter()
        with span("pass.warm" if warm else "pass.cold", "bench") as pass_id:
            cache = ResultCache(root) if self.cached else None
            with span("journal.open", "journal"):
                journal = self.open_journal(root, warm)
            driver_cache, driver_journal = cache, journal
            if spans:
                driver_journal = instruments.TimedJournal(journal, spans)
                if cache is not None:
                    driver_cache = instruments.TimedCache(cache, spans)
            try:
                with run_tracing(journal), span("pipeline", self.layer):
                    digest = self.run(driver_cache, driver_journal)
            finally:
                driver_journal.close()
        wall = time.perf_counter() - started
        block.cpu_s += instruments.tree_cpu_s() - cpu0
        (block.warm if warm else block.cold).append(wall)
        block.attempted += self.units
        block.quarantined += journal.stats.quarantined
        failed = journal.stats.quarantined
        misses = cache.stats.misses if cache is not None else 0
        if digest != self.reference_digest:
            block.errors.append(
                f"{'warm' if warm else 'cold'} digest {digest[:12]} != "
                f"bare {self.reference_digest[:12]}"
            )
            failed = self.units
        elif warm and (journal.stats.executed or misses):
            block.errors.append(
                f"warm pass executed {journal.stats.executed} unit(s), "
                f"{misses} cache miss(es)"
            )
            failed = self.units
        block.failed += failed
        return digest, pass_id

    def block(
        self, index: int, base: str,
        spans: Optional[instruments.Spans] = None,
    ) -> Block:
        block = Block(units=self.units, sim_node_s=self.sim_node_s)
        root = mkdtemp("pass-", base)
        try:
            block.digest, cold_id = self.one_pass(root, False, block, spans)
            block.disk_bytes = instruments.disk_bytes(root)
            if spans:
                disk = classify_disk(root)
                fsyncs = [
                    row[4] - row[3] for row in spans.descendants(cold_id)
                    if row[1] == "fsync"
                ]
                cache_busy = spans.busy(cold_id, "cache")
                journal_busy = spans.busy(cold_id, "journal")
                block.layers = {
                    "cache.busy_ms_per_pass": cache_busy * 1e3,
                    "journal.busy_ms_per_pass": journal_busy * 1e3,
                    "cache.bytes_per_pass": disk["cache"],
                    "journal.bytes_per_pass": disk["journal"],
                    "obs.bytes_per_pass": disk["obs"],
                    "obs.spans_per_pass": disk["spans"],
                    "journal.fsyncs_per_pass": float(len(fsyncs)),
                    "journal.fsync_p50_us": median(fsyncs) * 1e6,
                    "bench.cold_stack_share":
                        (cache_busy + journal_busy) / block.cold[0],
                }
                block.layers.update(self.traced_extras())
            for _ in range(self.warm_passes):
                _digest, warm_id = self.one_pass(root, True, block, spans)
            if spans:
                block.layers["bench.warm_stack_share"] = (
                    spans.busy(warm_id, "cache")
                    + spans.busy(warm_id, "journal")
                ) / block.warm[-1]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return block


# -- reproduce_inline --------------------------------------------------------


class ReproduceInline(Workload):
    """``reproduce_all`` serially through cache + journal + tracing.

    ``--seed`` does not change this workload: the paper experiments fix
    their own seeds.  Scale 0.1 (not the issue's 0.2) so that four cold
    passes fit the run window the benchmark contract allows.
    """

    name = "reproduce_inline"
    layer = "experiments"
    pooled = False
    SCALE = 0.1

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scale = 0.05 if smoke else self.SCALE
        self.only = ["table1", "table2", "fig4", "fig5"] if smoke else None
        self.units = 0
        for name in self.only or ARTIFACT_SPECS:
            n_units = len(artifact_units(name, self.scale))
            self.units += n_units
            seconds = ARTIFACT_SPECS[name][1](self.scale).get("seconds", 0)
            self.sim_node_s += float(seconds * n_units)
        self.last_runs: List[Any] = []
        self.last_cache: Any = None

    def reference(self) -> str:
        return runs_digest(reproduce_all(scale=self.scale, only=self.only))

    def open_journal(self, root: str, warm: bool) -> Any:
        return open_reproduce_journal(root, self.only, self.scale)

    def run(self, cache: Any, journal: Any) -> str:
        self.last_runs = reproduce_all(
            scale=self.scale, only=self.only, cache=cache, journal=journal
        )
        self.last_cache = cache
        return runs_digest(self.last_runs)

    def traced_extras(self) -> Dict[str, float]:
        """Where the cold wall went, by artifact (sums of unit walls the
        program itself measured) and the single longest unit — the floor
        of any future parallel makespan."""
        walls = {run.name: run.wall_seconds for run in self.last_runs}
        heavy = ("fig6-left", "fig6-middle", "fig6-right", "fig7", "fig8")
        out = {
            f"experiments.{name}_s": walls.get(name, 0.0) for name in heavy
        }
        out["experiments.light_artifacts_s"] = sum(
            wall for name, wall in walls.items() if name not in heavy
        )
        timings = self.last_cache.load_unit_timings()
        out["experiments.longest_unit_s"] = max(
            (summary["last"] for summary in timings.values()), default=0.0
        )
        return out


# -- sweep_tiny_cells --------------------------------------------------------


def sweep_spec(seed: int, smoke: bool) -> CampaignSpec:
    """The campaign grid; its fleet seeds derive from ``--seed``."""
    if smoke:  # 2 agents x 1 scale x 2 seeds x (baseline + 1 fault) = 8
        return CampaignSpec(
            name="stack-bench-smoke",
            agents=("overclock", "memory"),
            scales=(1,),
            seeds=(2 * seed, 2 * seed + 1),
            duration_s=5,
            faults=(FaultAxis("bad_data", (0.9,), start_s=1, duration_s=3),),
        )
    return CampaignSpec(  # 3 agents x 2 scales x 4 seeds x 3 = 72 cells
        name="stack-bench",
        agents=("overclock", "harvest", "memory"),
        scales=(1, 2),
        seeds=tuple(4 * seed + i for i in range(4)),
        duration_s=5,
        faults=(FaultAxis("bad_data", (0.5, 0.9), start_s=1, duration_s=3),),
    )


class SweepTinyCells(Workload):
    name = "sweep_tiny_cells"
    layer = "sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.spec = sweep_spec(seed, smoke)
        cells = self.spec.expand()
        self.units = len(cells)
        self.sim_node_s = float(
            sum(cell.n_nodes * cell.duration_s for cell in cells)
        )

    def reference(self) -> str:
        records = [run_unit(cell) for cell in self.spec.expand()]
        return CampaignReport.build(self.spec.name, records).digest()

    def open_journal(self, root: str, warm: bool) -> Any:
        return open_sweep_journal(root, self.spec)

    def run(self, cache: Any, journal: Any) -> str:
        return SweepRunner(
            self.spec, workers=WORKERS, cache=cache, journal=journal
        ).run().digest()


# -- fleet_pool --------------------------------------------------------------

#: Relative host cost of one simulated node-second by agent kind (the
#: README baseline: harvest 5 ms, memory 1.7 ms, overclock 0.17 ms).
NODE_COST = {"harvest": 30, "memory": 10, "overclock": 1}


def balanced_fleet_seed(seed: int, n_nodes: int, duration_s: int) -> int:
    """A fleet seed, drawn from ``seed``, whose mixed fleet costs the same.

    ``agent="mixed"`` draws each node's agent kind from the fleet seed,
    and a harvest node costs 30x an overclock node, so raw seeds differ
    by +-15 % in total work and by as much again in how evenly the
    driver's chunks split over the workers.  Candidates are drawn until
    the modeled total is within 1 % of the expected mix and the modeled
    greedy makespan within 2 % of a perfect split: every ``--seed`` then
    names a different fleet with the same amount of work.
    """
    rng = random.Random(seed)
    target = n_nodes * sum(NODE_COST.values()) / len(NODE_COST)
    while True:
        candidate = rng.randrange(1 << 31)
        config = FleetConfig(
            n_nodes=n_nodes, agent="mixed", seed=candidate,
            duration_s=duration_s,
        )
        cost = [
            NODE_COST[config.node_spec(i).agent] for i in range(n_nodes)
        ]
        total = sum(cost)
        if abs(total - target) > 0.01 * target:
            continue
        finish = [0.0] * WORKERS
        for chunk in FleetDriver(config, workers=WORKERS).chunks():
            finish[finish.index(min(finish))] += sum(cost[i] for i in chunk)
        if max(finish) <= 1.02 * total / WORKERS:
            return candidate


class FleetPool(Workload):
    name = "fleet_pool"
    layer = "fleet"
    cached = False
    warm_passes = 10

    config: Optional[FleetConfig] = None

    def prepare(self) -> None:
        # The seed search costs ~1 s, so it lives here, outside set-up.
        if self.config is not None:
            return
        if self.smoke:
            self.config = FleetConfig(
                n_nodes=8, agent="mixed", seed=self.seed, duration_s=5
            )
        else:
            self.config = FleetConfig(
                n_nodes=64, agent="mixed", duration_s=30,
                seed=balanced_fleet_seed(self.seed, 64, 30),
            )
        self.units = len(FleetDriver(self.config, workers=WORKERS).chunks())
        self.sim_node_s = float(self.config.n_nodes * self.config.duration_s)
        super().prepare()

    def reference(self) -> str:
        return FleetScenario(self.config).run_fleet().digest()

    def open_journal(self, root: str, warm: bool) -> Any:
        # The warm pass is a resume of the sealed run: every chunk
        # replays from the journal, nothing is dispatched.
        return open_fleet_journal(root, self.config, WORKERS, resume=warm)

    def run(self, cache: Any, journal: Any) -> str:
        return FleetDriver(
            self.config, workers=WORKERS, journal=journal
        ).run().digest()


# -- serve_roundtrip ---------------------------------------------------------


class ServeRoundtrip(Workload):
    """Closed loop, one client: submit, watch to the terminal event, next.

    A block is ``jobs_per_block`` distinct fleet jobs (cold: admission,
    job thread, journal, pool, event stream) and then the same configs
    resubmitted (warm: the run is sealed, so the server replays it).
    Closed because ``serve`` runs one job at a time and callers wait for
    ``done``.
    """

    name = "serve_roundtrip"
    layer = "serve"
    jobs_per_block = 20
    warmup_jobs = 5
    NODES, DURATION_S = 4, 5

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.jobs_per_block, self.warmup_jobs = 3, 1
        self.server: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        self.root = ""
        self.fsync_log = ""
        self.events_per_job: List[int] = []
        self.ack_s: List[float] = []
        self.rejected = 0
        self.start_s = 0.0
        self.drain_s = 0.0
        self._next_job = 0
        self._log: Any = None

    def job_config(self) -> Dict[str, Any]:
        """The next distinct fleet job; its seed derives from ``--seed``."""
        index, self._next_job = self._next_job, self._next_job + 1
        return fleet_payload(FleetConfig(
            n_nodes=self.NODES, agent="overclock",
            seed=self.seed * 1_000_000 + index, duration_s=self.DURATION_S,
        ))

    def setup(self, base: str, traced: bool = False) -> None:
        """Server start to the first answered ``ping``."""
        self.root = mkdtemp("serve-", base)
        socket_path = os.path.join(self.root, "s")
        env = dict(os.environ, REPRO_CACHE_DIR=self.root)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        command = [sys.executable, "-m", "repro"]
        if traced:
            self.fsync_log = os.path.join(self.root, "fsync.json")
            command = [
                sys.executable, os.path.join(HERE, "instruments.py"),
                self.fsync_log,
            ]
        self._log = open(os.path.join(self.root, "server.log"), "wb")
        started = time.perf_counter()
        self.server = subprocess.Popen(
            command + ["serve", "start", "--cache-dir", self.root,
                       "--socket", socket_path],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        # Not wait_for_server: its 50 ms poll step would quantize a
        # 350 ms start-up into the set-up metric.
        probe = ServeClient(socket_path, timeout=1.0)
        while True:
            try:
                probe.ping()
                break
            except (ServeUnavailable, OSError):
                if (self.server.poll() is not None
                        or time.perf_counter() - started > 30.0):
                    raise
                time.sleep(0.005)
        self.start_s = time.perf_counter() - started
        self.client = ServeClient(socket_path, timeout=60.0)

    def prepare(self) -> None:
        scratch = Block()
        for _ in range(self.warmup_jobs):
            self.roundtrip(self.job_config(), scratch, None)
        if scratch.errors:
            raise RuntimeError(f"serve warm-up failed: {scratch.errors}")

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            started = time.perf_counter()
            if server.poll() is None and self.client is not None:
                self.client.drain()
                server.wait(timeout=30.0)
            self.drain_s = time.perf_counter() - started
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            self.client = None
            self._log.close()

    def pool_counters(self) -> Dict[str, int]:
        return self.client.metrics().get("metrics", {}).get("pool", {})

    def roundtrip(
        self, config: Dict[str, Any], block: Block,
        spans: Optional[instruments.Spans],
    ) -> Tuple[float, Optional[Dict[str, Any]]]:
        """One job: ``submit`` send to the terminal ``watch`` event."""
        span = spans.span if spans else _no_span
        block.attempted += 1
        last: Dict[str, Any] = {}
        started = time.perf_counter()
        with span("serve.job", "serve"):
            with span("serve.submit", "serve"):
                reply = self.client.submit("fleet", config, workers=WORKERS)
            acked = time.perf_counter()
            if reply.get("ok"):
                events = 0
                with span("serve.watch", "serve"):
                    for last in self.client.watch(reply["job_id"]):
                        events += 1
        wall = time.perf_counter() - started
        if not reply.get("ok"):
            self.rejected += 1
            block.failed += 1
            block.errors.append(f"submit refused: {reply.get('error')}")
            return wall, None
        self.ack_s.append(acked - started)
        self.events_per_job.append(events)
        if last.get("event") != "done":
            block.failed += 1
            block.errors.append(f"job ended {last.get('event')}: {last}")
            return wall, None
        block.quarantined += last["counters"].get("quarantined", 0)
        last["run_id"] = reply["run_id"]
        return wall, last

    def block(
        self, index: int, base: str,
        spans: Optional[instruments.Spans] = None,
    ) -> Block:
        block = Block()
        configs = [self.job_config() for _ in range(self.jobs_per_block)]
        cpu0 = instruments.tree_cpu_s()
        window_start = time.perf_counter()
        fresh = []
        for config in configs:
            wall, done = self.roundtrip(config, block, spans)
            block.cold.append(wall)
            fresh.append(done)
            if done is not None:
                block.units += 1
                block.sim_node_s += self.NODES * self.DURATION_S
        block.cold_window = (window_start, time.perf_counter())
        block.cpu_s += instruments.tree_cpu_s() - cpu0
        run_dirs = [
            os.path.join(self.root, "runs", done["run_id"])
            for done in fresh if done is not None
        ]
        jobs = max(1, len(run_dirs))
        block.disk_bytes = sum(map(instruments.disk_bytes, run_dirs)) / jobs
        if spans:
            disk = [classify_disk(path) for path in run_dirs]
            block.layers = {
                # Fleet jobs have no cache tier: the bypass.
                "cache.busy_ms_per_pass": 0.0,
                "cache.bytes_per_pass": 0.0,
                "journal.bytes_per_pass":
                    sum(d["journal"] for d in disk) / jobs,
                "obs.bytes_per_pass": sum(d["obs"] for d in disk) / jobs,
                "obs.spans_per_pass": sum(d["spans"] for d in disk) / jobs,
            }
        cpu0 = instruments.tree_cpu_s()
        window_start = time.perf_counter()
        for config, done in zip(configs, fresh):
            wall, again = self.roundtrip(config, block, spans)
            block.warm.append(wall)
            if done is None or again is None:
                continue
            if again["digest"] != done["digest"]:
                block.failed += 1
                block.errors.append("resubmit digest differs from fresh")
            elif again["counters"].get("executed"):
                block.failed += 1
                block.errors.append(
                    f"resubmit executed {again['counters']['executed']} "
                    "unit(s)"
                )
        block.warm_window = (window_start, time.perf_counter())
        block.cpu_s += instruments.tree_cpu_s() - cpu0
        digests = [done["digest"] if done else "" for done in fresh]
        block.digest = hashlib.sha256(
            "".join(digests).encode("ascii")
        ).hexdigest()
        if index == 0:
            # The bare inline check covers the first block only: every
            # job runs the same code, and 4 ms of reference per 20 ms
            # job would put a fifth more work into the run than serve
            # itself does.  Cold == warm is still checked on every job.
            for config, digest in zip(configs, digests):
                bare = FleetScenario(FleetConfig(
                    n_nodes=config["n_nodes"], agent=config["agent"],
                    seed=config["seed"], duration_s=config["duration_s"],
                )).run_fleet().digest()
                if digest and digest != bare:
                    block.failed += 1
                    block.errors.append(
                        f"job digest {digest[:12]} != bare {bare[:12]}"
                    )
        return block

    def finish_trace(self, blocks: List[Block]) -> None:
        """Window the stopped server's fsync log by each block's phases.
        Fsync wait is all of the journal's work that is visible from
        outside the server, so ``journal.busy`` is a lower bound here."""
        with open(self.fsync_log, "r", encoding="utf-8") as handle:
            log = json.load(handle)

        def waits_in(window: Tuple[float, float]) -> List[float]:
            return [wait for at, wait in log if window[0] <= at <= window[1]]

        for block in blocks:
            cold = waits_in(block.cold_window)
            jobs = max(1, block.units)
            block.layers.update({
                "journal.fsyncs_per_pass": len(cold) / jobs,
                "journal.fsync_p50_us": median(cold) * 1e6,
                "journal.busy_ms_per_pass": sum(cold) / jobs * 1e3,
                "bench.cold_stack_share": sum(cold) / sum(block.cold),
                "bench.warm_stack_share":
                    sum(waits_in(block.warm_window)) / sum(block.warm),
            })


WORKLOADS = {
    cls.name: cls
    for cls in (ReproduceInline, SweepTinyCells, FleetPool, ServeRoundtrip)
}
