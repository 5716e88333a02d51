"""``repro chaos``: the resilience proofs, each a few trips down the
launch ladder (:func:`repro.journal.pipelines.launch`, DESIGN.md §11.2).

* :func:`worker_fault_proof` (DESIGN.md §11) — the target fault-free,
  then under a seeded :class:`~repro.resilience.ChaosPlan` set in
  ``$REPRO_CHAOS_PLAN`` for that launch only: every part
  of the faulted result must reproduce its baseline digest or name the
  exact quarantined units.  ``corrupt_cache`` instead runs cold through
  a write-corrupting cache and warm through a plain one.
* :func:`kill_parent_proof` (DESIGN.md §12) — SIGKILL the orchestrator
  after its Nth journal commit, resume, require zero re-executed units
  and the uninterrupted digest.
* The kill-switch steps both that proof and ``repro chaos serve
  --kill-server`` (:mod:`repro.serve.harness`) are made of:
  :func:`spawned`, :func:`killed_run`, :func:`check_resumed`.

Every proof ends in :func:`verdict` — the one place a ``CHAOS FAILURE``
is printed.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.journal.log import KILL_AFTER_ENV
from repro.journal.pipelines import PIPELINES, baseline_digest, launch
from repro.journal.registry import RunInfo, inspect_run
from repro.resilience.chaos import ChaosCache, ChaosPlan, activated
from repro.resilience.policy import RetryPolicy

__all__ = [
    "check_resumed",
    "kill_parent_proof",
    "killed_run",
    "spawned",
    "stderr_tail",
    "verdict",
    "worker_fault_proof",
]

#: How long a child primed with the kill switch may take to die.
DEATH_TIMEOUT_S = 600.0


def verdict(failures: Sequence[str], survived: str) -> int:
    """Exit code of a proof: every failure on stderr, or the OK line."""
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos: OK — {survived}]")
    return 0


# -- worker faults -----------------------------------------------------------


def worker_fault_proof(
    kind: str, config: Any, workers: int, plan: ChaosPlan, policy: RetryPolicy
) -> int:
    """``repro chaos KIND --fault …``: a reference launch and a faulted
    one, then one compare over the kind's parts."""
    print(f"== chaos {kind}: {plan.describe()} "
          f"retries={policy.max_retries} "
          f"timeout={policy.unit_timeout_s or 'none'} ==")
    parts = PIPELINES[kind].parts
    failures: List[str] = []
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-cache-", ignore_cleanup_errors=True
    ) as tmp:
        run = functools.partial(
            launch, kind, config, workers=workers, cache_root=tmp,
            journaled=False, policy=policy,
        )
        # corrupt_cache: cold through a write-corrupting cache, then
        # warm through a plain cache on the same directory — every
        # corrupt object must be quarantined (never trusted) and the
        # warm digests must still match the cold ones bit-for-bit.
        corrupting = plan.kind == "corrupt_cache"
        reference = run(
            open_cache=functools.partial(ChaosCache, plan=plan)
            if corrupting else None
        )
        baseline = parts(reference.result)
        for name, (digest, _holes) in baseline.items():
            print(f"[baseline: {name} digest {digest}]")
        if corrupting:
            corrupted = len(reference.cache.corrupted_keys)
            print(f"[chaos: corrupted {corrupted} cache object(s) on disk]")
            faulted = run()
            stats = faulted.cache.stats
            print(f"[chaos: warm rerun quarantined {stats.corrupt} corrupt "
                  f"object(s); {stats.render()}]")
            if corrupted == 0:
                print("[chaos: WARNING — no cache writes selected; raise "
                      "--probability for a meaningful run]")
            if stats.corrupt != corrupted:
                failures.append(
                    f"corrupted {corrupted} object(s) but the warm rerun "
                    f"quarantined {stats.corrupt}"
                )
        else:
            with activated(plan):
                faulted = run(open_cache=None)
        records = faulted.quarantine
    for name, (digest, holes) in parts(faulted.result).items():
        if holes:
            # Checked against the poison set below; a partial result
            # legitimately diverges from the baseline.
            print(f"[chaos: {name} PARTIAL — holes: {', '.join(holes)}]")
        elif digest == baseline[name][0]:
            print(f"[chaos: {name} digest matches baseline]")
        else:
            print(f"[chaos: {name} digest DIVERGED]")
            failures.append(
                f"{name}: digest diverged under {plan.kind} faults with "
                f"nothing quarantined"
            )
    for record in sorted(records, key=lambda r: r.unit_id):
        detail = f" — {record.error}" if record.error else ""
        print(f"[quarantined: {record.unit_id} ({record.kind} after "
              f"{record.attempts} attempts{detail})]")
    holes = sorted({record.unit_id for record in records})
    expected = sorted(set(plan.poison_units))
    if holes != expected:
        failures.append(f"quarantined units {holes} != poison set {expected}")
    return verdict(
        failures,
        f"fault={plan.kind} degraded predictably ({len(holes)} hole(s), "
        f"exact)",
    )


# -- the kill switch ---------------------------------------------------------


@contextlib.contextmanager
def spawned(
    args: Sequence[str],
    root: str,
    log_stem: str,
    kill_after: Optional[int] = None,
) -> Iterator[subprocess.Popen]:
    """``python -m repro ARGS`` as a child whose cache root is ``root``
    and whose journal kill switch (``REPRO_JOURNAL_KILL_AFTER``) is
    armed at ``kill_after`` commits; killed on the way out if it still
    runs.  Output goes to ``root/<log_stem>.out|.err``, not pipes: pool
    workers inherit the child's stdio, and a captured pipe would make
    the harness wait on the orphans of a SIGKILLed orchestrator.
    """
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = root
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    with open(os.path.join(root, f"{log_stem}.out"), "wb") as out, \
            open(os.path.join(root, f"{log_stem}.err"), "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env, stdout=out, stderr=err,
        )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def stderr_tail(root: str, log_stem: str) -> str:
    try:
        with open(
            os.path.join(root, f"{log_stem}.err"), "r", encoding="utf-8"
        ) as handle:
            lines = handle.read().strip().splitlines()
        return " | ".join(lines[-5:]) or "(empty stderr)"
    except OSError:
        return "(no stderr)"


def killed_run(
    proc: subprocess.Popen,
    who: str,
    flag: str,
    root: str,
    log_stem: str,
    run_id: str,
    failures: List[str],
) -> Optional[RunInfo]:
    """Wait for ``proc`` (the ``who``, primed by ``flag``) to die by its
    kill switch and return the interrupted run it left on disk — or
    record why there is none and return ``None``."""
    try:
        proc.wait(timeout=DEATH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append(
            f"{who} outlived the kill budget; is {flag} larger than the "
            f"run's commit count?"
        )
        return None
    if proc.returncode != -signal.SIGKILL:
        failures.append(
            f"{who} exited {proc.returncode}, expected SIGKILL (lower "
            f"{flag} if the run finished first): "
            f"{stderr_tail(root, log_stem)}"
        )
        return None
    info = inspect_run(root, run_id)
    if info is None:
        failures.append(f"no journaled run {run_id} survived the kill")
        return None
    print(f"[killed: run {info.run_id} — {info.done_units}/"
          f"{info.total_units} units journaled, {info.status}]")
    if info.status == "sealed":
        failures.append(f"run sealed before the kill landed; lower {flag}")
        return None
    return info


def check_resumed(
    label: str,
    killed: RunInfo,
    counters: Dict[str, Any],
    digest: Optional[str],
    baseline: str,
    failures: List[str],
) -> None:
    """The two obligations of every kill proof: the run that picked
    ``killed`` up (``counters``: its journal's replay/execute split)
    re-executed none of the journaled units and sealed ``baseline``."""
    replayed = int(counters.get("replayed", 0))
    re_executed = max(killed.done_units - replayed, 0)
    print(
        f"[{label}: units={counters.get('total')} "
        f"journaled={killed.done_units} replayed={replayed} "
        f"executed={counters.get('executed')} "
        f"cached={counters.get('cached')} re-executed={re_executed}]"
    )
    if re_executed:
        failures.append(
            f"{label} run re-executed {re_executed} journaled unit(s)"
        )
    if digest != baseline:
        failures.append(
            f"{label} digest {digest} != uninterrupted digest {baseline}"
        )
    else:
        print(f"[{label}: digest {digest} matches uninterrupted run]")


def kill_parent_proof(
    kind: str, payload: Dict[str, Any], workers: int, kill_after: int
) -> int:
    """``repro chaos KIND --kill-parent N`` (DESIGN.md §12)."""
    print(f"== chaos {kind}: kill-parent after commit #{kill_after} ==")
    baseline = baseline_digest(kind, payload)
    print(f"[baseline: digest {baseline}]")
    pipeline = PIPELINES[kind]
    config = pipeline.config_from_payload(payload)
    failures: List[str] = []
    with tempfile.TemporaryDirectory(
        prefix="repro-kill-parent-", ignore_cleanup_errors=True
    ) as root:
        # A fresh run is the resume of an empty journal (what every
        # serve job is), so the orchestrator to kill is `runs resume`:
        # it rebuilds any kind from the manifest claimed here.
        with pipeline.open_journal(root, config, workers) as journal:
            run_id = journal.run_id
        with spawned(
            ["runs", "resume", run_id, "--workers", str(workers)],
            root, "orchestrator", kill_after,
        ) as proc:
            killed = killed_run(
                proc, "orchestrator", "--kill-parent", root,
                "orchestrator", run_id, failures,
            )
        if killed is not None:
            resumed = launch(
                kind, config, cache_root=root, workers=workers,
                resume=True, run_id=run_id, resumed=True,
            )
            check_resumed(
                "resumed", killed, resumed.counters,
                resumed.journal.sealed_digest, baseline, failures,
            )
            _check_merged_trace(killed.directory, failures)
    return verdict(
        failures,
        "orchestrator death survived; resume replayed the journal and "
        "reproduced the digest",
    )


def _check_merged_trace(run_directory: str, failures: List[str]) -> None:
    """Observability across the kill (DESIGN.md §14): the killed
    process wrote trace segment 0, the resume appended segment 1; the
    merged sidecar must export a valid Chrome trace."""
    from repro.obs.export import chrome_trace
    from repro.obs.sidecar import read_trace, segments, trace_path

    trace = read_trace(trace_path(run_directory))
    heads = segments(trace)
    events = chrome_trace(trace).get("traceEvents", [])
    if len(heads) < 2:
        failures.append(
            f"telemetry: expected >= 2 trace segments (killed + resumed), "
            f"found {len(heads)}"
        )
    elif not events:
        failures.append("telemetry: merged trace exported no chrome events")
    else:
        print(f"[telemetry: trace.jsonl merged {len(heads)} process "
              f"segments, {len(events)} chrome event(s)]")
