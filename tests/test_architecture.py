"""The architecture rules of DESIGN.md, checked over the syntax tree.

Each rule is a function from the module index to the ``path:line``
sites that break it, registered with the DESIGN § it enforces, and
``test_the_source_keeps_the_rule`` runs every one on this repository.
The index resolves ``import x as y`` and ``from x import y as z``, so a
rule sees the name an alias stands for, not how it is spelled: ``from
os import fsync as f`` is an ``os.fsync`` wherever ``f`` appears.
Comments are not code, and no rule reads them.

``test_a_planted_violation_is_reported`` proves that each rule bites:
it plants one violation in a scratch file and asserts the rule reports
exactly that line.  A change that adds an invariant adds its rule and
its plant here.

Two rules read the interpreter instead of a syntax tree.  Closed
records (§9) asks ``typing.get_type_hints`` for the fields of the
imported record classes, so quoted annotations, type aliases and
inherited fields count as they do at run time.  The control plane
imports no simulation (§13), checked in a fresh interpreter by
``test_a_control_plane_module_loads_no_simulation`` in
``tests/test_import_boundary.py``.
"""

import ast
import inspect
import os
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: The trees the rules read: the package, plus the benchmarks and
#: examples that the one-composer rule also covers.
TREES = ("src/repro", "benchmarks", "examples")

Site = Tuple[str, int]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Module:
    """One source file, read once into what the rules ask of it.

    ``refs`` holds every name, attribute chain, import and definition
    as the dotted name it resolves to, with its node: ``p.dumps`` after
    ``import pickle as p`` reads ``pickle.dumps``, a relative import
    reads as the absolute one, and ``def f`` in ``repro.x`` reads
    ``repro.x.f``.  ``calls`` holds every call with its resolved
    callee, ``words`` every identifier (names, attributes, definitions,
    parameters, keywords, imports) and ``strings`` every string
    constant.  A file that is not Python has its lines as ``strings``,
    or none if it is binary.
    """

    path: str
    tree: ast.Module
    name: str = ""
    aliases: Dict[str, str] = field(default_factory=dict)
    refs: List[Tuple[int, str, ast.AST]] = field(default_factory=list)
    calls: List[Tuple[int, str, ast.Call]] = field(default_factory=list)
    words: List[Tuple[int, str, ast.AST]] = field(default_factory=list)
    strings: List[Tuple[int, str, ast.AST]] = field(default_factory=list)

    def resolve(self, node: ast.AST) -> str:
        """The dotted name of a name or attribute chain; ``?`` stands
        for a base that is not a name, as in ``f().x``."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        base = self.aliases.get(node.id, node.id) if isinstance(
            node, ast.Name) else "?"
        return ".".join([base, *reversed(parts)])


def _dotted(path: str) -> List[str]:
    """``src/repro/x/y.py`` -> ``["repro", "x", "y"]``."""
    parts = path[:-len(".py")].split("/")
    return parts[1:] if parts[0] == "src" else parts


def _imported(node: ast.ImportFrom, package: List[str]) -> str:
    """The absolute module a ``from`` import names."""
    if not node.level:
        return node.module
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def read_module(root: Path, path: str) -> Module:
    """Read one file of ``root`` into a :class:`Module`."""
    if not path.endswith(".py"):
        module = Module(path, ast.Module(body=[], type_ignores=[]))
        try:
            text = (root / path).read_text()
        except UnicodeDecodeError:  # binary, skipped as `grep -I` does
            return module
        module.strings = [
            (n, line, None) for n, line in enumerate(text.splitlines(), 1)
        ]
        return module
    dotted = _dotted(path)
    package = dotted[:-1]  # of a module and of an __init__.py alike
    module = Module(path, ast.parse((root / path).read_text(), path),
                    ".".join(package if dotted[-1] == "__init__" else dotted))
    nodes = list(ast.walk(module.tree))
    for node in nodes:  # every alias first: a use may precede its import
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            source = _imported(node, package) if isinstance(
                node, ast.ImportFrom) else ""
            for alias in node.names:
                name = f"{source}.{alias.name}" if source else alias.name
                if source or alias.asname:  # `import a.b` binds `a` as is
                    module.aliases[alias.asname or alias.name] = name
                module.refs.append((node.lineno, name, node))
                module.words += [
                    (node.lineno, word, node)
                    for word in (alias.name, alias.asname) if word
                ]
    names = {}  # node -> its dotted name, built up a chain at a time
    for node in reversed(nodes):  # breadth-first, reversed: child first
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            names[node] = module.aliases.get(node.id, node.id)
            module.refs.append((line, names[node], node))
            module.words.append((line, node.id, node))
        elif isinstance(node, ast.Attribute):
            names[node] = f"{names.get(node.value, '?')}.{node.attr}"
            module.refs.append((line, names[node], node))
            module.words.append((line, node.attr, node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module.strings.append((line, node.value, node))
        elif isinstance(node, ast.Call):
            module.calls.append((line, names.get(node.func, "?"), node))
        elif isinstance(node, DEFS):
            module.refs.append((line, f"{module.name}.{node.name}", node))
            module.words.append((line, node.name, node))
        elif isinstance(node, ast.arg):
            module.words.append((line, node.arg, node))
        elif isinstance(node, ast.keyword) and node.arg:
            module.words.append((line, node.arg, node))
    return module


def build_index(root: Path) -> Dict[str, Module]:
    """Every source file under ``TREES`` in ``root``, by its path
    relative to ``root``."""
    index = {}
    for tree in TREES:
        for path in sorted((root / tree).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            relative = path.relative_to(root).as_posix()
            if relative.endswith(".py") or tree == "src/repro":
                index[relative] = read_module(root, relative)
    return index


def modules(index, under="src/repro/", outside=()) -> Iterator[Module]:
    """The modules at or below ``under``, except those at or below
    any path in ``outside``."""
    for module in index.values():
        if module.path.startswith(under) and not (
                outside and module.path.startswith(tuple(outside))):
            yield module


def last(name: str) -> str:
    return name.rpartition(".")[2]


def texts(module: Module):
    """Identifiers and string constants: where a retired name shows."""
    return [*module.words, *module.strings]


#: Every rule, in DESIGN order: a check from the index to its ``Site``s.
RULES = []


def rule(section: str):
    """Register a check as the rule of DESIGN.md § ``section``."""
    def register(check):
        check.section = section
        RULES.append(check)
        return check
    return register


@rule("1")
def one_builder(index) -> Iterator[Site]:
    """A node model is constructed by repro.node itself or by
    repro.fleet.node.build_node only (§1, §4, §5).  A call through a
    module parameter, ``impl.CpuModel(...)`` in perf/ and conformance/,
    builds against either the live or the frozen models."""
    for module in modules(index, outside=(
            "src/repro/node/", "src/repro/fleet/node.py")):
        for line, name, _ in module.calls:
            head, _, tail = name.rpartition(".")
            if tail in ("CpuModel", "Hypervisor", "TieredMemory") and (
                    not head or head.startswith("repro.")):
                yield module.path, line


@rule("6")
def one_event_log_mode(index) -> Iterator[Site]:
    """The runtime keeps counters; per-event history goes only to an
    attached sink, so no log mode, ring or event record type exists."""
    retired = re.compile(r"log_mode|RING_SIZE|_require_full|RuntimeEvent")
    for module in modules(index):
        for line, text, _ in texts(module):
            if retired.search(text):
                yield module.path, line


@rule("6")
def safety_facts(index) -> Iterator[Site]:
    """Safety facts have one owner each (§6, §9): EventLog.record
    derives nothing from an event's details (no attribute or item of
    ``details``, ``event.details`` or ``self.details`` is read), a
    safeguard records its own transitions, and the runtime keeps action
    provenance and the first fallback as fields."""
    events = "src/repro/core/events.py"
    for module in modules(index, under=events):
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and last(
                    module.resolve(node.value)).endswith("details"):
                yield module.path, node.lineno
    retired = re.compile(r"SAFEGUARD_(TRIGGERED|CLEARED)"
                         r"|watch_fallback_from|default_predictions_sent")
    for module in modules(index, outside=("src/repro/core/safeguards.py",)):
        for line, text, node in texts(module):
            match = retired.search(text)
            enum_definition = module.path == events and isinstance(
                getattr(node, "ctx", None), ast.Store)
            if match and not (match.group(1) and enum_definition):
                yield module.path, line
        for line, name, _ in module.calls:
            if last(name) == "action_histogram":
                yield module.path, line


@rule("7")
def one_composer(index) -> Iterator[Site]:
    """A paper artifact's units are assembled by
    repro.experiments.driver only; any module may define a
    ``<fig>_assemble``, none but the driver may name one."""
    for module in index.values():
        if module.path == "src/repro/experiments/driver.py":
            continue
        for line, name, node in module.refs:
            if name.endswith("_assemble") and not isinstance(node, DEFS):
                yield module.path, line


@rule("8")
def one_codec(index) -> Iterator[Site]:
    """Durable payloads are canonical JSON through repro.cache.codec
    (§8, §12), so nothing imports pickle but the worker pipe frames in
    resilience/pool.py, which nothing outlives."""
    for module in modules(index, outside=("src/repro/resilience/pool.py",)):
        for line, name, _ in module.refs:
            if name.split(".")[0] in ("pickle", "_pickle"):
                yield module.path, line


@rule("8")
def one_io_seam(index) -> Iterator[Site]:
    """Whole-file writes and every fsync go through repro.cache.files
    (§8, §12, §14), and a run's telemetry is trace.jsonl alone: no
    metrics.json is written or read."""
    for module in modules(index, outside=("src/repro/cache/files.py",)):
        for line, name, _ in module.refs:
            if name in ("os.fsync", "os.fdatasync", "tempfile.mkstemp"):
                yield module.path, line
    for module in modules(index):
        for line, text, _ in texts(module):
            if re.search(r"metrics\.json|write_metrics|read_metrics", text):
                yield module.path, line


@rule("8")
def compact_state(index) -> Iterator[Site]:
    """The JSON a run or the cache leaves on disk is written without
    indentation (§8, §12, §14), so its bytes are the facts it stores.
    User-facing output (obs/cli.py, serve/cli.py) stays indented."""
    for module in index.values():
        if not (module.path.startswith(
                ("src/repro/journal/", "src/repro/cache/"))
                or module.path == "src/repro/obs/sidecar.py"):
            continue
        for line, name, call in module.calls:
            if name in ("json.dump", "json.dumps") and any(
                    keyword.arg == "indent" for keyword in call.keywords):
                yield module.path, line


def _records():
    from repro.fleet.node import NodeResult
    from repro.sweep.safety import SafetyRecord
    return NodeResult, SafetyRecord


@rule("9")
def closed_records(index, records=None) -> Iterator[Site]:
    """A node result and a campaign cell's record hold typed fields
    only, so what is stored is what its readers read: no field's type,
    inherited ones included, mentions ``Any``.  A site is the class
    that declares the field."""
    for record in records or _records():
        for name, hint in typing.get_type_hints(record).items():
            if "typing.Any" in repr(hint):
                owner = next(cls for cls in record.__mro__
                             if name in vars(cls).get("__annotations__", {}))
                path = os.path.relpath(inspect.getsourcefile(owner), ROOT)
                yield Path(path).as_posix(), inspect.getsourcelines(owner)[1]


@rule("10")
def one_golden_source(index) -> Iterator[Site]:
    """The frozen seed models are named by the conformance and bench
    harnesses only, and the dependency points one way: conformance
    never imports perf."""
    for module in modules(index, outside=(
            "src/repro/conformance/", "src/repro/perf/")):
        for line, name, _ in module.refs + module.strings:
            if "conformance.reference" in name:
                yield module.path, line
    for module in modules(index, under="src/repro/conformance/"):
        for line, name, _ in module.refs + module.strings:
            if "repro.perf" in name:
                yield module.path, line


@rule("11")
def one_chaos_channel(index) -> Iterator[Site]:
    """A worker-fault plan reaches the dispatcher through
    $REPRO_CHAOS_PLAN only, read by supervised_map: active_plan is
    named in supervisor.py and defined in chaos.py, and no function
    takes or passes a ``chaos`` argument."""
    for module in modules(index, outside=(
            "src/repro/resilience/supervisor.py",)):
        for line, name, node in module.refs:
            if last(name).endswith("active_plan") and not (
                    module.path == "src/repro/resilience/chaos.py"
                    and isinstance(node, DEFS)):
                yield module.path, line
    for module in modules(index):
        for line, word, node in module.words:
            if word == "chaos" and isinstance(node, (ast.arg, ast.keyword)):
                yield module.path, line


@rule("11.1")
def one_executor(index) -> Iterator[Site]:
    """Work units are run by repro.resilience.executor.run_units only:
    the supervised dispatcher and the journal's record hooks are named
    in repro.resilience, where they are defined (journal/run.py), and
    by serve's JournalTap proxy methods."""
    hook = re.compile(r"record_(done|dispatched|quarantined)")
    tap = ("record_done", "record_done_many", "record_quarantined")
    for module in modules(index, outside=(
            "src/repro/resilience/", "src/repro/journal/run.py")):
        for line, text, _ in module.strings:  # getattr(j, "record_done")
            if hook.search(text) or "supervised_map(" in text:
                yield module.path, line
        for line, name, node in module.refs:
            if not (name.endswith("supervised_map")
                    or hook.search(last(name))):
                continue
            receiver = name.rpartition(".")[0]
            if module.path == "src/repro/serve/jobs.py" and (
                    last(name) in tap and (isinstance(node, DEFS) or receiver
                                           in ("self", "self._journal"))):
                continue
            yield module.path, line


@rule("11.1")
def one_cancel_check(index) -> Iterator[Site]:
    """A cancel event is read by run_units (before each inline unit)
    and supervised_map (between polls) only (§11.1, §13)."""
    for module in modules(index, outside=(
            "src/repro/resilience/executor.py",
            "src/repro/resilience/supervisor.py")):
        for line, name, _ in module.calls:
            receiver, _, method = name.rpartition(".")
            if method == "is_set" and "cancel" in last(receiver):
                yield module.path, line


@rule("11.1")
def one_unit_span(index) -> Iterator[Site]:
    """The inline ``unit`` span is opened by run_units, and a pooled
    unit's by supervised_map, only."""
    for module in modules(index, outside=(
            "src/repro/resilience/executor.py",
            "src/repro/resilience/supervisor.py")):
        for line, name, call in module.calls:
            category = {kw.arg: kw.value for kw in call.keywords}.get("cat")
            if category is None and last(name) in ("span", "begin") and (
                    len(call.args) > 1):
                category = call.args[1]
            if isinstance(category, ast.Constant) and (
                    category.value == "unit"):
                yield module.path, line


@rule("11.2")
def one_launch_ladder(index) -> Iterator[Site]:
    """Journals are opened and run_tracing entered by
    journal/pipelines.py only (obs defines run_tracing), and every chaos
    proof reports through the one ``CHAOS FAILURE:`` printer,
    chaos.verdict."""
    opener = re.compile(r"open_(fleet|reproduce|sweep)_journal$")
    for module in modules(index, outside=("src/repro/journal/pipelines.py",)):
        for line, name, node in module.refs:
            defined = module.path == "src/repro/obs/__init__.py" and (
                isinstance(node, DEFS))
            if (name.endswith("run_tracing") and not defined) or (
                    opener.search(last(name))):
                yield module.path, line
    home = "src/repro/chaos.py"
    printers = [(module.path, line) for module in modules(index)
                for line, text, _ in module.strings
                if "CHAOS FAILURE:" in text]
    yield from (site for site in printers if site[0] != home)
    at_home = [line for path, line in printers if path == home]
    if len(at_home) != 1:
        yield from ((home, line) for line in at_home or [0])


@rule("12")
def one_ownership_primitive(index) -> Iterator[Site]:
    """Run leases are kernel locks taken in journal/lease.py only, and
    the journal starts no thread of its own."""
    for module in modules(index, outside=("src/repro/journal/lease.py",)):
        for line, name, _ in module.refs:
            if name in ("fcntl.flock", "fcntl.lockf"):
                yield module.path, line
    for module in modules(index, under="src/repro/journal/"):
        for line, name, _ in module.refs:
            if name in ("threading.Thread", "threading.Timer"):
                yield module.path, line


@rule("13")
def no_serve_polling(index) -> Iterator[Site]:
    """The serve scheduler, watch and drain wait on the server's
    wake-up event, and deadlines are loop timers: nothing sleeps or
    waits with a sub-second timeout, passed by keyword or as a
    parameter's default."""
    for module in modules(index, under="src/repro/serve/server.py"):
        for line, name, _ in module.refs:
            if name in ("asyncio.sleep", "time.sleep"):
                yield module.path, line
        timeouts = [(keyword.arg, keyword.value)
                    for _, _, call in module.calls for keyword in call.keywords]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                timeouts += zip(
                    [arg.arg for arg in positional[len(positional)
                                                   - len(args.defaults):]],
                    args.defaults)
                timeouts += zip([arg.arg for arg in args.kwonlyargs],
                                args.kw_defaults)
        for name, value in timeouts:
            if (name or "").endswith("timeout") and isinstance(
                    value, ast.Constant) and isinstance(
                    value.value, (int, float)) and value.value < 1:
                yield module.path, value.lineno


@rule("14")
def counters_are_fields(index) -> Iterator[Site]:
    """Counters are plain dataclass fields: no metrics registry, no
    counter properties, and no process-global unit-wall table (recorded
    walls come from the result cache)."""
    retired = re.compile(
        r"MetricsRegistry|counter_property|HistogramFamily|\b_unit_timings\b")
    for module in modules(index):
        for line, text, _ in texts(module):
            if retired.search(text):
                yield module.path, line


def violations(check, index) -> List[str]:
    return sorted({f"{path}:{line}" for path, line in check(index)})


@pytest.fixture(scope="module")
def index():
    return build_index(ROOT)


@pytest.mark.parametrize(
    "check", RULES, ids=[f"{c.section}-{c.__name__}" for c in RULES])
def test_the_source_keeps_the_rule(index, check):
    assert violations(check, index) == [], check.__doc__


#: One violation per rule: (rule, path, source).  The planted line ends
#: in ``# planted``; where a rule is about a call or an import, the
#: plant goes through an alias that a text match would not see.
PLANTS = [
    (one_builder, "src/repro/agents/rogue.py",
     "from repro.node.cpu import CpuModel as Cpu\n"
     "\n"
     "def build(kernel):\n"
     "    return Cpu(kernel)  # planted\n"),
    (one_event_log_mode, "src/repro/core/rogue.py",
     '"""Events."""\n'
     "_RING_SIZE = 4096  # planted\n"),
    (safety_facts, "src/repro/core/events.py",
     "def record(kind, **details):\n"
     "    return details.get('safeguard')  # planted\n"),
    (safety_facts, "src/repro/core/events.py",
     '"""Events."""\n'
     "\n"
     "def replay(event):\n"
     "    return event.details.get('safeguard')  # planted\n"),
    (safety_facts, "src/repro/core/runtime.py",
     "from repro.core.events import EventKind as K\n"
     "\n"
     "def trip(log):\n"
     "    log.record(K.SAFEGUARD_TRIGGERED)  # planted\n"),
    (one_composer, "examples/rogue.py",
     '"""A second composer."""\n'
     "from repro.experiments.overclock import fig1_assemble as compose"
     "  # planted\n"),
    (one_codec, "src/repro/cache/rogue.py",
     '"""A second codec."""\n'
     "import pickle as p  # planted\n"),
    (one_io_seam, "src/repro/journal/rogue.py",
     '"""A second IO seam."""\n'
     "from os import fsync as f  # planted\n"),
    (one_io_seam, "src/repro/obs/rogue.py",
     "def path(root):\n"
     "    return root / 'metrics.json'  # planted\n"),
    (compact_state, "src/repro/cache/rogue.py",
     "from json import dumps as encode\n"
     "\n"
     "def store(value):\n"
     "    return encode(value, indent=2)  # planted\n"),
    (one_golden_source, "src/repro/fleet/rogue.py",
     '"""Frozen models in production."""\n'
     "from ..conformance import reference as frozen  # planted\n"),
    (one_golden_source, "src/repro/conformance/rogue.py",
     '"""Conformance importing perf."""\n'
     "from .. import perf as bench  # planted\n"),
    (one_chaos_channel, "src/repro/journal/rogue.py",
     "from repro.resilience.chaos import active_plan as plan  # planted\n"),
    (one_chaos_channel, "src/repro/experiments/rogue.py",
     "def launch(units,\n"
     "           chaos=None):  # planted\n"
     "    return units\n"),
    (one_executor, "src/repro/experiments/rogue.py",
     '"""A sixth executor."""\n'
     "from repro.resilience import supervised_map as go  # planted\n"),
    (one_executor, "src/repro/serve/jobs.py",
     "def finish(journal, unit_id):\n"
     "    journal.record_dispatched(unit_id, 1)  # planted\n"),
    (one_executor, "src/repro/sweep/rogue.py",
     "def finish(journal, unit_id):\n"
     "    getattr(journal, 'record_done')(unit_id)  # planted\n"),
    (one_cancel_check, "src/repro/serve/jobs.py",
     "def next_unit(job):\n"
     "    return not job.cancelled.is_set()  # planted\n"),
    (one_unit_span, "src/repro/experiments/rogue.py",
     "from repro import obs as o\n"
     "\n"
     "def run(unit):\n"
     "    with o.span(unit, cat='unit'):  # planted\n"
     "        pass\n"),
    (one_unit_span, "src/repro/serve/jobs.py",
     "def run(tracer, unit):\n"
     "    return tracer.begin(unit, 'unit')  # planted\n"),
    (one_launch_ladder, "src/repro/cli.py",
     '"""A second launcher."""\n'
     "from repro.obs import run_tracing as traced  # planted\n"),
    (one_launch_ladder, "src/repro/serve/harness.py",
     "import sys\n"
     "\n"
     "def fail(why):\n"
     "    print(f'CHAOS FAILURE: {why}', file=sys.stderr)  # planted\n"),
    (one_ownership_primitive, "src/repro/cache/rogue.py",
     '"""A second lock."""\n'
     "from fcntl import flock  # planted\n"),
    (one_ownership_primitive, "src/repro/journal/rogue.py",
     "import threading as t\n"
     "\n"
     "def flush_later(log):\n"
     "    t.Thread(target=log.commit).start()  # planted\n"),
    (no_serve_polling, "src/repro/serve/server.py",
     "async def watch():\n"
     "    import asyncio as aio; await aio.sleep(0.1)  # planted\n"),
    (no_serve_polling, "src/repro/serve/server.py",
     "import threading\n"
     "\n"
     "def drain(done: threading.Event):\n"
     "    return done.wait(timeout=0.05)  # planted\n"),
    (no_serve_polling, "src/repro/serve/server.py",
     "import asyncio\n"
     "\n"
     "\n"
     "async def poll(wake, timeout=0.1):  # planted\n"
     "    return await asyncio.wait_for(wake.wait(), timeout)\n"),
    (counters_are_fields, "src/repro/obs/rogue.py",
     "class Stats:\n"
     "    def __init__(self):\n"
     "        self._unit_timings = {}  # planted\n"),
]


def planted_site(path: str, source: str) -> str:
    """``path:line`` of the line that ends in ``# planted``."""
    line = next(n for n, text in enumerate(source.splitlines(), 1)
                if text.endswith("# planted"))
    return f"{path}:{line}"


@pytest.mark.parametrize(
    "check, path, source", PLANTS,
    ids=[f"{check.__name__}:{planted_site(path, source)}"
         for check, path, source in PLANTS])
def test_a_planted_violation_is_reported(index, tmp_path, check, path,
                                         source):
    planted = tmp_path / path
    planted.parent.mkdir(parents=True)
    planted.write_text(source)
    found = violations(check, {**index, path: read_module(tmp_path, path)})
    assert found == [planted_site(path, source)]


Extra = Dict[str, Any]


class _Fields:
    extra: "Extra"  # planted: Any through a quoted alias


class _OpenRecord(_Fields):
    cell: str


def test_an_inherited_open_field_is_reported(index):
    """The closed-records plant is a class, not a file: the rule reads
    the types the interpreter resolves."""
    found = violations(
        lambda index: closed_records(index, [_OpenRecord]), index)
    line = inspect.getsourcelines(_Fields)[1]
    assert found == [f"tests/test_architecture.py:{line}"]


def test_a_binary_file_is_skipped(tmp_path):
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/blob.bin").write_bytes(b"\xff\xfemetrics.json")
    assert read_module(tmp_path, "src/repro/blob.bin").strings == []


def test_every_rule_has_a_plant():
    planted = {check for check, _, _ in PLANTS} | {closed_records}
    assert planted == set(RULES)
