"""The control plane imports no simulation (DESIGN.md §13).

Each check runs in a fresh interpreter: ``sys.modules`` of this test
process already holds the whole stack.
"""

import os
import subprocess
import sys

import pytest

import repro

CONTROL_PLANE = (
    "repro.cli", "repro.serve.server", "repro.journal.cli", "repro.obs.cli",
)

#: ``repro list`` as it printed before the boundary existed.
LIST_OUTPUT = """\
artifacts:
  table1
  table2
  fig1
  fig2
  fig3
  fig4
  fig5
  fig6-left
  fig6-middle
  fig6-right
  fig7
  fig8
fleet agent kinds: overclock, harvest, memory, mixed
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, *args], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout


@pytest.mark.parametrize("module", CONTROL_PLANE)
def test_a_control_plane_module_loads_no_simulation(module):
    script = (
        "import sys\n"
        f"import {module}\n"
        "print(sorted(m for m in sys.modules if m == 'numpy'\n"
        "      or m.startswith(('repro.sim', 'repro.core'))))\n"
    )
    assert _python("-c", script).strip() == "[]"


def test_the_cli_loads_no_worker_pool():
    """Building the parser starts no pool, so it imports none: the pool
    and ``multiprocessing`` load with the first pooled dispatch."""
    script = (
        "import sys, repro.cli\n"
        "repro.cli._build_parser()\n"
        "print(sorted(m for m in sys.modules if m in (\n"
        "    'multiprocessing', 'pickle', 'repro.resilience.pool')))\n"
    )
    assert _python("-c", script).strip() == "[]"


def test_repro_list_prints_what_it_always_printed():
    assert _python("-m", "repro", "list") == LIST_OUTPUT


def test_every_package_export_resolves():
    from repro.core import SolRuntime
    from repro.sim import Kernel

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert repro.SolRuntime is SolRuntime
    assert repro.Kernel is Kernel
    star = {}
    exec("from repro import *", star)
    assert set(repro.__all__) <= set(star)
    with pytest.raises(AttributeError):
        repro.no_such_name
