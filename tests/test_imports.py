"""The module graph: package inits re-export nothing, so an import loads
only what the imported module itself needs.

Each check runs in a fresh interpreter, never in the pytest process:
dropping ``sys.modules`` entries here would split class identities for
later tests.  The tests pin the graph, not an import time.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.findings import _LINT_MODULES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Entry point (comma-separated modules) -> ``sys.path`` prefix.
_ENTRY_POINTS = {
    "repro.server.streaming": [SRC],
    "repro.fleet.simulator": [SRC],
    "repro.llm.functional_model": [SRC],
    # perfbench's import probe (``import_seconds`` in perfbench/run.py).
    "layers,workloads": [ROOT / "perfbench", SRC],
}

#: Modules that only lint sweeps and tests run.
_SIMULATOR_ONLY = (
    "repro.gpu.warp_sim",
    "repro.gpu.smbd_program",
    "repro.gpu.pipeline",
)

#: The package inits that may import, each for the reason given in it.
_INITS_WITH_IMPORTS = {"repro.kernels", "repro.runtime", "repro.integrity"}

#: Prints the sorted ``repro`` modules loaded by importing ``argv[1]``
#: (comma-separated) with ``argv[2:]`` prepended to ``sys.path``.
_LOADED = """
import json, sys
sys.path[:0] = sys.argv[2:]
for name in sys.argv[1].split(","):
    __import__(name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""

#: Imports every ``repro`` module after dropping all ``repro*`` entries
#: from ``sys.modules``, then reads the rule registry from a fresh start.
_EACH_ALONE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro

def forget():
    for key in [k for k in sys.modules if k.split(".")[0] == "repro"]:
        del sys.modules[key]

names = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith(".__main__")
)
failures = []
for name in names:
    forget()
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
forget()
from repro.analysis.findings import rule_table
families = sorted({row["family"] for row in rule_table()})
print(json.dumps({"modules": names, "failures": failures, "families": families}))
"""


def _run(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, timeout=100,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _off_path(module):
    return (
        module in _LINT_MODULES
        or module in _SIMULATOR_ONLY
        or module == "repro.bench"
        or module.startswith("repro.bench.")
    )


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_serving_paths_load_no_lint_bench_or_warp_simulator(entry):
    loaded = _run(_LOADED, entry, *_ENTRY_POINTS[entry])
    offending = [m for m in loaded if _off_path(m)]
    assert not offending, f"importing {entry} loads {offending}"


def test_cli_loads_no_experiment():
    # Every subcommand imports repro.cli; the experiment registry
    # (repro.bench.report) loads only when `bench` or `report` runs.
    loaded = _run(_LOADED, "repro.cli", SRC)
    allowed = {"repro.bench", "repro.bench.harness"}  # format_table
    offending = [m for m in loaded if _off_path(m) and m not in allowed]
    assert not offending, f"importing repro.cli loads {offending}"


def _package_inits():
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        if package != "repro.analysis.fixtures_source":
            yield package, init


def test_package_inits_hold_no_reexports():
    problems = []
    for package, init in _package_inits():
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if package not in _INITS_WITH_IMPORTS:
                    problems.append(f"{package}: import on line {node.lineno}")
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "__getattr__"
            ):
                problems.append(f"{package}: defines __getattr__")
    assert not problems, problems


def test_every_module_imports_alone_and_the_registry_fills_itself():
    result = _run(_EACH_ALONE, SRC)
    assert len(result["modules"]) > 100
    assert not result["failures"], "\n".join(result["failures"])
    assert result["families"] == list("ACDFHKMOPQSTW")
