"""The package names the benchmark in perfbench/ relies on.

perfbench/spans.py traces functions by ``layered_bpsk.<layer>.<name>`` and
skips a name it cannot find, which silently drops that metric;
perfbench/worker.py calls top-level ``lb.<name>`` attributes.  Both files are
read here as source text, without importing them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layered_bpsk
import layered_bpsk.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned_literal(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def _traced_names() -> list[str]:
    traced = _assigned_literal(PERFBENCH / "spans.py", "TRACED")
    return [f"{layer}.{fn}" for layer, names in traced.items() for fn in names]


def _lb_chains() -> list[str]:
    """Every dotted attribute chain rooted at the name ``lb`` in worker.py."""
    chains = set()
    for node in ast.walk(ast.parse((PERFBENCH / "worker.py").read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "lb":
            chains.add(".".join(reversed(parts)))
    return sorted(chains)


def test_sources_list_names():
    assert len(_traced_names()) >= 10
    assert {"bpsk_rate", "cli.main", "simulate_1d"} <= set(_lb_chains())


@pytest.mark.parametrize("name", _traced_names())
def test_traced_function_defined_in_its_module(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"layered_bpsk.{layer}")
    obj = getattr(module, fn, None)
    assert callable(obj), f"layered_bpsk.{name} is missing"
    assert obj.__module__ == module.__name__


@pytest.mark.parametrize("chain", _lb_chains())
def test_worker_attribute_resolves(chain):
    obj = layered_bpsk
    for part in chain.split("."):
        obj = getattr(obj, part)


def test_package_import_loads_every_traced_layer():
    layers = sorted({name.split(".")[0] for name in _traced_names()} - {"cli"})
    code = ("import sys, layered_bpsk; "
            f"print(all('layered_bpsk.' + m in sys.modules for m in {layers!r}))")
    env = dict(os.environ, PYTHONPATH=str(Path(layered_bpsk.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout.strip() == "True"


def _imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    return modules


def test_oracles_stay_independent():
    # A reference that shares code with what it checks cannot catch its
    # defects: neither oracle module imports the package or the other one,
    # and the package imports neither.
    tests_oracles = Path(__file__).resolve().parent / "oracles.py"
    for path in (tests_oracles, PERFBENCH / "oracles.py"):
        imported = _imported_modules(path)
        assert not any(m.split(".")[0] in ("layered_bpsk", "oracles", "perfbench", "tests")
                       for m in imported), f"{path.name} imports {sorted(imported)}"
    for path in Path(layered_bpsk.__file__).parent.glob("*.py"):
        assert not any("oracles" in m.split(".") for m in _imported_modules(path)), path.name
