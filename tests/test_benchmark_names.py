"""Every name the benchmark under ``perfbench/`` reaches in the package exists.

``perfbench/tracing.py`` wraps each function of its ``WRAPPED`` table and the
BFS closure, ``perfbench/run.py`` clears that closure's cache, and
``perfbench/workloads.py`` calls functions on the package object by name.  A
name renamed or removed under ``src/`` breaks a traced benchmark run with an
``AttributeError``, which no other Tier-1 test would see.  The benchmark's
files are only read here: ``tracing.py`` is loaded as a standalone module (it
imports nothing from the package), and ``workloads.py`` is parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import brauerblocks

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
INIT = ROOT / "src" / "brauerblocks" / "__init__.py"


def _wrapped_table():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves():
    table = _wrapped_table()
    assert table
    for mod_name, attr, _, _ in table:
        module = importlib.import_module(f"brauerblocks.{mod_name}")
        if "." in attr:
            # the tracer patches the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (mod_name, attr)
    closure = brauerblocks.blocks._orbit_closure
    assert callable(closure.cache_clear) and callable(closure.cache_info)


def _workload_names() -> set[str]:
    """The attributes read off ``bb``, the op kinds passed to ``Op``, and the
    strings of the ``*_KINDS`` tables that are looked up with ``getattr``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bb":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Op":
            if node.args and isinstance(node.args[0], ast.Constant):
                names.add(node.args[0].value)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id.endswith("_KINDS") for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def test_every_workload_call_resolves():
    names = _workload_names()
    assert {"Partition", "same_block", "enumerate_block_members", "brauer_algebra_blocks"} <= names
    assert [name for name in sorted(names) if not callable(getattr(brauerblocks, name, None))] == []


def test_all_lists_exactly_the_imported_names():
    imported = {
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(brauerblocks.__all__) == len(set(brauerblocks.__all__))
    assert set(brauerblocks.__all__) == imported | {"__version__"}
